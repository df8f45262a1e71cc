"""Forgetting metrics.

Forgetting of a final iterate w_T is the average squared residual over the
first T-1 tasks (the final task is fit exactly, so it never contributes).
Three variants are exposed: squared error on the training rows themselves,
squared error on freshly drawn rows from the task subspaces, and the exact
expectation of the fresh-sample variant, which reduces to projector
algebra. On top of these sit the two-task replay expectation (Monte Carlo,
computed per trial in the orthonormal coordinates of task 1 plus the part
of task 2 outside it, so no trial forms a d-vector) and the benign-replay
certificate with its trace-form exact expectation over standard-normal
targets.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch, InvalidParameters, TooFewTasks
from .linalg_core import (
    Projector,
    Subspace,
    as_matrix,
    as_vector,
    op_norm,
    rank_mask,
)
from .task_gen import TaskSequence

# Trials per batched QR in the replay Monte Carlo kernel. A trial's stacked
# [Z^T | B] holds k1 * (m + k2) entries, so a chunk is also capped at
# _REPLAY_CHUNK_ENTRIES // (k1 * max(m, k2)) trials: the draw, the stack and
# LAPACK's copy stay near 1 MB each (86-trial chunks at d = 152, m = 10). A
# chunk holds at least one trial: at d = 3000, m = 150, one 3.6 MB trial.
_REPLAY_CHUNK = 4096
_REPLAY_CHUNK_ENTRIES = 2**17
# Draws per vectorized block in forgetting_test_mean.
_TEST_CHUNK = 20000


def forgetting_train(seq: TaskSequence, w) -> float:
    """Average squared residual of w on the training rows of tasks 1..T-1."""
    if len(seq) < 2:
        raise TooFewTasks("forgetting needs at least two tasks")
    w = as_vector(w, "w")
    losses = [task.residual(w) ** 2 for task in seq.tasks[:-1]]
    return sum(losses) / len(losses)


def forgetting_test_mean(
    subspaces: list[Subspace],
    w,
    w_star,
    trials: int,
    rng: np.random.Generator,
) -> dict:
    """Monte Carlo mean of fresh-sample forgetting over many independent draws.

    Each draw takes k_t new rows from each of the first T-1 task subspaces
    under ``sample_task``'s law and averages the squared residuals of w.
    Vectorized: a fresh row W z contributes (z . W^T(w - w*))^2, so each
    draw's loss is ||Z_t c_t||^2 with c_t = W_t^T (w - w*) and Z_t a
    k_t x k_t matrix of N(0, 1/k_t) entries. Returns the mean, its standard
    error, and the trial count.
    """
    T = len(subspaces)
    if T < 2:
        raise TooFewTasks("forgetting needs at least two tasks")
    if trials < 1:
        raise InvalidParameters("trials must be >= 1")
    w = as_vector(w, "w")
    w_star = as_vector(w_star, "w_star")
    delta = w - w_star
    coords = [(s.basis.T @ delta, s.rank) for s in subspaces[:-1]]
    values = np.zeros(trials)
    done = 0
    while done < trials:
        size = min(_TEST_CHUNK, trials - done)
        total = np.zeros(size)
        for c, k in coords:
            Z = rng.standard_normal((size, k, k)) / math.sqrt(k)
            total += np.sum(np.einsum("ijk,k->ij", Z, c) ** 2, axis=1)
        values[done : done + size] = total / (T - 1)
        done += size
    mean = float(values.mean())
    std_err = float(values.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return {"mean": mean, "std_err": std_err, "trials": trials}


def expected_forgetting_closed_form(subspaces: list[Subspace], w_star) -> float:
    """Exact expected fresh-sample forgetting of the min-norm learner.

    Pushes w* through the null projectors of all T tasks in order, then
    averages ||Pi_t (P_T ... P_1 w*)||^2 over the first T-1 tasks.
    """
    T = len(subspaces)
    if T < 2:
        raise TooFewTasks("forgetting needs at least two tasks")
    w_star = as_vector(w_star, "w_star")
    r = w_star.copy()
    for s in subspaces:
        if s.ambient_dim != r.shape[0]:
            raise DimensionMismatch("subspace ambient dims disagree")
        r -= s.basis @ (s.basis.T @ r)
    total = 0.0
    for t in range(T - 1):
        total += float(np.sum((subspaces[t].basis.T @ r) ** 2))
    return total / (T - 1)


def replay_null_projector(s2: Subspace, memory_rows) -> Projector:
    """Null projector of the second task after adding replay rows.

    The augmented range is the row span of [W2^T; rows], read from one thin
    SVD of that stack: the right singular vectors that pass ``rank_mask``
    form U, and the result is I - U^T U (no iterative training). The
    ``Projector`` validation (symmetric, idempotent, eigenvalues in {0, 1})
    is the check on what this returns.
    """
    rows = as_matrix(memory_rows, "rows")
    if rows.shape[1] != s2.ambient_dim:
        raise DimensionMismatch("memory rows do not match the ambient dimension")
    _, s, vh = np.linalg.svd(np.vstack([s2.basis.T, rows]), full_matrices=False)
    U = vh[rank_mask(s)]
    return Projector(np.eye(s2.ambient_dim) - U.T @ U)


def expected_replay_forgetting_two_tasks(
    s1: Subspace,
    s2: Subspace,
    w_star,
    m: int,
    trials: int,
    rng: np.random.Generator,
) -> dict:
    """Monte Carlo replay forgetting for a two-task sequence.

    Each trial draws m memory rows W1 z_i, z_i ~ N(0, I / k1) (the first
    task's sampling law; the z_i are the rows of Z), and evaluates
    ||Pi_1 P~_2 P_1 w*||^2, where P~_2 is the null projector of task 2
    augmented with those rows.

    The kernel never forms a d-vector per trial. Split
    W2 = W1 B + C0 with B = W1^T W2 and C0 = P_1 W2. With B~ the part of B
    outside span Z^T, the union span is span(W1 Z^T) + span(W1 B~ + C0),
    the two parts orthogonal. Since q = P_1 w* is orthogonal to span W1,
    W1^T P~_2 q = -B~ y with y the pseudo-inverse solution of
    (B~^T B~ + C0^T C0) y = C0^T q. The pseudo-inverse keeps the
    eigen-directions whose square-rooted eigenvalue passes ``rank_mask``
    (1e-10 of the largest).

    B~ is read from one Householder QR of the k1 x (m + k2) matrix
    [Z^T | B], R factor only (no Q is formed). Its trailing block
    R22 = R[m:, m:] satisfies R22^T R22 = B~^T B~ whenever Z has full rank
    (with probability 1), so ||B~ y|| = ||R22 y|| (Bjorck, Numerical
    Methods for Least Squares Problems, 1996, sec. 1.3). For m >= k1 the
    block has no rows and the value is exactly 0. A trial's value depends
    on Z only through its row span, so the draw is used unscaled; only the
    k2-column [R22; C0] is squared, never Z.

    Trials run in chunks of up to ``_REPLAY_CHUNK``. A chunk draws all of its
    replay coefficients in one call, which consumes ``rng`` in the same
    order as one draw per trial, and factors the stacked matrices
    [Z^T | B] in one batched QR (stacked ``mode="r"`` needs NumPy >= 1.22).
    Chunking never shows in the output.

    Returns:
        {"mean", "std_err", "trials"} of the per-trial values.
    """
    if s1.ambient_dim != s2.ambient_dim:
        raise DimensionMismatch("task subspaces live in different dimensions")
    if m < 1:
        raise InvalidParameters("m must be >= 1")
    if trials < 1:
        raise InvalidParameters("trials must be >= 1")
    w_star = as_vector(w_star, "w_star")
    if w_star.shape[0] != s1.ambient_dim:
        raise DimensionMismatch("w_star dimension mismatch")
    k1 = s1.rank
    if k1 == 0:
        raise InvalidParameters("the first task subspace is trivial")
    W1, W2 = s1.basis, s2.basis
    q = w_star - W1 @ (W1.T @ w_star)  # P_1 w*
    B = W1.T @ W2
    C0 = W2 - W1 @ B  # P_1 W2
    c = C0.T @ q
    C0tC0 = C0.T @ C0
    values = np.empty(trials)
    k2 = s2.rank
    chunk = max(1, min(_REPLAY_CHUNK, _REPLAY_CHUNK_ENTRIES // (k1 * max(m, k2))))
    for start in range(0, trials, chunk):
        size = min(chunk, trials - start)
        ZB = np.empty((size, m + k2, k1))
        ZB[:, :m] = rng.standard_normal((size, m, k1))
        ZB[:, m:] = B.T
        R = np.linalg.qr(ZB.transpose(0, 2, 1), mode="r")
        Bt = R[:, m:, m:]  # R22, Bt^T Bt = B~^T B~
        evals, evecs = np.linalg.eigh(Bt.transpose(0, 2, 1) @ Bt + C0tC0)
        evals, evecs = evals[:, ::-1], evecs[:, :, ::-1]
        keep = rank_mask(np.sqrt(np.clip(evals, 0.0, None)))
        inv = np.divide(1.0, evals, out=np.zeros_like(evals), where=keep)
        y = evecs @ (inv * (c @ evecs))[:, :, None]
        values[start : start + size] = np.sum((Bt @ y) ** 2, axis=(1, 2))
    mean = float(values.mean())
    std_err = float(values.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return {"mean": mean, "std_err": std_err, "trials": trials}


SQRT2_OVER_2 = math.sqrt(2.0) / 2.0


def benign_replay_certificate(s1: Subspace, s2: Subspace) -> dict:
    """Certify that replay cannot increase expected forgetting.

    Computes ||P_2 P_1||_op. When it is at most sqrt(2)/2, every eigenvalue
    of (P_2 P_1)^T (P_2 P_1) sits in [0, 1/2], where x - x^2 is monotone,
    so shrinking the second null space (which is what replay does) can only
    lower the trace-form expectation over w* ~ N(0, I).

    Returns:
        {"op_norm_value": float, "certified": bool}.
    """
    if s1.ambient_dim != s2.ambient_dim:
        raise DimensionMismatch("task subspaces live in different dimensions")
    d = s1.ambient_dim
    P1 = np.eye(d) - s1.basis @ s1.basis.T
    P2 = np.eye(d) - s2.basis @ s2.basis.T
    value = op_norm(P2 @ P1)
    return {"op_norm_value": value, "certified": bool(value <= SQRT2_OVER_2 + 1e-12)}


def expected_forgetting_trace_form(
    s1: Subspace, s2: Subspace, replay_projector: Projector | None = None
) -> float:
    """Exact E[two-task forgetting] over w* ~ N(0, I_d).

    With A = P_2 P_1 (or P~_2 P_1 when ``replay_projector``, the null
    projector of the replay-augmented second task, is given), the
    expectation equals trace(A^T A - (A^T A)^2). It is computed in task 1's
    coordinates as trace(G) - ||G||_F^2 with G = W1^T P_2 W1, so P_1 is
    never formed; without replay G = I - B B^T with B = W1^T W2, so no
    projector is formed at all. The two agree: inside (0, 1) the
    eigenvalues of G are the squared cosines of the principal angles
    between task 1 and the range of P_2, and those of A^T A = P_1 P_2 P_1
    are their squared sines, the same angles read against task 1's
    complement (Halmos 1969). x - x^2 takes the same value at x and 1 - x,
    and the eigenvalues 0 and 1 add nothing.
    """
    if s1.ambient_dim != s2.ambient_dim:
        raise DimensionMismatch("task subspaces live in different dimensions")
    W1 = s1.basis
    if replay_projector is None:
        B = W1.T @ s2.basis
        G = np.eye(s1.rank) - B @ B.T
    else:
        if replay_projector.ambient_dim != s1.ambient_dim:
            raise DimensionMismatch("replay projector dimension mismatch")
        G = W1.T @ replay_projector.matrix @ W1
    return float(np.trace(G) - np.sum(G * G))
