"""Forgetting metrics.

Forgetting of a final iterate w_T is the average squared residual over the
first T-1 tasks (the final task is fit exactly, so it never contributes).
Three variants are exposed: squared error on the training rows themselves,
squared error on freshly drawn rows from the task subspaces, and the exact
expectation of the fresh-sample variant, which reduces to projector
algebra. On top of these sit the two-task replay expectation (Monte Carlo
over the law of the replayed span, so no trial forms a d-vector or draws a
memory row), its exact value when the second task is one direction (a
one-dimensional Beta integral), and the benign-replay certificate with its
trace-form exact expectation over standard-normal targets.
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

# Trials per chunk in the replay Monte Carlo kernel. A trial draws k1 * k2
# normals and keeps a few k1 x r and k2 x k2 arrays (r <= k2), so a chunk is
# also capped at _REPLAY_CHUNK_ENTRIES // (k2 * max(k1, k2)) trials: each
# array stays near 0.5 MB (434-trial chunks at d = 152). A chunk holds at
# least one trial.
_REPLAY_CHUNK = 4096
_REPLAY_CHUNK_ENTRIES = 2**16
# Gauss-Legendre nodes per panel of the exact rank-one replay value.
_QUAD_NODES = 32
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
    k_t x k_t matrix of N(0, 1/k_t) entries. Returns {"mean", "std_err"} of
    the per-draw values.
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
    return {"mean": mean, "std_err": std_err}


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


def _polar_factor(H: np.ndarray) -> np.ndarray:
    """H (H^T H)^(-1/2) for a stack of full-column-rank H.

    The symmetric inverse root comes from a batched ``eigh`` of the Gram
    matrix, applied twice: the second pass, on a Gram matrix within
    rounding of I, brings the error from rounding times cond(H)^2 down to
    rounding times cond(H).
    """
    for _ in range(2):
        evals, evecs = np.linalg.eigh(H.transpose(0, 2, 1) @ H)
        root = (evecs / np.sqrt(evals)[:, None, :]) @ evecs.transpose(0, 2, 1)
        H = np.einsum("nij,njk->nik", H, root)
    return H


def _replay_values(H, m, SVt, C0tC0, c) -> np.ndarray:
    """||B~ y||^2 per trial for a stack of H = G V (see the kernel below).

    A function of its own, so no chunk's arrays outlive the chunk.
    """
    Phi = _polar_factor(H)[:, m:]
    BtB = SVt.T @ (Phi.transpose(0, 2, 1) @ Phi) @ SVt  # B~ = Phi[m:] S V^T
    evals, evecs = np.linalg.eigh(BtB + C0tC0)
    evals, evecs = evals[:, ::-1], evecs[:, :, ::-1]
    keep = rank_mask(np.sqrt(np.clip(evals, 0.0, None)))
    inv = np.divide(1.0, evals, out=np.zeros_like(evals), where=keep)
    y = evecs @ (inv * (c @ evecs))[:, :, None]
    Bty = np.einsum("nij,nj->ni", Phi, (SVt @ y)[:, :, 0])
    return np.einsum("ni,ni->n", Bty, Bty)


def expected_replay_forgetting_two_tasks(
    s1: Subspace,
    s2: Subspace,
    w_star,
    m: int,
    trials: int,
    rng: np.random.Generator,
) -> dict:
    """Monte Carlo replay forgetting for a two-task sequence.

    Each trial replays m memory rows W1 z_i with z_i ~ N(0, I / k1) (the
    first task's sampling law) and evaluates ||Pi_1 P~_2 P_1 w*||^2, where
    P~_2 is the null projector of task 2 augmented with those rows.

    The kernel never forms a d-vector per trial. Split W2 = W1 B + C0 with
    B = W1^T W2 and C0 = P_1 W2. With B~ = (I - P_Z) B the part of B
    outside span Z^T (Z holds the z_i as rows), the union span is
    span(W1 Z^T) + span(W1 B~ + C0), the two parts orthogonal. Since
    q = P_1 w* is orthogonal to span W1, W1^T P~_2 q = -B~ y with y the
    pseudo-inverse solution of (B~^T B~ + C0^T C0) y = C0^T q. The
    pseudo-inverse keeps the eigen-directions whose square-rooted eigenvalue
    passes ``rank_mask`` (1e-10 of the largest). The value is ||B~ y||^2.

    No memory row is drawn. span Z^T is a uniform m-subspace of R^k1, so
    with U S V^T the part of B's SVD that passes ``rank_mask`` (r columns),
    U^T (I - P_Z) U has the law of Phi[m:]^T Phi[m:] for a Haar k1 x r
    frame Phi: a matrix-variate Beta, or Jacobi, law (Muirhead, Aspects of
    Multivariate Statistical Theory, 1982, sec. 3.3). Each trial therefore
    draws a k1 x k2 matrix G of N(0, 1) entries, takes Phi as the polar
    factor H (H^T H)^(-1/2) of H = G V, and uses B~ = Phi[m:] S V^T: its
    Gram matrix has the law of B^T (I - P_Z) B, and the value reads B~ only
    through that Gram matrix. Replacing V by V O, with O commuting with S
    (the SVD's own freedom), maps Phi to Phi O and leaves B~ unchanged, so
    rotating both tasks, which moves B by rounding only, gives the same
    values from the same seed, also where B has repeated singular values.
    For m >= k1, Phi[m:] has no rows and the value is exactly 0.

    A call consumes exactly trials * k1 * k2 standard normals from ``rng``,
    the same stream as one ``rng.standard_normal((trials, k1, k2))``: 151 a
    trial at d = 152, where memory rows would take m * 151. Trials run in
    chunks of up to ``_REPLAY_CHUNK``, each drawn in one call, so chunking
    never shows in the output.

    Returns:
        {"mean", "std_err"} of the per-trial values.
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
    _, svals, vh = np.linalg.svd(B, full_matrices=False)
    keep = rank_mask(svals)
    V = vh[keep].T
    SVt = svals[keep, None] * vh[keep]  # S V^T
    values = np.empty(trials)
    k2 = s2.rank
    chunk = max(1, min(_REPLAY_CHUNK, _REPLAY_CHUNK_ENTRIES // max(1, k2 * max(k1, k2))))
    for start in range(0, trials, chunk):
        size = min(chunk, trials - start)
        H = (rng.standard_normal((size * k1, k2)) @ V).reshape(size, k1, -1)
        values[start : start + size] = _replay_values(H, m, SVt, C0tC0, c)
    mean = float(values.mean())
    std_err = float(values.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return {"mean": mean, "std_err": std_err}


def expected_replay_forgetting_rank_one(k1: int, m: int, epsilon: float) -> float:
    """Exact replay forgetting of ``make_avg_case_highdim``'s two tasks.

    There task 2 is one direction v_d, B = W1^T v_d = c e_u with
    c^2 = 1 - eps^2, and ||w*|| = 1. A uniform m-row memory acts on a trial
    only through rho = 1 - ||Q_Z^T e_u||^2 ~ Beta((k1 - m)/2, m/2)
    (Dasgupta & Gupta, Random Struct. Alg. 2003), and the trial's value is
    c^2 eps^2 rho / (c^2 rho + eps^2)^2. This returns its expectation, the
    value ``expected_replay_forgetting_two_tasks`` estimates with k1 = d - 1.
    It is 0 for m >= k1, where the memory spans task 1.

    The integral is Gauss-Legendre in phi with rho = sin^2 phi, under the
    Beta density with its ``math.lgamma`` normaliser, on composite panels
    with ``_QUAD_NODES`` nodes each. Panel edges sit at eps/c times powers of 2,
    which resolves the value's peak at sin phi = eps/c for every eps, and
    on a uniform grid of ceil(sqrt(k1)) panels, which resolves the Beta
    weight's width of about 1/sqrt(k1).
    """
    if m < 1 or k1 < 1:
        raise InvalidParameters("the exact replay value needs k1 >= 1 and m >= 1")
    if not (0.0 < epsilon < 1.0):
        raise InvalidParameters(f"epsilon must be in (0, 1), got {epsilon}")
    if m >= k1:
        return 0.0
    a, b = (k1 - m) / 2.0, m / 2.0
    cos_eps = math.sqrt(1.0 - epsilon**2)
    grid = math.ceil(math.sqrt(k1))
    edges = {math.pi / 2.0 * i / grid for i in range(grid + 1)}
    peak = epsilon / cos_eps
    while peak < math.pi / 2.0:
        edges.add(peak)
        peak *= 2.0
    edges = np.array(sorted(edges))
    x, w = np.polynomial.legendre.leggauss(_QUAD_NODES)
    half = (edges[1:] - edges[:-1])[:, None] / 2.0
    phi = edges[:-1, None] + half * (x + 1.0)
    sin, cos = np.sin(phi), np.cos(phi)
    log_density = (
        math.log(2.0)
        + math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + (k1 - m - 1) * np.log(sin)
        + (m - 1) * np.log(cos)
    )
    t = cos_eps * sin / epsilon  # the value is (t / (1 + t^2))^2
    value = 1.0 / (t + 1.0 / t) ** 2
    return float(np.sum(half * w * np.exp(log_density) * value))


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
