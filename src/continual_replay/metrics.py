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

import functools
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

# Trials per chunk in the replay Monte Carlo kernel. A trial fills a factor R
# of rows <= 2 * k2 rows and keeps a few rows x r and k2 x k2 arrays
# (r <= k2), so a chunk is also capped at
# _REPLAY_CHUNK_ENTRIES // (k2 * max(rows, k2)) trials: each array stays
# near 0.5 MB. A chunk holds at least one trial.
_REPLAY_CHUNK = 4096
_REPLAY_CHUNK_ENTRIES = 2**16
# Gauss-Legendre nodes per panel of the exact rank-one replay value.
_QUAD_NODES = 32


def forgetting_train(seq: TaskSequence, w) -> float:
    """Average squared residual of w on the training rows of tasks 1..T-1."""
    if len(seq) < 2:
        raise TooFewTasks("forgetting needs at least two tasks")
    w = as_vector(w, "w")
    if w.shape[0] != seq.ambient_dim:
        raise DimensionMismatch("w dimension does not match the tasks")
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
    under ``sample_task``'s law, sums the squared residuals of w over each
    task's k_t rows, and averages those sums over the tasks.
    No row is drawn: a fresh row W z with z ~ N(0, I / k_t) adds (z . c_t)^2,
    c_t = W_t^T (w - w*), so a task's sum is ||c_t||^2 / k_t times chi^2_k_t:
    one ``rng.gamma(k_t / 2, 2, trials)``, the bits of ``rng.chisquare``; a
    rank-0 task draws nothing and adds 0. Returns {"mean", "std_err"} of the
    per-draw values. Raises ``DimensionMismatch``, before any draw, when w,
    w* and the subspaces' ambient dimension disagree.
    """
    T = len(subspaces)
    if T < 2:
        raise TooFewTasks("forgetting needs at least two tasks")
    if trials < 1:
        raise InvalidParameters("trials must be >= 1")
    w = as_vector(w, "w")
    w_star = as_vector(w_star, "w_star")
    if w.shape != w_star.shape:
        raise DimensionMismatch("w and w_star have different lengths")
    if any(s.ambient_dim != w.shape[0] for s in subspaces):
        raise DimensionMismatch("subspace ambient dims disagree with w")
    delta = w - w_star
    values = np.zeros(trials)
    for s in subspaces[:-1]:
        scale = float(np.sum((s.basis.T @ delta) ** 2)) / max(s.rank, 1)
        values += scale * rng.gamma(s.rank / 2, 2.0, trials)
    values /= T - 1
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


@functools.lru_cache(maxsize=8)
def _zero_projector(d: int) -> Projector:
    """The zero projector of R^d, built and validated once per d."""
    return Projector(np.zeros((d, d)))


def replay_null_projector(s2: Subspace, memory_rows) -> Projector:
    """Null projector of the second task after adding replay rows.

    The augmented range is the row span of the stack [W2^T; rows], decided
    in this order:

    1. A stack of d or more rows first gets its singular values alone
       (``compute_uv=False``). When ``rank_mask`` keeps all d of them, the
       replay fills the whole space and the result is the exact zero
       projector of R^d, shared and validated once per d, so no rounding
       noise of I - U^T U reaches it and no singular vector is computed.
    2. Any other stack gets one thin SVD: the right singular vectors that
       pass ``rank_mask`` form U, and the result is I - U^T U (no
       iterative training), validated on return by ``Projector``
       (symmetric, idempotent, eigenvalues in {0, 1}).

    So a call runs one SVD, and two only when a stack of d or more rows
    falls short of R^d (repeated or dependent rows); a stack of fewer than
    d rows cannot span R^d and skips step 1.
    """
    rows = as_matrix(memory_rows, "rows")
    d = s2.ambient_dim
    if rows.shape[1] != d:
        raise DimensionMismatch("memory rows do not match the ambient dimension")
    stack = np.concatenate([s2.basis.T, rows])
    if stack.shape[0] >= d and rank_mask(np.linalg.svd(stack, compute_uv=False)).all():
        return _zero_projector(d)
    _, s, vh = np.linalg.svd(stack, full_matrices=False)
    U = vh[rank_mask(s)]
    return Projector(np.eye(d) - U.T @ U)


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


def _replay_values(H, split, SVt, C0tC0, c) -> np.ndarray:
    """||B~ y||^2 per trial for a stack of H = R V (see the kernel below).

    B~ reads the polar factor's rows from ``split`` on. A function of its
    own, so no chunk's arrays outlive the chunk.
    """
    Phi = _polar_factor(H)[:, split:]
    BtB = SVt.T @ (Phi.transpose(0, 2, 1) @ Phi) @ SVt  # B~ = Phi S V^T
    evals, evecs = np.linalg.eigh(BtB + C0tC0)
    evals, evecs = evals[:, ::-1], evecs[:, :, ::-1]
    keep = rank_mask(np.sqrt(np.clip(evals, 0.0, None)))
    inv = np.divide(1.0, evals, out=np.zeros_like(evals), where=keep)
    y = evecs @ (inv * (c @ evecs))[:, :, None]
    Bty = np.einsum("nij,nj->ni", Phi, (SVt @ y)[:, :, 0])
    return np.einsum("ni,ni->n", Bty, Bty)


def _factor_layout(k1: int, m: int, k2: int):
    """Where one trial's draws go in the kernel's R = [R_A; R_B], flattened.

    R_A stands for the m < k1 memory rows of task 1 and R_B for the rest;
    see the kernel below. Returns the rows of R_A, the rows of R, the
    slots that take normals (in draw order), the slots that take chi
    variates, and the chi variates' degrees of freedom.
    """
    blocks = (m, k1 - m)
    heights = [min(n, k2) for n in blocks]  # rows of R_A and of R_B
    normal, chi, dof = [], [np.arange(0)], [np.arange(0)]
    for n, top in zip(blocks, (0, heights[0])):
        if n <= k2:
            normal.append(np.arange(top * k2, (top + n) * k2))
        else:
            i, j = np.triu_indices(k2, 1)
            diag = np.arange(k2)
            normal.append((top + i) * k2 + j)
            chi.append((top + diag) * k2 + diag)
            dof.append(n - diag)
    return heights[0], sum(heights), *(np.concatenate(x) for x in (normal, chi, dof))


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
    Multivariate Statistical Theory, 1982, sec. 3.3). Phi is the polar
    factor H (H^T H)^(-1/2) of H = G V for a k1 x k2 matrix G of N(0, 1)
    entries, and B~ = Phi[m:] S V^T: its Gram matrix has the law of
    B^T (I - P_Z) B, and the value reads B~ only through that Gram matrix.
    That matrix reads G only through G_A^T G_A ~ W_k2(m) and
    G_B^T G_B ~ W_k2(k1 - m), the Wishart Gram matrices of G's first m rows
    and of the rest, which are independent. So each trial draws a factor
    R = [R_A; R_B] with R_A^T R_A and R_B^T R_B of those laws and uses R in
    place of G, splitting Phi after R_A's rows. A block of n <= k2 rows
    stays n rows of normals; a larger block is its k2 x k2 Bartlett factor,
    upper triangular with sqrt(chi^2_(n - i)) on the diagonal (i = 0 ..
    k2 - 1) and N(0, 1) above it (Muirhead, Thm 3.2.14). Replacing V by
    V O, with O commuting with S (the SVD's own freedom), maps Phi to Phi O
    and leaves B~ unchanged, so rotating both tasks, which moves B by
    rounding only, gives the same values from the same seed, also where B
    has repeated singular values. For m >= k1 the memory spans task 1, so
    every value is exactly 0: the call returns a mean and standard error of
    0 without touching ``rng``. A rank-0 second task runs the general path
    on empty factors (no normals, no child stream) and gives the exact 0 on
    every trial: the memory lies in span W1, and q is orthogonal to it.

    For m < k1, a call consumes exactly trials * n standard normals from
    ``rng``, the same stream as one ``rng.standard_normal((trials, n))``,
    where n counts one trial's Gaussian-row entries and Bartlett
    off-diagonal entries in trial-major order. Where both blocks are rows of normals (m <= k2 and
    k1 - m <= k2) that is G itself, k1 * k2 normals. The chi variates come
    from one child, ``rng.spawn(1)[0]``, made only when a block is a
    Bartlett factor. At d = 152, m = 10 (k2 = 1) a trial draws no normals
    and two chi variates, where G took 151 normals and memory rows m * 151.
    Trials run in chunks of up to ``_REPLAY_CHUNK``, each drawn in one call
    per stream, so chunking never shows in the output.

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
    if m >= k1:
        return {"mean": 0.0, "std_err": 0.0}  # the memory spans task 1
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
    split, rows, normal_slots, chi_slots, dof = _factor_layout(k1, m, k2)
    chi_rng = rng.spawn(1)[0] if dof.size else None
    chunk = max(1, min(_REPLAY_CHUNK, _REPLAY_CHUNK_ENTRIES // max(1, k2 * max(rows, k2))))
    for start in range(0, trials, chunk):
        size = min(chunk, trials - start)
        R = np.zeros((size, rows * k2))
        R[:, normal_slots] = rng.standard_normal((size, normal_slots.size))
        if chi_rng is not None:
            R[:, chi_slots] = np.sqrt(chi_rng.chisquare(dof, (size, dof.size)))
        H = (R.reshape(size * rows, k2) @ V).reshape(size, rows, V.shape[1])
        values[start : start + size] = _replay_values(H, split, SVt, C0tC0, c)
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
    # Past t = 1e154 the square overflows; the value there, below any normal float, is 0.
    with np.errstate(over="ignore"):
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

    Order of work: the dimension checks, then G (a vacuous replay's zero
    projector gives G = 0 and the value exactly 0.0), then the two
    reductions as ndarray methods, ``G.trace()`` and ``(G * G).sum()``:
    the same sums as ``np.trace`` and ``np.sum``, so the same bits, without
    numpy's function dispatch.
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
    return float(G.trace() - (G * G).sum())
