"""Independent brute-force validators.

These run before (and alongside) the main experiments: a KKT-based
min-norm solver that shares no code path with the pseudoinverse route, a
Monte Carlo evaluation of the 3D replay-ratio expectation, and direct
numerical checks of the random-projection concentration bounds used by the
high-dimensional analysis. The Gaussian oracles draw from the
``numpy.random.Generator`` their caller passes, as every sampler in the
package does. Reference constants they produce from ``default_rng(seed)``
are frozen in a fixtures file together with that seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InconsistentSystem, InvalidParameters
from .linalg_core import as_matrix, as_vector

CLAIM_C2_BOUND = 1.4
# sup of 63 x - 62 x^2 over x in [0, 1], attained at x = 63/124
CLAIM_C2_STAT_MAX = 63.0**2 / (4.0 * 62.0)
# Probability that a random-projection tail check fails although the true
# tail frequency is at or below its bound.
TAIL_FALSE_ALARM = 1e-6
# Floats per block of Gaussian draws in the tail, sandwich and claim-C2 oracles
# (512 KB, so a block's buffers stay near 1 MB); blocking never shows in output.
_BLOCK_ENTRIES = 2**16


@dataclass(frozen=True)
class OracleVerdict:
    """Outcome of one oracle run.

    ``passed`` is a pure function of ``observed`` vs ``bound_or_expected``
    in the comparison direction stated by the producing oracle.
    """

    name: str
    observed: float
    bound_or_expected: float
    passed: bool
    trials: int


def _kkt_solve(K: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.solve(K, rhs)
    except np.linalg.LinAlgError:
        # Row-deficient X makes K singular; the least-squares solution still
        # carries the unique optimal w (only the multipliers are free).
        return np.linalg.lstsq(K, rhs, rcond=1e-10)[0]


def oracle_min_norm(X, y, w_prev) -> np.ndarray:
    """Min-norm update via the KKT linear system.

    Solves min ||w - w_prev|| subject to X w = y through the dense KKT
    factorization [[I, X^T], [X, 0]] [w; lam] = [w_prev; y], a route
    independent of the pseudoinverse. K roughly squares X's conditioning, so
    one step of iterative refinement on the same system follows the solve:
    a 9 x 9 X with condition number 9.3e4 left w 5.4e-8 from the SVD route
    without it and 8.6e-13 with it. Raises DimensionMismatch when the shapes
    of X, y and w_prev disagree, and InconsistentSystem when the constraints
    cannot be met.
    """
    X = as_matrix(X, "X")
    y = as_vector(y, "y")
    w_prev = as_vector(w_prev, "w_prev")
    n, d = X.shape
    if y.shape[0] != n or w_prev.shape[0] != d:
        raise DimensionMismatch("shape mismatch between X, y, w_prev")
    K = np.zeros((d + n, d + n))
    K[:d, :d] = np.eye(d)
    K[:d, d:] = X.T
    K[d:, :d] = X
    rhs = np.concatenate([w_prev, y])
    sol = _kkt_solve(K, rhs)
    sol += _kkt_solve(K, rhs - K @ sol)  # one step of iterative refinement
    w = sol[:d]
    if np.linalg.norm(X @ w - y) > 1e-8 * max(1.0, float(np.linalg.norm(y))):
        raise InconsistentSystem("constraint set is empty or numerically so")
    return w


def claim_c2_statistics(trials: int, rng: np.random.Generator) -> tuple[float, float]:
    """Mean and standard error of 63 a'^2 - 62 a'^4.

    a'^2 = a1^2 / (a2^2/63 + a1^2) with a1, a2 independent standard
    normals drawn from ``rng``. Exposed separately so experiments can reuse
    the exact law the oracle evaluates.

    Each 200 000-draw block takes its a1 values, then its a2 values, so the
    block decides which normals pair up. a1 is drawn into its slice of the
    output, a2 in ``_BLOCK_ENTRIES`` pieces evaluated in place; no piece shows.
    """
    if trials < 1:
        raise InvalidParameters("trials must be >= 1")
    values = np.empty(trials)
    a2 = np.empty(min(_BLOCK_ENTRIES, trials))
    for start in range(0, trials, 200000):
        block = values[start : start + 200000]
        rng.standard_normal(out=block)
        for lo in range(0, block.size, _BLOCK_ENTRIES):
            v = block[lo : lo + _BLOCK_ENTRIES]
            b = a2[: v.size]
            rng.standard_normal(out=b)
            np.square(b, out=b)
            b /= 63.0
            np.square(v, out=v)
            b += v
            v /= b
            np.square(v, out=b)
            b *= 62.0
            v *= 63.0
            v -= b
    mean = float(values.mean())
    std_err = float(values.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return mean, std_err


def oracle_claim_c2(trials: int, rng: np.random.Generator) -> OracleVerdict:
    """Monte Carlo check of the 3D replay-ratio lower bound (>= 1.4).

    Fails only when the sampled mean sits below the bound by more than
    three standard errors; the observed mean is reported either way.
    """
    if trials < 10**4:
        raise InvalidParameters("trials must be >= 10^4")
    mean, std_err = claim_c2_statistics(trials, rng)
    return OracleVerdict(
        name="claim_c2_ratio",
        observed=mean,
        bound_or_expected=CLAIM_C2_BOUND,
        passed=bool(mean + 3.0 * std_err >= CLAIM_C2_BOUND),
        trials=trials,
    )


def projection_tail_bound(m: int, t: float) -> float:
    """exp(m (1 - t + ln t) / 2), the two-sided concentration bound."""
    return math.exp(m * (1.0 - t + math.log(t)) / 2.0)


def binomial_upper_tail(n: int, p: float, k: int) -> float:
    """P[X >= k] for X ~ Binomial(n, p), summed term by term in pure Python.

    Sums the shorter side of the distribution: the upper tail from k when
    k is at or above the mean, else one minus the lower tail from k - 1.
    The first term comes from lgamma, the rest from the pmf ratio, and the
    sum stops once a term no longer moves it.
    """
    if k <= 0 or p >= 1.0:
        return 1.0
    if k > n or p <= 0.0:
        return 0.0
    upper = k >= n * p
    j = k if upper else k - 1
    log_pmf = (
        math.lgamma(n + 1)
        - math.lgamma(j + 1)
        - math.lgamma(n - j + 1)
        + j * math.log(p)
        + (n - j) * math.log1p(-p)
    )
    term, total = math.exp(log_pmf), 0.0
    odds = p / (1.0 - p)
    while 0 <= j <= n and total + term != total:
        total += term
        if upper:
            term *= (n - j) / (j + 1) * odds
            j += 1
        else:
            term *= j / (n - j + 1) / odds
            j -= 1
    return min(1.0, total) if upper else max(0.0, 1.0 - total)


def oracle_random_projection_tails(
    d: int, m: int, trials: int, rng: np.random.Generator
) -> list[OracleVerdict]:
    """Empirical tails of the random-projection statistic vs their bounds.

    Samples uniform unit vectors in R^{d-1} from ``rng`` and measures the
    squared norm of the first m coordinates. Checks P[stat <= t m/(d-1)] at t = 1/30
    and P[stat >= t m/(d-1)] at t = 5 against exp(m(1-t+ln t)/2). A check
    fails when its event count is improbable for a frequency at the bound:
    when P[Binomial(trials, bound) >= count] < ``TAIL_FALSE_ALARM``
    (1e-6). A true frequency at or below the bound then fails a check with
    probability at most 1e-6. The two verdicts are named after their case,
    ``projection_tail_lower_d{d}_m{m}`` and ``projection_tail_upper_d{d}_m{m}``.
    """
    if m >= d - 1:
        raise InvalidParameters("requires m < d - 1")
    if trials < 10**4:
        raise InvalidParameters("trials must be >= 10^4")
    low_count = 0
    high_count = 0
    t_low, t_high = 1.0 / 30.0, 5.0
    thr_low = t_low * m / (d - 1)
    thr_high = t_high * m / (d - 1)
    rows = max(1, _BLOCK_ENTRIES // (d - 1))
    for start in range(0, trials, rows):
        g = rng.standard_normal((min(rows, trials - start), d - 1))
        np.square(g, out=g)
        stat = g[:, :m].sum(axis=1) / g.sum(axis=1)
        low_count += int(np.sum(stat <= thr_low))
        high_count += int(np.sum(stat >= thr_high))
    verdicts = []
    for side, count, t in (("lower", low_count, t_low), ("upper", high_count, t_high)):
        bound = projection_tail_bound(m, t)
        verdicts.append(
            OracleVerdict(
                name=f"projection_tail_{side}_d{d}_m{m}",
                observed=count / trials,
                bound_or_expected=bound,
                passed=binomial_upper_tail(trials, bound, count) >= TAIL_FALSE_ALARM,
                trials=trials,
            )
        )
    return verdicts


def oracle_projector_sandwich(
    d: int, m: int, epsilon: float, trials: int, rng: np.random.Generator
) -> OracleVerdict:
    """Direct check of the anisotropic-projector sandwich inequality.

    Each trial draws m Gaussian rows in R^{d-1} from ``rng``; scaling their first
    coordinate by epsilon gives the replay span's projector P~, the raw
    rows give the isotropic P^. The inequality
    eps^2 ||P^ e||^2 <= ||P~ e||^2 <= ||P^ e||^2 (e = first axis) must
    hold on every trial within 1e-10; observed is the worst signed margin.

    Both norms have a closed form. Write a trial's raw rows as [a | B], a
    their first column, and let s = a^T (B B^T)^-1 a (B B^T is invertible
    for m < d - 1). Then ||P^ e||^2 = s / (1 + s) and, with the first
    column scaled, ||P~ e||^2 = eps^2 s / (1 + eps^2 s) exactly (a rank-one
    update of B B^T). So the sandwich holds because x / (1 + x) is
    increasing and eps^2 s / (1 + eps^2 s) >= eps^2 s / (1 + s). The oracle
    keeps its SVD route (``_proj_sq_norm``), so it checks the inequality
    independently of this identity.
    """
    if m >= d - 1:
        raise InvalidParameters("requires m < d - 1")
    if not 0.0 < epsilon <= 1.0:
        raise InvalidParameters("epsilon must be in (0, 1]")
    if trials < 1:
        raise InvalidParameters("trials must be >= 1")
    block = max(1, _BLOCK_ENTRIES // (m * (d - 1)))
    worst = math.inf
    for start in range(0, trials, block):
        G = rng.standard_normal((min(block, trials - start), m, d - 1))
        A = G.copy()
        A[:, :, 0] *= epsilon
        iso = _proj_sq_norm(G)
        aniso = _proj_sq_norm(A)
        worst = min(worst, np.min(aniso - epsilon**2 * iso), np.min(iso - aniso))
    return OracleVerdict(
        name="projector_sandwich",
        observed=float(worst),
        bound_or_expected=0.0,
        passed=bool(worst >= -1e-10),
        trials=trials,
    )


def _proj_sq_norm(rows: np.ndarray) -> np.ndarray:
    # squared norm of the projection of the first axis onto each stacked row span
    _, svals, vh = np.linalg.svd(rows, full_matrices=False)
    keep = svals > 1e-12 * svals.max(axis=-1, initial=0.0, keepdims=True)
    return np.sum(np.where(keep, vh[..., 0], 0.0) ** 2, axis=-1)
