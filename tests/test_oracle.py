import csv
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from continual_replay import oracle
from continual_replay.cli_harness import main
from continual_replay.errors import DimensionMismatch, InconsistentSystem, InvalidParameters
from continual_replay.learner import fit_closed_form
from continual_replay.linalg_core import min_norm_solve
from continual_replay.oracle import (
    CLAIM_C2_STAT_MAX,
    TAIL_FALSE_ALARM,
    binomial_upper_tail,
    claim_c2_statistics,
    oracle_claim_c2,
    oracle_min_norm,
    oracle_projector_sandwich,
    oracle_random_projection_tails,
    projection_tail_bound,
)
from continual_replay.task_gen import Task

FIXTURES = Path(__file__).parent / "fixtures" / "oracle_reference.json"


# ------------------------------------------------------------- min-norm KKT


def test_oracle_min_norm_identity():
    y = np.array([1.0, -2.0, 0.5])
    w = oracle_min_norm(np.eye(3), y, np.array([9.0, 9.0, 9.0]))
    np.testing.assert_allclose(w, y, atol=1e-10)


def test_oracle_min_norm_agrees_with_pinv_route():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((2, 6))
    y = X @ rng.standard_normal(6)
    np.testing.assert_allclose(
        oracle_min_norm(X, y, np.zeros(6)), min_norm_solve(X, y), atol=1e-9
    )


def test_oracle_min_norm_crosscheck_100_systems():
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 11))
        n = int(rng.integers(1, d + 1))
        X = rng.standard_normal((n, d))
        y = X @ rng.standard_normal(d)
        w_prev = rng.standard_normal(d)
        diff = oracle_min_norm(X, y, w_prev) - fit_closed_form(w_prev, Task(X=X, y=y))
        worst = max(worst, float(np.linalg.norm(diff)))
    assert worst <= 1e-8


def test_oracle_min_norm_is_accurate_on_ill_conditioned_square_systems():
    # singular values 1 .. 1e-5: the KKT matrix roughly squares cond(X), and
    # the solve alone missed the square system's solution by more than 1e-8
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(50):
        q1, _ = np.linalg.qr(rng.standard_normal((9, 9)))
        q2, _ = np.linalg.qr(rng.standard_normal((9, 9)))
        X = q1 @ np.diag(np.logspace(0, -5, 9)) @ q2.T
        y = X @ rng.standard_normal(9)
        diff = oracle_min_norm(X, y, np.zeros(9)) - np.linalg.solve(X, y)
        worst = max(worst, float(np.linalg.norm(diff)))
    assert worst <= 1e-8


def test_oracles_crosscheck_passes_at_seed_17(tmp_path):
    # the 34th crosscheck system of seed 17 is a 9 x 9 X with condition
    # number 9.3e4, where the unrefined KKT route missed by 5.4e-8
    out = tmp_path / "o.csv"
    assert main(["oracles", "--trials", "10000", "--seed", "17", "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = {row["name"]: row for row in csv.DictReader(fh)}
    assert float(rows["min_norm_crosscheck"]["observed"]) <= 1e-10


def test_oracle_min_norm_inconsistent():
    X = np.array([[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(InconsistentSystem):
        oracle_min_norm(X, np.array([0.0, 1.0]), np.zeros(2))


@pytest.mark.parametrize("y_len,w_len", [(3, 3), (2, 2)])
def test_oracle_min_norm_shape_mismatch_is_a_dimension_error(y_len, w_len):
    # a 2 x 3 X with a wrong-length y, then with a wrong-length w_prev: the
    # shapes disagree, which says nothing about whether a solution exists
    X = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    with pytest.raises(DimensionMismatch, match="shape mismatch"):
        oracle_min_norm(X, np.ones(y_len), np.zeros(w_len))


# ------------------------------------------------------------ ratio statistic


def test_claim_statistic_degenerate_and_bounds():
    # alpha2 = 0 forces alpha'^2 = 1, so the statistic is 63 - 62 = 1
    alpha_sq = 1.0
    assert 63.0 * alpha_sq - 62.0 * alpha_sq**2 == 1.0
    assert CLAIM_C2_STAT_MAX == pytest.approx(63.0**2 / 248.0)
    rng = np.random.default_rng(0)
    a1 = rng.standard_normal(10000)
    a2 = rng.standard_normal(10000)
    alpha_sq = a1**2 / (a2**2 / 63.0 + a1**2)
    stat = 63.0 * alpha_sq - 62.0 * alpha_sq**2
    assert stat.min() >= 0.0
    assert stat.max() <= CLAIM_C2_STAT_MAX + 1e-12


def test_oracle_claim_c2():
    with pytest.raises(InvalidParameters):
        oracle_claim_c2(100, np.random.default_rng(0))
    for trials in (0, -3):
        with pytest.raises(InvalidParameters, match="trials must be >= 1"):
            claim_c2_statistics(trials, np.random.default_rng(1))
    v = oracle_claim_c2(20000, np.random.default_rng(0))
    assert v.passed and v.bound_or_expected == 1.4 and v.trials == 20000


# ----------------------------------------------------------- projection tails


def test_projection_tail_bound_specializations():
    # at t = 1/30 the exponent is below -m, so the bound sharpens exp(-m)
    assert projection_tail_bound(10, 1.0 / 30.0) <= math.exp(-10)
    assert projection_tail_bound(5, 1.0 - 1e-9) == pytest.approx(1.0, abs=1e-6)


def test_oracle_projection_tails_validation():
    with pytest.raises(InvalidParameters):
        oracle_random_projection_tails(11, 10, 10**4, np.random.default_rng(0))
    with pytest.raises(InvalidParameters):
        oracle_random_projection_tails(31, 5, 100, np.random.default_rng(0))


def test_oracle_projection_tails_pass():
    # the oracle's own rule: the event count is not improbable at the bound
    for v in oracle_random_projection_tails(31, 5, 10**4, np.random.default_rng(3)):
        count = round(v.observed * v.trials)
        assert binomial_upper_tail(v.trials, v.bound_or_expected, count) >= TAIL_FALSE_ALARM
        assert v.passed and v.trials == 10**4


# One lower-tail event at d = 152 in the first 1e4 draws of
# default_rng(RARE_EVENT_SEED); a 3-sigma normal slack around p = 5.2e-6
# admitted none. `oracles --seed CLI_RARE_EVENT_SEED` draws that tail check
# from sub-stream [seed, 6, 2], which has one such event in 1e4 draws too.
RARE_EVENT_SEED = 155376646
CLI_RARE_EVENT_SEED = 54


def test_binomial_upper_tail_matches_direct_sum():
    for n, p in ((12, 0.3), (40, 0.01), (7, 0.9)):
        pmf = [math.comb(n, j) * p**j * (1.0 - p) ** (n - j) for j in range(n + 1)]
        for k in range(-1, n + 2):
            expect = sum(pmf[max(k, 0) :])
            assert binomial_upper_tail(n, p, k) == pytest.approx(expect, rel=1e-12, abs=1e-15)


def test_tail_check_admits_one_rare_event(tmp_path):
    rng = np.random.default_rng(RARE_EVENT_SEED)
    lo, hi = oracle_random_projection_tails(152, 10, 10**4, rng)
    assert lo.observed * lo.trials == 1 and lo.passed and hi.passed
    out = tmp_path / "o.csv"
    argv = ["oracles", "--trials", "10000", "--seed", str(CLI_RARE_EVENT_SEED)]
    assert main(argv + ["--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = {row["name"]: row for row in csv.DictReader(fh)}
    lower = rows["projection_tail_lower_d152_m10"]
    assert float(lower["observed"]) == 1e-4 and lower["pass"] == "True"


def test_tail_check_fails_a_bound_100x_too_small(monkeypatch):
    # The same seed's draws, run to the default 1e5 trials: 45 lower-tail
    # events at d = 31 where a bound divided by 100 expects 2.3. (In the
    # first 1e4 draws the counts are 1 and 2, which no rule at a 1e-6 false
    # alarm rate can reject against bound / 100.)
    lo, _ = oracle_random_projection_tails(31, 5, 10**5, np.random.default_rng(RARE_EVENT_SEED))
    assert lo.passed
    true_bound = oracle.projection_tail_bound
    monkeypatch.setattr(oracle, "projection_tail_bound", lambda m, t: true_bound(m, t) / 100.0)
    lo, _ = oracle_random_projection_tails(31, 5, 10**5, np.random.default_rng(RARE_EVENT_SEED))
    assert lo.observed * lo.trials == 45 and not lo.passed


# -------------------------------------------------------- projector sandwich


def test_oracle_sandwich_validation():
    with pytest.raises(InvalidParameters):
        oracle_projector_sandwich(11, 10, 0.4, 10, np.random.default_rng(0))
    with pytest.raises(InvalidParameters):
        oracle_projector_sandwich(152, 10, 1.5, 10, np.random.default_rng(0))
    with pytest.raises(InvalidParameters):
        oracle_projector_sandwich(152, 10, 0.0, 10, np.random.default_rng(0))


def test_oracle_sandwich_epsilon_one_coincides():
    v = oracle_projector_sandwich(20, 3, 1.0, 50, np.random.default_rng(1))
    assert v.passed
    assert abs(v.observed) <= 1e-15


def test_oracle_sandwich_single_row():
    assert oracle_projector_sandwich(20, 1, 0.4, 200, np.random.default_rng(2)).passed


# ------------------------------------------------ blocked draws, same output


@pytest.mark.parametrize("d,m,epsilon", [(152, 10, 0.4), (31, 5, 0.3)])
def test_sandwich_norms_follow_the_rank_one_update(d, m, epsilon):
    # rows [a | B] (isotropic) and [eps a | B] (anisotropic), s = a^T (B B^T)^-1 a:
    # ||P^ e||^2 = s / (1 + s) and ||P~ e||^2 = eps^2 s / (1 + eps^2 s)
    G = np.random.default_rng(17).standard_normal((200, m, d - 1))
    A = G.copy()
    A[:, :, 0] *= epsilon
    a, B = G[:, :, 0], G[:, :, 1:]
    s = np.einsum("ni,ni->n", a, np.linalg.solve(B @ B.transpose(0, 2, 1), a[:, :, None])[:, :, 0])
    e2s = epsilon**2 * s
    assert np.abs(oracle._proj_sq_norm(G) - s / (1 + s)).max() <= 1e-12
    assert np.abs(oracle._proj_sq_norm(A) - e2s / (1 + e2s)).max() <= 1e-12


def _sandwich_reference(d, m, epsilon, trials, seed):
    # one draw and two SVDs per trial, the oracle's 1e-12 rank rule on each
    gen = np.random.default_rng(seed)
    e = np.zeros(d - 1)
    e[0] = 1.0

    def proj_sq_norm(rows):
        _, svals, vh = np.linalg.svd(rows, full_matrices=False)
        rank = int(np.sum(svals > 1e-12 * svals.max(initial=0.0)))
        return float(np.sum((vh[:rank] @ e) ** 2))

    worst = math.inf
    for _ in range(trials):
        G = gen.standard_normal((m, d - 1))
        A = G.copy()
        A[:, 0] *= epsilon
        iso, aniso = proj_sq_norm(G), proj_sq_norm(A)
        worst = min(worst, aniso - epsilon**2 * iso, iso - aniso)
    return worst


def _tails_reference(d, m, trials, seed):
    # 2048-row blocks, squared into a new array
    gen = np.random.default_rng(seed)
    low = high = 0
    thr_low, thr_high = (1.0 / 30.0) * m / (d - 1), 5.0 * m / (d - 1)
    done = 0
    while done < trials:
        size = min(2048, trials - done)
        sq = gen.standard_normal((size, d - 1)) ** 2
        stat = sq[:, :m].sum(axis=1) / sq.sum(axis=1)
        low += int(np.sum(stat <= thr_low))
        high += int(np.sum(stat >= thr_high))
        done += size
    return low / trials, high / trials


def _claim_c2_reference(trials, seed):
    # 200 000-draw blocks, each whole a1 then whole a2, into new arrays
    gen = np.random.default_rng(seed)
    values = np.zeros(trials)
    done = 0
    while done < trials:
        size = min(200000, trials - done)
        a1 = gen.standard_normal(size)
        a2 = gen.standard_normal(size)
        alpha_sq = a1**2 / (a2**2 / 63.0 + a1**2)
        values[done : done + size] = 63.0 * alpha_sq - 62.0 * alpha_sq**2
        done += size
    mean = float(values.mean())
    std_err = float(values.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return mean, std_err


@pytest.mark.parametrize("seed", [0, 42])
@pytest.mark.parametrize("trials", [1, 2, 10**4, 10**5, 200000, 200001, 450001])
def test_claim_c2_pieces_match_200000_block_loop(trials, seed):
    assert claim_c2_statistics(trials, np.random.default_rng(seed)) == _claim_c2_reference(
        trials, seed
    )


@pytest.mark.parametrize("trials", [1, 1000, 2001])
def test_claim_c2_seven_float_pieces_match_block_loop(monkeypatch, trials):
    monkeypatch.setattr(oracle, "_BLOCK_ENTRIES", 7)
    assert claim_c2_statistics(trials, np.random.default_rng(5)) == _claim_c2_reference(trials, 5)


@pytest.mark.parametrize("one_per_block", [False, True])
@pytest.mark.parametrize(
    "d,m,epsilon,trials",
    [(152, 10, 0.4, 1000), (20, 3, 1.0, 50), (20, 1, 0.4, 200), (31, 5, 0.3, 97)],
)
def test_sandwich_blocks_match_per_trial_loop(
    monkeypatch, one_per_block, d, m, epsilon, trials
):
    if one_per_block:
        monkeypatch.setattr(oracle, "_BLOCK_ENTRIES", 1)
    v = oracle_projector_sandwich(d, m, epsilon, trials, np.random.default_rng(4))
    assert v.observed == _sandwich_reference(d, m, epsilon, trials, 4)


@pytest.mark.parametrize("one_per_block", [False, True])
@pytest.mark.parametrize("d,m,seed", [(152, 10, RARE_EVENT_SEED), (31, 5, 3)])
def test_tail_blocks_match_2048_row_loop(monkeypatch, one_per_block, d, m, seed):
    if one_per_block:
        monkeypatch.setattr(oracle, "_BLOCK_ENTRIES", 1)
    lo, hi = oracle_random_projection_tails(d, m, 10**4, np.random.default_rng(seed))
    assert (lo.observed, hi.observed) == _tails_reference(d, m, 10**4, seed)


def _traced_peak(fn, *args):
    # numpy reports its buffers to tracemalloc; the last argument is a seed
    rng = np.random.default_rng(args[-1])
    tracemalloc.start()
    try:
        fn(*args[:-1], rng)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_oracle_working_sets_are_bounded():
    # 434-row tail blocks peak at 1.0 MiB, 43-trial sandwich blocks at 1.5 MiB;
    # the claim-C2 statistic at 2.0 MiB: its 0.76 MiB output, one 0.5 MiB a2
    # piece and the variance's own 0.76 MiB temporary
    assert _traced_peak(oracle_random_projection_tails, 152, 10, 10**5, 0) <= 3 * 2**20
    assert _traced_peak(oracle_projector_sandwich, 152, 10, 0.4, 1000, 0) <= 3 * 2**20
    assert _traced_peak(claim_c2_statistics, 10**5, 0) <= 3 * 2**20


# ----------------------------------------------------------- frozen baseline


def test_reference_constants_reproduce():
    ref = json.loads(FIXTURES.read_text())
    seed = ref["seed"]
    c2 = ref["claim_c2"]
    mean, se = claim_c2_statistics(c2["trials"], np.random.default_rng(seed))
    assert mean == pytest.approx(c2["mean"], abs=1e-12)
    assert se == pytest.approx(c2["std_err"], abs=1e-12)
    for d, m in ((152, 10), (31, 5)):
        rec = ref[f"projection_tails_d{d}_m{m}"]
        lo, hi = oracle_random_projection_tails(d, m, rec["trials"], np.random.default_rng(seed))
        assert lo.observed == pytest.approx(rec["lower_freq"], abs=1e-15)
        assert hi.observed == pytest.approx(rec["upper_freq"], abs=1e-15)
        assert lo.bound_or_expected == pytest.approx(rec["lower_bound"], abs=1e-15)
        assert hi.bound_or_expected == pytest.approx(rec["upper_bound"], abs=1e-15)
    rec = ref["projector_sandwich_d152_m10_eps0.4"]
    v = oracle_projector_sandwich(152, 10, 0.4, rec["trials"], np.random.default_rng(seed))
    assert v.observed == pytest.approx(rec["worst_margin"], abs=1e-15)
