import json
import math
from pathlib import Path

import numpy as np
import pytest

from continual_replay import oracle
from continual_replay.cli_harness import main
from continual_replay.errors import InconsistentSystem, InvalidParameters
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


def test_oracle_min_norm_inconsistent():
    X = np.array([[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(InconsistentSystem):
        oracle_min_norm(X, np.array([0.0, 1.0]), np.zeros(2))


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
        oracle_claim_c2(100, 0)
    v = oracle_claim_c2(20000, 0)
    assert v.passed and v.bound_or_expected == 1.4 and v.seed == 0


# ----------------------------------------------------------- projection tails


def test_projection_tail_bound_specializations():
    # at t = 1/30 the exponent is below -m, so the bound sharpens exp(-m)
    assert projection_tail_bound(10, 1.0 / 30.0) <= math.exp(-10)
    assert projection_tail_bound(5, 1.0 - 1e-9) == pytest.approx(1.0, abs=1e-6)


def test_oracle_projection_tails_validation():
    with pytest.raises(InvalidParameters):
        oracle_random_projection_tails(11, 10, 10**4, 0)
    with pytest.raises(InvalidParameters):
        oracle_random_projection_tails(31, 5, 100, 0)


def test_oracle_projection_tails_pass():
    # the oracle's own rule: the event count is not improbable at the bound
    for v in oracle_random_projection_tails(31, 5, 10**4, 3):
        count = round(v.observed * v.trials)
        assert binomial_upper_tail(v.trials, v.bound_or_expected, count) >= TAIL_FALSE_ALARM
        assert v.passed and v.seed == 3


# One lower-tail event at d = 152 in the first 1e4 draws of this seed; a
# 3-sigma normal slack around p = 5.2e-6 admitted none.
RARE_EVENT_SEED = 155376646


def test_binomial_upper_tail_matches_direct_sum():
    for n, p in ((12, 0.3), (40, 0.01), (7, 0.9)):
        pmf = [math.comb(n, j) * p**j * (1.0 - p) ** (n - j) for j in range(n + 1)]
        for k in range(-1, n + 2):
            expect = sum(pmf[max(k, 0) :])
            assert binomial_upper_tail(n, p, k) == pytest.approx(expect, rel=1e-12, abs=1e-15)


def test_tail_check_admits_one_rare_event(tmp_path):
    lo, hi = oracle_random_projection_tails(152, 10, 10**4, RARE_EVENT_SEED)
    assert lo.observed * lo.trials == 1 and lo.passed and hi.passed
    argv = ["oracles", "--trials", "10000", "--seed", str(RARE_EVENT_SEED)]
    assert main(argv + ["--out", str(tmp_path / "o.csv")]) == 0


def test_tail_check_fails_a_bound_100x_too_small(monkeypatch):
    # The same seed's draws, run to the default 1e5 trials: 45 lower-tail
    # events at d = 31 where a bound divided by 100 expects 2.3. (In the
    # first 1e4 draws the counts are 1 and 2, which no rule at a 1e-6 false
    # alarm rate can reject against bound / 100.)
    lo, _ = oracle_random_projection_tails(31, 5, 10**5, RARE_EVENT_SEED)
    assert lo.passed
    true_bound = oracle.projection_tail_bound
    monkeypatch.setattr(oracle, "projection_tail_bound", lambda m, t: true_bound(m, t) / 100.0)
    lo, _ = oracle_random_projection_tails(31, 5, 10**5, RARE_EVENT_SEED)
    assert lo.observed * lo.trials == 45 and not lo.passed


# -------------------------------------------------------- projector sandwich


def test_oracle_sandwich_validation():
    with pytest.raises(InvalidParameters):
        oracle_projector_sandwich(11, 10, 0.4, 10, 0)
    with pytest.raises(InvalidParameters):
        oracle_projector_sandwich(152, 10, 1.5, 10, 0)
    with pytest.raises(InvalidParameters):
        oracle_projector_sandwich(152, 10, 0.0, 10, 0)


def test_oracle_sandwich_epsilon_one_coincides():
    v = oracle_projector_sandwich(20, 3, 1.0, 50, 1)
    assert v.passed
    assert abs(v.observed) <= 1e-15


def test_oracle_sandwich_single_row():
    assert oracle_projector_sandwich(20, 1, 0.4, 200, 2).passed


# ----------------------------------------------------------- frozen baseline


def test_reference_constants_reproduce():
    ref = json.loads(FIXTURES.read_text())
    seed = ref["seed"]
    c2 = ref["claim_c2"]
    mean, se = claim_c2_statistics(c2["trials"], seed)
    assert mean == pytest.approx(c2["mean"], abs=1e-12)
    assert se == pytest.approx(c2["std_err"], abs=1e-12)
    for d, m in ((152, 10), (31, 5)):
        rec = ref[f"projection_tails_d{d}_m{m}"]
        lo, hi = oracle_random_projection_tails(d, m, rec["trials"], seed)
        assert lo.observed == pytest.approx(rec["lower_freq"], abs=1e-15)
        assert hi.observed == pytest.approx(rec["upper_freq"], abs=1e-15)
        assert lo.bound_or_expected == pytest.approx(rec["lower_bound"], abs=1e-15)
        assert hi.bound_or_expected == pytest.approx(rec["upper_bound"], abs=1e-15)
    rec = ref["projector_sandwich_d152_m10_eps0.4"]
    v = oracle_projector_sandwich(152, 10, 0.4, rec["trials"], seed)
    assert v.observed == pytest.approx(rec["worst_margin"], abs=1e-15)
