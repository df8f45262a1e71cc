"""End-to-end acceptance checks, one test per numbered criterion.

Each test records a `[criterion NN] PASS/FAIL: detail` line (printed in the
terminal summary by conftest) before asserting, with tolerances pinned
in-line. Criteria 1 and 2 pin the replay-of-x2 forgetting constant at
9 a^2 / 196. Three independent routes (the min-norm simulator, the KKT
oracle, and a learner-free projector cascade) all evaluate that quantity to
3 a^2 / 14, T-independent, so those two assertions fail; the worst-case
command emits both values with deviation columns so the gap stays visible
instead of being absorbed into a looser target. The README documents the
derivation.
"""

from __future__ import annotations

import math
import time

import numpy as np

from continual_replay.learner import augment_with_replay, run_sequence, select_replay
from continual_replay.linalg_core import orthonormal_basis
from continual_replay.metrics import (
    benign_replay_certificate,
    expected_forgetting_closed_form,
    expected_forgetting_trace_form,
    expected_replay_forgetting_two_tasks,
    forgetting_test_mean,
    forgetting_train,
    replay_null_projector,
)
from continual_replay.oracle import (
    claim_c2_statistics,
    oracle_claim_c2,
    oracle_random_projection_tails,
)
from continual_replay.task_gen import (
    EPSILON_3D,
    Task,
    TaskSequence,
    make_angle_pair,
    make_avg_case_3d,
    make_avg_case_highdim,
    make_worst_case,
    sample_task,
)

A_SQ = 6.0 / 7.0  # a^2 for the default worst-case target w* = v2


def _replay_row(seq: TaskSequence, row: int) -> TaskSequence:
    """The worst case with row ``row`` of task T-1 (x1 or x2) replayed."""
    mixed = seq.tasks[-2]
    return augment_with_replay(seq, Task(X=mixed.X[row : row + 1], y=mixed.y[row : row + 1]))


def _worst_case_forgetting(T: int, replay_row: int | None) -> float:
    seq = make_worst_case(T, 3)
    replayed = seq if replay_row is None else _replay_row(seq, replay_row)
    return forgetting_train(seq, run_sequence(replayed))


def test_criterion_01_worst_case_constants(criterion):
    t0 = time.perf_counter()
    f_no = _worst_case_forgetting(10, None)
    f_x2 = _worst_case_forgetting(10, 1)
    dt = time.perf_counter() - t0
    want_no = 3.0 * A_SQ / (28.0 * 9.0)
    want_x2 = 9.0 * A_SQ / 196.0
    dev_no, dev_x2 = abs(f_no - want_no), abs(f_x2 - want_x2)
    ok = dev_no <= 1e-9 and dev_x2 <= 1e-9 and dt < 1.0
    assert criterion(
        1,
        ok,
        f"no-replay dev {dev_no:.2e} (tol 1e-9); replay-x2 {f_x2:.6f} vs "
        f"pinned {want_x2:.6f}, dev {dev_x2:.2e} (tol 1e-9); {dt:.2f}s (< 1s)",
    )


def test_criterion_02_scaling_in_T(criterion):
    t0 = time.perf_counter()
    ts = (2, 5, 10, 50, 100)
    no_scaled = [_worst_case_forgetting(T, None) * (T - 1) for T in ts]
    with_replay = [_worst_case_forgetting(T, 1) for T in ts]
    dt = time.perf_counter() - t0
    dev_no = max(abs(v - 3.0 * A_SQ / 28.0) for v in no_scaled)
    dev_replay = max(abs(v - 9.0 * A_SQ / 196.0) for v in with_replay)
    spread = max(with_replay) - min(with_replay)
    ok = dev_no <= 1e-8 and dev_replay <= 1e-8 and dt < 5.0
    assert criterion(
        2,
        ok,
        f"(T-1) x no-replay max dev {dev_no:.2e} (tol 1e-8); replay "
        f"T-spread {spread:.2e} but value {with_replay[0]:.6f} vs pinned "
        f"{9.0 * A_SQ / 196.0:.6f}, dev {dev_replay:.2e} (tol 1e-8); {dt:.2f}s (< 5s)",
    )


def test_criterion_03_replay_of_x1_is_neutral(criterion):
    T = 10
    seq = make_worst_case(T, 3)
    w_plain = run_sequence(seq)
    w_x1 = run_sequence(_replay_row(seq, 0))
    drift = float(np.linalg.norm(w_x1 - w_plain))
    assert criterion(3, drift <= 1e-9, f"final-iterate drift {drift:.2e} (tol 1e-9)")


def test_criterion_04_avg_case_3d_ratio(criterion):
    t0 = time.perf_counter()
    s1, s2, p1 = make_avg_case_3d(EPSILON_3D)
    base = expected_forgetting_closed_form([s1, s2], p1)
    rng = np.random.default_rng(42)
    res = expected_replay_forgetting_two_tasks(s1, s2, p1, 1, 10**5, rng)
    dt = time.perf_counter() - t0
    ratio = res["mean"] / base
    ratio_se = res["std_err"] / base
    ok = ratio >= 1.4 - 3.0 * ratio_se and ratio - 3.0 * ratio_se > 1.0 and dt < 30.0
    assert criterion(
        4,
        ok,
        f"ratio {ratio:.3f} +/- {ratio_se:.3f} vs bound 1.4 and vs 1 at "
        f"3-sigma; {dt:.1f}s (< 30s)",
    )


def test_criterion_05_ratio_oracle(criterion):
    t0 = time.perf_counter()
    verdict = oracle_claim_c2(10**6, np.random.default_rng(42))
    mean, se = claim_c2_statistics(10**6, np.random.default_rng(42))
    dt = time.perf_counter() - t0
    ok = verdict.passed and mean - 3.0 * se >= 1.4 and dt < 10.0
    assert criterion(
        5,
        ok,
        f"mean {mean:.4f}, mean - 3 SE {mean - 3.0 * se:.4f} >= 1.4; {dt:.1f}s (< 10s)",
    )


def test_criterion_06_highdim_replay_hurts(criterion):
    t0 = time.perf_counter()
    d, m, eps = 152, 10, 0.4
    c1, c2, c3 = 120, 15, 97
    constraints_ok = (
        c1 < d and c2 * m < d - 1 and (d - 1) < math.exp(m * math.log(m)) / c3
    )
    s1, s2, u_perp = make_avg_case_highdim(d, eps)
    base = eps**2 * (1.0 - eps**2)  # = 0.1344, a = 1 for w* = u_perp
    rng = np.random.default_rng(42)
    res = expected_replay_forgetting_two_tasks(s1, s2, u_perp, m, 10**4, rng)
    dt = time.perf_counter() - t0
    lo = res["mean"] - 3.0 * res["std_err"]
    ok = constraints_ok and lo > base and dt < 60.0
    assert criterion(
        6,
        ok,
        f"constraints {'ok' if constraints_ok else 'violated'}; replay mean "
        f"{res['mean']:.4f}, mean - 3 SE {lo:.4f} > {base:.4f}; {dt:.1f}s (< 60s)",
    )


def test_criterion_07_test_sample_consistency(criterion):
    rng = np.random.default_rng(7)
    worst_sigmas = 0.0
    for _ in range(10):
        d = int(rng.integers(4, 11))
        T = int(rng.integers(2, 5))
        subspaces = [
            orthonormal_basis(rng.standard_normal((int(rng.integers(1, d)), d)))
            for _ in range(T)
        ]
        w_star = rng.standard_normal(d)
        tasks = tuple(
            sample_task(s, s.rank + 1, w_star, rng) for s in subspaces
        )
        w = run_sequence(TaskSequence(tasks, w_star))
        est = forgetting_test_mean(subspaces, w, w_star, 10**5, rng)
        analytic = expected_forgetting_closed_form(subspaces, w_star)
        dev = abs(est["mean"] - analytic)
        worst_sigmas = max(worst_sigmas, dev / max(est["std_err"], 1e-300))
    ok = worst_sigmas <= 3.0
    assert criterion(
        7, ok, f"worst deviation {worst_sigmas:.2f} standard errors (gate 3)"
    )


def test_criterion_08_certified_pairs_never_gain(criterion):
    rng = np.random.default_rng(8)
    d = 6
    pairs = 0
    draws = 0
    worst_gain = -math.inf
    while pairs < 100:
        draws += 1
        assert draws < 10000, "certified-pair sampling stalled"
        k1 = d - int(rng.integers(1, 3))
        k2 = d - int(rng.integers(1, 3))
        s1 = orthonormal_basis(rng.standard_normal((k1, d)))
        s2 = orthonormal_basis(rng.standard_normal((k2, d)))
        if not benign_replay_certificate(s1, s2)["certified"]:
            continue
        pairs += 1
        base = expected_forgetting_trace_form(s1, s2)
        for _ in range(50):
            m = 1 + int(rng.integers(0, s1.rank))
            rows = rng.standard_normal((m, s1.rank)) @ s1.basis.T
            val = expected_forgetting_trace_form(
                s1, s2, replay_projector=replay_null_projector(s2, rows)
            )
            worst_gain = max(worst_gain, val - base)
    ok = worst_gain <= 1e-12
    assert criterion(
        8,
        ok,
        f"100 certified pairs x 50 subsets, worst replay gain {worst_gain:.2e} "
        f"(tol 1e-12)",
    )


def test_criterion_09_angle_sweep(criterion):
    d = 4
    thetas = np.linspace(0.0, math.pi / 2.0, 91)
    w_star = np.eye(d)[:, 0]
    empirical = []
    worst_dev = 0.0
    for theta in thetas:
        s1, s2 = make_angle_pair(float(theta), d)
        t1 = Task(X=s1.basis.T, y=s1.basis.T @ w_star)
        t2 = Task(X=s2.basis.T, y=s2.basis.T @ w_star)
        w = run_sequence(TaskSequence((t1, t2), w_star))
        f = forgetting_train(TaskSequence((t1, t2), w_star), w)
        c2 = math.cos(theta) ** 2
        worst_dev = max(worst_dev, abs(f - c2 * (1.0 - c2)))
        empirical.append(f)
    argmax_theta = float(thetas[int(np.argmax(empirical))])
    step = math.pi / 2.0 / 90.0
    ok = worst_dev <= 1e-8 and abs(argmax_theta - math.pi / 4.0) <= step + 1e-12
    assert criterion(
        9,
        ok,
        f"max |simulated - cos^2 (1 - cos^2)| = {worst_dev:.2e} (tol 1e-8); "
        f"argmax at {argmax_theta:.4f} vs pi/4 (one step = {step:.4f})",
    )


def _kaczmarz(w, X, y, max_sweeps=10000):
    """Cyclic Kaczmarz from w: project onto one row's hyperplane at a time.

    Alternating projections converge to the point of {v : X v = y} nearest
    to the start, the min-norm update, without an SVD (the projection view
    of continual regression, Evron et al., COLT 2022, arXiv:2205.09588).
    """
    w = w.copy()
    scale = max(1.0, float(np.linalg.norm(y)))
    for _ in range(max_sweeps):
        for x, label in zip(X, y):
            w += (label - x @ w) / (x @ x) * x
        if np.linalg.norm(X @ w - y) <= 1e-13 * scale:
            return w
    raise AssertionError(f"Kaczmarz did not converge in {max_sweeps} sweeps")


def test_criterion_10_gd_matches_closed_form(criterion):
    rng = np.random.default_rng(10)
    worst = 0.0
    worst_kaczmarz = 0.0
    for i in range(100):
        d = int(rng.integers(4, 21))
        T = int(rng.integers(2, 6))
        w_star = rng.standard_normal(d)
        tasks = []
        for _ in range(T):
            n = int(rng.integers(1, max(2, d // 3) + 1))
            X = rng.standard_normal((n, d))
            tasks.append(Task(X=X, y=X @ w_star))
        seq = TaskSequence(tuple(tasks), w_star)
        # one stored row, drawn once; both solvers and Kaczmarz see the same data
        replayed = augment_with_replay(seq, select_replay(seq, 1, np.random.default_rng(i)))
        for data in (seq, replayed):
            w_c = run_sequence(data)
            w_g = run_sequence(data, "gd")
            worst = max(worst, float(np.linalg.norm(w_c - w_g)))
            # the same tasks through an iterative route with no SVD
            w_k = np.zeros(d)
            for task in data.tasks:
                w_k = _kaczmarz(w_k, task.X, task.y)
            worst_kaczmarz = max(worst_kaczmarz, float(np.linalg.norm(w_c - w_k)))
    ok = worst <= 1e-4 and worst_kaczmarz <= 1e-9
    assert criterion(
        10,
        ok,
        f"worst final-iterate gap {worst:.2e} to GD (tol 1e-4) and "
        f"{worst_kaczmarz:.2e} to cyclic Kaczmarz (tol 1e-9) over 100 sequences",
    )


def test_criterion_11_concentration_tails(criterion):
    verdicts = []
    for d, m in ((152, 10), (31, 5)):
        verdicts.extend(oracle_random_projection_tails(d, m, 10**5, np.random.default_rng(42)))
    ok = all(v.passed for v in verdicts)
    detail = "; ".join(
        f"{v.name} freq {v.observed:.2e} vs bound {v.bound_or_expected:.2e}"
        for v in verdicts
    )
    assert criterion(11, ok, detail)
