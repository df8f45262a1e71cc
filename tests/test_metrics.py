import itertools
import math
import tracemalloc

import numpy as np
import pytest

from continual_replay import metrics
from continual_replay.errors import (
    DimensionMismatch,
    InvalidParameters,
    NonFiniteInput,
    TooFewTasks,
)
from continual_replay.learner import SOLVERS, augment_with_replay, run_sequence
from continual_replay.linalg_core import Projector, Subspace, orthonormal_basis, rank_mask
from continual_replay.metrics import (
    benign_replay_certificate,
    expected_forgetting_closed_form,
    expected_forgetting_trace_form,
    expected_replay_forgetting_rank_one,
    expected_replay_forgetting_two_tasks,
    forgetting_test_mean,
    forgetting_train,
    mean_and_std_err,
    replay_null_projector,
)
from continual_replay.oracle import claim_c2_statistics
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

A_SQ = 6.0 / 7.0  # squared alignment of the default worst-case w*


# ------------------------------------------------------- train forgetting


def test_forgetting_train_requires_two_tasks():
    seq = make_worst_case(2, 3)
    with pytest.raises(TooFewTasks):
        forgetting_train(
            type(seq)((seq.tasks[0],), seq.w_star), seq.w_star
        )


def test_forgetting_train_checks_dimensions():
    seq = make_worst_case(3, 3)
    with pytest.raises(DimensionMismatch):
        forgetting_train(seq, np.zeros(4))


# ---------------------------------------------------- worst-case constants


@pytest.mark.parametrize("T", [2, 3, 5, 10])
def test_worst_case_no_replay_constant(T):
    seq = make_worst_case(T, 3)
    f = forgetting_train(seq, run_sequence(seq))
    assert f == pytest.approx(3.0 * A_SQ / (28.0 * (T - 1)), abs=1e-12)


@pytest.mark.parametrize("T", [2, 3, 5, 10])
@pytest.mark.parametrize("d", [3, 5])
def test_worst_case_replay_matches_projector_route(T, d):
    # dual-route check: the simulated replay run must match the value
    # obtained purely from projector algebra on the augmented final span
    seq = make_worst_case(T, d)
    mixed = seq.tasks[T - 2]  # rows x1, x2
    replayed = augment_with_replay(seq, Task(mixed.X[1:], mixed.y[1:]))
    f = forgetting_train(seq, run_sequence(replayed))

    r = seq.w_star.copy()
    for t, task in enumerate(seq.tasks):
        X = task.X if t < T - 1 else np.vstack([task.X, mixed.X[1:]])
        s = orthonormal_basis(X)
        r = r - s.basis @ (s.basis.T @ r)
    expect = float(
        np.mean([np.sum((task.X @ r) ** 2) for task in seq.tasks[:-1]])
    )
    assert f == pytest.approx(expect, abs=1e-12)
    # the projector route lands on 3 a^2 / 14 independently of T
    assert f == pytest.approx(3.0 * A_SQ / 14.0, abs=1e-9)


def test_worst_case_rotation_invariance():
    base = make_worst_case(4, 5)
    # a Haar rotation of every row and of w*: QR with the sign correction
    q, r = np.linalg.qr(np.random.default_rng(3).standard_normal((5, 5)))
    Q = q * np.sign(np.diag(r))
    w_star = Q @ base.w_star
    rot = TaskSequence(
        tuple(Task(task.X @ Q.T, task.X @ Q.T @ w_star) for task in base.tasks), w_star
    )
    f_base = forgetting_train(base, run_sequence(base))
    f_rot = forgetting_train(rot, run_sequence(rot))
    assert f_rot == pytest.approx(f_base, abs=1e-9)


@pytest.mark.parametrize("T,d,m_max", [(6, 5, 4), (10, 3, 3)])
def test_worst_case_uniform_replay_curve_is_exact_and_non_monotone(T, d, m_max):
    # Every m-subset of the N earlier rows, in select_replay's pool order:
    # T-1 copies of x1, one x2 and F filler rows. Only x2 without x1 hurts,
    # so the mean over subsets is E_m = (1 - m/N) 3a^2/(28(T-1))
    # + [C(F, m-1) / C(N, m)] 3a^2/14 in both lanes.
    seq = make_worst_case(T, d)
    pool = np.vstack([task.X for task in seq.tasks[:-1]])
    labels = np.concatenate([task.y for task in seq.tasks[:-1]])
    N, F = (T, 0) if d == 3 else (2 * T - 2, T - 2)
    assert pool.shape[0] == N
    curve = []
    for m in range(m_max + 1):
        x2_alone = math.comb(F, m - 1) / math.comb(N, m) if m else 0.0
        exact = (1 - m / N) * 3 * A_SQ / (28 * (T - 1)) + x2_alone * 3 * A_SQ / 14
        for solver in SOLVERS:
            fs = []
            for i in map(list, itertools.combinations(range(N), m)):
                w = run_sequence(augment_with_replay(seq, Task(pool[i], labels[i])), solver)
                fs.append(forgetting_train(seq, w))
            assert sum(fs) / len(fs) == pytest.approx(exact, abs=1e-12), (m, solver)
        curve.append(exact)
    steps = np.diff(curve)
    assert (steps > 0).any() and (steps < 0).any(), curve


# ----------------------------------------------------- fresh-sample variant


def test_mean_and_std_err_is_the_one_standard_error_rule():
    values = np.array([1.0, 2.0, 4.0, 8.0])
    got = mean_and_std_err(values)
    assert got == {"mean": 3.75, "std_err": float(values.std(ddof=1) / 2.0)}
    assert mean_and_std_err(np.array([5.0])) == {"mean": 5.0, "std_err": 0.0}


def _fresh_rows_reference(subspaces, w, w_star, trials, rng):
    # Reference route for forgetting_test_mean's chi^2 law: each draw takes
    # k_t fresh rows W_t z, z ~ N(0, I / k_t), from every earlier task and
    # sums their squared residuals; 500 draws at a time.
    values = np.zeros(trials)
    for s in subspaces[:-1]:
        k = s.rank
        for lo in range(0, trials, 500):
            n = min(500, trials - lo)
            rows = rng.standard_normal((n, k, k)) @ s.basis.T / math.sqrt(max(k, 1))
            values[lo : lo + n] += np.sum((rows @ w - rows @ w_star) ** 2, axis=1)
    values /= len(subspaces) - 1
    return {"mean": values.mean(), "std_err": values.std(ddof=1) / math.sqrt(trials)}


def _assert_matches_closed_form(route):
    # three cases, among them a rank-0 task and k = 40, each within 4.9
    # standard errors of the exact expectation
    for d, ranks in ((6, (2, 3, 1)), (5, (2, 0, 3)), (41, (40, 1))):
        rng = np.random.default_rng(1)
        subs = [orthonormal_basis(rng.standard_normal((k, d))) for k in ranks]
        w_star = rng.standard_normal(d)
        w = run_sequence_from(subs, w_star)
        exact = expected_forgetting_closed_form(subs, w_star)
        res = route(subs, w, w_star, 4000, np.random.default_rng(2))
        assert abs(res["mean"] - exact) <= 4.9 * res["std_err"], (ranks, res, exact)


def test_forgetting_test_mean_matches_closed_form():
    _assert_matches_closed_form(forgetting_test_mean)


def test_fresh_rows_reference_matches_closed_form():
    _assert_matches_closed_form(_fresh_rows_reference)


def test_forgetting_test_mean_draws_one_chi_square_per_task():
    # one task's k fresh rows sum to ||W^T (w - w*)||^2 / k times chi^2_k
    rng = np.random.default_rng(1)
    s1, s2 = (orthonormal_basis(rng.standard_normal((k, 6))) for k in (3, 2))
    w, w_star = rng.standard_normal(6), rng.standard_normal(6)
    res = forgetting_test_mean([s1, s2], w, w_star, 1000, np.random.default_rng(2))
    scale = float(np.sum((s1.basis.T @ (w - w_star)) ** 2)) / 3
    values = scale * np.random.default_rng(2).chisquare(3, 1000)
    assert res["mean"] == float(values.mean())
    # at w = w* no fresh sample sees a residual
    assert forgetting_test_mean([s1, s2], w_star, w_star, 100, rng)["mean"] == 0.0


def test_fresh_sample_forms_need_two_tasks_and_a_trial():
    s1, s2, p1 = make_avg_case_3d()
    for form in (
        lambda: forgetting_test_mean([s1], p1, p1, 10, np.random.default_rng(0)),
        lambda: expected_forgetting_closed_form([s1], p1),
    ):
        with pytest.raises(TooFewTasks, match="at least two tasks"):
            form()
    with pytest.raises(InvalidParameters, match="trials must be >= 1"):
        forgetting_test_mean([s1, s2], p1, p1, 0, np.random.default_rng(0))


def test_forgetting_test_mean_checks_dimensions():
    # the shape checks come before any draw, as in the closed form
    rng = np.random.default_rng(0)
    s4 = orthonormal_basis(rng.standard_normal((2, 4)))
    s3 = orthonormal_basis(rng.standard_normal((1, 3)))
    w3 = rng.standard_normal(3)
    with pytest.raises(DimensionMismatch):
        forgetting_test_mean([s4, s3], w3, w3, 10, rng)
    with pytest.raises(DimensionMismatch):
        forgetting_test_mean([s3, s3], w3, rng.standard_normal(4), 10, rng)


def test_forgetting_test_mean_working_set_is_bounded():
    # One 2000 x 40 x 40 block of normals would take 25.6 MB; the working set
    # is a few trials-long arrays, one gamma draw per task.
    rng = np.random.default_rng(0)
    subs = [orthonormal_basis(rng.standard_normal((k, 41))) for k in (40, 1)]
    w, w_star = rng.standard_normal(41), rng.standard_normal(41)
    tracemalloc.start()
    try:
        forgetting_test_mean(subs, w, w_star, 2000, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20, peak


def run_sequence_from(subs, w_star):
    # closed-form learner over full-rank samples walks the exact cascade
    from continual_replay.learner import fit_closed_form
    from continual_replay.task_gen import sample_task as draw

    rng = np.random.default_rng(99)
    w = np.zeros(subs[0].ambient_dim)
    for s in subs:
        w = fit_closed_form(w, draw(s, s.rank + 2, w_star, rng))
    return w


def test_expected_forgetting_closed_form_orthogonal_tasks():
    s1 = Subspace(np.eye(6)[:, :2])
    s2 = Subspace(np.eye(6)[:, 2:5])
    w_star = np.arange(1.0, 7.0)
    assert expected_forgetting_closed_form([s1, s2], w_star) <= 1e-25


# -------------------------------------------------------- replay expectation


def test_replay_expectation_orthogonal_tasks_is_zero():
    s1 = Subspace(np.eye(5)[:, :2])
    s2 = Subspace(np.eye(5)[:, 2:3])
    res = expected_replay_forgetting_two_tasks(
        s1, s2, np.ones(5), 1, 200, np.random.default_rng(0)
    )
    assert res["mean"] <= 1e-25 and res["std_err"] <= 1e-25


def test_replay_expectation_full_span_is_zero():
    s1, s2, p1 = make_avg_case_3d()
    res = expected_replay_forgetting_two_tasks(
        s1, s2, p1, m=2, trials=300, rng=np.random.default_rng(1)
    )
    assert res["mean"] == 0.0 and res["std_err"] == 0.0


def test_replay_expectation_matches_claim_statistic():
    # two independent Monte Carlo routes to the same number: simulating the
    # augmented projector vs sampling the scalar ratio statistic directly
    trials = 30000
    s1, s2, p1 = make_avg_case_3d()
    base = expected_forgetting_closed_form([s1, s2], p1)
    res = expected_replay_forgetting_two_tasks(
        s1, s2, p1, 1, trials, np.random.default_rng(3)
    )
    ratio = res["mean"] / base
    ratio_se = res["std_err"] / base
    mean, se = claim_c2_statistics(trials, np.random.default_rng(4))
    assert abs(ratio - mean) <= 3.0 * math.hypot(ratio_se, se)


@pytest.mark.parametrize("eps", [math.sqrt(1.0 / 63.0), 0.3, 0.6])
def test_replay_ratio_3d_is_one_over_two_eps(eps):
    # In 3D one replayed row multiplies forgetting by exactly 1/(2 eps), so
    # replay hurts exactly when eps < 1/2. |z| <= 4.9 is a two-sided gate
    # with a false-alarm rate of about 1e-6.
    s1, s2, p1 = make_avg_case_3d(eps)
    base = expected_forgetting_closed_form([s1, s2], p1)
    res = expected_replay_forgetting_two_tasks(
        s1, s2, p1, 1, 10**5, np.random.default_rng(42)
    )
    exact = 1.0 / (2.0 * eps)
    assert abs(res["mean"] / base - exact) <= 4.9 * res["std_err"] / base
    # the oracle's scalar statistic has the same law at the default eps
    mean, se = claim_c2_statistics(10**6, np.random.default_rng(42))
    assert abs(mean - math.sqrt(63.0) / 2.0) <= 4.9 * se


def _replay_forgetting_reference(s1, s2, w_star, m, trials, rng):
    # the per-trial loop the chunked QR kernel replaced: one SVD per trial
    W1 = s1.basis
    q = w_star - W1 @ (W1.T @ w_star)
    values = np.zeros(trials)
    for i in range(trials):
        Z = rng.standard_normal((m, s1.rank)) / math.sqrt(s1.rank)
        stacked = np.vstack([s2.basis.T, Z @ W1.T])
        _, svals, vh = np.linalg.svd(stacked, full_matrices=False)
        B = vh[: int(np.sum(svals > 1e-10 * svals[0]))]
        p = q - B.T @ (B @ q)
        values[i] = float(np.sum((W1.T @ p) ** 2))
    std_err = float(values.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return float(values.mean()), std_err


# Chunking of the QR reference below: at most _QR_CHUNK trials, and at most
# _QR_CHUNK_ENTRIES // (k1 * max(m, k2)) (86-trial chunks at d = 152, m = 10).
_QR_CHUNK = 4096
_QR_CHUNK_ENTRIES = 2**17


def _replay_forgetting_qr_reference(s1, s2, w_star, m, trials, rng):
    # The kernel before the law route: each trial draws its m memory rows in
    # task 1's coordinates (m * k1 normals, the rows of Z) and reads B~ from
    # the R factor of one Householder QR of [Z^T | B]. Its trailing block
    # R22 satisfies R22^T R22 = B~^T B~ (Bjorck 1996, sec. 1.3), so the value
    # is ||R22 y||^2, and for m >= k1 the block has no rows.
    W1, W2 = s1.basis, s2.basis
    q = w_star - W1 @ (W1.T @ w_star)
    B = W1.T @ W2
    C0 = W2 - W1 @ B
    c = C0.T @ q
    C0tC0 = C0.T @ C0
    k1, k2 = s1.rank, s2.rank
    values = np.empty(trials)
    chunk = max(1, min(_QR_CHUNK, _QR_CHUNK_ENTRIES // (k1 * max(m, k2))))
    for start in range(0, trials, chunk):
        size = min(chunk, trials - start)
        ZB = np.empty((size, m + k2, k1))
        ZB[:, :m] = rng.standard_normal((size, m, k1))
        ZB[:, m:] = B.T
        R = np.linalg.qr(ZB.transpose(0, 2, 1), mode="r")
        Bt = R[:, m:, m:]
        evals, evecs = np.linalg.eigh(Bt.transpose(0, 2, 1) @ Bt + C0tC0)
        evals, evecs = evals[:, ::-1], evecs[:, :, ::-1]
        keep = rank_mask(np.sqrt(np.clip(evals, 0.0, None)))
        inv = np.divide(1.0, evals, out=np.zeros_like(evals), where=keep)
        y = evecs @ (inv * (c @ evecs))[:, :, None]
        values[start : start + size] = np.sum((Bt @ y) ** 2, axis=(1, 2))
    std_err = float(values.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return float(values.mean()), std_err


def _replay_case(name):
    if name == "3d":
        return make_avg_case_3d()
    if name.startswith("rand-"):
        # a random subspace pair rand-d-k1-k2 and a random target
        d, k1, k2 = (int(x) for x in name.split("-")[1:])
        g = np.random.default_rng([d, k1, k2])
        s1 = orthonormal_basis(g.standard_normal((k1, d)))
        s2 = orthonormal_basis(g.standard_normal((k2, d)))
        return s1, s2, g.standard_normal(d)
    return make_avg_case_highdim(400 if name == "wide" else 152, 0.4)


_KERNEL_CASES = [
    ("3d", 1, 3000),
    ("highdim", 10, 600),
    ("highdim", 10, _QR_CHUNK_ENTRIES // (151 * 10) + 1),  # past the 86-trial chunk
    ("highdim", 10, 695),  # eight full 86-trial chunks and a 7-trial tail
    ("3d", 1, 1),
    ("3d", 1, 511),
    ("3d", 1, 512),
    ("3d", 1, 513),
    ("3d", 2, 513),  # m = rank: replay spans task 1
    ("3d", 1, _QR_CHUNK - 1),
    ("3d", 1, _QR_CHUNK),
    ("3d", 1, _QR_CHUNK + 1),
    ("3d", 2, _QR_CHUNK + 1),
    ("3d", 5, 300),  # k2 + m > d: the stack has more rows than vh
    ("wide", 20, 300),  # 399 x 20 replay blocks: the entry cap gives 16-trial chunks
    ("rand-8-6-4", 1, 300),  # k1 + k2 > d: P_1 W2 has rank 2 < k2
    ("rand-8-6-4", 3, 300),
    ("rand-12-5-5", 4, 300),
    ("rand-8-6-4", 9, 300),  # m > k1: replay spans task 1
    ("rand-10-4-3", 2, 513),
    ("rand-10-4-3", 2, _QR_CHUNK + 1),  # k2 = 3 across a chunk boundary
]


@pytest.mark.parametrize("case,m,trials", _KERNEL_CASES)
def test_chunked_replay_kernel_matches_per_trial_loop(case, m, trials):
    # the chunked QR reference against the per-trial SVD loop, draw for draw
    s1, s2, w_star = _replay_case(case)
    rng, ref_rng = np.random.default_rng(11), np.random.default_rng(11)
    mean, se = _replay_forgetting_qr_reference(s1, s2, w_star, m, trials, rng)
    ref_mean, ref_se = _replay_forgetting_reference(s1, s2, w_star, m, trials, ref_rng)
    if m >= s1.rank:
        assert mean == 0.0 and ref_mean <= 1e-20
    else:
        assert mean == pytest.approx(ref_mean, rel=1e-12, abs=0.0)
        assert se == pytest.approx(ref_se, rel=1e-12, abs=0.0)
    # same draws in the same order: downstream streams are unchanged
    assert rng.bit_generator.state == ref_rng.bit_generator.state


# |z| <= 4.9 is a two-sided gate with a false-alarm rate of about 1e-6.
Z_GATE = 4.9
# (8, 6, 4) with m = 5 fills R^8, so its true value is 0 and both routes
# read rounding noise (about 1e-26); this absolute floor covers it.
ZERO_FLOOR = 1e-20


@pytest.mark.parametrize(
    "case,m",
    list(dict.fromkeys((case, m) for case, m, _ in _KERNEL_CASES)) + [("rand-8-6-4", 5)],
)
def test_law_kernel_matches_qr_reference(case, m):
    # two independent streams, so the two means are independent estimates
    s1, s2, w_star = _replay_case(case)
    trials = 4000
    res = expected_replay_forgetting_two_tasks(
        s1, s2, w_star, m, trials, np.random.default_rng(12)
    )
    ref_mean, ref_se = _replay_forgetting_qr_reference(
        s1, s2, w_star, m, trials, np.random.default_rng(11)
    )
    if m >= s1.rank:
        assert res["mean"] == 0.0 and ref_mean == 0.0
    else:
        gap = abs(res["mean"] - ref_mean)
        assert gap <= Z_GATE * math.hypot(res["std_err"], ref_se) + ZERO_FLOOR, (gap, ref_se)


@pytest.mark.parametrize(
    "d,eps,m,trials",
    [
        (3, EPSILON_3D, 1, 10**5),
        (152, 0.4, 10, 20000),
        (152, 0.4, 120, 20000),
        (1000, 0.4, 10, 20000),  # R_B's diagonal is sqrt(chi^2_989)
    ],
)
def test_law_kernel_matches_exact_value(d, eps, m, trials):
    s1, s2, w_star = make_avg_case_highdim(d, eps)
    res = expected_replay_forgetting_two_tasks(
        s1, s2, w_star, m, trials, np.random.default_rng(13)
    )
    exact = expected_replay_forgetting_rank_one(d - 1, m, eps)
    assert abs(res["mean"] - exact) <= Z_GATE * res["std_err"]


@pytest.mark.parametrize("d,k1,m", [(20, 15, 1), (20, 15, 5), (12, 6, 2), (40, 30, 10)])
def test_law_kernel_matches_the_rank_one_law_on_general_pairs(d, k1, m):
    # task 2 is one direction w2 in general position. With e = ||P_1 w2|| and
    # c0 = P_1 w2 / e, a trial's value is (c0 . w*)^2 times the rank-one
    # value at eps = e, so the expectation is (c0 . w*)^2 E_m(k1, e)
    rng = np.random.default_rng([14, d, k1, m])
    s1 = orthonormal_basis(rng.standard_normal((k1, d)))
    s2 = orthonormal_basis(rng.standard_normal((1, d)))
    w_star = rng.standard_normal(d)
    w2 = s2.basis[:, 0]
    c0 = w2 - s1.basis @ (s1.basis.T @ w2)
    e = float(np.linalg.norm(c0))
    exact = (float(c0 @ w_star) / e) ** 2 * expected_replay_forgetting_rank_one(k1, m, e)
    res = expected_replay_forgetting_two_tasks(s1, s2, w_star, m, 20000, rng)
    assert abs(res["mean"] - exact) <= Z_GATE * res["std_err"]


def test_law_kernel_keeps_the_rotation_law_on_square_frames():
    # With k1 = k2 = rank(B) the frame's H = G V is square, and its smallest
    # singular value is often small. A single inverse-root pass then loses
    # about cond(H)^2 times rounding, and rotating the tasks (which moves B
    # by rounding) missed relative 1e-12 on 72 of 400 such seeds; the second
    # pass keeps every seed within 1e-13. Floor 1e-14 as in test_shapes.py.
    for seed in range(50):
        rng = np.random.default_rng(seed)
        q, r = np.linalg.qr(rng.standard_normal((6, 6)))
        Q = q * np.sign(np.diag(r))
        s1 = orthonormal_basis(rng.standard_normal((3, 6)))
        s2 = orthonormal_basis(rng.standard_normal((3, 6)))
        w_star = rng.standard_normal(6)
        plain, rotated = (
            expected_replay_forgetting_two_tasks(a, b, w, 1, 200, np.random.default_rng(seed))
            for a, b, w in (
                (s1, s2, w_star),
                (Subspace(Q @ s1.basis), Subspace(Q @ s2.basis), Q @ w_star),
            )
        )
        dev = abs(plain["mean"] - rotated["mean"])
        assert dev <= 1e-12 * abs(plain["mean"]) + 1e-14, (seed, dev)


def test_law_kernel_keeps_the_rotation_law_at_repeated_singular_values():
    # B = W1^T W2 = diag(cos a, cos a, 0): the SVD may return any basis of
    # the repeated pair, and after a rotation it returns another one. The
    # symmetric inverse root makes the draw blind to that choice (worst seen
    # 1.4e-15); a Cholesky root in its place missed by 0.16 relative.
    e = np.eye(6)
    for seed in range(30):
        rng = np.random.default_rng(seed)
        q, r = np.linalg.qr(rng.standard_normal((6, 6)))
        Q = q * np.sign(np.diag(r))
        a = rng.uniform(0.3, 1.2)
        W1 = e[:, :3]
        pair = [np.cos(a) * e[i] + np.sin(a) * e[i + 3] for i in (0, 1)]
        W2 = np.stack(pair + [e[5]], axis=1)
        w_star = rng.standard_normal(6)
        for m in (1, 2):
            plain, rotated = (
                expected_replay_forgetting_two_tasks(
                    Subspace(A @ W1), Subspace(A @ W2), A @ w_star, m, 200,
                    np.random.default_rng(seed),
                )["mean"]
                for A in (np.eye(6), Q)
            )
            assert abs(plain - rotated) <= 1e-12 * abs(plain) + 1e-14, (seed, m)


def test_law_kernel_keeps_the_rotation_law_with_bartlett_blocks():
    # k1 = 7, k2 = 2: m = 1 draws R_B as a Bartlett factor, m = 3 both
    # blocks, m = 5 R_A (worst seen 2.5e-3 of the gate)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        q, r = np.linalg.qr(rng.standard_normal((10, 10)))
        Q = q * np.sign(np.diag(r))
        s1 = orthonormal_basis(rng.standard_normal((7, 10)))
        s2 = orthonormal_basis(rng.standard_normal((2, 10)))
        w_star = rng.standard_normal(10)
        for m in (1, 3, 5):
            plain, rotated = (
                expected_replay_forgetting_two_tasks(
                    Subspace(A @ s1.basis), Subspace(A @ s2.basis), A @ w_star, m, 200,
                    np.random.default_rng(seed),
                )["mean"]
                for A in (np.eye(10), Q)
            )
            assert abs(plain - rotated) <= 1e-12 * abs(plain) + 1e-14, (seed, m)


def _normals_per_trial(k1, m, k2):
    # each block's Gaussian-row entries, or its Bartlett factor's entries
    # above the diagonal when it stands for more than k2 rows
    return sum(n * k2 if n <= k2 else k2 * (k2 - 1) // 2 for n in (m, k1 - m))


@pytest.mark.parametrize(
    "case,m,trials",
    [
        ("3d", 1, 1),
        ("3d", 1, 4097),
        ("highdim", 10, 435),
        ("rand-10-4-3", 2, 513),
        ("3d", 5, 7),
        ("rand-8-6-4", 1, 300),  # Gaussian rows, then a 4 x 4 Bartlett factor
    ],
)
def test_law_kernel_draws_only_the_factor_normals(case, m, trials):
    # the docstring's count, across chunk boundaries; the chi variates come
    # from a spawned child and leave rng's bits alone. For m >= k1 the value
    # is exactly 0, and rng is untouched: no normals and no child.
    s1, s2, w_star = _replay_case(case)
    rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
    res = expected_replay_forgetting_two_tasks(s1, s2, w_star, m, trials, rng)
    if m >= s1.rank:
        assert res == {"mean": 0.0, "std_err": 0.0}
        assert rng.bit_generator.seed_seq.n_children_spawned == 0
    else:
        ref_rng.standard_normal((trials, _normals_per_trial(s1.rank, m, s2.rank)))
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("case,m", [("3d", 1), ("rand-10-4-3", 2), ("highdim", 10)])
def test_replay_kernel_output_independent_of_chunk_size(monkeypatch, case, m):
    s1, s2, w_star = _replay_case(case)
    rng, small_rng = np.random.default_rng(5), np.random.default_rng(5)
    res = expected_replay_forgetting_two_tasks(s1, s2, w_star, m, 100, rng)
    monkeypatch.setattr(metrics, "_REPLAY_CHUNK_ENTRIES", 14)  # 7 trials at k2 = 1
    small = expected_replay_forgetting_two_tasks(s1, s2, w_star, m, 100, small_rng)
    assert res["mean"].hex() == small["mean"].hex()
    assert res["std_err"].hex() == small["std_err"].hex()
    assert rng.bit_generator.state == small_rng.bit_generator.state


def test_replay_kernel_working_set_is_bounded():
    # numpy reports its buffers to tracemalloc. The first call's peak holds
    # one-time allocations, so the second call's is read. At d = 152 a trial
    # fills two Bartlett entries, and the peak is 0.47 MiB; drawing G's
    # k1 x k2 = 151 normals a trial in 434-trial chunks peaked at 1.57 MiB,
    # and with _replay_values inlined into the chunk loop at 2.55 MiB. The
    # 3D case peaks near 1.6 MiB, and 3D chunks of 2**16 factor entries
    # (32768 trials) at 3.55 MiB.
    for d, eps, m, trials, bound in (
        (152, 0.4, 10, 6000, 2**20),
        (3, EPSILON_3D, 1, 10**5, 3 * 2**20),
    ):
        s1, s2, w_star = make_avg_case_highdim(d, eps)
        for _ in range(2):
            rng = np.random.default_rng(0)
            tracemalloc.start()
            try:
                expected_replay_forgetting_two_tasks(s1, s2, w_star, m, trials, rng)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak <= bound, (d, peak)


# Values from a single 800-node rule, to their 6 decimals (ROADMAP item 1).
@pytest.mark.parametrize(
    "k1,m,eps,value",
    [
        (2, 1, EPSILON_3D, 0.061994),
        (151, 10, 0.4, 0.140774),
        (151, 120, 0.4, 0.246609),
        (19, 5, 0.3, 0.106641),
    ],
)
def test_rank_one_replay_value_matches_known_values(k1, m, eps, value):
    assert expected_replay_forgetting_rank_one(k1, m, eps) == pytest.approx(value, abs=5e-7)


@pytest.mark.parametrize(
    "k1,m,eps",
    [
        (2, 1, EPSILON_3D),
        (151, 10, 0.4),
        (151, 120, 0.4),
        (19, 5, 0.3),
        (2999, 150, 0.4),  # d = 3000: the Beta weight is about 0.02 wide
        (2999, 2998, 0.4),
        (2999, 1, 1e-30),
        (5, 4, 1e-150),
        (40, 7, 0.95),
    ],
)
def test_rank_one_replay_value_is_converged(monkeypatch, k1, m, eps):
    # a rule with twice as many nodes per panel agrees to rounding
    got = expected_replay_forgetting_rank_one(k1, m, eps)
    x, w = np.polynomial.legendre.leggauss(64)
    monkeypatch.setattr(metrics, "_LEGENDRE_NODES", tuple(x[32:]))
    monkeypatch.setattr(metrics, "_LEGENDRE_WEIGHTS", tuple(w[32:]))
    finer = expected_replay_forgetting_rank_one(k1, m, eps)
    assert got == pytest.approx(finer, rel=1e-12, abs=0.0)


def test_legendre_table_is_numpys_32_point_rule():
    # the half table mirrors to leggauss(32) bit for bit
    x, w = metrics._legendre_rule()
    ref_x, ref_w = np.polynomial.legendre.leggauss(32)
    assert x.tobytes() == ref_x.tobytes()
    assert w.tobytes() == ref_w.tobytes()


@pytest.mark.parametrize(
    "eps,harmful,peak",
    [(0.4, range(1, 145), (120, 0.246609)), (0.7, range(1, 10), None), (0.71, range(0), None)],
    ids=["eps0.4", "eps0.7", "eps0.71"],
)
def test_rank_one_harm_map_at_k1_151(eps, harmful, peak):
    # replay of m rows hurts exactly where E_m exceeds the no-replay
    # eps^2 (1 - eps^2): one interval from m = 1, and none for eps >= 0.71
    no_replay = eps**2 * (1.0 - eps**2)
    values = {m: expected_replay_forgetting_rank_one(151, m, eps) for m in range(1, 151)}
    assert [m for m, v in values.items() if v > no_replay] == list(harmful)
    if peak is not None:
        top = max(values, key=values.get)
        assert (top, round(values[top], 6)) == peak


@pytest.mark.parametrize("k1", [5, 10, 20, 151])
def test_rank_one_single_row_ratio_tends_to_inverse_beta_mean(k1):
    # as eps -> 0 one replayed row multiplies the no-replay value by
    # E[1 / rho] = (k1 - 2) / (k1 - 3), rho ~ Beta((k1 - 1)/2, 1/2)
    eps = 1e-6
    ratio = expected_replay_forgetting_rank_one(k1, 1, eps) / (eps**2 * (1.0 - eps**2))
    assert ratio == pytest.approx((k1 - 2) / (k1 - 3), rel=1e-9, abs=0.0)


@pytest.mark.parametrize("eps", [0.9, 0.6, 0.3, EPSILON_3D, 1e-3, 1e-8, 1e-100])
def test_rank_one_replay_value_in_3d_is_half_eps_times_no_replay(eps):
    # in 3D one replayed row multiplies eps^2 (1 - eps^2) by exactly 1/(2 eps)
    got = expected_replay_forgetting_rank_one(2, 1, eps)
    assert got == pytest.approx(eps * (1.0 - eps**2) / 2.0, rel=1e-13, abs=0.0)


def test_rank_one_replay_value_edges():
    # a memory of k1 or more rows spans task 1
    assert expected_replay_forgetting_rank_one(5, 5, 0.4) == 0.0
    assert expected_replay_forgetting_rank_one(5, 9, 0.4) == 0.0
    for k1, m, eps in ((5, 0, 0.4), (0, 1, 0.4), (5, 1, 0.0), (5, 1, 1.0), (5, 1, math.nan)):
        with pytest.raises(InvalidParameters):
            expected_replay_forgetting_rank_one(k1, m, eps)


def test_replay_expectation_validates():
    s1, s2, p1 = make_avg_case_3d()
    with pytest.raises(InvalidParameters):
        expected_replay_forgetting_two_tasks(
            s1, s2, p1, 0, 10, np.random.default_rng(0)
        )
    with pytest.raises(InvalidParameters):
        expected_replay_forgetting_two_tasks(
            s1, s2, p1, 1, 0, np.random.default_rng(0)
        )
    with pytest.raises(InvalidParameters, match="first task subspace is trivial"):
        expected_replay_forgetting_two_tasks(
            Subspace(np.zeros((3, 0))), s2, p1, 1, 10, np.random.default_rng(0)
        )


@pytest.mark.parametrize("d,k1,m,trials", [(3, 2, 1, 10), (9, 5, 3, 1), (9, 5, 4, 5000)])
def test_replay_kernel_rank_zero_second_task_is_exactly_zero(d, k1, m, trials):
    # the memory lies in span W1 and q = P_1 w* is orthogonal to it, so every
    # trial's value is exactly 0; empty factors draw nothing
    rng = np.random.default_rng(d + m)
    s1 = orthonormal_basis(rng.standard_normal((k1, d)))
    w_star = rng.standard_normal(d)
    state = rng.bit_generator.state
    s2 = Subspace(np.zeros((d, 0)))
    res = expected_replay_forgetting_two_tasks(s1, s2, w_star, m, trials, rng)
    assert res == {"mean": 0.0, "std_err": 0.0}
    assert rng.bit_generator.state == state
    assert rng.bit_generator.seed_seq.n_children_spawned == 0


def test_highdim_no_replay_closed_form():
    d, eps = 30, 0.4
    s1, s2, u_perp = make_avg_case_highdim(d, eps)
    expect = eps**2 * (1.0 - eps**2)
    got = expected_forgetting_closed_form([s1, s2], u_perp)
    assert got == pytest.approx(expect, abs=1e-12)


# ------------------------------------------------------------ benign replay


def test_certificate_at_known_angles():
    s1, s2 = make_angle_pair(math.pi / 3.0, 5)
    cert = benign_replay_certificate(s1, s2)
    assert cert["op_norm_value"] == pytest.approx(0.5, abs=1e-10)
    assert cert["certified"]
    s1, s2 = make_angle_pair(math.pi / 6.0, 5)
    assert not benign_replay_certificate(s1, s2)["certified"]


def test_avg_case_pair_is_not_certified():
    # the construction that makes replay hurt must fail the certificate
    s1, s2, _ = make_avg_case_3d()
    assert not benign_replay_certificate(s1, s2)["certified"]


@pytest.mark.parametrize("theta", [0.1, 0.5, math.pi / 4, 1.2, math.pi / 2])
def test_trace_form_matches_rank_one_formula(theta):
    s1, s2 = make_angle_pair(theta, 4)
    c2 = math.cos(theta) ** 2
    assert expected_forgetting_trace_form(s1, s2) == pytest.approx(
        c2 - c2**2, abs=1e-10
    )


def _trace_form_reference(s1, s2, proj=None):
    # The dense route: A = P_2 P_1 with both d x d null projectors formed.
    d = s1.ambient_dim
    P1 = np.eye(d) - s1.basis @ s1.basis.T
    P2 = np.eye(d) - s2.basis @ s2.basis.T if proj is None else proj.matrix
    A = P2 @ P1
    M = A.T @ A
    return float(np.trace(M) - np.sum(M * M))


def test_trace_form_matches_dense_projector_route():
    rng = np.random.default_rng(23)
    for _ in range(300):
        d = int(rng.integers(3, 12))
        k1, k2, m = (int(rng.integers(0, d + 1)) for _ in range(3))
        s1 = orthonormal_basis(rng.standard_normal((k1, d)))
        s2 = orthonormal_basis(rng.standard_normal((k2, d)))
        # m = 0 gives the plain null projector; k2 + m >= d a vacuous replay
        proj = replay_null_projector(s2, rng.standard_normal((m, d)))
        for p in (None, proj):
            got = expected_forgetting_trace_form(s1, s2, p)
            assert abs(got - _trace_form_reference(s1, s2, p)) <= 1e-13, (d, k1, k2, m)


def test_trace_form_replay_never_increases_when_certified():
    rng = np.random.default_rng(17)
    checked = 0
    while checked < 20:
        s1 = orthonormal_basis(rng.standard_normal((5, 6)))
        s2 = orthonormal_basis(rng.standard_normal((4, 6)))
        cert = benign_replay_certificate(s1, s2)
        if not cert["certified"]:
            continue
        checked += 1
        base = expected_forgetting_trace_form(s1, s2)
        for _ in range(10):
            m = 1 + int(rng.integers(0, s1.rank))
            rows = sample_task(s1, max(m, s1.rank), np.zeros(6), rng).X[:m]
            proj = replay_null_projector(s2, rows)
            val = expected_forgetting_trace_form(s1, s2, proj)
            assert val <= base + 1e-12


@pytest.mark.parametrize("d", range(4, 9))
def test_full_span_zero_is_plus_zero_by_both_routes(d):
    # the shared zero projector returns 0.0 without forming G; a zero
    # projector validated on its own forms G = W1^T 0 W1: both give +0.0
    rng = np.random.default_rng(d)
    shared, separate = metrics._zero_projector(d), Projector(np.zeros((d, d)))
    assert separate is not shared
    for k1, k2 in itertools.product((d - 2, d - 1), repeat=2):
        s1 = orthonormal_basis(rng.standard_normal((k1, d)))
        s2 = orthonormal_basis(rng.standard_normal((k2, d)))
        for proj in (shared, separate):
            got = expected_forgetting_trace_form(s1, s2, proj)
            assert got == 0.0 and math.copysign(1.0, got) == 1.0, (d, k1, k2)


def test_replay_null_projector_kills_union_span():
    s1, s2, _ = make_avg_case_3d()
    rows = np.array([[0.3, 0.4, 0.1]])
    proj = replay_null_projector(s2, rows)
    np.testing.assert_allclose(proj.matrix @ rows[0], np.zeros(3), atol=1e-12)
    np.testing.assert_allclose(proj.matrix @ s2.basis, np.zeros((3, 1)), atol=1e-12)


def _replay_null_projector_reference(s2, rows):
    # The union Subspace route: orthonormal_basis of [W2^T; rows], then I - U U^T.
    stacked = np.vstack([s2.basis.T, rows]) if rows.size else s2.basis.T
    union = orthonormal_basis(stacked)
    return Projector(np.eye(s2.ambient_dim) - union.basis @ union.basis.T)


@pytest.mark.parametrize("d", [4, 6, 9])
@pytest.mark.parametrize("null_dim", [1, 2])
@pytest.mark.parametrize("kind", ["random", "inside_s2", "repeated"])
def test_replay_null_projector_matches_subspace_route(d, null_dim, kind):
    rng = np.random.default_rng(10 * d + null_dim)
    k2 = d - null_dim
    s2 = orthonormal_basis(rng.standard_normal((k2, d)))
    for m in range(d + 1):  # k2 + m >= d is the vacuous range for random rows
        if kind == "random":
            rows = rng.standard_normal((m, d))
        elif kind == "inside_s2":
            rows = rng.standard_normal((m, k2)) @ s2.basis.T
        else:
            rows = np.repeat(rng.standard_normal((1, d)), m, axis=0)
        got = replay_null_projector(s2, rows).matrix
        want = _replay_null_projector_reference(s2, rows).matrix
        if orthonormal_basis(np.vstack([s2.basis.T, rows])).rank == d:
            # full span: the exact zero, where I - U U^T leaves rounding noise
            # of 1 minus a sum of d squares (at most 6 ulps here, at d = 6)
            assert np.array_equal(got, np.zeros((d, d))), m
            assert np.abs(want).max() <= 2 * d * np.finfo(float).eps, (m, np.abs(want).max())
        else:
            assert np.array_equal(got, want), (m, np.abs(got - want).max())
        assert (got.trace() < 0.5) == (want.trace() < 0.5)
        if kind == "random":
            assert (got.trace() < 0.5) == (k2 + m >= d)


def test_full_span_replay_shares_one_zero_projector():
    rng = np.random.default_rng(5)
    s2 = orthonormal_basis(rng.standard_normal((4, 6)))
    first = replay_null_projector(s2, rng.standard_normal((2, 6)))
    assert replay_null_projector(s2, rng.standard_normal((3, 6))) is first
    assert np.array_equal(first.matrix, np.zeros((6, 6)))
    assert not first.matrix.flags.writeable
    other = replay_null_projector(
        orthonormal_basis(rng.standard_normal((3, 5))), rng.standard_normal((2, 5))
    )
    assert other is not first
    assert np.array_equal(other.matrix, np.zeros((5, 5)))


@pytest.mark.parametrize(
    "kind,m,want",
    [
        ("random", 2, {"spectrum": 1, "thin": 0}),  # 4 + 2 rows span R^6
        ("random", 1, {"spectrum": 0, "thin": 1}),  # 5 rows cannot span R^6
        ("repeated", 4, {"spectrum": 1, "thin": 1}),  # 8 rows of rank 5
    ],
)
def test_replay_null_projector_runs_one_svd_where_one_suffices(monkeypatch, kind, m, want):
    rng = np.random.default_rng(31)
    s2 = orthonormal_basis(rng.standard_normal((4, 6)))
    if kind == "random":
        rows = rng.standard_normal((m, 6))
    else:
        rows = np.repeat(rng.standard_normal((1, 6)), m, axis=0)
    calls = {"spectrum": 0, "thin": 0}
    svd = np.linalg.svd

    def counting(a, *args, **kwargs):
        calls["spectrum" if kwargs.get("compute_uv") is False else "thin"] += 1
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    got = replay_null_projector(s2, rows)
    assert calls == want
    monkeypatch.undo()
    if want["thin"]:
        want_matrix = _replay_null_projector_reference(s2, rows).matrix
        assert np.array_equal(got.matrix, want_matrix)
        assert got.matrix.trace() > 0.5
    else:
        assert got is metrics._zero_projector(6)


def test_replay_null_projector_rejects_bad_rows():
    s2 = orthonormal_basis(np.random.default_rng(3).standard_normal((4, 6)))
    for bad in (np.nan, np.inf):
        rows = np.ones((2, 6))
        rows[1, 3] = bad
        with pytest.raises(NonFiniteInput):
            replay_null_projector(s2, rows)
    with pytest.raises(DimensionMismatch):
        replay_null_projector(s2, np.ones((2, 5)))
