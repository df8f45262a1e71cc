"""Laws that hold on every code path: empty shapes, rotations, scale, span.

Zero-row, all-zero and rank-0 inputs run the same SVD and matmul path as
any other input, so each case below checks what that general path returns.
The rotation law checks that mapping every subspace, row and target
through one orthogonal Q changes no forgetting value or certificate and
maps each learned w to Q w. The scale law checks that w* -> c w* scales
forgetting by c^2, the order law that reordering the rows of a task or of
the replay memory leaves the learned w unchanged, and the span law that a
replayed row already in the second task's augmented span changes nothing.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from continual_replay.errors import DimensionMismatch, InconsistentSystem, NotConverged
from continual_replay.learner import (
    augment_with_replay,
    fit_closed_form,
    fit_gd,
    run_sequence,
    select_replay,
)
from continual_replay.linalg_core import (
    Subspace,
    min_norm_solve,
    orthonormal_basis,
    principal_angles,
)
from continual_replay.metrics import (
    benign_replay_certificate,
    expected_forgetting_closed_form,
    expected_forgetting_trace_form,
    expected_replay_forgetting_two_tasks,
    forgetting_test_mean,
    forgetting_train,
    replay_null_projector,
)
from continual_replay.task_gen import Task, TaskSequence, sample_task

D = 5


def _subspace(rng, k, d=D):
    return orthonormal_basis(rng.standard_normal((k, d)))


def _rank0():
    return Subspace(np.zeros((D, 0)))


# ------------------------------------------------------------ empty shapes


def _principal_angles_with_rank0(rng):
    s = _subspace(rng, 2)
    for a, b in ((_rank0(), s), (s, _rank0()), (_rank0(), _rank0())):
        angles = principal_angles(a, b)
        assert angles.shape == (0,) and angles.dtype == float


def _fits_without_constraining_rows(rng):
    w_prev = rng.standard_normal(D)
    for n in (0, 3):  # no rows, then all-zero rows
        task = Task(np.zeros((n, D)), np.zeros(n))
        for fit in (fit_closed_form, fit_gd):
            w = fit(w_prev, task)
            assert np.array_equal(w, w_prev) and w is not w_prev, (fit.__name__, n)
    # all-zero rows with nonzero labels have no solution on either lane
    inconsistent = Task(np.zeros((3, D)), np.ones(3))
    with pytest.raises(InconsistentSystem):
        fit_closed_form(w_prev, inconsistent)
    with pytest.raises(NotConverged):
        fit_gd(w_prev, inconsistent)


def _min_norm_solve_all_zero_x(rng):
    assert np.array_equal(min_norm_solve(np.zeros((3, D)), np.zeros(3)), np.zeros(D))
    with pytest.raises(InconsistentSystem):
        min_norm_solve(np.zeros((3, D)), np.ones(3))


def _sample_task_rank0(rng):
    w_star = rng.standard_normal(D)
    before = rng.bit_generator.state
    task = sample_task(_rank0(), 4, w_star, rng)
    assert np.array_equal(task.X, np.zeros((4, D)))
    assert np.array_equal(task.y, np.zeros(4))
    assert rng.bit_generator.state == before  # an (n, 0) draw consumes nothing


def _forgetting_test_mean_rank0(rng):
    s1, s_last = _subspace(rng, 2), _subspace(rng, 3)
    w, w_star = rng.standard_normal(D), rng.standard_normal(D)
    gen_a, gen_b = np.random.default_rng(4), np.random.default_rng(4)
    without = forgetting_test_mean([s1, s_last], w, w_star, 50, gen_a)
    with_rank0 = forgetting_test_mean([s1, _rank0(), s_last], w, w_star, 50, gen_b)
    # the rank-0 task adds exactly 0 to each draw's sum over T - 1 = 2 tasks
    assert with_rank0["mean"] == without["mean"] / 2
    assert gen_a.bit_generator.state == gen_b.bit_generator.state


def _replay_null_projector_empty_memory(rng):
    s2 = _subspace(rng, 3)
    proj = replay_null_projector(s2, np.zeros((0, D)))
    want = np.eye(D) - s2.basis @ s2.basis.T
    np.testing.assert_allclose(proj.matrix, want, atol=1e-12)
    with pytest.raises(DimensionMismatch):
        replay_null_projector(s2, np.ones(D))  # one row must be passed as 1 x d


def _select_replay_from_one_task(rng):
    w_star = rng.standard_normal(D)
    X = rng.standard_normal((2, D))
    seq = TaskSequence((Task(X, X @ w_star),), w_star)
    before = rng.bit_generator.state
    memory = select_replay(seq, 0, rng)
    assert (memory.n_samples, memory.ambient_dim) == (0, D)
    assert rng.bit_generator.state == before


@pytest.mark.parametrize(
    "case",
    [
        _principal_angles_with_rank0,
        _fits_without_constraining_rows,
        _min_norm_solve_all_zero_x,
        _sample_task_rank0,
        _forgetting_test_mean_rank0,
        _replay_null_projector_empty_memory,
        _select_replay_from_one_task,
    ],
    ids=lambda case: case.__name__.lstrip("_"),
)
def test_empty_shapes_take_the_general_path(case):
    case(np.random.default_rng(11))


# ------------------------------------------------------------ rotation law

# Agreement within a relative 1e-12, with an absolute floor of 1e-14 for
# values at rounding level (a forgetting of 0, a replay that fills the span).
REL, FLOOR = 1e-12, 1e-14


def _assert_close(got, want, what, floor=FLOOR):
    got, want = np.asarray(got), np.asarray(want)
    scale = max(float(np.abs(want).max(initial=0.0)), float(np.abs(got).max(initial=0.0)))
    dev = float(np.abs(got - want).max(initial=0.0))
    assert dev <= REL * scale + floor, (what, dev, scale)


def _rotation(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def _well_conditioned_task(rng, k, d, w_star):
    # orthonormal rows scaled into [1, 2]: gradient descent's default
    # budget reaches its 1e-11 tolerance on every such task
    rows = rng.uniform(1.0, 2.0, size=k)[:, None] * _subspace(rng, k, d).basis.T
    return Task(rows, rows @ w_star)


@st.composite
def rotation_cases(draw):
    d = draw(st.integers(3, 8))
    ranks = tuple(draw(st.integers(1, d - 1)) for _ in range(3))
    m = draw(st.integers(1, d))
    seed = draw(st.integers(0, 2**32 - 1))
    return d, ranks, m, seed


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(rotation_cases())
def test_rotation_changes_no_forgetting(case):
    d, ranks, m, seed = case
    rng = np.random.default_rng(seed)
    Q = _rotation(rng, d)
    w_star = rng.standard_normal(d)
    tasks = [_well_conditioned_task(rng, k, d, w_star) for k in ranks]
    seq = TaskSequence(tuple(tasks), w_star)
    seq_q = TaskSequence(tuple(Task(t.X @ Q.T, t.y) for t in tasks), Q @ w_star)
    for solver in ("closed_form", "gd"):
        w, w_q = run_sequence(seq, solver), run_sequence(seq_q, solver)
        _assert_close(w_q, Q @ w, f"{solver} iterate")
        _assert_close(forgetting_train(seq_q, w_q), forgetting_train(seq, w), solver)

    subspaces = [orthonormal_basis(t.X) for t in tasks]
    rotated = [Subspace(Q @ s.basis) for s in subspaces]
    _assert_close(
        expected_forgetting_closed_form(rotated, Q @ w_star),
        expected_forgetting_closed_form(subspaces, w_star),
        "closed form",
    )

    s1, s2 = subspaces[:2]
    s1_q, s2_q = rotated[:2]
    cert, cert_q = benign_replay_certificate(s1, s2), benign_replay_certificate(s1_q, s2_q)
    # the operator norm is at most 1; the worst seen is 4.4e-16
    _assert_close(cert_q["op_norm_value"], cert["op_norm_value"], "certificate")
    assert cert_q["certified"] == cert["certified"]
    rows = rng.standard_normal((m, d))
    _assert_close(
        expected_forgetting_trace_form(s1_q, s2_q),
        expected_forgetting_trace_form(s1, s2),
        "trace form",
    )
    _assert_close(
        expected_forgetting_trace_form(s1_q, s2_q, replay_null_projector(s2_q, rows @ Q.T)),
        expected_forgetting_trace_form(s1, s2, replay_null_projector(s2, rows)),
        "trace form with replay",
    )

    # the kernel draws its memory in task 1's coordinates, so one seed
    # gives both runs the same draws
    kernel = [
        expected_replay_forgetting_two_tasks(a, b, w, m, 40, np.random.default_rng(seed))
        for a, b, w in ((s1, s2, w_star), (s1_q, s2_q, Q @ w_star))
    ]
    _assert_close(kernel[1]["mean"], kernel[0]["mean"], "replay kernel mean")


# ------------------------------------------------------- scale and span laws


@st.composite
def two_task_cases(draw):
    d = draw(st.integers(3, 8))
    k1, k2 = draw(st.integers(1, d - 1)), draw(st.integers(1, d - 1))
    m = draw(st.integers(1, d))
    c = draw(st.floats(0.125, 8.0))
    seed = draw(st.integers(0, 2**32 - 1))
    return d, k1, k2, m, c, seed


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(two_task_cases())
def test_scaling_the_target_scales_forgetting_by_its_square(case):
    # relative 1e-12 with an absolute floor of 1e-14, for a replay that
    # fills task 1's span and reads 0
    d, k1, k2, m, c, seed = case
    rng = np.random.default_rng(seed)
    s1, s2 = _subspace(rng, k1, d), _subspace(rng, k2, d)
    w_star = rng.standard_normal(d)
    _assert_close(
        expected_forgetting_closed_form([s1, s2], c * w_star),
        c * c * expected_forgetting_closed_form([s1, s2], w_star),
        "closed form",
        floor=1e-14,
    )
    # the same generator draws the same memories for both targets
    kernel = [
        expected_replay_forgetting_two_tasks(s1, s2, w, m, 40, np.random.default_rng(seed))
        for w in (w_star, c * w_star)
    ]
    _assert_close(kernel[1]["mean"], c * c * kernel[0]["mean"], "replay kernel mean", floor=1e-14)
    # both learners on rows spanning the two subspaces; the worst seen is
    # 3.6e-14 absolute on a value scaled by up to 64 (1.2e-14 relative)
    tasks = [
        Task(rows, rows @ w_star)
        for rows in (rng.uniform(1.0, 2.0, size=(s.rank, 1)) * s.basis.T for s in (s1, s2))
    ]
    seq = TaskSequence(tuple(tasks), w_star)
    seq_c = TaskSequence(tuple(Task(t.X, c * t.y) for t in tasks), c * w_star)
    for solver in ("closed_form", "gd"):
        _assert_close(
            forgetting_train(seq_c, run_sequence(seq_c, solver)),
            c * c * forgetting_train(seq, run_sequence(seq, solver)),
            solver,
            floor=1e-14,
        )


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(rotation_cases())
def test_reordering_rows_or_memory_changes_no_iterate(case):
    # relative 1e-12 with an absolute floor of 1e-14 on each entry of w;
    # the worst seen is 3.7e-15 absolute (3.9e-15 relative)
    d, ranks, m, seed = case
    rng = np.random.default_rng(seed)
    w_star = rng.standard_normal(d)
    tasks = [_well_conditioned_task(rng, k, d, w_star) for k in ranks]
    seq = TaskSequence(tuple(tasks), w_star)
    shuffled = []
    for t in tasks:
        order = rng.permutation(t.n_samples)
        shuffled.append(Task(t.X[order], t.y[order]))
    seq_shuffled = TaskSequence(tuple(shuffled), w_star)
    memory = select_replay(seq, min(m, ranks[0] + ranks[1]), rng)
    order = rng.permutation(memory.n_samples)
    replayed = augment_with_replay(seq, memory)
    replayed_shuffled = augment_with_replay(seq, Task(memory.X[order], memory.y[order]))
    for solver in ("closed_form", "gd"):
        _assert_close(
            run_sequence(seq_shuffled, solver),
            run_sequence(seq, solver),
            f"{solver} rows",
        )
        _assert_close(
            run_sequence(replayed_shuffled, solver),
            run_sequence(replayed, solver),
            f"{solver} memory",
        )


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(two_task_cases())
def test_a_replayed_row_in_the_span_changes_nothing(case):
    # relative 1e-12 with an absolute floor of 1e-13: entries and values
    # are at most d, and the worst seen is 3.1e-15
    d, k1, k2, m, _, seed = case
    rng = np.random.default_rng(seed)
    s1, s2 = _subspace(rng, k1, d), _subspace(rng, k2, d)
    rows = rng.standard_normal((m, d))
    stack = np.vstack([s2.basis.T, rows])
    in_span = (rng.standard_normal(len(stack)) @ stack)[None]
    proj = replay_null_projector(s2, rows)
    proj_more = replay_null_projector(s2, np.vstack([rows, in_span]))
    _assert_close(proj_more.matrix, proj.matrix, "replay null projector", floor=1e-13)
    _assert_close(
        expected_forgetting_trace_form(s1, s2, proj_more),
        expected_forgetting_trace_form(s1, s2, proj),
        "trace form with replay",
        floor=1e-13,
    )
    # a memory inside task 2's own span is no replay at all, which the
    # trace form computes without a projector
    own = (rng.standard_normal(k2) @ s2.basis.T)[None]
    _assert_close(
        expected_forgetting_trace_form(s1, s2, replay_null_projector(s2, own)),
        expected_forgetting_trace_form(s1, s2),
        "trace form without replay",
        floor=1e-13,
    )
