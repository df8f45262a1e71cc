import numpy as np
import pytest

from continual_replay.errors import DimensionMismatch, InvalidParameters, NotConverged
from continual_replay.learner import (
    Fixed,
    GdConfig,
    ReplayMemory,
    UniformWithoutReplacement,
    augment_with_replay,
    fit_closed_form,
    fit_gd,
    run_sequence,
    select_replay,
)
from continual_replay.linalg_core import orthonormal_basis
from continual_replay.task_gen import Task, TaskSequence, make_worst_case, sample_task


def _random_consistent_task(rng, n, d, w_star):
    X = rng.standard_normal((n, d))
    return Task(X=X, y=X @ w_star)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_fit_closed_form_exact_and_minimal(seed):
    rng = np.random.default_rng(seed)
    d, n = 9, 4
    w_star = rng.standard_normal(d)
    task = _random_consistent_task(rng, n, d, w_star)
    w_prev = rng.standard_normal(d)
    w = fit_closed_form(w_prev, task)
    assert task.residual(w) <= 1e-9
    # the update never leaves w_prev + rowspan
    s = orthonormal_basis(task.X)
    delta = w - w_prev
    np.testing.assert_allclose(s.basis @ (s.basis.T @ delta), delta, atol=1e-9)


def test_fit_closed_form_fixed_point():
    rng = np.random.default_rng(4)
    w_star = rng.standard_normal(5)
    task = _random_consistent_task(rng, 2, 5, w_star)
    np.testing.assert_allclose(fit_closed_form(w_star, task), w_star, atol=1e-12)


def test_fit_closed_form_row_permutation_invariant():
    rng = np.random.default_rng(9)
    w_star = rng.standard_normal(6)
    X = rng.standard_normal((4, 6))
    perm = rng.permutation(4)
    w_prev = rng.standard_normal(6)
    w_a = fit_closed_form(w_prev, Task(X=X, y=X @ w_star))
    w_b = fit_closed_form(w_prev, Task(X=X[perm], y=(X @ w_star)[perm]))
    np.testing.assert_allclose(w_a, w_b, atol=1e-10)


@pytest.mark.parametrize("seed", [0, 5, 6])
def test_fit_gd_matches_closed_form(seed):
    rng = np.random.default_rng(seed)
    d, n = 12, 4
    w_star = rng.standard_normal(d)
    task = _random_consistent_task(rng, n, d, w_star)
    w_prev = rng.standard_normal(d)
    cfg = GdConfig(learning_rate=None, epochs=100000, convergence_tol=1e-10)
    np.testing.assert_allclose(
        fit_gd(w_prev, task, cfg), fit_closed_form(w_prev, task), atol=1e-4
    )


def _gd_epochs(w0, X, y, lr, epochs):
    """Reference: the per-epoch full-batch loop that fit_gd computes in closed form."""
    w = w0.copy()
    for _ in range(epochs):
        w -= lr * (X.T @ (X @ w - y))
    return w


def _gd_test_systems():
    """(X, y, w0) with n < d, n > d, one row within 1e-7 of another, and that
    near-duplicate row again with a 1e-3 label inconsistency.

    The last one moves along a direction with lr s^2 near 1e-14, where the
    power form 1 - (1 - lr s^2)^K loses its digits: 1.7e-10 relative to the
    loop at K = 3000, against 7.6e-14 for the expm1/log1p form."""
    rng = np.random.default_rng(40)
    d = 8
    w_star = rng.standard_normal(d)
    wide = rng.standard_normal((3, d))
    tall = rng.standard_normal((12, d))
    dependent = np.vstack([wide, wide[0] + 1e-7 * rng.standard_normal(d)])
    systems = [(X, X @ w_star, rng.standard_normal(d)) for X in (wide, tall, dependent)]
    X, y, w0 = systems[-1]
    inconsistent = y.copy()
    inconsistent[-1] += 1e-3
    systems.append((X, inconsistent, w0))
    return systems


def _rate(scale, *Xs):
    # scale / lambda_max over every system the rate must keep stable
    return scale / max(np.linalg.norm(X, 2) ** 2 for X in Xs)


@pytest.mark.parametrize("epochs", [1, 7, 300, 3000])
@pytest.mark.parametrize("scale", [None, 1.9])  # None: fit_gd's auto rate 1/lambda_max
def test_full_batch_gd_matches_epoch_loop(epochs, scale):
    def close(w, ref, w0):
        # relative to the distance the loop moved
        assert np.linalg.norm(w - ref) <= 1e-10 * np.linalg.norm(ref - w0)

    for X, y, w0 in _gd_test_systems():
        lr = _rate(1.0 if scale is None else scale, X)
        cfg = GdConfig(
            learning_rate=None if scale is None else lr,
            epochs=epochs,
            convergence_tol=np.inf,
        )
        close(fit_gd(w0, Task(X=X, y=y), cfg), _gd_epochs(w0, X, y, lr, epochs), w0)

    # replay-augmented sequence: the memory joins the final task's rows
    seq = _two_task_seq(np.random.default_rng(41), d=8)
    mem = select_replay(seq, 1, 2, UniformWithoutReplacement(), np.random.default_rng(5))
    tasks = (seq.tasks[0], augment_with_replay(seq.tasks[1], mem))
    fixed = None if scale is None else _rate(scale, *(t.X for t in tasks))
    cfg = GdConfig(learning_rate=fixed, epochs=epochs, convergence_tol=np.inf)
    state = run_sequence(
        seq,
        replay=(2, UniformWithoutReplacement()),
        solver="gd",
        gd_config=cfg,
        rng=np.random.default_rng(5),
    )
    w = np.zeros(8)
    for task, w_gd in zip(tasks, state.history):
        lr = _rate(1.0, task.X) if fixed is None else fixed
        w_next = _gd_epochs(w, task.X, task.y, lr, epochs)
        close(w_gd, w_next, w)
        w = w_next


def test_full_batch_gd_not_converged_boundary():
    # the residual after exactly K epochs decides; there is no early stop
    X, y, w0 = _gd_test_systems()[0]
    epochs = 7
    reached = np.linalg.norm(X @ _gd_epochs(w0, X, y, _rate(1.0, X), epochs) - y)
    task = Task(X=X, y=y)
    with pytest.raises(NotConverged):
        fit_gd(w0, task, GdConfig(learning_rate=None, epochs=epochs, convergence_tol=0.99 * reached))
    w = fit_gd(w0, task, GdConfig(learning_rate=None, epochs=epochs, convergence_tol=1.01 * reached))
    assert task.residual(w) == pytest.approx(reached, rel=1e-10)


def test_fit_gd_zero_loss_start():
    rng = np.random.default_rng(7)
    w_star = rng.standard_normal(5)
    task = _random_consistent_task(rng, 2, 5, w_star)
    w = fit_gd(w_star, task, GdConfig())
    np.testing.assert_allclose(w, w_star, atol=1e-9)


def test_fit_gd_rejects_unstable_rate():
    task = Task(X=np.eye(3), y=np.zeros(3))
    with pytest.raises(InvalidParameters):
        fit_gd(np.ones(3), task, GdConfig(learning_rate=3.0))


def test_fit_gd_not_converged():
    rng = np.random.default_rng(8)
    task = _random_consistent_task(rng, 3, 8, rng.standard_normal(8))
    with pytest.raises(NotConverged):
        fit_gd(np.zeros(8), task, GdConfig(learning_rate=1e-6, epochs=5))


def test_gd_config_validation():
    with pytest.raises(InvalidParameters):
        GdConfig(epochs=0)
    with pytest.raises(InvalidParameters):
        GdConfig(learning_rate=-0.1)


# ---------------------------------------------------------------- replay


def _two_task_seq(rng, d=6):
    w_star = rng.standard_normal(d)
    t1 = _random_consistent_task(rng, 3, d, w_star)
    t2 = _random_consistent_task(rng, 2, d, w_star)
    return TaskSequence((t1, t2), w_star)


def test_select_replay_uniform():
    rng = np.random.default_rng(0)
    seq = _two_task_seq(rng)
    mem = select_replay(seq, 1, 2, UniformWithoutReplacement(), np.random.default_rng(1))
    assert mem.size == 2
    # each stored (row, label) is one of task 0's pairs, and no pair twice
    first = seq.tasks[0]
    picked = []
    for row, label in zip(mem.rows, mem.labels):
        matches = [
            i
            for i in range(first.n_samples)
            if np.allclose(first.X[i], row, rtol=0.0, atol=1e-15)
            and abs(first.y[i] - label) <= 1e-15
        ]
        assert len(matches) == 1
        picked.append(matches[0])
    assert len(set(picked)) == 2


def test_select_replay_errors():
    rng = np.random.default_rng(0)
    seq = _two_task_seq(rng)
    with pytest.raises(InvalidParameters, match="asked for 4 rows, only 3 available"):
        select_replay(seq, 1, 4, UniformWithoutReplacement(), np.random.default_rng(0))
    with pytest.raises(InvalidParameters):
        select_replay(seq, 1, 2, Fixed(((0, 0),)), np.random.default_rng(0))
    with pytest.raises(InvalidParameters):
        select_replay(seq, 1, 1, Fixed(((1, 0),)), np.random.default_rng(0))
    assert select_replay(seq, 1, 0, UniformWithoutReplacement()).size == 0


def test_augment_with_replay():
    rng = np.random.default_rng(2)
    seq = _two_task_seq(rng)
    mem = select_replay(seq, 1, 2, UniformWithoutReplacement(), np.random.default_rng(3))
    task = augment_with_replay(seq.tasks[1], mem)
    assert task.n_samples == seq.tasks[1].n_samples + 2
    np.testing.assert_allclose(task.X[-2:], mem.rows, atol=1e-15)
    empty = ReplayMemory.empty(6)
    assert augment_with_replay(seq.tasks[1], empty) is seq.tasks[1]
    with pytest.raises(DimensionMismatch):
        augment_with_replay(
            seq.tasks[1], ReplayMemory(rows=np.zeros((1, 5)), labels=np.zeros(1))
        )


def test_run_sequence_histories_and_fixed_point():
    rng = np.random.default_rng(12)
    d = 5
    w_star = rng.standard_normal(d)
    tasks = tuple(_random_consistent_task(rng, 2, d, w_star) for _ in range(3))
    seq = TaskSequence(tasks, w_star)
    state = run_sequence(seq)
    assert len(state.history) == 3
    np.testing.assert_allclose(state.history[-1], state.w, atol=1e-15)
    assert seq.tasks[-1].residual(state.w) <= 1e-9
    # repeating the final task changes nothing: zero-loss fixed point
    again = fit_closed_form(state.w, seq.tasks[-1])
    np.testing.assert_allclose(again, state.w, atol=1e-12)


def test_run_sequence_full_span_replay_recovers_w_star():
    seq, _ = make_worst_case(3, 3)
    # both rows of the mixed task plus the final task span all of R^3
    replay = (2, Fixed(((1, 0), (1, 1))))
    state = run_sequence(seq, replay=replay)
    np.testing.assert_allclose(state.w, seq.w_star, atol=1e-9)
    from continual_replay.metrics import forgetting_train

    assert forgetting_train(seq, state.w) <= 1e-9


def test_run_sequence_solvers_agree_with_replay():
    rng = np.random.default_rng(21)
    seq = _two_task_seq(rng, d=8)
    replay = (1, UniformWithoutReplacement())
    cfg = GdConfig(learning_rate=None, epochs=200000, convergence_tol=1e-11)
    w_closed = run_sequence(seq, replay=replay, rng=np.random.default_rng(5)).w
    w_gd = run_sequence(
        seq, replay=replay, solver="gd", gd_config=cfg, rng=np.random.default_rng(5)
    ).w
    np.testing.assert_allclose(w_gd, w_closed, atol=1e-4)


def test_replay_memory_validation():
    with pytest.raises(DimensionMismatch):
        ReplayMemory(rows=np.zeros((2, 3)), labels=np.zeros(1))
    assert ReplayMemory(rows=np.zeros((1, 3)), labels=np.zeros(1)).size == 1
