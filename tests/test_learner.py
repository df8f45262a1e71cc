import numpy as np
import pytest

from continual_replay.errors import (
    DimensionMismatch,
    InconsistentSystem,
    InvalidParameters,
    NotConverged,
)
from continual_replay.learner import (
    GD_TOL,
    augment_with_replay,
    fit_closed_form,
    fit_gd,
    run_sequence,
    select_replay,
)
from continual_replay.linalg_core import orthonormal_basis
from continual_replay.task_gen import Task, TaskSequence, make_worst_case


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
    np.testing.assert_allclose(fit_gd(w_prev, task), fit_closed_form(w_prev, task), atol=1e-4)


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


def _rate(X):
    # fit_gd's step, 1 / lambda_max(X^T X)
    return 1.0 / np.linalg.norm(X, 2) ** 2


# The K-step iterate, and so its residual, is linear in (y, w0). A few epochs
# can leave a residual far above GD_TOL, so these tests scale (y, w0) down by
# lam to bring it under the tolerance, or just past it.


def _under_tol(reached):
    # the factor that takes a residual to half of GD_TOL, or 1 if it is below
    return 0.5 * GD_TOL / max(reached, 0.5 * GD_TOL)


@pytest.mark.parametrize("epochs", [1, 7, 300, 3000])
def test_full_batch_gd_matches_epoch_loop(epochs):
    def close(w, ref, w0):
        # relative to the distance the loop moved
        assert np.linalg.norm(w - ref) <= 1e-10 * np.linalg.norm(ref - w0)

    for X, y, w0 in _gd_test_systems():
        ref = _gd_epochs(w0, X, y, _rate(X), epochs)
        lam = _under_tol(np.linalg.norm(X @ ref - y))
        close(fit_gd(lam * w0, Task(X=X, y=lam * y), epochs=epochs), lam * ref, lam * w0)

    # replay-augmented sequence: the memory joins the final task's rows
    seq = _two_task_seq(np.random.default_rng(41), d=8)
    replayed = augment_with_replay(seq, select_replay(seq, 2, np.random.default_rng(5)))
    w = w_prev = np.zeros(8)
    reached = 0.0
    for task in replayed.tasks:
        w_prev, w = w, _gd_epochs(w, task.X, task.y, _rate(task.X), epochs)
        reached = max(reached, task.residual(w))
    lam = _under_tol(reached)
    w_gd = np.zeros(8)
    for task in replayed.tasks:
        w_gd = fit_gd(w_gd, Task(X=task.X, y=lam * task.y), epochs=epochs)
    close(w_gd, lam * w, lam * w_prev)


def test_full_batch_gd_not_converged_boundary():
    # the residual after exactly K epochs decides; there is no early stop
    X, y, w0 = _gd_test_systems()[0]
    epochs = 7
    reached = np.linalg.norm(X @ _gd_epochs(w0, X, y, _rate(X), epochs) - y)
    lam = 1.01 * GD_TOL / reached
    with pytest.raises(NotConverged):
        fit_gd(lam * w0, Task(X=X, y=lam * y), epochs=epochs)
    lam = 0.99 * GD_TOL / reached
    task = Task(X=X, y=lam * y)
    w = fit_gd(lam * w0, task, epochs=epochs)
    assert task.residual(w) == pytest.approx(lam * reached, rel=1e-10)


def test_fit_gd_zero_loss_start():
    rng = np.random.default_rng(7)
    w_star = rng.standard_normal(5)
    task = _random_consistent_task(rng, 2, 5, w_star)
    w = fit_gd(w_star, task)
    np.testing.assert_allclose(w, w_star, atol=1e-9)


def test_fit_gd_not_converged():
    # condition number 1e3: one epoch at 1/lambda_max moves the weak
    # direction by lr s^2 = 1e-6 of its residual
    task = Task(X=np.diag([1.0, 1e-3, 0.5]), y=np.ones(3))
    with pytest.raises(NotConverged):
        fit_gd(np.zeros(3), task, epochs=1)


# ---------------------------------------------------------------- replay


def _two_task_seq(rng, d=6):
    w_star = rng.standard_normal(d)
    t1 = _random_consistent_task(rng, 3, d, w_star)
    t2 = _random_consistent_task(rng, 2, d, w_star)
    return TaskSequence((t1, t2), w_star)


def test_select_replay_uniform():
    rng = np.random.default_rng(0)
    w_star = rng.standard_normal(6)
    tasks = tuple(_random_consistent_task(rng, n, 6, w_star) for n in (3, 2, 2))
    seq = TaskSequence(tasks, w_star)
    mem = select_replay(seq, 4, np.random.default_rng(1))
    assert mem.n_samples == 4
    # rows of every task before the last, task by task, drawn by one
    # rng.choice over that pool: the draws the replay runs have always used
    pool_X = np.vstack([t.X for t in tasks[:-1]])
    pool_y = np.concatenate([t.y for t in tasks[:-1]])
    chosen = np.random.default_rng(1).choice(5, size=4, replace=False)
    np.testing.assert_array_equal(mem.X, pool_X[chosen])
    np.testing.assert_array_equal(mem.y, pool_y[chosen])
    assert len({tuple(row) for row in mem.X}) == 4  # distinct rows


def test_select_replay_errors():
    rng = np.random.default_rng(0)
    seq = _two_task_seq(rng)
    with pytest.raises(InvalidParameters, match="asked for 4 rows, only 3 available"):
        select_replay(seq, 4, np.random.default_rng(0))
    with pytest.raises(InvalidParameters, match="m must be >= 0"):
        select_replay(seq, -1, np.random.default_rng(0))
    # an empty memory consumes nothing from the generator
    gen = np.random.default_rng(0)
    before = gen.bit_generator.state
    empty = select_replay(seq, 0, gen)
    assert (empty.n_samples, empty.ambient_dim) == (0, 6)
    assert gen.bit_generator.state == before


def test_augment_with_replay():
    rng = np.random.default_rng(2)
    seq = _two_task_seq(rng)
    mem = select_replay(seq, 2, np.random.default_rng(3))
    replayed = augment_with_replay(seq, mem)
    assert replayed.tasks[0] is seq.tasks[0]
    final = replayed.tasks[-1]
    assert final.n_samples == seq.tasks[1].n_samples + 2
    np.testing.assert_array_equal(final.X, np.vstack([seq.tasks[1].X, mem.X]))
    np.testing.assert_array_equal(final.y, np.concatenate([seq.tasks[1].y, mem.y]))
    empty = select_replay(seq, 0, np.random.default_rng(3))
    assert augment_with_replay(seq, empty) is seq
    with pytest.raises(DimensionMismatch):
        augment_with_replay(seq, Task(X=np.zeros((1, 5)), y=np.zeros(1)))
    # the augmented sequence keeps w* as its realizability witness
    first = seq.tasks[0]
    with pytest.raises(InconsistentSystem):
        augment_with_replay(seq, Task(X=first.X[:1], y=first.y[:1] + 1.0))


def test_run_sequence_histories_and_fixed_point():
    rng = np.random.default_rng(12)
    d = 5
    w_star = rng.standard_normal(d)
    tasks = tuple(_random_consistent_task(rng, 2, d, w_star) for _ in range(3))
    seq = TaskSequence(tasks, w_star)
    w = run_sequence(seq)
    # the runner walks the same trajectory as fitting the tasks one by one
    w_step = np.zeros(d)
    for task in tasks:
        w_step = fit_closed_form(w_step, task)
    np.testing.assert_array_equal(w, w_step)
    assert seq.tasks[-1].residual(w) <= 1e-9
    # repeating the final task changes nothing: zero-loss fixed point
    again = fit_closed_form(w, seq.tasks[-1])
    np.testing.assert_allclose(again, w, atol=1e-12)
    with pytest.raises(InvalidParameters, match="unknown solver"):
        run_sequence(seq, "sgd")


def test_run_sequence_full_span_replay_recovers_w_star():
    seq = make_worst_case(3, 3)
    # both rows of the mixed task plus the final task span all of R^3
    mixed = seq.tasks[1]
    w = run_sequence(augment_with_replay(seq, Task(X=mixed.X, y=mixed.y)))
    np.testing.assert_allclose(w, seq.w_star, atol=1e-9)
    from continual_replay.metrics import forgetting_train

    assert forgetting_train(seq, w) <= 1e-9


def test_run_sequence_solvers_agree_with_replay():
    rng = np.random.default_rng(21)
    seq = _two_task_seq(rng, d=8)
    replayed = augment_with_replay(seq, select_replay(seq, 1, np.random.default_rng(5)))
    np.testing.assert_allclose(run_sequence(replayed, "gd"), run_sequence(replayed), atol=1e-4)


def test_replay_memory_validation():
    # a memory is a Task, so Task's row/label check covers it
    with pytest.raises(DimensionMismatch):
        Task(X=np.zeros((2, 3)), y=np.zeros(1))
    assert Task(X=np.zeros((1, 3)), y=np.zeros(1)).n_samples == 1
