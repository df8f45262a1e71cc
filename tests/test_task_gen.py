import math

import numpy as np
import pytest

from continual_replay.errors import InconsistentSystem, InvalidParameters, RankDeficiency
from continual_replay.linalg_core import orthonormal_basis, principal_angles
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


# ------------------------------------------------------------ worst case


@pytest.mark.parametrize("T,d", [(2, 3), (3, 3), (10, 3), (5, 6)])
def test_worst_case_structure(T, d):
    seq = make_worst_case(T, d)
    assert len(seq) == T
    assert seq.ambient_dim == d
    for task in seq.tasks:
        np.testing.assert_allclose(
            np.linalg.norm(task.X, axis=1), np.ones(task.n_samples), atol=1e-12
        )
        assert task.residual(seq.w_star) <= 1e-9
    # the mixed task holds the repeated row x1 and the replay sample x2
    x1, x2 = seq.tasks[T - 2].X
    want_x2 = np.zeros(d)
    want_x2[:3] = (1.0 / (2.0 * math.sqrt(2.0)),) * 2 + (math.sqrt(3.0) / 2.0,)
    np.testing.assert_allclose(x2, want_x2, atol=1e-15)
    # the repeated row shows up in every early task and the mixed one
    for t in range(T - 2):
        assert any(
            np.allclose(row, x1, atol=1e-12) for row in seq.tasks[t].X
        ), f"task {t} lost the repeated row"
    # fixed inner products of the construction
    np.testing.assert_allclose(abs(x1 @ x2), 1.0 / (2.0 * math.sqrt(2.0)), atol=1e-12)
    x3 = seq.tasks[T - 1].X[0]
    np.testing.assert_allclose(x1 @ x3, 0.0, atol=1e-12)


def test_worst_case_errors():
    with pytest.raises(InvalidParameters, match="needs d >= 3"):
        make_worst_case(3, 2)
    with pytest.raises(InvalidParameters, match="needs T >= 2"):
        make_worst_case(1, 3)


@pytest.mark.parametrize("T,d", [(2, 3), (5, 3), (5, 6)])
def test_worst_case_is_written_from_identity_rows(T, d):
    seq = make_worst_case(T, d)
    eye = np.eye(d)
    # tasks 1..T-2 hold x1 and the filler v4 (x1 alone at d = 3)
    for task in seq.tasks[: T - 2]:
        assert np.array_equal(task.X, eye[[0, 3]] if d > 3 else eye[[0]])
    assert np.array_equal(seq.tasks[-1].X, eye[[2, *range(3, d)]])
    # the construction draws nothing, so two builds agree bit for bit
    again = make_worst_case(T, d)
    assert np.array_equal(seq.w_star, again.w_star)
    for task, twin in zip(seq.tasks, again.tasks, strict=True):
        assert np.array_equal(task.X, twin.X) and np.array_equal(task.y, twin.y)


def test_worst_case_final_task_spans_complement():
    seq = make_worst_case(4, 6)
    last = seq.tasks[-1]
    assert last.n_samples == 6 - 2
    s = orthonormal_basis(last.X)
    assert s.rank == 4


# ------------------------------------------------------------ average case


def test_avg_case_3d_geometry():
    s1, s2, p1 = make_avg_case_3d()
    assert s1.rank == 2 and s2.rank == 1 and s1.ambient_dim == 3
    np.testing.assert_allclose(np.linalg.norm(p1), 1.0, atol=1e-12)
    np.testing.assert_allclose(s1.basis.T @ p1, np.zeros(2), atol=1e-12)
    # the span projector and the p1 line resolve the identity
    total = s1.basis @ s1.basis.T + np.outer(p1, p1)
    np.testing.assert_allclose(total, np.eye(3), atol=1e-12)
    # w* = p1, so its alignment a = p1 . w* is 1
    assert p1 @ p1 == pytest.approx(1.0)
    assert EPSILON_3D == pytest.approx(math.sqrt(1.0 / 63.0))


def test_avg_case_3d_is_the_two_task_case_at_d3():
    # the basis [v1, u] with u = eps v2 + sqrt(1 - eps^2) v3, to the bit
    eps = EPSILON_3D
    eye = np.eye(3)
    u = eps * eye[:, 1] + math.sqrt(1.0 - eps**2) * eye[:, 2]
    s1, s2, w_star = make_avg_case_3d(eps)
    assert np.array_equal(s1.basis, np.column_stack([eye[:, 0], u]))
    assert np.array_equal(s2.basis, eye[:, 2:])
    assert np.array_equal(w_star, math.sqrt(1.0 - eps**2) * eye[:, 1] - eps * eye[:, 2])


def test_avg_case_highdim_geometry():
    d, eps = 20, 0.4
    s1, s2, u_perp = make_avg_case_highdim(d, eps)
    assert s1.rank == d - 1 and s2.rank == 1
    np.testing.assert_allclose(np.linalg.norm(u_perp), 1.0, atol=1e-12)
    np.testing.assert_allclose(s1.basis.T @ u_perp, np.zeros(d - 1), atol=1e-10)
    assert u_perp @ u_perp == pytest.approx(1.0)


@pytest.mark.parametrize("d", [20, 152])
def test_avg_case_highdim_span_unchanged(d):
    # the earlier basis [u, v1, v3, ..., v_{d-1}] spans the same task 1
    eps = 0.4
    comp = math.sqrt(1.0 - eps**2)
    eye = np.eye(d)
    u = eps * eye[:, 1] + comp * eye[:, d - 1]
    old = np.column_stack([u, eye[:, 0], eye[:, 2 : d - 1]])
    s1, s2, w_star = make_avg_case_highdim(d, eps)
    gap = np.max(np.abs(s1.basis @ s1.basis.T - old @ old.T))
    assert gap <= 1e-15
    assert np.array_equal(s2.basis, eye[:, d - 1 :])
    assert np.array_equal(w_star, comp * eye[:, 1] - eps * eye[:, d - 1])


def test_avg_case_highdim_errors():
    with pytest.raises(InvalidParameters, match="needs d >= 3"):
        make_avg_case_highdim(2, 0.4)
    for eps in (0.0, 1.0, -0.2, 1.5, math.nan):
        with pytest.raises(InvalidParameters, match=r"epsilon must be in \(0, 1\)"):
            make_avg_case_highdim(20, eps)
    # Thm 3.3's eps < 1/2 is the command's regime check, not the builder's
    assert make_avg_case_highdim(20, 0.6)[0].rank == 19


# -------------------------------------------------------------- sampling


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sample_task_shapes_and_rank(seed):
    rng = np.random.default_rng(seed)
    s = orthonormal_basis(rng.standard_normal((3, 7)))
    w_star = rng.standard_normal(7)
    task = sample_task(s, 5, w_star, rng)
    assert task.X.shape == (5, 7)
    assert orthonormal_basis(task.X).rank == 3
    assert task.residual(w_star) <= 1e-9


def test_sample_task_too_few():
    s = orthonormal_basis(np.eye(4)[:3])
    with pytest.raises(InvalidParameters, match="need at least 3 samples"):
        sample_task(s, 2, np.zeros(4), np.random.default_rng(0))


class _ScriptedDraws:
    """A generator stand-in whose standard normal draws are given in order."""

    def __init__(self, *draws):
        self.draws = list(draws)

    def standard_normal(self, shape):
        z = self.draws.pop(0)
        assert z.shape == shape
        return z


def _rank_one_draw(n, k):
    return np.outer(np.arange(1.0, n + 1), np.ones(k))


def test_sample_task_redraws_a_rank_deficient_draw():
    s = orthonormal_basis(np.random.default_rng(3).standard_normal((2, 5)))
    w_star = np.arange(5.0)
    full = np.random.default_rng(4).standard_normal((3, 2))
    rng = _ScriptedDraws(_rank_one_draw(3, 2), full)
    task = sample_task(s, 3, w_star, rng)
    assert rng.draws == []
    np.testing.assert_array_equal(task.X, (full * (1.0 / math.sqrt(2))) @ s.basis.T)
    np.testing.assert_array_equal(task.y, task.X @ w_star)


def test_sample_task_gives_up_after_one_redraw():
    s = orthonormal_basis(np.random.default_rng(3).standard_normal((2, 5)))
    rng = _ScriptedDraws(_rank_one_draw(3, 2), _rank_one_draw(3, 2))
    with pytest.raises(RankDeficiency, match="rank 1 < 2 after a re-draw"):
        sample_task(s, 3, np.zeros(5), rng)
    assert rng.draws == []


def test_sample_task_second_moment_matches_projector():
    # the law scales rows by 1/sqrt(k), so k rows have unit expected gram:
    # E[X^T X] = (n/k) * Pi
    rng = np.random.default_rng(5)
    s = orthonormal_basis(rng.standard_normal((3, 6)))
    X = sample_task(s, 100000, rng.standard_normal(6), rng).X
    second_moment = X.T @ X * (s.rank / X.shape[0])
    P = s.basis @ s.basis.T
    assert np.linalg.norm(second_moment - P, ord=2) < 0.02


# ------------------------------------------------------------ angle pairs


@pytest.mark.parametrize("theta", [0.0, 0.3, np.pi / 4, np.pi / 2, 1e-9])
def test_make_angle_pair(theta):
    s1, s2 = make_angle_pair(theta, 4)
    assert s1.rank == s2.rank == 3
    angles = principal_angles(s1, s2)
    np.testing.assert_allclose(angles[-1], theta, atol=1e-15)
    np.testing.assert_allclose(angles[:-1], np.zeros(2), atol=1e-15)


def test_make_angle_pair_errors():
    with pytest.raises(InvalidParameters, match="theta must be in"):
        make_angle_pair(-0.1, 4)
    with pytest.raises(InvalidParameters, match="theta must be in"):
        make_angle_pair(2.0, 4)
    with pytest.raises(InvalidParameters, match="needs d >= 2"):
        make_angle_pair(0.5, 1)


# -------------------------------------------------------- sequences, specs


def test_task_sequence_validation():
    X = np.eye(3)[:1]
    w_star = np.array([2.0, 0.0, 0.0])
    seq = TaskSequence((Task(X=X, y=X @ w_star),), w_star)
    assert len(seq) == 1
    with pytest.raises(InconsistentSystem):
        TaskSequence((Task(X=X, y=np.array([5.0])),), w_star)

