import math

import numpy as np
import pytest

from continual_replay.errors import (
    InconsistentSystem,
    InvalidAngle,
    InvalidDimension,
    InvalidEpsilon,
    InvalidParameters,
    TooFewSamples,
)
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
    seq, (x2, y2) = make_worst_case(T, d)
    assert len(seq) == T
    assert seq.ambient_dim == d
    for task in seq.tasks:
        np.testing.assert_allclose(
            np.linalg.norm(task.X, axis=1), np.ones(task.n_samples), atol=1e-12
        )
        assert task.residual(seq.w_star) <= 1e-9
    # the replay sample is the second row of the mixed task
    np.testing.assert_allclose(seq.tasks[T - 2].X[1], x2, atol=1e-15)
    np.testing.assert_allclose(x2 @ seq.w_star, y2, atol=1e-12)
    # the repeated row shows up in every early task and the mixed one
    x1 = seq.tasks[T - 2].X[0]
    for t in range(T - 2):
        assert any(
            np.allclose(row, x1, atol=1e-12) for row in seq.tasks[t].X
        ), f"task {t} lost the repeated row"
    # fixed inner products of the construction
    np.testing.assert_allclose(abs(x1 @ x2), 1.0 / (2.0 * math.sqrt(2.0)), atol=1e-12)
    x3 = seq.tasks[T - 1].X[0]
    np.testing.assert_allclose(x1 @ x3, 0.0, atol=1e-12)


def test_worst_case_errors():
    with pytest.raises(InvalidDimension):
        make_worst_case(3, 2)
    with pytest.raises(InvalidParameters):
        make_worst_case(1, 3)


def test_worst_case_final_task_spans_complement():
    seq, _ = make_worst_case(4, 6)
    last = seq.tasks[-1]
    assert last.n_samples == 6 - 2
    s = orthonormal_basis(last.X)
    assert s.rank == 4


# ------------------------------------------------------------ average case


def test_avg_case_3d_geometry():
    s1, s2, info = make_avg_case_3d()
    assert s1.rank == 2 and s2.rank == 1 and s1.ambient_dim == 3
    p1 = info["p1"]
    np.testing.assert_allclose(np.linalg.norm(p1), 1.0, atol=1e-12)
    np.testing.assert_allclose(s1.basis.T @ p1, np.zeros(2), atol=1e-12)
    # the span projector and the p1 line resolve the identity
    total = s1.basis @ s1.basis.T + np.outer(p1, p1)
    np.testing.assert_allclose(total, np.eye(3), atol=1e-12)
    assert info["a"] == pytest.approx(1.0)
    assert EPSILON_3D == pytest.approx(math.sqrt(1.0 / 63.0))


def test_avg_case_highdim_geometry():
    d, eps = 20, 0.4
    s1, s2, info = make_avg_case_highdim(d, eps)
    assert s1.rank == d - 1 and s2.rank == 1
    u_perp = info["u_perp"]
    np.testing.assert_allclose(np.linalg.norm(u_perp), 1.0, atol=1e-12)
    np.testing.assert_allclose(s1.basis.T @ u_perp, np.zeros(d - 1), atol=1e-10)
    assert info["a"] == pytest.approx(1.0)


def test_avg_case_highdim_errors():
    with pytest.raises(InvalidEpsilon):
        make_avg_case_highdim(20, 0.5)
    with pytest.raises(InvalidEpsilon):
        make_avg_case_highdim(20, 0.0)
    with pytest.raises(InvalidDimension):
        make_avg_case_highdim(3, 0.4)


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
    with pytest.raises(TooFewSamples):
        sample_task(s, 2, np.zeros(4), np.random.default_rng(0))


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


@pytest.mark.parametrize("theta", [0.0, 0.3, np.pi / 4, np.pi / 2])
def test_make_angle_pair(theta):
    s1, s2 = make_angle_pair(theta, 4)
    assert s1.rank == s2.rank == 3
    angles = principal_angles(s1, s2)
    np.testing.assert_allclose(angles[-1], theta, atol=1e-7)
    np.testing.assert_allclose(angles[:-1], np.zeros(2), atol=1e-7)


def test_make_angle_pair_errors():
    with pytest.raises(InvalidAngle):
        make_angle_pair(-0.1, 4)
    with pytest.raises(InvalidAngle):
        make_angle_pair(2.0, 4)
    with pytest.raises(InvalidDimension):
        make_angle_pair(0.5, 1)


# -------------------------------------------------------- sequences, specs


def test_task_sequence_validation():
    X = np.eye(3)[:1]
    w_star = np.array([2.0, 0.0, 0.0])
    seq = TaskSequence((Task(X=X, y=X @ w_star),), w_star)
    assert len(seq) == 1
    with pytest.raises(InconsistentSystem):
        TaskSequence((Task(X=X, y=np.array([5.0])),), w_star)

