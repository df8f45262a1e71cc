import numpy as np
import pytest
import scipy.linalg

from continual_replay.errors import (
    DimensionMismatch,
    InconsistentSystem,
    NonFiniteInput,
)
from continual_replay.linalg_core import (
    Projector,
    Subspace,
    as_vector,
    min_norm_solve,
    op_norm,
    orthonormal_basis,
    principal_angles,
    rank_mask,
)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("d,k,n", [(3, 1, 4), (5, 3, 3), (8, 8, 12), (6, 2, 2)])
def test_orthonormal_basis_spans_rows(seed, d, k, n):
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((n, k)) @ rng.standard_normal((k, d))
    s = orthonormal_basis(rows)
    assert s.rank == min(k, n)
    np.testing.assert_allclose(s.basis.T @ s.basis, np.eye(s.rank), atol=1e-12)
    # every row is reproduced by projection onto the basis
    P = s.basis @ s.basis.T
    np.testing.assert_allclose(rows @ P, rows, atol=1e-10)


def test_orthonormal_basis_zero_rows():
    s = orthonormal_basis(np.zeros((0, 4)))
    assert s.rank == 0 and s.ambient_dim == 4
    s = orthonormal_basis(np.zeros((3, 4)))
    assert s.rank == 0


def test_rank_cut_off_is_relative():
    # an absolute 1e-10 cut-off would keep 5e-8 everywhere below
    assert rank_mask(np.array([1e3, 5e-8])).tolist() == [True, False]
    # a stack gets one cut-off per spectrum, not one for the whole stack
    stacked = np.array([[1e3, 5e-8], [1e-3, 5e-8]])
    assert rank_mask(stacked).tolist() == [[True, False], [True, True]]
    assert rank_mask(np.zeros(0)).size == 0
    X = np.diag([1e3, 5e-8])
    assert orthonormal_basis(X).rank == 1
    np.testing.assert_allclose(min_norm_solve(X, X @ np.ones(2)), [1.0, 0.0])


@pytest.mark.parametrize(
    "cls,arg,exc,message",
    [
        (Projector, np.ones((2, 3)), DimensionMismatch, "projector must be square, got (2, 3)"),
        (Projector, [[1.0, 1.0], [0.0, 0.0]], DimensionMismatch, "projector is not symmetric"),
        (Projector, [[0.5, 0.0], [0.0, 1.0]], DimensionMismatch, "projector is not idempotent"),
        (Projector, [[np.nan, 0.0], [0.0, 1.0]], NonFiniteInput, "projector contains NaN or Inf"),
        (Projector, np.ones(3), DimensionMismatch, "projector must be 2-D, got shape (3,)"),
        (Subspace, [[1.0], [np.nan]], NonFiniteInput, "basis contains NaN or Inf"),
        (Subspace, np.eye(2, 3), DimensionMismatch, "rank 3 outside [0, 2]"),
        (
            Subspace,
            [[1.0, 1.0], [0.0, 1.0]],
            DimensionMismatch,
            "basis columns are not orthonormal",
        ),
    ],
    ids=[
        "projector-non-square",
        "projector-non-symmetric",
        "projector-non-idempotent",
        "projector-nan",
        "projector-1d",
        "subspace-nan",
        "subspace-k-above-d",
        "subspace-non-orthonormal",
    ],
)
def test_validation_rejects(cls, arg, exc, message):
    with pytest.raises(exc) as info:
        cls(arg)
    assert str(info.value) == message


@pytest.mark.parametrize("seed", [10, 11, 12])
def test_projector_properties(seed):
    rng = np.random.default_rng(seed)
    s = orthonormal_basis(rng.standard_normal((3, 7)))
    onto = Projector(s.basis @ s.basis.T)
    null = Projector(np.eye(7) - onto.matrix)
    for proj in (onto, null):
        m = proj.matrix
        np.testing.assert_allclose(m, m.T, atol=1e-12)
        np.testing.assert_allclose(m @ m, m, atol=1e-12)
    total = onto.matrix + null.matrix
    np.testing.assert_allclose(total, np.eye(7), atol=1e-12)
    assert onto.ambient_dim == 7 and s.ambient_dim == 7 and s.rank == 3


def test_principal_angles_known_plane():
    s1 = Subspace(np.eye(3)[:, :1])
    theta = 0.3
    v = np.array([np.cos(theta), np.sin(theta), 0.0])
    s2 = Subspace(v[:, None])
    np.testing.assert_allclose(principal_angles(s1, s2), [theta], atol=1e-12)
    # symmetric in the argument order
    np.testing.assert_allclose(
        principal_angles(s1, s2), principal_angles(s2, s1), atol=1e-15
    )


def test_principal_angles_same_and_orthogonal():
    s1 = Subspace(np.eye(4)[:, :2])
    np.testing.assert_allclose(principal_angles(s1, s1), [0.0, 0.0], atol=1e-15)
    s2 = Subspace(np.eye(4)[:, 2:])
    np.testing.assert_allclose(
        principal_angles(s1, s2), [np.pi / 2, np.pi / 2], atol=1e-12
    )


@pytest.mark.parametrize("theta", [1e-12, 1e-9, 1e-6, 0.3, np.pi / 2])
def test_principal_angles_match_scipy(theta):
    # exact bases: angles {0, theta} between span{e1, e2} and a rank-3 span
    # holding e2, e4 and cos(theta) e1 + sin(theta) e3; arccos of the
    # cosines alone returns 0 for theta = 1e-12 and 1e-9
    a = Subspace(np.eye(5)[:, :2])
    v = np.zeros(5)
    v[0], v[2] = np.cos(theta), np.sin(theta)
    b = Subspace(np.column_stack([v, np.eye(5)[:, 1], np.eye(5)[:, 3]]))
    expect = np.sort(scipy.linalg.subspace_angles(a.basis, b.basis))
    np.testing.assert_allclose(expect, [0.0, theta], rtol=1e-12, atol=0.0)
    for got in (principal_angles(a, b), principal_angles(b, a)):
        np.testing.assert_allclose(got, expect, rtol=1e-12, atol=0.0)
    # a random rotation of both keeps the angles to rounding
    q, _ = np.linalg.qr(np.random.default_rng(4).standard_normal((5, 5)))
    rotated = principal_angles(Subspace(q @ a.basis), Subspace(q @ b.basis))
    np.testing.assert_allclose(rotated, expect, atol=1e-14)


def test_principal_angles_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        principal_angles(Subspace(np.eye(3)[:, :1]), Subspace(np.eye(4)[:, :1]))


def test_op_norm():
    assert op_norm(np.zeros((0, 3))) == 0.0
    np.testing.assert_allclose(op_norm(np.diag([3.0, -5.0])), 5.0, atol=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_min_norm_solve_optimality(seed):
    rng = np.random.default_rng(seed)
    d, n = 8, 3
    X = rng.standard_normal((n, d))
    y = X @ rng.standard_normal(d)
    w = min_norm_solve(X, y)
    np.testing.assert_allclose(X @ w, y, atol=1e-9)
    # minimality: the solution carries no null-space component
    s = orthonormal_basis(X)
    np.testing.assert_allclose(s.basis @ (s.basis.T @ w), w, atol=1e-9)
    np.testing.assert_allclose(w, np.linalg.pinv(X) @ y, atol=1e-9)


def test_min_norm_solve_inconsistent():
    X = np.array([[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(InconsistentSystem):
        min_norm_solve(X, np.array([1.0, 2.0]))


def test_min_norm_solve_zero_labels_ok():
    # labels that are zero up to rounding must not be rejected
    X = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    w = min_norm_solve(X, np.array([1e-17, -1e-17]))
    assert np.linalg.norm(w) < 1e-10


def test_min_norm_solve_empty():
    np.testing.assert_allclose(min_norm_solve(np.zeros((0, 5)), np.zeros(0)), np.zeros(5))


def test_as_vector_rejects_non_finite():
    with pytest.raises(NonFiniteInput):
        as_vector(np.array([1.0, np.nan]), "v")
