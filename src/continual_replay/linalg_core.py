"""Dense subspace and projector algebra.

Everything downstream is built from the primitives here: SVD-based
orthonormalization, principal angles, operator norms, and minimum-norm
linear solves. Vectors and matrices are plain
float64 numpy arrays; Subspace and Projector are thin immutable wrappers
that validate their defining invariants on construction.

Every rank decision uses one fixed relative cut-off, ``rank_mask``:
singular values at or below ``DEFAULT_TOL * sigma_max`` (1e-10 of the
largest) count as zero. The pseudoinverse uses the identical SVD and
cut-off, so bases and min-norm solutions always agree on rank.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InconsistentSystem, NonFiniteInput

# Relative singular-value cutoff shared by every rank decision in the package.
DEFAULT_TOL = 1e-10

# How far a numerically constructed projector may drift from exact symmetry /
# idempotency before we refuse to treat it as one.
PROJECTOR_TOL = 1e-10
EIGENVALUE_TOL = 1e-8


def _as_finite(x, ndim: int, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim != ndim:
        raise DimensionMismatch(f"{name} must be {ndim}-D, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise NonFiniteInput(f"{name} contains NaN or Inf")
    return arr


def as_vector(v, name: str = "vector") -> np.ndarray:
    """Coerce to a finite 1-D float64 array.

    Raises:
        NonFiniteInput: if any entry is NaN or Inf.
        DimensionMismatch: if the input is not 1-D.
    """
    return _as_finite(v, 1, name)


def as_matrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2-D float64 array.

    Raises:
        NonFiniteInput: if any entry is NaN or Inf.
        DimensionMismatch: if the input is not 2-D.
    """
    return _as_finite(m, 2, name)


def _frozen(arr: np.ndarray) -> np.ndarray:
    """Return a read-only copy so dataclass instances stay immutable."""
    out = np.array(arr, dtype=float, copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class Subspace:
    """A k-dimensional subspace of R^d held as an orthonormal basis.

    Attributes:
        basis: d x k matrix whose columns are orthonormal, 0 <= k <= d.
    """

    basis: np.ndarray

    def __post_init__(self):
        basis = as_matrix(self.basis, "basis")
        d, k = basis.shape
        object.__setattr__(self, "basis", _frozen(basis))
        if k > d:
            raise DimensionMismatch(f"rank {k} outside [0, {d}]")
        gram = basis.T @ basis
        if k and np.abs(gram - np.eye(k)).max() > PROJECTOR_TOL:
            raise DimensionMismatch("basis columns are not orthonormal")

    @property
    def ambient_dim(self) -> int:
        """d, the number of basis rows."""
        return self.basis.shape[0]

    @property
    def rank(self) -> int:
        """k, the number of basis columns."""
        return self.basis.shape[1]


@dataclass(frozen=True)
class Projector:
    """An orthogonal projector: a symmetric idempotent d x d matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = as_matrix(self.matrix, "projector")
        if mat.shape[0] != mat.shape[1]:
            raise DimensionMismatch(f"projector must be square, got {mat.shape}")
        object.__setattr__(self, "matrix", _frozen(mat))
        if np.abs(mat - mat.T).max() > PROJECTOR_TOL:
            raise DimensionMismatch("projector is not symmetric")
        if np.abs(mat @ mat - mat).max() > PROJECTOR_TOL:
            raise DimensionMismatch("projector is not idempotent")
        eigs = np.linalg.eigvalsh(mat)
        if np.minimum(np.abs(eigs), np.abs(eigs - 1.0)).max() > EIGENVALUE_TOL:
            raise DimensionMismatch("projector eigenvalues are not in {0, 1}")

    @property
    def ambient_dim(self) -> int:
        return self.matrix.shape[0]


def rank_mask(svals: np.ndarray) -> np.ndarray:
    """Which singular values count as nonzero: above ``DEFAULT_TOL`` times the largest.

    ``svals`` is sorted descending along its last axis, as ``np.linalg.svd``
    returns it; a stack of spectra gets one relative cut-off per spectrum.
    """
    return svals > DEFAULT_TOL * svals[..., :1]


def orthonormal_basis(rows) -> Subspace:
    """Orthonormal basis for the row span of ``rows``.

    Args:
        rows: n x d matrix; its row span defines the subspace.

    Returns:
        Subspace of R^d with rank equal to the numerical rank of ``rows``
        (``rank_mask``).
    """
    mat = as_matrix(rows, "rows")
    d = mat.shape[1]
    if mat.shape[0] == 0:
        return Subspace(np.zeros((d, 0)))
    _, s, vh = np.linalg.svd(mat, full_matrices=False)
    rank = int(np.sum(rank_mask(s)))
    return Subspace(vh[:rank].T)


def principal_angles(a: Subspace, b: Subspace) -> np.ndarray:
    """Principal angles between two subspaces, in radians, ascending.

    The sine/cosine split (Bjorck & Golub 1973; Knyazev & Argentati 2002):
    with rank a >= rank b, the cosines are the singular values of
    W_a^T W_b and the sines those of (I - W_a W_a^T) W_b. An angle below
    pi/4 is the arcsin of its sine, any other the arccos of its cosine, so
    neither end loses digits (arccos alone returns 0 below about 1e-8).
    The result has min(rank a, rank b) entries, all in [0, pi/2].

    Raises:
        DimensionMismatch: if the ambient dimensions differ.
    """
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch(
            f"ambient dims differ: {a.ambient_dim} vs {b.ambient_dim}"
        )
    if a.rank < b.rank:
        a, b = b, a
    if b.rank == 0:
        return np.zeros(0)
    cross = a.basis.T @ b.basis
    # Both come out descending: cosines pair with the ascending angles,
    # sines with the descending ones.
    cosines = np.clip(np.linalg.svd(cross, compute_uv=False), 0.0, 1.0)
    sines = np.linalg.svd(b.basis - a.basis @ cross, compute_uv=False)
    sines = np.clip(sines[::-1], 0.0, 1.0)
    return np.where(sines * sines < 0.5, np.arcsin(sines), np.arccos(cosines))


def op_norm(m) -> float:
    """Largest singular value (spectral norm); 0 for an empty matrix."""
    mat = as_matrix(m, "matrix")
    if mat.size == 0:
        return 0.0
    return float(np.linalg.svd(mat, compute_uv=False)[0])


def min_norm_solve(X, y) -> np.ndarray:
    """Minimum-Euclidean-norm solution of the consistent system X w = y.

    Returns X^+ y computed through the shared SVD rank threshold; the
    result lies in the row span of X.

    Raises:
        InconsistentSystem: if ||X X^+ y - y|| > 1e-8 * ||y||, i.e. the
            system has no exact solution (a realizability violation). An
            absolute floor of 1e-12 * sigma_max(X) keeps labels that are
            zero up to rounding from being rejected.
    """
    mat = as_matrix(X, "X")
    rhs = as_vector(y, "y")
    if mat.shape[0] != rhs.shape[0]:
        raise DimensionMismatch(
            f"X has {mat.shape[0]} rows but y has {rhs.shape[0]} entries"
        )
    d = mat.shape[1]
    if mat.shape[0] == 0:
        return np.zeros(d)
    u, s, vh = np.linalg.svd(mat, full_matrices=False)
    rank = int(np.sum(rank_mask(s)))
    coeffs = u[:, :rank].T @ rhs / s[:rank] if rank else np.zeros(0)
    w = vh[:rank].T @ coeffs
    residual = np.linalg.norm(mat @ w - rhs)
    floor = 1e-12 * (float(s[0]) if s.size else 0.0)
    if residual > max(1e-8 * float(np.linalg.norm(rhs)), floor):
        raise InconsistentSystem(
            f"||Xw - y|| = {residual:.3e} exceeds consistency tolerance"
        )
    return w
