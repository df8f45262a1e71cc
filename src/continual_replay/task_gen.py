"""Task sequence constructions.

Builds every sequence the experiments use: the three-vector worst case
whose forgetting is catastrophic, the 3D and high-dimensional two-task
average cases where replaying a sample hurts in expectation, generic
Gaussian-subspace tasks, and angle-parameterized pairs whose null spaces
meet at a prescribed angle.

All constructions share one realizability contract: every task satisfies
X_t w* = y_t for a single target vector w*, and every generated sample row
in the worst case has unit norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConsistencyFailure,
    DegenerateWStar,
    DimensionMismatch,
    InconsistentSystem,
    InvalidAngle,
    InvalidDimension,
    InvalidEpsilon,
    InvalidParameters,
    RankDeficiency,
    TooFewSamples,
)
from .linalg_core import (
    DEFAULT_TOL,
    Subspace,
    as_matrix,
    as_vector,
    complement_basis,
    rank_mask,
)

# Default construction parameter for the 3D average case.
EPSILON_3D = math.sqrt(1.0 / 63.0)

REALIZABILITY_TOL = 1e-9


@dataclass(frozen=True)
class Task:
    """One regression task: sample rows X (n x d) and labels y (n)."""

    X: np.ndarray
    y: np.ndarray
    source_subspace: Subspace | None = None

    def __post_init__(self):
        X = as_matrix(self.X, "X")
        y = as_vector(self.y, "y")
        if X.shape[0] != y.shape[0]:
            raise DimensionMismatch(
                f"{X.shape[0]} rows but {y.shape[0]} labels"
            )
        if self.source_subspace is not None:
            if self.source_subspace.ambient_dim != X.shape[1]:
                raise DimensionMismatch("source subspace ambient dim mismatch")
        frozen_X = np.array(X, copy=True)
        frozen_X.flags.writeable = False
        frozen_y = np.array(y, copy=True)
        frozen_y.flags.writeable = False
        object.__setattr__(self, "X", frozen_X)
        object.__setattr__(self, "y", frozen_y)

    @property
    def n_samples(self) -> int:
        return self.X.shape[0]

    @property
    def ambient_dim(self) -> int:
        return self.X.shape[1]

    def residual(self, w) -> float:
        """||X w - y||."""
        return float(np.linalg.norm(self.X @ np.asarray(w, dtype=float) - self.y))


@dataclass(frozen=True)
class TaskSequence:
    """An ordered list of tasks sharing one realizability witness w*."""

    tasks: tuple[Task, ...]
    w_star: np.ndarray
    ambient_dim: int = field(default=-1)
    unit_norm_w_star: bool = False

    def __post_init__(self):
        tasks = tuple(self.tasks)
        if not tasks:
            raise InvalidParameters("a task sequence needs at least one task")
        w_star = as_vector(self.w_star, "w_star")
        d = w_star.shape[0]
        if self.ambient_dim not in (-1, d):
            raise DimensionMismatch("declared ambient_dim disagrees with w_star")
        for i, task in enumerate(tasks):
            if task.ambient_dim != d:
                raise DimensionMismatch(f"task {i} has ambient dim {task.ambient_dim} != {d}")
            if task.residual(w_star) > REALIZABILITY_TOL:
                raise InconsistentSystem(f"task {i} is not realizable by w_star")
        if self.unit_norm_w_star and np.linalg.norm(w_star) > 1.0 + 1e-9:
            raise InvalidParameters("w_star norm exceeds 1 but the unit-norm flag is set")
        frozen = np.array(w_star, copy=True)
        frozen.flags.writeable = False
        object.__setattr__(self, "tasks", tasks)
        object.__setattr__(self, "w_star", frozen)
        object.__setattr__(self, "ambient_dim", d)

    def __len__(self) -> int:
        return len(self.tasks)


def _unit_filler(basis_tail: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One random unit-norm row inside span(columns of basis_tail)."""
    coeffs = rng.standard_normal(basis_tail.shape[1])
    row = basis_tail @ coeffs
    norm = np.linalg.norm(row)
    while norm < 1e-12:  # essentially impossible; re-draw defensively
        coeffs = rng.standard_normal(basis_tail.shape[1])
        row = basis_tail @ coeffs
        norm = np.linalg.norm(row)
    return row / norm


def _haar_rotation(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed orthogonal matrix via QR with sign correction."""
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def make_worst_case(
    T: int,
    d: int,
    w_star=None,
    rng: np.random.Generator | None = None,
    random_rotation: bool = False,
) -> tuple[TaskSequence, tuple[np.ndarray, float]]:
    """The three-vector sequence whose forgetting does not fade with T.

    Tasks 1..T-2 constrain x1 (plus, for d > 3, one random unit filler row
    inside span{v4..vd} each); task T-1 constrains x1 and x2; the final task
    constrains x3 together with rows spanning span{v4..vd}. All rows have
    unit norm. The designated replay sample is (x2, x2.w*).

    Args:
        T: number of tasks, at least 2.
        d: ambient dimension, at least 3.
        w_star: target vector; defaults to the basis vector v2. Must have a
            nonzero component along u = sqrt(6/7) v2 - sqrt(1/7) v3.
        rng: generator used for filler rows and the optional rotation.
        random_rotation: replace the canonical basis by a random orthonormal
            one (basis independence checks).

    Returns:
        (sequence, (x2, y2)) where (x2, y2) is the replay sample.
    """
    if d < 3:
        raise InvalidDimension(f"worst case needs d >= 3, got {d}")
    if T < 2:
        raise InvalidParameters(f"worst case needs T >= 2, got {T}")
    if rng is None:
        rng = np.random.default_rng(0)
    basis = _haar_rotation(d, rng) if random_rotation else np.eye(d)
    v1, v2, v3 = basis[:, 0], basis[:, 1], basis[:, 2]
    tail = basis[:, 3:]

    x1 = v1
    x2 = (1.0 / (2.0 * math.sqrt(2.0))) * (v1 + v2) + (math.sqrt(3.0) / 2.0) * v3
    x3 = v3
    u = math.sqrt(6.0 / 7.0) * v2 - math.sqrt(1.0 / 7.0) * v3

    if w_star is None:
        w_star = v2
    w_star = as_vector(w_star, "w_star")
    if w_star.shape[0] != d:
        raise DimensionMismatch(f"w_star has dim {w_star.shape[0]}, expected {d}")
    a = float(u @ w_star)
    if abs(a) <= 1e-9:
        raise DegenerateWStar("w_star has no component along the error direction u")

    tasks = []
    for _ in range(T - 2):
        rows = [x1]
        if d > 3:
            rows.append(_unit_filler(tail, rng))
        X = np.vstack(rows)
        tasks.append(Task(X, X @ w_star))
    X_pen = np.vstack([x1, x2])
    tasks.append(Task(X_pen, X_pen @ w_star))
    final_rows = [x3] + [tail[:, j] for j in range(d - 3)]
    X_fin = np.vstack(final_rows)
    tasks.append(Task(X_fin, X_fin @ w_star))

    seq = TaskSequence(tuple(tasks), w_star)
    return seq, (x2.copy(), float(x2 @ w_star))


def _rotation_onto(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Orthogonal matrix mapping unit vector x to unit vector y."""
    d = x.shape[0]
    s = x + y
    denom = 1.0 + float(x @ y)
    if abs(denom) < 1e-12:
        # x = -y: reflect through the hyperplane orthogonal to x.
        return np.eye(d) - 2.0 * np.outer(x, x)
    return np.eye(d) - np.outer(s, s) / denom + 2.0 * np.outer(y, x)


def make_avg_case_3d(
    epsilon: float = EPSILON_3D, w_star=None
) -> tuple[Subspace, Subspace, dict]:
    """Two-task 3D construction where one replayed sample hurts on average.

    Task 1 is span{v1, u} with u = eps v2 + sqrt(1-eps^2) v3; task 2 is
    span{v3}. The unit vector p1 = sqrt(1-eps^2) v2 - eps v3 spans task 1's
    null space. If w* has no component along the default p1, the basis is
    rotated so that it does.

    Returns:
        (task1_subspace, task2_subspace, {"p1": p1, "a": p1.w*}).
    """
    if not (0.0 < epsilon < 1.0):
        raise InvalidEpsilon(f"epsilon must be in (0, 1), got {epsilon}")
    if w_star is None:
        # Default target: the null direction itself, giving a = 1.
        w_star = np.array([0.0, math.sqrt(1.0 - epsilon**2), -epsilon])
    w_star = as_vector(w_star, "w_star")
    if w_star.shape[0] != 3:
        raise DimensionMismatch("the 3D construction needs w_star in R^3")

    basis = np.eye(3)
    comp = math.sqrt(1.0 - epsilon**2)
    p1 = comp * basis[:, 1] - epsilon * basis[:, 2]
    a = float(p1 @ w_star)
    if abs(a) <= 1e-9:
        norm = np.linalg.norm(w_star)
        if norm <= 1e-9:
            raise DegenerateWStar("w_star is (numerically) zero")
        # Rotate the basis so the null direction p1 lines up with w*.
        basis = _rotation_onto(p1, w_star / norm) @ basis
        p1 = comp * basis[:, 1] - epsilon * basis[:, 2]
        a = float(p1 @ w_star)

    u = epsilon * basis[:, 1] + comp * basis[:, 2]
    s1 = Subspace(np.column_stack([basis[:, 0], u]))
    s2 = Subspace(basis[:, 2:3])
    return s1, s2, {"p1": p1, "a": a}


def make_avg_case_highdim(
    d: int, epsilon: float, w_star=None
) -> tuple[Subspace, Subspace, dict]:
    """High-dimensional two-task construction (rank d-1 then rank 1).

    Task 1 is span{u, v1, v3, ..., v_{d-1}} with u = eps v2 +
    sqrt(1-eps^2) v_d; task 2 is span{v_d}. The unit vector
    u_perp = sqrt(1-eps^2) v2 - eps v_d spans task 1's null space.

    Returns:
        (task1_subspace, task2_subspace, {"u_perp": u_perp, "a": u_perp.w*}).
    """
    if d < 4:
        raise InvalidDimension(f"high-dim construction needs d >= 4, got {d}")
    if not (0.0 < epsilon < 0.5):
        raise InvalidEpsilon(f"epsilon must be in (0, 1/2), got {epsilon}")
    comp = math.sqrt(1.0 - epsilon**2)
    u = np.zeros(d)
    u[1] = epsilon
    u[d - 1] = comp
    u_perp = np.zeros(d)
    u_perp[1] = comp
    u_perp[d - 1] = -epsilon
    if w_star is None:
        w_star = u_perp.copy()
    w_star = as_vector(w_star, "w_star")
    if w_star.shape[0] != d:
        raise DimensionMismatch(f"w_star has dim {w_star.shape[0]}, expected {d}")

    # One identity: each column view keeps its whole d x d base array alive.
    eye = np.eye(d)
    cols = [u] + [eye[:, j] for j in [0] + list(range(2, d - 1))]
    s1 = Subspace(np.column_stack(cols))
    s2 = Subspace(eye[:, d - 1 : d])
    if not np.max(np.abs(s1.basis.T @ u_perp)) < 1e-10:
        raise ConsistencyFailure("u_perp no longer spans task 1's null space")
    a = float(u_perp @ w_star)
    return s1, s2, {"u_perp": u_perp, "a": a}


def sample_task(
    s: Subspace,
    n: int,
    w_star,
    rng: np.random.Generator,
    tol: float = DEFAULT_TOL,
) -> Task:
    """Draw a task whose rows live in ``s``.

    Each row is W z with z drawn i.i.d. from N(0, I_k / k), so that the
    expected Gram matrix of k rows is the projector onto ``s``. Labels are
    X w*. The numerical rank of X must equal rank(s); one re-draw is
    attempted before giving up.

    Raises:
        TooFewSamples: if n < rank(s).
        RankDeficiency: if the re-draw is still rank-deficient.
    """
    w_star = as_vector(w_star, "w_star")
    if w_star.shape[0] != s.ambient_dim:
        raise DimensionMismatch("w_star dimension does not match the subspace")
    k = s.rank
    if n < k:
        raise TooFewSamples(f"need at least {k} samples, got {n}")
    scale = 1.0 / math.sqrt(k) if k else 1.0
    for attempt in range(2):
        Z = rng.standard_normal((n, k)) * scale
        X = Z @ s.basis.T
        if k == 0:
            break
        svals = np.linalg.svd(X, compute_uv=False)
        rank = int(np.sum(rank_mask(svals, tol)))
        if rank == k:
            break
        if attempt == 1:
            raise RankDeficiency(
                f"sampled rows have rank {rank} < {k} after a re-draw"
            )
    return Task(X, X @ w_star, source_subspace=s)


def make_angle_pair(
    theta: float, d: int, w_star=None
) -> tuple[Subspace, Subspace]:
    """Two rank-(d-1) tasks whose null-space directions meet at ``theta``.

    The null directions a1, a2 satisfy a1.a2 = cos(theta); a1 is aligned
    with w* whenever the default choice would be orthogonal to it.
    """
    if not (0.0 <= theta <= math.pi / 2.0 + 1e-12):
        raise InvalidAngle(f"theta must be in [0, pi/2], got {theta}")
    if d < 2:
        raise InvalidDimension(f"angle pair needs d >= 2, got {d}")
    a1 = np.eye(d)[:, 0]
    if w_star is not None:
        w_star = as_vector(w_star, "w_star")
        norm = np.linalg.norm(w_star)
        if norm > 1e-9 and abs(a1 @ w_star) <= 1e-9:
            a1 = w_star / norm
    # Any unit vector orthogonal to a1 completes the rotation plane.
    j = int(np.argmin(np.abs(a1)))
    b = np.eye(d)[:, j] - (a1[j]) * a1
    b /= np.linalg.norm(b)
    a2 = math.cos(theta) * a1 + math.sin(theta) * b
    s1 = complement_basis(Subspace(a1[:, None]))
    s2 = complement_basis(Subspace(a2[:, None]))
    return s1, s2
