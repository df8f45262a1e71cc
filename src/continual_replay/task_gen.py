"""Task sequence constructions.

Builds every sequence the experiments use: the three-vector worst case
whose forgetting is catastrophic, the two-task average case where replaying
a sample hurts in expectation (one builder for every d >= 3; the 3D case is
d = 3), generic Gaussian-subspace tasks, and angle-parameterized pairs
whose null spaces meet at a prescribed angle. The fixed constructions are
written directly from identity columns, at most one of them replaced, so no
basis is computed by a factorization.

All constructions share one realizability contract: every task satisfies
X_t w* = y_t for a single target vector w*, and every generated sample row
in the worst case has unit norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InconsistentSystem,
    InvalidParameters,
    RankDeficiency,
)
from .linalg_core import Subspace, _frozen, as_matrix, as_vector, rank_mask

# Default construction parameter for the 3D average case.
EPSILON_3D = math.sqrt(1.0 / 63.0)

REALIZABILITY_TOL = 1e-9


@dataclass(frozen=True)
class Task:
    """One regression task: sample rows X (n x d) and labels y (n)."""

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        X = as_matrix(self.X, "X")
        y = as_vector(self.y, "y")
        if X.shape[0] != y.shape[0]:
            raise DimensionMismatch(
                f"{X.shape[0]} rows but {y.shape[0]} labels"
            )
        object.__setattr__(self, "X", _frozen(X))
        object.__setattr__(self, "y", _frozen(y))

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

    def __post_init__(self):
        tasks = tuple(self.tasks)
        if not tasks:
            raise InvalidParameters("a task sequence needs at least one task")
        w_star = as_vector(self.w_star, "w_star")
        d = w_star.shape[0]
        for i, task in enumerate(tasks):
            if task.ambient_dim != d:
                raise DimensionMismatch(f"task {i} has ambient dim {task.ambient_dim} != {d}")
            if task.residual(w_star) > REALIZABILITY_TOL:
                raise InconsistentSystem(f"task {i} is not realizable by w_star")
        object.__setattr__(self, "tasks", tasks)
        object.__setattr__(self, "w_star", _frozen(w_star))

    @property
    def ambient_dim(self) -> int:
        return self.w_star.shape[0]

    def __len__(self) -> int:
        return len(self.tasks)


def make_worst_case(T: int, d: int) -> TaskSequence:
    """The three-vector sequence whose forgetting does not fade with T.

    Tasks 1..T-2 constrain x1 and the filler v4 (absent at d = 3); task T-1
    constrains x1 and x2; the final task constrains x3 and v4..vd. The
    filler lies inside the final task's span, so it changes no forgetting
    value, but a uniform replay memory can draw it. All rows have
    unit norm. The target is w* = v2, whose component along the forgotten
    direction u = sqrt(6/7) v2 - sqrt(1/7) v3 is a = sqrt(6/7). The
    designated replay sample is x2, row 1 of task T-1, with its label.

    Args:
        T: number of tasks, at least 2.
        d: ambient dimension, at least 3.
    """
    if d < 3:
        raise InvalidParameters(f"worst case needs d >= 3, got {d}")
    if T < 2:
        raise InvalidParameters(f"worst case needs T >= 2, got {T}")
    eye = np.eye(d)  # row i is v_{i+1}
    x1, v2, x3 = eye[0], eye[1], eye[2]
    x2 = (1.0 / (2.0 * math.sqrt(2.0))) * (x1 + v2) + (math.sqrt(3.0) / 2.0) * x3
    w_star = v2
    early = eye[[0, *range(3, min(d, 4))]]  # x1, then v4 when d > 3
    rows = [early] * (T - 2) + [np.vstack([x1, x2]), eye[[2, *range(3, d)]]]
    return TaskSequence(tuple(Task(X, X @ w_star) for X in rows), w_star)


def make_avg_case_highdim(d: int, epsilon: float) -> tuple[Subspace, Subspace, np.ndarray]:
    """The two-task construction where replaying random samples hurts on average.

    Task 1 is span{v1, u, v3, ..., v_{d-1}}: the first d-1 identity columns
    with the second replaced by u = eps v2 + sqrt(1-eps^2) v_d. Task 2 is
    span{v_d}. The target w* = sqrt(1-eps^2) v2 - eps v_d spans task 1's
    null space, so a = ||w*|| = 1 and the no-replay forgetting is
    eps^2 (1 - eps^2). At d = 3 this is the 3D case.

    Returns:
        (task1_subspace, task2_subspace, w_star).
    """
    if d < 3:
        raise InvalidParameters(f"two-task construction needs d >= 3, got {d}")
    if not (0.0 < epsilon < 1.0):
        raise InvalidParameters(f"epsilon must be in (0, 1), got {epsilon}")
    comp = math.sqrt(1.0 - epsilon**2)
    eye = np.eye(d)
    w1 = eye[:, : d - 1].copy()
    w1[:, 1] = epsilon * eye[:, 1] + comp * eye[:, d - 1]
    w_star = comp * eye[:, 1] - epsilon * eye[:, d - 1]
    return Subspace(w1), Subspace(eye[:, d - 1 :]), w_star


def make_avg_case_3d(epsilon: float = EPSILON_3D) -> tuple[Subspace, Subspace, np.ndarray]:
    """The two-task construction at d = 3; the benchmark imports it by name."""
    return make_avg_case_highdim(3, epsilon)


def sample_task(s: Subspace, n: int, w_star, rng: np.random.Generator) -> Task:
    """Draw a task whose rows live in ``s``.

    Each row is W z with z drawn i.i.d. from N(0, I_k / k), so that the
    expected Gram matrix of k rows is the projector onto ``s``. Labels are
    X w*. The numerical rank of X (``rank_mask``) must equal rank(s); one
    re-draw is attempted before giving up.

    Raises:
        InvalidParameters: if n < rank(s).
        RankDeficiency: if the re-draw is still rank-deficient.
    """
    w_star = as_vector(w_star, "w_star")
    if w_star.shape[0] != s.ambient_dim:
        raise DimensionMismatch("w_star dimension does not match the subspace")
    k = s.rank
    if n < k:
        raise InvalidParameters(f"need at least {k} samples, got {n}")
    scale = 1.0 / math.sqrt(k) if k else 1.0
    for attempt in range(2):
        Z = rng.standard_normal((n, k)) * scale
        X = Z @ s.basis.T
        svals = np.linalg.svd(X, compute_uv=False)
        rank = int(np.sum(rank_mask(svals)))
        if rank == k:
            break
        if attempt == 1:
            raise RankDeficiency(
                f"sampled rows have rank {rank} < {k} after a re-draw"
            )
    return Task(X, X @ w_star)


def make_angle_pair(theta: float, d: int) -> tuple[Subspace, Subspace]:
    """Two rank-(d-1) tasks whose null-space directions meet at ``theta``.

    Task 1 is span{v2, ..., vd}, with null direction a1 = v1. Task 2 is the
    same with v2 replaced by -sin(theta) v1 + cos(theta) v2, so its null
    direction is a2 = cos(theta) v1 + sin(theta) v2.
    """
    if not (0.0 <= theta <= math.pi / 2.0 + 1e-12):
        raise InvalidParameters(f"theta must be in [0, pi/2], got {theta}")
    if d < 2:
        raise InvalidParameters(f"angle pair needs d >= 2, got {d}")
    w1 = np.eye(d)[:, 1:]
    w2 = w1.copy()
    w2[:2, 0] = (-math.sin(theta), math.cos(theta))
    return Subspace(w1), Subspace(w2)
