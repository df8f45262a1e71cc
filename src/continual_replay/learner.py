"""Sequential learner: minimum-norm updates, full-batch GD, and sample replay.

The learner starts from the all-zero vector and fits tasks in order. Each
update moves the minimum Euclidean distance from the previous iterate
subject to fitting the current task exactly; equivalently, the parameter
error is projected onto the task's null space. Gradient descent from the
same starting point converges to the same solution because its iterates
never leave the affine set w_prev + rowspan(X). Full-batch gradient
descent is computed exactly, as the spectral filter of its K-step iterate
(one SVD, no epoch loop and no early stop).

Replay keeps up to m previously seen (row, label) pairs. Both solvers fit
the final task with the memory concatenated onto its rows (row order does
not change the span).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidParameters,
    NotConverged,
    NotEnoughSamples,
)
from .linalg_core import as_vector, min_norm_solve
from .task_gen import Task, TaskSequence


@dataclass(frozen=True)
class GdConfig:
    """Full-batch gradient-descent settings.

    ``learning_rate=None`` selects 1/lambda_max(X^T X) per task, which always
    satisfies the stability bound.
    """

    learning_rate: float | None = 0.1
    epochs: int = 7000
    convergence_tol: float = 1e-10

    def __post_init__(self):
        if self.learning_rate is not None and not self.learning_rate > 0:
            raise InvalidParameters("learning_rate must be positive (or None for auto)")
        if self.epochs < 1:
            raise InvalidParameters("epochs must be at least 1")
        if not self.convergence_tol > 0:
            raise InvalidParameters("convergence_tol must be positive")


@dataclass(frozen=True)
class ReplayMemory:
    """Stored samples: rows (m x d), labels (m), and where they came from."""

    rows: np.ndarray
    labels: np.ndarray
    provenance: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        rows = np.atleast_2d(np.asarray(self.rows, dtype=float))
        labels = np.asarray(self.labels, dtype=float).ravel()
        if rows.shape[0] != labels.shape[0]:
            raise DimensionMismatch(
                f"{rows.shape[0]} memory rows but {labels.shape[0]} labels"
            )
        prov = tuple((int(t), int(i)) for t, i in self.provenance)
        if prov and len(prov) != rows.shape[0]:
            raise DimensionMismatch("provenance length disagrees with memory size")
        rows = np.array(rows, copy=True)
        rows.flags.writeable = False
        labels = np.array(labels, copy=True)
        labels.flags.writeable = False
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "provenance", prov)

    @property
    def size(self) -> int:
        return self.rows.shape[0]

    @classmethod
    def empty(cls, d: int) -> "ReplayMemory":
        return cls(np.zeros((0, d)), np.zeros(0), ())


@dataclass(frozen=True)
class UniformWithoutReplacement:
    """Draw m distinct (task, row) pairs uniformly from all earlier rows."""


@dataclass(frozen=True)
class Fixed:
    """Store the rows at the given (task, row) index pairs verbatim."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "pairs", tuple((int(t), int(i)) for t, i in self.pairs)
        )


@dataclass(frozen=True)
class LearnerState:
    """Final iterate plus the per-task trajectory w_1..w_T."""

    w: np.ndarray
    history: tuple[np.ndarray, ...]
    d: int = field(default=-1)

    def __post_init__(self):
        w = as_vector(self.w, "w")
        hist = tuple(as_vector(h, "history entry") for h in self.history)
        if self.d not in (-1, w.shape[0]):
            raise DimensionMismatch("declared d disagrees with the iterate")
        for h in hist:
            if h.shape[0] != w.shape[0]:
                raise DimensionMismatch("history entries have inconsistent dims")
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "history", hist)
        object.__setattr__(self, "d", w.shape[0])


def fit_closed_form(w_prev, task: Task) -> np.ndarray:
    """Minimum-norm update: argmin ||w - w_prev|| s.t. X w = y.

    Returns w_prev + X^+ (y - X w_prev), which satisfies X w = y exactly and
    projects the parameter error onto the task's null space.

    Raises:
        InconsistentSystem: if the task has no exact solution.
    """
    w_prev = as_vector(w_prev, "w_prev")
    if w_prev.shape[0] != task.ambient_dim:
        raise DimensionMismatch("w_prev dimension does not match the task")
    if task.n_samples == 0:
        return w_prev.copy()
    return w_prev + min_norm_solve(task.X, task.y - task.X @ w_prev)


def fit_gd(w_prev, task: Task, cfg: GdConfig | None = None) -> np.ndarray:
    """``cfg.epochs`` full-batch gradient-descent steps on ||X w - y||^2 from w_prev.

    The K-step iterate w <- w - lr X^T (X w - y) is computed exactly from
    one SVD X = U diag(s) V^T, with no epoch loop and no early stop:

        w_K = w_prev + V diag((1 - (1 - lr s^2)^K) / s) U^T (y - X w_prev).

    Because every step lies in the row span of X, the limit is the same
    minimum-distance solution as fit_closed_form (agreement within 1e-4 is
    part of the test contract).

    Raises:
        NotConverged: if ||X w_K - y|| > ``cfg.convergence_tol``.
        InvalidParameters: if a fixed learning rate violates the stability
            bound 2/lambda_max(X^T X).
    """
    w_prev = as_vector(w_prev, "w_prev")
    if w_prev.shape[0] != task.ambient_dim:
        raise DimensionMismatch("w_prev dimension does not match the task")
    if cfg is None:
        cfg = GdConfig()
    X, y = task.X, task.y
    if X.shape[0] == 0:
        return w_prev.copy()
    U, svals, Vt = np.linalg.svd(X, full_matrices=False)
    gram_top = float(svals[0]) ** 2
    if gram_top == 0.0:
        # All-zero rows constrain nothing; consistency was already checked.
        return w_prev.copy()
    if cfg.learning_rate is None:
        lr = 1.0 / gram_top
    else:
        lr = cfg.learning_rate
        if lr >= 2.0 / gram_top:
            raise InvalidParameters(
                f"learning_rate {lr} >= 2/lambda_max = {2.0 / gram_top:.3e}"
            )
    # Every s > 0 counts: gradient descent moves along tiny directions too.
    keep = svals > 0
    s = svals[keep]
    step = lr * s * s
    # 1 - (1 - step)^K rounds away its digits where step is tiny, so below 1
    # it is -expm1(K log1p(-step)); at and above 1 (up to the stability
    # bound 2) log1p has no real value and the plain power stays finite.
    below = step < 1.0
    gain = np.empty_like(s)
    gain[below] = -np.expm1(cfg.epochs * np.log1p(-step[below])) / s[below]
    gain[~below] = (1.0 - (1.0 - step[~below]) ** cfg.epochs) / s[~below]
    w = w_prev + Vt[keep].T @ (gain * (U[:, keep].T @ (y - X @ w_prev)))
    residual = float(np.linalg.norm(X @ w - y))
    if residual > cfg.convergence_tol:
        raise NotConverged(
            f"||Xw - y|| = {residual:.3e} > {cfg.convergence_tol} after {cfg.epochs} epochs"
        )
    return w


def select_replay(
    seq: TaskSequence,
    upto_task: int,
    m: int,
    policy,
    rng: np.random.Generator | None = None,
) -> ReplayMemory:
    """Build a replay memory from the rows of tasks strictly before ``upto_task``.

    Args:
        upto_task: index of the task about to be trained; only rows of tasks
            0..upto_task-1 are eligible.
        m: number of rows to store.
        policy: UniformWithoutReplacement() or Fixed(pairs).

    Raises:
        NotEnoughSamples: if fewer than m rows are available.
        InvalidParameters: if Fixed pairs are out of range or disagree with m.
    """
    if not (0 <= upto_task < len(seq)):
        raise InvalidParameters(f"upto_task {upto_task} outside the sequence")
    if m < 0:
        raise InvalidParameters("m must be >= 0")
    d = seq.ambient_dim
    if m == 0:
        return ReplayMemory.empty(d)
    pool = [
        (t, i) for t in range(upto_task) for i in range(seq.tasks[t].n_samples)
    ]
    if isinstance(policy, UniformWithoutReplacement):
        if m > len(pool):
            raise NotEnoughSamples(f"asked for {m} rows, only {len(pool)} available")
        if rng is None:
            rng = np.random.default_rng(0)
        chosen = rng.choice(len(pool), size=m, replace=False)
        pairs = tuple(pool[int(j)] for j in chosen)
    elif isinstance(policy, Fixed):
        pairs = policy.pairs
        if len(pairs) != m:
            raise InvalidParameters(
                f"Fixed policy holds {len(pairs)} pairs but m = {m}"
            )
        for t, i in pairs:
            if not (0 <= t < upto_task):
                raise InvalidParameters(
                    f"pair ({t}, {i}) does not reference an earlier task"
                )
            if not (0 <= i < seq.tasks[t].n_samples):
                raise InvalidParameters(f"row {i} out of range for task {t}")
    else:
        raise InvalidParameters(f"unknown replay policy {policy!r}")
    rows = np.vstack([seq.tasks[t].X[i] for t, i in pairs])
    labels = np.array([seq.tasks[t].y[i] for t, i in pairs])
    return ReplayMemory(rows, labels, pairs)


def augment_with_replay(task: Task, mem: ReplayMemory) -> Task:
    """Concatenate memory rows onto the task (row order is irrelevant: both
    solvers see the rows only through X^T X and X^T y)."""
    if mem.size == 0:
        return task
    if mem.rows.shape[1] != task.ambient_dim:
        raise DimensionMismatch("memory rows do not match the task dimension")
    return Task(
        np.vstack([task.X, mem.rows]),
        np.concatenate([task.y, mem.labels]),
    )


def run_sequence(
    seq: TaskSequence,
    replay: tuple[int, object] | None = None,
    solver: str = "closed_form",
    gd_config: GdConfig | None = None,
    rng: np.random.Generator | None = None,
) -> LearnerState:
    """Train on the tasks in order, starting from the all-zero vector.

    Args:
        replay: optional (m, policy); the memory is drawn once, before the
            final task, from the rows of all earlier tasks.
        solver: "closed_form" or "gd".

    Returns:
        LearnerState with w = w_T and the full trajectory.
    """
    if solver not in ("closed_form", "gd"):
        raise InvalidParameters(f"unknown solver {solver!r}")
    if rng is None:
        rng = np.random.default_rng(0)

    w = np.zeros(seq.ambient_dim)
    history = []
    for t, task in enumerate(seq.tasks):
        if replay is not None and t == len(seq) - 1:
            m, policy = replay
            task = augment_with_replay(task, select_replay(seq, t, m, policy, rng))
        if solver == "closed_form":
            w = fit_closed_form(w, task)
        else:
            w = fit_gd(w, task, gd_config)
        history.append(w.copy())
    return LearnerState(w=w, history=tuple(history))
