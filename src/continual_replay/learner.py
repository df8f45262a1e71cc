"""Sequential learner: minimum-norm updates, GD/SGD, and sample replay.

The learner starts from the all-zero vector and fits tasks in order. Each
update moves the minimum Euclidean distance from the previous iterate
subject to fitting the current task exactly; equivalently, the parameter
error is projected onto the task's null space. Gradient descent from the
same starting point converges to the same solution because its iterates
never leave the affine set w_prev + rowspan(X). Full-batch gradient
descent is computed exactly, as the spectral filter of its K-step iterate
(one SVD, no epoch loop and no early stop); only minibatch SGD iterates.

Replay keeps up to m previously seen (row, label) pairs. For the
closed-form and full-batch paths the memory is simply concatenated onto
the task (row order does not change the span); for minibatch SGD each step
merges min(batch, m) memory rows up-weighted so their total weight matches
the task batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    Diverged,
    InvalidParameters,
    NotConverged,
    NotEnoughSamples,
)
from .linalg_core import as_vector, min_norm_solve
from .task_gen import Task, TaskSequence


@dataclass(frozen=True)
class GdConfig:
    """Gradient-descent settings.

    ``learning_rate=None`` selects 1/lambda_max(X^T X) per task, which always
    satisfies the stability bound. ``batch_size=0`` means full-batch.
    """

    learning_rate: float | None = 0.1
    epochs: int = 7000
    batch_size: int = 0
    convergence_tol: float = 1e-10

    def __post_init__(self):
        if self.learning_rate is not None and not self.learning_rate > 0:
            raise InvalidParameters("learning_rate must be positive (or None for auto)")
        if self.epochs < 1:
            raise InvalidParameters("epochs must be at least 1")
        if self.batch_size < 0:
            raise InvalidParameters("batch_size must be >= 0 (0 = full batch)")
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


def _gd_loop(
    w0: np.ndarray,
    X: np.ndarray,
    y: np.ndarray,
    cfg: GdConfig,
    rng: np.random.Generator | None,
    mem: ReplayMemory | None = None,
) -> np.ndarray:
    """Shared GD/SGD engine; ``mem`` activates per-step replay merging."""
    w = w0.copy()
    mem_rows = mem.rows if mem is not None and mem.size else None
    full_X = X if mem_rows is None else np.vstack([X, mem_rows])
    full_y = y if mem_rows is None else np.concatenate([y, mem.labels])
    n = full_X.shape[0]
    if n == 0:
        return w

    full_batch = cfg.batch_size == 0
    if full_batch:
        U, svals, Vt = np.linalg.svd(full_X, full_matrices=False)
    else:
        svals = np.linalg.svd(full_X, compute_uv=False)
    gram_top = float(svals[0]) ** 2
    if gram_top == 0.0:
        # All-zero rows constrain nothing; consistency was already checked.
        return w
    if cfg.learning_rate is None:
        lr = 1.0 / gram_top
    else:
        lr = cfg.learning_rate
        if full_batch and lr >= 2.0 / gram_top:
            raise InvalidParameters(
                f"learning_rate {lr} >= 2/lambda_max = {2.0 / gram_top:.3e}"
            )

    if full_batch:
        # K steps w <- w - lr X^T (X w - y) in closed form:
        # w_K = w0 + V diag((1 - (1 - lr s^2)^K) / s) U^T (y - X w0).
        # Every s > 0 counts (GD moves along tiny directions too), and the
        # plain power stays finite for lr s^2 in (1, 2), unlike log1p.
        keep = svals > 0
        s = svals[keep]
        gain = (1.0 - (1.0 - lr * s * s) ** cfg.epochs) / s
        w += Vt[keep].T @ (gain * (U[:, keep].T @ (full_y - full_X @ w)))
    else:
        if rng is None:
            rng = np.random.default_rng(0)
        m = 0 if mem_rows is None else mem.size
        n_task = X.shape[0]
        prev_loss = np.inf
        rising = 0
        for _ in range(cfg.epochs):
            order = rng.permutation(n_task) if n_task else np.zeros(0, dtype=int)
            for lo in range(0, n_task, cfg.batch_size):
                idx = order[lo : lo + cfg.batch_size]
                Xb, yb = X[idx], y[idx]
                grad = Xb.T @ (Xb @ w - yb)
                if m:
                    b_eff = min(len(idx), m)
                    sel = rng.choice(m, size=b_eff, replace=False)
                    Xm, ym = mem_rows[sel], mem.labels[sel]
                    # Up-weight so memory carries the same total weight as
                    # the task batch.
                    grad += (len(idx) / b_eff) * (Xm.T @ (Xm @ w - ym))
                w -= lr * grad
            residual = float(np.linalg.norm(full_X @ w - full_y))
            if residual <= cfg.convergence_tol:
                return w
            loss = residual * residual
            if loss > prev_loss:
                rising += 1
                if rising >= 10:
                    raise Diverged(f"loss rose for {rising} consecutive epochs")
            else:
                rising = 0
            prev_loss = loss
    residual = float(np.linalg.norm(full_X @ w - full_y))
    if residual > cfg.convergence_tol:
        raise NotConverged(
            f"||Xw - y|| = {residual:.3e} > {cfg.convergence_tol} after {cfg.epochs} epochs"
        )
    return w


def fit_gd(
    w_prev,
    task: Task,
    cfg: GdConfig | None = None,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """``cfg.epochs`` epochs of gradient descent on ||X w - y||^2 from w_prev.

    Full batch (``batch_size=0``) returns the exact K-step iterate from one
    SVD, with no early stop. Minibatch SGD iterates and stops at the first
    epoch whose residual meets the tolerance. Because every gradient lies in
    the row span of X, the limit is the same minimum-distance solution as
    fit_closed_form (agreement within 1e-4 is part of the test contract).

    Raises:
        NotConverged: if ||X w - y|| > ``cfg.convergence_tol`` after
            ``cfg.epochs`` epochs.
        Diverged: minibatch SGD only, if the loss rises for 10 consecutive
            epochs.
        InvalidParameters: if a fixed learning rate violates the full-batch
            stability bound 2/lambda_max(X^T X).
    """
    w_prev = as_vector(w_prev, "w_prev")
    if w_prev.shape[0] != task.ambient_dim:
        raise DimensionMismatch("w_prev dimension does not match the task")
    if cfg is None:
        cfg = GdConfig()
    return _gd_loop(w_prev, task.X, task.y, cfg, rng)


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
    """Concatenate memory rows onto the task (row order is irrelevant for
    the closed-form path because the projector depends only on the span)."""
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
    if gd_config is None:
        gd_config = GdConfig()
    if rng is None:
        rng = np.random.default_rng(0)

    w = np.zeros(seq.ambient_dim)
    history = []
    for t, task in enumerate(seq.tasks):
        mem = None
        if replay is not None and t == len(seq) - 1:
            m, policy = replay
            mem = select_replay(seq, t, m, policy, rng)
        if solver == "closed_form":
            if mem is not None:
                task = augment_with_replay(task, mem)
            w = fit_closed_form(w, task)
        else:
            if mem is not None and gd_config.batch_size == 0:
                # Full-batch: concatenation reaches the same fixed point.
                task = augment_with_replay(task, mem)
                mem = None
            w = _gd_loop(w, task.X, task.y, gd_config, rng, mem)
        history.append(w.copy())
    return LearnerState(w=w, history=tuple(history))

