"""Sequential learner: minimum-norm updates, full-batch GD, and sample replay.

The learner starts from the all-zero vector and fits tasks in order. Each
update moves the minimum Euclidean distance from the previous iterate
subject to fitting the current task exactly; equivalently, the parameter
error is projected onto the task's null space. Gradient descent from the
same starting point converges to the same solution because its iterates
never leave the affine set w_prev + rowspan(X). Full-batch gradient
descent is computed exactly, as the spectral filter of its K-step iterate
at step 1/lambda_max (one SVD, no epoch loop and no early stop).

Replay is data, not a learner mode: the memory is a ``Task`` of rows kept
from earlier tasks, and ``augment_with_replay`` appends it to the final
task's rows (row order does not change the span). ``run_sequence`` then
fits the augmented sequence like any other.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, InvalidParameters, NotConverged
from .linalg_core import as_vector, min_norm_solve
from .task_gen import Task, TaskSequence

# The solver lanes, in the order every learner command reports them; the
# strings are the values of the CLI's per-row solver column.
SOLVERS = ("closed_form", "gd")

# The one gradient-descent budget: K epochs, and the largest final residual
# ||X w_K - y|| a fit may leave. The K-step iterate costs one SVD at any K.
GD_EPOCHS = 10**20
GD_TOL = 1e-11


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
    return w_prev + min_norm_solve(task.X, task.y - task.X @ w_prev)


def fit_gd(w_prev, task: Task, *, epochs: int = GD_EPOCHS) -> np.ndarray:
    """``epochs`` full-batch gradient-descent steps on ||X w - y||^2 from w_prev.

    The step is lr = 1/lambda_max(X^T X) = 1/s_max^2. The K-step iterate
    w <- w - lr X^T (X w - y) is computed exactly from one SVD
    X = U diag(s) V^T, with no epoch loop and no early stop:

        w_K = w_prev + V diag((1 - (1 - lr s^2)^K) / s) U^T (y - X w_prev).

    Because every step lies in the row span of X, the limit is the same
    minimum-distance solution as fit_closed_form. Every caller in the
    package runs K = ``GD_EPOCHS``; a smaller K lets a check compare the
    iterate with an epoch loop.

    Raises:
        NotConverged: if ||X w_K - y|| > ``GD_TOL``.
    """
    w_prev = as_vector(w_prev, "w_prev")
    if w_prev.shape[0] != task.ambient_dim:
        raise DimensionMismatch("w_prev dimension does not match the task")
    X, y = task.X, task.y
    U, svals, Vt = np.linalg.svd(X, full_matrices=False)
    # Every s > 0 counts: gradient descent moves along tiny directions too.
    keep = svals > 0
    s = svals[keep]
    # 1 - (1 - step)^K rounds away its digits where step is tiny, so it is
    # -expm1(K log1p(-step)). Exactly, step <= 1, but lr * s_max^2 can round
    # to just above 1; capped at 1, log1p gives -inf and the gain is 1/s.
    # K enters as a float: 10**20 does not fit an int64. No rows or all-zero
    # rows give lr = inf and no spectrum: w stays put and the residual decides.
    with np.errstate(divide="ignore"):
        lr = 1.0 / np.square(svals.max(initial=0.0))
        step = lr * s * s
        gain = -np.expm1(float(epochs) * np.log1p(-np.minimum(step, 1.0))) / s
    w = w_prev + Vt[keep].T @ (gain * (U[:, keep].T @ (y - X @ w_prev)))
    residual = float(np.linalg.norm(X @ w - y))
    if residual > GD_TOL:
        raise NotConverged(f"||Xw - y|| = {residual:.3e} > {GD_TOL} after {epochs:g} epochs")
    return w


def select_replay(seq: TaskSequence, m: int, rng: np.random.Generator) -> Task:
    """Keep m distinct rows, with their labels, drawn uniformly from every task
    before the last. For m = 0 the memory is empty and ``rng`` is untouched.

    Raises:
        InvalidParameters: if m is negative or exceeds the earlier rows.
    """
    if m < 0:
        raise InvalidParameters("m must be >= 0")
    available = sum(task.n_samples for task in seq.tasks[:-1])
    if m > available:
        raise InvalidParameters(f"asked for {m} rows, only {available} available")
    chosen = rng.choice(available, size=m, replace=False)
    # Stacking every task keeps the pool non-empty; indices stay below `available`.
    X = np.vstack([task.X for task in seq.tasks])
    y = np.concatenate([task.y for task in seq.tasks])
    return Task(X[chosen], y[chosen])


def augment_with_replay(seq: TaskSequence, memory: Task) -> TaskSequence:
    """The sequence whose final task has the memory rows appended (row order
    is irrelevant: both solvers see the rows only through X^T X and X^T y)."""
    if memory.n_samples == 0:
        return seq
    if memory.ambient_dim != seq.ambient_dim:
        raise DimensionMismatch("memory rows do not match the task dimension")
    final = seq.tasks[-1]
    final = Task(np.vstack([final.X, memory.X]), np.concatenate([final.y, memory.y]))
    return TaskSequence(seq.tasks[:-1] + (final,), seq.w_star)


def run_sequence(seq: TaskSequence, solver: str = "closed_form") -> np.ndarray:
    """Train on the tasks in order from the all-zero vector; return the final w.

    Args:
        solver: one of ``SOLVERS``.
    """
    if solver not in SOLVERS:
        raise InvalidParameters(f"unknown solver {solver!r}")
    w = np.zeros(seq.ambient_dim)
    for task in seq.tasks:
        w = fit_closed_form(w, task) if solver == "closed_form" else fit_gd(w, task)
    return w
