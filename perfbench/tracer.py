"""Outside-in tracer for the continual_replay package.

The package binds its functions with ``from .x import f``, so a function can
be reached through several module namespaces (``orthonormal_basis`` lives in
``linalg_core``, ``metrics`` and ``cli_harness``). ``install`` replaces the
function object in every namespace that holds it, and in module-level dicts
such as the CLI's handler table, with one wrapper that records a span per
call. The two validated types and ``Task`` are timed through their
``__post_init__``, so ``isinstance`` keeps working.

Spans stay in memory as (id, parent id, name index, start, end, error) and
are written out once, when the traced command ends. Nothing in the package
itself changes.

Run as a script it is the traced child of the benchmark:

    python perfbench/tracer.py SPANS.npz -- replay-sweep --d 3 --trials 10 ...

which calls ``cli_harness.main(argv)`` in-process with the tracer installed
and exits with ``main``'s return code.
"""

from __future__ import annotations

import importlib
import sys
import time
from pathlib import Path

# Layer-qualified names of every traced callable; a type stands for its
# ``__post_init__`` validation.
TRACED = {
    "linalg_core": (
        "min_norm_solve",
        "orthonormal_basis",
        "op_norm",
        "principal_angles",
        "Subspace",
        "Projector",
    ),
    "task_gen": ("sample_task", "make_avg_case_3d", "make_avg_case_highdim", "Task"),
    "learner": ("fit_closed_form", "fit_gd", "select_replay", "augment_with_replay"),
    "metrics": (
        "expected_replay_forgetting_two_tasks",
        "replay_null_projector",
        "expected_forgetting_trace_form",
        "benign_replay_certificate",
        "expected_forgetting_closed_form",
    ),
    "oracle": (
        "oracle_min_norm",
        "oracle_claim_c2",
        "oracle_random_projection_tails",
        "oracle_projector_sandwich",
    ),
    "cli_harness": (
        "main",
        "cmd_replay_sweep",
        "cmd_benign_check",
        "cmd_avg_case_3d",
        "cmd_avg_case_highdim",
        "cmd_oracles",
    ),
}
NAMES = tuple(f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns)

# Span error codes.
OK, NOT_CONVERGED, OTHER_ERROR = 0, 1, 2


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.spans: list = []
        self._stack = [0]  # ids of the open spans; 0 is "no parent"
        self.projectors = 0  # replay_null_projector results seen
        self.vacuous = 0  # of those, projectors with trace < 0.5

    def wrap(self, index: int, fn, not_converged: type, on_result=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans) + 1
            parent = stack[-1]
            spans.append(None)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                t1 = clock()
                stack.pop()
                code = NOT_CONVERGED if isinstance(exc, not_converged) else OTHER_ERROR
                spans[sid - 1] = (sid, parent, index, t0, t1, code)
                raise
            t1 = clock()
            stack.pop()
            spans[sid - 1] = (sid, parent, index, t0, t1, OK)
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def _count_projector(self, proj) -> None:
        self.projectors += 1
        # Trace below 1/2 means the replay rows filled the whole space, so the
        # null projector is zero and the certificate is not exercised.
        if float(proj.matrix.trace()) < 0.5:
            self.vacuous += 1

    def install(self) -> None:
        """Wrap every traced callable in every namespace that binds it."""
        pkg = "continual_replay"
        modules = [importlib.import_module(pkg)] + [
            importlib.import_module(f"{pkg}.{layer}") for layer in TRACED
        ]
        not_converged = importlib.import_module(f"{pkg}.errors").NotConverged
        wrappers = {}
        for index, qualname in enumerate(NAMES):
            layer, name = qualname.split(".")
            obj = getattr(importlib.import_module(f"{pkg}.{layer}"), name)
            if isinstance(obj, type):
                obj.__post_init__ = self.wrap(index, obj.__post_init__, not_converged)
                continue
            hook = self._count_projector if name == "replay_null_projector" else None
            # Keyed by id: each wrapper's closure keeps its original alive.
            wrappers[id(obj)] = self.wrap(index, obj, not_converged, hook)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    setattr(module, attr, wrappers[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in wrappers:
                            value[key] = wrappers[id(item)]

    def dump(self, path: str) -> None:
        import numpy as np

        spans = np.array(self.spans, dtype=float).reshape(-1, 6)
        counters = np.array([self.projectors, self.vacuous], dtype=float)
        np.savez(path, spans=spans, counters=counters)


def load_spans(path: str):
    """Per-span arrays of one traced command, with self times.

    Returns ``(name, err, dur, self_time, counters)``. Raises ``ValueError``
    when the span tree is malformed: ids out of order, a parent that is not
    an earlier span, or self times that do not add up to their root span.
    """
    import numpy as np

    with np.load(path) as data:
        spans, counters = data["spans"], data["counters"]
    n = spans.shape[0]
    ids = spans[:, 0].astype(int)
    parent = spans[:, 1].astype(int)
    if not np.array_equal(ids, np.arange(1, n + 1)) or np.any(parent >= ids):
        raise ValueError(f"{path}: span ids or parent links are malformed")
    dur = spans[:, 4] - spans[:, 3]
    covered = np.zeros(n + 1)
    np.add.at(covered, parent, dur)
    self_time = dur - covered[1:]
    root = np.empty(n, dtype=int)
    for i in range(n):
        root[i] = i if parent[i] == 0 else root[parent[i] - 1]
    per_root = np.bincount(root, weights=self_time, minlength=n)
    roots = parent == 0
    gap = np.abs(per_root[roots] - dur[roots])
    if np.any(gap > 1e-9 + 1e-9 * dur[roots]):
        raise ValueError(f"{path}: self times miss their root span by {gap.max():.3e} s")
    return spans[:, 2].astype(int), spans[:, 5].astype(int), dur, self_time, counters


def _child(argv: list[str]) -> int:
    out, sep, *cli_argv = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS.npz -- <continual-replay argv>")
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    tracer = Tracer()
    tracer.install()
    from continual_replay import cli_harness

    code = cli_harness.main(cli_argv)
    tracer.dump(out)
    return code


if __name__ == "__main__":
    sys.exit(_child(sys.argv[1:]))
