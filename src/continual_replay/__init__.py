"""Simulator and analysis library for sample replay in over-parameterized
continual linear regression.

The package splits into five layers: exact linear algebra primitives
(`linalg_core`), task-sequence constructions (`task_gen`), sequential
learners with replay (`learner`), forgetting metrics and closed forms
(`metrics`), and independent Monte Carlo oracles (`oracle`); `errors`
holds the exception types they raise. The root exports these six modules
and nothing else, so each name has one home. The `cli_harness` module
wires them into reproducible command-line experiments and is not imported
here.
"""

from . import errors, learner, linalg_core, metrics, oracle, task_gen

__version__ = "0.1.0"

__all__ = ["errors", "learner", "linalg_core", "metrics", "oracle", "task_gen", "__version__"]
