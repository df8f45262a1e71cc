"""Simulator and analysis library for sample replay in over-parameterized
continual linear regression.

The package splits into five layers: exact linear algebra primitives
(`linalg_core`), task-sequence constructions (`task_gen`), sequential
learners with replay (`learner`), forgetting metrics and closed forms
(`metrics`), and independent Monte Carlo oracles (`oracle`). The
`cli_harness` module wires them into reproducible command-line
experiments.
"""

from .errors import (
    ConfigurationError,
    ConsistencyFailure,
    ContinualReplayError,
    DimensionMismatch,
    InconsistentSystem,
    InvalidParameters,
    NonFiniteInput,
    NotConverged,
    RankDeficiency,
    TooFewTasks,
)
from .learner import (
    GdConfig,
    augment_with_replay,
    fit_closed_form,
    fit_gd,
    run_sequence,
    select_replay,
)
from .linalg_core import (
    Projector,
    Subspace,
    min_norm_solve,
    op_norm,
    orthonormal_basis,
    principal_angles,
)
from .metrics import (
    benign_replay_certificate,
    expected_forgetting_closed_form,
    expected_forgetting_trace_form,
    expected_replay_forgetting_two_tasks,
    forgetting_test_mean,
    forgetting_train,
    replay_null_projector,
)
from .oracle import (
    OracleVerdict,
    claim_c2_statistics,
    oracle_claim_c2,
    oracle_min_norm,
    oracle_projector_sandwich,
    oracle_random_projection_tails,
    projection_tail_bound,
)
from .task_gen import (
    EPSILON_3D,
    Task,
    TaskSequence,
    make_angle_pair,
    make_avg_case_3d,
    make_avg_case_highdim,
    make_worst_case,
    sample_task,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigurationError",
    "ConsistencyFailure",
    "ContinualReplayError",
    "DimensionMismatch",
    "InconsistentSystem",
    "InvalidParameters",
    "NonFiniteInput",
    "NotConverged",
    "RankDeficiency",
    "TooFewTasks",
    "GdConfig",
    "augment_with_replay",
    "fit_closed_form",
    "fit_gd",
    "run_sequence",
    "select_replay",
    "Projector",
    "Subspace",
    "min_norm_solve",
    "op_norm",
    "orthonormal_basis",
    "principal_angles",
    "benign_replay_certificate",
    "expected_forgetting_closed_form",
    "expected_forgetting_trace_form",
    "expected_replay_forgetting_two_tasks",
    "forgetting_test_mean",
    "forgetting_train",
    "replay_null_projector",
    "OracleVerdict",
    "claim_c2_statistics",
    "oracle_claim_c2",
    "oracle_min_norm",
    "oracle_projector_sandwich",
    "oracle_random_projection_tails",
    "projection_tail_bound",
    "EPSILON_3D",
    "Task",
    "TaskSequence",
    "make_angle_pair",
    "make_avg_case_3d",
    "make_avg_case_highdim",
    "make_worst_case",
    "sample_task",
    "__version__",
]
