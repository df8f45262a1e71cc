"""Command-line harness for the replay experiments.

Each subcommand wires constructions, learners, and metrics into one
experiment and writes a CSV (plus a JSON sidecar echoing the resolved
configuration, any closed-form predictions, and deterministic diagnostics).
Empirical columns always sit next to their analytic counterparts with an
absolute-deviation column.
Wallclock goes to stderr only, so reruns with the same seed are
bit-identical on disk.

Exit codes: 0 success, 2 configuration error or unwritable output, 3 failed
consistency check or other library error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__
from .errors import (
    ConfigurationError,
    ConsistencyFailure,
    ContinualReplayError,
    InvalidParameters,
)
from .learner import (
    GdConfig,
    augment_with_replay,
    fit_closed_form,
    run_sequence,
    select_replay,
)
from .linalg_core import Subspace, orthonormal_basis
from .metrics import (
    SQRT2_OVER_2,
    benign_replay_certificate,
    expected_forgetting_closed_form,
    expected_forgetting_trace_form,
    expected_replay_forgetting_two_tasks,
    forgetting_train,
    replay_null_projector,
)
from .oracle import (
    OracleVerdict,
    oracle_claim_c2,
    oracle_min_norm,
    oracle_projector_sandwich,
    oracle_random_projection_tails,
)
from .task_gen import (
    EPSILON_3D,
    Task,
    TaskSequence,
    make_angle_pair,
    make_avg_case_highdim,
    make_worst_case,
    sample_task,
)

# Thm 3.3 regime constants; validated before the high-dimensional command runs.
C1, C2, C3 = 120, 15, 97

_GD_EXACTISH = GdConfig(epochs=100000, convergence_tol=1e-11)
# Replay-augmented sweep tasks can be arbitrarily ill-conditioned in tail
# draws, where no epoch budget resolves the near-singular direction; the
# CSV's max_fit_residual reports how far each fit got.
_GD_SWEEP = replace(_GD_EXACTISH, convergence_tol=1e-1)


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved parameters of one CLI invocation."""

    command: str
    params: dict


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    rows: list[dict]
    analytic_predictions: dict
    # Deterministic counts that explain the run's numbers, for the sidecar.
    diagnostics: dict = field(default_factory=dict)


def _stream(seed: int, command: str, *extra: int) -> np.random.Generator:
    # Sub-streams are derived from (seed, command id, trial index).
    return np.random.default_rng([seed, _COMMANDS[command].stream, *extra])


def _check_seed(seed: int) -> int:
    if seed < 0:
        raise InvalidParameters("seed must be a non-negative integer")
    return int(seed)


def _require(ok: bool, message: str) -> None:
    # An explicit raise, unlike assert, survives python -O.
    if not ok:
        raise ConsistencyFailure(message)


def _span_loss(s1: Subspace, w: np.ndarray, w_star: np.ndarray) -> float:
    # E_x[(x.(w - w*))^2] over the task's sampling law = ||Pi_1 (w - w*)||^2
    return float(np.sum((s1.basis.T @ (w - w_star)) ** 2))


def _projector_train_forgetting(seq: TaskSequence) -> float:
    """Train-row forgetting computed by pure projector cascade.

    Independent of the learner: pushes w* through the null space of each
    task's row span (a replay-augmented sequence carries its memory in the
    final task) and averages the squared training residuals it leaves
    behind on the earlier tasks.
    """
    r = seq.w_star.copy()
    for task in seq.tasks:
        s = orthonormal_basis(task.X)
        r = r - s.basis @ (s.basis.T @ r)
    losses = [float(np.sum((task.X @ r) ** 2)) for task in seq.tasks[:-1]]
    return sum(losses) / len(losses)


# ---------------------------------------------------------------- commands


def cmd_worst_case(cfg: ExperimentConfig) -> ExperimentResult:
    """Worst-case sequence with and without single-sample replay.

    Emits the empirical forgetting of the plain run, the run replaying the
    mixed second-task row, and the run replaying the repeated row, next to
    two analytic references: the stated closed forms 3a^2/(28(T-1)) and
    9a^2/196, and an independent projector-cascade value computed from the
    task spans alone. The command checks against the cascade (and the
    stated no-replay form, which matches it); the stated replay constant is
    emitted with its deviation column so the discrepancy stays visible.
    """
    p = cfg.params
    T, d, solver, seed = p["T"], p["d"], p["solver"], p["seed"]
    seq, (x2, y2) = make_worst_case(T, d)
    a_sq = 6.0 / 7.0  # default w* = v2
    stated_no = 3.0 * a_sq / (28.0 * (T - 1))
    stated_replay = 9.0 * a_sq / 196.0
    tol = 1e-9 if solver == "closed_form" else 1e-4
    mixed = seq.tasks[T - 2]  # rows x1, x2

    def run(replayed: TaskSequence):
        w = run_sequence(replayed, solver, _GD_EXACTISH)
        return w, forgetting_train(seq, w), _projector_train_forgetting(replayed)

    w_plain, f_plain, proj_no = run(seq)
    w_x2, f_x2, proj_x2 = run(augment_with_replay(seq, Task(x2[None], [y2])))
    w_x1, f_x1, proj_x1 = run(augment_with_replay(seq, Task(mixed.X[:1], mixed.y[:1])))
    drift_x1 = float(np.linalg.norm(w_x1 - w_plain))

    _require(abs(f_plain - stated_no) <= tol, f"no-replay forgetting off: {f_plain}")
    _require(abs(f_plain - proj_no) <= tol, "learner vs projector cascade (no replay)")
    _require(abs(f_x2 - proj_x2) <= tol, "learner vs projector cascade (replay x2)")
    _require(abs(f_x1 - proj_x1) <= tol, "learner vs projector cascade (replay x1)")
    _require(drift_x1 <= tol, f"replaying the repeated row moved w_T by {drift_x1}")

    rows = []
    for variant, f, stated, proj, drift in (
        ("no_replay", f_plain, stated_no, proj_no, 0.0),
        ("replay_x2", f_x2, stated_replay, proj_x2, float(np.linalg.norm(w_x2 - w_plain))),
        ("replay_x1", f_x1, stated_no, proj_x1, drift_x1),
    ):
        rows.append(
            {
                "variant": variant,
                "T": T,
                "d": d,
                "solver": solver,
                "forgetting": f,
                "analytic_stated": stated,
                "abs_dev_stated": abs(f - stated),
                "analytic_projector": proj,
                "abs_dev_projector": abs(f - proj),
                "final_iterate_drift": drift,
                "seed": seed,
            }
        )
    analytic = {
        "a_sq": a_sq,
        "stated_no_replay": stated_no,
        "stated_replay_x2": stated_replay,
        "projector_no_replay": proj_no,
        "projector_replay_x2": proj_x2,
    }
    return ExperimentResult(cfg, rows, analytic)


def _avg_case(cfg: ExperimentConfig, d: int) -> tuple[float, dict]:
    """The shared body of both avg-case commands.

    Builds the two-task case, checks the exact no-replay forgetting (the
    projector cascade) against eps^2 (1 - eps^2) (a = 1 for the default w*),
    and runs the replay kernel on the command's stream. Returns (that
    formula, the kernel's mean and standard error).
    """
    p = cfg.params
    epsilon = p["epsilon"]
    s1, s2, w_star = make_avg_case_highdim(d, epsilon)
    base = epsilon**2 * (1.0 - epsilon**2)
    exact = expected_forgetting_closed_form([s1, s2], w_star)
    _require(abs(exact - base) <= 1e-12, "construction no longer matches its closed form")
    rng = _stream(p["seed"], cfg.command)
    res = expected_replay_forgetting_two_tasks(s1, s2, w_star, p["m"], p["trials"], rng)
    return base, res


def cmd_avg_case_3d(cfg: ExperimentConfig) -> ExperimentResult:
    """Monte Carlo replay expectation vs the exact no-replay value in 3D."""
    p = cfg.params
    epsilon, m, trials, seed = p["epsilon"], p["m"], p["trials"], p["seed"]
    if trials < 10**3:
        raise InvalidParameters("avg-case-3d needs trials >= 10^3")
    base, res = _avg_case(cfg, 3)
    ratio = res["mean"] / base
    ratio_se = res["std_err"] / base
    row = {
        "case": "avg_case_3d",
        "epsilon": epsilon,
        "m": m,
        "trials": trials,
        "replay_mean": res["mean"],
        "replay_std_err": res["std_err"],
        "no_replay_analytic": base,
        "ratio": ratio,
        "ratio_std_err": ratio_se,
        "bound": 1.4,
        "abs_dev_bound": abs(ratio - 1.4),
        "meets_bound_3sigma": bool(ratio + 3.0 * ratio_se >= 1.4),
        "exceeds_one_3sigma": bool(ratio - 3.0 * ratio_se > 1.0),
        "seed": seed,
    }
    analytic = {"no_replay": base, "ratio_lower_bound": 1.4}
    return ExperimentResult(cfg, [row], analytic)


def _check_highdim_constraints(d: int, m: int, epsilon: float) -> None:
    if not C1 < d:
        raise InvalidParameters(f"requires c1 < d: {C1} >= {d}")
    if not C2 * m < d - 1:
        raise InvalidParameters(f"requires c2*m < d-1: {C2 * m} >= {d - 1}")
    # Compared in log space: exp(m ln m) overflows a float from m = 144 on.
    if not math.log(d - 1) + math.log(C3) < m * math.log(m):
        raise InvalidParameters(
            f"requires d-1 < exp(m ln m)/c3: {d - 1} >= {math.exp(m * math.log(m)) / C3}"
        )
    if not (0.0 < epsilon < 0.5):
        raise InvalidParameters(f"epsilon must be in (0, 1/2), got {epsilon}")


def cmd_avg_case_highdim(cfg: ExperimentConfig) -> ExperimentResult:
    """Replay vs no-replay expected forgetting in the high-dimensional regime."""
    p = cfg.params
    d, epsilon, m, trials, seed = p["d"], p["epsilon"], p["m"], p["trials"], p["seed"]
    _check_highdim_constraints(d, m, epsilon)
    base, res = _avg_case(cfg, d)
    row = {
        "case": "avg_case_highdim",
        "d": d,
        "m": m,
        "epsilon": epsilon,
        "trials": trials,
        "replay_mean": res["mean"],
        "replay_std_err": res["std_err"],
        "no_replay_analytic": base,
        "mean_minus_3se": res["mean"] - 3.0 * res["std_err"],
        "abs_dev_no_replay": abs(res["mean"] - base),
        "exceeds_no_replay_3sigma": bool(res["mean"] - 3.0 * res["std_err"] > base),
        "seed": seed,
    }
    analytic = {"no_replay": base}
    return ExperimentResult(cfg, [row], analytic)


def cmd_replay_sweep(cfg: ExperimentConfig) -> ExperimentResult:
    """Mean forgetting as a function of the replay-memory size m.

    Samples a fresh two-task sequence per trial (rows oversampled past the
    subspace rank so gradient descent stays well-conditioned; the spans,
    and hence every fixed point, are unchanged), draws m stored rows
    uniformly without replacement, and evaluates the exact per-iterate
    forgetting ||Pi_1 (w_2 - w*)||^2 for both solvers.
    """
    p = cfg.params
    d, epsilon, m_list, trials, seed = (
        p["d"],
        p["epsilon"],
        p["m_list"],
        p["trials"],
        p["seed"],
    )
    if not m_list:
        raise InvalidParameters("replay-sweep needs a nonempty m list")
    # The case name and the defaults that --d selects.
    case, eps, default_trials = (
        ("avg_case_3d", EPSILON_3D, 200) if d == 3 else ("avg_case_highdim", 0.4, 100)
    )
    eps = eps if epsilon is None else epsilon
    trials = default_trials if trials is None else trials
    s1, s2, w_star = make_avg_case_highdim(d, eps)
    if trials < 1:
        raise InvalidParameters("trials must be >= 1")
    n1 = s1.rank + max(3, s1.rank // 4)
    n2 = s2.rank + 2
    if max(m_list) > n1:
        raise InvalidParameters(f"m cannot exceed the {n1} stored first-task rows")
    base = expected_forgetting_closed_form([s1, s2], w_star)
    values: dict[tuple[int, str], list[float]] = {
        (m, solver): [] for m in m_list for solver in ("closed_form", "gd")
    }
    residuals: dict[tuple[int, str], float] = {key: 0.0 for key in values}
    for i in range(trials):
        rng = _stream(seed, "replay-sweep", i)
        t1 = sample_task(s1, n1, w_star, rng)
        t2 = sample_task(s2, n2, w_star, rng)
        seq = TaskSequence((t1, t2), w_star)
        for m in m_list:
            replayed = augment_with_replay(seq, select_replay(seq, m, rng))
            for solver in ("closed_form", "gd"):
                w2 = run_sequence(replayed, solver, _GD_SWEEP)
                values[(m, solver)].append(_span_loss(s1, w2, w_star))
                res = replayed.tasks[-1].residual(w2)  # the final task with its memory
                residuals[(m, solver)] = max(residuals[(m, solver)], res)
    rows = []
    for m in m_list:
        for solver in ("closed_form", "gd"):
            v = np.array(values[(m, solver)])
            mean = float(v.mean())
            se = float(v.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
            analytic = base if m == 0 else (0.0 if m >= s1.rank else float("nan"))
            rows.append(
                {
                    "case": case,
                    "solver": solver,
                    "m": m,
                    "trials": trials,
                    "epsilon": eps,
                    "mean_forgetting": mean,
                    "std_err": se,
                    "analytic_value": analytic,
                    "abs_dev_analytic": abs(mean - analytic)
                    if not math.isnan(analytic)
                    else float("nan"),
                    "no_replay_analytic": base,
                    "max_fit_residual": residuals[(m, solver)],
                    "seed": seed,
                }
            )
    analytic = {"no_replay": base, "full_span_replay": 0.0}
    # The sidecar echoes the defaults this command resolved from --d.
    resolved = replace(cfg, params={**p, "epsilon": eps, "trials": trials})
    return ExperimentResult(resolved, rows, analytic)


def cmd_angle_sweep(cfg: ExperimentConfig) -> ExperimentResult:
    """Forgetting of two rank-(d-1) tasks vs the angle between their nulls.

    The tasks are built directly from basis rows (no sampling noise), so
    the closed-form learner reproduces cos^2(theta) (1 - cos^2(theta))
    to machine precision; the empirical argmax must land within one grid
    step of pi/4.
    """
    p = cfg.params
    d, solver, seed, grid_points = p["d"], p["solver"], p["seed"], p["grid_points"]
    if grid_points < 3:
        raise InvalidParameters("angle sweep needs at least 3 grid points")
    if d < 2:
        raise InvalidParameters(f"angle sweep needs d >= 2, got {d}")
    thetas = np.linspace(0.0, math.pi / 2.0, grid_points)
    w_star = np.eye(d)[:, 0]  # equals the first null direction a1
    rows = []
    for theta in thetas:
        s1, s2 = make_angle_pair(float(theta), d)
        t1 = Task(X=s1.basis.T, y=s1.basis.T @ w_star)
        t2 = Task(X=s2.basis.T, y=s2.basis.T @ w_star)
        seq = TaskSequence((t1, t2), w_star)
        emp = _span_loss(s1, run_sequence(seq, solver, _GD_EXACTISH), w_star)
        c2t = math.cos(theta) ** 2
        analytic = c2t * (1.0 - c2t)
        rows.append(
            {
                "theta": float(theta),
                "empirical_forgetting": emp,
                "analytic_forgetting": analytic,
                "abs_dev": abs(emp - analytic),
                "solver": solver,
                "seed": seed,
            }
        )
    step = float(thetas[1] - thetas[0])
    argmax_theta = float(thetas[int(np.argmax([r["empirical_forgetting"] for r in rows]))])
    _require(
        abs(argmax_theta - math.pi / 4.0) <= step + 1e-12,
        f"peak at {argmax_theta}, expected pi/4 within one grid step",
    )
    analytic = {
        "argmax_theta": argmax_theta,
        "grid_step": step,
        "peak_value": 0.25,
    }
    return ExperimentResult(cfg, rows, analytic)


def cmd_benign_check(cfg: ExperimentConfig) -> ExperimentResult:
    """Random certified task pairs never gain forgetting from replay.

    Samples random pairs of subspaces with one- or two-dimensional null
    spaces, keeps those whose null-projector product passes the sqrt(2)/2
    certificate, and compares the trace-form expectation (over standard
    normal w*) with and without replay for 50 random replay subsets each.
    A subset is vacuous when its replay fills the whole space (the replay
    null projector has trace below 1/2): forgetting is then 0 and the
    certificate is not tested. The sidecar's diagnostics count them.
    """
    p = cfg.params
    d, trials, seed = p["d"], p["trials"], p["seed"]
    if trials < 1:
        raise InvalidParameters("trials must be >= 1")
    if d < 4:
        raise InvalidParameters("benign-check needs d >= 4")
    subsets = 50
    rows = []
    certified_count = 0
    violations_total = 0
    vacuous_subsets = 0
    pairs_all_vacuous = 0
    for i in range(trials):
        rng = _stream(seed, "benign-check", i)
        k1 = d - int(rng.integers(1, 3))
        k2 = d - int(rng.integers(1, 3))
        s1 = orthonormal_basis(rng.standard_normal((k1, d)))
        s2 = orthonormal_basis(rng.standard_normal((k2, d)))
        cert = benign_replay_certificate(s1, s2)
        base = expected_forgetting_trace_form(s1, s2)
        checked = 0
        violations = 0
        worst_gain = -math.inf
        if cert["certified"]:
            certified_count += 1
            vacuous = 0
            for _ in range(subsets):
                m = 1 + int(rng.integers(0, s1.rank))
                Z = rng.standard_normal((m, s1.rank)) / math.sqrt(s1.rank)
                proj = replay_null_projector(s2, Z @ s1.basis.T)
                if proj.matrix.trace() < 0.5:
                    vacuous += 1
                val = expected_forgetting_trace_form(s1, s2, proj)
                worst_gain = max(worst_gain, val - base)
                if val > base + 1e-12:
                    violations += 1
            checked = subsets
            vacuous_subsets += vacuous
            pairs_all_vacuous += int(vacuous == subsets)
        violations_total += violations
        rows.append(
            {
                "pair": i,
                "d": d,
                "rank1": k1,
                "rank2": k2,
                "op_norm": cert["op_norm_value"],
                "certified": cert["certified"],
                "base_trace": base,
                "worst_replay_gain": worst_gain if checked else float("nan"),
                "subsets_checked": checked,
                "violations": violations,
                "seed": seed,
            }
        )
    _require(violations_total == 0, f"{violations_total} certified pairs gained forgetting")
    analytic = {
        "certificate_threshold": SQRT2_OVER_2,
        "certified_pairs": certified_count,
        "violations": violations_total,
    }
    diagnostics = {"vacuous_subsets": vacuous_subsets, "pairs_all_vacuous": pairs_all_vacuous}
    return ExperimentResult(cfg, rows, analytic, diagnostics)


def cmd_oracles(cfg: ExperimentConfig) -> ExperimentResult:
    """Run every oracle and emit one verdict row per check."""
    p = cfg.params
    trials, seed = p["trials"], p["seed"]
    if trials < 10**4:
        raise InvalidParameters("oracle runs need trials >= 10^4")
    rng = _stream(seed, "oracles")
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 11))
        n = int(rng.integers(1, d + 1))
        X = rng.standard_normal((n, d))
        w_true = rng.standard_normal(d)
        w_prev = rng.standard_normal(d)
        w_kkt = oracle_min_norm(X, X @ w_true, w_prev)
        w_svd = fit_closed_form(w_prev, Task(X=X, y=X @ w_true))
        worst = max(worst, float(np.linalg.norm(w_kkt - w_svd)))
    verdicts = []
    verdicts.append(
        OracleVerdict(
            name="min_norm_crosscheck",
            observed=worst,
            bound_or_expected=1e-8,
            passed=bool(worst <= 1e-8),
            trials=100,
            seed=seed,
        )
    )
    verdicts.append(oracle_claim_c2(trials, seed))
    for d_m in ((152, 10), (31, 5)):
        verdicts.extend(oracle_random_projection_tails(*d_m, trials, seed))
    verdicts.append(oracle_projector_sandwich(152, 10, 0.4, 10**3, seed))
    rows = [
        {
            "name": v.name,
            "observed": v.observed,
            "bound": v.bound_or_expected,
            "pass": v.passed,
            "trials": v.trials,
            "seed": v.seed,
        }
        for v in verdicts
    ]
    _require(all(v.passed for v in verdicts), "an oracle check failed")
    analytic = {"verdicts": len(rows)}
    return ExperimentResult(cfg, rows, analytic)


# ------------------------------------------------------------------ plumbing


def _parse_m_list(text: str) -> list[int]:
    try:
        values = [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise InvalidParameters(f"bad m list {text!r}") from exc
    if any(v < 0 for v in values):
        raise InvalidParameters("replay sizes must be non-negative")
    for i, v in enumerate(values):
        if v in values[:i]:
            raise InvalidParameters(f"replay size {v} is listed twice")
    return values


# Every flag a subcommand may read: params key -> (option, argparse keywords).
# Each command also takes --seed and --out.
_FLAGS = {
    "T": ("--T", {"type": int}),
    "d": ("--d", {"type": int}),
    "epsilon": ("--epsilon", {"type": float}),
    "m": ("--m", {"help": "replay size"}),
    "m_list": ("--m", {"help": "replay sizes, comma separated"}),
    "trials": ("--trials", {"type": int}),
    "solver": (
        "--solver",
        {
            "choices": ("closed", "gd"),
            "help": "closed-form minimum-norm updates or gradient descent",
        },
    ),
    "grid_points": ("--grid-points", {"type": int, "help": "grid resolution on [0, pi/2]"}),
}


@dataclass(frozen=True)
class Command:
    """One subcommand: what the parser, the random streams and the CSV need."""

    stream: int  # part of every random stream's seed, so never renumbered
    handler: str  # name of the cmd_* function, looked up when the command runs
    help: str
    columns: tuple[str, ...]  # the CSV header, also listed by --help
    flags: dict  # _FLAGS key -> default, for the flags this command reads


_COMMANDS = {
    "worst-case": Command(
        0,
        "cmd_worst_case",
        "repeated-row sequence where replay backfires",
        (
            "variant", "T", "d", "solver", "forgetting", "analytic_stated", "abs_dev_stated",
            "analytic_projector", "abs_dev_projector", "final_iterate_drift", "seed",
        ),
        {"T": 10, "d": 3, "solver": "closed"},
    ),
    "avg-case-3d": Command(
        1,
        "cmd_avg_case_3d",
        "3D two-task replay expectation vs closed form",
        (
            "case", "epsilon", "m", "trials", "replay_mean", "replay_std_err",
            "no_replay_analytic", "ratio", "ratio_std_err", "bound", "abs_dev_bound",
            "meets_bound_3sigma", "exceeds_one_3sigma", "seed",
        ),
        {"epsilon": EPSILON_3D, "m": "1", "trials": 10**5},
    ),
    "avg-case-highdim": Command(
        2,
        "cmd_avg_case_highdim",
        "high-dimensional two-task replay expectation",
        (
            "case", "d", "m", "epsilon", "trials", "replay_mean", "replay_std_err",
            "no_replay_analytic", "mean_minus_3se", "abs_dev_no_replay",
            "exceeds_no_replay_3sigma", "seed",
        ),
        {"d": 152, "epsilon": 0.4, "m": "10", "trials": 10**4},
    ),
    "replay-sweep": Command(
        3,
        "cmd_replay_sweep",
        "forgetting vs replay-memory size, closed-form and gradient-descent lanes",
        (
            "case", "solver", "m", "trials", "epsilon", "mean_forgetting", "std_err",
            "analytic_value", "abs_dev_analytic", "no_replay_analytic", "max_fit_residual",
            "seed",
        ),
        {"d": 3, "epsilon": None, "m_list": "0,1,2", "trials": None},
    ),
    "angle-sweep": Command(
        4,
        "cmd_angle_sweep",
        "forgetting vs angle between task null spaces",
        ("theta", "empirical_forgetting", "analytic_forgetting", "abs_dev", "solver", "seed"),
        {"d": 3, "solver": "closed", "grid_points": 91},
    ),
    "benign-check": Command(
        5,
        "cmd_benign_check",
        "certified pairs never gain from replay",
        (
            "pair", "d", "rank1", "rank2", "op_norm", "certified", "base_trace",
            "worst_replay_gain", "subsets_checked", "violations", "seed",
        ),
        {"d": 6, "trials": 1000},
    ),
    "oracles": Command(
        6,
        "cmd_oracles",
        "run all numeric oracles",
        ("name", "observed", "bound", "pass", "trials", "seed"),
        {"trials": 10**5},
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="continual-replay",
        description="Replay experiments for over-parameterized continual linear regression.",
        epilog=(
            "Exit codes: 0 success, 2 configuration error or unwritable output, "
            "3 failed consistency check or other library error."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, spec in _COMMANDS.items():
        sp = sub.add_parser(
            name, help=spec.help, epilog=f"CSV columns: {','.join(spec.columns)}"
        )
        for key, default in spec.flags.items():
            option, options = _FLAGS[key]
            sp.add_argument(option, dest=key, default=default, **options)
        sp.add_argument("--seed", type=int, default=42)
        sp.add_argument("--out", default=None, help="CSV output path")
    return parser


def _resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    params = {key: getattr(args, key) for key in _COMMANDS[args.command].flags}
    params["seed"] = _check_seed(args.seed)
    if "solver" in params:
        params["solver"] = "closed_form" if params["solver"] == "closed" else "gd"
    if "m" in params:
        params["m"] = _single_m(_parse_m_list(params["m"]))
    if "m_list" in params:
        params["m_list"] = _parse_m_list(params["m_list"])
    return ExperimentConfig(command=args.command, params=params)


def _single_m(m_list: list[int]) -> int:
    if len(m_list) != 1:
        raise InvalidParameters("this command takes a single --m value")
    if m_list[0] < 1:
        raise InvalidParameters("replay size must be >= 1 here")
    return m_list[0]


def _emit(result: ExperimentResult, out: str | None) -> None:
    columns = _COMMANDS[result.config.command].columns
    if out is None:
        writer = csv.DictWriter(sys.stdout, fieldnames=columns)
        writer.writeheader()
        writer.writerows(result.rows)
        return
    with open(out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        writer.writerows(result.rows)
    sidecar = out[: -len(".csv")] + ".config.json" if out.endswith(".csv") else out + ".config.json"
    payload = {
        "command": result.config.command,
        "params": result.config.params,
        "analytic_predictions": result.analytic_predictions,
        "diagnostics": result.diagnostics,
        "version": __version__,
    }
    with open(sidecar, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.out is not None:
        # Checked before the run, so a bad path does not cost a whole experiment.
        out_dir = os.path.dirname(args.out) or "."
        if not (os.path.isdir(out_dir) and os.access(out_dir, os.W_OK)):
            print(f"cannot write output: {out_dir!r} is not writable", file=sys.stderr)
            return 2
    try:
        cfg = _resolve_config(args)
        t0 = time.perf_counter()
        # Through the module namespace, so a wrapper installed on a cmd_*
        # attribute (a profiler, a test double) is the one that runs.
        result = globals()[_COMMANDS[cfg.command].handler](cfg)
        wallclock = time.perf_counter() - t0
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except ConsistencyFailure as exc:
        print(f"assertion failed: {exc}", file=sys.stderr)
        return 3
    except ContinualReplayError as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    try:
        _emit(result, args.out)
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 2
    print(f"[{cfg.command}] wallclock {wallclock:.3f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
