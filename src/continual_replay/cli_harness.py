"""Command-line harness for the replay experiments.

Each subcommand wires constructions, learners, and metrics into one
experiment and writes a CSV (plus a JSON sidecar echoing the resolved
configuration, any closed-form predictions, and deterministic diagnostics).
Empirical columns always sit next to their analytic counterparts with an
absolute-deviation column, and a column named after a resolved parameter
echoes the sidecar's value.
Wallclock goes to stderr only, so reruns with the same seed are
bit-identical on disk.

Exit codes: 0 success, 2 configuration error or unwritable output, 3 failed
consistency check or other library error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .errors import ConsistencyFailure, ContinualReplayError, InvalidParameters
from .learner import (
    SOLVERS,
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
    expected_replay_forgetting_rank_one,
    expected_replay_forgetting_two_tasks,
    forgetting_train,
    replay_null_projector,
)
from .oracle import (
    CLAIM_C2_BOUND,
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


@dataclass(frozen=True)
class ExperimentResult:
    rows: list[dict]
    analytic_predictions: dict
    # Deterministic counts that explain the run's numbers, for the sidecar.
    diagnostics: dict = field(default_factory=dict)
    # Params the handler resolved itself; they override the parsed ones.
    resolved: dict = field(default_factory=dict)


def _stream(seed: int, command: str, *extra: int) -> np.random.Generator:
    # The one place a run's --seed becomes random numbers, as sub-streams of
    # (seed, command id, index). Index 0 is no index: SeedSequence pads with 0s.
    return np.random.default_rng([seed, _COMMANDS[command].stream, *extra])


def _require(ok: bool, message: str) -> None:
    # An explicit raise, unlike assert, survives python -O.
    if not ok:
        raise ConsistencyFailure(message)


def _span_loss(s1: Subspace, w: np.ndarray, w_star: np.ndarray) -> float:
    # Summed over k1 fresh rows x under sample_task's law (the fresh-sample
    # loss of forgetting_test_mean), E[(x.(w - w*))^2] = ||Pi_1 (w - w*)||^2;
    # one row gives 1/k1 of it.
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


def cmd_worst_case(T: int, d: int) -> ExperimentResult:
    """Worst-case sequence with and without single-sample replay.

    Emits, for each solver lane, the empirical forgetting of the plain run,
    the run replaying the mixed second-task row, and the run replaying the
    repeated row, next to two analytic references: the stated closed forms
    3a^2/(28(T-1)) and 9a^2/196, and an independent projector-cascade value
    computed from the task spans alone. Each lane is checked against the
    cascade (and the stated no-replay form, which matches it); the stated
    replay constant is emitted with its deviation column so the discrepancy
    stays visible. The construction is fixed, so the command takes no seed.
    """
    seq = make_worst_case(T, d)
    a_sq = 6.0 / 7.0  # default w* = v2
    stated_no = 3.0 * a_sq / (28.0 * (T - 1))
    stated_replay = 9.0 * a_sq / 196.0
    tol = 1e-9
    mixed = seq.tasks[T - 2]  # rows x1, x2
    variants = (
        ("no_replay", seq, stated_no),
        ("replay_x2", augment_with_replay(seq, Task(mixed.X[1:], mixed.y[1:])), stated_replay),
        ("replay_x1", augment_with_replay(seq, Task(mixed.X[:1], mixed.y[:1])), stated_no),
    )
    cascade = [_projector_train_forgetting(replayed) for _, replayed, _ in variants]
    rows = []
    for solver in SOLVERS:
        ws = [run_sequence(replayed, solver) for _, replayed, _ in variants]
        fs = [forgetting_train(seq, w) for w in ws]
        drifts = [float(np.linalg.norm(w - ws[0])) for w in ws]
        _require(abs(fs[0] - stated_no) <= tol, f"{solver}: no-replay forgetting off: {fs[0]}")
        _require(drifts[2] <= tol, f"{solver}: replaying the repeated row moved w_T {drifts[2]}")
        for (variant, _, stated), f, proj, drift in zip(variants, fs, cascade, drifts):
            _require(abs(f - proj) <= tol, f"{solver}: learner vs projector cascade ({variant})")
            rows.append(
                {
                    "variant": variant,
                    "solver": solver,
                    "forgetting": f,
                    "analytic_stated": stated,
                    "abs_dev_stated": abs(f - stated),
                    "analytic_projector": proj,
                    "abs_dev_projector": abs(f - proj),
                    "final_iterate_drift": drift,
                }
            )
    analytic = {
        "a_sq": a_sq,
        "stated_no_replay": stated_no,
        "stated_replay_x2": stated_replay,
        "projector_no_replay": cascade[0],
        "projector_replay_x2": cascade[1],
    }
    return ExperimentResult(rows, analytic)


def _two_task(d: int, epsilon: float) -> tuple[Subspace, Subspace, np.ndarray, float]:
    """The two-task case of the avg-case and sweep commands, gated.

    Builds the case, checks its exact no-replay forgetting (the projector
    cascade) against eps^2 (1 - eps^2) (a = 1 for the default w*), and
    returns (s1, s2, w*, that formula). A formula that underflows to 0
    (eps below about 1.6e-162) is a configuration error: every value the
    commands compare with it is 0 too.
    """
    s1, s2, w_star = make_avg_case_highdim(d, epsilon)
    base = epsilon**2 * (1.0 - epsilon**2)
    if base == 0.0:
        raise InvalidParameters(f"epsilon {epsilon} is too small: eps^2 (1 - eps^2) is 0")
    exact = expected_forgetting_closed_form([s1, s2], w_star)
    _require(abs(exact - base) <= 1e-12, "construction no longer matches its closed form")
    return s1, s2, w_star, base


def _avg_case(
    command: str, d: int, epsilon: float, m: int, trials: int, seed: int
) -> tuple[dict, dict]:
    """The avg-case commands' shared body: the gated two-task case and the
    replay kernel on the command's stream. Returns the CSV columns and the
    sidecar predictions both commands emit; ``replay_exact`` is the exact
    value the kernel estimates, the rank-one Beta integral with k1 = d - 1.
    """
    s1, s2, w_star, base = _two_task(d, epsilon)
    res = expected_replay_forgetting_two_tasks(s1, s2, w_star, m, trials, _stream(seed, command))
    row = {
        "case": command.replace("-", "_"),
        "replay_mean": res["mean"],
        "replay_std_err": res["std_err"],
        "no_replay_analytic": base,
    }
    exact = expected_replay_forgetting_rank_one(s1.rank, m, epsilon)
    return row, {"no_replay": base, "replay_exact": exact}


def cmd_avg_case_3d(epsilon: float, m: int, trials: int, seed: int) -> ExperimentResult:
    """Monte Carlo replay expectation vs the exact no-replay value in 3D."""
    if trials < 10**3:
        raise InvalidParameters("avg-case-3d needs trials >= 10^3")
    row, analytic = _avg_case("avg-case-3d", 3, epsilon, m, trials, seed)
    ratio = row["replay_mean"] / row["no_replay_analytic"]
    ratio_se = row["replay_std_err"] / row["no_replay_analytic"]
    row.update(
        ratio=ratio,
        ratio_std_err=ratio_se,
        bound=CLAIM_C2_BOUND,
        abs_dev_bound=abs(ratio - CLAIM_C2_BOUND),
        meets_bound_3sigma=bool(ratio + 3.0 * ratio_se >= CLAIM_C2_BOUND),
        exceeds_one_3sigma=bool(ratio - 3.0 * ratio_se > 1.0),
    )
    return ExperimentResult([row], {**analytic, "ratio_lower_bound": CLAIM_C2_BOUND})


def _check_highdim_constraints(d: int, m: int, epsilon: float) -> None:
    if m < 1:
        raise InvalidParameters(f"replay size must be >= 1, got {m}")
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


def cmd_avg_case_highdim(
    d: int, epsilon: float, m: int, trials: int, seed: int
) -> ExperimentResult:
    """Replay vs no-replay expected forgetting in the high-dimensional regime."""
    _check_highdim_constraints(d, m, epsilon)
    row, analytic = _avg_case("avg-case-highdim", d, epsilon, m, trials, seed)
    mean, se, base = row["replay_mean"], row["replay_std_err"], row["no_replay_analytic"]
    row.update(
        mean_minus_3se=mean - 3.0 * se,
        abs_dev_no_replay=abs(mean - base),
        exceeds_no_replay_3sigma=bool(mean - 3.0 * se > base),
    )
    return ExperimentResult([row], analytic)


def cmd_replay_sweep(
    d: int, epsilon: float | None, m_list: list[int], trials: int | None, seed: int
) -> ExperimentResult:
    """Mean forgetting as a function of the replay-memory size m.

    Samples a fresh two-task sequence per trial (rows oversampled past the
    subspace rank so gradient descent stays well-conditioned; the spans,
    and hence every fixed point, are unchanged), draws m stored rows
    uniformly without replacement, and evaluates the exact per-iterate
    forgetting ||Pi_1 (w_2 - w*)||^2 for both solvers, which must agree
    within 1e-9 on every trial and m. ``analytic_value`` is its exact
    expectation: eps^2 (1 - eps^2) without replay, the rank-one Beta
    integral for 0 < m < k1, and 0 once the memory spans task 1.
    """
    if not m_list:
        raise InvalidParameters("replay-sweep needs a nonempty m list")
    # The case name and the defaults that --d selects.
    case, eps, default_trials = (
        ("avg_case_3d", EPSILON_3D, 200) if d == 3 else ("avg_case_highdim", 0.4, 100)
    )
    eps = eps if epsilon is None else epsilon
    trials = default_trials if trials is None else trials
    s1, s2, w_star, base = _two_task(d, eps)
    if trials < 1:
        raise InvalidParameters("trials must be >= 1")
    n1 = s1.rank + max(3, s1.rank // 4)
    n2 = s2.rank + 2
    if max(m_list) > n1:
        raise InvalidParameters(f"m cannot exceed the {n1} stored first-task rows")
    values: dict[tuple[int, str], list[float]] = {
        (m, solver): [] for m in m_list for solver in SOLVERS
    }
    residuals: dict[tuple[int, str], float] = {key: 0.0 for key in values}
    for i in range(trials):
        rng = _stream(seed, "replay-sweep", i)
        t1 = sample_task(s1, n1, w_star, rng)
        t2 = sample_task(s2, n2, w_star, rng)
        seq = TaskSequence((t1, t2), w_star)
        for m in m_list:
            replayed = augment_with_replay(seq, select_replay(seq, m, rng))
            for solver in SOLVERS:
                w2 = run_sequence(replayed, solver)
                values[(m, solver)].append(_span_loss(s1, w2, w_star))
                res = replayed.tasks[-1].residual(w2)  # the final task with its memory
                residuals[(m, solver)] = max(residuals[(m, solver)], res)
            gap = abs(values[(m, "gd")][-1] - values[(m, "closed_form")][-1])
            _require(gap <= 1e-9, f"gd: m = {m}, trial {i}: lanes differ by {gap:.3e} > 1e-9")
    rows = []
    for m in m_list:
        analytic = base if m == 0 else expected_replay_forgetting_rank_one(s1.rank, m, eps)
        for solver in SOLVERS:
            v = np.array(values[(m, solver)])
            mean = float(v.mean())
            se = float(v.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
            rows.append(
                {
                    "case": case,
                    "solver": solver,
                    "m": m,
                    "mean_forgetting": mean,
                    "std_err": se,
                    "analytic_value": analytic,
                    "abs_dev_analytic": abs(mean - analytic),
                    "no_replay_analytic": base,
                    "max_fit_residual": residuals[(m, solver)],
                }
            )
    analytic = {"no_replay": base, "full_span_replay": 0.0}
    # The sidecar, and so the CSV's epsilon and trials, echo the defaults
    # this command resolved from --d.
    return ExperimentResult(rows, analytic, resolved={"epsilon": eps, "trials": trials})


def cmd_angle_sweep(d: int, grid_points: int) -> ExperimentResult:
    """Forgetting of two rank-(d-1) tasks vs the angle between their nulls.

    The tasks are built directly from basis rows (no sampling noise), so
    both solver lanes reproduce cos^2(theta) (1 - cos^2(theta)); in each
    lane the empirical argmax must land within one grid step of pi/4. The
    sidecar's argmax is the closed-form lane's. The construction draws
    nothing, so the command takes no seed.
    """
    if grid_points < 3:
        raise InvalidParameters("angle sweep needs at least 3 grid points")
    if d < 2:
        raise InvalidParameters(f"angle sweep needs d >= 2, got {d}")
    thetas = np.linspace(0.0, math.pi / 2.0, grid_points)
    step = float(thetas[1] - thetas[0])
    w_star = np.eye(d)[:, 0]  # equals the first null direction a1
    cases = []
    for theta in thetas:
        s1, s2 = make_angle_pair(float(theta), d)
        t1 = Task(X=s1.basis.T, y=s1.basis.T @ w_star)
        t2 = Task(X=s2.basis.T, y=s2.basis.T @ w_star)
        cases.append((float(theta), s1, TaskSequence((t1, t2), w_star)))
    rows = []
    argmax_theta = {}
    for solver in SOLVERS:
        emps = [_span_loss(s1, run_sequence(seq, solver), w_star) for _, s1, seq in cases]
        argmax_theta[solver] = cases[int(np.argmax(emps))][0]
        _require(
            abs(argmax_theta[solver] - math.pi / 4.0) <= step + 1e-12,
            f"{solver}: peak at {argmax_theta[solver]}, expected pi/4 within one grid step",
        )
        for (theta, _, _), emp in zip(cases, emps):
            c2t = math.cos(theta) ** 2
            analytic = c2t * (1.0 - c2t)
            rows.append(
                {
                    "theta": theta,
                    "empirical_forgetting": emp,
                    "analytic_forgetting": analytic,
                    "abs_dev": abs(emp - analytic),
                    "solver": solver,
                }
            )
    analytic = {
        "argmax_theta": argmax_theta["closed_form"],
        "grid_step": step,
        "peak_value": 0.25,
    }
    return ExperimentResult(rows, analytic)


def cmd_benign_check(d: int, trials: int, seed: int) -> ExperimentResult:
    """Random certified task pairs never gain forgetting from replay.

    Samples random pairs of subspaces with one- or two-dimensional null
    spaces, keeps those whose null-projector product passes the sqrt(2)/2
    certificate, and compares the trace-form expectation (over standard
    normal w*) with and without replay for 50 random replay subsets each.
    A subset is vacuous when its replay fills the whole space (the replay
    null projector has trace below 1/2): forgetting is then 0 and the
    certificate is not tested. The sidecar's diagnostics count them.
    """
    if trials < 1:
        raise InvalidParameters("trials must be >= 1")
    if d < 4:
        raise InvalidParameters("benign-check needs d >= 4")
    subsets = 50
    rows = []
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
            vacuous = 0
            W1t, root = s1.basis.T, math.sqrt(s1.rank)
            for _ in range(subsets):
                m = 1 + int(rng.integers(0, s1.rank))
                Z = rng.standard_normal((m, s1.rank)) / root
                proj = replay_null_projector(s2, Z @ W1t)
                if proj.matrix.trace() < 0.5:
                    vacuous += 1
                val = expected_forgetting_trace_form(s1, s2, proj)
                worst_gain = max(worst_gain, val - base)
                if val > base + 1e-12:
                    violations += 1
            checked = subsets
            vacuous_subsets += vacuous
            pairs_all_vacuous += int(vacuous == subsets)
        rows.append(
            {
                "pair": i,
                "rank1": k1,
                "rank2": k2,
                "op_norm": cert["op_norm_value"],
                "certified": cert["certified"],
                "base_trace": base,
                "worst_replay_gain": worst_gain if checked else float("nan"),
                "subsets_checked": checked,
                "violations": violations,
            }
        )
    violations_total = sum(row["violations"] for row in rows)
    _require(violations_total == 0, f"{violations_total} certified pairs gained forgetting")
    analytic = {
        "certificate_threshold": SQRT2_OVER_2,
        "certified_pairs": sum(row["certified"] for row in rows),
        "violations": violations_total,
    }
    diagnostics = {"vacuous_subsets": vacuous_subsets, "pairs_all_vacuous": pairs_all_vacuous}
    return ExperimentResult(rows, analytic, diagnostics)


def cmd_oracles(trials: int, seed: int) -> ExperimentResult:
    """Run every oracle and emit one verdict row per check.

    The KKT crosscheck draws from the command's stream, each Gaussian oracle
    from its own sub-stream 1 to 4, so no two start on the same normals.
    """
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
        )
    )
    verdicts.append(oracle_claim_c2(trials, _stream(seed, "oracles", 1)))
    verdicts.extend(oracle_random_projection_tails(152, 10, trials, _stream(seed, "oracles", 2)))
    verdicts.extend(oracle_random_projection_tails(31, 5, trials, _stream(seed, "oracles", 3)))
    verdicts.append(oracle_projector_sandwich(152, 10, 0.4, 10**3, _stream(seed, "oracles", 4)))
    rows = [
        {
            "name": v.name,
            "observed": v.observed,
            "bound": v.bound_or_expected,
            "pass": v.passed,
            "trials": v.trials,
        }
        for v in verdicts
    ]
    _require(all(v.passed for v in verdicts), "an oracle check failed")
    # The claim-C2 statistic's exact mean, 1/(2 eps) at the 3D eps: the
    # verdict only checks the stated 1.4 lower bound.
    analytic = {"verdicts": len(rows), "claim_c2_exact_mean": 1.0 / (2.0 * EPSILON_3D)}
    return ExperimentResult(rows, analytic)


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
# Each command also takes --out, and --seed if it has a random stream.
_FLAGS = {
    "T": ("--T", {"type": int}),
    "d": ("--d", {"type": int}),
    "epsilon": ("--epsilon", {"type": float}),
    "m": ("--m", {"type": int, "help": "replay size"}),
    "m_list": ("--m", {"help": "replay sizes, comma separated"}),
    "trials": ("--trials", {"type": int}),
    "grid_points": ("--grid-points", {"type": int, "help": "grid resolution on [0, pi/2]"}),
}


@dataclass(frozen=True)
class Command:
    """One subcommand: what the parser, the random streams and the CSV need."""

    stream: int | None  # in every random stream's seed, so never renumbered; None: no --seed
    help: str
    columns: tuple[str, ...]  # the CSV header, also listed by --help
    flags: dict  # _FLAGS key -> default; with any seed, the handler's keywords


_COMMANDS = {
    "worst-case": Command(
        None,
        "repeated-row sequence where replay backfires",
        (
            "variant", "T", "d", "solver", "forgetting", "analytic_stated", "abs_dev_stated",
            "analytic_projector", "abs_dev_projector", "final_iterate_drift",
        ),
        {"T": 10, "d": 3},
    ),
    "avg-case-3d": Command(
        1,
        "3D two-task replay expectation vs closed form",
        (
            "case", "epsilon", "m", "trials", "replay_mean", "replay_std_err",
            "no_replay_analytic", "ratio", "ratio_std_err", "bound", "abs_dev_bound",
            "meets_bound_3sigma", "exceeds_one_3sigma", "seed",
        ),
        {"epsilon": EPSILON_3D, "m": 1, "trials": 10**5},
    ),
    "avg-case-highdim": Command(
        2,
        "high-dimensional two-task replay expectation",
        (
            "case", "d", "m", "epsilon", "trials", "replay_mean", "replay_std_err",
            "no_replay_analytic", "mean_minus_3se", "abs_dev_no_replay",
            "exceeds_no_replay_3sigma", "seed",
        ),
        {"d": 152, "epsilon": 0.4, "m": 10, "trials": 10**4},
    ),
    "replay-sweep": Command(
        3,
        "forgetting vs replay-memory size, closed-form and gradient-descent lanes",
        (
            "case", "solver", "m", "trials", "epsilon", "mean_forgetting", "std_err",
            "analytic_value", "abs_dev_analytic", "no_replay_analytic", "max_fit_residual",
            "seed",
        ),
        {"d": 3, "epsilon": None, "m_list": "0,1,2", "trials": None},
    ),
    "angle-sweep": Command(
        None,
        "forgetting vs angle between task null spaces",
        ("theta", "empirical_forgetting", "analytic_forgetting", "abs_dev", "solver"),
        {"d": 3, "grid_points": 91},
    ),
    "benign-check": Command(
        5,
        "certified pairs never gain from replay",
        (
            "pair", "d", "rank1", "rank2", "op_norm", "certified", "base_trace",
            "worst_replay_gain", "subsets_checked", "violations", "seed",
        ),
        {"d": 6, "trials": 1000},
    ),
    "oracles": Command(
        6,
        "run all numeric oracles",
        ("name", "observed", "bound", "pass", "trials", "seed"),
        {"trials": 10**5},
    ),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one line, no usage block; exit 2 as argparse does
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
        if spec.stream is not None:
            sp.add_argument("--seed", type=int, default=42)
        sp.add_argument("--out", default=None, help="CSV output path")
    return parser


def _resolve_params(args: argparse.Namespace) -> dict:
    params = {key: getattr(args, key) for key in _COMMANDS[args.command].flags}
    if "seed" in args:  # the parser adds --seed only to commands that draw
        if args.seed < 0:
            raise InvalidParameters("seed must be a non-negative integer")
        params["seed"] = args.seed
    if "m_list" in params:
        params["m_list"] = _parse_m_list(params["m_list"])
    return params


def _sidecar_path(out: str) -> str:
    return (out[: -len(".csv")] if out.endswith(".csv") else out) + ".config.json"


def _emit(command: str, params: dict, result: ExperimentResult, out: str | None) -> None:
    columns = _COMMANDS[command].columns
    # A column named after a param echoes it, unless the row sets it itself.
    echo = {key: value for key, value in params.items() if key in columns}
    with contextlib.nullcontext(sys.stdout) if out is None else open(out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        writer.writerows({**echo, **row} for row in result.rows)
    if out is None:
        return
    payload = {
        "command": command,
        "params": params,
        "analytic_predictions": result.analytic_predictions,
        "diagnostics": result.diagnostics,
        "version": __version__,
    }
    with open(_sidecar_path(out), "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.out is not None:
        # Both files are checked before the run, so a bad path does not cost
        # a whole experiment.
        for path in (args.out, _sidecar_path(args.out)):
            out_dir = os.path.dirname(path) or "."
            writable = os.path.isdir(out_dir) and os.access(out_dir, os.W_OK)
            if not path or os.path.isdir(path) or not writable:
                print(f"cannot write output: {path!r} is not a writable file", file=sys.stderr)
                return 2
    try:
        params = _resolve_params(args)
        t0 = time.perf_counter()
        # Through the module namespace, so a wrapper installed on a cmd_*
        # attribute (a profiler, a test double) is the one that runs.
        result = globals()["cmd_" + args.command.replace("-", "_")](**params)
        wallclock = time.perf_counter() - t0
    except InvalidParameters as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(
            f"configuration error: not enough memory for the requested sizes: {exc}",
            file=sys.stderr,
        )
        return 2
    except ConsistencyFailure as exc:
        print(f"assertion failed: {exc}", file=sys.stderr)
        return 3
    except ContinualReplayError as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    try:
        _emit(args.command, {**params, **result.resolved}, result, args.out)
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 2
    print(f"[{args.command}] wallclock {wallclock:.3f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
