import ast
import contextlib
import csv
import filecmp
import inspect
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import continual_replay
from continual_replay import cli_harness, learner
from continual_replay.cli_harness import _COMMANDS, _check_highdim_constraints, main
from continual_replay.errors import ConsistencyFailure, InvalidParameters, NotConverged
from continual_replay.linalg_core import Projector, orthonormal_basis, rank_mask
from continual_replay.metrics import (
    benign_replay_certificate,
    expected_replay_forgetting_rank_one,
)
from continual_replay.task_gen import EPSILON_3D


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_worst_case_writes_csv_and_sidecar(tmp_path):
    out = tmp_path / "wc.csv"
    assert main(["worst-case", "--T", "5", "--out", str(out)]) == 0
    rows = _read_csv(out)
    # closed-form lane, then gradient-descent lane, each gated on its own
    assert [(r["solver"], r["variant"]) for r in rows] == [
        (solver, variant)
        for solver in ("closed_form", "gd")
        for variant in ("no_replay", "replay_x2", "replay_x1")
    ]
    for r in rows:
        assert abs(float(r["forgetting"]) - float(r["analytic_projector"])) <= 1e-9
    for lane in (rows[:3], rows[3:]):
        # the stated replay constant disagrees with what the dynamics produce;
        # the deviation column keeps that visible instead of hiding it
        assert float(lane[1]["abs_dev_stated"]) > 0.1
        assert float(lane[2]["final_iterate_drift"]) <= 1e-9
    # one solver-free cascade serves both lanes
    assert [r["analytic_projector"] for r in rows[:3]] == [
        r["analytic_projector"] for r in rows[3:]
    ]
    sidecar = json.loads((tmp_path / "wc.config.json").read_text())
    assert sidecar["command"] == "worst-case"
    assert sidecar["params"] == {"T": 5, "d": 3}
    assert "projector_replay_x2" in sidecar["analytic_predictions"]
    assert sidecar["version"]


def test_worst_case_stdout(capsys):
    assert main(["worst-case", "--T", "3"]) == 0
    header = capsys.readouterr().out.splitlines()[0]
    assert header == (
        "variant,T,d,solver,forgetting,analytic_stated,abs_dev_stated,"
        "analytic_projector,abs_dev_projector,final_iterate_drift"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["worst-case", "--d", "2"],
        ["benign-check", "--seed", "-1"],
        ["replay-sweep", "--m", "1,x"],
        ["replay-sweep", "--m", ""],
        ["replay-sweep", "--m", ","],
        ["replay-sweep", "--m", "9", "--trials", "5"],
        ["avg-case-highdim", "--m", "0"],
        ["avg-case-3d", "--trials", "10"],
        ["avg-case-highdim", "--d", "100"],
        ["oracles", "--trials", "100"],
        ["avg-case-highdim", "--epsilon", "0.5"],
        ["replay-sweep", "--d", "2"],
        # eps^2 (1 - eps^2) underflows to 0, which the ratio divides by and
        # every other two-task column would equal
        ["avg-case-3d", "--epsilon", "1e-200", "--trials", "1000"],
        ["avg-case-highdim", "--epsilon", "1e-200", "--trials", "10"],
        ["replay-sweep", "--d", "5", "--epsilon", "1e-200", "--trials", "3"],
        # m < 1; avg-case-highdim checks it before its constraints take log(m)
        ["avg-case-highdim", "--m", "-1"],
        ["avg-case-3d", "--m", "0"],
    ],
)
def test_configuration_errors_exit_2(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and err.count("\n") == 1, err


@pytest.mark.parametrize("epsilon", ["0.5", "0", "nan", "inf"])
def test_avg_case_highdim_epsilon_range_exits_2(epsilon, capsys):
    # Thm 3.3 needs eps < 1/2; the builder itself takes any eps in (0, 1)
    assert main(["avg-case-highdim", "--epsilon", epsilon, "--trials", "10"]) == 2
    assert "epsilon must be in (0, 1/2)" in capsys.readouterr().err


def test_replay_sweep_takes_every_epsilon_at_every_d():
    # d = 4 takes the eps range that d = 3 takes
    argv = ["replay-sweep", "--d", "4", "--epsilon", "0.6", "--m", "0,1", "--trials", "3"]
    assert main(argv) == 0


def test_replay_sweep_rejects_repeated_size(capsys):
    # a repeated size would share one (m, solver) row and shift later draws
    assert main(["replay-sweep", "--m", "0,1,1", "--trials", "2"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["configuration error: replay size 1 is listed twice"]


@pytest.mark.parametrize(
    "argv",
    [
        ["oracles", "--d", "50", "--solver", "gd"],
        ["avg-case-3d", "--d", "5"],
        ["replay-sweep", "--solver", "gd"],
        ["benign-check", "--grid-points", "5"],
        # both learner commands always report both solver lanes
        ["worst-case", "--solver", "gd"],
        ["angle-sweep", "--solver", "closed"],
    ],
)
def test_flag_the_command_does_not_read_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["worst-case", "--d", "x"],
        ["oracles", "--d", "5"],
        ["--bogus"],
        [],
        ["worst-case", "--solver", "closed"],
        # the avg-case commands take one integer --m
        ["avg-case-3d", "--m", "1,2"],
        ["avg-case-highdim", "--m", ""],
    ],
)
def test_usage_error_prints_one_line(argv, capsys):
    # a bad type, a flag the command does not read, no command at all
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.endswith("\n"), err
    assert ": error: " in err


@pytest.mark.parametrize("d, m", [(152, 10), (3000, 150)])
def test_highdim_constraints_hold(d, m):
    # exp(m ln m) overflows a float at m = 150; the check must not
    _check_highdim_constraints(d, m, 0.4)


@pytest.mark.parametrize("d, m", [(100, 10), (152, 11), (152, 2), (152, 0)])
def test_highdim_constraints_violated(d, m):
    violated = {
        (100, 10): "requires c1 < d",
        (152, 11): r"requires c2\*m < d-1",
        (152, 2): "requires d-1 < exp",
        (152, 0): "replay size must be >= 1",
    }[(d, m)]
    with pytest.raises(InvalidParameters, match=violated):
        _check_highdim_constraints(d, m, 0.4)


def test_internal_assertion_exits_3(monkeypatch, capsys):
    def boom(**params):
        raise ConsistencyFailure("forced")

    monkeypatch.setattr(cli_harness, "cmd_worst_case", boom)
    assert main(["worst-case"]) == 3
    assert "assertion failed: forced" in capsys.readouterr().err


def test_other_library_errors_exit_3(monkeypatch, capsys):
    def boom(**params):
        raise NotConverged("forced")

    monkeypatch.setattr(cli_harness, "cmd_worst_case", boom)
    assert main(["worst-case"]) == 3
    err = capsys.readouterr().err
    assert "NotConverged: forced" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [["worst-case"], ["angle-sweep", "--grid-points", "7"]])
def test_fault_in_gd_lane_only_exits_3(argv, monkeypatch, capsys):
    # the closed-form lane passes its gates; the gradient-descent lane, which
    # returns the starting point, must fail its own
    def run_sequence(seq, solver="closed_form"):
        w = learner.run_sequence(seq, solver)
        return w if solver == "closed_form" else np.zeros_like(w)

    monkeypatch.setattr(cli_harness, "run_sequence", run_sequence)
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("assertion failed: gd: ") and err.count("\n") == 1, err


def test_out_of_memory_exits_2(monkeypatch, capsys):
    # a double, so the test allocates nothing large
    def boom(**params):
        raise MemoryError("Unable to allocate 74.5 GiB for an array")

    monkeypatch.setattr(cli_harness, "cmd_worst_case", boom)
    assert main(["worst-case"]) == 2
    err = capsys.readouterr().err
    assert err == (
        "configuration error: not enough memory for the requested sizes: "
        "Unable to allocate 74.5 GiB for an array\n"
    )


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so no gate may rely on one
    package = Path(continual_replay.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _imported_names(tree):
    # names bound by the module-level imports, __future__ aside
    return [
        (alias.asname or alias.name).split(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
        for alias in node.names
    ]


def test_package_has_no_leftover_imports():
    # deletions tend to leave an import behind, or a stale __all__ entry
    package = Path(continual_replay.__file__).parent
    unused = []
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{name}" for name in _imported_names(tree) if name not in used]
    assert unused == []
    init = ast.parse((package / "__init__.py").read_text())
    exported = next(
        ast.literal_eval(node.value)
        for node in init.body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "__all__"
    )
    assert len(exported) == len(set(exported))
    assert set(exported) == set(_imported_names(init)) | {"__version__"}


def test_package_import_loads_the_six_layers_only():
    # The benchmark's set-up probe times a bare `import continual_replay`;
    # the root must keep loading its six layers and not the CLI.
    env = dict(os.environ, PYTHONPATH=str(Path(continual_replay.__file__).parents[1]))
    code = (
        "import sys, continual_replay\n"
        "print(*sorted(m for m in sys.modules if m.startswith('continual_replay')))"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    layers = ["errors", "learner", "linalg_core", "metrics", "oracle", "task_gen"]
    assert proc.stdout.split() == ["continual_replay"] + [f"continual_replay.{m}" for m in layers]


def test_highdim_closed_form_gate_exits_3(monkeypatch, capsys):
    # the three two-task commands share the gate; a loop keeps this one test id
    monkeypatch.setattr(cli_harness, "expected_forgetting_closed_form", lambda *a: 1.0)
    for argv in (
        ["avg-case-3d", "--trials", "1000"],
        ["avg-case-highdim", "--trials", "10"],
        ["replay-sweep", "--m", "0", "--trials", "1"],
    ):
        assert main(argv) == 3, argv[0]
        assert "closed form" in capsys.readouterr().err, argv[0]


def test_unwritable_out_exits_2(tmp_path, monkeypatch, capsys):
    # the paths are checked before the experiment runs, not after: a missing
    # directory, a path that names a directory, an empty path, and a CSV
    # whose sidecar path names a directory
    (tmp_path / "sc" / "o.config.json").mkdir(parents=True)
    calls = []
    monkeypatch.setattr(cli_harness, "cmd_worst_case", calls.append)
    for out, failing in (
        (str(tmp_path / "missing" / "x.csv"), "x.csv"),
        (str(tmp_path), str(tmp_path)),
        ("", "''"),
        (str(tmp_path / "sc" / "o.csv"), "o.config.json"),
    ):
        assert main(["worst-case", "--T", "3", "--out", out]) == 2, out
        assert calls == [], out
        err = capsys.readouterr().err
        assert err.startswith("cannot write output") and err.count("\n") == 1, out
        assert failing in err, (out, err)
        assert "Traceback" not in err
    assert not (tmp_path / "sc" / "o.csv").exists()


def test_output_error_at_write_time_exits_2(tmp_path, monkeypatch, capsys):
    # a path that passes the pre-run check can still fail when it is written
    def fail(*args):
        raise OSError("disk full")

    monkeypatch.setattr(cli_harness, "_emit", fail)
    assert main(["worst-case", "--T", "3", "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert "cannot write output" in err
    assert "Traceback" not in err


def test_reruns_are_bit_identical(tmp_path):
    for argv in (
        ["replay-sweep", "--d", "3", "--m", "0,1,2", "--trials", "5", "--seed", "7"],
        ["benign-check", "--d", "5", "--trials", "20", "--seed", "7"],
        ["worst-case", "--T", "10", "--d", "5"],
        ["oracles", "--trials", "10000", "--seed", "7"],
    ):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert filecmp.cmp(a, b, shallow=False), argv
        assert filecmp.cmp(
            tmp_path / "a.config.json", tmp_path / "b.config.json", shallow=False
        ), argv


def test_optimized_interpreter_writes_the_same_bytes(tmp_path):
    # The checks are explicit raises, not asserts, so python -O runs them too
    # and must produce the same artifacts.
    env = dict(os.environ, PYTHONPATH=str(Path(continual_replay.__file__).parents[1]))
    argv = ["-m", "continual_replay", "benign-check", "--d", "5", "--trials", "10"]
    for flags, name in (([], "plain"), (["-O"], "optimized")):
        proc = subprocess.run(
            [sys.executable, *flags, *argv, "--out", str(tmp_path / f"{name}.csv")],
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
    for suffix in (".csv", ".config.json"):
        assert filecmp.cmp(
            tmp_path / f"plain{suffix}", tmp_path / f"optimized{suffix}", shallow=False
        )


@pytest.mark.parametrize(
    "argv",
    [
        ["avg-case-3d", "--trials", "1000"],
        ["avg-case-highdim", "--trials", "10"],
        ["replay-sweep", "--m", "0"],
        ["replay-sweep", "--d", "4", "--m", "0"],
    ],
)
def test_sidecar_echoes_resolved_defaults(argv, tmp_path):
    # run without --epsilon (and replay-sweep without --trials): the sidecar
    # carries the values the command ran with, not null
    out = tmp_path / "run.csv"
    assert main(argv + ["--out", str(out)]) == 0
    params = json.loads((tmp_path / "run.config.json").read_text())["params"]
    for row in _read_csv(out):
        assert params["epsilon"] == float(row["epsilon"])
        assert params["trials"] == int(row["trials"])


@pytest.mark.parametrize(
    "sweep, avg_case",
    [
        (["--d", "3"], ["avg-case-3d", "--trials", "1000"]),
        (["--d", "152"], ["avg-case-highdim", "--epsilon", "0.4", "--trials", "10"]),
    ],
)
def test_two_task_commands_share_no_replay_value(sweep, avg_case, tmp_path):
    # one gated construction, one formula: the same column holds the same bits
    values = set()
    for argv in (["replay-sweep", *sweep, "--m", "0", "--trials", "1"], avg_case):
        out = tmp_path / f"{argv[0]}.csv"
        assert main(argv + ["--out", str(out)]) == 0
        values |= {row["no_replay_analytic"] for row in _read_csv(out)}
    assert len(values) == 1, values


def test_replay_sweep_analytic_columns(tmp_path):
    out = tmp_path / "sweep.csv"
    argv = ["replay-sweep", "--d", "3", "--m", "0,1,2", "--trials", "20", "--out", str(out)]
    assert main(argv) == 0
    rows = {int(r["m"]): r for r in _read_csv(out) if r["solver"] == "closed_form"}
    # m = 0 replays nothing, m = rank spans the whole first task
    assert float(rows[0]["abs_dev_analytic"]) <= 1e-12
    assert float(rows[0]["analytic_value"]) == float(rows[0]["no_replay_analytic"])
    assert float(rows[2]["analytic_value"]) == 0.0
    assert float(rows[2]["mean_forgetting"]) <= 1e-12
    # 0 < m < rank: the rank-one Beta integral, 1/(2 eps) times no replay
    exact = expected_replay_forgetting_rank_one(2, 1, float(rows[1]["epsilon"]))
    assert float(rows[1]["analytic_value"]) == exact == pytest.approx(0.061994, abs=5e-7)
    assert float(rows[1]["mean_forgetting"]) > float(rows[0]["mean_forgetting"])


def test_replay_sweep_gd_matches_closed(tmp_path):
    # one run carries both solver lanes; pair them by m
    out = tmp_path / "sweep.csv"
    argv = ["replay-sweep", "--d", "3", "--m", "0,1,2", "--trials", "10", "--seed", "3"]
    assert main(argv + ["--out", str(out)]) == 0
    lanes = {(r["solver"], int(r["m"])): r for r in _read_csv(out)}
    assert sorted(lanes) == [(solver, m) for solver in ("closed_form", "gd") for m in (0, 1, 2)]
    for m in (0, 1, 2):
        closed, gd = lanes["closed_form", m], lanes["gd", m]
        assert abs(float(closed["mean_forgetting"]) - float(gd["mean_forgetting"])) <= 1e-9
        assert float(gd["max_fit_residual"]) <= 1e-11
    # the memory spans task 1, so both lanes forget nothing
    assert float(lanes["gd", 2]["mean_forgetting"]) <= 1e-12


def test_replay_sweep_lane_gate_exits_3(monkeypatch, capsys):
    # a gradient-descent lane shifted off the closed form fails the per-trial
    # gate, and the message names the replay size
    def run_sequence(seq, solver="closed_form"):
        w = learner.run_sequence(seq, solver)
        return w if solver == "closed_form" else w + 1e-3

    monkeypatch.setattr(cli_harness, "run_sequence", run_sequence)
    assert main(["replay-sweep", "--m", "1", "--trials", "3"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("assertion failed: gd: m = 1, trial 0: ") and err.count("\n") == 1, err


def test_angle_sweep_grid(tmp_path):
    out = tmp_path / "angles.csv"
    assert main(["angle-sweep", "--d", "4", "--grid-points", "31", "--out", str(out)]) == 0
    rows = _read_csv(out)
    assert [r["solver"] for r in rows] == ["closed_form"] * 31 + ["gd"] * 31
    assert all(float(r["abs_dev"]) <= 1e-8 for r in rows)
    for lane in (rows[:31], rows[31:]):
        assert [r["theta"] for r in lane] == [r["theta"] for r in rows[:31]]
        best = max(lane, key=lambda r: float(r["empirical_forgetting"]))
        assert abs(float(best["theta"]) - math.pi / 4.0) <= math.pi / 60.0 + 1e-12
    sidecar = json.loads((tmp_path / "angles.config.json").read_text())
    assert sidecar["params"] == {"d": 4, "grid_points": 31}


def test_avg_case_3d_report(tmp_path):
    out = tmp_path / "avg3d.csv"
    assert main(["avg-case-3d", "--trials", "2000", "--out", str(out)]) == 0
    (row,) = _read_csv(out)
    assert row["meets_bound_3sigma"] == "True"
    assert row["exceeds_one_3sigma"] == "True"
    assert float(row["ratio"]) > 1.4
    base = float(row["no_replay_analytic"])
    assert base == pytest.approx(62.0 / 3969.0, abs=1e-15)


def test_avg_case_highdim_report(tmp_path):
    out = tmp_path / "hd.csv"
    assert main(["avg-case-highdim", "--trials", "1500", "--out", str(out)]) == 0
    (row,) = _read_csv(out)
    assert float(row["no_replay_analytic"]) == pytest.approx(0.1344, abs=1e-15)
    assert float(row["replay_mean"]) > float(row["no_replay_analytic"])


@pytest.mark.parametrize("command, d", [("avg-case-3d", 3), ("avg-case-highdim", 152)])
def test_avg_case_sidecar_carries_the_exact_replay_value(command, d, tmp_path):
    # at the defaults the estimate sits within 4.9 standard errors of the
    # rank-one Beta integral it estimates
    out = tmp_path / "run.csv"
    assert main([command, "--out", str(out)]) == 0
    (row,) = _read_csv(out)
    sidecar = json.loads((tmp_path / "run.config.json").read_text())
    params, exact = sidecar["params"], sidecar["analytic_predictions"]["replay_exact"]
    assert exact == expected_replay_forgetting_rank_one(d - 1, params["m"], params["epsilon"])
    z = (float(row["replay_mean"]) - exact) / float(row["replay_std_err"])
    assert abs(z) <= 4.9, z


@pytest.mark.parametrize("epsilon", ["1e-155", "1e-161"])
def test_tiny_epsilon_runs_with_warnings_as_errors(epsilon):
    # Past t = 1e154 the rank-one integrand's square overflows, where the
    # value is 0; no warning may turn a run into exit 1 under -W error.
    env = dict(os.environ, PYTHONPATH=str(Path(continual_replay.__file__).parents[1]))
    python = [sys.executable, "-W", "error", "-O", "-m", "continual_replay"]
    for argv in (
        ["replay-sweep", "--d", "3", "--m", "1", "--trials", "3"],
        ["avg-case-3d", "--trials", "1000"],
    ):
        proc = subprocess.run(
            [*python, *argv, "--epsilon", epsilon],
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr


def test_benign_check_small(tmp_path):
    out = tmp_path / "benign.csv"
    assert main(["benign-check", "--d", "5", "--trials", "40", "--out", str(out)]) == 0
    rows = _read_csv(out)
    assert len(rows) == 40
    assert all(r["violations"] == "0" for r in rows if r["certified"] == "True")
    assert any(r["certified"] == "True" for r in rows)


def test_benign_check_d6_counts(tmp_path):
    out = tmp_path / "benign.csv"
    argv = ["benign-check", "--d", "6", "--trials", "200", "--seed", "42"]
    assert main(argv + ["--out", str(out)]) == 0
    sidecar = json.loads((tmp_path / "benign.config.json").read_text())
    assert sidecar["analytic_predictions"]["certified_pairs"] == 135
    assert sidecar["analytic_predictions"]["violations"] == 0
    assert sidecar["diagnostics"] == {"vacuous_subsets": 6078, "pairs_all_vacuous": 74}
    rows = _read_csv(out)
    assert sum(r["certified"] == "True" for r in rows) == 135
    assert sum(int(r["violations"]) for r in rows) == 0
    # a vacuous subset's value is exactly 0, so exactly the all-vacuous
    # pairs have a worst gain of exactly -base_trace
    exact = [
        r
        for r in rows
        if r["certified"] == "True"
        and float(r["worst_replay_gain"]) == -float(r["base_trace"])
    ]
    assert len(exact) == 74


def test_benign_check_lapack_budget(monkeypatch):
    # two bases and one op_norm per pair, and one SVD per replay subset:
    # its spectrum alone when the replay fills R^d, else one thin SVD
    calls = []
    svd = np.linalg.svd

    def counting(a, *args, **kwargs):
        calls.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    result = cli_harness.cmd_benign_check(d=6, trials=200, seed=42)
    n, c = len(result.rows), result.analytic_predictions["certified_pairs"]
    assert (n, c) == (200, 135)
    assert len(calls) == 3 * n + 50 * c == 7350


def _benign_check_reference_route(d, trials, seed):
    # The subset loop as it stood before one SVD per subset: np.vstack, one
    # thin SVD, the exact zero when every singular value passes, and the
    # trace form through np.trace / np.sum. Same draws in the same order.
    def trace_form(G):
        return float(np.trace(G) - np.sum(G * G))

    rows, vacuous_subsets, pairs_all_vacuous = [], 0, 0
    for i in range(trials):
        rng = cli_harness._stream(seed, "benign-check", i)
        k1 = d - int(rng.integers(1, 3))
        k2 = d - int(rng.integers(1, 3))
        s1 = orthonormal_basis(rng.standard_normal((k1, d)))
        s2 = orthonormal_basis(rng.standard_normal((k2, d)))
        cert = benign_replay_certificate(s1, s2)
        B = s1.basis.T @ s2.basis
        base = trace_form(np.eye(s1.rank) - B @ B.T)
        checked = violations = 0
        worst_gain = -math.inf
        if cert["certified"]:
            vacuous = 0
            for _ in range(50):
                m = 1 + int(rng.integers(0, s1.rank))
                Z = rng.standard_normal((m, s1.rank)) / math.sqrt(s1.rank)
                stack = np.vstack([s2.basis.T, Z @ s1.basis.T])
                _, sv, vh = np.linalg.svd(stack, full_matrices=False)
                U = vh[rank_mask(sv)]
                P = np.zeros((d, d)) if U.shape[0] == d else np.eye(d) - U.T @ U
                vacuous += int(P.trace() < 0.5)
                val = trace_form(s1.basis.T @ P @ s1.basis)
                worst_gain = max(worst_gain, val - base)
                violations += int(val > base + 1e-12)
            checked = 50
            vacuous_subsets += vacuous
            pairs_all_vacuous += int(vacuous == 50)
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
    diagnostics = {"vacuous_subsets": vacuous_subsets, "pairs_all_vacuous": pairs_all_vacuous}
    return rows, diagnostics


def _bits(rows):
    return [{k: v.hex() if isinstance(v, float) else v for k, v in r.items()} for r in rows]


@pytest.mark.parametrize("d", [4, 5, 6, 7])
@pytest.mark.parametrize("seed", [42, 7])
def test_benign_check_matches_the_reference_route_bit_for_bit(d, seed):
    result = cli_harness.cmd_benign_check(d=d, trials=30, seed=seed)
    rows, diagnostics = _benign_check_reference_route(d, 30, seed)
    assert _bits(result.rows) == _bits(rows)
    assert result.diagnostics == diagnostics
    # both kinds of subset are reached, so neither branch is compared vacuously
    checked = sum(r["subsets_checked"] for r in rows)
    assert 0 < diagnostics["vacuous_subsets"] < checked, (d, seed)


def test_benign_check_validates_the_zero_projector_once(monkeypatch):
    # counted through Projector.__post_init__, as perfbench/tracer.py does
    built = []
    post_init = Projector.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(Projector, "__post_init__", counting)
    result = cli_harness.cmd_benign_check(d=6, trials=20, seed=42)
    vacuous = result.diagnostics["vacuous_subsets"]
    checked = sum(row["subsets_checked"] for row in result.rows)
    assert vacuous >= 2  # so one validation per subset would exceed the bound
    assert len(built) <= checked - vacuous + 1


def test_oracles_command(tmp_path):
    out = tmp_path / "oracles.csv"
    assert main(["oracles", "--trials", "10000", "--out", str(out)]) == 0
    rows = _read_csv(out)
    names = {r["name"] for r in rows}
    assert {"min_norm_crosscheck", "claim_c2_ratio", "projector_sandwich"} <= names
    assert all(r["pass"] == "True" for r in rows)
    # the claim-C2 statistic's exact mean, next to the 1.4 bound it checks
    sidecar = json.loads((tmp_path / "oracles.config.json").read_text())
    assert sidecar["analytic_predictions"]["claim_c2_exact_mean"] == 1 / (2 * EPSILON_3D)


# One small, fast run per command.
SMALL_RUNS = {
    "worst-case": ["--T", "3"],
    "avg-case-3d": ["--trials", "1000"],
    "avg-case-highdim": ["--trials", "10"],
    "replay-sweep": ["--m", "1", "--trials", "2"],
    "angle-sweep": ["--grid-points", "3"],
    "benign-check": ["--trials", "2"],
    "oracles": ["--trials", "10000"],
}


def _options(command):
    """The options a command accepts besides --help; --seed if it has a random stream."""
    table = {cli_harness._FLAGS[key][0] for key in _COMMANDS[command].flags}
    seed = {"--seed"} if _COMMANDS[command].stream is not None else set()
    return table | seed | {"--out"}


def test_subcommand_help_documents_columns(capsys):
    assert sorted(SMALL_RUNS) == sorted(_COMMANDS)
    for command, argv in SMALL_RUNS.items():
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        usage, _, epilog = text.partition("CSV columns:")
        # help lists exactly the flags the command reads
        assert set(re.findall(r"--[\w-]+", usage)) == _options(command) | {"--help"}
        # and the handler takes exactly those params as keywords
        handler = getattr(cli_harness, "cmd_" + command.replace("-", "_"))
        params = inspect.signature(handler).parameters
        seed = {"seed"} if _COMMANDS[command].stream is not None else set()
        assert set(params) == set(_COMMANDS[command].flags) | seed, command
        assert main([command, *argv]) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert "".join(epilog.split()) == header, command


def test_parameter_columns_echo_the_sidecar(tmp_path):
    # a CSV column named after a param holds the sidecar's value in every
    # row; oracles rows carry each verdict's own trial count
    for command, argv in SMALL_RUNS.items():
        out = tmp_path / f"{command}.csv"
        assert main([command, *argv, "--out", str(out)]) == 0
        params = json.loads(out.with_name(f"{command}.config.json").read_text())["params"]
        rows = _read_csv(out)
        echoed = [key for key in rows[0] if key in params]
        if command == "oracles":
            assert echoed == ["trials", "seed"]
            echoed = ["seed"]
        # angle-sweep has no column named after a parameter, now that it takes no seed
        assert echoed or command == "angle-sweep", command
        for row in rows:
            assert {key: row[key] for key in echoed} == {
                key: str(params[key]) for key in echoed
            }, command


def test_seed_is_taken_by_exactly_the_commands_that_draw(tmp_path, capsys):
    # the two fixed constructions draw nothing, so they take no --seed
    fixed = {command for command, spec in _COMMANDS.items() if spec.stream is None}
    assert fixed == {"worst-case", "angle-sweep"}
    for command in sorted(fixed):
        with pytest.raises(SystemExit) as exc:
            main([command, "--seed", "1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "unrecognized arguments: --seed 1" in err, err
    # every other command writes other numbers at another seed
    for command in sorted(set(_COMMANDS) - fixed):
        tables = []
        for seed in ("1", "2"):
            out = tmp_path / f"{command}.{seed}.csv"
            assert main([command, *SMALL_RUNS[command], "--seed", seed, "--out", str(out)]) == 0
            tables.append([{k: v for k, v in r.items() if k != "seed"} for r in _read_csv(out)])
        assert tables[0] != tables[1], command


# Each command's minimum accepted --trials; the fuzz draws it or one below.
MIN_TRIALS = {
    "avg-case-3d": 1000,
    "avg-case-highdim": 1,
    "replay-sweep": 1,
    "benign-check": 1,
    "oracles": 10**4,
}
SMALL_INT = st.sampled_from(["-1", "0", "1", "2", "3", "4", "5", "6", "x"])
FUZZ_VALUES = {
    "--T": SMALL_INT,
    "--d": SMALL_INT,
    "--epsilon": st.sampled_from(
        ["-0.5", "0", "1e-200", "1e-155", "0.1", "0.4", "0.9", "1.5", "nan", "inf"]
    ),
    "--m": st.sampled_from(["0", "1", "2", "3", "10", "-1", "0,1", "0,1,2", "1,x", ""]),
    "--seed": st.sampled_from(["-1", "0", "7", "x"]),  # worst-case, angle-sweep: unread
    "--solver": st.sampled_from(["closed", "gd", "newton"]),
    "--out": st.sampled_from(["ok.csv", "missing/x.csv"]),
    "--grid-points": st.sampled_from(["-1", "2", "3", "7", "x"]),
    "--trials": st.just("1"),  # drawn only for commands that do not read it
}


@st.composite
def fuzz_argv(draw):
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    argv = [command]
    if command in MIN_TRIALS:
        # --trials is always set: the defaults run for seconds
        low = MIN_TRIALS[command]
        argv += ["--trials", str(draw(st.sampled_from([low, low - 1])))]
    own = sorted(_options(command) - {"--trials"})
    flags = draw(st.lists(st.sampled_from(own), max_size=len(own), unique=True))
    if draw(st.integers(0, 3)) == 3:  # one draw in four adds a flag it does not read
        flags.append(draw(st.sampled_from(sorted(set(FUZZ_VALUES) - _options(command)))))
    for flag in flags:
        argv += [flag, draw(FUZZ_VALUES[flag])]
    return argv


def _run_capturing(argv):
    """Exit code, stdout, stderr and the bytes of any CSV and sidecar written."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    files = []
    if code == 0 and "--out" in argv:
        csv_path = Path(argv[argv.index("--out") + 1])
        sidecar = csv_path.with_name(csv_path.name[: -len(".csv")] + ".config.json")
        files = [csv_path.read_bytes(), sidecar.read_bytes()]
    return code, out.getvalue(), err.getvalue(), files


def test_cli_fuzz_exit_codes(tmp_path):
    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(fuzz_argv())
    def run(argv):
        argv = [str(tmp_path / a) if a.endswith(".csv") else a for a in argv]
        unread = set(argv[1::2]) - _options(argv[0])
        code, out, err, files = _run_capturing(argv)
        assert "Traceback" not in err
        if unread:
            assert code == 2, (argv, err)
        else:
            assert code in (0, 2, 3), (argv, err)
        if code == 0:
            # a rerun writes the same CSV (stdout or file) and sidecar, byte for byte
            code2, out2, _, files2 = _run_capturing(argv)
            assert (code2, out2, files2) == (code, out, files), argv

    run()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
