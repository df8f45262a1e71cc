import ast
import csv
import filecmp
import json
import math
from pathlib import Path

import pytest

import continual_replay
from continual_replay import cli_harness
from continual_replay.cli_harness import main
from continual_replay.errors import ConsistencyFailure, NotConverged


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_worst_case_writes_csv_and_sidecar(tmp_path):
    out = tmp_path / "wc.csv"
    assert main(["worst-case", "--T", "5", "--out", str(out)]) == 0
    rows = _read_csv(out)
    assert [r["variant"] for r in rows] == ["no_replay", "replay_x2", "replay_x1"]
    for r in rows:
        assert abs(float(r["forgetting"]) - float(r["analytic_projector"])) <= 1e-9
    # the stated replay constant disagrees with what the dynamics produce;
    # the deviation column keeps that visible instead of hiding it
    assert float(rows[1]["abs_dev_stated"]) > 0.1
    assert float(rows[2]["final_iterate_drift"]) <= 1e-9
    sidecar = json.loads((tmp_path / "wc.config.json").read_text())
    assert sidecar["command"] == "worst-case"
    assert sidecar["params"]["T"] == 5
    assert "projector_replay_x2" in sidecar["analytic_predictions"]
    assert sidecar["version"]


def test_worst_case_stdout(capsys):
    assert main(["worst-case", "--T", "3"]) == 0
    header = capsys.readouterr().out.splitlines()[0]
    assert header == (
        "variant,T,d,solver,forgetting,analytic_stated,abs_dev_stated,"
        "analytic_projector,abs_dev_projector,final_iterate_drift,seed"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["worst-case", "--d", "2"],
        ["worst-case", "--seed", "-1"],
        ["replay-sweep", "--m", "1,x"],
        ["replay-sweep", "--m", "9", "--trials", "5"],
        ["avg-case-3d", "--m", "1,2"],
        ["avg-case-3d", "--trials", "10"],
        ["avg-case-highdim", "--d", "100"],
        ["oracles", "--trials", "100"],
    ],
)
def test_configuration_errors_exit_2(argv, capsys):
    assert main(argv) == 2
    assert "configuration error" in capsys.readouterr().err


def test_internal_assertion_exits_3(monkeypatch, capsys):
    def boom(cfg):
        raise ConsistencyFailure("forced")

    monkeypatch.setitem(cli_harness._HANDLERS, "worst-case", boom)
    assert main(["worst-case"]) == 3
    assert "assertion failed: forced" in capsys.readouterr().err


def test_other_library_errors_exit_3(monkeypatch, capsys):
    def boom(cfg):
        raise NotConverged("forced")

    monkeypatch.setitem(cli_harness._HANDLERS, "worst-case", boom)
    assert main(["worst-case"]) == 3
    err = capsys.readouterr().err
    assert "NotConverged: forced" in err
    assert "Traceback" not in err


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


def test_highdim_closed_form_gate_exits_3(monkeypatch, capsys):
    monkeypatch.setattr(cli_harness, "expected_forgetting_closed_form", lambda *a: 1.0)
    assert main(["avg-case-highdim", "--trials", "10"]) == 3
    assert "closed form" in capsys.readouterr().err


def test_unwritable_out_exits_2(tmp_path, capsys):
    out = tmp_path / "missing" / "x.csv"
    assert main(["worst-case", "--T", "3", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "cannot write output" in err
    assert "Traceback" not in err


def test_reruns_are_bit_identical(tmp_path):
    argv = ["replay-sweep", "--d", "3", "--m", "0,1,2", "--trials", "5", "--seed", "7"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert filecmp.cmp(a, b, shallow=False)
    assert filecmp.cmp(tmp_path / "a.config.json", tmp_path / "b.config.json", shallow=False)


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
    assert math.isnan(float(rows[1]["analytic_value"]))
    assert float(rows[1]["mean_forgetting"]) > float(rows[0]["mean_forgetting"])


def test_replay_sweep_gd_matches_closed(tmp_path):
    closed, gd = tmp_path / "c.csv", tmp_path / "g.csv"
    base = ["replay-sweep", "--d", "3", "--m", "0,1", "--trials", "10", "--seed", "3"]
    assert main(base + ["--solver", "closed", "--out", str(closed)]) == 0
    assert main(base + ["--solver", "gd", "--out", str(gd)]) == 0
    for rc, rg in zip(_read_csv(closed), _read_csv(gd)):
        assert rc["m"] == rg["m"]
        assert abs(float(rc["mean_forgetting"]) - float(rg["mean_forgetting"])) <= 1e-3
        assert float(rg["max_fit_residual"]) <= 1e-1


def test_angle_sweep_grid(tmp_path):
    out = tmp_path / "angles.csv"
    assert main(["angle-sweep", "--d", "4", "--grid-points", "31", "--out", str(out)]) == 0
    rows = _read_csv(out)
    assert len(rows) == 31
    assert all(float(r["abs_dev"]) <= 1e-8 for r in rows)
    best = max(rows, key=lambda r: float(r["empirical_forgetting"]))
    assert abs(float(best["theta"]) - math.pi / 4.0) <= math.pi / 60.0 + 1e-12


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


def test_benign_check_small(tmp_path):
    out = tmp_path / "benign.csv"
    assert main(["benign-check", "--d", "5", "--trials", "40", "--out", str(out)]) == 0
    rows = _read_csv(out)
    assert len(rows) == 40
    assert all(r["violations"] == "0" for r in rows if r["certified"] == "True")
    assert any(r["certified"] == "True" for r in rows)


def test_oracles_command(tmp_path):
    out = tmp_path / "oracles.csv"
    assert main(["oracles", "--trials", "10000", "--out", str(out)]) == 0
    rows = _read_csv(out)
    names = {r["name"] for r in rows}
    assert {"min_norm_crosscheck", "claim_c2_ratio", "projector_sandwich"} <= names
    assert all(r["pass"] == "True" for r in rows)


def test_subcommand_help_documents_columns(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["replay-sweep", "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    assert "CSV columns:" in text
    assert "max_fit_residual" in text


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
