"""The benchmark's outside-in tracer still runs against the package.

``perfbench/tracer.py`` looks up every name in its ``TRACED`` table with
``getattr``, so deleting or renaming one of them makes every traced
benchmark pass exit with an ``AttributeError``. This runs the tracer the way
``perfbench/run.py`` does, as a child process per command, and checks the
call-count invariants that ``run.py`` checks on a traced pass.
"""

import csv
import importlib
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
# run_path executes the module without importing it: no __main__ block, no
# bytecode written next to it.
tracer = runpy.run_path(str(TRACER_PATH))


def _calls(spans_path, *qualnames):
    name, err, _dur, _self_time, counters = tracer["load_spans"](str(spans_path))
    assert np.all(err == tracer["OK"])
    calls = {q: int(np.sum(name == tracer["NAMES"].index(q))) for q in qualnames}
    return calls, counters


def _traced_run(tmp_path, argv):
    """Run one command under the tracer; return its spans path and CSV path."""
    spans = tmp_path / f"{argv[0]}.npz"
    out = tmp_path / f"{argv[0]}.csv"
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, str(TRACER_PATH), str(spans), "--", *argv, "--out", str(out)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return spans, out


def test_every_traced_name_resolves():
    for qualname in tracer["NAMES"]:
        layer, name = qualname.split(".")
        getattr(importlib.import_module(f"continual_replay.{layer}"), name)


def test_traced_benign_check_invariants(tmp_path):
    trials = 20
    spans, out = _traced_run(tmp_path, ["benign-check", "--d", "6", "--trials", str(trials)])
    sidecar = json.loads(out.with_name("benign-check.config.json").read_text())
    with open(out, newline="") as fh:
        certified = sum(row["certified"] == "True" for row in csv.DictReader(fh))
    assert sidecar["analytic_predictions"]["certified_pairs"] == certified
    calls, (projectors, vacuous) = _calls(
        spans,
        "metrics.benign_replay_certificate",
        "metrics.replay_null_projector",
        "metrics.expected_forgetting_trace_form",
    )
    assert calls == {
        "metrics.benign_replay_certificate": trials,
        "metrics.replay_null_projector": 50 * certified,
        "metrics.expected_forgetting_trace_form": trials + 50 * certified,
    }
    # the sidecar's vacuous-subset count is the tracer's, by the same rule
    diagnostics = sidecar["diagnostics"]
    assert projectors == 50 * certified
    assert diagnostics["vacuous_subsets"] == vacuous
    assert 0 <= diagnostics["pairs_all_vacuous"] <= certified
    assert diagnostics["pairs_all_vacuous"] * 50 <= vacuous


def test_traced_replay_sweep_invariants(tmp_path):
    trials, m_count = 5, 3  # the default --m 0,1,2
    spans, out = _traced_run(tmp_path, ["replay-sweep", "--trials", str(trials)])
    sidecar = json.loads(out.with_name("replay-sweep.config.json").read_text())
    assert sidecar["diagnostics"] == {}
    calls, _ = _calls(
        spans,
        "task_gen.sample_task",
        "learner.select_replay",
        "learner.fit_closed_form",
        "learner.fit_gd",
    )
    assert calls == {
        "task_gen.sample_task": 2 * trials,
        "learner.select_replay": m_count * trials,
        "learner.fit_closed_form": 2 * m_count * trials,
        "learner.fit_gd": 2 * m_count * trials,
    }
