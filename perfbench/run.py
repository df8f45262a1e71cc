"""End-to-end benchmark of the continual-replay CLI.

    python3 perfbench/run.py --workload mc_3d --seed 42 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

Closed loop, one client: a workload pass runs the workload's commands one
after another, each as a fresh ``python -m continual_replay`` process, and
the next pass starts when the last command exits. Passes repeat until
``--seconds`` of measuring have elapsed. Passes 0 and 1 use ``--seed`` itself
(so every run checks that a rerun is bit-identical); later passes use seeds
drawn from ``--seed``, so one run averages over several inputs. BLAS threads
are pinned to 1 in the children's environment only. End-to-end times are
scaled to a fixed machine speed measured in the same run (REFERENCE_PROBE).

With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of one extra pass in which each
command runs in-process under ``perfbench/tracer.py``. See README.md.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import tracer

ROOT = Path(__file__).resolve().parent.parent
TRACER = Path(__file__).resolve().parent / "tracer.py"
WORK = ROOT / ".perfbench_work"
BLAS_THREADS = "1"
COMMAND_TIMEOUT_S = 120.0
MIN_PASSES = 3

SETUP_3D = "from continual_replay.task_gen import make_avg_case_3d\nmake_avg_case_3d()\n"
SETUP_HIGHDIM = (
    "from continual_replay.task_gen import make_avg_case_highdim\n"
    "make_avg_case_highdim(152, 0.4)\n"
)

# Dimensions and --m follow the workload definitions; trial counts set the
# length of one pass (1.2-3 s on a 2-vCPU x86 VM, BLAS pinned to one
# thread). The first command is the primary one: its trials over its wall
# time give trials_per_s.
WORKLOADS = {
    "sweep_gd": {
        "commands": [["replay-sweep", "--d", "3", "--m", "0,1,2", "--trials", "20"]],
        "setup": SETUP_3D,
    },
    "benign_d6": {
        "commands": [["benign-check", "--d", "6", "--trials", "200"]],
        "setup": "",
    },
    "mc_3d": {
        "commands": [["avg-case-3d", "--m", "1", "--trials", "20000"]],
        "setup": SETUP_3D,
    },
    "highdim": {
        "commands": [
            ["avg-case-highdim", "--d", "152", "--m", "10", "--trials", "6000"],
            ["oracles", "--trials", "100000"],
        ],
        "setup": SETUP_HIGHDIM,
    },
}
COMMANDS = tuple(dict.fromkeys(argv[0] for w in WORKLOADS.values() for argv in w["commands"]))

# A fixed computation owned by the benchmark, in the program's mix of small
# LAPACK calls, an 11x152 SVD and interpreted Python. One sample is taken
# before every pass; its run median measures how fast the shared machine is
# during this run (see README.md, "Machine-speed reference").
REFERENCE_PROBE = """
import numpy as np
rng = np.random.default_rng(0)
total = 0.0
for _ in range(2000):
    total += float(np.linalg.svd(rng.standard_normal((3, 3)), compute_uv=False)[0])
big = rng.standard_normal((11, 152))
for _ in range(120):
    total += float(np.linalg.svd(big, full_matrices=False)[1][0])
acc = 0
for i in range(100000):
    acc += i % 7
"""
# End-to-end times are reported at the speed of a machine on which one
# reference sample takes this long.
REFERENCE_S = 0.25

ENV_PROBE = """
import json, os, platform, numpy
import continual_replay
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({
    "python": platform.python_version(),
    "numpy": numpy.__version__,
    "blas": f"{blas['name']} {blas['version']}",
    "nproc": len(os.sched_getaffinity(0)),
    "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
}))
"""


class BenchError(Exception):
    """The benchmark cannot run here (missing program, broken child)."""


def _trials(argv: list[str]) -> int:
    return int(argv[argv.index("--trials") + 1])


def _child_env() -> dict:
    env = dict(os.environ)
    env.update(
        OPENBLAS_NUM_THREADS=BLAS_THREADS,
        OMP_NUM_THREADS=BLAS_THREADS,
        PYTHONPATH=str(ROOT / "src"),
        COLUMNS="10000",  # keep argparse from wrapping the column list
    )
    return env


def launch(argv: list[str], env: dict, stderr_path: Path) -> tuple[int, float, int]:
    """Run one child; return (exit code, wall seconds, its own max RSS in KiB).

    The child's rusage comes from ``os.wait4`` on its pid, not from
    RUSAGE_CHILDREN, which keeps a running maximum over all children.
    """
    with open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
            env=env, cwd=ROOT,
        )
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss


def _capture(argv: list[str], env: dict) -> str:
    done = subprocess.run(
        argv, capture_output=True, text=True, env=env, cwd=ROOT, timeout=COMMAND_TIMEOUT_S
    )
    if done.returncode != 0:
        raise BenchError(f"{' '.join(argv[1:4])} exited {done.returncode}: {done.stderr[-500:]}")
    return done.stdout


def help_columns(command: str, env: dict) -> list[str]:
    """The CSV columns a command documents in its ``--help`` epilog."""
    text = _capture([sys.executable, "-m", "continual_replay", command, "--help"], env)
    _, sep, tail = text.partition("CSV columns:")
    if not sep:
        raise BenchError(f"{command} --help documents no CSV columns")
    return "".join(tail.split()).split(",")


# ------------------------------------------------------------ output checks


def _sidecar(csv_path: Path) -> Path:
    return csv_path.with_name(csv_path.name[: -len(".csv")] + ".config.json")


def check_outputs(command: str, csv_path: Path, columns: list[str]) -> tuple[list[str], dict]:
    """Problems found in one command's CSV and sidecar, and facts read from them."""
    with open(csv_path, newline="") as fh:
        reader = csv.DictReader(fh)
        header, rows = reader.fieldnames, list(reader)
    sidecar = json.loads(_sidecar(csv_path).read_text())
    problems = [] if header == columns else [f"CSV header {header} != --help {columns}"]
    facts: dict = {}
    true = "True"
    if command == "replay-sweep":
        closed = {int(r["m"]): r for r in rows if r["solver"] == "closed_form"}
        if not float(closed[0]["abs_dev_analytic"]) <= 1e-12:
            problems.append(f"closed form m=0 abs_dev_analytic {closed[0]['abs_dev_analytic']}")
        if not float(closed[2]["mean_forgetting"]) <= 1e-12:
            problems.append(f"closed form m=2 mean_forgetting {closed[2]['mean_forgetting']}")
        # The GD lane is reported, not gated: its tolerance ladder accepts a
        # 1e-2 residual, so it misses the analytic value at m=2.
        facts["gd_max_fit_residual"] = max(
            float(r["max_fit_residual"]) for r in rows if r["solver"] == "gd"
        )
        facts["m_list_len"] = len(closed)
    elif command == "benign-check":
        if sum(int(r["violations"]) for r in rows) != 0:
            problems.append("certified pairs gained forgetting under replay")
        certified = sum(r["certified"] == true for r in rows)
        if sidecar["analytic_predictions"]["certified_pairs"] != certified:
            problems.append("sidecar certified_pairs disagrees with the certified rows")
        facts["certified_pairs"] = certified
    elif command == "avg-case-3d":
        row = rows[0]
        if row["meets_bound_3sigma"] != true or row["exceeds_one_3sigma"] != true:
            problems.append("3D replay ratio misses its bound or does not exceed 1")
    elif command == "avg-case-highdim":
        if rows[0]["exceeds_no_replay_3sigma"] != true:
            problems.append("high-dimensional replay does not exceed no-replay by 3 SE")
    elif command == "oracles":
        failing = [r["name"] for r in rows if r["pass"] != true]
        if failing:
            problems.append(f"oracle rows failed: {failing}")
    return problems, facts


# ------------------------------------------------------------------ runner


class Run:
    """One benchmark invocation on one workload."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.name = workload
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.work = work
        self.env = _child_env()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first_bytes: dict = {}  # (command index, seed) -> CSV + sidecar bytes
        self.columns: dict = {}

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)

    def prepare(self) -> dict:
        """Warm the bytecode and file caches and return the environment record."""
        env_record = json.loads(_capture([sys.executable, "-c", ENV_PROBE], self.env))
        for argv in self.spec["commands"]:
            self.columns[argv[0]] = help_columns(argv[0], self.env)
        return env_record

    def _timed_child(self, code: str, label: str) -> float:
        err_path = self.work / f"{label}.err"
        rc, wall, _ = launch([sys.executable, "-c", code], self.env, err_path)
        if rc != 0:
            raise BenchError(f"{label} child exited {rc}: {err_path.read_text()[-500:]}")
        return wall

    def setup_sample(self) -> float:
        return self._timed_child("import continual_replay\n" + self.spec["setup"], "setup")

    def reference_sample(self) -> float:
        return self._timed_child(REFERENCE_PROBE, "reference")

    def run_pass(self, k: int, seed: int, traced: bool = False) -> dict:
        """One workload pass; returns walls, per-command RSS and output facts."""
        out = []
        t0 = time.perf_counter()
        for i, argv in enumerate(self.spec["commands"]):
            stem = self.work / f"p{k}_c{i}"
            csv_path = stem.with_suffix(".csv")
            tail = [*argv, "--seed", str(seed), "--out", str(csv_path)]
            if traced:
                spans = WORK / "traces" / f"{self.name}.{argv[0]}.npz"
                spans.parent.mkdir(exist_ok=True)
                spans.unlink(missing_ok=True)  # never read a previous run's spans
                child = [sys.executable, str(TRACER), str(spans), "--", *tail]
            else:
                child = [sys.executable, "-m", "continual_replay", *tail]
            rc, wall, rss = launch(child, self.env, stem.with_suffix(".err"))
            out.append((i, argv[0], csv_path, rc, wall, rss))
        pass_wall = time.perf_counter() - t0
        walls, rss_kib, facts = [], {}, {}
        for i, command, csv_path, rc, wall, rss in out:
            walls.append(wall)
            rss_kib[command] = rss
            if rc != 0:
                err = csv_path.with_suffix(".err").read_text()[-300:]
                self.record(f"pass {k} {command}", [f"exit code {rc}: {err}"])
                continue
            try:
                problems, facts[command] = check_outputs(command, csv_path, self.columns[command])
                blob = csv_path.read_bytes() + _sidecar(csv_path).read_bytes()
            except (OSError, ValueError, KeyError, IndexError) as exc:
                self.record(f"pass {k} {command}", [f"unreadable output: {exc!r}"])
                continue
            first = self.first_bytes.setdefault((i, seed), blob)
            if blob != first:
                problems.append(f"outputs differ from the first run of seed {seed}")
            self.record(f"pass {k} {command}", problems)
        return {"wall": pass_wall, "walls": walls, "rss": rss_kib, "facts": facts}

    def measure(self, seconds: float) -> tuple[dict, list[dict]]:
        """Alternate reference, set-up and pass samples until ``seconds`` elapse."""
        draw = random.Random(self.seed)
        samples: dict = {"reference": [], "setup": []}
        passes: list[dict] = []
        start = time.perf_counter()
        while True:
            k = len(passes)
            seed = self.seed if k < 2 else draw.randrange(2**31)
            samples["reference"].append(self.reference_sample())
            samples["setup"].append(self.setup_sample())
            passes.append(self.run_pass(k, seed))
            elapsed = time.perf_counter() - start
            step = elapsed / len(passes)
            if len(passes) >= MIN_PASSES and elapsed + step > seconds:
                return samples, passes


def end_to_end(run: Run, samples: dict, passes: list[dict]) -> tuple[dict, dict]:
    """End-to-end metrics at reference speed, and the raw medians behind them."""
    primary = run.spec["commands"][0]
    raw = {
        "reference_s": statistics.median(samples["reference"]),
        "setup_s": statistics.median(samples["setup"]),
        "wall_s": statistics.median(p["wall"] for p in passes),
        "primary_wall_s": statistics.median(p["walls"][0] for p in passes),
    }
    speed = REFERENCE_S / raw["reference_s"]  # < 1 while the machine runs slow
    metrics = {
        "wall_s": (raw["wall_s"] * speed, "s"),
        "trials_per_s": (_trials(primary) / (raw["primary_wall_s"] - raw["setup_s"]) / speed, "1/s"),
        "setup_s": (raw["setup_s"] * speed, "s"),
        "peak_rss_mb": (statistics.median(max(p["rss"].values()) for p in passes) / 1024, "MB"),
        "ok_rate": ((run.attempted - run.failed) / run.attempted, "ratio"),
    }
    return metrics, raw


# p99 is reported for the callables that reach 1000 calls in some traced pass.
P99_NAMES = (
    "linalg_core.orthonormal_basis",
    "linalg_core.Subspace",
    "linalg_core.Projector",
    "metrics.replay_null_projector",
    "metrics.expected_forgetting_trace_form",
)


def per_layer(run: Run, passes: list[dict]) -> dict:
    """Trace one pass at ``--seed`` and turn its spans into layer metrics."""
    import numpy as np

    traced = run.run_pass(len(passes), run.seed, traced=True)
    loaded, counters = [], np.zeros(2)
    for argv in run.spec["commands"]:
        try:
            *arrays, count = tracer.load_spans(str(WORK / "traces" / f"{run.name}.{argv[0]}.npz"))
        except (OSError, ValueError) as exc:
            run.record(f"traced {argv[0]}", [str(exc)])
            continue
        loaded.append(arrays)
        counters += count
    if loaded:
        name, err, dur, self_time = (np.concatenate(a) for a in zip(*loaded))
    else:
        name = err = np.zeros(0, dtype=int)
        dur = self_time = np.zeros(0)

    metrics: dict = {}
    calls = {}
    for index, qualname in enumerate(tracer.NAMES):
        mask = name == index
        n = int(mask.sum())
        calls[qualname] = n
        metrics[f"{qualname}.calls"] = (n, "count")
        metrics[f"{qualname}.self_s"] = (float(self_time[mask].sum()), "s")
        metrics[f"{qualname}.p50_us"] = (float(np.median(dur[mask])) * 1e6 if n else 0.0, "us")
        if qualname in P99_NAMES:
            p99 = float(np.percentile(dur[mask], 99)) * 1e6 if n >= 1000 else 0.0
            metrics[f"{qualname}.p99_us"] = (p99, "us")
    gd = name == tracer.NAMES.index("learner.fit_gd")
    not_converged = int((gd & (err == tracer.NOT_CONVERGED)).sum())
    returned = int((gd & (err == tracer.OK)).sum())
    facts = traced["facts"]
    metrics["learner.fit_gd.not_converged"] = (not_converged, "count")
    fits = calls["learner.fit_gd"]
    metrics["learner.fit_gd.accept_ratio"] = (returned / fits if fits else 0.0, "ratio")
    residual = facts.get("replay-sweep", {}).get("gd_max_fit_residual", 0.0)
    metrics["learner.gd_max_fit_residual"] = (residual, "1")
    projectors, vacuous = counters
    vacuous_ratio = vacuous / projectors if projectors else 0.0
    metrics["metrics.replay_null_projector.vacuous_ratio"] = (vacuous_ratio, "ratio")
    for command in COMMANDS:
        rss = [p["rss"][command] for p in passes if command in p["rss"]]
        peak = statistics.median(rss) / 1024 if rss else 0.0
        metrics[f"cli_harness.{command}.peak_rss_mb"] = (peak, "MB")
    same_seed = [p["wall"] for p in passes[:2]]
    metrics["trace_overhead_s"] = (traced["wall"] - statistics.fmean(same_seed), "s")

    run.record("traced pass invariants", invariant_problems(run, calls, not_converged, facts))
    return metrics


def invariant_problems(run: Run, calls: dict, not_converged: int, facts: dict) -> list[str]:
    """Call counts that follow from the code and must hold exactly."""
    argv = run.spec["commands"][0]
    expect = {}
    if argv[0] == "benign-check" and "benign-check" in facts:
        n, c = _trials(argv), facts["benign-check"]["certified_pairs"]
        expect = {
            "metrics.benign_replay_certificate": n,
            "metrics.replay_null_projector": 50 * c,
            "metrics.expected_forgetting_trace_form": n + 50 * c,
        }
    elif argv[0] == "replay-sweep" and "replay-sweep" in facts:
        t, L = _trials(argv), facts["replay-sweep"]["m_list_len"]
        expect = {
            "task_gen.sample_task": 2 * t,
            "learner.select_replay": L * t,
            "learner.fit_closed_form": 2 * L * t,
            "learner.fit_gd": 2 * L * t + not_converged,
        }
    return [f"{k}.calls {calls[k]} != {v}" for k, v in expect.items() if calls[k] != v]


# -------------------------------------------------------------------- main


def bench(workload: str, seed: int, seconds: int, trace: bool) -> tuple[Run, dict, dict]:
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    try:
        run = Run(workload, seed, work)
        env_record = run.prepare()
        samples, passes = run.measure(seconds)
        if trace:
            metrics = per_layer(run, passes)
        else:
            metrics, raw = end_to_end(run, samples, passes)
            env_record["raw_medians"] = raw
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env_record.update(
        seed=seed,
        workload=workload,
        passes=len(passes),
        pass_walls_s=[round(p["wall"], 4) for p in passes],
        reference_samples_s=[round(t, 4) for t in samples["reference"]],
        trials={argv[0]: _trials(argv) for argv in run.spec["commands"]},
    )
    return run, metrics, env_record


def _result(run_list: list[Run], metrics: dict) -> str:
    attempted = sum(r.attempted for r in run_list)
    failed = sum(r.failed for r in run_list)
    return json.dumps(
        {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "continual_replay" / "cli_harness.py").is_file():
        print(f"no continual_replay sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    runs, merged = [], {}
    try:
        for name in names:
            run, metrics, env_record = bench(name, args.seed, args.seconds, bool(args.trace))
            runs.append(run)
            print("# env " + json.dumps(env_record, sort_keys=True))
            for problem in run.problems:
                print(f"# FAIL {name} {problem}")
            if not args.trace:
                metrics["fail_rate"] = (run.failed / run.attempted, "ratio")
            for key, (value, unit) in metrics.items():
                print(f"{name:10s} {key:52s} {value:.6g} {unit}")
            if args.workload == "all":
                merged.update({f"{name}.{k}": v for k, v in metrics.items()})
            else:
                metrics.pop("fail_rate", None)
                merged = metrics
    except (BenchError, subprocess.TimeoutExpired, ChildProcessError) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    print(_result(runs, merged))
    return 0


if __name__ == "__main__":
    sys.exit(main())
