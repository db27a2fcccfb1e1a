"""Offline end-to-end benchmark of the uav-search CLI, with an output oracle.

    python3 perfbench/run.py [--workload border,pursuit,sweep,compile|all]
                             [--seed N] [--seconds S] [--trace 0|1]

Each measured operation is one CLI command in a fresh interpreter, as a user
runs it, from the checkout that holds this directory. A run executes a fixed
number of commands, set by `--seconds` and the workload's nominal command
length, so every run of a workload does the same work whatever the program's
speed. A run of n commands uses the first n of the MASTERS master seeds whose
outputs are committed under `reference/`, in an order `--seed` shuffles. Every
output row is compared with its reference, and a row that differs, is missing
or comes from a failed command counts as failed. One row is a trial, a sweep
point or a model transition.

With `--trace 0` the end-to-end metrics are medians over the commands, each
command's times scaled to a reference host speed (see calibrate(); the row
printed per workload shows the median factor as `host_speed`):

  trials_per_s  trials (compile: training traces) per second, from the end of
                set-up until the command's work returns
  wall_s        fresh interpreter to exit
  setup_s       fresh interpreter to the first trial (run), the first batch
                (sweep) or the first trace (compile): imports, config
                loading, graph refinement and world building
  peak_rss_mb   peak RSS of the command process plus jobs x its largest worker

With `--trace 1` the run alternates untraced and traced commands on the same
masters, with every layer's public functions wrapped from outside in the
traced ones (see tracing.py). The number of pairs is fixed by `--seconds`, so
counts repeat exactly. The tracing overhead is the median scaled wall time of
the traced commands minus that of the untraced ones.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`. The exit code is 1 when any row failed.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE = BENCH_DIR / "reference"
WORK = ROOT / ".perfbench_work"

MASTERS = 16  # master seeds with committed reference outputs, per workload
COMMAND_TIMEOUT_S = 150

# The machine is shared: each of its CPUs changes speed by up to 40% over
# seconds to minutes, and the two CPUs differ, which no run length averages
# out. So a workload's commands run on `jobs` CPUs of their own (see
# measure()), and a fixed step that shares no code with uav_search, a fresh
# interpreter importing numpy, scipy.sparse and yaml, is timed on each of those
# CPUs in turn before the first command and after every command. Each command's times
# are scaled to the host speed at which that step takes CALIBRATION_REF_S,
# using the mean of the steps around it. The step runs in processes of its
# own, so the program's own imports stay its own.
CALIBRATION_REF_S = 0.30
CALIBRATION = ("import os, sys, time; os.sched_setaffinity(0, {int(sys.argv[1])}); "
               "t = time.perf_counter(); import numpy, scipy.sparse, yaml; "
               "print(time.perf_counter() - t)")

COMPILE_STRATEGIES = "shortest,random_walk:beta=0.01,side_roads:penalty=1.5"
COMPILE_FLAGS = ["--radius", "500", "--tick", "20", "--velocity", "8:12", "--target-class", "runner"]
# The README command that reproduces the bundled model.
README_MODEL = "models/border_shortest.model"
README_COMPILE = ["compile-model", "maps/border.graph", "--strategies", "shortest",
                  "--runs-per-pair", "3", "--seed", "7", *COMPILE_FLAGS]

REQUIRED = ("src/uav_search/cli.py", "scenarios/border.yaml", "scenarios/border_sweep.yaml",
            "maps/border.graph", README_MODEL)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "run" | "sweep" | "compile"
    input: str  # scenario, sweep file or graph, relative to the checkout
    size: int  # trials per `run` command; runs per pair for `compile`
    jobs: int
    # Seconds per command on the baseline machine in a slow period, with its
    # calibration step, untraced and traced. They size a run from `--seconds`
    # so that runs fit the time a full evaluation may take.
    command_s: float
    traced_s: float

    @property
    def ready(self) -> str:
        """Binding whose first call ends set-up."""
        return {"run": "simulator.run_trial", "sweep": "cli.run_batch",
                "compile": "cli.traces_for_strategies"}[self.kind]

    def reference(self, master: int) -> Path:
        ext = "model.gz" if self.kind == "compile" else "csv"
        return REFERENCE / self.name / f"seed-{master:02d}.{ext}"

    def command(self, master: int, out_dir: str) -> tuple[list[str], str]:
        """CLI arguments for one command, and the output file it writes."""
        seed = ["--seed", str(master), "--jobs", str(self.jobs)]
        if self.kind == "run":
            out = os.path.join(out_dir, "trials.csv")
            return ["run", self.input, "--trials", str(self.size), *seed, "--out", out], out
        if self.kind == "sweep":
            return ["sweep", self.input, *seed, "--out", out_dir], os.path.join(out_dir, "sweep.csv")
        out = os.path.join(out_dir, "model.model")
        return ["compile-model", self.input, "--strategies", COMPILE_STRATEGIES,
                "--runs-per-pair", str(self.size), *seed, *COMPILE_FLAGS, "--out", out], out


WORKLOADS = {w.name: w for w in (
    # README quick start: 3 UAVs vs 3 targets, 7 km head start, adaptive.
    Workload("border", "run", "scenarios/border.yaml", 40, 1, 4.2, 5.6),
    # No head start and 5 targets vs 3 UAVs: no frozen phase, planner-heavy.
    Workload("pursuit", "run", "perfbench/scenarios/pursuit.yaml", 24, 1, 4.4, 5.6),
    # The only path through the process pool: 3 points x 50 trials.
    Workload("sweep", "sweep", "scenarios/border_sweep.yaml", 0, 2, 7.0, 14.0),
    # Route search and trace sampling; no beliefs, no planner.
    Workload("compile", "compile", "maps/border.graph", 6, 1, 3.9, 4.7),
)}

END_TO_END_UNITS = {"trials_per_s": "trials/s", "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
TRACE_UNITS = {**tracing.metric_units(), "trace.wall_s": "s", "trace.overhead_s": "s"}


def compare(output: str, reference: list[str]) -> tuple[int, int]:
    """(attempted, failed) rows of `output` against the reference lines,
    whose first line is a header. A wrong header fails every row."""
    try:
        with open(output, newline="") as fh:
            lines = fh.read().splitlines()
    except OSError:
        lines = []
    attempted = len(reference) - 1 + max(0, len(lines) - len(reference))
    if not lines or lines[0] != reference[0]:
        return attempted, attempted
    failed = sum(1 for i in range(1, len(reference)) if i >= len(lines) or lines[i] != reference[i])
    return attempted, failed + max(0, len(lines) - len(reference))


def read_reference(path: Path) -> list[str]:
    data = gzip.decompress(path.read_bytes()) if path.suffix == ".gz" else path.read_bytes()
    return data.decode().splitlines()


def _stop_group(proc: subprocess.Popen) -> None:
    """Kill a timed-out command and every worker it started."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_cli(args: list[str], ready: str, work: str, trace_dir: str | None = None) -> dict:
    """Run one CLI command through child.py; return its timeline and stamp."""
    stamp_path = os.path.join(work, "stamp.json")
    spec = {"root": str(ROOT), "stamp": stamp_path, "ready": ready, "trace_dir": trace_dir}
    log_path = os.path.join(work, "log.txt")
    with open(log_path, "w") as log:
        t0 = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(BENCH_DIR / "child.py"), json.dumps(spec), *args],
                                cwd=ROOT, stdout=log, stderr=subprocess.STDOUT, start_new_session=True)
        try:
            proc.wait(timeout=COMMAND_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            _stop_group(proc)
        except BaseException:  # interrupted: leave no command behind
            _stop_group(proc)
            raise
        t_exit = time.monotonic()
    try:
        with open(stamp_path) as fh:
            stamp = json.load(fh)
    except (OSError, ValueError):
        stamp = {}
    ok = proc.returncode == 0 and stamp.get("rc") == 0 and "t_ready" in stamp
    if not ok:
        with open(log_path) as fh:
            tail = fh.read()[-2000:]
        print(f"command failed (exit {proc.returncode}): {' '.join(args)}\n{tail}", file=sys.stderr)
    return {"ok": ok, "t0": t0, "t_exit": t_exit, **stamp}


def _items(w: Workload, output: str, stamp: dict) -> int:
    """Trials (or traces) the command completed, read from what it wrote."""
    if w.kind == "compile":
        return stamp.get("items", 0)
    with open(output) as fh:
        rows = fh.read().splitlines()[1:]
    if w.kind == "run":
        return len(rows)
    return sum(int(row.rsplit(",", 1)[1]) for row in rows)


def calibrate(cpus: list[int]) -> float:
    """Mean seconds a fresh interpreter takes to import numpy, scipy.sparse
    and yaml, timed on each of `cpus` in turn."""
    times = []
    for cpu in cpus:
        proc = subprocess.run([sys.executable, "-c", CALIBRATION, str(cpu)], capture_output=True, text=True,
                              timeout=COMMAND_TIMEOUT_S, check=True)
        times.append(float(proc.stdout))
    return statistics.mean(times)


def run_command(w: Workload, master: int, work: str, trace_dir: str | None = None):
    """One measured command: (attempted, failed, timings or None)."""
    out_dir = tempfile.mkdtemp(dir=work)
    args, output = w.command(master, out_dir)
    res = run_cli(args, w.ready, out_dir, trace_dir)
    attempted, failed = compare(output, read_reference(w.reference(master)))
    if not res["ok"]:
        return attempted, attempted, None
    timing = {
        "wall_s": res["t_exit"] - res["t0"],
        "setup_s": res["t_ready"] - res["t0"],
        "trials_per_s": _items(w, output, res) / (res["t_end"] - res["t_ready"]),
        "peak_rss_mb": (res["rss_self_kib"] + w.jobs * res["rss_worker_kib"]) / 1024,
    }
    return attempted, failed, timing


def scale(timing: dict, speed: float) -> dict:
    """A command's timings at the reference host speed."""
    return {**timing, "trials_per_s": timing["trials_per_s"] / speed,
            "wall_s": timing["wall_s"] * speed, "setup_s": timing["setup_s"] * speed}


def readme_model_check(work: str) -> tuple[int, int]:
    """The README compile-model command must reproduce the bundled model."""
    out_dir = tempfile.mkdtemp(dir=work)
    out = os.path.join(out_dir, "border_shortest.model")
    res = run_cli([*README_COMPILE, "--out", out], "cli.traces_for_strategies", out_dir)
    attempted, failed = compare(out, (ROOT / README_MODEL).read_text().splitlines())
    return (attempted, failed) if res["ok"] else (attempted, attempted)


def measure(w: Workload, seed: int, seconds: float, trace: bool, work: str) -> dict:
    """Run one workload's commands one after another (a closed loop with one
    client) and return its rows and metrics."""
    n = max(1, round(seconds / (w.command_s + w.traced_s if trace else w.command_s)))
    # The first n masters in an order the seed shuffles: every run of one
    # length does the same work, so work differences never enter the spread.
    k = min(n, MASTERS)
    order = random.Random(seed).sample(range(k), k)
    attempted = failed = 0
    timings: dict[bool, list[dict]] = {False: [], True: []}
    speeds: list[float] = []
    cpus = sorted(os.sched_getaffinity(0))
    cal = calibrate(cpus)

    def one(master: int, trace_dir: str | None = None) -> None:
        nonlocal attempted, failed, cal
        a, f, timing = run_command(w, master, work, trace_dir)
        attempted += a
        failed += f
        before, cal = cal, calibrate(cpus)
        if timing is not None:
            speed = CALIBRATION_REF_S / ((before + cal) / 2)
            speeds.append(speed)
            timings[trace_dir is not None].append(scale(timing, speed))

    metrics: dict[str, float] = {}
    if not trace:
        for i in range(n):
            one(order[i % len(order)])
        if len(timings[False]) == n:
            metrics = {name: statistics.median(t[name] for t in timings[False]) for name in END_TO_END_UNITS}
    else:
        dirs = []
        for i in range(n):
            one(order[i % len(order)])
            dirs.append(tempfile.mkdtemp(dir=work))
            one(order[i % len(order)], dirs[-1])
        if len(timings[False]) == len(timings[True]) == n:
            metrics = tracing.merge(dirs)
            walls = {traced: statistics.median(t["wall_s"] for t in timings[traced]) for traced in timings}
            metrics["trace.wall_s"] = walls[True]
            metrics["trace.overhead_s"] = walls[True] - walls[False]
    if w.kind == "compile":
        a, f = readme_model_check(work)
        attempted += a
        failed += f
    speed = statistics.median(speeds) if speeds else None
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "speed": speed}


def _row(name: str, result: dict, units: dict[str, str]) -> str:
    share = result["failed"] / result["attempted"]
    cells = [f"{m}={result['metrics'][m]:.6g} {u}" for m, u in units.items() if m in result["metrics"]]
    if result["speed"] is not None:
        cells.append(f"host_speed={result['speed']:.4g}")
    return f"{name:8s} " + "  ".join(cells + [f"failed_share={share:.6g} ratio ({result['attempted']} rows)"])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", help="comma list of workloads, or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = list(WORKLOADS) if args.workload == "all" else args.workload.split(",")
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; known: {sorted(WORKLOADS)}")
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"error: {ROOT} is not a uav-search checkout: missing {', '.join(missing)}", file=sys.stderr)
        return 2
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    units = TRACE_UNITS if args.trace else END_TO_END_UNITS
    WORK.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(dir=WORK)
    all_cpus = os.sched_getaffinity(0)
    results = {}
    try:
        for n in names:
            # A workload's commands run on `jobs` CPUs, the ones its host-speed
            # step times; the commands inherit this process's CPU set.
            os.sched_setaffinity(0, sorted(all_cpus)[:WORKLOADS[n].jobs])
            results[n] = measure(WORKLOADS[n], args.seed, seconds, bool(args.trace), work)
    finally:
        os.sched_setaffinity(0, all_cpus)
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    for name, result in results.items():
        print(_row(name, result, units))
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    complete = all(set(r["metrics"]) == set(units) for r in results.values())
    metrics = {
        (m if len(names) == 1 else f"{n}.{m}"): {"value": v, "unit": units[m]}
        for n, r in results.items() for m, v in r["metrics"].items()
    }
    correct = failed == 0 and complete
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
