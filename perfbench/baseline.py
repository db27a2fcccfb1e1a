"""Measure the benchmark's own steadiness and record a baseline.

    python3 perfbench/baseline.py [--workload LIST] [--write]

For each workload, runs `run.py --trace 0` once per seed, in SETS sets of
RUNS distinct seeds starting at FIRST_SEED, each run `run_seconds` of
BENCHMARK.json long, and reports every end-to-end metric's median, quartiles
and spread per set: the distance between the quartiles as a share of the
median. A spread must stay below a third of the metric's bound in
BENCHMARK.json (`setup_s` is exempt), and no later set's median may be worse
than the first's by more than the bound. Then runs `run.py --trace 1` twice
on FIRST_SEED and checks that every exact counter (`*.calls`,
`simulator.ticks`, `certain_detections` and the two ratios) is identical
between the two runs. The exit code is 1 when any of these checks fails.
With `--write` the result, each check's outcome and a record of the machine
go to BASELINE.json beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import run

RUNS = 10
SETS = 2
FIRST_SEED = 100
EXACT_SUFFIXES = (".calls", "simulator.ticks", ".certain_detections", "_ratio")


def bench(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stdout}{proc.stderr}")
    print(proc.stdout.splitlines()[0][:200], flush=True)
    return json.loads(proc.stdout.splitlines()[-1])


def machine() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "note": ("shared 2-CPU machine: other tenants change its effective speed by up to "
                 "35% over seconds to minutes, so timings are noisy; end-to-end times "
                 "here are scaled by run.py's host-speed calibration"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    names = list(run.WORKLOADS) if args.workload == "all" else args.workload.split(",")

    report: dict = {"machine": machine(), "run_seconds": spec["run_seconds"], "workloads": {}}
    for name in names:
        entry: dict = {"sets": [], "failed_checks": []}
        for k in range(SETS):
            first = FIRST_SEED + k * RUNS
            values: dict[str, list[float]] = {}
            for seed in range(first, first + RUNS):
                for metric, v in bench(name, seed, 0)["metrics"].items():
                    values.setdefault(metric, []).append(v["value"])
            summary = {"seeds": [first, first + RUNS - 1]}
            for metric, vals in values.items():
                q1, med, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med
                ok = metric == "setup_s" or spread < bounds[metric] / 3
                if not ok:
                    entry["failed_checks"].append(f"set {k} {metric} spread {spread:.4f} >= bound/3")
                summary[metric] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": vals}
                print(f"{name:8s} set {k} {metric:13s} median {med:.6g} spread {spread:.4f} "
                      f"bound {bounds[metric]} {'ok' if ok else 'WIDE'}", flush=True)
            entry["sets"].append(summary)
        for metric, bound in bounds.items():
            medians = [s[metric]["median"] for s in entry["sets"]]
            sign = 1 if better[metric] == "lower" else -1
            worse = max(sign * (m - medians[0]) / medians[0] for m in medians)
            if worse > bound:
                entry["failed_checks"].append(f"{metric} later set worse by {worse:.4f} > bound")
            print(f"{name:8s} {metric:13s} later sets worse than the first by {worse:+.4f} (bound {bound})")
        first_run, second_run = (bench(name, FIRST_SEED, 1)["metrics"] for _ in range(2))
        exact = [m for m in first_run if m.endswith(EXACT_SUFFIXES)]
        differing = [m for m in exact if first_run[m]["value"] != second_run[m]["value"]]
        if differing:
            entry["failed_checks"].append(f"exact counters differ between traced runs: {differing}")
        entry["per_layer"] = {m: v["value"] for m, v in first_run.items()}
        entry["exact_counters_identical"] = not differing
        entry["steady"] = not entry["failed_checks"]
        print(f"{name:8s} exact counters identical across two traced runs: {not differing} {differing}")
        print(f"{name:8s} steady: {entry['steady']} {entry['failed_checks']}", flush=True)
        report["workloads"][name] = entry
    report["steady"] = all(e["steady"] for e in report["workloads"].values())
    if args.write:
        (run.BENCH_DIR / "BASELINE.json").write_text(json.dumps(report, indent=1) + "\n")
    return 0 if report["steady"] else 1


if __name__ == "__main__":
    sys.exit(main())
