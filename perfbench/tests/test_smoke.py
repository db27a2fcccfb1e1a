"""Smoke tests for the benchmark itself, at its smallest size (one command).

    python3 -m pytest perfbench/tests -q

They take about a minute, and the repository's own test suite does not
collect them.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
IGNORE = shutil.ignore_patterns("__pycache__", ".perfbench_work")


def bench(root: Path, *args: str) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=300, check=False,
    )
    return proc.returncode, proc.stdout


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_emits_exactly_the_declared_metrics(workload, trace):
    rc, out = bench(ROOT, "--workload", workload, "--seed", "5", "--seconds", "1", "--trace", str(trace))
    result = json.loads(out.splitlines()[-1])
    assert rc == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_corrupted_reference_counts_as_failed(tmp_path):
    for name in ("src", "scenarios", "maps", "models", "perfbench"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=IGNORE)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for ref in (tmp_path / "perfbench" / "reference" / "border").glob("*.csv"):
        lines = ref.read_text().splitlines(keepends=True)
        row = lines[3]
        lines[3] = row.replace(",win,", ",lose,") if ",win," in row else row.replace(",lose,", ",win,")
        ref.write_text("".join(lines))

    rc, out = bench(tmp_path, "--workload", "border", "--seed", "5", "--seconds", "1")
    result = json.loads(out.splitlines()[-1])
    assert rc == 1
    assert not result["correct"] and result["failed"] == 1 and result["attempted"] > 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=IGNORE)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    rc, out = bench(tmp_path, "--workload", "border", "--seconds", "1")
    assert rc != 0 and out == ""
