"""Write the committed reference outputs the benchmark compares against.

    python3 perfbench/make_reference.py [--workload border,pursuit,sweep,compile]

Runs every workload's command once per master seed, through the same child
process as the benchmark, and stores the output under `reference/`. Run it
only when a change is meant to alter the program's output; a change that
claims a speed-up must leave these files as they are.
"""

from __future__ import annotations

import argparse
import gzip
import shutil
import sys
import tempfile

import run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    args = parser.parse_args()
    names = list(run.WORKLOADS) if args.workload == "all" else args.workload.split(",")
    run.WORK.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(dir=run.WORK)
    try:
        for name in names:
            w = run.WORKLOADS[name]
            for master in range(run.MASTERS):
                out_dir = tempfile.mkdtemp(dir=work)
                cli_args, output = w.command(master, out_dir)
                if not run.run_cli(cli_args, w.ready, out_dir)["ok"]:
                    return 1
                with open(output, "rb") as fh:
                    data = fh.read()
                path = w.reference(master)
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_bytes(gzip.compress(data, mtime=0) if path.suffix == ".gz" else data)
                print(f"wrote {path.relative_to(run.ROOT)}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
