"""Run one uav-search CLI command in a fresh interpreter and record its timeline.

    python3 child.py SPEC_JSON CLI_ARG...

SPEC_JSON holds `root` (the checkout whose `src/` is imported), `stamp` (where
to write the timeline), `ready` (the `module.function` binding whose first
call marks the end of set-up) and, for a traced run, `trace_dir`. The stamp
records `t_ready` and `t_end` on the system-wide monotonic clock, so the
parent can subtract its own start time; `items` is the length of what the
ready call returned; RSS figures are the peaks in KiB of this process and of
its largest waited-for worker.
"""

from __future__ import annotations

import importlib
import json
import os
import resource
import sys
import time


def _one_shot(module, name: str, stamp: dict) -> None:
    """Stamp the first call of `module.name`, then restore the binding."""
    orig = getattr(module, name)

    def hook(*args, **kwargs):
        setattr(module, name, orig)
        stamp["t_ready"] = time.monotonic()
        out = orig(*args, **kwargs)
        if isinstance(out, list):
            stamp["items"] = len(out)
        return out

    setattr(module, name, hook)


def main() -> int:
    spec = json.loads(sys.argv[1])
    stamp: dict = {}
    src = os.path.join(spec["root"], "src")
    sys.path.insert(0, src)
    import uav_search.cli

    if not os.path.abspath(uav_search.cli.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"uav_search imported from {uav_search.cli.__file__}, not {src}", file=sys.stderr)
        return 3
    recorder = None
    if spec.get("trace_dir"):
        import tracing

        recorder = tracing.install(spec["trace_dir"])
    mod_name, func = spec["ready"].rsplit(".", 1)
    _one_shot(importlib.import_module(f"uav_search.{mod_name}"), func, stamp)

    rc = uav_search.cli.main(sys.argv[2:])
    stamp["t_end"] = time.monotonic()
    stamp["rc"] = rc
    stamp["rss_self_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    stamp["rss_worker_kib"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if recorder is not None:
        recorder.dump()
    with open(spec["stamp"], "w") as fh:
        json.dump(stamp, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
