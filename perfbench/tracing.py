"""Per-layer spans and counters for the traced benchmark run.

Every traced function is wrapped from outside the program, at each binding a
caller uses: a function imported by name into another module (for example
`uav_search.simulator.propagate`) is replaced there too, and methods are
replaced on their class. Nothing in `uav_search` changes.

A span is (function, trial seed, inclusive seconds, self seconds), where self
time is the span's duration minus the time covered by its child spans. Spans
stay in memory and each process writes its own file when it ends: the command
process after the CLI returns, each pool worker from a multiprocessing
finalizer registered after the fork. `merge` turns the files into metrics.
"""

from __future__ import annotations

import array
import inspect
import json
import math
import multiprocessing.util
import os
import sys
from time import perf_counter

# metric prefix -> (defining module, attribute). "*.path" means the `path`
# method of every class defined in the module (the route strategies).
TRACED = (
    ("simulator.run_trial", "simulator", "run_trial"),
    ("simulator.run_batch", "simulator", "run_batch"),
    ("simulator.build_world", "simulator", "build_world"),
    ("simulator._spawn_targets", "simulator", "_spawn_targets"),
    ("belief.propagate", "belief", "propagate"),
    ("belief.negative_update", "belief", "negative_update"),
    ("belief.cell_marginal", "belief", "cell_marginal"),
    ("planner.select_cells", "planner", "select_cells"),
    ("planner.greedy_select", "planner", "greedy_select"),
    ("planner.match_uavs_to_cells", "planner", "match_uavs_to_cells"),
    ("road_graph.covered_cells", "road_graph", "GridOverlay.covered_cells"),
    ("road_graph.shortest_path", "road_graph", "shortest_path"),
    ("road_graph.overlay_grid", "road_graph", "overlay_grid"),
    ("strategies.path", "strategies", "*.path"),
    ("movement.load_model", "movement", "load_model"),
    ("movement.sample_trace", "movement", "sample_trace"),
    ("movement.compile_model", "movement", "compile_model"),
    ("movement.traces_for_strategies", "movement", "traces_for_strategies"),
    ("config.load_scenario", "config", "load_scenario"),
    ("config.sweep_points", "config", "sweep_points"),
    ("cli.main", "cli", "main"),
)

# Whole trials are reported in milliseconds, every other span in microseconds.
MS_SPANS = {"simulator.run_trial"}

COUNTERS = (
    ("simulator.ticks", "count"),
    ("belief.negative_update.certain_detections", "count"),
    ("road_graph.covered_cells.nonempty_ratio", "ratio"),
    ("planner.select_cells.unchanged_ratio", "ratio"),
)


def metric_units() -> dict[str, str]:
    """Every per-layer metric name the merged trace reports, with its unit."""
    units = {}
    for name, _, _ in TRACED:
        scale = "ms" if name in MS_SPANS else "us"
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        units[f"{name}.{scale}_p50"] = scale
        units[f"{name}.{scale}_p90"] = scale
    units.update(COUNTERS)
    return units


class Recorder:
    """Span store and counters of one process."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self._reset()

    def _reset(self) -> None:
        self.fid = array.array("H")
        self.trial = array.array("Q")
        self.dur = array.array("d")
        self.self_s = array.array("d")
        self.stack: list[float] = []  # child time covered, per open span
        self.current_trial = 0
        self.last_cells = None
        # Reset in place: the span hooks hold this dict.
        self.counts = getattr(self, "counts", {})
        for key in ("ticks", "certain", "covered_calls", "covered_nonempty", "select_calls", "select_unchanged"):
            self.counts[key] = 0

    def in_worker(self) -> None:
        """Runs in a forked pool worker: drop the parent's spans and write
        this process's own when it exits."""
        self._reset()
        multiprocessing.util.Finalize(None, self.dump, exitpriority=0)

    def dump(self) -> None:
        data = {
            "fid": self.fid.tolist(), "trial": self.trial.tolist(),
            "dur": self.dur.tolist(), "self": self.self_s.tolist(), "counts": self.counts,
        }
        with open(os.path.join(self.out_dir, f"spans-{os.getpid()}.json"), "w") as fh:
            json.dump(data, fh)

    def wrap(self, fid: int, orig, name: str):
        rec = self
        on_enter, on_return, on_error = _hooks(rec, name)

        def span(call, args, kwargs):
            if on_enter is not None:
                on_enter(args, kwargs)
            stack = rec.stack
            stack.append(0.0)
            t0 = perf_counter()
            try:
                out = call(*args, **kwargs)
            except BaseException as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                d = perf_counter() - t0
                covered = stack.pop()
                if stack:
                    stack[-1] += d
                rec.fid.append(fid)
                rec.trial.append(rec.current_trial)
                rec.dur.append(d)
                rec.self_s.append(d - covered)
            if on_return is not None:
                on_return(out)
            return out

        if inspect.isgeneratorfunction(orig):
            # Time each step of the generator; the caller's work between
            # steps is not part of the span.
            def gen_wrapper(*args, **kwargs):
                it = orig(*args, **kwargs)
                while True:
                    try:
                        item = span(next, (it,), {})
                    except StopIteration:
                        return
                    yield item

            return gen_wrapper

        def wrapper(*args, **kwargs):
            return span(orig, args, kwargs)

        return wrapper


def _hooks(rec: Recorder, name: str):
    """Counter updates made at a span's boundaries: (enter, return, error)."""
    c = rec.counts
    if name == "simulator.run_trial":
        def enter(args, kwargs):
            rec.current_trial = int(kwargs.get("seed", args[1] if len(args) > 1 else 0))
            rec.last_cells = None

        def done(out):
            c["ticks"] += int(out.ticks)

        return enter, done, None
    if name == "belief.negative_update":
        def error(exc):
            if type(exc).__name__ == "CertainDetection":
                c["certain"] += 1

        return None, None, error
    if name == "road_graph.covered_cells":
        def done(out):
            c["covered_calls"] += 1
            c["covered_nonempty"] += bool(out)

        return None, done, None
    if name == "planner.select_cells":
        def done(out):
            cells = frozenset(out)
            c["select_calls"] += 1
            c["select_unchanged"] += cells == rec.last_cells
            rec.last_cells = cells

        return None, done, None
    return None, None, None


def install(out_dir: str) -> Recorder:
    """Wrap every traced function at every binding in the loaded `uav_search`
    modules. Call after importing `uav_search.cli` and before any pool starts."""
    rec = Recorder(out_dir)
    modules = [m for n, m in sorted(sys.modules.items()) if n == "uav_search" or n.startswith("uav_search.")]
    for fid, (name, mod_name, attr) in enumerate(TRACED):
        home = sys.modules.get(f"uav_search.{mod_name}")
        if home is None:
            continue
        if attr == "*.path":
            for cls in vars(home).values():
                if inspect.isclass(cls) and cls.__module__ == home.__name__ and "path" in vars(cls):
                    setattr(cls, "path", rec.wrap(fid, vars(cls)["path"], name))
        elif "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(home, cls_name, None)
            if cls is not None and meth in vars(cls):
                setattr(cls, meth, rec.wrap(fid, vars(cls)[meth], name))
        elif hasattr(home, attr):
            orig = getattr(home, attr)
            wrapped = rec.wrap(fid, orig, name)
            for mod in modules:
                for binding, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, binding, wrapped)
    multiprocessing.util.register_after_fork(rec, Recorder.in_worker)
    return rec


def _pct(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    if not sorted_values:
        return 0.0
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def merge(span_dirs: list[str]) -> dict[str, float]:
    """Per-layer metrics from every span file written under `span_dirs`."""
    durs: list[list[float]] = [[] for _ in TRACED]
    selfs = [0.0] * len(TRACED)
    counts: dict[str, int] = {}
    for d in span_dirs:
        for fname in sorted(os.listdir(d)):
            if not fname.startswith("spans-"):
                continue
            with open(os.path.join(d, fname)) as fh:
                data = json.load(fh)
            for fid, dur, own in zip(data["fid"], data["dur"], data["self"]):
                durs[fid].append(dur)
                selfs[fid] += own
            for key, value in data["counts"].items():
                counts[key] = counts.get(key, 0) + value
    out: dict[str, float] = {}
    for fid, (name, _, _) in enumerate(TRACED):
        values = sorted(durs[fid])
        scale, factor = ("ms", 1e3) if name in MS_SPANS else ("us", 1e6)
        out[f"{name}.calls"] = len(values)
        out[f"{name}.self_s"] = selfs[fid]
        out[f"{name}.{scale}_p50"] = _pct(values, 0.5) * factor
        out[f"{name}.{scale}_p90"] = _pct(values, 0.9) * factor
    ratio = lambda num, den: counts.get(num, 0) / counts[den] if counts.get(den) else 0.0  # noqa: E731
    out["simulator.ticks"] = counts.get("ticks", 0)
    out["belief.negative_update.certain_detections"] = counts.get("certain", 0)
    out["road_graph.covered_cells.nonempty_ratio"] = ratio("covered_nonempty", "covered_calls")
    out["planner.select_cells.unchanged_ratio"] = ratio("select_unchanged", "select_calls")
    return out
