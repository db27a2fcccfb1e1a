"""Markov transition models over refined road edges.

A model is compiled offline: strategies generate full routes for every
(entry, goal) pair, each route is sampled into an array of the edge occupied
at each tick, and transition frequencies (with Laplace smoothing) become a
row-stochastic edge-to-edge matrix. Goal edges are absorbing. Sampling is one
`searchsorted` per route, and a trace is an array of the graph's edge width:
the narrowest signed integer dtype that holds every edge id (`edge_dtype`:
int16 for the bundled map's 739 refined edges, int32 above 32,768), since
traces are most of what training holds. Hops are counted in slices of at most
`HOP_SLICE` hops, so no array holds every hop; within a slice only the hops
that move to another edge are looked up, and the stays, most hops, are
tallied per row. The matrix is three parallel
`(src, dst, prob)` arrays, and each search tick scatters `prob * mass[src]`
onto `dst`: plain numpy, no sparse-matrix type.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .rng import Rng, trial_seed
from .road_graph import RoadGraph, plain_number, read_lines
from .strategies import UnreachableGoalError

DEFAULT_SMOOTHING = 0.01

KMH_TO_MS = 1000.0 / 3600.0

ROW_SUM_TOL = 1e-9

# The most hops `compile_model` counts in one slice of the trace list. Each
# slice's temporaries scale with it, `np.bincount`'s intp copy of its edges
# among them (64 KB at 2^13 hops). 2^13 is the measured best: the benchmark's
# `compile` workload with int16 traces read a peak RSS of 32.46, 32.11, 32.06
# and 32.10 MB at 2^15, 2^14, 2^13 and 2^12 hops (medians of 3 runs, 2-CPU
# host), and `compile_model`'s tracemalloc peak went 0.63 -> 0.43 MB.
HOP_SLICE = 1 << 13


class ModelFormatError(ValueError):
    """Raised for malformed or inconsistent model files."""


def check_velocity_range(velocity_kmh: tuple[float, float], label: str, error: type[ValueError] = ValueError):
    """The rule for a target velocity range [low, high] (km/h), for every
    reader of one; a refusal raises `error`, its message starting with `label`."""
    lo, hi = velocity_kmh
    if not 0 < lo <= hi < math.inf:
        raise error(f"{label}: need 0 < low <= high < inf, got [{lo}, {hi}]")
    return velocity_kmh


@dataclass(frozen=True, eq=False)
class TransitionModel:
    """Row-stochastic one-tick movement model for one target class.

    Transition i moves mass from edge `src[i]` to `dst[i]` with probability
    `prob[i]`; pairs are unique, dst is src or a road successor, rows sum to 1
    and goal edges map to themselves. The arrays are read-only, in row order:
    by ascending `src`, each row in its given order. A scatter over them adds
    each destination's terms by ascending `src`, as `mass @ M` does.
    """

    target_class: str
    tick: float
    n_edges: int
    src: np.ndarray
    dst: np.ndarray
    prob: np.ndarray

    def __post_init__(self):
        order = np.argsort(np.asarray(self.src, dtype=np.intp), kind="stable")
        for name, dtype in (("src", np.intp), ("dst", np.intp), ("prob", float)):
            values = np.asarray(getattr(self, name), dtype=dtype)[order]
            values.flags.writeable = False
            object.__setattr__(self, name, values)

    @cached_property
    def rowless(self) -> np.ndarray:
        """Ascending ids of the edges that have no transition row."""
        return np.flatnonzero(np.bincount(self.src, minlength=self.n_edges) == 0)


class _Route(NamedTuple):
    """A path made ready for sampling: its edges, the distance along it at
    which each edge ends, and which of them are goal edges."""

    edges: np.ndarray
    ends: np.ndarray
    on_goal: np.ndarray


def edge_dtype(n_edges: int) -> np.dtype:
    """The narrowest signed integer dtype that holds every id below `n_edges`:
    int8 up to 128 edges, int16 up to 32,768, int32 up to 2^31."""
    return np.min_scalar_type(-max(n_edges, 1))


def _route(g: RoadGraph, path: list[int]) -> _Route:
    return _Route(np.asarray(path, dtype=edge_dtype(g.n_edges)), np.cumsum(g.length[path]),
                  np.array([e in g.goal_union for e in path]))


def sample_trace(g: RoadGraph, path: list[int] | _Route, velocity_ms: float, tick: float) -> np.ndarray:
    """Sample edge occupancy along `path` every `tick` seconds at constant
    speed, stopping at the first sample on a goal edge: a trace, the
    read-only array of the edge occupied at each tick from tick 0, in the
    graph's `edge_dtype` (int16 on the bundled map, int32 above 32,768
    edges), so the traces a model trains on hold no wider ids. Its
    first edge is an entry, its last the absorbing goal edge and no earlier
    one a goal. `path` is a list of edge ids, or one made ready by `_route`
    once for many samples.

    Tick t sits `velocity_ms * tick * t` meters along the path, on the edge
    whose end lies first beyond it (the last edge once past the path's end).
    Raises ValueError when no sample lands on a goal edge.
    """
    if not (0 < velocity_ms < math.inf and 0 < tick < math.inf):
        raise ValueError("velocity and tick must be positive and finite")
    edges, ends, on_goal = path if isinstance(path, _Route) else _route(g, path)
    step = velocity_ms * tick
    # Enough ticks to pass the start of the last edge, where sampling stays.
    n = 1 if len(edges) == 1 else int(ends[-2] / step) + 2
    at = np.minimum(np.searchsorted(ends, step * np.arange(n, dtype=float), side="right"), len(edges) - 1)
    on_goal = on_goal[at]
    if not on_goal.any():
        raise ValueError(f"path never reaches a goal edge: it ends on edge {edges[-1]}")
    trace = edges[at[: on_goal.argmax() + 1]]
    trace.flags.writeable = False
    return trace


def traces_for_strategies(
    g: RoadGraph,
    strategies: Sequence,
    tick: float,
    velocity_range_kmh: tuple[float, float],
    runs_per_pair: int,
    seed: int,
) -> list[np.ndarray]:
    """Pooled training traces: strategy by strategy, each from its own
    deterministic sub-seed, `runs_per_pair` traces for every (entry, goal) pair.

    Velocity is drawn uniformly from `velocity_range_kmh` per run. Pairs a
    strategy reports as unreachable are skipped. A path is used as returned,
    as trials use it, and one that repeats the pair's previous path, as a
    deterministic strategy's does every run, is made ready for sampling once.
    """
    if not strategies:
        raise ValueError("need at least one strategy")
    lo, hi = check_velocity_range(velocity_range_kmh, "velocity_range_kmh")
    pairs = list(itertools.product(enumerate(sorted(g.entries)), range(len(g.goals))))
    traces: list[np.ndarray] = []
    for si, strategy in enumerate(strategies):
        sub = trial_seed(seed, si)
        for (ei, entry), gi in pairs:
            last = None
            for run in range(runs_per_pair):
                rng = Rng(sub, (ei, gi, run))
                v_ms = rng.uniform(lo, hi) * KMH_TO_MS
                try:
                    path = strategy.path(g, entry, rng, goal_index=gi)
                except UnreachableGoalError:
                    break  # pair unreachable for every run
                if path != last:
                    last, route = path, _route(g, path)
                traces.append(sample_trace(g, route, v_ms, tick))
    return traces


def compile_model(
    traces: list[np.ndarray],
    g: RoadGraph,
    smoothing: float = DEFAULT_SMOOTHING,
    tick: float = 1.0,
    target_class: str = "default",
) -> TransitionModel:
    """Turn occupancy traces into a smoothed row-stochastic model.

    Pr(s -> d) = (count(s -> d) + eps) / (departures(s) + eps * |supp(s)|)
    over supp(s) = {s} + road successors of s. Sources never seen in a trace
    get the uniform distribution over their support; goal edges are absorbing
    regardless of counts.

    Hops are counted over runs of traces holding at most `HOP_SLICE` hops and
    the integer counts summed, so the model does not depend on the slicing.
    Raises ValueError for the first trace edge outside the graph in trace
    order, else for the first hop in trace order that skips road edges.
    """
    if not 0 <= smoothing < math.inf:
        raise ValueError(f"smoothing must be non-negative and finite, got {smoothing}")
    n = g.n_edges
    # Every allowed (src, dst) as the code src * n + dst, ascending: each
    # source's support {src} + successors, destinations ascending.
    support = [sorted({src, *nxt}) for src, nxt in enumerate(g._next)]
    allowed = np.array([src * n + dst for src, row in enumerate(support) for dst in row], dtype=np.intp)
    count = np.zeros(allowed.size, dtype=np.intp)
    stay = np.searchsorted(allowed, np.arange(n, dtype=np.intp) * (n + 1))  # each (s, s) slot
    skipped = None
    for run in _hop_slices(traces):
        edges = np.concatenate(run)
        outside = edges[(edges < 0) | (edges >= n)]
        if outside.size:
            raise ValueError(f"trace edge {outside[0]} is not in the graph")
        if skipped is not None:
            continue  # an outside edge in a later slice is named first
        last = np.cumsum([len(t) for t in run]) - 1
        # Every support holds (s, s), so a bad hop is always a move: only the
        # moves are looked up, and each row's stays go to its (s, s) slot.
        moved = edges[:-1] != edges[1:]
        moved[last[:-1]] = False  # the step from one trace into the next
        move_src, move_dst = edges[:-1][moved], edges[1:][moved]
        codes = move_src.astype(np.intp) * n + move_dst  # int32 would wrap from n = 46,341
        at = np.minimum(np.searchsorted(allowed, codes), allowed.size - 1)
        bad = np.flatnonzero(allowed[at] != codes)
        if bad.size:
            skipped = move_src[bad[0]], move_dst[bad[0]]
            continue
        count += np.bincount(at, minlength=allowed.size)
        starts = np.bincount(edges, minlength=n) - np.bincount(edges[last], minlength=n)
        count[stay] += starts - np.bincount(move_src, minlength=n)
    if skipped is not None:
        raise ValueError(
            f"trace hop {skipped[0]} -> {skipped[1]} skips road edges; the model only "
            "supports one hop per tick, so the tick times the target "
            "velocity must not exceed the shortest refined edge")
    count = count.tolist()

    pairs: dict[tuple[int, int], float] = {}
    i = 0
    for src, row in enumerate(support):
        seen = count[i : i + len(row)]
        i += len(row)
        if src in g.goal_union:
            pairs[src, src] = 1.0
            continue
        total = sum(seen)
        if total == 0:
            pairs.update(((src, dst), 1.0 / len(row)) for dst in row)
        else:
            denom = total + smoothing * len(row)
            pairs.update(
                ((src, dst), (c + smoothing) / denom)
                for dst, c in zip(row, seen)
                if c > 0 or smoothing > 0
            )
    return TransitionModel(target_class, tick, n, *_columns(pairs))


def _hop_slices(traces: list[np.ndarray]):
    """Runs of consecutive non-empty traces with at most `HOP_SLICE` hops
    together, in trace order; a longer trace is a run of its own."""
    run, hops = [], 0
    for trace in filter(len, traces):
        if run and hops + len(trace) - 1 > HOP_SLICE:
            yield run
            run, hops = [], 0
        run.append(trace)
        hops += len(trace) - 1
    if run:
        yield run


def _columns(pairs: dict[tuple[int, int], float]) -> tuple[list, list, list]:
    """`{(src, dst): prob}` as the three parallel columns, in insertion order."""
    return [src for src, _ in pairs], [dst for _, dst in pairs], list(pairs.values())


def validate_stochastic(model: TransitionModel, g: RoadGraph | None = None) -> list[str]:
    """Return human-readable violations (empty list = valid): rowless edges,
    then row by row; a row sums its terms one at a time, in row order."""
    problems = [f"edge {e}: no transition row" for e in model.rowless.tolist()]
    entries = zip(model.src.tolist(), model.dst.tolist(), model.prob.tolist())
    for src, row in itertools.groupby(entries, key=lambda t: t[0]):
        total = 0.0
        for _, dst, p in row:
            total += p
            if p < 0:
                problems.append(f"edge {src}: negative probability {p!r} to {dst}")
            if g is not None and dst != src and dst not in g._next[src]:
                problems.append(f"edge {src}: destination {dst} is not a road successor")
        if not abs(total - 1.0) <= ROW_SUM_TOL:  # a NaN sum fails too
            problems.append(f"edge {src}: row sums to {total!r}")
    return problems


def save_model(model: TransitionModel, path: str) -> None:
    """Write the model file: a `#model` header then `src dst prob` lines in row order.

    Probabilities use shortest round-trip decimal form, so saving a loaded
    model reproduces the file byte for byte.
    """
    lines = [f"#model tick={model.tick!r} class={model.target_class}"]
    for src, dst, p in zip(model.src.tolist(), model.dst.tolist(), model.prob.tolist()):
        lines.append(f"{src} {dst} {p!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_model(path: str) -> TransitionModel:
    """Read a model file, rows in any order. The header is `#model` with the keys
    `tick`, `class` and an optional `edges`, each once. The edge count is
    `edges=<n>`, else one more than the largest edge id in the rows.
    Numbers are ASCII, without Python's `_` digit separators."""
    header = None
    pairs: dict[tuple[int, int], float] = {}
    max_id = -1
    for lineno, raw in enumerate(read_lines(path, ModelFormatError), start=1):
        line = raw.strip()
        if not line or line.startswith(";"):
            continue
        toks = line.split()
        if line.startswith("#"):
            if header is not None or toks[0] != "#model":
                raise ModelFormatError(f"{path}:{lineno}: unexpected header {line!r}")
            header = {}
            for tok in toks[1:]:
                if "=" not in tok:
                    raise ModelFormatError(f"{path}:{lineno}: bad header token {tok!r}")
                k, v = tok.split("=", 1)
                if k not in ("tick", "class", "edges") or k in header:
                    what = "repeated" if k in header else "unknown"
                    raise ModelFormatError(f"{path}:{lineno}: {what} header key {k!r}; the keys are tick, class, edges")
                header[k] = v
            continue
        if header is None:
            raise ModelFormatError(f"{path}:{lineno}: data before #model header")
        try:
            if len(toks) != 3 or not plain_number(line):
                raise ValueError
            src, dst, p = int(toks[0]), int(toks[1]), float(toks[2])
        except ValueError:
            raise ModelFormatError(f"{path}:{lineno}: malformed transition line {line!r}") from None
        if src < 0 or dst < 0:
            raise ModelFormatError(f"{path}:{lineno}: negative edge id in {line!r}")
        if (src, dst) in pairs:
            raise ModelFormatError(f"{path}:{lineno}: repeated transition {src} -> {dst}")
        pairs[src, dst] = p
        max_id = max(max_id, src, dst)
    if header is None:
        raise ModelFormatError(f"{path}: missing #model header")
    for key in ("tick", "class"):
        if key not in header:
            raise ModelFormatError(f"{path}: header missing {key}=")
    if max_id >= np.iinfo(np.intp).max:
        raise ModelFormatError(f"{path}: edge id {max_id} is too large")
    n_edges = max_id + 1
    if "edges" in header:
        if not (header["edges"].isdecimal() and plain_number(header["edges"])):
            raise ModelFormatError(f"{path}: header edges={header['edges']} is not a non-negative integer")
        n_edges = int(header["edges"])
        if max_id >= n_edges:
            raise ModelFormatError(f"{path}: edge id {max_id} is out of range for edges={n_edges}")
    try:
        if not plain_number(header["tick"]):
            raise ValueError
        tick = float(header["tick"])
    except ValueError:
        raise ModelFormatError(f"{path}: header tick={header['tick']} is not a number") from None
    return TransitionModel(header["class"], tick, n_edges, *_columns(pairs))
