"""Markov transition models over refined road edges.

A model is compiled offline: strategies generate full routes for every
(entry, goal) pair, each route is sampled into an array of the edge occupied
at each tick, and transition frequencies (with Laplace smoothing) become a
row-stochastic edge-to-edge matrix. Goal edges are absorbing. A strategy's
streams draw their velocities in one lane step, its walks step in lanes,
and its routes are sampled together, in a few array passes per run of them,
each edge's tick count read off its end. A walk done in lanes reaches the
sampler as a row of the lanes' compact (walks x edges) id matrix, not as a
list. A trace is an array of the graph's edge
width: the narrowest signed integer dtype that holds every edge id
(`edge_dtype`: int16 for the bundled map's 739 refined edges, int32 above
32,768), since traces are most of what training holds. Hops are counted in
slices of at most `HOP_SLICE` hops, so no array holds every hop; within a
slice only the hops that move to another edge are looked up, and the stays,
most hops, are tallied per row. The matrix is three parallel `(src, dst,
prob)` arrays, and each search tick scatters `prob * mass[src]` onto `dst`:
plain numpy, no sparse-matrix type.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .rng import spawn, trial_seed
from .road_graph import ConfigError, RoadGraph, edge_dtype, plain_number, read_lines, write_lines

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

# The most cells, paths times the longest of them, that `sample_traces` pads
# into one matrix of edge ends; a β = 0 walk runs up to 766 times its route,
# so a long path makes a run of its own.
SAMPLE_CELLS = 2048


class ModelFormatError(ConfigError):
    """Raised for malformed or inconsistent model files."""


def check_velocity_range(velocity_kmh: tuple[float, float], tick: float, label: str):
    """The one rule for a target velocity range [low, high] (km/h) at a tick
    of `tick` s: 0 < low <= high < inf, and low moves more than 0 m a tick as
    a float, as a target that never moves never reaches a goal. A scenario's
    classes, `compile-model` and `traces_for_strategies` each apply it with
    their own tick; a refusal raises ConfigError, its message starting with `label`."""
    lo, hi = velocity_kmh
    if not 0 < lo <= hi < math.inf:
        raise ConfigError(f"{label}: need 0 < low <= high < inf, got [{lo}, {hi}]")
    if lo * KMH_TO_MS * tick == 0:
        raise ConfigError(f"{label}: low {lo} km/h moves 0 m in a tick of {tick} s")
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


def sample_traces(g: RoadGraph, walks: Iterable[tuple[Sequence[int], float]], tick: float) -> list[np.ndarray]:
    """One trace per walk, a path and its constant velocity (m/s), in order:
    the read-only array of the edge occupied every `tick` seconds from tick 0
    up to the first tick on a goal edge, in the graph's `edge_dtype` (int16
    on the bundled map), so the traces a model trains on hold no wider ids.
    A path is a list, a tuple or an integer array: a walk done in lanes is a
    row of their id matrix, handed over as it is.

    Tick k sits `velocity_ms * tick * k` meters along the path, on the edge
    whose end lies first beyond it (the last edge once past the path's end).
    So edge j holds K(end j) - K(end j-1) ticks, K(x) counting the k with
    `step * k < x`, and no per-tick float is formed. Walks are read and
    sampled in runs whose zero-padded (paths x longest) matrix holds at most
    `SAMPLE_CELLS` cells, a longer path alone, so no more than a run of
    paths is held at once beyond what their source holds.

    Raises ValueError for the first walk, in order, whose velocity times
    `tick` is not positive and finite, or on which no tick is on a goal edge.
    """
    is_goal = np.isin(np.arange(g.n_edges), list(g.goal_union))
    traces: list[np.ndarray] = []
    for run in _runs(walks, lambda walk: len(walk[0]), SAMPLE_CELLS, padded=True):
        paths, velocities = zip(*run)
        with np.errstate(over="ignore"):  # an overflowing step is refused below
            steps = np.array(velocities, dtype=float) * tick
        ok = (0 < steps) & (steps < math.inf) & (0 < tick < math.inf)
        bad = len(run) if ok.all() else int(ok.argmin())
        if bad:  # a path off the goals before the bad step is named first
            traces += _sample_run(g, paths[:bad], steps[:bad], is_goal)
        if bad < len(run):
            raise ValueError("velocity and tick must be positive and finite, and so must their product")
    return traces


def _sample_run(g: RoadGraph, paths: Sequence[Sequence[int]], steps: np.ndarray,
                is_goal: np.ndarray) -> list[np.ndarray]:
    """`sample_traces` for one run of paths, each with its positive, finite step."""
    sizes = np.fromiter(map(len, paths), dtype=np.intp, count=len(paths))
    cells = np.arange(sizes.max()) < sizes[:, None]  # row i is path i, zero-padded
    ids = np.zeros(cells.shape, dtype=edge_dtype(g.n_edges))
    ids[cells] = np.concatenate(paths)
    # A row accumulates its path's lengths in path order, as the path's own
    # `np.cumsum` does: the same edge ends, bit for bit.
    ends = np.where(cells, g.length[ids], 0.0).cumsum(axis=1)
    # The ticks before each edge end, K(end): ceil(end / step), corrected
    # with the products themselves until no count moves.
    step = steps[:, None]
    before = np.ceil(ends / step)
    while True:
        fixed = before + (step * before < ends) - ((before > 0) & (step * (before - 1) >= ends))
        if (fixed == before).all():
            break
        before = fixed
    ticks = np.diff(before, axis=1, prepend=0.0)
    ticks[np.arange(len(paths)), sizes - 1] = 1  # the last edge holds every tick past its start
    # A trace ends on its first tick on a goal edge.
    reached = is_goal[ids] & (ticks > 0)
    found = reached.any(axis=1)
    if not found.all():
        raise ValueError(f"path never reaches a goal edge: it ends on edge {paths[int(found.argmin())][-1]}")
    at, stop = np.arange(cells.shape[1]), reached.argmax(axis=1)[:, None]
    counts = np.where(at < stop, ticks, at == stop).astype(np.intp)
    flat = np.repeat(ids.ravel(), counts.ravel())
    flat.flags.writeable = False
    bounds = [0, *np.cumsum(counts.sum(axis=1)).tolist()]
    return [flat[a:b] for a, b in zip(bounds, bounds[1:])]


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

    Run `run` of entry index `ei` and goal index `gi` draws from `Rng(sub,
    (ei, gi, run))`: one `spawn` call seeds all of a strategy's streams as
    lanes, one lane step draws every stream's velocity, uniformly from
    `velocity_range_kmh`, and the strategy's `paths` draws the paths from
    the lanes after it. Pairs a strategy reports as unreachable are skipped.
    A path is used as `paths` returns it; it equals the path a trial's
    `path` would draw from the stream. `sample_traces` reads a strategy's
    walks as `paths` yields them and samples them together, a run at a time.
    """
    if not strategies:
        raise ValueError("need at least one strategy")
    lo, hi = check_velocity_range(velocity_range_kmh, tick, "velocity_range_kmh")
    pairs = list(itertools.product(enumerate(sorted(g.entries)), range(len(g.goals))))
    starts = [(entry, gi) for (_, entry), gi in pairs for _ in range(runs_per_pair)]
    traces: list[np.ndarray] = []
    for si, strategy in enumerate(strategies):
        lanes = spawn(trial_seed(seed, si), [(ei, gi, run) for (ei, _), gi in pairs for run in range(runs_per_pair)])
        velocities = lanes.uniform(lo, hi) * KMH_TO_MS
        paths = strategy.paths(g, starts, lanes)
        traces += sample_traces(g, ((path, v) for path, v in zip(paths, velocities) if path is not None), tick)
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
    for run in _runs(filter(len, traces), lambda trace: len(trace) - 1, HOP_SLICE):
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
    # Row by row as (c + eps) / (total + eps * |supp|), over the same doubles
    # as Python's int and float arithmetic: totals are exact below 2^53.
    src, dst = np.divmod(allowed, n)
    width = np.bincount(src, minlength=n)
    total = np.bincount(src, weights=count, minlength=n)
    seen = total > 0
    prob = np.where(seen[src], count + smoothing, 1.0) / np.where(seen, total + smoothing * width, width)[src]
    goal = np.isin(src, list(g.goal_union))
    keep = np.where(goal, src == dst, (count > 0) | (smoothing > 0) | ~seen[src])
    prob[goal] = 1.0
    return TransitionModel(target_class, tick, n, src[keep], dst[keep], prob[keep])


def _runs(items: Iterable, size, budget: int, padded: bool = False):
    """Runs of consecutive items, in order, whose cost stays within `budget`:
    the sum of their sizes, or, `padded`, their count times the largest (the
    cells of a zero-padded matrix of them). An item over budget is a run of
    its own. Items are read as runs are taken, so no more than a run is held."""
    run, total, widest = [], 0, 0
    for item in items:
        n = size(item)
        widest = max(widest, n)
        if run and ((len(run) + 1) * widest if padded else total + n) > budget:
            yield run
            run, total, widest = [], 0, n
        run.append(item)
        total += n
    if run:
        yield run


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
    write_lines(path, lines)


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
    src, dst = [src for src, _ in pairs], [dst for _, dst in pairs]
    return TransitionModel(header["class"], tick, n_edges, src, dst, list(pairs.values()))
