"""Markov transition models over refined road edges.

A model is compiled offline: strategies generate full routes for every
(entry, goal) pair, each route is sampled into an array of the edge occupied
at each tick, and transition frequencies (with Laplace smoothing) become a
row-stochastic edge-to-edge matrix. Goal edges are absorbing. Sampling is one
`searchsorted` per route. Counting looks up only the hops that move to
another edge; the stays, most hops, are tallied per row. The matrix is three
parallel `(src, dst, prob)` arrays, and each search tick scatters
`prob * mass[src]` onto `dst`: plain numpy, no sparse-matrix type.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .road_graph import RoadGraph, plain_number, read_lines
from .strategies import UnreachableGoalError, validate_path

DEFAULT_SMOOTHING = 0.01

KMH_TO_MS = 1000.0 / 3600.0

ROW_SUM_TOL = 1e-9


class ModelFormatError(ValueError):
    """Raised for malformed or inconsistent model files."""


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


def _route(g: RoadGraph, path: list[int]) -> _Route:
    return _Route(np.asarray(path, dtype=np.intp), np.cumsum(g.length[path]),
                  np.array([e in g.goal_union for e in path]))


def sample_trace(g: RoadGraph, path: list[int] | _Route, velocity_ms: float, tick: float) -> np.ndarray:
    """Sample edge occupancy along `path` every `tick` seconds at constant
    speed, stopping at the first sample on a goal edge: a trace, the
    read-only array of the edge occupied at each tick from tick 0. Its first
    edge is an entry, its last the absorbing goal edge and no earlier one a
    goal. `path` is a list of edge ids, or one made ready by `_route` once for
    many samples.

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


def generate_training_traces(
    g: RoadGraph,
    strategy,
    tick: float,
    velocity_range_kmh: tuple[float, float],
    runs_per_pair: int,
    seed: int,
) -> list[np.ndarray]:
    """Traces for every (entry, goal) pair, `runs_per_pair` each.

    Velocity is drawn uniformly from `velocity_range_kmh` per run. Pairs the
    strategy reports as unreachable are skipped. Paths are validated before
    sampling; a disconnected hop raises InvalidPathError. A path that repeats
    the pair's previous one, as a deterministic strategy's does every run,
    is validated and made ready for sampling once.
    """
    from .config import check_velocity_range  # config imports movement through belief

    lo, hi = check_velocity_range(velocity_range_kmh, "velocity_range_kmh")
    traces: list[np.ndarray] = []
    for ei, entry in enumerate(sorted(g.entries)):
        for gi in range(len(g.goals)):
            last = None
            for run in range(runs_per_pair):
                rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(ei, gi, run)))
                v_ms = rng.uniform(lo, hi) * KMH_TO_MS
                try:
                    path = strategy.path(g, entry, rng, goal_index=gi)
                except UnreachableGoalError:
                    break  # pair unreachable for every run
                if path != last:
                    validate_path(g, path, entry)
                    last, route = path, _route(g, path)
                traces.append(sample_trace(g, route, v_ms, tick))
    return traces


def traces_for_strategies(
    g: RoadGraph,
    strategies: Sequence,
    tick: float,
    velocity_range_kmh: tuple[float, float],
    runs_per_pair: int,
    seed: int,
) -> list[np.ndarray]:
    """Pooled training traces, one deterministic sub-seed per strategy."""
    if not strategies:
        raise ValueError("need at least one strategy")
    traces: list[np.ndarray] = []
    for si, strategy in enumerate(strategies):
        sub = int(np.random.SeedSequence(seed, spawn_key=(si,)).generate_state(1, np.uint64)[0])
        traces.extend(generate_training_traces(g, strategy, tick, velocity_range_kmh, runs_per_pair, sub))
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
    """
    if smoothing < 0:
        raise ValueError("smoothing must be non-negative")
    n = g.n_edges
    # Every allowed (src, dst) as the code src * n + dst, ascending: each
    # source's support {src} + successors, destinations ascending.
    support = [sorted({src, *nxt}) for src, nxt in enumerate(g._next)]
    allowed = np.array([src * n + dst for src, row in enumerate(support) for dst in row], dtype=np.intp)
    none = np.empty(0, dtype=np.intp)
    hop_src = np.concatenate([none, *(t[:-1] for t in traces)])
    hop_dst = np.concatenate([none, *(t[1:] for t in traces)])
    for edges in (hop_src, hop_dst):
        outside = edges[(edges < 0) | (edges >= n)]
        if outside.size:
            raise ValueError(f"trace edge {outside[0]} is not in the graph")
    # Every support holds (s, s), so a bad hop is always a move: only the
    # moves are looked up, and each row's stays are added to its (s, s) slot.
    moved = hop_src != hop_dst
    move_src, move_dst = hop_src[moved], hop_dst[moved]
    codes = move_src * n + move_dst
    at = np.minimum(np.searchsorted(allowed, codes), allowed.size - 1)
    bad = np.flatnonzero(allowed[at] != codes)
    if bad.size:
        e0, e1 = move_src[bad[0]], move_dst[bad[0]]
        raise ValueError(
            f"trace hop {e0} -> {e1} skips road edges; the model only "
            "supports one hop per tick, so the tick times the target "
            "velocity must not exceed the shortest refined edge")
    count = np.bincount(at, minlength=allowed.size)
    stay = np.searchsorted(allowed, np.arange(n, dtype=np.intp) * (n + 1))
    count[stay] += np.bincount(hop_src, minlength=n) - np.bincount(move_src, minlength=n)
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
            if g is not None and dst != src and dst not in g.outgoing(src):
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
    """Read a model file, rows in any order. The edge count is the header's
    optional `edges=<n>`, else one more than the largest edge id in the rows.
    Numbers are ASCII, without Python's `_` digit separators."""
    header = None
    pairs: dict[tuple[int, int], float] = {}
    max_id = -1
    for lineno, raw in enumerate(read_lines(path, ModelFormatError), start=1):
        line = raw.strip()
        if not line or line.startswith(";"):
            continue
        if line.startswith("#"):
            if header is not None or not line.startswith("#model"):
                raise ModelFormatError(f"{path}:{lineno}: unexpected header {line!r}")
            header = {}
            for tok in line.split()[1:]:
                if "=" not in tok:
                    raise ModelFormatError(f"{path}:{lineno}: bad header token {tok!r}")
                k, v = tok.split("=", 1)
                header[k] = v
            continue
        if header is None:
            raise ModelFormatError(f"{path}:{lineno}: data before #model header")
        toks = line.split()
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
