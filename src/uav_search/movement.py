"""Markov transition models over refined road edges.

A model is compiled offline: strategies generate full routes for every
(entry, goal) pair, each route is sampled into a tick-indexed edge-occupancy
trace, and transition frequencies (with Laplace smoothing) become a
row-stochastic edge-to-edge matrix. Goal edges are absorbing. The model moves
probability mass forward one tick at a time during search.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np
from scipy import sparse

from .road_graph import RoadGraph
from .strategies import UnreachableGoalError, validate_path

DEFAULT_SMOOTHING = 0.01

ROW_SUM_TOL = 1e-9


class ModelFormatError(ValueError):
    """Raised for malformed or inconsistent model files."""


@dataclass(frozen=True)
class PathTrace:
    """Tick-indexed edge occupancy of one simulated route.

    `samples` is an ordered tuple of (tick index, edge id); ticks are
    consecutive from 0, the first edge is an entry, the last sample is the
    absorbing goal edge.
    """

    samples: tuple[tuple[int, int], ...]


@dataclass(eq=False)
class TransitionModel:
    """Row-stochastic one-tick movement model for one target class.

    `transitions[src]` lists (dst, prob) with dst restricted to src itself
    and its road successors; rows sum to 1. Goal edges map to themselves.
    """

    target_class: str
    tick: float
    n_edges: int
    transitions: dict[int, tuple[tuple[int, float], ...]]

    @cached_property
    def matrix_T(self) -> sparse.csr_array:
        """The transposed matrix: row `dst` holds Pr(src -> dst) for every src.

        Canonical CSR (sorted indices, duplicates summed), so `matrix_T @ mass`
        adds each destination's terms in ascending `src` order: the same order,
        and so the same bits, as the scatter `mass @ M`.
        """
        rows, cols, data = [], [], []
        for src, dists in self.transitions.items():
            for dst, p in dists:
                rows.append(dst)
                cols.append(src)
                data.append(p)
        mt = sparse.csr_array(
            (np.array(data), (np.array(rows), np.array(cols))),
            shape=(self.n_edges, self.n_edges),
        )
        mt.sum_duplicates()
        return mt

    @cached_property
    def has_row(self) -> np.ndarray:
        out = np.zeros(self.n_edges, dtype=bool)
        out[list(self.transitions)] = True
        return out


def sample_trace(g: RoadGraph, path: list[int], velocity_ms: float, tick: float) -> PathTrace:
    """Sample edge occupancy along `path` every `tick` seconds at constant
    speed, stopping at the first sample on a goal edge."""
    if velocity_ms <= 0 or tick <= 0:
        raise ValueError("velocity and tick must be positive")
    ends = np.cumsum(g.length[path])
    samples: list[tuple[int, int]] = []
    t = 0
    while True:
        s = velocity_ms * tick * t
        idx = min(int(np.searchsorted(ends, s, side="right")), len(path) - 1)
        eid = path[idx]
        samples.append((t, eid))
        if eid in g.goal_union:
            return PathTrace(tuple(samples))
        t += 1


def generate_training_traces(
    g: RoadGraph,
    strategy,
    tick: float,
    velocity_range_kmh: tuple[float, float],
    runs_per_pair: int,
    seed: int,
) -> list[PathTrace]:
    """Traces for every (entry, goal) pair, `runs_per_pair` each.

    Velocity is drawn uniformly from `velocity_range_kmh` per run. Pairs the
    strategy reports as unreachable are skipped. Paths are validated before
    sampling; a disconnected hop raises InvalidPathError.
    """
    lo, hi = velocity_range_kmh
    if not (0 < lo <= hi):
        raise ValueError(f"bad velocity range {velocity_range_kmh}")
    traces: list[PathTrace] = []
    for ei, entry in enumerate(sorted(g.entries)):
        for gi in range(len(g.goals)):
            for run in range(runs_per_pair):
                rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(ei, gi, run)))
                v_ms = rng.uniform(lo, hi) * (1000.0 / 3600.0)
                try:
                    path = strategy.path(g, entry, rng, goal_index=gi)
                except UnreachableGoalError:
                    break  # pair unreachable for every run
                validate_path(g, path, entry)
                traces.append(sample_trace(g, path, v_ms, tick))
    return traces


def traces_for_strategies(
    g: RoadGraph,
    strategies: Sequence,
    tick: float,
    velocity_range_kmh: tuple[float, float],
    runs_per_pair: int,
    seed: int,
) -> list[PathTrace]:
    """Pooled training traces, one deterministic sub-seed per strategy."""
    if not strategies:
        raise ValueError("need at least one strategy")
    traces: list[PathTrace] = []
    for si, strategy in enumerate(strategies):
        sub = int(np.random.SeedSequence(seed, spawn_key=(si,)).generate_state(1, np.uint64)[0])
        traces.extend(generate_training_traces(g, strategy, tick, velocity_range_kmh, runs_per_pair, sub))
    return traces


def compile_model(
    traces: list[PathTrace],
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
    counts: dict[int, dict[int, int]] = {}
    for trace in traces:
        for (t0, e0), (t1, e1) in zip(trace.samples, trace.samples[1:]):
            if t1 != t0 + 1:
                raise ValueError(f"trace ticks not consecutive: {t0} -> {t1}")
            if e1 != e0 and e1 not in g.outgoing(e0):
                raise ValueError(
                    f"trace hop {e0} -> {e1} skips road edges; the model only "
                    "supports one hop per tick, so the tick times the target "
                    "velocity must not exceed the shortest refined edge")
            row = counts.setdefault(e0, {})
            row[e1] = row.get(e1, 0) + 1

    transitions: dict[int, tuple[tuple[int, float], ...]] = {}
    for src in range(g.n_edges):
        if src in g.goal_union:
            transitions[src] = ((src, 1.0),)
            continue
        support = sorted({src, *g.outgoing(src)})
        seen = counts.get(src, {})
        total = sum(seen.values())
        if total == 0:
            row = tuple((dst, 1.0 / len(support)) for dst in support)
        else:
            denom = total + smoothing * len(support)
            row = tuple(
                (dst, (seen.get(dst, 0) + smoothing) / denom)
                for dst in support
                if seen.get(dst, 0) > 0 or smoothing > 0
            )
        transitions[src] = row
    return TransitionModel(target_class, tick, g.n_edges, transitions)


def validate_stochastic(
    model: TransitionModel, g: RoadGraph | None = None, tol: float = ROW_SUM_TOL
) -> list[str]:
    """Return human-readable violations (empty list = valid)."""
    problems = []
    for src in sorted(model.transitions):
        row = model.transitions[src]
        total = 0.0
        for dst, p in row:
            total += p
            if p < 0:
                problems.append(f"edge {src}: negative probability {p!r} to {dst}")
            if g is not None and dst != src and dst not in g.outgoing(src):
                problems.append(f"edge {src}: destination {dst} is not a road successor")
        if abs(total - 1.0) > tol:
            problems.append(f"edge {src}: row sums to {total!r}")
    return problems


def save_model(model: TransitionModel, path: str) -> None:
    """Write the model file: a `#model` header then `src dst prob` lines.

    Probabilities use shortest round-trip decimal form, so saving a loaded
    model reproduces the file byte for byte.
    """
    lines = [f"#model tick={model.tick!r} class={model.target_class}"]
    for src in sorted(model.transitions):
        for dst, p in model.transitions[src]:
            lines.append(f"{src} {dst} {p!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_model(path: str) -> TransitionModel:
    header = None
    rows: dict[int, list[tuple[int, float]]] = {}
    max_id = -1
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
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
                if len(toks) != 3:
                    raise ValueError
                src, dst, p = int(toks[0]), int(toks[1]), float(toks[2])
            except ValueError:
                raise ModelFormatError(f"{path}:{lineno}: malformed transition line {line!r}") from None
            rows.setdefault(src, []).append((dst, p))
            max_id = max(max_id, src, dst)
    if header is None:
        raise ModelFormatError(f"{path}: missing #model header")
    for key in ("tick", "class"):
        if key not in header:
            raise ModelFormatError(f"{path}: header missing {key}=")
    transitions = {src: tuple(dsts) for src, dsts in rows.items()}
    return TransitionModel(header["class"], float(header["tick"]), max_id + 1, transitions)
