"""Command-line entry points for compiling models and running experiments.

Verbs: compile-model, run, sweep, threshold-scan, dump-belief. Every command
is deterministic in (inputs, seed): re-running overwrites its outputs with
identical bytes, regardless of --jobs. Floats are written with repr() so the
CSVs round-trip exactly.

Exit codes: 0 success, 1 bad input (a flag refused while parsing, or a
ConfigError), 2 runtime error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .config import ConfigError, SweepSpec, apply_axis, load_scenario, load_sweep, parse_strategy, sweep_points
from .movement import (DEFAULT_SMOOTHING, KMH_TO_MS, check_velocity_range, compile_model, save_model,
                       traces_for_strategies)
from .planner import THRESHOLD_POLICY
from .rng import trial_seed
from .road_graph import dead_entries, from_source, load_graph, overlay_grid, plain_number, write_lines
from .simulator import BatchStats, TrialResult, build_world, run_batch
from .strategies import check_route_weights

DEFAULT_TRIALS = 100
GRID_CSV = "threshold_grid.csv"
BEST_CSV = "threshold_best.csv"
SWEEP_CSV = "sweep.csv"


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; bad flags are validation here."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _plain(text: str, kind: type = float):
    """`kind(text)` by the file formats' rule for numbers: no `_` separator
    and no non-ASCII digit (see plain_number). Raises ValueError."""
    if not plain_number(text):
        raise ValueError(f"not a plain number: {text!r}")
    return kind(text)


def _flag(kind: type, *rules):
    """The argparse type of a flag: its text as a `_plain` number of `kind`, or
    as is for str, that the `ok` of every `(ok, rule)` pair accepts; a refusal
    gives the first failed `rule`. argparse names the flag, and `_Parser` exits 1."""
    def parse(text: str):
        try:
            value = text if kind is str else _plain(text, kind)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {kind.__name__}, got {text!r}") from None
        for ok, rule in rules:
            if not ok(value):
                raise argparse.ArgumentTypeError(f"{rule}, got {text}")
        return value
    return parse


def _under_a_directory(path: str) -> bool:
    """Whether the nearest existing parent of `path`, or else the working directory, is a directory."""
    parent = os.path.dirname(path)
    while parent and not os.path.exists(parent) and os.path.dirname(parent) != parent:
        parent = os.path.dirname(parent)
    return not parent or os.path.isdir(parent)


_INT = _flag(int)
_NON_NEGATIVE_INT = _flag(int, (lambda v: v >= 0, "must be >= 0"))
_COUNT = _flag(int, (lambda v: v >= 1, "must be >= 1"))  # the trial-count rule, check_trials
_POSITIVE_FINITE = _flag(float, (lambda v: 0 < v < math.inf, "must be positive and finite"))
# An --out is checked before any input is read, so a path that cannot be written creates nothing.
_UNDER_A_DIRECTORY = (_under_a_directory, "must not lie under a file")
_FILE_OUT = _flag(str, (lambda path: not os.path.isdir(path), "must not be an existing directory"),
                  (os.path.basename, "must end in a file name"), _UNDER_A_DIRECTORY)
_DIR_OUT = _flag(str, (lambda path: os.path.isdir(path) or not os.path.exists(path),
                       "must be a directory or a new path"), _UNDER_A_DIRECTORY)


def _parse_strategies(spec: str) -> list:
    """Comma list of `name` or `name:key=value[;key=value]` items, each read
    as the scenario files' strategy spec `{name: ..., key: value, ...}`."""
    strategies = []
    for i, item in enumerate(filter(None, (s.strip() for s in spec.split(",")))):
        name, _, rest = item.partition(":")
        data = {"name": name.strip()}
        for pair in filter(None, rest.split(";")):
            key, sep, value = pair.partition("=")
            if not sep:
                raise ConfigError(f"--strategies: expected key=value in {item!r}")
            try:
                data[key.strip()] = _plain(value)
            except ValueError:
                raise ConfigError(f"--strategies: bad number {value!r} in {item!r}") from None
        strategies.append(parse_strategy(data, f"--strategies[{i}]"))
    if not strategies:
        raise ConfigError("--strategies: need at least one strategy")
    return strategies


def _parse_range(spec: str, tick: float) -> tuple[float, float]:
    lo, sep, hi = spec.partition(":")
    try:
        if not sep:
            raise ValueError
        pair = (_plain(lo), _plain(hi))
    except ValueError:
        raise ConfigError(f"--velocity: expected LO:HI km/h, got {spec!r}") from None
    return check_velocity_range(pair, tick, "--velocity")


def _print_stats(stats: BatchStats) -> None:
    mean = "n/a" if math.isnan(stats.mean_detection_tick) else f"{stats.mean_detection_tick:.2f}"
    print(
        f"success rate {stats.success_rate:.4f} ({stats.n_wins}/{stats.n_trials}), "
        f"95% CI [{stats.ci_low:.4f}, {stats.ci_high:.4f}], mean detection tick {mean}"
    )


def _trial_csv(results: list[TrialResult], n_targets: int) -> list[str]:
    header = ["trial", "seed", "outcome", "ticks", "losing_target", "timeout"]
    header += [f"det_{j}" for j in range(n_targets)]
    lines = [",".join(header)]
    for i, r in enumerate(results):
        row = [
            str(i),
            str(r.seed),
            r.outcome,
            str(r.ticks),
            str(-1 if r.losing_target is None else r.losing_target),
            str(int(r.timeout)),
        ]
        row += [str(r.detection_ticks.get(j, -1)) for j in range(n_targets)]
        lines.append(",".join(row))
    return lines


def cmd_compile_model(args) -> int:
    graph = load_graph(args.graph)
    dead = dead_entries(graph)
    if dead == graph.entries:
        raise ConfigError(f"{args.graph}: no entry edge reaches a goal set, so there is no route to train on")
    refined, _ = from_source("--radius", overlay_grid, graph, args.radius)
    strategies = _parse_strategies(args.strategies)
    check_route_weights(refined, strategies, "--strategies")
    velocity = _parse_range(args.velocity, args.tick)
    # A model moves at most one hop per tick, so no tick may pass a whole edge.
    step = velocity[1] * KMH_TO_MS * args.tick
    if step > refined.length.min():  # a graph with no edge was refused above: it has no entry
        raise ConfigError(
            f"--tick {args.tick:g} s at the top --velocity {velocity[1]:g} km/h moves {step:.6g} m per "
            f"tick, more than the shortest refined edge ({refined.length.min():.6g} m); "
            "a model supports one hop per tick"
        )
    for entry in sorted(dead):
        print(f"warning: {args.graph}: entry edge {entry} reaches no goal set; a scenario on this map "
              "must fix every target's entry to another edge", file=sys.stderr)
    traces = traces_for_strategies(refined, strategies, args.tick, velocity, args.runs_per_pair, args.seed)
    model = compile_model(traces, refined, args.smoothing, args.tick, args.target_class)
    save_model(model, args.out)
    print(f"wrote {args.out}: {model.n_edges - model.rowless.size} rows from {len(traces)} traces")
    return 0


def cmd_run(args) -> int:
    scenario = load_scenario(args.scenario)
    [(stats, results)] = from_source(args.scenario, run_batch, [(scenario, args.seed)], args.trials, jobs=args.jobs)
    _print_stats(stats)
    if args.out:
        write_lines(args.out, _trial_csv(results, len(scenario.targets)))
        print(f"wrote {args.out}")
    return 0


def _run_points(spec: SweepSpec, seed: int, jobs: int, source: str):
    """Yield (assignment, scenario, stats) per sweep point, in order, from
    one run_batch call: one world per distinct map, grid and models, and one
    pool. Every point is expanded and its world built, and so checked, before
    the first trial runs; an error in either starts with `source`, the sweep
    or scenario file. A threshold axis under a policy that never reads it is
    warned of on stderr."""
    points = from_source(source, list, sweep_points(spec))  # list() runs the generator inside from_source
    seeded = [(scenario, trial_seed(seed, index)) for index, (_, scenario) in enumerate(points)]
    batches = from_source(source, run_batch, seeded, spec.trials, jobs=jobs)
    policy = spec.base.policy.policy
    if policy != THRESHOLD_POLICY and any(name == "threshold" for name, _ in spec.axes):
        print(f"warning: {source}: policy {policy!r} never reads threshold; only {THRESHOLD_POLICY} does, "
              "so the threshold points differ only in their seeds", file=sys.stderr)
    for (assignment, scenario), (stats, _) in zip(points, batches, strict=True):
        yield assignment, scenario, stats


def cmd_sweep(args) -> int:
    spec = load_sweep(args.sweep)
    seed = args.seed if args.seed is not None else spec.seed
    axis_names = [name for name, _ in spec.axes]
    lines = [",".join(axis_names + ["success_rate", "ci_low", "ci_high", "trials"])]
    for assignment, _, stats in _run_points(spec, seed, args.jobs, args.sweep):
        values = [str(v) for _, v in assignment]
        lines.append(",".join(values + [
            repr(stats.success_rate), repr(stats.ci_low), repr(stats.ci_high), str(stats.n_trials),
        ]))
        shown = " ".join(f"{n}={v}" for n, v in assignment)
        print(f"{shown} -> {stats.success_rate:.4f} [{stats.ci_low:.4f}, {stats.ci_high:.4f}]")
    path = os.path.join(args.out, SWEEP_CSV)
    write_lines(path, lines)
    print(f"wrote {path} ({len(lines) - 1} points x {spec.trials} trials)")
    return 0


def _flag_axis(scenario, axis: str, spec: str, flag: str) -> tuple[float, ...]:
    """The values of a threshold-scan axis given as a comma list, each checked
    as the scan applies it to `scenario`; an error names the flag."""
    try:
        values = tuple(_plain(s) for s in filter(None, (v.strip() for v in spec.split(","))))
    except ValueError:
        raise ConfigError(f"{flag}: expected comma-separated numbers, got {spec!r}") from None
    if not values:
        raise ConfigError(f"{flag}: need at least one value")
    for value in values:
        apply_axis(scenario, axis, value, label=flag)
    return values


def cmd_threshold_scan(args) -> int:
    scenario = load_scenario(args.scenario)
    if not scenario.uavs:
        raise ConfigError(f"{args.scenario}: threshold-scan needs at least one UAV")
    thresholds = _flag_axis(scenario, "threshold", args.thresholds, "--thresholds")
    axes = [("threshold", thresholds)]
    if args.detect_probs is not None:
        axes.insert(0, ("detect_prob", _flag_axis(scenario, "detect_prob", args.detect_probs, "--detect-probs")))
    spec = SweepSpec(scenario, tuple(axes), args.trials, args.seed)

    grid = [",".join(["detect_prob", "threshold", "success_rate", "ci_low", "ci_high", "trials"])]
    best = [",".join(["detect_prob", "best_threshold", "success_rate"])]
    rates = []  # (success rate, threshold) per point; the thresholds vary fastest
    for assignment, point, stats in _run_points(spec, args.seed, args.jobs, args.scenario):
        th = assignment[-1][1]
        p_shown = point.team_min_detect_prob()
        grid.append(",".join([
            repr(p_shown), repr(th), repr(stats.success_rate),
            repr(stats.ci_low), repr(stats.ci_high), str(stats.n_trials),
        ]))
        print(f"p={p_shown:g} threshold={th:g} -> {stats.success_rate:.4f}")
        rates.append((stats.success_rate, th))
        if len(rates) % len(thresholds) == 0:  # max keeps the first-listed of tied thresholds
            rate, best_th = max(rates[-len(thresholds):], key=lambda row: row[0])
            best.append(",".join([repr(p_shown), repr(best_th), repr(rate)]))
            print(f"p={p_shown:g} best threshold {best_th:g} at success rate {rate:.4f}")
    for name, lines in ((GRID_CSV, grid), (BEST_CSV, best)):
        path = os.path.join(args.out, name)
        write_lines(path, lines)
        print(f"wrote {path}")
    return 0


def cmd_dump_belief(args) -> int:
    scenario = load_scenario(args.scenario)
    world = from_source(args.scenario, build_world, scenario)
    class_name = args.target_class if args.target_class is not None else scenario.targets[0].class_name
    if class_name not in world.models:
        known = ", ".join(sorted(world.models))
        raise ConfigError(f"--target-class: {class_name!r} has no model; targets use: {known}")

    entry = args.entry if args.entry is not None else min(world.start_of_parent)
    if entry not in world.start_of_parent:
        raise ConfigError(f"--entry: edge {entry} is not an entry edge of the graph")

    lines = ["tick,edge,mass"]
    for tick in range(args.ticks + 1):
        belief = world.frozen_belief(class_name, world.start_of_parent[entry], tick)
        for edge in belief.nonzero()[0]:
            lines.append(f"{tick},{edge},{float(belief[edge])!r}")
    if args.out:
        write_lines(args.out, lines)
        print(f"wrote {args.out} ({len(lines) - 1} rows)")
    else:
        sys.stdout.write("\n".join(lines) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    # One --seed parent per default, listed first so every usage line keeps its flag order. One
    # shared parent cannot hold both: the subcommands built from a parent share its --seed action.
    # dump-belief draws nothing and runs no trials, so it takes only --out; compile-model writes a
    # model, which has no printed form, so its --out is required.
    seeded, file_seeded, jobs, out, model_out, out_dir = (_Parser(add_help=False) for _ in range(6))
    seeded.add_argument("--seed", type=_NON_NEGATIVE_INT, default=0, help="master seed, >= 0 (default 0)")
    file_seeded.add_argument("--seed", type=_NON_NEGATIVE_INT, default=None,
                             help="master seed, >= 0 (default: the sweep file's seed)")
    jobs.add_argument("--jobs", type=_COUNT, default=1, help="worker processes for trials, >= 1")
    out.add_argument("--out", type=_FILE_OUT, default=None, help="output file")
    model_out.add_argument("--out", type=_FILE_OUT, required=True, help="model file to write")
    out_dir.add_argument("--out", type=_DIR_OUT, default=".", help="output directory (default: .)")

    parser = _Parser(prog="uav-search", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("compile-model", parents=[seeded, jobs, model_out],
                       help="train a movement model from strategy routes")
    p.add_argument("graph", help="road graph file")
    p.add_argument("--strategies", required=True,
                   help="comma list, e.g. shortest,random_walk:beta=0.01,side_roads:penalty=1.5")
    p.add_argument("--radius", type=_POSITIVE_FINITE, required=True, help="detection radius defining the grid (m)")
    p.add_argument("--tick", type=_POSITIVE_FINITE, required=True, help="sampling tick (s)")
    p.add_argument("--velocity", default="8:12", help="target velocity range LO:HI (km/h)")
    p.add_argument("--runs-per-pair", type=_COUNT, default=3, help="traces per (entry, goal) pair")
    p.add_argument("--smoothing", type=_flag(float, (lambda v: 0 <= v < math.inf, "must be finite and >= 0")),
                   default=DEFAULT_SMOOTHING, help="Laplace smoothing epsilon")
    p.add_argument("--target-class", default="default", help="class name stored in the model file",
                   type=_flag(str, (lambda n: n.split() == [n], "must be one word, without whitespace")))
    p.set_defaults(func=cmd_compile_model)

    p = sub.add_parser("run", parents=[seeded, jobs, out], help="run one scenario batch")
    p.add_argument("scenario", help="scenario config file")
    p.add_argument("--trials", type=_COUNT, default=DEFAULT_TRIALS)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep", parents=[file_seeded, jobs, out_dir], help="run every point of a parameter sweep")
    p.add_argument("sweep", help="sweep config file")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("threshold-scan", parents=[seeded, jobs, out_dir],
                       help="find the best search threshold per detection probability")
    p.add_argument("scenario", help="scenario config file")
    p.add_argument("--thresholds", required=True, help="comma-separated threshold grid")
    p.add_argument("--detect-probs", default=None, help="comma-separated detection probabilities")
    p.add_argument("--trials", type=_COUNT, default=DEFAULT_TRIALS)
    p.set_defaults(func=cmd_threshold_scan)

    p = sub.add_parser("dump-belief", parents=[out], help="propagate one belief and dump it per tick")
    p.add_argument("scenario", help="scenario config file")
    p.add_argument("--ticks", type=_NON_NEGATIVE_INT, default=100, help="propagation steps to dump")
    p.add_argument("--entry", type=_INT, default=None, help="entry edge id (default: lowest)")
    p.add_argument("--target-class", default=None, help="class whose model to propagate")
    p.set_defaults(func=cmd_dump_belief)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
