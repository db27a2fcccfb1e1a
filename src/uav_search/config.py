"""Scenario and sweep configuration: YAML in, validated dataclasses out.

Every validation error names the exact config path that caused it
(`uavs[0].detect_prob: ...`), so a bad file fails loudly before any
simulation starts. Field tables check keys and types; each field rule lives
in its record's `__post_init__`, so files, sweep axes and `dataclasses.replace`
share it. A class's speed rule, `movement.check_velocity_range`, runs in
`ScenarioConfig`'s, as it needs the tick. Relative paths resolve against the
directory of the config file. PyYAML loads on the first YAML read, so
`compile-model` never loads it. `ConfigError` and `from_source`, which puts a
file or path before its message, come from `road_graph`, the module that every
rule can import.
"""

from __future__ import annotations

import dataclasses
import functools
import io
import itertools
import math
import os
import re
from dataclasses import dataclass

from .belief import check_detect_prob
from .movement import check_velocity_range
from .planner import DEFAULT_THRESHOLD, PolicyConfig
from .road_graph import ConfigError, from_source, read_lines
from .strategies import Strategy, make_strategy


def check_trials(n: int) -> int:
    """The trial-count rule, which the count flags' type `cli._COUNT` shares."""
    if n < 1:
        raise ConfigError(f"trials: must be >= 1, got {n}")
    return n


def _check_positive(key: str, value: float) -> None:
    """The rule for a speed, length or time: positive, and finite."""
    if not value > 0:
        raise ConfigError(f"{key}: must be positive, got {value}")
    if value == math.inf:
        raise ConfigError(f"{key}: must be finite, got {value}")


@dataclass(frozen=True)
class UavSpec:
    """One UAV: its depot (m), speed (km/h), detection radius (m) and detection probability."""

    depot: tuple[float, float]
    velocity_kmh: float
    detect_radius: float
    detect_prob: float

    def __post_init__(self):
        if len(self.depot) != 2 or not all(map(math.isfinite, self.depot)):
            raise ConfigError(f"depot: must be two finite numbers, got {list(self.depot)}")
        _check_positive("velocity_kmh", self.velocity_kmh)
        _check_positive("detect_radius", self.detect_radius)
        check_detect_prob(self.detect_prob)


@dataclass(frozen=True)
class TargetClassSpec:
    """A target class: its velocity range (km/h), route strategies and movement-model file."""

    name: str
    velocity_kmh: tuple[float, float]
    strategies: tuple[Strategy, ...]
    model_path: str

    def __post_init__(self):
        if not self.strategies:
            raise ConfigError("strategies: must list at least one strategy")


@dataclass(frozen=True)
class TargetSpec:
    """One target: its class, and its entry edge or a uniform draw over the entry edges."""

    class_name: str
    entry: int | None = None  # None draws uniformly over the entry edges


@dataclass(frozen=True)
class ScenarioConfig:
    """A checked scenario: graph, UAV team, targets, classes, policy, head start and clock."""

    graph_path: str
    uavs: tuple[UavSpec, ...]
    targets: tuple[TargetSpec, ...]
    classes: tuple[TargetClassSpec, ...]
    policy: PolicyConfig = PolicyConfig()
    delay_km: float = 0.0
    tick_seconds: float = 5.0
    max_ticks: int = 2000
    grid_radius: float | None = None  # None: team-minimum detection radius

    def __post_init__(self):
        if not self.targets:
            raise ConfigError("targets: must list at least one target")
        known = [c.name for c in self.classes]
        for i, t in enumerate(self.targets):
            if t.class_name not in known:
                raise ConfigError(f"targets[{i}].class: unknown class {t.class_name!r} (known: {sorted(known)})")
        if not self.delay_km >= 0:
            raise ConfigError(f"delay_km: must be >= 0.0, got {self.delay_km}")
        if self.delay_km == math.inf:
            raise ConfigError(f"delay_km: must be finite, got {self.delay_km}")
        _check_positive("tick_seconds", self.tick_seconds)
        for c in self.classes:
            check_velocity_range(c.velocity_kmh, self.tick_seconds, f"classes.{c.name}.velocity_kmh")
        if self.max_ticks < 1:
            raise ConfigError(f"max_ticks: must be >= 1, got {self.max_ticks}")
        if self.grid_radius is not None:
            _check_positive("grid_radius", self.grid_radius)
            if self.uavs and self.grid_radius > min(u.detect_radius for u in self.uavs) + 1e-9:
                raise ConfigError(
                    "grid_radius: exceeds the smallest UAV detection radius; "
                    "cells would not fit inside every detection circle"
                )
        elif not self.uavs:
            raise ConfigError("grid_radius: required when no UAVs are configured")

    def class_named(self, name: str) -> TargetClassSpec:
        for cls in self.classes:
            if cls.name == name:
                return cls
        raise KeyError(f"unknown target class {name!r}")

    def team_min_radius(self) -> float:
        if self.grid_radius is not None:
            return self.grid_radius
        return min(u.detect_radius for u in self.uavs)

    def team_min_detect_prob(self) -> float:
        return min(u.detect_prob for u in self.uavs)


@dataclass(frozen=True)
class SweepSpec:
    """A sweep: its base scenario, its ordered axes, and the trials and master seed of every point."""

    base: ScenarioConfig
    axes: tuple[tuple[str, tuple], ...]  # ordered (axis name, values)
    trials: int
    seed: int


# ---------------------------------------------------------------------------
# Readers: `read(data, path)` checks a YAML value's shape and types and returns
# the value read; every error starts with `path`, the value's config path.


def _need(kind: type, data, path: str):
    """`data` if it is a `kind`, dict or list."""
    if not isinstance(data, kind):
        raise ConfigError(f"{path}: expected a {'mapping' if kind is dict else 'list'}, got {type(data).__name__}")
    return data


def _need_float(data, path: str) -> float:
    if isinstance(data, bool) or not isinstance(data, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {data!r}")
    return float(data)


def _optional_float(data, path: str) -> float | None:
    return None if data is None else _need_float(data, path)


def _need_int(data, path: str, lo: int | None = None) -> int:
    if isinstance(data, bool) or not isinstance(data, int):
        raise ConfigError(f"{path}: expected an integer, got {data!r}")
    if lo is not None and data < lo:
        raise ConfigError(f"{path}: must be >= {lo}, got {data}")
    return data


def _as_is(data, path: str):
    return data  # a class or policy name, which its record checks


def _fields(data, table: dict, path: str, at: str) -> list:
    """The values of mapping `data` by `table`, `{key: (reader, default)}`, in table order; any other
    key is refused. Key paths start with `at`: `path` in a record, "" at a file's top level."""
    unknown = sorted(_need(dict, data, path).keys() - table)
    if unknown:
        raise ConfigError(f"{path}: unknown key {unknown[0]!r} (known: {sorted(table)})")
    return [read(data.get(key, default), f"{at}.{key}" if at else key) for key, (read, default) in table.items()]


def _record(record, table: dict):
    """A reader of `record(*leading, *fields)`, the fields read by `table`; the record's own
    checks, whose messages start with the key, report under the record's path."""
    def read(data, path: str, *leading):
        fields = _fields(data, table, path, path)
        try:
            return record(*leading, *fields)
        except ConfigError as exc:
            raise ConfigError(f"{path}.{exc}") from None
    return read


def _pair(shape: str):
    """A reader of two numbers `[<shape>]` as a tuple."""
    def read(data, path: str) -> tuple[float, float]:
        if len(_need(list, data, path)) != 2:
            raise ConfigError(f"{path}: expected [{shape}]")
        return tuple(_need_float(v, f"{path}[{i}]") for i, v in enumerate(data))
    return read


def _file(what: str, base_dir: str):
    """A reader of a path to `what`, relative to `base_dir`."""
    def read(data, path: str) -> str:
        if not isinstance(data, str):
            raise ConfigError(f"{path}: required (path to {what})")
        return os.path.normpath(os.path.join(base_dir, data))
    return read


def _each(read):
    """A reader of a list as a tuple, item `i` read by `read` at `path[i]`."""
    return lambda data, path: tuple(read(v, f"{path}[{i}]") for i, v in enumerate(_need(list, data, path)))


def _named(read):
    """A reader of a mapping as a tuple, in file order: `read(value, path.key, key)`."""
    return lambda data, path: tuple(read(v, f"{path}.{k}", k) for k, v in _need(dict, data, path).items())


def parse_strategy(data, path: str) -> Strategy:
    """A strategy from its spec, `{name: ..., <parameter>: <number>, ...}`,
    as a file or the `--strategies` flag gives it; errors start with `path`."""
    data = _need(dict, data, path)
    if "name" not in data:
        raise ConfigError(f"{path}.name: required")
    params = {k: _need_float(v, f"{path}.{k}") for k, v in data.items() if k != "name"}
    try:
        return from_source(path, make_strategy, data["name"], params)
    except KeyError as exc:
        raise ConfigError(f"{path}.name: {exc.args[0]}") from None


def _entry(data, path: str) -> int | None:
    if data == "uniform":
        return None
    if isinstance(data, bool) or not isinstance(data, int):
        raise ConfigError(f"{path}: expected 'uniform' or an entry edge id, got {data!r}")
    return data


_count = functools.partial(_need_int, lo=0)
_read_uav = _record(UavSpec, {
    "depot": (_pair("x, y"), None),
    "velocity_kmh": (_need_float, None),
    "detect_radius": (_need_float, None),
    "detect_prob": (_need_float, None),
})
_read_target = _record(TargetSpec, {"class": (_as_is, None), "entry": (_entry, "uniform")})
_read_policy = _record(PolicyConfig, {
    "name": (_as_is, PolicyConfig.policy),
    "threshold": (_need_float, DEFAULT_THRESHOLD),
    "detect_prob": (_optional_float, None),
})


def scenario_from_dict(data: dict, base_dir: str = ".") -> ScenarioConfig:
    read_class = _record(TargetClassSpec, {  # the class name leads, from its key in `classes`
        "velocity_kmh": (_pair("low, high"), None),
        "strategies": (_each(parse_strategy), None),
        "model": (_file("a compiled movement model", base_dir), None),
    })
    graph, uavs, classes, targets, *rest = _fields(data, {
        "graph": (_file("a road graph file", base_dir), None),
        "uavs": (_each(_read_uav), []),
        "classes": (_named(read_class), {}),
        "targets": (_each(_read_target), None),
        "policy": (lambda d, path: ScenarioConfig.policy if d is None else _read_policy(d, path), None),
        "delay_km": (_need_float, ScenarioConfig.delay_km),
        "tick_seconds": (_need_float, ScenarioConfig.tick_seconds),
        "max_ticks": (_need_int, ScenarioConfig.max_ticks),
        "grid_radius": (_optional_float, None),
    }, "scenario", "")
    return ScenarioConfig(graph, uavs, targets, classes, *rest)  # the record lists targets before classes


@functools.cache
def _yaml():
    """PyYAML and `_Loader`, imported and built once, on the first YAML read."""
    import yaml

    class _Loader(yaml.SafeLoader):
        """YAML 1.1 with the flags' number rule and each key once in a mapping:
        an integer is base-10 digits read by int() (`017` is 17), and `1_0`,
        `1:30`, `0x1A`, `0b101` and `1_000.5` stay strings, refused by key."""

        def construct_yaml_int(self, node):
            text = self.construct_scalar(node)
            return int(text) if re.fullmatch(r"[-+]?[0-9]+", text) else text

        def construct_yaml_float(self, node):
            text = self.construct_scalar(node)
            return text if "_" in text or ":" in text else super().construct_yaml_float(node)

        def construct_mapping(self, node, deep=False):
            keys = [k for k, _ in node.value if k.tag != "tag:yaml.org,2002:merge"]  # before merges flatten in
            mapping = super().construct_mapping(node, deep)
            names = [self.construct_object(k) for k in keys]
            for i, k in enumerate(keys):
                if names[i] in names[:i]:
                    raise yaml.constructor.ConstructorError(None, None, f"repeated key {names[i]!r}", k.start_mark)
            return mapping

    _Loader.add_constructor("tag:yaml.org,2002:int", _Loader.construct_yaml_int)
    _Loader.add_constructor("tag:yaml.org,2002:float", _Loader.construct_yaml_float)
    return yaml, _Loader


def _load_yaml(path: str) -> dict:
    """The top-level mapping of a YAML file; anything else raises ConfigError naming the file."""
    stream = io.StringIO("\n".join(read_lines(path, ConfigError)))
    stream.name = path  # a YAML error's marks read `in "<path>", line N, column M`
    yaml, loader = _yaml()
    try:
        data = yaml.load(stream, Loader=loader)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected a top-level mapping")
    return data


def load_scenario(path: str) -> ScenarioConfig:
    return from_source(path, scenario_from_dict, _load_yaml(path), base_dir=os.path.dirname(os.path.abspath(path)))


def _cycled(items: tuple, n) -> tuple:
    """`items` repeated in order to length n, for a count axis."""
    if int(n) > 0 and not items:  # only a team may be empty
        raise ConfigError("base scenario has no UAV to replicate")
    return tuple(items[i % len(items)] for i in range(int(n)))


def _set_detect_prob(scenario: ScenarioConfig, p) -> dict:
    check_detect_prob(float(p))  # here too, as a base may have no UavSpec to check it
    uavs = tuple(dataclasses.replace(u, detect_prob=float(p)) for u in scenario.uavs)
    return {"uavs": uavs, "policy": dataclasses.replace(scenario.policy, detect_prob=None)}


# Sweep axis -> (reader of a value in a sweep file, the scenario fields that a value sets).
_AXES = {
    "n_uavs": (_count, lambda sc, n: {"uavs": _cycled(sc.uavs, n)}),
    "n_targets": (_count, lambda sc, n: {"targets": _cycled(sc.targets, n)}),
    "delay_km": (_need_float, lambda sc, v: {"delay_km": float(v)}),
    "threshold": (_need_float, lambda sc, v: {"policy": dataclasses.replace(sc.policy, threshold=float(v))}),
    "detect_prob": (_need_float, _set_detect_prob),  # the team's p, which clears the policy's override
}


def _read_axis(values, path: str, name) -> tuple[str, tuple]:
    if name not in _AXES:
        raise ConfigError(f"{path}: unknown axis (known: {list(_AXES)})")
    values = _each(_AXES[name][0])(values, path)
    if not values:
        raise ConfigError(f"{path}: must list at least one value")
    return name, values


def load_sweep(path: str) -> SweepSpec:
    read_base = _file("a scenario file", os.path.dirname(os.path.abspath(path)))
    data = _load_yaml(path)  # its errors name the file already
    base, trials, seed, axes = from_source(path, _fields, data, {
        "base": (lambda d, at: load_scenario(read_base(d, at)), None),
        "trials": (lambda d, at: check_trials(_need_int(d, at)), None),
        "seed": (_count, 0),
        "axes": (_named(_read_axis), {}),
    }, "sweep", "")
    if not axes:
        raise ConfigError(f"{path}: axes: must name at least one sweep axis")
    return SweepSpec(base, axes, trials, seed)


def apply_axis(scenario: ScenarioConfig, axis: str, value, label: str | None = None) -> ScenarioConfig:
    """One override of a known sweep axis, returning a new scenario. Every error, the records'
    own checks included, is a ConfigError that starts with `label` (default `axes.<axis>`)."""
    overrides = _AXES[axis][1]
    return from_source(label or f"axes.{axis}", lambda: dataclasses.replace(scenario, **overrides(scenario, value)))


def sweep_points(spec: SweepSpec):
    """Yield (ordered axis-value assignment, scenario) per grid point: the
    Cartesian product of the axes, the last axis varying fastest."""
    names = [name for name, _ in spec.axes]
    for values in itertools.product(*(vs for _, vs in spec.axes)):
        scenario = spec.base
        for name, v in zip(names, values):
            scenario = apply_axis(scenario, name, v)
        yield tuple(zip(names, values)), scenario
