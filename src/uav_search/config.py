"""Scenario and sweep configuration: YAML in, validated dataclasses out.

Every validation error names the exact config path that caused it
(`uavs[0].detect_prob: ...`), so a bad file fails loudly before any
simulation starts. Parsers check YAML shape and types; each field rule lives
in its record's `__post_init__`, so files, sweep axes and `dataclasses.replace`
share it. Relative paths resolve against the directory of the config file.
"""

from __future__ import annotations

import dataclasses
import io
import itertools
import math
import os
import re
from dataclasses import dataclass

import yaml

from .belief import check_detect_prob
from .planner import PolicyConfig
from .road_graph import read_lines
from .strategies import Strategy, make_strategy

SWEEP_AXES = ("n_uavs", "n_targets", "delay_km", "threshold", "detect_prob")

DEFAULT_TICK_SECONDS = 5.0
DEFAULT_MAX_TICKS = 2000


class ConfigError(ValueError):
    """Raised when a config file is malformed; message names the bad path."""


def check_trials(n: int) -> int:
    """The trial-count rule, which the count flags' type `cli._COUNT` shares."""
    if n < 1:
        raise ConfigError(f"trials: must be >= 1, got {n}")
    return n


def check_velocity_range(velocity_kmh: tuple[float, float], label: str = "velocity_kmh") -> tuple[float, float]:
    """The rule for a target velocity range [low, high] (km/h); an error starts with `label`."""
    lo, hi = velocity_kmh
    if not 0 < lo <= hi < math.inf:
        raise ConfigError(f"{label}: need 0 < low <= high < inf, got [{lo}, {hi}]")
    return velocity_kmh


def _check_positive(key: str, value: float) -> None:
    """The rule for a speed, length or time: positive, and finite."""
    if not value > 0:
        raise ConfigError(f"{key}: must be positive, got {value}")
    if value == math.inf:
        raise ConfigError(f"{key}: must be finite, got {value}")


@dataclass(frozen=True)
class UavSpec:
    depot: tuple[float, float]
    velocity_kmh: float
    detect_radius: float
    detect_prob: float

    def __post_init__(self):
        if len(self.depot) != 2 or not all(map(math.isfinite, self.depot)):
            raise ConfigError(f"depot: must be two finite numbers, got {list(self.depot)}")
        _check_positive("velocity_kmh", self.velocity_kmh)
        _check_positive("detect_radius", self.detect_radius)
        check_detect_prob(self.detect_prob, ConfigError)


@dataclass(frozen=True)
class TargetClassSpec:
    name: str
    velocity_kmh: tuple[float, float]
    strategies: tuple[Strategy, ...]
    model_path: str

    def __post_init__(self):
        check_velocity_range(self.velocity_kmh)
        if not self.strategies:
            raise ConfigError("strategies: must list at least one strategy")


@dataclass(frozen=True)
class TargetSpec:
    class_name: str
    entry: int | None = None  # None draws uniformly over the entry edges


@dataclass(frozen=True)
class ScenarioConfig:
    graph_path: str
    uavs: tuple[UavSpec, ...]
    targets: tuple[TargetSpec, ...]
    classes: tuple[TargetClassSpec, ...]
    policy: PolicyConfig = PolicyConfig()
    delay_km: float = 0.0
    tick_seconds: float = DEFAULT_TICK_SECONDS
    max_ticks: int = DEFAULT_MAX_TICKS
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
        _check_positive("tick_seconds", self.tick_seconds)
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
    base: ScenarioConfig
    axes: tuple[tuple[str, tuple], ...]  # ordered (axis name, values)
    trials: int
    seed: int


# ---------------------------------------------------------------------------
# Parsing helpers: every reader carries the config path for error messages.


def _need_map(data, path: str) -> dict:
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected a mapping, got {type(data).__name__}")
    return data


def _need_list(data, path: str) -> list:
    if not isinstance(data, list):
        raise ConfigError(f"{path}: expected a list, got {type(data).__name__}")
    return data


def _need_float(data, path: str, optional: bool = False) -> float | None:
    if optional and data is None:
        return None
    if isinstance(data, bool) or not isinstance(data, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {data!r}")
    return float(data)


def _need_int(data, path: str, lo: int | None = None) -> int:
    if isinstance(data, bool) or not isinstance(data, int):
        raise ConfigError(f"{path}: expected an integer, got {data!r}")
    if lo is not None and data < lo:
        raise ConfigError(f"{path}: must be >= {lo}, got {data}")
    return data


def _reject_unknown(data: dict, known: set[str], path: str) -> None:
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"{path}: unknown key {sorted(unknown)[0]!r} (known: {sorted(known)})")


def _build(record, path: str, *fields):
    """`record(*fields)`; its field checks, which start with the key, report under `path`."""
    try:
        return record(*fields)
    except ValueError as exc:
        raise ConfigError(f"{path}.{exc}") from None


def _parse_uav(data, path: str) -> UavSpec:
    data = _need_map(data, path)
    _reject_unknown(data, {"depot", "velocity_kmh", "detect_radius", "detect_prob"}, path)
    depot = _need_list(data.get("depot"), f"{path}.depot")
    if len(depot) != 2:
        raise ConfigError(f"{path}.depot: expected [x, y]")
    x = _need_float(depot[0], f"{path}.depot[0]")
    y = _need_float(depot[1], f"{path}.depot[1]")
    v = _need_float(data.get("velocity_kmh"), f"{path}.velocity_kmh")
    r = _need_float(data.get("detect_radius"), f"{path}.detect_radius")
    p = _need_float(data.get("detect_prob"), f"{path}.detect_prob")
    return _build(UavSpec, path, (x, y), v, r, p)


def parse_strategy(data, path: str) -> Strategy:
    """A strategy from its spec, `{name: ..., <parameter>: <number>, ...}`,
    as a file or the `--strategies` flag gives it; errors start with `path`."""
    data = _need_map(data, path)
    if "name" not in data:
        raise ConfigError(f"{path}.name: required")
    params = {k: _need_float(v, f"{path}.{k}") for k, v in data.items() if k != "name"}
    try:
        return make_strategy(data["name"], params)
    except KeyError as exc:
        raise ConfigError(f"{path}.name: {exc.args[0]}") from None
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _parse_class(name: str, data, path: str, base_dir: str) -> TargetClassSpec:
    data = _need_map(data, path)
    _reject_unknown(data, {"velocity_kmh", "strategies", "model"}, path)
    vr = _need_list(data.get("velocity_kmh"), f"{path}.velocity_kmh")
    if len(vr) != 2:
        raise ConfigError(f"{path}.velocity_kmh: expected [low, high]")
    lo = _need_float(vr[0], f"{path}.velocity_kmh[0]")
    hi = _need_float(vr[1], f"{path}.velocity_kmh[1]")
    listed = _need_list(data.get("strategies"), f"{path}.strategies")
    strategies = tuple(
        parse_strategy(s, f"{path}.strategies[{i}]") for i, s in enumerate(listed)
    )
    if "model" not in data or not isinstance(data["model"], str):
        raise ConfigError(f"{path}.model: required (path to a compiled movement model)")
    model_path = os.path.normpath(os.path.join(base_dir, data["model"]))
    return _build(TargetClassSpec, path, name, (lo, hi), strategies, model_path)


def _parse_target(data, path: str) -> TargetSpec:
    data = _need_map(data, path)
    _reject_unknown(data, {"class", "entry"}, path)
    cls = data.get("class")
    entry = data.get("entry", "uniform")
    if entry == "uniform":
        return TargetSpec(cls, None)
    if isinstance(entry, bool) or not isinstance(entry, int):
        raise ConfigError(f"{path}.entry: expected 'uniform' or an entry edge id, got {entry!r}")
    return TargetSpec(cls, entry)


def _parse_policy(data, path: str) -> PolicyConfig:
    if data is None:
        return PolicyConfig()
    data = _need_map(data, path)
    _reject_unknown(data, {"name", "threshold", "detect_prob"}, path)
    threshold = _need_float(data.get("threshold", 0.2), f"{path}.threshold")
    p = _need_float(data.get("detect_prob"), f"{path}.detect_prob", optional=True)
    return _build(PolicyConfig, path, data.get("name", "adaptive"), threshold, p)


def scenario_from_dict(data: dict, base_dir: str = ".") -> ScenarioConfig:
    data = _need_map(data, "scenario")
    _reject_unknown(
        data,
        {
            "graph",
            "uavs",
            "targets",
            "classes",
            "policy",
            "delay_km",
            "tick_seconds",
            "max_ticks",
            "grid_radius",
        },
        "scenario",
    )
    if "graph" not in data or not isinstance(data["graph"], str):
        raise ConfigError("graph: required (path to a road graph file)")
    graph_path = os.path.normpath(os.path.join(base_dir, data["graph"]))

    uavs = tuple(
        _parse_uav(u, f"uavs[{i}]") for i, u in enumerate(_need_list(data.get("uavs", []), "uavs"))
    )

    classes_map = _need_map(data.get("classes", {}), "classes")
    classes = tuple(
        _parse_class(name, cdata, f"classes.{name}", base_dir)
        for name, cdata in classes_map.items()
    )

    target_list = _need_list(data.get("targets"), "targets")
    targets = tuple(
        _parse_target(t, f"targets[{i}]") for i, t in enumerate(target_list)
    )

    policy = _parse_policy(data.get("policy"), "policy")
    delay_km = _need_float(data.get("delay_km", 0.0), "delay_km")
    tick_seconds = _need_float(data.get("tick_seconds", DEFAULT_TICK_SECONDS), "tick_seconds")
    max_ticks = _need_int(data.get("max_ticks", DEFAULT_MAX_TICKS), "max_ticks")
    grid_radius = _need_float(data.get("grid_radius"), "grid_radius", optional=True)

    return ScenarioConfig(
        graph_path=graph_path,
        uavs=uavs,
        targets=targets,
        classes=classes,
        policy=policy,
        delay_km=delay_km,
        tick_seconds=tick_seconds,
        max_ticks=max_ticks,
        grid_radius=grid_radius,
    )


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


def _load_yaml(path: str) -> dict:
    """The top-level mapping of a YAML file; anything else raises ConfigError naming the file."""
    stream = io.StringIO("\n".join(read_lines(path, ConfigError)))
    stream.name = path  # a YAML error's marks read `in "<path>", line N, column M`
    try:
        data = yaml.load(stream, Loader=_Loader)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected a top-level mapping")
    return data


def load_scenario(path: str) -> ScenarioConfig:
    data = _load_yaml(path)
    try:
        return scenario_from_dict(data, base_dir=os.path.dirname(os.path.abspath(path)))
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def load_sweep(path: str) -> SweepSpec:
    data = _load_yaml(path)
    base_dir = os.path.dirname(os.path.abspath(path))
    try:
        _reject_unknown(data, {"base", "trials", "seed", "axes"}, "sweep")
        if "base" not in data or not isinstance(data["base"], str):
            raise ConfigError("base: required (path to a scenario file)")
        base = load_scenario(os.path.normpath(os.path.join(base_dir, data["base"])))
        trials = check_trials(_need_int(data.get("trials"), "trials"))
        seed = _need_int(data.get("seed", 0), "seed", lo=0)
        axes_map = _need_map(data.get("axes", {}), "axes")
        if not axes_map:
            raise ConfigError("axes: must name at least one sweep axis")
        axes = []
        for name, values in axes_map.items():
            if name not in SWEEP_AXES:
                raise ConfigError(f"axes.{name}: unknown axis (known: {list(SWEEP_AXES)})")
            values = _need_list(values, f"axes.{name}")
            if not values:
                raise ConfigError(f"axes.{name}: must list at least one value")
            if name in ("n_uavs", "n_targets"):
                values = [_need_int(v, f"axes.{name}[{i}]", lo=0) for i, v in enumerate(values)]
            else:
                values = [_need_float(v, f"axes.{name}[{i}]") for i, v in enumerate(values)]
            axes.append((name, tuple(values)))
        return SweepSpec(base=base, axes=tuple(axes), trials=trials, seed=seed)
    except ConfigError as exc:
        msg = str(exc)
        raise ConfigError(msg if msg.startswith(path) else f"{path}: {msg}") from None


def apply_axis(scenario: ScenarioConfig, axis: str, value, label: str | None = None) -> ScenarioConfig:
    """One sweep-axis override, returning a new scenario. Every error, the
    records' own checks included, is a ConfigError that starts with `label`
    (default `axes.<axis>`)."""
    try:
        if axis == "n_uavs":
            n = int(value)
            if n > 0 and not scenario.uavs:
                raise ConfigError("base scenario has no UAV to replicate")
            uavs = tuple(scenario.uavs[i % len(scenario.uavs)] for i in range(n)) if n else ()
            return dataclasses.replace(scenario, uavs=uavs)
        if axis == "n_targets":
            n = int(value)
            targets = tuple(scenario.targets[i % len(scenario.targets)] for i in range(n))
            return dataclasses.replace(scenario, targets=targets)
        if axis == "delay_km":
            return dataclasses.replace(scenario, delay_km=float(value))
        if axis == "threshold":
            policy = dataclasses.replace(scenario.policy, threshold=float(value))
            return dataclasses.replace(scenario, policy=policy)
        if axis == "detect_prob":
            p = float(value)
            if not scenario.uavs:  # no UavSpec is built to check the value
                check_detect_prob(p)
            uavs = tuple(dataclasses.replace(u, detect_prob=p) for u in scenario.uavs)
            policy = dataclasses.replace(scenario.policy, detect_prob=None)
            return dataclasses.replace(scenario, uavs=uavs, policy=policy)
        raise ConfigError(f"unknown sweep axis {axis!r}")
    except ValueError as exc:  # ConfigError, or PolicyConfig's own checks
        raise ConfigError(f"{label or f'axes.{axis}'}: {exc}") from None


def sweep_points(spec: SweepSpec):
    """Yield (ordered axis-value assignment, scenario) per grid point: the
    Cartesian product of the axes, the last axis varying fastest."""
    names = [name for name, _ in spec.axes]
    for values in itertools.product(*(vs for _, vs in spec.axes)):
        scenario = spec.base
        for name, v in zip(names, values):
            scenario = apply_axis(scenario, name, v)
        yield tuple(zip(names, values)), scenario
