"""Config parsing: defaults, validation messages, sweep expansion."""

import dataclasses
import json
import math
import os

import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from uav_search.config import (
    ConfigError,
    ScenarioConfig,
    SweepSpec,
    TargetSpec,
    UavSpec,
    apply_axis,
    load_scenario,
    load_sweep,
    scenario_from_dict,
    sweep_points,
)
from uav_search.strategies import RandomWalkStrategy, ShortestPathStrategy


def _base(**over):
    d = {
        "graph": "maps/border.graph",
        "uavs": [
            {"depot": [0, 0], "velocity_kmh": 40, "detect_radius": 500, "detect_prob": 0.8}
        ],
        "classes": {
            "runner": {
                "velocity_kmh": [8, 12],
                "strategies": [{"name": "shortest"}],
                "model": "models/border_shortest.model",
            }
        },
        "targets": [{"class": "runner"}],
    }
    d.update(over)
    return d


class TestScenarioParsing:
    def test_minimal_defaults(self):
        sc = scenario_from_dict(_base(), base_dir="/work")
        assert sc.graph_path == os.path.normpath("/work/maps/border.graph")
        assert sc.classes[0].model_path == os.path.normpath("/work/models/border_shortest.model")
        assert sc.uavs == (UavSpec((0.0, 0.0), 40.0, 500.0, 0.8),)
        assert sc.targets == (TargetSpec("runner", None),)
        assert sc.policy.policy == "adaptive"
        assert sc.policy.threshold == 0.2
        assert sc.policy.detect_prob is None
        assert sc.delay_km == 0.0
        assert sc.tick_seconds == 5.0
        assert sc.max_ticks == 2000
        assert sc.grid_radius is None

    def test_explicit_fields(self):
        sc = scenario_from_dict(
            _base(
                policy={"name": "general", "threshold": 0.3, "detect_prob": 0.9},
                delay_km=7,
                tick_seconds=20,
                max_ticks=500,
                grid_radius=450,
                targets=[{"class": "runner", "entry": 17}, {"class": "runner", "entry": "uniform"}],
            )
        )
        assert sc.policy.policy == "general"
        assert sc.policy.threshold == 0.3
        assert sc.policy.detect_prob == 0.9
        assert (sc.delay_km, sc.tick_seconds, sc.max_ticks, sc.grid_radius) == (7.0, 20.0, 500, 450.0)
        assert sc.targets == (TargetSpec("runner", 17), TargetSpec("runner", None))

    def test_no_uavs_allowed_with_explicit_grid(self):
        sc = scenario_from_dict(_base(uavs=[], grid_radius=500))
        assert sc.uavs == ()
        assert sc.team_min_radius() == 500.0

    def test_team_min_radius_needs_a_source(self):
        sc = scenario_from_dict(_base(uavs=[], grid_radius=500))
        with pytest.raises(ConfigError, match="grid.radius: required"):
            dataclasses.replace(sc, grid_radius=None)

    def test_grid_radius_may_not_exceed_a_detection_radius(self):
        sc = scenario_from_dict(_base(grid_radius=500))
        with pytest.raises(ConfigError, match="grid_radius: exceeds the smallest UAV detection radius"):
            dataclasses.replace(sc, grid_radius=501.0)
        small = dataclasses.replace(sc.uavs[0], detect_radius=400.0)
        with pytest.raises(ConfigError, match="grid_radius: exceeds"):
            dataclasses.replace(sc, uavs=sc.uavs + (small,))

    def test_team_minima(self):
        extra = {"depot": [5, 5], "velocity_kmh": 50, "detect_radius": 400, "detect_prob": 0.6}
        sc = scenario_from_dict(_base(uavs=_base()["uavs"] + [extra]))
        assert sc.team_min_radius() == 400.0
        assert sc.team_min_detect_prob() == 0.6

    @pytest.mark.parametrize(
        "mutate,needle",
        [
            (lambda d: d.update(bogus=1), r"scenario: unknown key 'bogus'"),
            (lambda d: d.pop("graph"), r"graph: required"),
            (lambda d: d.update(graph=5), r"graph: required"),
            (lambda d: d.update(uavs={}), r"uavs: expected a list"),
            (lambda d: d["uavs"].__setitem__(0, 3), r"uavs\[0\]: expected a mapping"),
            (lambda d: d["uavs"][0].update(speed=1), r"uavs\[0\]: unknown key 'speed'"),
            (lambda d: d["uavs"][0].pop("depot"), r"uavs\[0\].depot: expected a list"),
            (lambda d: d["uavs"][0].update(depot=[1]), r"uavs\[0\].depot: expected \[x, y\]"),
            (lambda d: d["uavs"][0].update(depot=["a", 0]), r"uavs\[0\].depot\[0\]: expected a number"),
            (lambda d: d["uavs"][0].update(velocity_kmh=0), r"uavs\[0\].velocity_kmh: must be positive"),
            (lambda d: d["uavs"][0].update(detect_radius=-1), r"uavs\[0\].detect_radius: must be positive"),
            (lambda d: d["uavs"][0].update(detect_prob=0), r"uavs\[0\].detect_prob: must be in \(0, 1\]"),
            (lambda d: d["uavs"][0].update(detect_prob=1.5), r"uavs\[0\].detect_prob: must be in \(0, 1\]"),
            (lambda d: d["uavs"][0].update(detect_prob=True), r"uavs\[0\].detect_prob: expected a number"),
            (lambda d: d.update(classes=[]), r"classes: expected a mapping"),
            (lambda d: d["classes"]["runner"].update(color="red"), r"classes.runner: unknown key 'color'"),
            (lambda d: d["classes"]["runner"].update(velocity_kmh=[8]), r"velocity_kmh: expected \[low, high\]"),
            (lambda d: d["classes"]["runner"].update(velocity_kmh=[12, 8]), r"need 0 < low <= high"),
            (lambda d: d["classes"]["runner"].update(velocity_kmh=[0, 8]), r"need 0 < low <= high"),
            (lambda d: d["classes"]["runner"].update(velocity_kmh=[8, math.inf]), r"need 0 < low <= high < inf, got \[8.0, inf\]"),
            (lambda d: d["uavs"][0].update(depot=[math.nan, 0]), r"uavs\[0\].depot: must be two finite numbers"),
            (lambda d: d["uavs"][0].update(depot=[0, -math.inf]), r"uavs\[0\].depot: must be two finite numbers"),
            (lambda d: d["classes"]["runner"].update(strategies=[]), r"must list at least one strategy"),
            (lambda d: d["classes"]["runner"].update(strategies=[{}]), r"strategies\[0\].name: required"),
            (
                lambda d: d["classes"]["runner"].update(strategies=[{"name": "warp"}]),
                r"strategies\[0\].name: unknown strategy 'warp'",
            ),
            (
                lambda d: d["classes"]["runner"].update(strategies=[{"name": ["shortest"]}]),
                r"strategies\[0\].name: unknown strategy \['shortest'\]",
            ),
            (
                lambda d: d["classes"]["runner"].update(strategies=[{"name": "shortest", "beta": 1}]),
                r"strategies\[0\]: .*unknown parameters \['beta'\]",
            ),
            (
                lambda d: d["classes"]["runner"].update(strategies=[{"name": "random_walk"}]),
                r"strategies\[0\]: .*missing parameters \['beta'\]",
            ),
            (
                lambda d: d["classes"]["runner"].update(strategies=[{"name": "random_walk", "beta": "x"}]),
                r"strategies\[0\].beta: expected a number",
            ),
            (lambda d: d["classes"]["runner"].pop("model"), r"classes.runner.model: required"),
            (lambda d: d.pop("targets"), r"targets: expected a list"),
            (lambda d: d.update(targets=[]), r"targets: must list at least one target"),
            (lambda d: d.update(targets=[{"class": "ghost"}]), r"targets\[0\].class: unknown class 'ghost'"),
            (lambda d: d.update(targets=[{}]), r"targets\[0\].class: unknown class None"),
            (lambda d: d.update(targets=[{"class": ["runner"]}]), r"targets\[0\].class: unknown class \['runner'\]"),
            (
                lambda d: d.update(targets=[{"class": "runner", "entry": "north"}]),
                r"targets\[0\].entry: expected 'uniform' or an entry edge id",
            ),
            (lambda d: d.update(targets=[{"class": "runner", "speed": 3}]), r"targets\[0\]: unknown key"),
            (lambda d: d.update(policy={"name": "chaos"}), r"policy.name: unknown policy 'chaos'"),
            (lambda d: d.update(policy={"threshold": -0.1}), r"policy.threshold: must be >= 0.0"),
            (lambda d: d.update(policy={"threshold": math.nan}), r"policy.threshold: must be >= 0.0, got nan"),
            (lambda d: d.update(policy={"detect_prob": 0}), r"policy.detect_prob: must be in \(0, 1\]"),
            (lambda d: d.update(policy={"mode": "x"}), r"policy: unknown key 'mode'"),
            (lambda d: d.update(delay_km=-1), r"delay_km: must be >= 0.0"),
            (lambda d: d.update(tick_seconds=0), r"tick_seconds: must be positive"),
            (lambda d: d.update(max_ticks=0), r"max_ticks: must be >= 1"),
            (lambda d: d.update(max_ticks=2.5), r"max_ticks: expected an integer"),
            (lambda d: d.update(grid_radius=0), r"grid_radius: must be positive"),
            (lambda d: d.update(grid_radius=600), r"exceeds the smallest UAV detection radius"),
            (lambda d: d.update(uavs=[]), r"grid_radius: required when no UAVs are configured"),
        ],
    )
    def test_rejects_bad_input(self, mutate, needle):
        d = _base()
        mutate(d)
        with pytest.raises(ConfigError, match=needle):
            scenario_from_dict(d)

    def test_rejects_non_mapping(self):
        with pytest.raises(ConfigError, match="scenario: expected a mapping"):
            scenario_from_dict([1, 2])


class TestFileLoading:
    def test_relative_paths_resolve_against_config_dir(self, tmp_path):
        d = _base(graph="g.graph")
        d["classes"]["runner"]["model"] = "sub/m.model"
        p = tmp_path / "sc.yaml"
        p.write_text(yaml.safe_dump(d))
        sc = load_scenario(str(p))
        assert sc.graph_path == str(tmp_path / "g.graph")
        assert sc.classes[0].model_path == str(tmp_path / "sub" / "m.model")

    def test_error_prefixed_with_path(self, tmp_path):
        d = _base()
        d.pop("graph")
        p = tmp_path / "sc.yaml"
        p.write_text(yaml.safe_dump(d))
        with pytest.raises(ConfigError) as err:
            load_scenario(str(p))
        assert str(err.value).startswith(f"{p}: graph: required")

    def test_invalid_yaml(self, tmp_path):
        p = tmp_path / "bad.yaml"
        p.write_text("a: [unclosed\n")
        with pytest.raises(ConfigError, match="invalid YAML"):
            load_scenario(str(p))

    def test_top_level_must_be_mapping(self, tmp_path):
        p = tmp_path / "list.yaml"
        p.write_text("- 1\n- 2\n")
        with pytest.raises(ConfigError, match="expected a top-level mapping"):
            load_scenario(str(p))

    def test_bundled_scenario(self, border_scenario):
        assert isinstance(border_scenario, ScenarioConfig)
        assert len(border_scenario.uavs) == 3
        assert len(border_scenario.targets) == 3
        assert border_scenario.policy.policy == "adaptive"
        assert border_scenario.delay_km == 7.0
        assert border_scenario.tick_seconds == 20.0
        assert os.path.isfile(border_scenario.graph_path)
        assert os.path.isfile(border_scenario.classes[0].model_path)


REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BORDER_YAML = os.path.join(REPO_ROOT, "scenarios", "border.yaml")


def _field_paths(node, path=()):
    """Every key path into a parsed YAML tree: each mapping value and list
    item, leaves and subtrees alike."""
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield path + (key,)
        yield from _field_paths(child, path + (key,))


def _bundled_border():
    """scenarios/border.yaml as a tree, its graph and model paths made
    absolute so a copy loads from any directory."""
    with open(BORDER_YAML) as fh:
        data = yaml.safe_load(fh)
    base = os.path.dirname(BORDER_YAML)
    data["graph"] = os.path.normpath(os.path.join(base, data["graph"]))
    for cls in data["classes"].values():
        cls["model"] = os.path.normpath(os.path.join(base, cls["model"]))
    return data


FUZZ_VALUES = [math.nan, math.inf, -math.inf, -1, -2.5, "x", "", True, False, [], [1.0, "a"], None]


class TestLoadScenarioFuzz:
    @settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(pick=st.integers(0, 10**6), value=st.sampled_from(FUZZ_VALUES))
    def test_one_bad_field_loads_or_names_the_file(self, tmp_path, pick, value):
        """`scenarios/border.yaml` with one field, a leaf or a subtree,
        replaced by NaN, an infinity, a negative number, a string, a bool, a
        list or null either loads or raises a ConfigError naming the file."""
        data = _bundled_border()
        paths = list(_field_paths(data))
        *parents, key = paths[pick % len(paths)]
        record = data
        for part in parents:
            record = record[part]
        record[key] = value
        path = tmp_path / "fuzz.yaml"
        path.write_text(yaml.safe_dump(data))
        try:
            sc = load_scenario(str(path))
        except ConfigError as exc:
            assert str(exc).startswith(f"{path}: ")
            return
        assert isinstance(sc, ScenarioConfig)


# YAML spellings of NaN, the infinities, negative numbers, strings, bools,
# lists and null, and of `1_0` and `٣`: an int to YAML 1.1, and a string.
SWEEP_FUZZ_TOKENS = [".nan", ".inf", "-.inf", "-1", "-2.5", "x", "''", "true", "false", "[]", "[1.0, a]",
                     "null", "1_0", "٣"]
SWEEP_FUZZ_FIELDS = ["trials", "seed", "base", "axis name", "axis list", "axis value"]


def _sweep_text(field: str | None = None, token: str = "", index: int = 0) -> str:
    """scenarios/border_sweep.yaml, its base made absolute, with `field`
    written as the YAML text `token` (for an axis value, the one at `index`)."""
    fields = {"base": json.dumps(BORDER_YAML), "trials": "50", "seed": "1", "axis name": "n_uavs"}
    values = ["2", "3", "4"]
    if field == "axis value":
        values[index % len(values)] = token
    elif field is not None:
        fields[field] = token
    axis_list = token if field == "axis list" else f"[{', '.join(values)}]"
    return (f"base: {fields['base']}\ntrials: {fields['trials']}\nseed: {fields['seed']}\n"
            f"axes:\n  {fields['axis name']}: {axis_list}\n")


class TestLoadSweepFuzz:
    def test_unmutated_text_is_the_bundled_sweep(self, tmp_path):
        path = tmp_path / "sweep.yaml"
        path.write_text(_sweep_text())
        bundled = load_sweep(os.path.join(REPO_ROOT, "scenarios", "border_sweep.yaml"))
        assert load_sweep(str(path)) == bundled

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(field=st.sampled_from(SWEEP_FUZZ_FIELDS), token=st.sampled_from(SWEEP_FUZZ_TOKENS),
           index=st.integers(0, 2))
    def test_one_bad_field_loads_or_names_the_file(self, tmp_path, field, token, index):
        """`scenarios/border_sweep.yaml` with its trials, seed, base, axis
        name, axis list or one axis value written as one of
        SWEEP_FUZZ_TOKENS either loads or raises a ConfigError naming the
        file."""
        path = tmp_path / "fuzz_sweep.yaml"
        path.write_text(_sweep_text(field, token, index))
        try:
            spec = load_sweep(str(path))
        except ConfigError as exc:
            assert str(exc).startswith(f"{path}: ")
            return
        assert isinstance(spec, SweepSpec)


@pytest.fixture
def parsed():
    return scenario_from_dict(_base(policy={"name": "general", "detect_prob": 0.9}))


class TestApplyAxis:
    def test_n_uavs_replicates_cyclically(self, parsed):
        extra = dataclasses.replace(parsed.uavs[0], depot=(9.0, 9.0))
        two = dataclasses.replace(parsed, uavs=(parsed.uavs[0], extra))
        five = apply_axis(two, "n_uavs", 5)
        assert len(five.uavs) == 5
        assert five.uavs == (two.uavs[0], extra, two.uavs[0], extra, two.uavs[0])

    def test_n_uavs_zero_clears_team(self, parsed):
        gridded = dataclasses.replace(parsed, grid_radius=500.0)
        assert apply_axis(gridded, "n_uavs", 0).uavs == ()

    def test_n_uavs_zero_needs_a_grid_radius(self, parsed):
        with pytest.raises(ConfigError, match=r"axes.n_uavs: grid_radius: required"):
            apply_axis(parsed, "n_uavs", 0)

    def test_policy_errors_name_the_axis(self, parsed):
        with pytest.raises(ConfigError, match=r"axes.threshold: threshold: must be >= 0.0"):
            apply_axis(parsed, "threshold", -0.1)

    def test_n_uavs_needs_a_template(self, parsed):
        empty = dataclasses.replace(parsed, uavs=(), grid_radius=500.0)
        with pytest.raises(ConfigError, match="no UAV to replicate"):
            apply_axis(empty, "n_uavs", 2)
        assert apply_axis(empty, "n_uavs", 0).uavs == ()

    def test_n_targets(self, parsed):
        four = apply_axis(parsed, "n_targets", 4)
        assert four.targets == (parsed.targets[0],) * 4
        with pytest.raises(ConfigError, match="at least one target"):
            apply_axis(parsed, "n_targets", 0)

    def test_delay(self, parsed):
        assert apply_axis(parsed, "delay_km", 5).delay_km == 5.0

    def test_threshold_touches_only_policy(self, parsed):
        out = apply_axis(parsed, "threshold", 0.35)
        assert out.policy.threshold == 0.35
        assert out.policy.policy == parsed.policy.policy
        assert out.uavs == parsed.uavs

    def test_detect_prob_overrides_team_and_clears_policy(self, parsed):
        assert parsed.policy.detect_prob == 0.9
        out = apply_axis(parsed, "detect_prob", 0.5)
        assert all(u.detect_prob == 0.5 for u in out.uavs)
        assert out.policy.detect_prob is None

    def test_detect_prob_bounds(self, parsed):
        with pytest.raises(ConfigError, match=r"must be in \(0, 1\]"):
            apply_axis(parsed, "detect_prob", 1.5)

    @pytest.mark.parametrize("p", [0.0, -0.5, 1.5])
    def test_detect_prob_bounds_without_uavs(self, parsed, p):
        """No UavSpec is built on a base without UAVs; the axis still checks."""
        empty = dataclasses.replace(parsed, uavs=(), grid_radius=500.0)
        with pytest.raises(ConfigError, match=r"axes.detect_prob: detect_prob: must be in \(0, 1\]"):
            apply_axis(empty, "detect_prob", p)
        assert apply_axis(empty, "detect_prob", 1.0).uavs == ()

    def test_delay_km_bounds(self, parsed):
        with pytest.raises(ConfigError, match=r"axes.delay_km: delay_km: must be >= 0.0, got -5.0"):
            apply_axis(parsed, "delay_km", -5.0)

    def test_unknown_axis(self, parsed):
        with pytest.raises(ConfigError, match="unknown sweep axis"):
            apply_axis(parsed, "wind", 3)


class TestRecordsCheckTheirFields:
    """Each field rule lives in its record, so a scenario built by
    dataclasses.replace is checked like one read from a file."""

    @pytest.mark.parametrize(
        "field,value,needle",
        [
            ("delay_km", -1.0, r"delay_km: must be >= 0.0, got -1.0"),
            ("tick_seconds", 0.0, r"tick_seconds: must be positive, got 0.0"),
            ("max_ticks", 0, r"max_ticks: must be >= 1, got 0"),
            ("grid_radius", 0.0, r"grid_radius: must be positive, got 0.0"),
            ("grid_radius", math.inf, r"grid_radius: must be finite, got inf"),
            ("tick_seconds", math.inf, r"tick_seconds: must be finite, got inf"),
            ("targets", (), r"targets: must list at least one target"),
        ],
    )
    def test_scenario_fields(self, parsed, field, value, needle):
        with pytest.raises(ConfigError, match=needle):
            dataclasses.replace(parsed, **{field: value})

    def test_uav_fields(self, parsed):
        with pytest.raises(ConfigError, match=r"detect_prob: must be in \(0, 1\], got 1.5"):
            dataclasses.replace(parsed, uavs=(dataclasses.replace(parsed.uavs[0], detect_prob=1.5),))
        with pytest.raises(ConfigError, match=r"velocity_kmh: must be positive, got 0"):
            dataclasses.replace(parsed.uavs[0], velocity_kmh=0)

    @pytest.mark.parametrize("field", ["velocity_kmh", "detect_radius"])
    def test_infinite_uav_speed_or_radius(self, parsed, field):
        with pytest.raises(ConfigError, match=rf"{field}: must be finite, got inf"):
            dataclasses.replace(parsed.uavs[0], **{field: math.inf})

    def test_class_fields(self, parsed):
        cls = parsed.classes[0]
        with pytest.raises(ConfigError, match=r"velocity_kmh: need 0 < low <= high < inf, got \[12.0, 8.0\]"):
            dataclasses.replace(cls, velocity_kmh=(12.0, 8.0))
        with pytest.raises(ConfigError, match=r"strategies: must list at least one strategy"):
            dataclasses.replace(cls, strategies=())

    def test_class_holds_built_strategies(self):
        d = _base()
        d["classes"]["runner"]["strategies"] = [{"name": "random_walk", "beta": 1}, {"name": "shortest"}]
        assert scenario_from_dict(d).classes[0].strategies == (RandomWalkStrategy(beta=1.0), ShortestPathStrategy())


# Values at and around every bound a ranged field has: 0, 1, the 500 m detection
# radius of _base()'s UAV (the grid_radius limit), signed zeros, infinities, NaN.
_EDGE_FLOATS = [
    -1.0, -5e-324, -0.0, 0.0, 5e-324, 1e-12, 0.2, 1.0 - 2**-53, 1.0, 1.0 + 2**-52, 1.5,
    500.0, 500.0 + 1e-9, 500.0 + 2e-9, 501.0, math.inf, -math.inf, math.nan,
]
_floats = st.sampled_from(_EDGE_FLOATS) | st.floats(-2.0, 2.0)
_ints = st.integers(-2, 3)


def _set_uav(sc, **change):
    return dataclasses.replace(sc, uavs=(dataclasses.replace(sc.uavs[0], **change),))


def _set_class(sc, **change):
    return dataclasses.replace(sc, classes=(dataclasses.replace(sc.classes[0], **change),))


def _set_policy(sc, **change):
    return dataclasses.replace(sc, policy=dataclasses.replace(sc.policy, **change))


# Ranged field -> (values, write it into a scenario dict, set it on a parsed
# scenario by dataclasses.replace or a sweep axis).
_RANGED = {
    "uav velocity_kmh": (_floats, lambda d, v: d["uavs"][0].update(velocity_kmh=v),
                         lambda sc, v: _set_uav(sc, velocity_kmh=v)),
    "uav detect_radius": (_floats, lambda d, v: d["uavs"][0].update(detect_radius=v),
                          lambda sc, v: _set_uav(sc, detect_radius=v)),
    "uav detect_prob": (_floats, lambda d, v: d["uavs"][0].update(detect_prob=v),
                        lambda sc, v: apply_axis(sc, "detect_prob", v)),
    "class velocity_kmh": (st.tuples(_floats, _floats),
                           lambda d, v: d["classes"]["runner"].update(velocity_kmh=list(v)),
                           lambda sc, v: _set_class(sc, velocity_kmh=v)),
    "policy threshold": (_floats, lambda d, v: d.update(policy={"threshold": v}),
                         lambda sc, v: apply_axis(sc, "threshold", v)),
    "policy detect_prob": (_floats, lambda d, v: d.update(policy={"detect_prob": v}),
                           lambda sc, v: _set_policy(sc, detect_prob=v)),
    "delay_km": (_floats, lambda d, v: d.update(delay_km=v), lambda sc, v: apply_axis(sc, "delay_km", v)),
    "tick_seconds": (_floats, lambda d, v: d.update(tick_seconds=v),
                     lambda sc, v: dataclasses.replace(sc, tick_seconds=v)),
    "max_ticks": (_ints, lambda d, v: d.update(max_ticks=v), lambda sc, v: dataclasses.replace(sc, max_ticks=v)),
    "grid_radius": (_floats, lambda d, v: d.update(grid_radius=v),
                    lambda sc, v: dataclasses.replace(sc, grid_radius=v)),
    "n_targets": (_ints, lambda d, v: d.update(targets=[{"class": "runner"}] * v),
                  lambda sc, v: apply_axis(sc, "n_targets", v)),
}


def _outcome(build):
    """("ok", repr of the scenario) or ("error", message)."""
    try:
        return "ok", repr(build())
    except ValueError as exc:  # ConfigError, or PolicyConfig's own checks
        return "error", str(exc)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_file_and_replace_paths_agree_on_every_ranged_field(data):
    field = data.draw(st.sampled_from(sorted(_RANGED)), label="field")
    values, write, override = _RANGED[field]
    value = data.draw(values, label="value")
    d = _base()
    write(d, value)
    from_file = _outcome(lambda: scenario_from_dict(d))
    replaced = _outcome(lambda: override(scenario_from_dict(_base()), value))
    assert from_file[0] == replaced[0], (from_file, replaced)
    if from_file[0] == "ok":
        assert from_file[1] == replaced[1]
    else:  # the same rule fired: only the path in front of the field key differs
        head, rule = from_file[1].split(": ", 1)
        assert replaced[1].endswith(f"{head.rsplit('.', 1)[-1]}: {rule}"), (from_file, replaced)


def _write_sweep(tmp_path, sweep_dict, scenario_dict=None):
    (tmp_path / "sc.yaml").write_text(yaml.safe_dump(scenario_dict or _base()))
    p = tmp_path / "sweep.yaml"
    p.write_text(yaml.safe_dump(sweep_dict, sort_keys=False))
    return str(p)


class TestSweep:
    def test_points_expand_in_file_order(self, tmp_path):
        path = _write_sweep(
            tmp_path,
            {
                "base": "sc.yaml",
                "trials": 50,
                "seed": 3,
                "axes": {"n_uavs": [1, 2, 3], "delay_km": [0, 5]},
            },
        )
        spec = load_sweep(path)
        assert spec.trials == 50 and spec.seed == 3
        assert [name for name, _ in spec.axes] == ["n_uavs", "delay_km"]
        points = list(sweep_points(spec))
        assert [a for a, _ in points] == [
            (("n_uavs", 1), ("delay_km", 0.0)),
            (("n_uavs", 1), ("delay_km", 5.0)),
            (("n_uavs", 2), ("delay_km", 0.0)),
            (("n_uavs", 2), ("delay_km", 5.0)),
            (("n_uavs", 3), ("delay_km", 0.0)),
            (("n_uavs", 3), ("delay_km", 5.0)),
        ]
        for assignment, sc in points:
            assert len(sc.uavs) == assignment[0][1]
            assert sc.delay_km == assignment[1][1]

    def test_seed_default(self, tmp_path):
        path = _write_sweep(tmp_path, {"base": "sc.yaml", "trials": 5, "axes": {"delay_km": [0]}})
        assert load_sweep(path).seed == 0
        assert load_sweep(path, default_seed=9).seed == 9

    @pytest.mark.parametrize(
        "sweep,needle",
        [
            ({"trials": 5, "axes": {"delay_km": [0]}}, r"base: required"),
            ({"base": "sc.yaml", "axes": {"delay_km": [0]}}, r"trials: expected an integer"),
            ({"base": "sc.yaml", "trials": 0, "axes": {"delay_km": [0]}}, r"trials: must be >= 1"),
            ({"base": "sc.yaml", "trials": 5}, r"axes: must name at least one sweep axis"),
            ({"base": "sc.yaml", "trials": 5, "axes": {}}, r"axes: must name at least one sweep axis"),
            ({"base": "sc.yaml", "trials": 5, "axes": {"wind": [1]}}, r"axes.wind: unknown axis"),
            ({"base": "sc.yaml", "trials": 5, "axes": {"delay_km": 3}}, r"axes.delay_km: expected a list"),
            ({"base": "sc.yaml", "trials": 5, "axes": {"delay_km": []}}, r"axes.delay_km: must list at least one value"),
            ({"base": "sc.yaml", "trials": 5, "axes": {"n_uavs": [-1]}}, r"axes.n_uavs\[0\]: must be >= 0"),
            ({"base": "sc.yaml", "trials": 5, "axes": {"n_uavs": [1.5]}}, r"axes.n_uavs\[0\]: expected an integer"),
            ({"base": "sc.yaml", "trials": 5, "axes": {"delay_km": [0]}, "extra": 1}, r"sweep: unknown key 'extra'"),
        ],
    )
    def test_rejects_bad_sweeps(self, tmp_path, sweep, needle):
        path = _write_sweep(tmp_path, sweep)
        with pytest.raises(ConfigError, match=needle) as err:
            load_sweep(path)
        assert str(err.value).startswith(f"{path}: ")

    def test_bundled_sweep(self):
        repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        spec = load_sweep(os.path.join(repo, "scenarios", "border_sweep.yaml"))
        assert spec.trials == 50 and spec.seed == 1
        assert spec.axes == (("n_uavs", (2, 3, 4)),)
        assert len(list(sweep_points(spec))) == 3
