"""Shared fixtures: the bundled border fixture, a small second scenario and
two hand-sized graphs."""

import os

import pytest

from uav_search.config import load_scenario, scenario_from_dict
from uav_search.movement import compile_model, load_model, save_model, traces_for_strategies
from uav_search.road_graph import RoadGraph, load_graph, overlay_grid
from uav_search.strategies import make_strategy

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="session")
def border_graph_path() -> str:
    return os.path.join(REPO_ROOT, "maps", "border.graph")


@pytest.fixture(scope="session")
def border_graph(border_graph_path):
    return load_graph(border_graph_path)


@pytest.fixture(scope="session")
def border_refined(border_graph):
    """(refined RoadGraph, GridOverlay) at the bundled 500 m detection radius."""
    return overlay_grid(border_graph, 500.0)


@pytest.fixture(scope="session")
def border_model_path():
    return os.path.join(REPO_ROOT, "models", "border_shortest.model")


@pytest.fixture(scope="session")
def border_model(border_model_path):
    return load_model(border_model_path)


@pytest.fixture(scope="session")
def border_scenario():
    return load_scenario(os.path.join(REPO_ROOT, "scenarios", "border.yaml"))


@pytest.fixture(scope="session")
def tiny_scenario(tmp_path_factory):
    """Two targets against one UAV on a six-vertex map with two entries, with
    a model compiled for it: a scenario whose world shares nothing with the
    border one."""
    root = tmp_path_factory.mktemp("tiny")
    (root / "tiny.graph").write_text(
        "#vertices\n0 0 0\n1 400 0\n2 800 0\n3 1200 0\n4 0 400\n5 400 400\n"
        "#edges\n0 0 1\n1 1 2\n2 2 3\n3 4 5\n4 5 2\n#entries\n0\n3\n#goals\n0 2\n"
    )
    refined, _ = overlay_grid(load_graph(str(root / "tiny.graph")), 500.0)
    traces = traces_for_strategies(refined, [make_strategy("shortest")], 20.0, (8.0, 12.0), 2, 5)
    save_model(compile_model(traces, refined, 0.01, 20.0, "walker"), str(root / "tiny.model"))
    return scenario_from_dict({
        "graph": "tiny.graph",
        "uavs": [{"depot": [700.0, 100.0], "velocity_kmh": 40.0, "detect_radius": 500.0, "detect_prob": 0.9}],
        "classes": {"walker": {"velocity_kmh": [8.0, 12.0], "strategies": [{"name": "shortest"}],
                               "model": "tiny.model"}},
        "targets": [{"class": "walker"}, {"class": "walker"}],
        "policy": {"name": "general", "threshold": 0.2},
        "tick_seconds": 20.0,
        "max_ticks": 60,
    }, base_dir=str(root))


@pytest.fixture(scope="session")
def dead_entry_scenario(tmp_path_factory):
    """A scenario builder over `dead.graph`, a five-vertex map whose entry
    edge 2 leads nowhere while entry edge 0 leads to goal edge 1, with a
    model compiled for it (the dead pair is skipped): given the targets, the
    dict a scenario file holds, with absolute paths."""
    root = tmp_path_factory.mktemp("dead")
    (root / "dead.graph").write_text(
        "#vertices\n0 0 0\n1 400 0\n2 800 0\n3 0 400\n4 400 400\n"
        "#edges\n0 0 1\n1 1 2\n2 3 4\n#entries\n0\n2\n#goals\n0 1\n"
    )
    refined, _ = overlay_grid(load_graph(str(root / "dead.graph")), 500.0)
    traces = traces_for_strategies(refined, [make_strategy("shortest")], 20.0, (8.0, 12.0), 1, 0)
    save_model(compile_model(traces, refined, 0.01, 20.0, "runner"), str(root / "dead.model"))

    def scenario(targets: list[dict]) -> dict:
        return {
            "graph": str(root / "dead.graph"),
            "uavs": [{"depot": [400.0, 200.0], "velocity_kmh": 30.0, "detect_radius": 500.0, "detect_prob": 0.8}],
            "classes": {"runner": {"velocity_kmh": [8.0, 12.0], "strategies": [{"name": "shortest"}],
                                   "model": str(root / "dead.model")}},
            "targets": targets,
            "tick_seconds": 20.0,
        }
    return scenario


@pytest.fixture
def line_graph() -> RoadGraph:
    """100 m entry edge feeding a 50 m goal edge along one straight road."""
    return RoadGraph([(0.0, 0.0), (100.0, 0.0), (150.0, 0.0)], [0, 1], [1, 2], frozenset({0}), (frozenset({1}),))


@pytest.fixture
def fork_graph() -> RoadGraph:
    """Entry stub into a junction with two equal-length routes to two goals."""
    xy = [(0.0, 0.0), (100.0, 0.0), (200.0, 0.0), (100.0, 100.0), (250.0, 0.0), (100.0, 150.0)]
    tail = [0, 1, 1, 2, 3]
    head = [1, 2, 3, 4, 5]
    return RoadGraph(xy, tail, head, frozenset({0}), (frozenset({3}), frozenset({4})))
