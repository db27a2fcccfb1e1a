"""Shared fixtures: the bundled border fixture and two hand-sized graphs."""

import os

import pytest

from uav_search.config import load_scenario
from uav_search.movement import load_model
from uav_search.road_graph import RoadGraph, load_graph, overlay_grid

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
