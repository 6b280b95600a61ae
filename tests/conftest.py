"""Shared fixtures: small graphs, scenarios and IoT networks."""

from __future__ import annotations

import os

import pytest

from repro.core.task import Task
from repro.socialnet.graph import SocialGraph


@pytest.fixture(autouse=True)
def _isolated_sweep_cache(tmp_path, monkeypatch):
    """Point the persistent sweep cache at a per-test directory.

    ``repro sweep`` caches by default; without this, CLI tests would
    write into (and worse, replay from) the developer's real cache,
    making second runs of the suite behave differently from the first.
    """
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "sweep-cache"))


@pytest.fixture
def network_builds(tmp_path, monkeypatch):
    """The pid of every calibrated-network build, from whichever process
    (forked workers inherit the patch), starting and ending with an
    empty arena store.  Returns a callable that reads the pids so far.
    """
    from repro.simulation import registry
    from repro.socialnet import datasets

    log = tmp_path / "network-builds.log"
    original = datasets.load_network

    def spy_load(name, seed=0):
        with open(log, "a") as out:
            out.write(f"{os.getpid()}\n")
        return original(name, seed=seed)

    def pids():
        return [int(pid) for pid in log.read_text().split()] if (
            log.exists()
        ) else []

    monkeypatch.setattr(datasets, "load_network", spy_load)
    registry.clear_arenas()
    yield pids
    registry.clear_arenas()


@pytest.fixture
def triangle() -> SocialGraph:
    """Three mutually connected nodes."""
    return SocialGraph.from_edges([(0, 1), (1, 2), (0, 2)], name="triangle")


@pytest.fixture
def path_graph() -> SocialGraph:
    """A 5-node path 0-1-2-3-4."""
    return SocialGraph.from_edges(
        [(0, 1), (1, 2), (2, 3), (3, 4)], name="path"
    )


@pytest.fixture
def star_graph() -> SocialGraph:
    """Hub 0 connected to leaves 1..5."""
    return SocialGraph.from_edges(
        [(0, leaf) for leaf in range(1, 6)], name="star"
    )


@pytest.fixture
def two_cliques() -> SocialGraph:
    """Two 4-cliques joined by a single bridge edge (3-4)."""
    edges = []
    for group in ((0, 1, 2, 3), (4, 5, 6, 7)):
        for i, u in enumerate(group):
            for v in group[i + 1:]:
                edges.append((u, v))
    edges.append((3, 4))
    return SocialGraph.from_edges(edges, name="two-cliques")


@pytest.fixture
def gps_task() -> Task:
    return Task("gps-task", characteristics=("gps",))


@pytest.fixture
def image_task() -> Task:
    return Task("image-task", characteristics=("image",))


@pytest.fixture
def traffic_task() -> Task:
    """Two-characteristic task used by the inference examples."""
    return Task("traffic", characteristics=("gps", "image"))
