"""Shared fixtures for the test-suite.

A single very small scenario is prepared once per session and reused by the
graph / model / serving / experiment tests so the suite stays fast while still
exercising the full data → graph → model pipeline.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.data.synthetic import SyntheticConfig
from repro.pipeline import Scenario, prepare_scenario
from repro.serving.snapshot import pinned_versions


TINY_CONFIG = SyntheticConfig(
    name="tiny-test",
    num_queries=80,
    num_services=30,
    num_interactions=2_000,
    total_page_views=20_000,
    num_days=10,
    num_intention_trees=3,
    intention_depth=4,
    intention_branching=2,
    head_fraction=0.05,
    seed=7,
)


@pytest.fixture(scope="session")
def tiny_scenario() -> Scenario:
    """A fully prepared small scenario shared across the session."""
    return prepare_scenario(TINY_CONFIG)


@pytest.fixture(scope="session")
def tiny_dataset(tiny_scenario):
    return tiny_scenario.dataset


@pytest.fixture(scope="session")
def tiny_graph(tiny_scenario):
    return tiny_scenario.graph


@pytest.fixture(scope="session")
def tiny_forest(tiny_scenario):
    return tiny_scenario.forest


@pytest.fixture()
def rng() -> np.random.Generator:
    """Fresh deterministic generator per test."""
    return np.random.default_rng(1234)


@pytest.fixture()
def no_leaked_threads_or_pins(tmp_path):
    """The test stops what it started: no thread it started outlives it, and
    no snapshot version stays pinned under its directories.  A replication
    module applies it to every test with ``pytest.mark.usefixtures``."""
    threads = set(threading.enumerate())
    yield
    assert [t for t in threading.enumerate() if t not in threads] == []
    for path in [tmp_path, *tmp_path.rglob("*")]:
        if path.is_dir():
            assert pinned_versions(path) == set(), f"{path} still pinned"
