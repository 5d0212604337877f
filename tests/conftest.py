import itertools
import random

import numpy as np
import pytest

from entroll.graphstate import Graph

# numpy 1.24 has it at the top level; numpy 2 only in numpy.exceptions.
ComplexWarning = getattr(np, "exceptions", np).ComplexWarning


def pytest_configure(config: pytest.Config) -> None:
    # A complex value cast to real loses its imaginary part with only a
    # warning; in these tests that is an error.
    config.addinivalue_line(
        "filterwarnings", f"error::{ComplexWarning.__module__}.{ComplexWarning.__name__}"
    )


def random_graph(n: int, rng: random.Random, density: float = 0.5) -> Graph:
    g = Graph.empty(n)
    for u, w in itertools.combinations(range(n), 2):
        if rng.random() < density:
            g.add_edge(u, w)
    return g


def assert_adjacency_invariants(g: Graph) -> None:
    for v in g.vertices():
        assert not g.has_edge(v, v)
        for u in g.neighbors(v):
            assert g.has_edge(u, v)
            assert g.is_live(u)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240817)
