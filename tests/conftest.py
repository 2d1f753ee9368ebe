import pytest

from girthlab.geometry import gq_w3, incidence_graph, pg2_incidence
from girthlab.graph import Graph


@pytest.fixture(scope="session")
def heawood():
    return incidence_graph(pg2_incidence(2))


@pytest.fixture(scope="session")
def tutte_coxeter():
    return incidence_graph(gq_w3(2))


@pytest.fixture(scope="session")
def grotzsch():
    """Clique number 2 and chromatic number 4: the chromatic search has to
    branch. Vertex 5 + i copies the neighbours of cycle vertex i, and 10
    sees every copy."""
    c5 = [(i, (i + 1) % 5) for i in range(5)]
    copies = [(5 + u, v) for u, v in c5] + [(5 + v, u) for u, v in c5]
    return Graph(11, c5 + copies + [(5 + i, 10) for i in range(5)])
