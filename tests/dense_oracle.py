"""Per-vertex-pair views of small graphs, for tests.

``Graph`` stores only its sorted edge arrays; tests that want an
independent n x n view of a small graph, or a graph drawn pair by pair,
build it here.
"""
import numpy as np

from nnc.graphs import Graph
from nnc.seeding import make_rng


def dense_adjacency(g: Graph) -> np.ndarray:
    a = np.zeros((g.n_v, g.n_v), dtype=bool)
    a[g.edge_i, g.edge_j] = True
    a[g.edge_j, g.edge_i] = True
    return a


def random_graph(n: int, density: float, seed: int) -> Graph:
    """Erdos-Renyi graph: each of the n(n-1)/2 pairs is an edge with ``density``."""
    rng = make_rng(seed)
    iu_i, iu_j = np.triu_indices(n, 1)
    keep = rng.random(iu_i.size) < density
    return Graph(n, iu_i[keep], iu_j[keep])
