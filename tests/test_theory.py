import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nnc.estimators import OutcomeTable
from nnc.graphs import Graph, ZeroTruncatedPoisson, build_graph_configuration, sample_degree_sequence
from nnc.noise import NoiseParams
from nnc.seeding import make_rng
from nnc.theory import condition_diagnostics, naive_estimator_bias

from dense_oracle import dense_adjacency, random_graph

DILATED = (10.0, 7.0, 5.0, 1.0)


# -- bias predictions ---------------------------------------------------------


def test_bias_prediction_vanishes_without_noise():
    tab = OutcomeTable.constant(50, DILATED)
    pred = naive_estimator_bias([5] * 50, tab, NoiseParams(0.0, 0.0), 0.1)
    assert pred.values == pytest.approx(np.zeros(4), abs=1e-15)


def test_bias_prediction_frozen_missed_edge_case():
    # all degrees 5, beta=0.1, p=0.1: c10 bias = tau * (1 - 0.99**5)
    tab = OutcomeTable.constant(20, DILATED)
    pred = naive_estimator_bias([5] * 20, tab, NoiseParams(0.0, 0.1), 0.1)
    assert pred.values[1] == pytest.approx(3.0 * (1.0 - 0.99**5), abs=1e-12)
    assert pred.values[1] == pytest.approx(0.1470298503, abs=1e-9)
    assert pred.values[3] == pytest.approx(4.0 * (1.0 - 0.99**5), abs=1e-12)


def test_bias_prediction_missed_edge_levels_depend_only_on_beta():
    tab = OutcomeTable.constant(10, DILATED)
    for alpha in (0.0, 0.01, 0.2):
        pred = naive_estimator_bias([3] * 10, tab, NoiseParams(alpha, 0.0), 0.1)
        assert pred.values[1] == 0.0
        assert pred.values[3] == 0.0


def test_bias_prediction_signs_and_exact_flags():
    rng = make_rng(51)
    degrees = rng.integers(1, 15, size=40)
    tab = OutcomeTable.constant(40, DILATED)
    pred = naive_estimator_bias(degrees, tab, NoiseParams(0.005, 0.1), 0.1)
    assert pred.values[0] < 0 and pred.values[2] < 0
    assert pred.values[1] > 0 and pred.values[3] > 0
    assert pred.exact == (False, True, False, True)
    assert pred.per_node.shape == (40, 4)
    assert pred.per_node.mean(axis=0) == pytest.approx(pred.values, abs=1e-15)


def test_bias_prediction_validation():
    tab = OutcomeTable.constant(3, DILATED)
    with pytest.raises(ValueError):
        naive_estimator_bias([], OutcomeTable.constant(0, DILATED), NoiseParams(0.0, 0.1), 0.1)
    with pytest.raises(ValueError):
        naive_estimator_bias([1, 2], tab, NoiseParams(0.0, 0.1), 0.1)
    # a degree outside [0, n_v - 1] has no vertex behind it; the false-edge
    # factor (1 - alpha p)^(n_v - 1 - d) would take a negative exponent
    six = OutcomeTable.constant(6, DILATED)
    with pytest.raises(ValueError):
        naive_estimator_bias([1, 2, 3, 5, 8, 13], six, NoiseParams(0.005, 0.1), 0.1, n_v=3)
    with pytest.raises(ValueError):
        naive_estimator_bias([1, -2, 1], tab, NoiseParams(0.005, 0.1), 0.1)


# -- condition diagnostics ----------------------------------------------------


def test_condition_diagnostics_empty_graph():
    g = Graph(10)
    p = 0.1
    diag = condition_diagnostics(g, p)
    assert diag.inverse_prob_sums["c00"] == pytest.approx(1.0 / ((1 - p) * 10), rel=1e-12)
    assert diag.inverse_prob_sums["c10"] == pytest.approx(1.0 / (p * 10), rel=1e-12)
    assert diag.inverse_prob_sums["c11"] == 0.0
    assert diag.zero_degree_nodes == 10
    assert diag.dependency_fraction == 0.0


def test_condition_diagnostics_complete_graph():
    n = 12
    g = Graph(n, *np.triu_indices(n, 1))
    diag = condition_diagnostics(g, 0.2)
    assert diag.dependency_fraction == pytest.approx(n * (n - 1) / n**2)
    assert diag.zero_degree_nodes == 0


def dense_dependency_fraction(g):
    # integer recount of the dependency proxy (shared edge or common
    # neighbor) over the dense adjacency
    adj = dense_adjacency(g)
    common = adj.astype(np.int64) @ adj.astype(np.int64)
    dep = (common >= 1) | adj
    np.fill_diagonal(dep, False)
    return float(dep.sum()) / g.n_v**2


def assert_sparse_queries_equal_dense(g):
    assert condition_diagnostics(g, 0.1).dependency_fraction == dense_dependency_fraction(g)


SMALL_GRAPHS = {
    "single_vertex": Graph(1),
    "empty": Graph(6),
    "one_edge": Graph(2, [0], [1]),
    "complete": Graph(9, *np.triu_indices(9, 1)),
    "star": Graph(8, [0] * 7, range(1, 8)),
    "star_centre_last": Graph(8, range(7), [7] * 7),
    "triangle_and_isolated": Graph(7, [1, 1, 3], [3, 5, 5]),
    "path_and_isolated": Graph(9, [0, 2, 3, 4], [2, 3, 4, 8]),
    "two_components": Graph(8, [0, 0, 1, 4, 5, 6], [1, 2, 2, 5, 6, 7]),
    "random_sparse": random_graph(30, 0.08, seed=1),
    "random_dense": random_graph(25, 0.6, seed=2),
}


@pytest.mark.parametrize("name", sorted(SMALL_GRAPHS))
def test_sparse_queries_equal_dense_recount(name):
    assert_sparse_queries_equal_dense(SMALL_GRAPHS[name])


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 14),
    density=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_sparse_queries_equal_dense_recount_random(n, density, seed):
    assert_sparse_queries_equal_dense(random_graph(n, density, seed))


def test_condition_diagnostics_sparse_graph_has_low_dependency():
    rng = make_rng(53)
    degrees = sample_degree_sequence(ZeroTruncatedPoisson(10.0), 1000, rng)
    g = build_graph_configuration(degrees, rng)
    diag = condition_diagnostics(g, 0.1)
    # at mean degree 10 on 1000 nodes the dependency proxy sits near 0.10,
    # far below the dependent-everywhere value of 1
    assert diag.dependency_fraction == dense_dependency_fraction(g)
    assert diag.dependency_fraction < 0.12


def test_sparse_queries_scale_to_100k_vertices():
    # the dense adjacency alone would take n^2 = 1e10 bytes here
    n = 100_000
    rng = make_rng(54)
    degrees = sample_degree_sequence(ZeroTruncatedPoisson(10.0), n, rng)
    g = build_graph_configuration(degrees, rng)
    d = g.degrees.astype(np.float64)
    tracemalloc.start()
    try:
        diag = condition_diagnostics(g, 0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**30, peak
    # vertex i depends on its d_i neighbors and on at most sum(d_k - 1) over
    # its neighbors k at distance two, so sum(d) <= count <= sum(d^2)
    count = diag.dependency_fraction * n**2
    assert d.sum() <= count <= (d**2).sum()
    assert diag.zero_degree_nodes == int(np.count_nonzero(g.degrees == 0))
