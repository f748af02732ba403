import numpy as np
import pytest

from nnc.graphs import Graph, ZeroTruncatedPoisson, build_graph_configuration, sample_degree_sequence
from nnc.noise import (
    NoiseParams,
    _decode_pair_rank,
    _draw_uniform_nonedges,
    _in_sorted,
    perturb,
    replicate,
)
from nnc.noise_fit import moment_stats
from nnc.seeding import make_rng


@pytest.fixture(scope="module")
def base_graph():
    rng = make_rng(101)
    degrees = sample_degree_sequence(ZeroTruncatedPoisson(8.0), 200, rng)
    return build_graph_configuration(degrees, rng)


def test_noise_params_validation():
    NoiseParams(0.0, 1.0)  # boundary rates stay expressible
    assert not NoiseParams(0.6, 0.6).identifiable
    assert NoiseParams(0.05, 0.2).identifiable
    with pytest.raises(ValueError):
        NoiseParams(-0.01, 0.1)
    with pytest.raises(ValueError):
        NoiseParams(0.1, 1.01)


@pytest.mark.parametrize("method", ["dense", "sparse"])
def test_noiseless_perturb_is_identity(base_graph, method):
    out = perturb(base_graph, NoiseParams(0.0, 0.0), make_rng(1), method=method)
    assert out == base_graph


@pytest.mark.parametrize("method", ["dense", "sparse"])
def test_full_miss_rate_gives_empty_graph(base_graph, method):
    out = perturb(base_graph, NoiseParams(0.0, 1.0), make_rng(1), method=method)
    assert out.n_edges == 0 and out.n_v == base_graph.n_v


@pytest.mark.parametrize("method", ["dense", "sparse"])
def test_full_false_rate_gives_complete_graph(method):
    g = Graph(30, [0, 1], [1, 2])
    out = perturb(g, NoiseParams(1.0, 0.0), make_rng(1), method=method)
    assert out.n_edges == 30 * 29 // 2


def test_perturb_preserves_simplicity_and_symmetry(base_graph):
    out = perturb(base_graph, NoiseParams(0.02, 0.2), make_rng(9))
    a = out.adjacency
    assert np.array_equal(a, a.T)
    assert not a.diagonal().any()


def test_perturb_is_reproducible_per_seed(base_graph):
    noise = NoiseParams(0.01, 0.1)
    a = perturb(base_graph, noise, make_rng(42))
    b = perturb(base_graph, noise, make_rng(42))
    c = perturb(base_graph, noise, make_rng(43))
    assert a == b
    assert a != c


def test_replicate_noiseless_returns_copies(base_graph):
    reps = replicate(base_graph, NoiseParams(0.0, 0.0), 3, make_rng(2))
    assert len(reps) == 3
    assert all(r == base_graph for r in reps)
    with pytest.raises(ValueError):
        replicate(base_graph, NoiseParams(0.0, 0.0), 0, make_rng(2))


@pytest.mark.parametrize("method", ["dense", "sparse"])
def test_observed_density_matches_mixture_formula(base_graph, method):
    # oracle: expected observed density (1-delta)*alpha + delta*(1-beta)
    alpha, beta = 0.01, 0.1
    delta = base_graph.density
    rng = make_rng(77)
    reps = 300
    dens = np.array([
        perturb(base_graph, NoiseParams(alpha, beta), rng, method=method).density
        for _ in range(reps)
    ])
    target = (1 - delta) * alpha + delta * (1 - beta)
    se = dens.std(ddof=1) / np.sqrt(reps)
    assert abs(dens.mean() - target) < 3 * se


def test_pairwise_difference_density_matches_mixture_formula(base_graph):
    # oracle: (1-delta)*alpha*(1-alpha) + delta*beta*(1-beta), the per-ordered-pair
    # disagreement rate between two independent observations
    alpha, beta = 0.01, 0.1
    n = base_graph.n_v
    delta = base_graph.density
    rng = make_rng(78)
    reps = 300
    vals = np.empty(reps)
    for r in range(reps):
        g1 = perturb(base_graph, NoiseParams(alpha, beta), rng)
        g2 = perturb(base_graph, NoiseParams(alpha, beta), rng)
        vals[r] = np.setxor1d(g1.codes, g2.codes, assume_unique=True).size / (n * (n - 1))
    target = (1 - delta) * alpha * (1 - alpha) + delta * beta * (1 - beta)
    se = vals.std(ddof=1) / np.sqrt(reps)
    assert abs(vals.mean() - target) < 3 * se


def test_observed_degree_mean_matches_binomial_mixture(base_graph):
    # oracle: E[observed degree] = (n-1-d)*alpha + d*(1-beta)
    alpha, beta = 0.01, 0.1
    n = base_graph.n_v
    rng = make_rng(79)
    reps = 10_000
    nodes = [0, int(np.argmax(base_graph.degrees))]
    obs = np.empty((reps, len(nodes)))
    for r in range(reps):
        g = perturb(base_graph, NoiseParams(alpha, beta), rng)
        obs[r] = g.degrees[nodes]
    for c, i in enumerate(nodes):
        d = base_graph.degrees[i]
        target = (n - 1 - d) * alpha + d * (1 - beta)
        se = obs[:, c].std(ddof=1) / np.sqrt(reps)
        assert abs(obs[:, c].mean() - target) < 3 * se


def test_replicates_are_exchangeable_for_symmetric_statistics(base_graph):
    reps = replicate(base_graph, NoiseParams(0.02, 0.15), 3, make_rng(5))
    u3_orders = {
        moment_stats(*[reps[i] for i in order]).u3
        for order in [(0, 1, 2), (2, 0, 1), (1, 2, 0)]
    }
    assert len(u3_orders) == 1


def test_dense_and_sparse_paths_share_the_law():
    # same graph and rates: both paths must hit the same expected edge count
    g = Graph(80, [2 * i for i in range(30)], [2 * i + 1 for i in range(30)])
    noise = NoiseParams(0.05, 0.3)
    rng_d, rng_s = make_rng(6), make_rng(7)
    n_pairs = 80 * 79 / 2
    target = (n_pairs - 30) * 0.05 + 30 * 0.7
    counts_d = np.array([perturb(g, noise, rng_d, method="dense").n_edges for _ in range(400)])
    counts_s = np.array([perturb(g, noise, rng_s, method="sparse").n_edges for _ in range(400)])
    for counts in (counts_d, counts_s):
        se = counts.std(ddof=1) / 20.0
        assert abs(counts.mean() - target) < 3.5 * se


def _reference_uniform_nonedges(n, edge_codes, k, rng):
    # the same rejection loop deduping each batch with np.unique
    if k == 0:
        return np.empty(0, dtype=np.int64)
    total = n * (n - 1) // 2
    row_cum = np.cumsum(np.arange(n - 1, 0, -1, dtype=np.int64))
    chosen = np.empty(0, dtype=np.int64)
    while chosen.size < k:
        r = rng.integers(0, total, size=k - chosen.size)
        cand = np.unique(_decode_pair_rank(r, n, row_cum))
        cand = cand[~_in_sorted(cand, edge_codes)]
        if chosen.size:
            cand = cand[~_in_sorted(cand, chosen)]
        chosen = np.sort(np.concatenate([chosen, cand]))
    return chosen


def test_sparse_nonedge_draw_matches_np_unique_reference(base_graph):
    # k near the non-edge count forces many rejection rounds with repeats
    cases = [(base_graph, k) for k in (0, 1, 50, 2_000)]
    small = Graph(25, [0, 1, 2], [1, 2, 3])
    cases += [(small, 100), (small, 297)]
    for seed in range(10):
        for g, k in cases:
            rng_a, rng_b = make_rng(seed), make_rng(seed)
            got = _draw_uniform_nonedges(g.n_v, g.codes, k, rng_a)
            want = _reference_uniform_nonedges(g.n_v, g.codes, k, rng_b)
            assert got.dtype == np.int64 and np.array_equal(got, want)
            assert rng_a.integers(0, 2**62) == rng_b.integers(0, 2**62)
    # and through perturb's sparse path, which draws kept edges, the false
    # edge count, then the false edges
    n, m = base_graph.n_v, base_graph.n_edges
    got = perturb(base_graph, NoiseParams(0.01, 0.1), make_rng(3), method="sparse")
    rng = make_rng(3)
    kept = base_graph.codes[rng.random(m) < 1.0 - 0.1]
    n_false = int(rng.binomial(n * (n - 1) // 2 - m, 0.01))
    false = _reference_uniform_nonedges(n, base_graph.codes, n_false, rng)
    assert np.array_equal(got.codes, np.sort(np.concatenate([kept, false])))
