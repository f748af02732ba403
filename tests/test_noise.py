import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

from nnc.graphs import Graph, ZeroTruncatedPoisson, build_graph_configuration, sample_degree_sequence
from nnc.noise import (
    NoiseParams,
    _MAX_VERTICES,
    _batch_ranks,
    _count_at_most,
    _draw_observations,
    _nonedges_before,
    _pair_count,
    _pair_of_rank,
    _pairs_before_row,
    _rank_index,
    perturb,
    replicate,
)
from nnc.noise_fit import moment_stats
from nnc.seeding import make_rng

from dense_oracle import dense_adjacency, random_graph


@pytest.fixture(scope="module")
def base_graph():
    rng = make_rng(101)
    degrees = sample_degree_sequence(ZeroTruncatedPoisson(8.0), 200, rng)
    return build_graph_configuration(degrees, rng)


@pytest.fixture(scope="module")
def dense_graph():
    return random_graph(40, 0.3, seed=102)


@pytest.fixture(params=["dense", "sparse"])
def true_graph(request, base_graph, dense_graph):
    # "dense" is a graph whose density plus a moderate false-edge rate
    # exceeds 0.25, the regime that once had a sampler of its own
    return dense_graph if request.param == "dense" else base_graph


def test_noise_params_validation():
    NoiseParams(0.0, 1.0)  # boundary rates stay expressible
    assert not NoiseParams(0.6, 0.6).identifiable
    assert NoiseParams(0.05, 0.2).identifiable
    with pytest.raises(ValueError):
        NoiseParams(-0.01, 0.1)
    with pytest.raises(ValueError):
        NoiseParams(0.1, 1.01)


def test_noiseless_perturb_is_identity(true_graph):
    out = perturb(true_graph, NoiseParams(0.0, 0.0), make_rng(1))
    assert out == true_graph


def test_full_miss_rate_gives_empty_graph(true_graph):
    out = perturb(true_graph, NoiseParams(0.0, 1.0), make_rng(1))
    assert out.n_edges == 0 and out.n_v == true_graph.n_v


def test_full_false_rate_gives_complete_graph(true_graph):
    n = true_graph.n_v
    out = perturb(true_graph, NoiseParams(1.0, 0.0), make_rng(1))
    assert out.n_edges == n * (n - 1) // 2


def test_perturb_preserves_simplicity_and_symmetry(base_graph):
    # each unordered pair appears once, as i < j: no self-loops, no
    # duplicates, no reversed copies
    out = perturb(base_graph, NoiseParams(0.02, 0.2), make_rng(9))
    assert out.n_edges > 0
    assert np.all(np.diff(out.codes) > 0)
    assert np.all(out.edge_i < out.edge_j)


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


def test_observed_density_matches_mixture_formula(true_graph):
    # oracle: expected observed density (1-delta)*alpha + delta*(1-beta)
    alpha, beta = 0.02, 0.1
    delta = true_graph.density
    rng = make_rng(77)
    reps = 300
    dens = np.array([
        perturb(true_graph, NoiseParams(alpha, beta), rng).density for _ in range(reps)
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


def test_replicate_equals_successive_perturbs(base_graph):
    # sharing one non-edge table across draws changes neither the draws nor
    # the stream
    noise = NoiseParams(0.01, 0.1)
    rng_a, rng_b = make_rng(8), make_rng(8)
    reps = replicate(base_graph, noise, 4, rng_a)
    assert reps == [perturb(base_graph, noise, rng_b) for _ in range(4)]
    assert rng_a.integers(0, 2**62) == rng_b.integers(0, 2**62)


def _inclusion_matrix(g, noise, draws, seed):
    """Rows: draws; columns: vertex pairs in canonical order; True if observed."""
    n = g.n_v
    iu_i, iu_j = np.triu_indices(n, 1)
    x = np.zeros((draws, n * n), dtype=bool)
    for k, obs in enumerate(replicate(g, noise, draws, make_rng(seed))):
        x[k, obs.codes] = True
    return x[:, iu_i * n + iu_j]


@pytest.mark.parametrize(
    "n, density, alpha, beta",
    [
        (7, 0.3, 0.1, 0.3),
        (10, 0.4, 0.3, 0.2),  # density + alpha >= 0.25
        (12, 0.1, 0.02, 0.5),  # about one false edge per draw
        (30, 0.05, 0.5, 0.1),
    ],
)
def test_pair_inclusion_frequencies_follow_the_law(n, density, alpha, beta):
    # every pair is an independent Bernoulli: 1 - beta on true edges,
    # alpha on non-edges
    g = random_graph(n, density, seed=n)
    draws = 3000
    x = _inclusion_matrix(g, NoiseParams(alpha, beta), draws, seed=1000 + n)
    iu_i, iu_j = np.triu_indices(n, 1)
    q = np.where(dense_adjacency(g)[iu_i, iu_j], 1.0 - beta, alpha)
    counts = x.sum(axis=0)
    chi2 = float(np.sum((counts - draws * q) ** 2 / (draws * q * (1.0 - q))))
    assert stats.chi2.sf(chi2, df=q.size) > 1e-3

    # per-vertex observed degree: mean d*(1-beta) + (n-1-d)*alpha, with the
    # exact variance of the two binomials
    deg_true = g.degrees.astype(float)
    deg_obs = np.zeros((draws, n))
    np.add.at(deg_obs.T, iu_i, x.T)
    np.add.at(deg_obs.T, iu_j, x.T)
    mean = deg_true * (1 - beta) + (n - 1 - deg_true) * alpha
    var = deg_true * beta * (1 - beta) + (n - 1 - deg_true) * alpha * (1 - alpha)
    z = (deg_obs.mean(axis=0) - mean) / np.sqrt(var / draws)
    assert np.max(np.abs(z)) < 4.0

    # pairwise independence: sqrt(draws) * corr is about N(0, 1) for every
    # two pairs, neighbours in pair order included
    corr = np.corrcoef(x, rowvar=False)
    off = corr[np.triu_indices(q.size, 1)]
    assert np.max(np.abs(off)) * np.sqrt(draws) < 5.0
    assert stats.chi2.sf(draws * float(np.sum(off**2)), df=off.size) > 1e-3
    # and the edge count's variance is the sum of the pairs' variances (a
    # fixed false-edge count would make it smaller)
    var_ratio = x.sum(axis=1).var(ddof=1) / float(np.sum(q * (1.0 - q)))
    assert abs(var_ratio - 1.0) < 0.15


def _deterministic_cases():
    for n in (0, 1, 2, 7):
        iu_i, iu_j = np.triu_indices(n, 1)
        graphs = [Graph(n), Graph(n, iu_i, iu_j)]
        if n == 7:
            graphs.append(random_graph(7, 0.4, seed=3))
        yield from graphs


@pytest.mark.parametrize("alpha", [0.0, 1.0])
@pytest.mark.parametrize("beta", [0.0, 1.0])
def test_boundary_rates_are_deterministic(alpha, beta):
    # n in {0, 1, 2, 7}, empty and complete true graphs: with rates in
    # {0, 1} the observation keeps every true edge iff beta = 0 and adds
    # every non-edge iff alpha = 1
    for g in _deterministic_cases():
        n = g.n_v
        out = perturb(g, NoiseParams(alpha, beta), make_rng(4))
        iu_i, iu_j = np.triu_indices(n, 1)
        true = dense_adjacency(g)[iu_i, iu_j]
        want = (true & (beta == 0.0)) | (~true & (alpha == 1.0))
        assert out.n_v == n and out.labels == g.labels
        assert np.array_equal(out.codes, (iu_i * n + iu_j)[want])


def test_success_ranks_continue_across_batches():
    class FixedGaps:
        def __init__(self, gap):
            self.gap = gap

        def random(self, out):
            return out

        def geometric(self, p, size):
            return np.full(size, self.gap, dtype=np.int64)

    def success_ranks(n_trials, p, rng):
        # the non-edges that one observation of an edgeless graph turns on
        gaps = []
        noise = NoiseParams(p, 0.0)
        _draw_observations(rng, 1, noise, n_trials, np.empty(0), np.empty((1, 0), bool), gaps)
        return _batch_ranks(gaps, np.array([n_trials]))[0]

    # unit gaps with a small p need many batches of about mean + 4 sd
    assert np.array_equal(success_ranks(1000, 0.01, FixedGaps(1)), np.arange(1000))
    assert np.array_equal(success_ranks(1000, 0.01, FixedGaps(3)), np.arange(2, 1000, 3))
    assert success_ranks(0, 0.5, FixedGaps(1)).size == 0
    assert success_ranks(10, 0.0, FixedGaps(1)).size == 0
    # Geometric(1e-300) returns int64's maximum; the running sum must not
    # wrap (1e15 trials: the pairs of 4.5e7 vertices)
    assert success_ranks(10**15, 1e-300, make_rng(5)).size == 0


def _row_counts_to(n):
    # pairs whose smaller vertex is at most i, for i = 0 .. n - 2
    return np.cumsum(np.arange(n - 1, 0, -1, dtype=np.int64))


def _searched_pairs(ranks, n):
    # the reference: each rank's row by a search over the cumulative row counts
    counts = _row_counts_to(n)
    i = np.searchsorted(counts, ranks, side="right")
    return i, ranks - np.concatenate(([0], counts))[i] + i + 1


def _row_ends(rows, n):
    # the first and the last rank of each row, rows computed in int64
    first = rows * (2 * n - 1 - rows) // 2
    return np.concatenate([first, first + (n - 2 - rows)])


def _assert_pairs_of_ranks(ranks, n, want):
    # ``_pair_of_rank`` against ``want(ranks, n)``, in chunks of 2**20 ranks
    for at in range(0, ranks.size, 2**20):
        part = ranks[at : at + 2**20]
        got_i, got_j = _pair_of_rank(part, n)
        want_i, want_j = want(part, n)
        assert got_i.dtype == got_j.dtype == np.int64
        assert np.array_equal(got_i, want_i) and np.array_equal(got_j, want_j), n


@pytest.mark.parametrize("n", [2, 3, 10, 115, 1000])
def test_pair_of_rank_equals_the_search_on_every_rank(n):
    ranks = np.arange(n * (n - 1) // 2, dtype=np.int64)
    _assert_pairs_of_ranks(ranks, n, _searched_pairs)
    # S(i) is the first rank of row i
    rows = np.arange(n - 1)
    first = np.concatenate(([0], _row_counts_to(n)[:-1]))
    assert np.array_equal(_pairs_before_row(rows, n), first)


@pytest.mark.parametrize("n", [10**5, 10**6])
def test_pair_of_rank_equals_the_search_at_row_ends_and_random_ranks(n):
    ranks = np.concatenate([
        _row_ends(np.arange(n - 1, dtype=np.int64), n),
        make_rng(n).integers(0, n * (n - 1) // 2, 2 * 10**6),
    ])
    _assert_pairs_of_ranks(ranks, n, _searched_pairs)


def test_pair_of_rank_is_exact_at_the_vertex_limit():
    # at n = 4e7 the search's table would take 320 MB, so the reference is
    # its definition: row i holds the ranks r with S(i) <= r < S(i + 1)
    n = _MAX_VERTICES
    assert (2 * n - 1) ** 2 < 2**53

    def bracketed(ranks, n):
        i, j = _pair_of_rank(ranks, n)
        first = i * (2 * n - 1 - i) // 2
        assert (first <= ranks).all() and (ranks < first + (n - 1 - i)).all()
        return i, ranks - first + i + 1

    rows = np.concatenate([np.arange(n - 1 - 10**4, n - 1),
                           np.linspace(0, n - 2, 10**6).astype(np.int64)])
    ends = _row_ends(rows, n)
    i, j = _pair_of_rank(ends, n)
    assert np.array_equal(i, np.concatenate([rows, rows]))
    assert np.array_equal(j, np.concatenate([rows + 1, np.full(rows.size, n - 1)]))
    _assert_pairs_of_ranks(make_rng(7).integers(0, n * (n - 1) // 2, 10**6), n, bracketed)


def test_more_vertices_than_the_limit_are_refused():
    assert _pairs_before_row(2, _MAX_VERTICES) == 2 * (2 * _MAX_VERTICES - 3) // 2
    with pytest.raises(ValueError, match=f"more than {_MAX_VERTICES} vertices"):
        _pairs_before_row(np.arange(3), _MAX_VERTICES + 1)


@pytest.mark.parametrize("case", ["random", "empty", "complete"])
def test_nonedges_before_equals_the_row_table_form(case):
    n = 30
    if case == "random":
        g = random_graph(n, 0.2, seed=9)
    elif case == "empty":
        g = Graph(n)
    else:
        g = Graph(n, *np.triu_indices(n, 1))
    want = _row_counts_to(n)[g.edge_i] + g.edge_j - np.arange(n, n + g.n_edges)
    got = _nonedges_before(g)
    assert got.dtype == np.int64 and np.array_equal(got, want)
    if case == "complete":
        assert not got.any()


def _index_case_graphs(kind, n, density, tables, seed):
    # ``tables`` graphs on ``n`` vertices, as a regenerating block's trials
    # hold them: "random" Erdos-Renyi, "edgeless", "complete", "clique" (a
    # 60-clique, or all n vertices if fewer, on top of a sparse random
    # graph) or "few" (three to six random pairs, made without a pass over
    # all pairs so that n may be large)
    graphs, rng = [], make_rng(seed)
    for t in range(tables):
        if kind == "random":
            g = random_graph(n, density, seed=seed + t)
        elif kind == "edgeless":
            g = Graph(n)
        elif kind == "complete":
            g = Graph(n, *np.triu_indices(n, 1))
        elif kind == "few":
            i = rng.integers(0, n - 1, int(rng.integers(3, 7)))
            g = Graph(n, i, i + 1 + rng.integers(0, n - 1 - i))
        else:
            size = min(60, n)
            first = int(rng.integers(0, n - size + 1))
            ci, cj = np.triu_indices(size, 1)
            i = rng.integers(0, n - 1, max(1, n // 4))
            j = i + 1 + rng.integers(0, n - 1 - i)
            g = Graph(n, np.concatenate([ci + first, i]), np.concatenate([cj + first, j]))
        graphs.append(g)
    return graphs


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.tuples(st.sampled_from(["random", "edgeless", "complete", "clique", "few"]),
                 st.integers(2, 90), st.floats(0.0, 1.0), st.integers(1, 4),
                 st.integers(0, 2**16)))
@example(("random", 2, 1.0, 1, 0))
@example(("edgeless", 2, 0.0, 2, 0))
@example(("complete", 30, 0.0, 1, 0))
@example(("random", 40, 0.9, 3, 1))
@example(("clique", 2000, 0.0, 1, 2))
@example(("clique", 700, 0.0, 3, 3))
@example(("few", 200_000, 0.0, 1, 4))
@example(("few", 200_000, 0.0, 3, 5))
def test_rank_index_counts_what_searchsorted_counts(case):
    # the index of non-edge tables laid end to end, graph t's shifted by
    # t * P, counts for every key the entries at most it, as a search of
    # the table does: on every non-edge key of each graph (or 20,000 of
    # them when there are more), and on the last key below and the first
    # key in every bucket
    kind, n, density, tables, seed = case
    graphs = _index_case_graphs(kind, n, density, tables, seed)
    pairs = _pair_count(n)
    table = np.concatenate([_nonedges_before(g) + t * pairs for t, g in enumerate(graphs)])
    n_keys = tables * pairs
    index = _rank_index(table.copy(), n_keys)
    shift, start, low = index
    assert low.size == table.size and low.dtype == np.min_scalar_type((1 << shift) - 1)
    assert start.dtype == np.int32 and start.size == (n_keys >> shift) + 2
    # the smallest shift that leaves at most one bucket per entry, and one more
    assert n_keys >> shift <= table.size
    assert shift == 0 or n_keys >> (shift - 1) > table.size
    rng = make_rng(seed)
    keys = []
    for t, g in enumerate(graphs):
        nonedges = pairs - g.n_edges
        ranks = (np.arange(nonedges) if nonedges <= 20_000
                 else rng.integers(0, nonedges, 20_000))
        keys.append(t * pairs + ranks)
    edges = np.arange(1, start.size - 1, dtype=np.int64) << shift
    keys = np.concatenate(keys + [edges - 1, edges[edges < n_keys]])
    got = _count_at_most(index, keys)
    assert np.array_equal(got, np.searchsorted(table, keys, side="right"))
    assert _count_at_most(index, keys[:0]).size == 0
    if kind == "complete":
        # no non-edge keys: only the bucket edges are counted, one key apiece
        assert shift == 0
    if kind == "clique" and n >= 700:
        # the clique's first row is one run of 59 equal entries in one bucket
        assert np.diff(start).max() >= 59
    if n == 200_000:
        assert shift > 16 and low.dtype == np.uint32


def test_replicate_memory_is_linear_in_vertices():
    # 2e10 vertex pairs: a pass over all of them would need terabytes
    g = Graph(200_000)
    tracemalloc.start()
    try:
        reps = replicate(g, NoiseParams(1e-9, 0.1), 3, make_rng(6))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 50e6
    assert all(r.n_v == 200_000 and r.n_edges < 200 for r in reps)
