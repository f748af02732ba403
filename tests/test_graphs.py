import collections
import csv
import hashlib
import io
import itertools
import math
import threading
import tracemalloc
import types
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

from nnc import graphs
from nnc.graphs import (
    EdgeListError,
    Graph,
    ParetoExpCutoff,
    ZeroTruncatedPoisson,
    _sorted_unique,
    _truncated_poisson_rate,
    build_graph_configuration,
    build_true_graph_from_rounds,
    load_edge_list,
    load_rounds,
    sample_degree_sequence,
    write_edge_list,
)
from nnc.seeding import make_rng

from dense_oracle import dense_adjacency


# -- Graph basics ----------------------------------------------------------


_INT64 = st.integers(-(2**63), 2**63 - 1)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.integers(-3, 3), _INT64), max_size=60))
@example([])
@example([7])
@example([5, 5, 5, 5])
@example([2**63 - 1, -(2**63), 2**63 - 1, 0])
def test_sorted_unique_equals_np_unique(values):
    x = np.asarray(values, dtype=np.int64)
    got = _sorted_unique(x)
    want = np.unique(x)
    assert got.dtype == want.dtype == np.int64
    assert np.array_equal(got, want)
    assert np.array_equal(x, np.asarray(values, dtype=np.int64))  # input untouched


@st.composite
def _vertex_pairs(draw):
    n = draw(st.one_of(st.integers(1, 6), st.integers(7, 10**6)))
    vertex = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=40))
    return n, [(i, j) for i, j in pairs if i != j]


@settings(max_examples=200, deadline=None)
@given(_vertex_pairs())
@example((1, []))
@example((2, []))
@example((2, [(1, 0)]))
@example((3, [(0, 1), (1, 2), (2, 0)]))
def test_edge_arrays_equal_divmod_reference(case):
    n, pairs = case
    g = Graph(n, [i for i, _ in pairs], [j for _, j in pairs])
    edge_i, edge_j = np.divmod(g.codes, n)
    degrees = np.bincount(np.concatenate([edge_i, edge_j]), minlength=n).astype(np.int64)
    for got, want in ((g.edge_i, edge_i), (g.edge_j, edge_j), (g.degrees, degrees)):
        assert got.dtype == np.int64
        assert np.array_equal(got, want)
        assert not got.flags.writeable
    assert set(zip(g.edge_i.tolist(), g.edge_j.tolist())) == {
        (min(i, j), max(i, j)) for i, j in pairs
    }


def test_graph_canonicalizes_and_dedupes_edges():
    g = Graph(4, [1, 0, 2, 1], [0, 1, 3, 0])
    assert g.n_edges == 2
    assert list(g.edge_i) == [0, 2]
    assert list(g.edge_j) == [1, 3]
    assert list(g.degrees) == [1, 1, 1, 1]


def test_graph_rejects_self_edges_and_bad_indices():
    with pytest.raises(ValueError):
        Graph(3, [0], [0])
    with pytest.raises(IndexError):
        Graph(3, [0], [3])


def test_graph_adjacency_is_symmetric_with_zero_diagonal():
    g = Graph(5, [0, 1, 2], [1, 2, 4])
    assert np.all(g.edge_i < g.edge_j)
    edges = list(zip(g.edge_i.tolist(), g.edge_j.tolist()))
    assert edges == [(0, 1), (1, 2), (2, 4)]
    a = dense_adjacency(g)
    for i, j in itertools.product(range(5), repeat=2):
        assert a[i, j] == a[j, i]
        assert a[i, j] == ((min(i, j), max(i, j)) in edges)
    assert not a.diagonal().any()
    assert a[2, 1] and not a[0, 2]
    assert list(np.flatnonzero(a[2])) == [1, 4]


# -- zero-truncated Poisson sampler ---------------------------------------


def test_truncated_poisson_rate_solves_mean_equation():
    for target in (1.2, 2.0, 5.0, 10.0, 40.0):
        mu = _truncated_poisson_rate(target)
        assert abs(mu / -math.expm1(-mu) - target) < 1e-9


def test_truncated_poisson_rate_is_unchanged_where_it_returned():
    # the rates as recorded before the bisection also stopped at a midpoint
    # equal to one of its ends; ZTP(10) feeds every acceptance graph
    recorded = {1.5: 0.874217465798514, 6.0: 5.984901226402714,
                10.0: 9.99954579444676, 5000.0: 5000.0, 8192.0: 8192.0}
    for target, rate in recorded.items():
        assert _truncated_poisson_rate(target) == rate


@pytest.mark.parametrize("target", [1e4, 1e6, 1e15])
def test_truncated_poisson_rate_returns_for_large_means(target):
    # from a mean of about 8,200 the floats near the rate are spaced wider
    # than the bisection's 1e-12 width, which it then never reached
    mu = _truncated_poisson_rate(target)
    assert abs(mu / -math.expm1(-mu) / target - 1) < 1e-12


def test_ztp_tiny_mean_gives_all_ones():
    rng = make_rng(0)
    d = sample_degree_sequence(ZeroTruncatedPoisson(1e-9), 5, rng)
    assert list(d) == [1, 1, 1, 1, 1]


def test_ztp_sample_mean_matches_target():
    rng = make_rng(11)
    d = sample_degree_sequence(ZeroTruncatedPoisson(10.0), 100_000, rng)
    assert d.min() >= 1
    assert abs(d.mean() - 10.0) < 0.1


def test_ztp_kolmogorov_distance_to_target_cdf():
    n = 100_000
    rng = make_rng(12)
    dist = ZeroTruncatedPoisson(10.0)
    d = sample_degree_sequence(dist, n, rng)
    mu = dist.parent_rate
    ks = np.arange(1, d.max() + 1)
    p0 = math.exp(-mu)
    target = (stats.poisson.cdf(ks, mu) - p0) / (1.0 - p0)
    target[-1] = max(target[-1], 1.0)  # clamp mass folded onto the top value
    ecdf = np.cumsum(np.bincount(d, minlength=d.max() + 1)[1:]) / n
    assert np.abs(ecdf - np.minimum(target, 1.0)).max() < 0.02


# -- Pareto with exponential cutoff ---------------------------------------


def _pareto_grid_oracle(rate, shape, lo, hi, n_grid=1_000_001):
    # independent quadrature of the target density on a dense grid
    x = np.linspace(lo, hi, n_grid)
    w = np.exp(-rate * x) * x ** -(shape + 1.0)
    i0 = np.trapezoid(w, x)
    i1 = np.trapezoid(x * w, x)
    return x, w, i0, i1


def test_pareto_sample_mean_within_5pct_of_quadrature():
    rate, shape, lo, n = 0.1, 2.0, 5.0, 10_000
    rng = make_rng(21)
    dist = ParetoExpCutoff(rate=rate, shape=shape, lower=lo, upper=n - 1)
    d = sample_degree_sequence(dist, n, rng)
    _, _, i0, i1 = _pareto_grid_oracle(rate, shape, lo, n - 1)
    target = i1 / i0
    assert d.min() >= 5 and d.max() <= n - 1
    assert abs(d.mean() - target) / target < 0.05


def test_pareto_kolmogorov_distance_to_target_cdf():
    rate, shape, lo, n = 0.12, 1.5, 3.0, 2_000
    rng = make_rng(22)
    dist = ParetoExpCutoff(rate=rate, shape=shape, lower=lo, upper=n - 1)
    d = sample_degree_sequence(dist, 100_000, rng)
    x, w, i0, _ = _pareto_grid_oracle(rate, shape, lo, n - 1)
    cdf_grid = np.concatenate([[0.0], np.cumsum((w[1:] + w[:-1]) / 2 * np.diff(x))]) / i0
    ks = np.arange(math.ceil(lo), d.max() + 1)
    target = np.interp(np.minimum(ks + 0.5, n - 1.0), x, cdf_grid)
    target[-1] = 1.0
    counts = np.bincount(d, minlength=d.max() + 1)[math.ceil(lo):]
    ecdf = np.cumsum(counts) / d.size
    assert np.abs(ecdf - target).max() < 0.02


def test_pareto_parameter_validation():
    with pytest.raises(ValueError):
        ParetoExpCutoff(rate=-0.1, shape=2.0, lower=5.0, upper=99.0)
    with pytest.raises(ValueError):
        ParetoExpCutoff(rate=0.1, shape=2.0, lower=0.5, upper=99.0)
    with pytest.raises(ValueError):
        ParetoExpCutoff(rate=0.1, shape=2.0, lower=99.0, upper=99.0)


# -- configuration-model builder ------------------------------------------


def test_configuration_two_nodes_single_edge():
    g = build_graph_configuration([1, 1], make_rng(1))
    assert g.n_edges == 1 and dense_adjacency(g)[0, 1]


def test_configuration_triangle_is_unique_realization():
    g = build_graph_configuration([2, 2, 2], make_rng(2))
    assert g.n_edges == 3
    assert all(dense_adjacency(g)[i, j] for i, j in [(0, 1), (0, 2), (1, 2)])


def _graphs_with_degree_sequence(degrees):
    # exhaustive oracle over all labeled simple graphs on len(degrees) nodes
    n = len(degrees)
    pairs = list(itertools.combinations(range(n), 2))
    hits = []
    for mask in range(2 ** len(pairs)):
        deg = [0] * n
        for b, (i, j) in enumerate(pairs):
            if mask >> b & 1:
                deg[i] += 1
                deg[j] += 1
        if deg == list(degrees):
            hits.append(mask)
    return hits, pairs


def test_configuration_star_is_only_realization_and_is_built():
    hits, pairs = _graphs_with_degree_sequence([3, 1, 1, 1])
    assert len(hits) == 1
    star_edges = {pairs[b] for b in range(len(pairs)) if hits[0] >> b & 1}
    assert star_edges == {(0, 1), (0, 2), (0, 3)}
    for seed in range(5):
        g = build_graph_configuration([3, 1, 1, 1], make_rng(seed))
        assert {(int(i), int(j)) for i, j in zip(g.edge_i, g.edge_j)} == star_edges


def test_configuration_odd_total_is_repaired_and_reported():
    g = build_graph_configuration([2, 1, 2], make_rng(5))
    assert g.meta["odd_repair_node"] is not None
    assert g.degrees.sum() % 2 == 0


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1), st.lists(st.integers(1, 7), min_size=8, max_size=40))
def test_configuration_degree_bounds_and_stub_accounting(seed, degrees):
    n = len(degrees)
    degrees = [min(d, n - 1) for d in degrees]
    rng = make_rng(seed)
    g = build_graph_configuration(degrees, rng)
    requested = np.asarray(degrees)
    if g.meta["odd_repair_node"] is not None:
        requested = requested.copy()
        requested[g.meta["odd_repair_node"]] += 1
    assert np.all(g.degrees <= requested)
    assert g.degrees.sum() % 2 == 0
    assert g.n_edges <= requested.sum() // 2
    assert g.degrees.sum() == requested.sum() - g.meta["erased_stub_count"]


def test_configuration_rejects_bad_degrees():
    with pytest.raises(ValueError):
        build_graph_configuration([], make_rng(0))
    with pytest.raises(ValueError):
        build_graph_configuration([0, 1], make_rng(0))
    with pytest.raises(ValueError):
        build_graph_configuration([2, 1], make_rng(0))
    # int64 would truncate these to [2, 2, 2], [1, 1] and [2, 2, 2], each a graph
    for bad in ([2.7, 2.2, 2.9], [True, True], ["2", "2", "2"], np.array([2.0, np.nan, 2.0])):
        with pytest.raises(ValueError, match="^degrees must be integers"):
            build_graph_configuration(bad, make_rng(0))
    # one bool among ints: as an array the sequence is int64, and [True, 2, 1]
    # would build a path of two edges; it is refused as an all-bool array is
    for bad in ([True, 2, 1], (2, np.True_, 1), [2, 2, False]):
        with pytest.raises(ValueError, match="^degrees must be integers, got bool values$"):
            build_graph_configuration(bad, make_rng(0))
    with pytest.raises(ValueError, match="^degrees must be integers, got bool values$"):
        build_graph_configuration(np.array([True, True]), make_rng(0))
    # whole numbers of any numeric type are degrees
    for good in ([2.0, 2.0, 2.0], np.array([2, 2, 2], dtype=np.uint8)):
        assert build_graph_configuration(good, make_rng(0)).n_edges == 3


def test_configuration_rejects_nonpositive_max_attempts():
    # a bool, a float and a string are not attempt counts, even when they
    # would pass for one; numpy integers are
    for bad in (0, -1, True, 2.0, "3"):
        with pytest.raises(ValueError, match="max_attempts"):
            build_graph_configuration([2, 2, 2], make_rng(0), max_attempts=bad)
    g = build_graph_configuration([2, 2, 2], make_rng(0), max_attempts=np.int64(3))
    assert 1 <= g.meta["matching_attempts"] <= 3


def _reference_configuration(degrees, rng, max_attempts):
    # plain stub matching: every attempt builds its edge codes and dedupes
    # them with np.unique; the builder must agree with it bit for bit
    d = np.asarray(degrees, dtype=np.int64).copy()
    n = d.size
    meta = {"odd_repair_node": None}
    if d.sum() % 2 == 1:
        pick = int(rng.choice(np.flatnonzero(d < n - 1)))
        d[pick] += 1
        meta["odd_repair_node"] = pick
    stubs = np.repeat(np.arange(n, dtype=np.int64), d)
    n_pairs = stubs.size // 2
    for attempts in range(1, max_attempts + 1):
        perm = rng.permutation(stubs)
        a, b = perm[0::2], perm[1::2]
        keep = a != b
        codes = np.unique(np.minimum(a[keep], b[keep]) * n + np.maximum(a[keep], b[keep]))
        if codes.size == n_pairs:
            break
    meta["matching_attempts"] = attempts
    meta["erased_stub_count"] = int(2 * (n_pairs - codes.size))
    return codes, meta


def _winning_row(degrees, meta, max_attempts):
    # the row of its batch that drew the winning attempt, and the batch's
    # row count: the first attempt is drawn alone, the others in batches of
    # graphs._batch_rows rows, the last batch cut at max_attempts
    attempts = meta["matching_attempts"]
    if attempts == 1:
        return 0, 1
    d = np.array(degrees, dtype=np.int64)
    if meta["odd_repair_node"] is not None:
        d[meta["odd_repair_node"]] += 1
    k = graphs._batch_rows(d, int(d.sum()), max_attempts - 1)
    start = attempts - (attempts - 2) % k
    return attempts - start, min(k, max_attempts + 1 - start)


def test_configuration_matches_reference_matching_bit_for_bit():
    # at most 2 * _LAZY_PAIRS stubs every attempt is one permutation, so the
    # builder and the reference consume the same stream; ZTP(10) at n = 1000
    # (about 1e4 stubs) is the scale of acceptance criterion 7. ZTP(4) is
    # simple about once in 200 attempts and is drawn in batches of a few
    # rows, so some builds win before a batch's last row and must leave the
    # generator where drawing only up to the win leaves it
    laws = {
        "ztp10": (ZeroTruncatedPoisson(10.0), 300),
        "pareto": (ParetoExpCutoff(rate=0.1, shape=1.2, lower=3.0, upper=299.0), 300),
        "ztp_sparse": (ZeroTruncatedPoisson(1.3), 300),  # nu ~ 0.56: simple matchings are common
        "ztp4": (ZeroTruncatedPoisson(4.0), 300),
        "ztp10_n1000": (ZeroTruncatedPoisson(10.0), 1000),
    }
    outcomes = set()
    for name, (law, n) in laws.items():
        for seed in range(20):
            degrees = sample_degree_sequence(law, n, make_rng(seed))
            assert degrees.sum() + 1 <= 2 * graphs._LAZY_PAIRS
            for max_attempts in (1, 2, 100):
                rng_a, rng_b = make_rng(1000 + seed), make_rng(1000 + seed)
                g = build_graph_configuration(degrees, rng_a, max_attempts=max_attempts)
                codes, meta = _reference_configuration(degrees, rng_b, max_attempts)
                assert np.array_equal(g.codes, codes), (name, seed, max_attempts)
                assert g.meta == meta, (name, seed, max_attempts)
                assert rng_a.integers(0, 2**62) == rng_b.integers(0, 2**62)
                row, rows = _winning_row(degrees, meta, max_attempts)
                outcomes.add((name, meta["matching_attempts"] < max_attempts,
                              meta["erased_stub_count"] > 0, 0 < row < rows - 1))
    # both ends of the loop are exercised: a final attempt erased, and a
    # simple matching found before the last attempt; ZTP(4) also wins after
    # a batch's first row and before its last. The heavy-tailed laws draw
    # full batches, ZTP(1.3) one attempt at a time
    assert ("ztp10", False, True, False) in outcomes
    assert ("pareto", False, True, False) in outcomes
    assert ("ztp_sparse", True, False, False) in outcomes
    assert ("ztp4", True, False, True) in outcomes
    assert ("ztp10_n1000", False, True, False) in outcomes
    for name, (law, n) in laws.items():
        d = sample_degree_sequence(law, n, make_rng(0))
        full = graphs._BATCH_ENTRIES // int(d.sum())
        want = {"ztp_sparse": range(1, 2), "ztp4": range(2, full)}.get(name, range(full, full + 1))
        assert graphs._batch_rows(d, int(d.sum()), 99) in want, name


def test_permuted_rows_draw_what_row_by_row_shuffles_draw():
    # the builder draws a batch of attempts with one Generator.permuted call
    # on the rows of a C-contiguous int64 block; NumPy must draw each row as
    # Generator.shuffle draws it, in row order, and leave the generator
    # where those shuffles leave it
    for seed in range(5):
        for rows, size in ((1, 7), (2, 1000), (5, 2724), (24, 2723)):
            stubs = np.repeat(np.arange(size // 3 + 1, dtype=np.int64), 3)[:size]
            rng_a, rng_b = make_rng(seed), make_rng(seed)
            block = np.empty((rows, size), dtype=np.int64)
            block[:] = stubs
            assert block.flags.c_contiguous
            rng_a.permuted(block, axis=1, out=block)
            for row in block:
                want = stubs.copy()
                rng_b.shuffle(want)
                assert np.array_equal(row, want), (seed, rows, size)
            assert rng_a.integers(2**62) == rng_b.integers(2**62)


def test_configuration_one_permutation_above_the_lazy_threshold_bit_for_bit():
    # ZTP(1.3) at n = 2e4 has about 2.6e4 stubs, more than 2 * _LAZY_PAIRS.
    # With one attempt no lazy attempt is drawn: the only attempt is one whole
    # permutation, so the builder and the reference consume the same stream
    degrees = sample_degree_sequence(ZeroTruncatedPoisson(1.3), 20_000, make_rng(8))
    assert degrees.sum() > 2 * graphs._LAZY_PAIRS
    for seed in range(5):
        rng_a, rng_b = make_rng(seed), make_rng(seed)
        g = build_graph_configuration(degrees, rng_a, max_attempts=1)
        codes, meta = _reference_configuration(degrees, rng_b, 1)
        assert np.array_equal(g.codes, codes), seed
        assert g.meta == meta, seed
        assert rng_a.integers(0, 2**62) == rng_b.integers(0, 2**62)


def test_configuration_lazy_stream_is_pinned():
    # ZTP(10) at n = 3000: about 3e4 stubs, so each of the first 99 attempts
    # is revealed lazily on its own stream, seeded from one draw of the
    # build's generator, and the last is one whole permutation drawn from it
    # after that draw. The values were recorded from this stream; a change
    # that alters what the build draws fails here. A declared change of the
    # stream updates them
    degrees = sample_degree_sequence(ZeroTruncatedPoisson(10.0), 3000, make_rng(3))
    assert degrees.sum() > 2 * graphs._LAZY_PAIRS
    rng = make_rng(4)
    g = build_graph_configuration(degrees, rng)
    assert hashlib.sha256(g.codes.astype("<i8").tobytes()).hexdigest() == (
        "26deef48eec5ed5393c4d512ccf54726365b5a4abab81909c93fb8be7c8540d0")
    assert g.meta == {"odd_repair_node": 2939, "matching_attempts": 100,
                      "erased_stub_count": 62}
    assert rng.integers(2**62) == 2027499558075298037


def test_configuration_simple_lazy_stream_is_pinned():
    # ZTP(1.3) at n = 2e4: about 2.6e4 stubs, and at this seed the second
    # lazy attempt is the first simple one, so the graph is what that
    # attempt's own stream draws, hub-first groups and shuffled rest.
    # Recorded as the test above; a declared change of the stream updates them
    degrees = sample_degree_sequence(ZeroTruncatedPoisson(1.3), 20_000, make_rng(8))
    assert degrees.sum() > 2 * graphs._LAZY_PAIRS
    rng = make_rng(10)
    g = build_graph_configuration(degrees, rng)
    assert hashlib.sha256(g.codes.astype("<i8").tobytes()).hexdigest() == (
        "90ddf4399b0557728307fb8c10e991f8d2bc30fd3f5f5ac98397b3d786656e6b")
    assert g.meta == {"odd_repair_node": 792, "matching_attempts": 2,
                      "erased_stub_count": 0}
    assert rng.integers(2**62) == 2424291371565667190


def _mapped(fn, items, threads):
    # fn over items in turn on this thread, or on a pool of that many threads
    if threads == 1:
        return list(map(fn, items))
    with ThreadPoolExecutor(threads) as pool:
        return list(pool.map(fn, items))


@pytest.mark.parametrize("mean, n, seed, attempts", [(10.0, 3000, 6, 100),
                                                     (10.0, 20_000, 6, 100),
                                                     (1.3, 20_000, 10, 2)])
def test_configuration_does_not_depend_on_the_cpu_count(monkeypatch, mean, n, seed, attempts):
    # builds on the lazy path, made on this thread and on a pool of 2 and 3
    # threads, as a regenerating run's ranges make them: the ZTP(10) builds
    # reject all 99 lazy attempts, and the ZTP(1.3) one takes its second.
    # The codes, meta and the generator's next draw are the same everywhere,
    # each build runs its lazy attempts on its own thread, and no thread is
    # left
    degrees = sample_degree_sequence(ZeroTruncatedPoisson(mean), n, make_rng(8))
    assert degrees.sum() > 2 * graphs._LAZY_PAIRS
    real_attempt = graphs._lazy_attempt
    ran_on = collections.Counter()

    def watched(*args):
        ran_on[threading.current_thread().name] += 1
        return real_attempt(*args)

    def build(_):
        rng = make_rng(seed)
        g = build_graph_configuration(degrees, rng)
        return (g.codes.tobytes(), g.meta, rng.integers(2**62)), threading.current_thread().name

    monkeypatch.setattr(graphs, "_lazy_attempt", watched)
    start = threading.active_count()
    outputs = []
    for cpus in (1, 2, 3):
        ran_on.clear()
        built = _mapped(build, range(cpus), cpus)
        assert threading.active_count() == start
        builders = collections.Counter(name for _, name in built)
        assert (set(builders) == {threading.current_thread().name}) == (cpus == 1)
        # the lazy attempts: the simple one, or the 99 before the last
        assert ran_on == {name: min(attempts, 99) * count for name, count in builders.items()}
        outputs.extend(output for output, _ in built)
    assert all(output == outputs[0] for output in outputs)
    assert outputs[0][1]["matching_attempts"] == attempts


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_configuration_raises_a_failing_attempts_error(monkeypatch, cpus):
    # attempt 6 of a ZTP(10) build raises (attempts 7 and 10 would too):
    # the attempts run in turn, so its error is raised and no later attempt
    # runs, whether the build runs on this thread or on a pool of 2 or 3
    # threads, and no thread is left
    degrees = sample_degree_sequence(ZeroTruncatedPoisson(10.0), 3000, make_rng(5))
    real_attempt = graphs._lazy_attempt
    calls = []

    def failing(*args):
        calls.append(threading.current_thread().name)
        if len(calls) in (6, 7, 10):
            raise RuntimeError(f"attempt {len(calls)}")
        return real_attempt(*args)

    monkeypatch.setattr(graphs, "_lazy_attempt", failing)
    start = threading.active_count()
    with pytest.raises(RuntimeError, match="^attempt 6$"):
        _mapped(lambda seed: build_graph_configuration(degrees, make_rng(seed)), [6], cpus)
    assert threading.active_count() == start
    assert len(calls) == 6 and len(set(calls)) == 1


def _outcome_counts(build, degrees, max_attempts, seeds):
    counts = collections.Counter()
    for seed in seeds:
        codes, meta = build(degrees, make_rng(seed), max_attempts)
        counts[codes.tobytes(), meta["matching_attempts"], meta["erased_stub_count"]] += 1
    return counts


def _built(degrees, rng, max_attempts):
    g = build_graph_configuration(degrees, rng, max_attempts=max_attempts)
    return g.codes, g.meta


def _watch_reveal(monkeypatch):
    # forces the lazy path for every matching of more than 2 stubs and a
    # first group of one vertex, and counts what the lazy attempts do: the
    # groups each attempt reveals, the groups that pair some of their stubs
    # with each other, the completions (the rest shuffled), and the batches
    # of outside partners that draw a stub twice, whose repeats are drawn
    # again
    monkeypatch.setattr(graphs, "_LAZY_PAIRS", 1)
    monkeypatch.setattr(graphs, "_FIRST_GROUP", 10**9)
    seen = collections.Counter(groups=[])
    real = {name: getattr(graphs, name)
            for name in ("_lazy_attempt", "_slot_pairs", "_rest_codes", "_outside")}

    def attempt(*args):
        seen["groups"].append(0)
        return real["_lazy_attempt"](*args)

    def slot_pairs(*args):
        seen["groups"][-1] += 1
        k = real["_slot_pairs"](*args)
        seen["inner"] += k > 0
        return k

    def rest_codes(*args):
        seen["rests"] += 1
        return real["_rest_codes"](*args)

    def outside(rng, *args):
        def integers(*draw, **kwargs):
            idx = rng.integers(*draw, **kwargs)
            seen["redraws"] += np.unique(idx).size < idx.size
            return idx
        return real["_outside"](types.SimpleNamespace(integers=integers), *args)

    for name, fn in (("_lazy_attempt", attempt), ("_slot_pairs", slot_pairs),
                     ("_rest_codes", rest_codes), ("_outside", outside)):
        monkeypatch.setattr(graphs, name, fn)
    return seen


def _assert_same_law(got, want):
    # two-sample chi-square, cells seen fewer than 10 times in both samples
    # pooled; fails below p = 1e-3
    cells = got.keys() | want.keys()
    common = [c for c in cells if got[c] + want[c] >= 10]
    rare = [c for c in cells if got[c] + want[c] < 10]
    table = [[counts[c] for c in common] + ([sum(counts[c] for c in rare)] if rare else [])
             for counts in (got, want)]
    assert len(common) > 1
    assert stats.chi2_contingency(table).pvalue > 1e-3


@pytest.mark.parametrize("max_attempts", [1, 4])
@pytest.mark.parametrize("degrees", [[1, 2, 2, 2, 3, 2], [3, 3, 3, 3]])
def test_lazy_matching_has_the_reference_law(monkeypatch, degrees, max_attempts):
    # tiny matchings take the lazy path, one vertex in the first group, and
    # must give (graph, matching_attempts, erased_stub_count) the law of
    # redrawing whole matchings, over 5000 draws each. At 4 attempts some
    # group pairs stubs with each other and some attempt completes with the
    # shuffled rest; [1, 2, 2, 2, 3, 2] also has attempts that reveal
    # several groups (for [3, 3, 3, 3] a second group is only reached
    # after its first has repeated a pair)
    seen = _watch_reveal(monkeypatch)
    draws = 5000
    got = _outcome_counts(_built, degrees, max_attempts, range(draws))
    want = _outcome_counts(_reference_configuration, degrees, max_attempts,
                           range(draws, 2 * draws))
    _assert_same_law(got, want)
    if max_attempts > 1:
        assert seen["inner"] and seen["rests"]
        assert (max(seen["groups"]) > 1) == (degrees[0] == 1)


@pytest.mark.parametrize("degrees", [[2, 2, 2, 2, 2, 2], [1, 1, 1, 1, 2, 2, 2, 2]])
def test_lazy_matching_with_repeated_draws_has_the_reference_law(monkeypatch, degrees):
    # the test above at 4 attempts on two more degree sequences, whose
    # attempts also reveal several groups, counting the batches of outside
    # partners that draw a stub twice and draw it again, and the law of
    # (graph, matching_attempts, erased_stub_count) must still be that of
    # redrawing whole matchings
    seen = _watch_reveal(monkeypatch)
    draws = 5000
    got = _outcome_counts(_built, degrees, 4, range(draws))
    want = _outcome_counts(_reference_configuration, degrees, 4, range(draws, 2 * draws))
    _assert_same_law(got, want)
    assert seen["redraws"] > draws // 10
    assert max(seen["groups"]) > 1 and seen["inner"] and seen["rests"]


def test_lazy_attempt_draws_every_perfect_matching_uniformly(monkeypatch):
    # eight one-stub vertices never form a loop or a repeated pair, so the
    # first lazy attempt of every build is simple, and its matching must be
    # uniform over the 105 perfect matchings of 8 stubs: chi-square, 50
    # expected per matching, fails below p = 1e-3. Groups of 1, 2 and 4
    # stubs reveal some pairs before the shuffled rest
    seen = _watch_reveal(monkeypatch)
    counts = collections.Counter()
    for seed in range(105 * 50):
        g = build_graph_configuration([1] * 8, make_rng(seed))
        assert g.meta["matching_attempts"] == 1 and g.n_edges == 4
        counts[g.codes.tobytes()] += 1
    assert len(counts) == 105
    assert stats.chisquare(list(counts.values())).pvalue > 1e-3
    assert max(seen["groups"]) > 1 and seen["rests"]


def _slot_pair_law(u, s):
    # P(k), k = 0 .. s // 2, of the number k of slots (2j, 2j + 1) of [0, u)
    # that hold two of s uniform distinct positions, h = u / 2 slots:
    # C(h, k) C(h - k, s - 2k) 2^(s - 2k) / C(u, s), from log-gammas
    h = u // 2

    def log_comb(a, b):
        return math.lgamma(a + 1) - math.lgamma(b + 1) - math.lgamma(a - b + 1)

    return np.array([math.exp(log_comb(h, k) + log_comb(h - k, s - 2 * k)
                              + (s - 2 * k) * math.log(2) - log_comb(u, s))
                     for k in range(s // 2 + 1)])


@pytest.mark.parametrize("u, s", [(8, 0), (8, 1), (40, 1), (8, 2), (12, 3), (20, 5), (40, 10),
                                  (400, 100), (4000, 1000), (10**5, 1000), (10**6, 3000)])
def test_slot_pairs_draws_the_exact_law(u, s):
    # the inner-pair count of a group of s stubs among u unmatched ones,
    # over 20,000 draws, against the closed form: k never exceeds s / 2,
    # and by chi-square, cells of expected count below 5 pooled, it has the
    # law P(k) (fails below p = 1e-3). s = u / 4 is the largest group a
    # lazy attempt reveals; s of 0 and 1 hold no pair
    law = _slot_pair_law(u, s)
    assert abs(law.sum() - 1) < 1e-9
    rng = make_rng(u + s)
    draws = 20_000
    ks = np.array([graphs._slot_pairs(rng, u, s) for _ in range(draws)])
    assert ks.min() >= 0 and ks.max() <= s // 2
    if s < 2:
        assert not ks.any()
        return
    observed = np.bincount(ks, minlength=law.size)
    expected = draws * law
    common = expected >= 5
    assert common.sum() > 1
    if not common.all():
        observed = np.append(observed[common], observed[~common].sum())
        expected = np.append(expected[common], expected[~common].sum())
    assert stats.chisquare(observed, expected).pvalue > 1e-3


def test_configuration_refuses_a_lazy_matching_of_2e9_stubs():
    # numpy's hypergeometric draws take fewer than 10^9 slots, so a lazy
    # build of 46,000 vertices of degree 45,999 (2.1e9 stubs) is refused
    # with a one-line error naming the stub count, before the attempts make
    # their stub arrays: tracing finds nothing near the 2.1e9-entry arrays
    degrees = np.full(46_000, 45_999)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as raised:
            build_graph_configuration(degrees, make_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(raised.value).startswith("stub matching of 2115954000 stubs is too large")
    assert "\n" not in str(raised.value)
    assert peak < 10 * degrees.nbytes, peak


def test_lazy_matching_attempts_match_reference_above_one_permutation():
    # ZTP(1.3) at n = 2e4 has about 2.6e4 stubs, more than 2 * _LAZY_PAIRS,
    # and a simple matching has probability ~0.7, so attempts stop early and
    # both accept and reject branches run. Mean matching_attempts over 300
    # draws each must agree within 4 standard errors
    degrees = sample_degree_sequence(ZeroTruncatedPoisson(1.3), 20_000, make_rng(8))
    assert degrees.sum() > 2 * graphs._LAZY_PAIRS
    got = np.array([_built(degrees, make_rng(seed), 100)[1]["matching_attempts"]
                    for seed in range(300)])
    want = np.array([_reference_configuration(degrees, make_rng(seed), 100)[1]["matching_attempts"]
                     for seed in range(300, 600)])
    se = math.sqrt(got.var(ddof=1) / got.size + want.var(ddof=1) / want.size)
    assert 1.0 < want.mean() < 3.0
    assert got.min() == 1 < got.max()
    assert abs(got.mean() - want.mean()) < 4 * se


def test_configuration_memory_on_100k_vertices():
    # ZTP(10), n = 1e5: about 1e6 stubs, all 100 attempts run. Drawing every
    # attempt as a full permutation and building its codes from four
    # half-length temporaries peaked at 41.3 MB here; the lazy attempts (a
    # mark per stub and their groups) must not add to that. The 99 lazy
    # attempts are rejected, so the graph is the last attempt's, drawn from
    # the build's generator right after the attempts' seed: the values are
    # pinned, and held before the lazy attempts were revealed hub first
    rng = make_rng(0)
    degrees = sample_degree_sequence(ZeroTruncatedPoisson(10.0), 100_000, rng)
    tracemalloc.start()
    try:
        g = build_graph_configuration(degrees, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 41.3e6, peak
    assert g.meta == {"odd_repair_node": None, "matching_attempts": 100,
                      "erased_stub_count": 72}
    assert g.degrees.sum() == degrees.sum() - g.meta["erased_stub_count"]
    assert hashlib.sha256(g.codes.astype("<i8").tobytes()).hexdigest() == (
        "3ad161996123f9034269b06bf403204e201b2e485cae94cd599c2bbad25d363e")
    assert rng.integers(2**62) == 2831006457268451507


# -- edge-list ingestion ----------------------------------------------------


def test_load_edge_list_header_only_is_empty_graph():
    g = load_edge_list(io.StringIO("node_a,node_b\n"))
    assert g.n_v == 0 and g.n_edges == 0


def test_load_edge_list_dedupes_reversed_pairs():
    g = load_edge_list(io.StringIO("node_a,node_b\na,b\nb,a\n"))
    assert g.n_v == 2 and g.n_edges == 1
    assert g.labels == ("a", "b")


def test_load_edge_list_path_degrees():
    g = load_edge_list(io.StringIO("node_a,node_b\na,b\nb,c\n"))
    assert [g.degrees[g.labels.index(x)] for x in "abc"] == [1, 2, 1]


def test_load_edge_list_errors_carry_line_numbers():
    with pytest.raises(EdgeListError, match="line 1"):
        load_edge_list(io.StringIO("nodes\n"))
    with pytest.raises(EdgeListError, match="line 3"):
        load_edge_list(io.StringIO("node_a,node_b\na,b\na,b,c\n"))
    with pytest.raises(EdgeListError, match="line 2"):
        load_edge_list(io.StringIO("node_a,node_b\nx,x\n"))


# over the csv module's default field size limit of 131,072 characters
LONG_LABEL = "x" * 200_000


@pytest.mark.parametrize("load, text", [
    (load_edge_list, f"node_a,node_b\na,b\nc,{LONG_LABEL}\n"),
    (load_rounds, f"round,node_a,node_b\n1,a,b\n2,c,{LONG_LABEL}\n"),
])
def test_an_over_long_field_names_its_line(load, text):
    # the csv module's refusal is the loader's error, and the process-wide
    # field size limit is left as it was
    limit = csv.field_size_limit()
    with pytest.raises(EdgeListError, match=r"^line 3: field larger than field limit"):
        load(io.StringIO(text))
    assert csv.field_size_limit() == limit


@pytest.mark.parametrize("load, text", [
    (load_edge_list, "node_a,node_b\na,b\nc\n"),
    (load_rounds, "round,node_a,node_b\n1,a,b\n2,c\n"),
    (graphs._load_degrees, "3\n4\nx\n"),
])
def test_a_loader_names_a_path_but_not_a_stream(tmp_path, load, text):
    # the same line 3 error, after "<path>: " when the file is read from a
    # path; a stream's message is left as it is
    path = tmp_path / "input.csv"
    path.write_text(text)
    with pytest.raises(EdgeListError) as from_stream:
        load(io.StringIO(text))
    assert str(from_stream.value).startswith("line 3: ")
    for source in (path, str(path)):
        with pytest.raises(EdgeListError) as from_path:
            load(source)
        assert str(from_path.value) == f"{path}: {from_stream.value}"


def test_write_edge_list_roundtrip():
    g = load_edge_list(io.StringIO("node_a,node_b\na,b\nb,c\nc,a\n"))
    buf = io.StringIO()
    write_edge_list(g, buf)
    again = load_edge_list(io.StringIO(buf.getvalue()))
    assert again.n_v == g.n_v and again.n_edges == g.n_edges


# -- multi-round contact data -----------------------------------------------


ROUNDS_CSV = "round,node_a,node_b\n1,a,b\n3,a,b\n2,b,c\n1,c,d\n4,d,a\n"


def test_rounds_min_count_two_keeps_repeated_pair():
    data = load_rounds(io.StringIO(ROUNDS_CSV))
    g = build_true_graph_from_rounds(data, min_count=2)
    ia, ib = g.labels.index("a"), g.labels.index("b")
    assert dense_adjacency(g)[ia, ib]
    assert g.n_edges == 1


def test_rounds_single_occurrence_is_dropped_at_min_count_two():
    data = load_rounds(io.StringIO(ROUNDS_CSV))
    g = build_true_graph_from_rounds(data, min_count=2)
    ib, ic = g.labels.index("b"), g.labels.index("c")
    assert not dense_adjacency(g)[ib, ic]


def test_rounds_min_count_one_is_union():
    data = load_rounds(io.StringIO(ROUNDS_CSV))
    g = build_true_graph_from_rounds(data, min_count=1)
    assert g.n_edges == 4


def test_rounds_monotone_in_min_count():
    data = load_rounds(io.StringIO(ROUNDS_CSV))
    sizes = [build_true_graph_from_rounds(data, k).n_edges for k in (1, 2, 3, 4)]
    assert sizes == sorted(sizes, reverse=True)


def test_rounds_parse_errors():
    with pytest.raises(EdgeListError, match="line 2"):
        load_rounds(io.StringIO("round,node_a,node_b\nzero,a,b\n"))
    with pytest.raises(EdgeListError, match="line 2"):
        load_rounds(io.StringIO("round,node_a,node_b\n0,a,b\n"))
    with pytest.raises(ValueError):
        build_true_graph_from_rounds(load_rounds(io.StringIO(ROUNDS_CSV)), min_count=0)


def _counted_rounds_graph(text, min_count):
    # the count build_true_graph_from_rounds replaced: each round a set of
    # ordered label-index pairs, then one dict count over the rounds
    labels, by_round = {}, {}
    for line in text.splitlines()[1:]:
        rid, a, b = line.split(",")
        ia, ib = labels.setdefault(a, len(labels)), labels.setdefault(b, len(labels))
        by_round.setdefault(int(rid), set()).add((min(ia, ib), max(ia, ib)))
    counts = {}
    for pairs in by_round.values():
        for pair in pairs:
            counts[pair] = counts.get(pair, 0) + 1
    kept = [pair for pair, c in counts.items() if c >= min_count]
    return Graph(len(labels), [i for i, _ in kept], [j for _, j in kept], labels=tuple(labels))


def test_rounds_true_graph_matches_a_dict_count_on_random_files():
    # random round files with repeated and reversed pairs inside a round and
    # rounds listed out of order: the sorted-code run count keeps exactly the
    # pairs a dict count keeps, on the same codes, labels and vertex count
    rng = np.random.default_rng(31)
    for _ in range(150):
        n_labels = int(rng.integers(2, 10))
        lines = ["round,node_a,node_b"]
        for _ in range(int(rng.integers(1, 40))):
            a, b = rng.choice(n_labels, 2, replace=False)
            lines.append(f"{rng.integers(1, 6)},v{a},v{b}")
            if rng.random() < 0.3:  # the same pair again, either way round
                lines.append(f"{lines[-1].split(',')[0]},v{b},v{a}")
        text = "\n".join(lines) + "\n"
        rounds = load_rounds(io.StringIO(text))
        ids = [g.meta["round"] for g in rounds]
        assert ids == sorted(set(int(line.split(",")[0]) for line in lines[1:]))
        assert all(g.labels is rounds[0].labels for g in rounds)
        for g in rounds:
            pairs = {frozenset(line.split(",")[1:]) for line in lines[1:]
                     if int(line.split(",")[0]) == g.meta["round"]}
            assert {frozenset((g.labels[i], g.labels[j]))
                    for i, j in zip(g.edge_i, g.edge_j)} == pairs
        for min_count in (1, 2, 3, 4):
            got = build_true_graph_from_rounds(rounds, min_count)
            want = _counted_rounds_graph(text, min_count)
            assert np.array_equal(got.codes, want.codes)
            assert got.labels == want.labels and got.n_v == want.n_v


def test_rounds_on_different_vertex_sets_are_refused():
    a = Graph(3, [0], [1], labels=("a", "b", "c"))
    for other in (Graph(4, [0], [1], labels=("a", "b", "c", "d")),
                  Graph(3, [0], [1], labels=("b", "a", "c")),
                  Graph(3, [0], [1])):
        with pytest.raises(ValueError, match="share their vertex count and labels"):
            build_true_graph_from_rounds([a, other], 1)
    assert build_true_graph_from_rounds([a, a], 2) == a
