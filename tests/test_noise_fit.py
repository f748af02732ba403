import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nnc.graphs import Graph
from nnc.noise import NoiseParams, perturb
from nnc.noise_fit import (
    FIT_CONVERGED,
    FIT_DEGENERATE,
    FIT_DIVERGED,
    FIT_UNCONVERGED,
    DegenerateMomentsError,
    DivergedError,
    MomentStats,
    _fit_rates,
    _missed_counts,
    _presence_table,
    fit_alpha_beta,
    moment_stats,
)
from nnc.seeding import make_rng


def forward_moments(alpha, beta, delta, n_v=1000):
    """Oracle: population moments implied by rates and true density."""
    u1 = (1 - delta) * alpha + delta * (1 - beta)
    u2 = (1 - delta) * alpha * (1 - alpha) + delta * beta * (1 - beta)
    u3 = (1 - delta) * alpha * (1 - alpha) ** 2 + delta * beta**2 * (1 - beta)
    return MomentStats(u1=u1, u2=u2, u3=u3, n_v=n_v)


def random_graph_exact_density(n, delta, seed):
    rng = make_rng(seed)
    iu_i, iu_j = np.triu_indices(n, 1)
    m = round(delta * iu_i.size)
    pick = rng.choice(iu_i.size, size=m, replace=False)
    return Graph(n, iu_i[pick], iu_j[pick])


# -- moment statistics --------------------------------------------------------


def test_moments_of_identical_replicates():
    g = random_graph_exact_density(50, 0.12, seed=1)
    m = moment_stats(g, g, g)
    assert m.u1 == pytest.approx(0.12, abs=1e-12)
    assert m.u2 == 0.0 and m.u3 == 0.0


def test_moments_complete_vs_empty_replicates():
    n = 20
    complete = Graph(n, *np.triu_indices(n, 1))
    empty = Graph(n)
    m = moment_stats(complete, empty, empty)
    # every pair is present in exactly one replicate: the pairwise
    # disagreement statistic is per ordered pair, hence 1/2, and the
    # exactly-one statistic 1/3
    assert m.u1 == 1.0
    assert m.u2 == pytest.approx(0.5, abs=1e-15)
    assert m.u3 == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_moments_match_population_values():
    alpha, beta, delta = 0.005, 0.1, 0.05
    g = random_graph_exact_density(200, delta, seed=2)
    assert g.density == pytest.approx(delta, abs=1e-12)
    rng = make_rng(3)
    reps = 200
    vals = np.empty((reps, 3))
    for r in range(reps):
        a1, a2, a3 = (perturb(g, NoiseParams(alpha, beta), rng) for _ in range(3))
        m = moment_stats(a1, a2, a3)
        vals[r] = (m.u1, m.u2, m.u3)
    target = forward_moments(alpha, beta, delta)
    for c, want in enumerate((target.u1, target.u2, target.u3)):
        se = vals[:, c].std(ddof=1) / np.sqrt(reps)
        assert abs(vals[:, c].mean() - want) < 3 * se
    # frozen values of the oracle at these parameters
    assert target.u1 == pytest.approx(0.04975, abs=1e-12)
    assert target.u2 == pytest.approx(0.00922625, abs=1e-12)
    assert target.u3 == pytest.approx(0.00515261875, abs=1e-12)


def test_moments_depend_on_replicate_roles_but_u3_is_symmetric():
    g = random_graph_exact_density(60, 0.1, seed=4)
    rng = make_rng(5)
    a1, a2, a3 = (perturb(g, NoiseParams(0.02, 0.2), rng) for _ in range(3))
    base = moment_stats(a1, a2, a3)
    assert moment_stats(a1, a3, a2).u1 == base.u1  # first replicate fixes u1
    perms = [moment_stats(a1, a3, a2), moment_stats(a3, a2, a1), moment_stats(a2, a1, a3)]
    assert all(m.u3 == base.u3 for m in perms)


def test_moments_invariant_under_consistent_relabeling():
    g = random_graph_exact_density(40, 0.15, seed=6)
    rng = make_rng(7)
    reps = [perturb(g, NoiseParams(0.03, 0.25), rng) for _ in range(3)]
    perm = make_rng(8).permutation(40)
    relabeled = [Graph(40, perm[r.edge_i], perm[r.edge_j]) for r in reps]
    assert moment_stats(*reps) == moment_stats(*relabeled)


def _reference_moment_stats(a1, a2, a3):
    # the set-operation formulas the merged counts replace
    n = a1.n_v
    denom = n * (n - 1)
    u2 = np.setxor1d(a2.codes, a1.codes, assume_unique=True).size / denom
    _, counts = np.unique(np.concatenate([a1.codes, a2.codes, a3.codes]), return_counts=True)
    u3 = 2.0 * int(np.count_nonzero(counts == 1)) / (3.0 * denom)
    return MomentStats(u1=2.0 * a1.n_edges / denom, u2=u2, u3=u3, n_v=n)


def _graph_from_pair_mask(n, mask):
    iu_i, iu_j = np.triu_indices(n, 1)
    keep = np.resize(np.asarray(mask, dtype=bool), iu_i.size)
    return Graph(n, iu_i[keep], iu_j[keep])


_MASKS = st.lists(st.booleans(), min_size=1, max_size=80)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 14), _MASKS, _MASKS, _MASKS)
@example(5, [False], [False], [False])  # all empty
@example(6, [True, False, True], [True, False, True], [True, False, True])  # identical
@example(6, [True, False, False], [False, True, False], [False, False, True])  # disjoint
@example(9, [True], [True], [False])
def test_merged_moments_equal_set_operation_reference(n, m1, m2, m3):
    reps = [_graph_from_pair_mask(n, m) for m in (m1, m2, m3)]
    assert moment_stats(*reps) == _reference_moment_stats(*reps)


@st.composite
def _trial_items(draw):
    # three observations' items t * pairs + k, each observation's sorted and
    # without repeats, as the block path and ``moment_stats`` pass them
    n_trials, pairs = draw(st.integers(1, 5)), draw(st.integers(1, 8))
    items = st.sets(st.integers(0, n_trials * pairs - 1), max_size=3 * pairs)
    return n_trials, pairs, [sorted(draw(items)) for _ in range(3)]


@settings(max_examples=300, deadline=None)
@given(_trial_items())
@example((1, 1, [[], [], []]))  # empty input
@example((3, 2, [[0, 1, 2, 4], [0, 3, 4, 5], [1, 2, 4]]))  # row 1 has no item twice
@example((3, 4, [[1, 2, 9, 11], [1, 9], [1, 2, 11]]))  # first and last rows only
@example((2, 3, [[0, 1, 2, 3, 4, 5], [0, 1, 2, 3, 4, 5], [0, 1, 2, 3, 4, 5]]))
@example((4, 1, [[0, 3], [1, 2], [3]]))  # observations 0 and 2, and 1 and 2
def test_presence_table_equals_a_brute_force_count(case):
    # per trial, the items present in exactly the observations of each
    # pattern (bit r for observation r), counted item by item; cell 0 is 0
    n_trials, pairs, obs = case
    items = np.array([x for o in obs for x in o], dtype=np.int64)
    rep = np.repeat(np.arange(3, dtype=np.int8), [len(o) for o in obs])
    sizes = np.array([[sum(x // pairs == t for x in o) for t in range(n_trials)] for o in obs])
    got = _presence_table(items, rep, sizes, pairs)
    want = np.zeros((n_trials, 8), dtype=np.int64)
    for x in range(n_trials * pairs):
        pattern = sum((x in o) << r for r, o in enumerate(obs))
        want[x // pairs, pattern] += pattern > 0
    assert got.shape == (n_trials, 8)
    assert np.array_equal(got, want)


@st.composite
def _miss_flags(draw):
    # 1-5 trials of 0-6 true edges each, laid end to end, and per edge the
    # three observations' miss flags
    n_true = np.array(draw(st.lists(st.integers(0, 6), min_size=1, max_size=5)),
                      dtype=np.int64)
    bits = draw(st.lists(st.integers(0, 7), min_size=int(n_true.sum()),
                         max_size=int(n_true.sum())))
    flags = (np.array(bits, dtype=np.int64)[None, :] >> np.arange(3)[:, None]) & 1 > 0
    return n_true, flags


@settings(max_examples=300, deadline=None)
@given(_miss_flags())
@example((np.array([4]), np.array([[1, 1, 0, 1], [1, 0, 0, 1], [0, 1, 0, 1]]) > 0))  # one trial
@example((np.array([0]), np.zeros((3, 0), dtype=bool)))  # one edgeless trial
@example((np.array([0, 3, 0]), np.array([[1, 0, 1], [1, 1, 0], [0, 1, 1]]) > 0))  # edgeless ends
@example((np.array([1, 5, 2]), np.ones((3, 8), dtype=bool)))  # unequal sizes, all missed
def test_missed_counts_equal_a_brute_force_count(case):
    # per trial, the edges of each miss pattern (bit r when observation r
    # missed the edge), counted edge by edge
    n_true, flags = case
    got = _missed_counts(flags, n_true)
    want = np.zeros((n_true.size, 8), dtype=np.int64)
    trial = np.repeat(np.arange(n_true.size), n_true)
    for t, edge in zip(trial, flags.T):
        want[t, sum(int(f) << r for r, f in enumerate(edge))] += 1
    assert got.shape == (n_true.size, 8)
    assert np.array_equal(got, want)


def test_moments_dimension_check():
    with pytest.raises(ValueError):
        moment_stats(Graph(3), Graph(4), Graph(3))
    with pytest.raises(ValueError):
        moment_stats(Graph(1), Graph(1), Graph(1))


# -- fixed-point fitting --------------------------------------------------------


def test_fit_recovers_rates_from_exact_moments():
    m = forward_moments(0.005, 0.1, 0.05)
    fit = fit_alpha_beta(m)
    assert fit.converged
    assert abs(fit.alpha_hat - 0.005) < 1e-6
    assert abs(fit.beta_hat - 0.1) < 1e-6
    assert abs(fit.delta_hat - 0.05) < 1e-6


def test_fit_zero_false_edge_rate():
    m = forward_moments(0.0, 0.12, 0.08)
    fit = fit_alpha_beta(m, alpha0=m.u1 / 20)
    assert fit.converged
    assert fit.alpha_hat < 1e-6
    assert abs(fit.beta_hat - 0.12) < 1e-4


def test_fit_on_noiseless_moments_collapses_to_density():
    m = MomentStats(u1=0.3, u2=0.0, u3=0.0, n_v=100)
    fit = fit_alpha_beta(m)
    assert fit.converged
    assert fit.alpha_hat <= 1e-6
    assert fit.beta_hat <= 1e-6
    assert fit.delta_hat == pytest.approx(0.3, abs=1e-6)


@settings(max_examples=40, deadline=None)
@given(
    st.floats(0.001, 0.02),
    st.floats(0.01, 0.3),
    st.floats(0.01, 0.2),
)
def test_fit_stationary_at_truth(alpha, beta, delta):
    fit = fit_alpha_beta(forward_moments(alpha, beta, delta))
    assert fit.converged and fit.iterations <= 10_000
    assert abs(fit.alpha_hat - alpha) < 1e-6
    assert abs(fit.beta_hat - beta) < 1e-6


def test_fit_rmse_shrinks_with_graph_size():
    alpha, beta, delta = 0.01, 0.1, 0.05
    rmse = []
    for n, seed in ((100, 10), (200, 11), (400, 12)):
        g = random_graph_exact_density(n, delta, seed=seed)
        rng = make_rng(seed + 100)
        errs = []
        for _ in range(200):
            reps = [perturb(g, NoiseParams(alpha, beta), rng) for _ in range(3)]
            fit = fit_alpha_beta(moment_stats(*reps))
            errs.append((fit.alpha_hat - alpha) ** 2 + (fit.beta_hat - beta) ** 2)
        rmse.append(float(np.sqrt(np.mean(errs))))
    assert rmse[1] <= rmse[0] * 1.1
    assert rmse[2] <= rmse[1] * 1.1


def test_fit_validation_and_failure_modes():
    m = forward_moments(0.005, 0.1, 0.05)
    with pytest.raises(ValueError):
        fit_alpha_beta(m, alpha0=0.0)
    with pytest.raises(ValueError):
        fit_alpha_beta(m, alpha0=m.u1)
    with pytest.raises(ValueError):
        fit_alpha_beta(m, eps=0.0)
    with pytest.raises(DegenerateMomentsError):
        fit_alpha_beta(MomentStats(u1=2e-13, u2=1e-13, u3=1e-13, n_v=10))
    with pytest.raises(DivergedError):
        fit_alpha_beta(MomentStats(u1=0.05, u2=0.009, u3=0.9, n_v=10))


def test_fit_empty_first_observation_is_degenerate():
    # an empty first replicate leaves no default starting rate; that is a
    # failed fit, not bad input
    with pytest.raises(DegenerateMomentsError):
        fit_alpha_beta(MomentStats(0, 0, 0, 6))
    # an explicit starting rate is the caller's input and stays a ValueError
    with pytest.raises(ValueError) as err:
        fit_alpha_beta(MomentStats(0, 0, 0, 6), alpha0=0.01)
    assert not isinstance(err.value, DegenerateMomentsError)


def test_fit_hits_max_iter_without_exception():
    m = forward_moments(0.005, 0.1, 0.05)
    fit = fit_alpha_beta(m, eps=1e-300, max_iter=3)
    assert not fit.converged
    assert fit.iterations == 3


def test_unconverged_fit_with_unidentifiable_rates_diverges():
    # one pass from the default start lands at alpha_hat + beta_hat > 1; an
    # unconverged fit like that is as unusable as a converged one
    m = MomentStats(0.1, 0.2, 0.1, 100)
    with pytest.raises(DivergedError):
        fit_alpha_beta(m, max_iter=1)
    fits = _fit_rates([m.u1], [m.u2], [m.u3], max_iter=1)
    assert fits.status[0] == FIT_DIVERGED and fits.iterations[0] == 1
    assert np.isnan(fits.alpha_hat[0]) and np.isnan(fits.beta_hat[0])


# -- vector fit -----------------------------------------------------------------


def _scalar_fit(u1, u2, u3, eps=1e-10, max_iter=10_000):
    """The scalar fixed-point fit as it stood before the vector form, on
    Python floats, returning (status, iterations, alpha, beta, delta)
    instead of raising; a failed fit reports the passes it completed."""
    def clamp(x):
        return min(max(x, 1e-12), 1.0 - 1e-9)

    if u1 == 0.0:
        return FIT_DEGENERATE, 0, None, None, None
    alpha_hat = u1 / 10.0
    beta_hat = delta_hat = float("nan")
    iterations = 0
    while iterations < max_iter:
        prev = alpha_hat
        if abs(u1 - prev) < 1e-12:
            return FIT_DEGENERATE, iterations, None, None, None
        beta_hat = clamp((u2 - prev + u1 * prev) / (u1 - prev))
        denom = u1 - u2 - 2.0 * u1 * prev + prev * prev
        if abs(denom) < 1e-300:
            return FIT_DEGENERATE, iterations, None, None, None
        delta_hat = clamp((u1 - prev) ** 2 / denom)
        alpha_raw = (u3 - delta_hat * beta_hat**2 * (1.0 - beta_hat)) / (
            (1.0 - delta_hat) * (1.0 - prev) ** 2
        )
        if not (-0.05 <= alpha_raw <= 1.05):
            return FIT_DIVERGED, iterations, None, None, None
        alpha_hat = clamp(alpha_raw)
        iterations += 1
        if abs(alpha_hat - prev) <= eps:
            status = FIT_CONVERGED
            break
    else:
        status = FIT_UNCONVERGED
    if alpha_hat + beta_hat >= 1.0:
        return FIT_DIVERGED, iterations, None, None, None
    return status, iterations, alpha_hat, beta_hat, delta_hat


_moment_triples = st.one_of(
    # sampled moments around the population values of plausible rates
    st.builds(
        lambda a, b, d, e1, e2, e3: (
            forward_moments(a, b, d).u1 * e1,
            forward_moments(a, b, d).u2 * e2,
            forward_moments(a, b, d).u3 * e3,
        ),
        st.floats(0.0, 0.05), st.floats(0.0, 0.5), st.floats(0.001, 0.5),
        st.floats(0.9, 1.1), st.floats(0.7, 1.3), st.floats(0.3, 1.7),
    ),
    # anything, for the failure modes
    st.tuples(st.floats(0.0, 0.5), st.floats(0.0, 0.5), st.floats(0.0, 0.5)),
    st.just((0.0, 0.0, 0.0)),
    st.just((2e-13, 1e-13, 1e-13)),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(_moment_triples, min_size=1, max_size=30), st.sampled_from([1, 2, 7, 10_000]))
@example([(0.1, 0.2, 0.1), (0.05, 0.009, 0.9), (0.0, 0.0, 0.0), (2e-13, 1e-13, 1e-13)], 1)
def test_vector_fit_is_bit_equal_to_the_scalar_iteration(triples, max_iter):
    u1, u2, u3 = (np.array(col) for col in zip(*triples))
    fits = _fit_rates(u1, u2, u3, max_iter=max_iter)
    for k, triple in enumerate(triples):
        status, iterations, alpha, beta, delta = _scalar_fit(*triple, max_iter=max_iter)
        assert (fits.status[k], fits.iterations[k]) == (status, iterations), triple
        if status <= FIT_UNCONVERGED:
            assert (fits.alpha_hat[k], fits.beta_hat[k], fits.delta_hat[k]) == (
                alpha, beta, delta), triple
        else:
            assert np.isnan([fits.alpha_hat[k], fits.beta_hat[k], fits.delta_hat[k]]).all()


def test_vector_fit_is_bit_equal_to_the_scalar_iteration_on_sampled_moments():
    # a rounding difference in one pass (say, x * x for the C library's
    # x ** 2, which disagree on about one square in a thousand) shows up in
    # some of a few thousand fits
    rng = make_rng(48)
    alpha, beta, delta = rng.uniform(0.001, 0.03, (3, 3000)) * [[1.0], [10.0], [5.0]]
    m = forward_moments(alpha, beta, delta)
    u1, u2, u3 = (u * rng.normal(1.0, s, alpha.size)
                  for u, s in ((m.u1, 0.05), (m.u2, 0.1), (m.u3, 0.3)))
    fits = _fit_rates(u1, u2, u3)
    assert (fits.status == FIT_CONVERGED).mean() > 0.9
    for k in range(alpha.size):
        status, iterations, a, b, d = _scalar_fit(u1[k], u2[k], u3[k])
        assert (fits.status[k], fits.iterations[k]) == (status, iterations)
        if status <= FIT_UNCONVERGED:
            assert (fits.alpha_hat[k], fits.beta_hat[k], fits.delta_hat[k]) == (a, b, d)
