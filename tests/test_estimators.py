import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.stats import binom

from nnc.estimators import (
    MixingRule,
    OutcomeTable,
    RealizedOutcomes,
    _mme_means,
    degree_estimate,
    ht_estimate,
    load_outcome_table,
    mme_estimate,
    realize_outcomes,
)
from nnc.exposure import (
    DET_FLOOR,
    ExposureLevel,
    Treatment,
    _level_probabilities,
    _own_level_probability,
    _s_inverse_entries,
    exposure_levels,
)
from nnc.graphs import Graph, build_graph_configuration
from nnc.noise import NoiseParams, perturb
from nnc.seeding import make_rng
from nnc.theory import naive_estimator_bias

from dense_oracle import random_graph

DILATED = (10.0, 7.0, 5.0, 1.0)


def level_probability_table(d, p):
    """Reference: the four level probabilities of each degree in ``d``, on a
    new last axis in (c11, c10, c01, c00) order."""
    q = (1.0 - p) ** np.asarray(d, dtype=np.float64)
    return np.stack([p * (1.0 - q), p * q, (1.0 - p) * (1.0 - q), (1.0 - p) * q], axis=-1)


def cycle_graph(n):
    return Graph(n, list(range(n)), [(i + 1) % n for i in range(n)])


def exhaustive_ht_expectation(g, table, p):
    """Oracle: exact E[estimate] by enumerating all treatment assignments."""
    n = g.n_v
    acc = [[] for _ in range(4)]
    for bits in range(2**n):
        z = np.array([(bits >> i) & 1 for i in range(n)], dtype=bool)
        w = p ** z.sum() * (1 - p) ** (n - z.sum())
        t = Treatment(p, z)
        realized = realize_outcomes(g, t, table)
        est = ht_estimate(g, exposure_levels(t, g), realized, p)
        for k in range(4):
            acc[k].append(w * est.values[k])
    return np.array([math.fsum(a) for a in acc])


# -- outcome tables and realization -----------------------------------------


def test_outcome_table_constant_and_truth():
    tab = OutcomeTable.constant(3, DILATED)
    assert tab.truth() == pytest.approx(DILATED)
    with pytest.raises(ValueError):
        OutcomeTable(np.full((2, 4), np.inf))
    with pytest.raises(ValueError):
        OutcomeTable.constant(2, (1.0, 2.0))


HEADER = "y_c11,y_c10,y_c01,y_c00\n"


def test_load_outcome_table_reads_four_numbers_per_line():
    tab = load_outcome_table(io.StringIO(HEADER + "1,2,3,4\n\n5,6,7,8.5\n"))
    assert tab.values.tolist() == [[1, 2, 3, 4], [5, 6, 7, 8.5]]
    assert load_outcome_table(io.StringIO(HEADER)).values.shape == (0, 4)


@pytest.mark.parametrize("rows, line", [
    # two short rows must not pair up into one vertex, nor a long row split
    pytest.param("1,2\n3,4\n", 2, id="2_fields"),
    pytest.param("1,2,3,4\n1,2,3\n", 3, id="3_fields"),
    pytest.param("1,2,3,4,5\n", 2, id="5_fields"),
    pytest.param("1,2,3,4,5,6,7,8\n", 2, id="8_fields"),
    pytest.param("1,2,3,4\n1,2,x,4\n", 3, id="non_number"),
])
def test_load_outcome_table_names_the_malformed_line(rows, line):
    with pytest.raises(ValueError, match=f"^line {line}: "):
        load_outcome_table(io.StringIO(HEADER + rows))


def test_realize_outcomes_cases():
    g = Graph(3, [0], [1])  # node 2 isolated
    tab = OutcomeTable.constant(3, DILATED)
    t_none = Treatment(0.1, np.array([False, False, False]))
    r = realize_outcomes(g, t_none, tab)
    assert r.values[2] == 1.0  # isolated untreated: c00
    t_self = Treatment(0.1, np.array([True, False, False]))
    r = realize_outcomes(g, t_self, tab)
    assert r.values[0] == 7.0  # treated, no treated neighbor: c10
    t_nbr = Treatment(0.1, np.array([False, True, False]))
    r = realize_outcomes(g, t_nbr, tab)
    assert r.values[0] == 5.0  # untreated with one treated neighbor: c01


# -- inverse-probability estimator -------------------------------------------


def test_ht_exhaustive_unbiasedness_small_graph():
    g = cycle_graph(6)
    rng = make_rng(41)
    tab = OutcomeTable(rng.uniform(-2.0, 10.0, size=(6, 4)))
    got = exhaustive_ht_expectation(g, tab, 0.3)
    assert np.abs(got - tab.truth()).max() < 1e-12


def test_ht_single_isolated_node():
    g = Graph(1)
    tab = OutcomeTable.constant(1, DILATED)
    p = 0.25
    t1 = Treatment(p, np.array([True]))
    est1 = ht_estimate(g, exposure_levels(t1, g), realize_outcomes(g, t1, tab), p)
    assert est1[ExposureLevel.C10] == pytest.approx(7.0 / p)
    t0 = Treatment(p, np.array([False]))
    est0 = ht_estimate(g, exposure_levels(t0, g), realize_outcomes(g, t0, tab), p)
    assert est0[ExposureLevel.C10] == 0.0
    assert est0[ExposureLevel.C00] == pytest.approx(1.0 / (1 - p))


def test_ht_noisy_mode_with_zero_noise_matches_true_mode():
    g = cycle_graph(8)
    tab = OutcomeTable.constant(8, DILATED)
    rng = make_rng(42)
    t = Treatment(0.2, rng.random(8) < 0.2)
    realized = realize_outcomes(g, t, tab)
    obs = perturb(g, NoiseParams(0.0, 0.0), rng)
    a = ht_estimate(g, realized.levels, realized, 0.2)
    b = ht_estimate(obs, exposure_levels(t, obs), realized, 0.2)
    assert np.array_equal(a.values, b.values)


def test_ht_rejects_levels_of_wrong_shape():
    g = cycle_graph(5)
    t = Treatment(0.2, np.array([True, False, False, True, False]))
    realized = realize_outcomes(g, t, OutcomeTable.constant(5, DILATED))
    for bad in (realized.levels[:-1], realized.levels[None, :], 0):
        with pytest.raises(ValueError):
            ht_estimate(g, bad, realized, 0.2)


# -- degree correction --------------------------------------------------------


@pytest.mark.parametrize("p", [0.01, 0.1, 0.5, 0.9])
def test_own_level_probability_is_the_matrix_entry_bit_for_bit(p):
    # each vertex's own entry alone gives the bits of the gather from the
    # full (..., 4) table of the four closed forms
    rng = make_rng(17)
    degrees = rng.integers(0, 400, size=(5, 300))
    degrees[:, :20] = 0
    levels = rng.integers(0, 4, size=degrees.shape)
    assert set(np.unique(levels)) == {0, 1, 2, 3}
    pm = level_probability_table(degrees, p)
    want = np.take_along_axis(pm, levels[..., None], axis=-1)[..., 0]
    got = _own_level_probability(degrees, levels, p)
    assert got.shape == want.shape and (got == want).all()


def test_degree_estimate_examples():
    assert degree_estimate(10, 0.0, 0.0, 100) == 10.0
    assert degree_estimate(10, 0.01, 0.1, 100) == pytest.approx(10.123595505617977, abs=1e-12)
    assert degree_estimate(100 * 0.01, 0.01, 0.1, 101) == pytest.approx(0.0, abs=1e-12)
    out = degree_estimate(np.array([0, 10]), 0.01, 0.1, 100)
    assert out.shape == (2,) and out[0] < 0  # negatives are the caller's job
    with pytest.raises(ValueError):
        degree_estimate(10, 0.6, 0.4, 100)


# -- per-node correction ------------------------------------------------------


def test_mme_node_monte_carlo_identity():
    # oracle: simulate (treatment, noise) for one vertex of true degree 8 and
    # check the corrected vector is unbiased for its potential outcomes
    n_v, d, p, alpha, beta = 200, 8, 0.1, 0.005, 0.1
    reps = 100_000
    rng = make_rng(43)
    z_i = rng.random(reps) < p
    treated_nbrs = rng.binomial(d, p, reps)
    treated_non = rng.binomial(n_v - 1 - d, p, reps)
    obs_treated = rng.binomial(treated_nbrs, 1 - beta) + rng.binomial(treated_non, alpha)
    true_lv = np.where(z_i, np.where(treated_nbrs > 0, 0, 1), np.where(treated_nbrs > 0, 2, 3))
    obs_lv = np.where(z_i, np.where(obs_treated > 0, 0, 1), np.where(obs_treated > 0, 2, 3))
    y = np.asarray(DILATED)
    y_tilde = np.zeros((reps, 4))
    y_tilde[np.arange(reps), obs_lv] = y[true_lv]

    i11, i12, i21, i22, _ = _s_inverse_entries(d, n_v, p, alpha, beta)
    s_inv = np.array([[i11, i12], [i21, i22]])
    p_inv = np.zeros((4, 4))
    p_inv[:2, :2] = s_inv
    p_inv[2:, 2:] = p / (1 - p) * s_inv
    corrected = y_tilde @ p_inv.T
    se = corrected.std(axis=0, ddof=1) / math.sqrt(reps)
    assert np.all(np.abs(corrected.mean(axis=0) - y) < 3 * se)


# -- mixing rule ---------------------------------------------------------------


def test_order_of_magnitude_thresholds_at_p_point_one():
    rule = MixingRule.order_of_magnitude(0.1)
    assert rule.c1 == pytest.approx(10 / math.sqrt(10), abs=1e-12)
    assert rule.c2 == pytest.approx(10 * math.sqrt(10), abs=1e-12)
    assert rule.c1 == pytest.approx(3.16227766, abs=1e-7)
    assert rule.c2 == pytest.approx(31.6227766, abs=1e-6)


def test_order_of_magnitude_brackets_inverse_p():
    for p in (0.3, 0.1, 0.05, 0.01, 0.007, 0.2):
        rule = MixingRule.order_of_magnitude(p)
        assert rule.c1 <= 1.0 / p < rule.c2


def test_mixing_rule_acceptance_regions():
    oom = MixingRule.order_of_magnitude(0.1)
    assert list(oom.accepts(np.array([3.0, 3.17, 31.5, 31.63]))) == [False, True, True, False]
    sparse = MixingRule.sparse_fallback()
    assert list(sparse.accepts(np.array([0.0, 0.99, 1.0, 50.0]))) == [False, False, True, True]


@pytest.mark.parametrize("args, match", [
    pytest.param(("bogus",), "^mixing mode must be one of", id="unknown_mode"),
    pytest.param(("order_of_magnitude",), "^order_of_magnitude needs", id="oom_without_cuts"),
    pytest.param(("order_of_magnitude", 2.0, 1.0), "^order_of_magnitude needs",
                 id="oom_reversed_cuts"),
    pytest.param(("order_of_magnitude", 0.0, 1.0), "^order_of_magnitude needs",
                 id="oom_zero_cut"),
    pytest.param(("order_of_magnitude", 1.0, math.inf), "^order_of_magnitude needs",
                 id="oom_infinite_cut"),
    pytest.param(("order_of_magnitude", math.nan, 2.0), "^order_of_magnitude needs",
                 id="oom_nan_cut"),
    pytest.param(("order_of_magnitude", "1", "2"), "^order_of_magnitude needs",
                 id="oom_text_cuts"),
    pytest.param(("sparse_fallback", 1.0, 2.0), "^sparse_fallback takes no cuts",
                 id="sparse_fallback_with_cuts"),
    pytest.param(("sparse_fallback", None, 2.0), "^sparse_fallback takes no cuts",
                 id="sparse_fallback_with_one_cut"),
])
def test_mixing_rule_refuses_a_rule_it_could_not_apply(args, match):
    # each of these failed only inside the estimator (a bare TypeError for
    # missing cuts, the unknown mode at its first use) or ran with its cuts
    # silently ignored
    with pytest.raises(ValueError, match=match):
        MixingRule(*args)
    # the factories still make valid rules
    MixingRule.sparse_fallback()
    for p in (1e-9, 0.01, 0.1, 0.5, 1.0 - 1e-9):
        MixingRule.order_of_magnitude(p)


@pytest.mark.parametrize("p", [1e-310, 5e-309, 1e-308, 5e-308])
def test_order_of_magnitude_refuses_a_p_whose_cuts_overflow(p):
    # 1/p overflowed math.floor (OverflowError) and 10/p gave an infinite cut
    with pytest.raises(ValueError, match="too small for order_of_magnitude"):
        MixingRule.order_of_magnitude(p)
    rule = MixingRule.order_of_magnitude(1e-306)
    assert rule.c1 <= 1e306 < rule.c2 < math.inf


# -- full corrected estimator ---------------------------------------------------


def test_mme_estimate_zero_noise_matches_ht():
    g = cycle_graph(12)
    tab = OutcomeTable.constant(12, DILATED)
    rng = make_rng(44)
    t = Treatment(0.2, rng.random(12) < 0.2)
    realized = realize_outcomes(g, t, tab)
    ht = ht_estimate(g, realized.levels, realized, 0.2)
    for rule in (MixingRule.sparse_fallback(), MixingRule.order_of_magnitude(0.2)):
        res = mme_estimate(g, realized.levels, realized, 0.2, NoiseParams(0.0, 0.0), rule)
        assert res.means.values == pytest.approx(ht.values, rel=1e-12, abs=1e-12)
        assert res.n_singular_fallback == 0


def test_mme_estimate_fallback_terms_are_bit_identical_to_ht():
    # large false-edge rate estimate drives every corrected degree below 1,
    # so the sparse rule routes every vertex to its plain weighted term
    g = cycle_graph(10)
    tab = OutcomeTable.constant(10, DILATED)
    rng = make_rng(45)
    t = Treatment(0.1, rng.random(10) < 0.1)
    obs = perturb(g, NoiseParams(0.05, 0.2), rng)
    realized = realize_outcomes(g, t, tab)
    lv = exposure_levels(t, obs)
    noise_hat = NoiseParams(0.45, 0.3)  # (n-1) * 0.45 = 4.05 > max degree
    res = mme_estimate(obs, lv, realized, 0.1, noise_hat, MixingRule.sparse_fallback())
    assert res.n_corrected == 0
    assert res.n_rule_fallback == 10
    ht = ht_estimate(obs, lv, realized, 0.1)
    assert np.array_equal(res.means.values, ht.values)

    # routing follows the corrected degree from d_obs: observed degree 9
    # gives d_hat = 19.8 (corrected), 0 gives d_hat = 0 (falls back); the
    # fallback weights still come from the observed graph's own degrees,
    # which are neither 0 nor 9
    high = np.arange(10) < 5
    d_obs = np.where(high, 9.0, 0.0)
    assert not np.isin(obs.degrees, (0, 9)).any()
    # zero outcomes make the corrected vertices contribute exactly nothing,
    # leaving the fallback vertices' inverse-probability terms on obs
    quiet = RealizedOutcomes(realized.levels, np.where(high, 0.0, realized.values))
    res = mme_estimate(obs, lv, quiet, 0.1, noise_hat, MixingRule.sparse_fallback(),
                       d_obs=d_obs)
    assert (res.n_corrected, res.n_rule_fallback, res.n_singular_fallback) == (5, 5, 0)
    assert np.array_equal(res.means.values, ht_estimate(obs, lv, quiet, 0.1).values)


def test_mme_estimate_singular_blocks_fall_back():
    # beta_hat just below 1 is identifiable, but it blows every corrected
    # degree up so far that (1-p)^d_hat, and with it the treated-block
    # determinant, underflows to zero
    g = Graph(13, list(range(12)), [(i + 1) % 12 for i in range(12)])  # vertex 12 isolated
    tab = OutcomeTable.constant(13, DILATED)
    rng = make_rng(48)
    t = Treatment(0.2, rng.random(13) < 0.2)
    realized = realize_outcomes(g, t, tab)
    noise_hat = NoiseParams(0.0, 1 - 1e-13)
    assert noise_hat.identifiable
    res = mme_estimate(g, realized.levels, realized, 0.2, noise_hat,
                       MixingRule.sparse_fallback())
    # the rule accepts the twelve cycle vertices and rejects the isolated one
    assert (res.n_corrected, res.n_rule_fallback, res.n_singular_fallback) == (0, 1, 12)
    ht = ht_estimate(g, realized.levels, realized, 0.2)
    assert np.array_equal(res.means.values, ht.values)


def test_mme_estimate_default_degrees_are_the_observed_graphs():
    g = cycle_graph(30)
    tab = OutcomeTable.constant(30, DILATED)
    rng = make_rng(47)
    obs = perturb(g, NoiseParams(0.02, 0.1), rng)
    t = Treatment(0.2, rng.random(30) < 0.2)
    realized = realize_outcomes(g, t, tab)
    lv = exposure_levels(t, obs)
    noise_hat = NoiseParams(0.02, 0.1)
    rule = MixingRule.sparse_fallback()
    default = mme_estimate(obs, lv, realized, 0.2, noise_hat, rule)
    explicit = mme_estimate(obs, lv, realized, 0.2, noise_hat, rule, d_obs=obs.degrees)
    assert default.n_corrected > 0
    assert np.array_equal(default.means.values, explicit.means.values)
    assert (default.n_corrected, default.n_rule_fallback, default.n_singular_fallback) == (
        explicit.n_corrected, explicit.n_rule_fallback, explicit.n_singular_fallback)
    with pytest.raises(ValueError):
        mme_estimate(obs, lv, realized, 0.2, noise_hat, rule, d_obs=obs.degrees[:-1])


def test_mme_estimate_counts_and_validation():
    g = cycle_graph(10)
    tab = OutcomeTable.constant(10, DILATED)
    rng = make_rng(46)
    t = Treatment(0.1, rng.random(10) < 0.1)
    realized = realize_outcomes(g, t, tab)
    lv, rule = realized.levels, MixingRule.sparse_fallback()
    res = mme_estimate(g, lv, realized, 0.1, NoiseParams(0.01, 0.1), rule)
    assert res.n_corrected + res.n_rule_fallback + res.n_singular_fallback == 10
    with pytest.raises(ValueError):
        mme_estimate(g, lv, realized, 0.1, NoiseParams(0.6, 0.5), rule)
    with pytest.raises(ValueError):
        mme_estimate(g, lv[:-1], realized, 0.1, NoiseParams(0.01, 0.1), rule)


# -- exact expectation of the corrected estimator -------------------------------


def _per_level_mme(g_obs, lv, v, p, alpha, beta, d_obs):
    """Reference: the corrected estimator with one numpy sum per level, the
    form the one-trial estimator had before the block kernel. Returns the
    level means and, per level, the sum of the absolute terms."""
    n = g_obs.n_v
    d_hat = np.maximum((d_obs - (n - 1) * alpha) / (1.0 - alpha - beta), 0.0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        i11, i12, i21, i22, det = _s_inverse_entries(d_hat, n, p, alpha, beta)
    corrected = (d_hat >= 1.0) & np.isfinite(det) & (det > DET_FLOOR)
    pr = level_probability_table(g_obs.degrees, p)[np.arange(n), lv]
    fall = ~corrected
    est = np.bincount(lv[fall], weights=v[fall] / pr[fall], minlength=4).astype(float)
    size = np.bincount(lv[fall], weights=np.abs(v[fall] / pr[fall]), minlength=4)
    f = p / (1.0 - p)
    for level, top, bottom, scale, first in (
        (0, i11, i21, 1.0, 0), (1, i12, i22, 1.0, 0), (2, i11, i21, f, 2), (3, i12, i22, f, 2),
    ):
        m = corrected & (lv == level)
        for k, entry in ((first, top), (first + 1, bottom)):
            est[k] += scale * float((v[m] * entry[m]).sum())
            size[k] += scale * float(np.abs(v[m] * entry[m]).sum())
    return est / n, size / n


def test_mme_level_sums_agree_with_per_level_sums_to_rounding():
    # the block kernel adds each level's corrected terms in vertex order
    # (one bincount); a per-level numpy sum adds them pairwise. Both are
    # float64 sums of the same n terms, so they differ by rounding only,
    # within n * eps of the sum of the absolute terms
    rng = make_rng(47)
    n = 3000
    g = build_graph_configuration(np.minimum(rng.poisson(12.0, n) + 1, 40), rng)
    t = Treatment(0.1, rng.random(n) < 0.1)
    noise = NoiseParams(0.002, 0.1)
    obs = perturb(g, noise, rng)
    values = rng.normal(size=(n, 4)) * 3.0 + np.array(DILATED)
    realized = realize_outcomes(g, t, OutcomeTable(values))
    lv = exposure_levels(t, obs)
    d_obs = obs.degrees + rng.integers(-1, 2, n)
    res = mme_estimate(obs, lv, realized, 0.1, noise, MixingRule.sparse_fallback(),
                       d_obs=d_obs)
    want, size = _per_level_mme(obs, lv, realized.values, 0.1, noise.alpha, noise.beta,
                                d_obs)
    assert res.n_corrected > n // 2
    gap = np.abs(res.means.values - want)
    assert np.all(gap <= n * np.finfo(float).eps * size), (gap, size)
    assert np.any(gap > 0.0)  # the two summation orders do differ here


def _binomial_pmf(n, q):
    return binom.pmf(np.arange(n + 1), n, q)


def exact_mme_bias(degrees, y, p, noise, pooled, correct=True):
    """Oracle: exact E[MME] - truth at known rates, constant outcomes ``y``.

    The estimator is a mean of per-vertex terms. A vertex of true degree d
    sees k ~ Bin(d, 1-beta) kept and f ~ Bin(n-1-d, alpha) false edges in
    replicate 0, which classifies it; given (k, f), its own treatment and
    whether any kept, dropped or false neighbor is treated are independent.
    With ``pooled`` the corrected degree comes from the mean observed degree
    of three replicates, so the summed degree s of replicates 1 and 2,
    Bin(2d, 1-beta) + Bin(2(n-1-d), alpha), is enumerated too. With
    ``correct=False`` every vertex falls back, giving the uncorrected
    estimator on replicate 0.
    """
    n = len(degrees)
    a, b = noise.alpha, noise.beta
    rule = MixingRule.sparse_fallback()
    total = np.zeros(4)
    for d in (int(x) for x in degrees):
        o = n - 1 - d
        k = np.arange(d + 1)[:, None, None]
        f = np.arange(o + 1)[None, :, None]
        w = _binomial_pmf(d, 1 - b)[:, None, None] * _binomial_pmf(o, a)[None, :, None]
        if pooled:
            ps = np.convolve(_binomial_pmf(2 * d, 1 - b), _binomial_pmf(2 * o, a))
            w = w * ps
            d_obs = (k + f + np.arange(ps.size)) / 3.0
        else:
            d_obs = (k + f) * 1.0
        d0 = np.broadcast_to(k + f, w.shape)
        d_hat = np.maximum(degree_estimate(d_obs, a, b, n), 0.0)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            i11, i12, i21, i22, det = _s_inverse_entries(d_hat, n, p, a, b)
        corr = correct & rule.accepts(d_hat) & np.isfinite(det) & (det > DET_FLOOR)
        pm = level_probability_table(d0, p)
        qk, qdrop, qf = (1 - p) ** k, (1 - p) ** (d - k), (1 - p) ** f
        # (true neighbor hit, observed neighbor hit) -> probability
        hits = (
            (0, 0, 1 - qk + qk * (1 - qdrop) * (1 - qf)),
            (0, 1, qk * (1 - qdrop) * qf),
            (1, 0, qk * qdrop * (1 - qf)),
            (1, 1, qk * qdrop * qf),
        )
        for arm, p_arm, scale in ((0, p, 1.0), (1, 1 - p, p / (1 - p))):
            for true_miss, obs_miss, p_hit in hits:
                v = y[2 * arm + true_miss]
                ww = w * p_arm * p_hit
                lv = 2 * arm + obs_miss
                ipw = np.divide(v, pm[..., lv], out=np.zeros(w.shape), where=~corr & (ww > 0))
                total[lv] += np.sum(ww * ipw)
                ia, ib = (i11, i21) if obs_miss == 0 else (i12, i22)
                total[2 * arm] += np.sum(ww[corr] * scale * v * ia[corr])
                total[2 * arm + 1] += np.sum(ww[corr] * scale * v * ib[corr])
    return total / n - np.asarray(y)


def test_three_replicate_degree_cuts_exact_mme_bias():
    # the inverse-confusion entries are exponential in d_hat, so the plug-in
    # bias grows with Var(d_hat); averaging three replicates' degrees cuts it
    g = build_graph_configuration(np.array([3, 4, 5, 6] * 7 + [4, 6]), make_rng(1))
    assert g.n_v == 30 and g.degrees.min() >= 3 and g.degrees.max() <= 6
    y, p = np.asarray(DILATED), 0.1
    noise = NoiseParams(0.02, 0.15)

    # the oracle reproduces the exact parts of the uncorrected-bias theory
    naive = exact_mme_bias(g.degrees, y, p, noise, pooled=False, correct=False)
    pred = naive_estimator_bias(g.degrees, OutcomeTable.constant(30, DILATED), noise, p)
    assert naive[[1, 3]] == pytest.approx(pred.values[[1, 3]], rel=1e-12, abs=1e-12)
    # and is exactly unbiased without noise
    for pooled in (False, True):
        clean = exact_mme_bias(g.degrees, y, p, NoiseParams(0.0, 0.0), pooled)
        assert np.abs(clean).max() < 1e-12

    single = exact_mme_bias(g.degrees, y, p, noise, pooled=False)
    pooled = exact_mme_bias(g.degrees, y, p, noise, pooled=True)
    assert np.all(np.abs(pooled) < np.abs(single)), (single, pooled)
    assert np.all(np.abs(pooled[[1, 3]]) < 0.5 * np.abs(single[[1, 3]])), (single, pooled)


# -- inverse-confusion entries once per (trial, code) key -----------------------


def _per_vertex_mme_means(levels, values, pr, d_obs, p, alpha, beta, rule):
    """Reference: ``_mme_means`` as it was before the keyed table, with every
    vertex's corrected degree, rule, inverse-confusion entries and
    determinant check made from its own observed degree ``d_obs`` (T, n)."""
    t, n = levels.shape
    a, b = alpha[:, None], beta[:, None]
    d_hat = np.maximum(degree_estimate(d_obs, a, b, n), 0.0)
    want = rule.accepts(d_hat)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        i11, i12, i21, i22, det = _s_inverse_entries(d_hat, n, p, a, b)
        ok = np.isfinite(det) & (det > DET_FLOOR)
        corrected = want & ok
        first = levels % 2 == 0
        top = values * np.where(first, i11, i12)
        bottom = values * np.where(first, i21, i22)
    keys = levels + 4 * np.arange(t)[:, None]
    fall = ~corrected
    fall_keys, keys = keys[fall], keys[corrected]
    est = np.zeros(4 * t)
    est += np.bincount(fall_keys, weights=values[fall] / pr[fall], minlength=4 * t)
    est = est.reshape(t, 4)
    top = np.bincount(keys, weights=top[corrected], minlength=4 * t).reshape(t, 4)
    bottom = np.bincount(keys, weights=bottom[corrected], minlength=4 * t).reshape(t, 4)
    f = p / (1.0 - p)
    est[:, 0] += top[:, 0]
    est[:, 0] += top[:, 1]
    est[:, 1] += bottom[:, 0]
    est[:, 1] += bottom[:, 1]
    est[:, 2] += f * top[:, 2]
    est[:, 2] += f * top[:, 3]
    est[:, 3] += f * bottom[:, 2]
    est[:, 3] += f * bottom[:, 3]
    terms = np.bincount(fall_keys, minlength=4 * t).reshape(t, 4)
    arm = np.bincount(keys, minlength=4 * t).reshape(t, 2, 2).sum(axis=2)
    terms += np.repeat(arm, 2, axis=1)
    counts = np.stack(
        [arm.sum(axis=1), (~want).sum(axis=1), (want & ~ok).sum(axis=1)], axis=1
    )
    return est / n, terms, counts


# the robustness probe's rates, paired where the correction is defined
_PROBE_RATES = (0.0, 1e-12, 0.01, 0.3, 0.9, 1.0 - 1e-12, 1.0)
_RATE_PAIRS = tuple((a, b) for a in _PROBE_RATES for b in _PROBE_RATES if a + b < 1.0)


def _mme_case(t, n, rates, p, seed, top, rule):
    """One block's MME inputs: (T, n) three-replicate degree sums in [0,
    ``top``], trial 0's vertex 0 at ``top`` itself, and one rate pair per
    trial. ``rule`` is a mode, or "cut_low" / "cut_high" for an
    order-of-magnitude rule whose lower / upper cut is trial 0's vertex 0's
    corrected degree exactly (a sparse rule when that degree is 0)."""
    rng = make_rng(seed)
    sums = rng.integers(0, top + 1, (t, n))
    sums[0, 0] = top
    levels = rng.integers(0, 4, (t, n))
    values = rng.normal(size=(t, n)) * 3.0 + 5.0
    pr = rng.uniform(1e-3, 1.0, (t, n))
    alpha, beta = np.array(rates, dtype=np.float64).reshape(t, 2).T
    if rule.startswith("cut"):
        d = max(degree_estimate(top / 3.0, alpha[0], beta[0], n), 0.0)
        if d / 2.0 > 0.0 and math.isfinite(2.0 * d):
            cuts = (d / 2.0, d) if rule == "cut_high" else (d, 2.0 * d)
            rule = MixingRule("order_of_magnitude", *cuts)
        else:
            rule = MixingRule.sparse_fallback()
    elif rule == "order_of_magnitude":
        rule = MixingRule.order_of_magnitude(p)
    else:
        rule = MixingRule.sparse_fallback()
    return levels, values, pr, sums, p, alpha, beta, rule


@st.composite
def _mme_cases(draw):
    t = draw(st.integers(1, 4))
    n = draw(st.integers(2, 300))
    return dict(
        t=t, n=n, rates=tuple(draw(st.sampled_from(_RATE_PAIRS)) for _ in range(t)),
        p=draw(st.floats(1e-9, 1.0 - 1e-9)), seed=draw(st.integers(0, 2**32 - 1)),
        top=draw(st.integers(0, 3 * (n - 1))),
        rule=draw(st.sampled_from(
            ("sparse_fallback", "order_of_magnitude", "cut_low", "cut_high"))),
    )


def _same_bits(got, want):
    means, terms, counts = got
    ref_means, ref_terms, ref_counts = want
    assert np.array_equal(means.view(np.int64), ref_means.view(np.int64)), (means, ref_means)
    assert np.array_equal(terms, ref_terms)
    assert np.array_equal(counts, ref_counts)
    assert counts.dtype == np.int64


_MME_EXAMPLES = (
    # every corrected degree clamped to 0 in trial 0, routed by the rule
    dict(t=2, n=50, rates=((0.9, 0.0), (0.3, 0.01)), p=0.1, seed=1, top=30,
         rule="sparse_fallback"),
    # beta_hat near 1: non-finite and singular blocks fall back
    dict(t=1, n=13, rates=((0.0, 1.0 - 1e-12),), p=0.2, seed=2, top=36,
         rule="sparse_fallback"),
    # a hub of degree n - 1, and ties at an upper and at a lower cut
    dict(t=3, n=300, rates=((0.01, 0.3), (1e-12, 0.9), (0.0, 0.0)), p=1e-9, seed=3,
         top=897, rule="cut_high"),
    dict(t=2, n=40, rates=((0.0, 0.0), (0.01, 0.01)), p=0.5, seed=4, top=117,
         rule="cut_low"),
    # four trials with their own rates, p near 1
    dict(t=4, n=200, rates=((0.01, 0.3), (0.0, 0.01), (0.3, 0.0), (1e-12, 0.9)),
         p=1.0 - 1e-9, seed=5, top=40, rule="order_of_magnitude"),
)


def _with_examples(test):
    for case in _MME_EXAMPLES:
        test = example(case)(test)
    return test


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_mme_cases())
@_with_examples
def test_keyed_mme_means_equal_the_per_vertex_form_bit_for_bit(case):
    # the block path: codes are the exact three-replicate degree sums
    levels, values, pr, sums, p, alpha, beta, rule = _mme_case(**case)
    got = _mme_means(levels, values, pr, sums, lambda s: s / 3.0, p, alpha, beta, rule)
    _same_bits(got, _per_vertex_mme_means(levels, values, pr, sums / 3.0, p, alpha, beta,
                                          rule))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_mme_cases())
@_with_examples
def test_mme_estimate_keys_a_float_d_obs_bit_for_bit(case):
    # the per-graph path: a float d_obs that is no multiple of 1/3, with
    # negative and repeated values, is keyed by its distinct values; the
    # default keys are the observed graph's integer degrees
    levels, values, pr, sums, p, alpha, beta, rule = _mme_case(**case)
    n = levels.shape[1]
    g = random_graph(n, 0.05, case["seed"])
    # an isolated vertex sees no treated neighbour
    lv, v = np.where(g.degrees == 0, levels[0] | 1, levels[0]), values[0]
    realized = RealizedOutcomes(lv, v)
    noise = NoiseParams(alpha[0], beta[0])
    pr = _level_probabilities(g.degrees[None], lv[None], p)
    for d_obs in ((sums[0] - 2) / 7.0, None):
        res = mme_estimate(g, lv, realized, p, noise, rule, d_obs=d_obs)
        d_ref = (g.degrees if d_obs is None else d_obs)[None]
        means, _, counts = _per_vertex_mme_means(lv[None], v[None], pr, d_ref, p, alpha[:1],
                                                 beta[:1], rule)
        assert np.array_equal(res.means.values.view(np.int64), means[0].view(np.int64))
        assert (res.n_corrected, res.n_rule_fallback, res.n_singular_fallback) == tuple(
            counts[0])


# the per-vertex form's traced peak on the sums below, with or without the hub
_MME_PEAK_BOUND = int(8.5 * 2**20)


@pytest.mark.parametrize("hub", [False, True], ids=["ztp_sums", "with_a_hub"])
def test_keyed_mme_means_allocate_no_more_than_the_per_vertex_form(hub):
    # one trial of n = 1e5 at ZTP(10) degrees: the per-vertex form's peak is
    # 8.49 MiB with or without a vertex of degree n - 1, and the keyed
    # form's 3.8 MiB in both. Entries made at every sum up to the largest,
    # not only at those that occur, peak at 41 MiB with the hub
    n = 100_000
    rng = make_rng(5)
    deg = np.maximum(rng.poisson(10.0, n), 1)
    sums = np.clip(3 * deg + rng.integers(-3, 4, n), 0, 3 * (n - 1))[None]
    if hub:
        sums[0, -1] = 3 * (n - 1)
    levels = rng.integers(0, 4, (1, n))
    values = np.array(DILATED)[rng.integers(0, 4, (1, n))]
    pr = rng.uniform(0.05, 1.0, (1, n))
    args = (levels, values, pr, sums, lambda s: s / 3.0, 0.01, np.array([1e-5]),
            np.array([0.1]), MixingRule.sparse_fallback())
    _mme_means(*args)
    tracemalloc.start()
    try:
        _mme_means(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= _MME_PEAK_BOUND, peak / 2**20
