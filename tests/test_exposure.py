import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nnc.exposure import (
    DET_FLOOR,
    ExposureLevel,
    Treatment,
    _s_inverse_entries,
    assign_treatment,
    confusion_matrix,
    exposure_levels,
    exposure_probabilities,
    exposure_probabilities_generalized,
)
from nnc.graphs import Graph
from nnc.noise import NoiseParams
from nnc.seeding import make_rng

from dense_oracle import dense_adjacency


# -- independent oracles -----------------------------------------------------


def enumerate_level_probs(d, p, m=1):
    """Exact level probabilities by summing all 2**(d+1) treatment patterns."""
    probs = np.zeros(4)
    for bits in itertools.product((0, 1), repeat=d + 1):
        z_i, nbrs = bits[0], bits[1:]
        w = math.prod(p if b else 1 - p for b in bits)
        hit = sum(nbrs) >= m
        level = (0 if hit else 1) if z_i else (2 if hit else 3)
        probs[level] += w
    return probs


def enumerate_confusion(d, n_v, p, alpha, beta):
    """Exact joint law of (observed level, true level) for one vertex.

    Enumerates every treatment pattern of the vertex and its n_v - 1
    potential partners jointly with every on/off pattern of its incident
    observed edges (the first d partners are true neighbors).
    """
    others = n_v - 1
    s = np.zeros((2, 2))
    q = np.zeros((2, 2))
    for z in itertools.product((0, 1), repeat=others + 1):
        z_i, z_o = z[0], z[1:]
        wz = math.prod(p if b else 1 - p for b in z)
        true_hit = sum(z_o[:d]) > 0
        for obs in itertools.product((0, 1), repeat=others):
            wf = 1.0
            for k, o in enumerate(obs):
                if k < d:
                    wf *= (1 - beta) if o else beta
                else:
                    wf *= alpha if o else (1 - alpha)
            obs_hit = any(o and t for o, t in zip(obs, z_o))
            row = 0 if obs_hit else 1
            col = 0 if true_hit else 1
            if z_i:
                s[row, col] += wz * wf
            else:
                q[row, col] += wz * wf
    return s, q


# -- treatment assignment ----------------------------------------------------


def test_assign_treatment_frequency_and_determinism():
    rng = make_rng(31)
    t = assign_treatment(100_000, 0.1, rng)
    se = math.sqrt(0.1 * 0.9 / 100_000)
    assert abs(t.z.mean() - 0.1) < 3 * se
    assert np.array_equal(assign_treatment(50, 0.3, make_rng(8)).z,
                          assign_treatment(50, 0.3, make_rng(8)).z)


def test_assign_treatment_all_zero_probability():
    rng = make_rng(32)
    draws = 20_000
    hits = sum(not assign_treatment(4, 0.3, rng).z.any() for _ in range(draws))
    target = 0.7**4
    se = math.sqrt(target * (1 - target) / draws)
    assert abs(hits / draws - target) < 3 * se


def test_assign_treatment_validation():
    with pytest.raises(ValueError):
        assign_treatment(10, 0.0, make_rng(0))
    with pytest.raises(ValueError):
        assign_treatment(10, 1.0, make_rng(0))
    with pytest.raises(ValueError):
        Treatment(1.5, np.zeros(3, dtype=bool))


# -- level classification ----------------------------------------------------


def test_exposure_level_cases():
    g = Graph(4, [0, 0], [1, 2])  # node 3 isolated
    lv = exposure_levels(Treatment(0.5, np.array([True, False, False, True])), g)
    assert lv[3] == ExposureLevel.C10
    assert lv[1] == ExposureLevel.C01
    assert lv[2] == ExposureLevel.C01
    lv2 = exposure_levels(Treatment(0.5, np.array([True, True, False, False])), g)
    assert lv2[0] == ExposureLevel.C11
    assert lv2[2] == ExposureLevel.C01
    assert lv2[3] == ExposureLevel.C00
    with pytest.raises(ValueError, match="vertex count"):
        exposure_levels(Treatment(0.5, np.array([True, False, True])), g)


def test_exposure_levels_partition_is_exhaustive():
    rng = make_rng(33)
    g = Graph(6, [0, 1, 2, 3, 4], [1, 2, 3, 4, 5])
    for _ in range(50):
        t = assign_treatment(6, 0.4, rng)
        lv = exposure_levels(t, g)
        assert lv.shape == (6,)
        assert np.isin(lv, [0, 1, 2, 3]).all()


# -- closed-form probabilities ------------------------------------------------


def test_exposure_probabilities_zero_degree():
    pr = exposure_probabilities(0.0, 0.3)
    assert pr.as_array() == pytest.approx([0.0, 0.3, 0.0, 0.7], abs=1e-15)


def test_exposure_probabilities_frozen_example():
    pr = exposure_probabilities(6, 0.1)
    assert abs(pr.c11 - 0.0468559) < 1e-7
    assert abs(pr.c10 - 0.0531441) < 1e-7
    assert abs(pr.c01 - 0.4217031) < 1e-7
    assert abs(pr.c00 - 0.4782969) < 1e-7
    # exact against the enumeration oracle
    assert pr.as_array() == pytest.approx(enumerate_level_probs(6, 0.1), abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.floats(0.0, 80.0), st.floats(0.01, 0.99))
def test_exposure_probabilities_sum_to_one(d, p):
    assert exposure_probabilities(d, p).as_array().sum() == pytest.approx(1.0, abs=1e-12)


def test_exposure_probabilities_validation():
    with pytest.raises(ValueError):
        exposure_probabilities(-0.5, 0.1)
    with pytest.raises(ValueError):
        exposure_probabilities(3, 0.0)


def test_generalized_probabilities_reduce_at_threshold_one():
    for d in (0, 1, 4, 9):
        base = exposure_probabilities(d, 0.17).as_array()
        gen = exposure_probabilities_generalized(d, 0.17, 1).as_array()
        assert gen == pytest.approx(base, abs=1e-15)


def test_generalized_probabilities_frozen_example():
    pr = exposure_probabilities_generalized(5, 0.1, 2)
    assert abs(pr.c11 - 0.008146) < 1e-9
    assert pr.as_array() == pytest.approx(enumerate_level_probs(5, 0.1, m=2), abs=1e-12)


def test_generalized_probabilities_above_degree_are_zero():
    pr = exposure_probabilities_generalized(3, 0.2, 4)
    assert pr.c11 == 0.0 and pr.c01 == 0.0
    assert pr.c10 == pytest.approx(0.2, abs=1e-15)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 25), st.floats(0.02, 0.9), st.integers(1, 8))
def test_generalized_probabilities_arm_sums_and_monotonicity(d, p, m):
    pr = exposure_probabilities_generalized(d, p, m)
    assert pr.c11 + pr.c10 == pytest.approx(p, abs=1e-12)
    assert pr.c01 + pr.c00 == pytest.approx(1 - p, abs=1e-12)
    nxt = exposure_probabilities_generalized(d, p, m + 1)
    assert nxt.c11 <= pr.c11 + 1e-15
    assert nxt.c00 >= pr.c00 - 1e-15


# -- confusion matrix ---------------------------------------------------------


def test_confusion_noiseless_is_diagonal():
    cm = confusion_matrix(4, 20, 0.1, NoiseParams(0.0, 0.0))
    pr = exposure_probabilities(4, 0.1)
    assert cm.s == pytest.approx(np.diag([pr.c11, pr.c10]), abs=1e-15)
    assert cm.q == pytest.approx(np.diag([pr.c01, pr.c00]), abs=1e-15)


def test_confusion_zero_degree_entries():
    n_v, p, alpha = 8, 0.1, 0.07
    cm = confusion_matrix(0, n_v, p, NoiseParams(alpha, 0.25))
    a = (1 - alpha * p) ** (n_v - 1)
    assert cm.s[0, 0] == pytest.approx(0.0, abs=1e-15)
    assert cm.s[1, 0] == pytest.approx(0.0, abs=1e-15)
    assert cm.s[0, 1] == pytest.approx(p * (1 - a), abs=1e-15)
    assert cm.s[1, 1] == pytest.approx(p * a, abs=1e-15)


def test_confusion_matches_exhaustive_enumeration():
    p = 0.1
    for d in range(5):
        for alpha, beta in [(0.05, 0.2), (0.2, 0.05)]:
            cm = confusion_matrix(d, 5, p, NoiseParams(alpha, beta))
            s, q = enumerate_confusion(d, 5, p, alpha, beta)
            assert cm.s == pytest.approx(s, abs=1e-12)
            assert cm.q == pytest.approx(q, abs=1e-12)


def test_confusion_control_block_is_scaled_treated_block():
    cm = confusion_matrix(3.7, 50, 0.1, NoiseParams(0.01, 0.15))
    assert cm.q == pytest.approx((1 - 0.1) / 0.1 * cm.s, abs=1e-15)


def test_confusion_row_and_column_identities_on_grid():
    for d in (0.0, 1.0, 2.5, 7.0, 19.0):
        for p in (0.05, 0.1, 0.3):
            for alpha in (0.0, 0.01, 0.08):
                for beta in (0.0, 0.1, 0.3):
                    n_v = 40
                    cm = confusion_matrix(d, n_v, p, NoiseParams(alpha, beta))
                    qd = (1 - p) ** d
                    a = (1 - alpha * p) ** (n_v - 1 - d)
                    b = (1 - (1 - beta) * p) ** d
                    # columns: true-level margins
                    assert cm.s[:, 0].sum() == pytest.approx(p * (1 - qd), abs=1e-12)
                    assert cm.s[:, 1].sum() == pytest.approx(p * qd, abs=1e-12)
                    # rows: expected observed-level margins
                    assert cm.s[0].sum() == pytest.approx(p * (1 - a * b), abs=1e-12)
                    assert cm.s[1].sum() == pytest.approx(p * a * b, abs=1e-12)


def test_confusion_validation():
    with pytest.raises(ValueError):
        confusion_matrix(10, 5, 0.1, NoiseParams(0.1, 0.1))
    with pytest.raises(ValueError):
        confusion_matrix(-1, 5, 0.1, NoiseParams(0.1, 0.1))


def s_inverse(d, n_v, p, noise):
    """Closed-form inverse of the treated confusion block, as a matrix."""
    i11, i12, i21, i22, _ = _s_inverse_entries(d, n_v, p, noise.alpha, noise.beta)
    return np.array([[i11, i12], [i21, i22]])


def test_invert_confusion_identity_and_scaling():
    # the control block's inverse is the treated one scaled by p / (1 - p)
    for d in (1.0, 3.5, 8.0, 20.0):
        for alpha, beta in [(0.005, 0.1), (0.02, 0.3), (0.0, 0.0)]:
            noise = NoiseParams(alpha, beta)
            cm = confusion_matrix(d, 60, 0.1, noise)
            s_inv = s_inverse(d, 60, 0.1, noise)
            assert s_inv @ cm.s == pytest.approx(np.eye(2), abs=1e-10)
            assert (0.1 / 0.9 * s_inv) @ cm.q == pytest.approx(np.eye(2), abs=1e-10)


def test_invert_confusion_noiseless_diagonal():
    p, d = 0.2, 5
    pr = exposure_probabilities(d, p)
    s_inv = s_inverse(d, 30, p, NoiseParams(0.0, 0.0))
    assert s_inv == pytest.approx(np.diag([1 / pr.c11, 1 / pr.c10]), rel=1e-12)


def test_invert_confusion_signals_singularity_near_zero_degree():
    *_, det = _s_inverse_entries(1e-9, 30, 0.1, 0.01, 0.2)
    assert 0.0 < det <= DET_FLOOR


def test_level_frequencies_match_probabilities_monte_carlo():
    # path graph: degrees (1, 2, 2, 1)
    g = Graph(4, [0, 1, 2], [1, 2, 3])
    p, reps = 0.3, 100_000
    rng = make_rng(35)
    z = rng.random((reps, 4)) < p
    adj = dense_adjacency(g).astype(np.float64)
    counts = z @ adj
    hit = counts > 0
    for i in range(4):
        pr = exposure_probabilities(int(g.degrees[i]), p).as_array()
        freq = np.array([
            (z[:, i] & hit[:, i]).mean(),
            (z[:, i] & ~hit[:, i]).mean(),
            (~z[:, i] & hit[:, i]).mean(),
            (~z[:, i] & ~hit[:, i]).mean(),
        ])
        se = np.sqrt(pr * (1 - pr) / reps)
        assert np.all(np.abs(freq - pr) <= 3 * se + 1e-12)
