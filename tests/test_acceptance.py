"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line (run with ``pytest -s`` or ``-rP`` to see
them all), ending in the test body's wall time; module fixtures such as the six
school-cell experiments are built before that clock starts, and
``pytest --durations`` reports their set-up. Tolerances are fixed here, not
tuned at runtime. The Monte Carlo criteria use fixed master seeds, so outcomes
are reproducible bit for bit.
"""
import itertools
import math
import time

import numpy as np
import pytest

from nnc.estimators import OutcomeTable, ht_estimate, realize_outcomes
from nnc.exposure import (
    Treatment,
    confusion_matrix,
    exposure_levels,
    exposure_probabilities,
    exposure_probabilities_generalized,
)
from nnc.graphs import (
    Graph,
    ParetoExpCutoff,
    ZeroTruncatedPoisson,
    build_graph_configuration,
    sample_degree_sequence,
)
from nnc.harness import ExperimentConfig, bootstrap_ci, run_experiment
from nnc.noise import NoiseParams
from nnc.noise_fit import MomentStats, fit_alpha_beta
from nnc.seeding import make_rng
from nnc.theory import naive_estimator_bias

DILATED = (10.0, 7.0, 5.0, 1.0)
SCHOOL_TRIALS = 10_000


_clock = {"start": 0.0}


@pytest.fixture(autouse=True)
def _start_clock():
    _clock["start"] = time.perf_counter()


def _report(cid: str, ok: bool, detail: str):
    elapsed = time.perf_counter() - _clock["start"]
    print(f"\n[acceptance] {cid}: {'PASS' if ok else 'FAIL'} - {detail} ({elapsed:.2f} s)",
          flush=True)
    assert ok, f"{cid}: {detail}"


# -- shared scenario fixtures -------------------------------------------------


@pytest.fixture(scope="module")
def school_graph():
    # sparse, right-skewed graph of school-contact scale: 115 vertices,
    # degrees concentrated around 7-10 (students nominating ~6-10 contacts)
    # with a mild tail
    rng = make_rng(2030)
    dist = ParetoExpCutoff(rate=0.40, shape=1.0, lower=7.0, upper=114)
    g = build_graph_configuration(sample_degree_sequence(dist, 115, rng), rng)
    assert g.degrees.min() >= 1
    return g


@pytest.fixture(scope="module")
def homogeneous_graphs():
    out = {}
    for n, seed in ((250, 71), (500, 72), (1000, 73)):
        rng = make_rng(seed)
        deg = sample_degree_sequence(ZeroTruncatedPoisson(10.0), n, rng)
        g = build_graph_configuration(deg, rng)
        assert g.degrees.min() >= 1
        out[n] = g
    return out


@pytest.fixture(scope="module")
def school_cells(school_graph):
    # one full experiment per (alpha, beta) cell of the small-network scenario
    cells = {}
    for ai, alpha in enumerate((0.005, 0.01)):
        for bi, beta in enumerate((0.05, 0.10, 0.15)):
            cfg = ExperimentConfig(
                graph=school_graph,
                alpha=alpha,
                beta=beta,
                p=0.1,
                outcomes=DILATED,
                trials=SCHOOL_TRIALS,
                bootstrap_b=1_000,
                master_seed=600 + 10 * ai + bi,
            )
            summary = run_experiment(cfg)
            cells[(alpha, beta)] = {
                (r.estimator, r.level): r for r in summary.rows
            }
    return cells


# -- criterion 1: exact unbiasedness by exhaustive assignment ------------------


def test_criterion_1_exact_ht_unbiasedness():
    edges = [(i, (i + 1) % 10) for i in range(10)] + [(0, 5), (2, 7)]
    g = Graph(10, [e[0] for e in edges], [e[1] for e in edges])
    assert g.degrees.min() >= 2  # all exposure probabilities positive
    p = 0.1
    table = OutcomeTable(make_rng(81).uniform(-3.0, 12.0, size=(10, 4)))
    acc = [[] for _ in range(4)]
    for bits in range(2**10):
        z = np.array([(bits >> i) & 1 for i in range(10)], dtype=bool)
        w = p ** z.sum() * (1 - p) ** (10 - z.sum())
        t = Treatment(p, z)
        est = ht_estimate(g, exposure_levels(t, g), realize_outcomes(g, t, table), p)
        for k in range(4):
            acc[k].append(w * est.values[k])
    got = np.array([math.fsum(a) for a in acc])
    err = np.abs(got - table.truth()).max()
    _report("criterion 1", err < 1e-12, f"max |E[estimate] - truth| = {err:.2e}")


# -- criterion 2: closed-form exposure probabilities ---------------------------


def _enumerated_level_probs(d: int, p: float, m: int) -> np.ndarray:
    # brute force over all 2**(d+1) treatment patterns of a vertex and its
    # neighbors, weighted by the product Bernoulli law
    bits = (np.arange(2 ** (d + 1))[:, None] >> np.arange(d + 1)) & 1
    z_i = bits[:, 0].astype(bool)
    hit = bits[:, 1:].sum(axis=1) >= m
    ones = bits.sum(axis=1)
    w = p**ones * (1 - p) ** (d + 1 - ones)
    return np.array(
        [w[z_i & hit].sum(), w[z_i & ~hit].sum(), w[~z_i & hit].sum(), w[~z_i & ~hit].sum()]
    )


def test_criterion_2_exposure_probability_closed_forms():
    worst_base = worst_gen = 0.0
    for p in (0.05, 0.1, 0.3):
        for d in range(13):
            base = exposure_probabilities(d, p).as_array()
            worst_base = max(worst_base, np.abs(base - _enumerated_level_probs(d, p, 1)).max())
            for m in (1, 2, 3, 4):
                gen = exposure_probabilities_generalized(d, p, m).as_array()
                worst_gen = max(worst_gen, np.abs(gen - _enumerated_level_probs(d, p, m)).max())
    ok = worst_base < 1e-12 and worst_gen < 1e-12
    _report("criterion 2", ok, f"max error base={worst_base:.2e}, generalized={worst_gen:.2e}")


# -- criterion 3: confusion-matrix entries and identities ----------------------


def _enumerated_confusion(d, n_v, p, alpha, beta):
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
            block = s if z_i else q
            block[0 if obs_hit else 1, 0 if true_hit else 1] += wz * wf
    return s, q


def test_criterion_3_confusion_matrix_exactness():
    p = 0.1
    worst = 0.0
    for d in range(5):
        for alpha, beta in itertools.product((0.05, 0.2), repeat=2):
            cm = confusion_matrix(d, 5, p, NoiseParams(alpha, beta))
            s, q = _enumerated_confusion(d, 5, p, alpha, beta)
            worst = max(worst, np.abs(cm.s - s).max(), np.abs(cm.q - q).max())

    worst_id = 0.0
    grid = list(
        itertools.product(
            (0.0, 1.0, 2.5, 7.0, 19.0),
            (0.05, 0.1, 0.3, 0.5),
            (0.0, 0.01, 0.05, 0.1, 0.2),
            (0.0, 0.3),
        )
    )
    assert len(grid) == 200
    for d, p_, alpha, beta in grid:
        n_v = 40
        cm = confusion_matrix(d, n_v, p_, NoiseParams(alpha, beta))
        qd = (1 - p_) ** d
        a = (1 - alpha * p_) ** (n_v - 1 - d)
        b = (1 - (1 - beta) * p_) ** d
        worst_id = max(
            worst_id,
            abs(cm.s[:, 0].sum() - p_ * (1 - qd)),
            abs(cm.s[:, 1].sum() - p_ * qd),
            abs(cm.s[0].sum() - p_ * (1 - a * b)),
            abs(cm.s[1].sum() - p_ * a * b),
        )
    ok = worst < 1e-12 and worst_id < 1e-12
    _report("criterion 3", ok, f"max entry error={worst:.2e}, identity error={worst_id:.2e}")


# -- criterion 4: fixed-point recovery of exact moments -------------------------


def test_criterion_4_moment_fit_stationarity():
    worst = 0.0
    worst_iter = 0
    for alpha in np.linspace(0.001, 0.02, 5):
        for beta in np.linspace(0.01, 0.3, 5):
            for delta in np.linspace(0.01, 0.2, 4):
                u1 = (1 - delta) * alpha + delta * (1 - beta)
                u2 = (1 - delta) * alpha * (1 - alpha) + delta * beta * (1 - beta)
                u3 = (1 - delta) * alpha * (1 - alpha) ** 2 + delta * beta**2 * (1 - beta)
                fit = fit_alpha_beta(MomentStats(u1=u1, u2=u2, u3=u3, n_v=1000))
                assert fit.converged
                worst = max(worst, abs(fit.alpha_hat - alpha), abs(fit.beta_hat - beta))
                worst_iter = max(worst_iter, fit.iterations)
    ok = worst < 1e-6 and worst_iter <= 10_000
    _report("criterion 4", ok, f"max rate error={worst:.2e}, max iterations={worst_iter}")


# -- criterion 5: analytic bias vs Monte Carlo ----------------------------------


def test_criterion_5_bias_prediction_reproduction(homogeneous_graphs):
    g = homogeneous_graphs[500]
    noise = NoiseParams(0.005, 0.10)
    cfg = ExperimentConfig(
        graph=g,
        alpha=noise.alpha,
        beta=noise.beta,
        p=0.1,
        outcomes=DILATED,
        noise_known=True,
        trials=10_000,
        bootstrap_b=1_000,
        master_seed=500,
        estimators=("AS_noisy",),
    )
    summary = run_experiment(cfg)
    pred = naive_estimator_bias(g.degrees, OutcomeTable.constant(500, DILATED), noise, 0.1)
    rows = {r.level: r for r in summary.rows}
    details = []
    ok = True
    for k, level in enumerate(("c11", "c10", "c01", "c00")):
        r = rows[level]
        se = r.sd / math.sqrt(summary.n_trials)
        tol = 3 * se if level in ("c10", "c00") else max(3 * se, 0.05)
        gap = abs(r.bias - pred.values[k])
        ok &= gap < tol
        details.append(f"{level}: |mc-pred|={gap:.4f} tol={tol:.4f}")
    _report("criterion 5", ok, "; ".join(details))


# -- criterion 6: small-network scenario, qualitative findings -------------------


def test_criterion_6a_naive_bias_signs(school_cells):
    expected = {"c11": -1, "c10": +1, "c01": -1, "c00": +1}
    bad = []
    for cell, rows in school_cells.items():
        for level, sign in expected.items():
            bias = rows[("AS_noisy", level)].bias
            if math.copysign(1, bias) != sign:
                bad.append((cell, level, bias))
    _report("criterion 6a", not bad, f"sign violations: {bad!r}" if bad else
            "uncorrected bias signs are (-, +, -, +) in all 6 cells")


def test_criterion_6b_missed_edge_bias_grows_with_beta(school_cells):
    bad = []
    for alpha in (0.005, 0.01):
        for level in ("c10", "c00"):
            seq = [abs(school_cells[(alpha, b)][("AS_noisy", level)].bias)
                   for b in (0.05, 0.10, 0.15)]
            if not (seq[0] < seq[1] < seq[2]):
                bad.append((alpha, level, [round(v, 4) for v in seq]))
    _report("criterion 6b", not bad, f"non-increasing: {bad!r}" if bad else
            "|bias| at c10 and c00 increases with beta at both alphas")


def test_criterion_6c_corrected_estimator_is_nearly_unbiased(school_cells):
    worst_mme = 0.0
    bad = []
    per_cell = []
    for cell, rows in school_cells.items():
        cell_worst = (-1.0, "", 0.0)
        for level in ("c11", "c10", "c01", "c00"):
            mme = abs(rows[("MME", level)].bias)
            naive = abs(rows[("AS_noisy", level)].bias)
            worst_mme = max(worst_mme, mme)
            se = rows[("MME", level)].sd / math.sqrt(SCHOOL_TRIALS)
            cell_worst = max(cell_worst, (mme, level, se))
            if mme >= 0.15:
                bad.append((cell, level, "mme", round(mme, 4)))
            if naive > 0.3 and not mme < naive:
                bad.append((cell, level, "not-smaller", round(mme, 4), round(naive, 4)))
        mme, level, se = cell_worst
        per_cell.append(f"{cell}: {level} {mme:.4f} (SE {se:.4f})")
    cells = "; worst MME |bias| per cell " + ", ".join(per_cell)
    _report("criterion 6c", not bad,
            (f"violations: {bad!r}" if bad else f"max corrected |bias| = {worst_mme:.4f}") + cells)


def test_criterion_6d_estimator_sds_agree_within_factor_two(school_cells):
    worst = 0.0
    for cell, rows in school_cells.items():
        for level in ("c11", "c10", "c01", "c00"):
            sds = [rows[(e, level)].sd for e in ("HT_true", "AS_noisy", "MME")]
            worst = max(worst, max(sds) / min(sds))
    _report("criterion 6d", worst <= 2.0, f"max SD ratio across estimators = {worst:.3f}")


# -- criterion 7: dispersion decays with graph size ------------------------------


def test_criterion_7_sd_decreases_with_graph_size(homogeneous_graphs):
    sds = {}
    for n, g in homogeneous_graphs.items():
        cfg = ExperimentConfig(
            graph=g,
            alpha=0.005,
            beta=0.10,
            p=0.1,
            outcomes=DILATED,
            trials=10_000,
            bootstrap_b=1_000,
            master_seed=700 + n,
            estimators=("AS_noisy", "MME"),
        )
        summary = run_experiment(cfg)
        sds[n] = {(r.estimator, r.level): r.sd for r in summary.rows}
    bad = []
    for key in sds[250]:
        seq = [sds[n][key] for n in (250, 500, 1000)]
        if not (seq[1] <= seq[0] * 1.1 and seq[2] <= seq[1] * 1.1):
            bad.append((key, [round(v, 3) for v in seq]))
    _report("criterion 7", not bad, f"non-decaying: {bad!r}" if bad else
            "SD decays in n for both noisy estimators at every level")


# -- criterion 8: per-vertex bias limits by degree regime -------------------------


def test_criterion_8_degree_regime_limits():
    p, n_v = 0.01, 100_000
    noise = NoiseParams(alpha=1.0 / (p * n_v), beta=0.1)  # rates inside the scaling regime
    degrees = [1, 100, 5000]
    table = OutcomeTable.constant(3, DILATED)
    pred = naive_estimator_bias(degrees, table, noise, p, n_v=n_v)
    tau_t, tau_c = 3.0, 4.0
    term = pred.per_node
    checks = [
        abs(term[0, 0] - (-tau_t)) <= 0.1 * tau_t,  # low degree: c11 fully biased
        abs(term[0, 1]) <= 0.1 * tau_t,             # low degree: c10 unbiased
        abs(term[0, 2] - (-tau_c)) <= 0.1 * tau_c,
        abs(term[0, 3]) <= 0.1 * tau_c,
        abs(term[2, 0]) <= 0.1 * tau_t,             # high degree: c11 unbiased
        abs(term[2, 1] - tau_t) <= 0.1 * tau_t,     # high degree: c10 fully biased
        abs(term[2, 2]) <= 0.1 * tau_c,
        abs(term[2, 3] - tau_c) <= 0.1 * tau_c,
        -tau_t < term[1, 0] < 0.0,                  # matched degree: strictly between
        0.0 < term[1, 1] < tau_t,
        -tau_c < term[1, 2] < 0.0,
        0.0 < term[1, 3] < tau_c,
    ]
    detail = (
        f"d=1 terms {np.round(term[0], 3).tolist()}, "
        f"d=100 terms {np.round(term[1], 3).tolist()}, "
        f"d=5000 terms {np.round(term[2], 3).tolist()}"
    )
    _report("criterion 8", all(checks), detail)


# -- criterion 9: bootstrap coverage ----------------------------------------------


def test_criterion_9_bootstrap_coverage():
    rng = make_rng(900)
    metas = 1_000
    hits = 0
    for _ in range(metas):
        x = rng.normal(size=10_000)
        lo, hi = bootstrap_ci(x, 1_000, 0.95, rng)
        hits += lo <= 0.0 <= hi
    coverage = hits / metas
    _report("criterion 9", 0.93 <= coverage <= 0.97, f"coverage = {coverage:.3f}")
