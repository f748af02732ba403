import dataclasses
import importlib.util
import inspect
import json
import math
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

import nnc.estimators as estimators_mod
import nnc.harness as harness_mod
from nnc.estimators import MixingRule, ht_estimate, mme_estimate, realize_outcomes
from nnc.exposure import LEVEL_NAMES, assign_treatment, exposure_levels
from nnc.graphs import (
    Graph,
    ZeroTruncatedPoisson,
    build_graph_configuration,
    sample_degree_sequence,
)
from nnc.harness import (
    _BOOT_STREAM,
    _TRIAL_STREAM,
    ESTIMATOR_NAMES,
    ExperimentConfig,
    ExperimentError,
    _bootstrap_columns,
    _percentile_interval,
    _run_trials,
    _resolve_outcomes,
    bootstrap_ci,
    emit_results,
    resolve_graph,
    run_experiment,
)
from nnc.noise import NoiseParams, replicate
from nnc.noise_fit import NoiseFitError, fit_alpha_beta, moment_stats
from nnc.seeding import make_rng

DILATED = (10.0, 7.0, 5.0, 1.0)


@pytest.fixture(scope="module")
def small_graph():
    rng = make_rng(61)
    degrees = sample_degree_sequence(ZeroTruncatedPoisson(6.0), 150, rng)
    g = build_graph_configuration(degrees, rng)
    assert g.degrees.min() >= 1
    return g


# -- bootstrap ----------------------------------------------------------------


def test_bootstrap_degenerate_samples():
    ci = bootstrap_ci(np.full(50, 3.25), 200, 0.95, make_rng(1))
    assert ci == (3.25, 3.25)


def test_bootstrap_nested_levels():
    x = make_rng(2).normal(size=5_000)
    wide = bootstrap_ci(x, 500, 0.95, make_rng(3))
    narrow = bootstrap_ci(x, 500, 0.5, make_rng(4))
    assert narrow[1] - narrow[0] < wide[1] - wide[0]


def test_bootstrap_sd_statistic_targets_spread():
    x = make_rng(5).normal(scale=2.0, size=10_000)
    lo, hi = bootstrap_ci(x, 400, 0.95, make_rng(6), statistic="sd")
    assert lo < 2.0 < hi


def test_bootstrap_quick_coverage_smoke():
    rng = make_rng(7)
    hits = 0
    metas = 100
    for _ in range(metas):
        x = rng.normal(size=2_000)
        lo, hi = bootstrap_ci(x, 200, 0.95, rng)
        hits += lo <= 0.0 <= hi
    assert 0.85 <= hits / metas <= 1.0


def test_bootstrap_validation():
    with pytest.raises(ValueError):
        bootstrap_ci([], 10, 0.95, make_rng(0))
    with pytest.raises(ValueError):
        bootstrap_ci([1.0], 0, 0.95, make_rng(0))
    with pytest.raises(ValueError):
        bootstrap_ci([1.0], 10, 1.0, make_rng(0))
    with pytest.raises(ValueError):
        bootstrap_ci([1.0], 10, 0.95, make_rng(0), statistic="median")


@pytest.mark.parametrize("n", [1, 2, 7, 300])
def test_shared_bootstrap_equals_per_column_gather(n, monkeypatch):
    # columns of very different location and spread (column 0 sits at 1e4
    # with spread 1e-3, where uncentred sums of squares lose every digit),
    # resampled in blocks of 5; the oracle draws the same stream as one
    # (b, n) index array
    rng = make_rng(40, n)
    spread = np.r_[1e-3, rng.uniform(0.1, 10.0, 11)]
    x = rng.normal(size=(n, 12)) * spread + np.r_[1e4, rng.uniform(-50.0, 50.0, 11)]
    b = 23
    monkeypatch.setattr(harness_mod, "_BOOT_BLOCK_ENTRIES", 5 * n)
    means, sds = _bootstrap_columns(x, b, make_rng(41, n))
    draw = x[make_rng(41, n).integers(0, n, size=(b, n))]
    # relative to the value or to the column's spread, so near-zero means
    # and SDs compare too
    tol = 1e-12 * spread
    want = draw.mean(axis=1)
    assert means.shape == sds.shape == (b, 12)
    assert np.all(np.abs(means - want) <= 1e-12 * np.abs(want) + tol)
    if n == 1:
        assert np.isnan(sds).all()
    else:
        want = draw.std(axis=1, ddof=1)
        assert np.all(np.abs(sds - want) <= 1e-12 * want + tol)
    # the block size changes neither the draws nor the statistics beyond rounding
    monkeypatch.undo()
    means_one, sds_one = _bootstrap_columns(x, b, make_rng(41, n))
    assert np.allclose(means_one, means, rtol=1e-12, atol=0.0)
    assert np.allclose(sds_one, sds, rtol=1e-12, atol=0.0, equal_nan=True)


def test_shared_bootstrap_quick_coverage_smoke():
    rng = make_rng(7)
    metas = 100
    hits_mean = hits_sd = 0
    for _ in range(metas):
        x = rng.normal(size=(2_000, 12))
        means, sds = _bootstrap_columns(x, 200, rng)
        lo, hi = _percentile_interval(means, 0.95)
        hits_mean += int(((lo <= 0.0) & (0.0 <= hi)).sum())
        lo, hi = _percentile_interval(sds, 0.95)
        hits_sd += int(((lo <= 1.0) & (1.0 <= hi)).sum())
    assert 0.92 <= hits_mean / (12 * metas) <= 0.98
    assert 0.92 <= hits_sd / (12 * metas) <= 0.98


def test_shared_bootstrap_memory_is_blocked():
    # a whole (B x n) count matrix would be 80 MB here
    x = make_rng(8).normal(size=(10_000, 12))
    tracemalloc.start()
    try:
        _bootstrap_columns(x, 1_000, make_rng(9))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak


# -- configuration ------------------------------------------------------------


def test_config_validation():
    g_spec = {"source": "generate", "kind": "ztp", "n_v": 50, "mean_degree": 4.0, "seed": 1}
    ExperimentConfig(graph=g_spec, alpha=0.01, beta=0.1, p=0.1, trials=10)
    with pytest.raises(ValueError):
        ExperimentConfig(graph=g_spec, alpha=0.01, beta=0.1, p=0.1, estimators=("bogus",))
    with pytest.raises(ValueError):
        ExperimentConfig(graph=g_spec, alpha=0.01, beta=0.1, p=0.1, trials=0)
    with pytest.raises(ValueError):
        ExperimentConfig(graph=g_spec, alpha=0.01, beta=0.1, p=0.1, mixing="other")
    with pytest.raises(ValueError):
        ExperimentConfig(graph=g_spec, alpha=0.6, beta=0.5, p=0.1, noise_known=True)
    with pytest.raises(ValueError):
        ExperimentConfig(graph={"source": "edge_list", "path": "x.csv"},
                         alpha=0.0, beta=0.0, p=0.1, regenerate_graph=True)


def test_config_from_json_roundtrip(tmp_path):
    spec = {
        "graph": {"source": "generate", "kind": "ztp", "n_v": 40, "mean_degree": 5.0, "seed": 3},
        "alpha": 0.005,
        "beta": 0.1,
        "p": 0.1,
        "outcomes": [10.0, 7.0, 5.0, 1.0],
        "trials": 25,
        "bootstrap_b": 50,
        "master_seed": 9,
        "estimators": ["HT_true", "AS_noisy"],
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(spec))
    cfg = ExperimentConfig.from_json(path)
    assert cfg.trials == 25
    assert cfg.estimators == ("HT_true", "AS_noisy")
    assert cfg.echo()["graph"]["kind"] == "ztp"


def test_config_echo_has_one_key_per_field_and_roundtrips():
    cfg = ExperimentConfig(
        graph={"source": "generate", "kind": "ztp", "n_v": 40, "mean_degree": 5.0, "seed": 3},
        alpha=0.005, beta=0.1, p=0.1, trials=25, bootstrap_b=50, master_seed=9,
        estimators=("AS_noisy", "MME"), mixing="order_of_magnitude",
    )
    echo = cfg.echo()
    assert set(echo) == {f.name for f in dataclasses.fields(ExperimentConfig)}
    assert echo["outcomes"] == [10.0, 7.0, 5.0, 1.0]
    assert echo["estimators"] == ["AS_noisy", "MME"]
    assert ExperimentConfig.from_json(echo).echo() == echo
    assert json.loads(json.dumps(echo)) == echo


def test_resolve_graph_sources(tmp_path):
    spec = {"source": "generate", "kind": "ztp", "n_v": 30, "mean_degree": 4.0, "seed": 2}
    g = resolve_graph(spec)
    assert g.n_v == 30
    assert resolve_graph(spec) == g  # same seed, same graph
    path = tmp_path / "edges.csv"
    path.write_text("node_a,node_b\na,b\nb,c\n")
    g2 = resolve_graph({"source": "edge_list", "path": str(path)})
    assert g2.n_v == 3 and g2.n_edges == 2
    rpath = tmp_path / "rounds.csv"
    rpath.write_text("round,node_a,node_b\n1,a,b\n2,a,b\n1,b,c\n")
    g3 = resolve_graph({"source": "rounds", "path": str(rpath)})
    assert g3.n_edges == 1
    with pytest.raises(ValueError):
        resolve_graph({"source": "nowhere"})


# -- experiment runs ----------------------------------------------------------


def test_noiseless_run_is_unbiased_for_all_estimators(small_graph):
    cfg = ExperimentConfig(
        graph=small_graph,
        alpha=0.0,
        beta=0.0,
        p=0.1,
        trials=2_000,
        bootstrap_b=200,
        master_seed=100,
    )
    summary = run_experiment(cfg)
    assert summary.n_failed == 0
    for row in summary.rows:
        se = row.sd / np.sqrt(summary.n_trials)
        assert abs(row.bias) < 4 * se, (row.estimator, row.level, row.bias, se)
    truths = {r.level: r.truth for r in summary.rows if r.estimator == "HT_true"}
    assert truths == {"c11": 10.0, "c10": 7.0, "c01": 5.0, "c00": 1.0}


def test_run_is_deterministic(small_graph):
    cfg = dict(graph=small_graph, alpha=0.01, beta=0.1, p=0.1,
               trials=60, bootstrap_b=80, master_seed=7)
    a = run_experiment(ExperimentConfig(**cfg))
    b = run_experiment(ExperimentConfig(**cfg))
    assert a.rows == b.rows
    assert a.mme_rule_counts == b.mme_rule_counts


def test_trial_splitting_merges_exactly(small_graph):
    cfg = ExperimentConfig(graph=small_graph, alpha=0.01, beta=0.1, p=0.1,
                           trials=120, master_seed=13)
    table = _resolve_outcomes(cfg, small_graph.n_v)
    full, f_full, c_full, _ = _run_trials(cfg, small_graph, table, 0, 120)
    left, f_left, _, _ = _run_trials(cfg, small_graph, table, 0, 60)
    right, f_right, _, _ = _run_trials(cfg, small_graph, table, 60, 120)
    assert np.array_equal(np.concatenate([left, right]), full, equal_nan=True)
    assert np.array_equal(np.concatenate([f_left, f_right]), f_full)


def test_mme_degree_comes_from_all_three_replicates(small_graph):
    # replay trial 4's draws by hand: three replicates, rate fit, treatment
    cfg = ExperimentConfig(graph=small_graph, alpha=0.01, beta=0.1, p=0.1,
                           trials=5, master_seed=17)
    table = _resolve_outcomes(cfg, small_graph.n_v)
    est, failed, _, _ = _run_trials(cfg, small_graph, table, 4, 5)
    assert not failed[0]
    rng = make_rng(cfg.master_seed, _TRIAL_STREAM, 4)
    reps = replicate(small_graph, cfg.noise, 3, rng)
    fit = fit_alpha_beta(moment_stats(*reps))
    t = assign_treatment(small_graph.n_v, cfg.p, rng)
    realized = realize_outcomes(small_graph, t, table)
    lv = exposure_levels(t, reps[0])
    args = (reps[0], lv, realized, cfg.p, NoiseParams(fit.alpha_hat, fit.beta_hat),
            MixingRule.sparse_fallback())
    d_mean = np.mean([r.degrees for r in reps], axis=0)
    mme = cfg.estimators.index("MME")
    assert np.array_equal(est[0, mme], mme_estimate(*args, d_obs=d_mean).means.values)
    assert not np.array_equal(est[0, mme], mme_estimate(*args).means.values)
    # the other estimators still see replicate 0 and the true graph only
    as_noisy = cfg.estimators.index("AS_noisy")
    assert np.array_equal(est[0, as_noisy], ht_estimate(reps[0], lv, realized, cfg.p).values)
    ht_true = cfg.estimators.index("HT_true")
    assert np.array_equal(est[0, ht_true],
                          ht_estimate(small_graph, realized.levels, realized, cfg.p).values)


def test_each_graph_is_classified_once_per_trial(small_graph, monkeypatch):
    # the true graph (inside realize_outcomes) and replicate 0 (in the
    # harness, shared by AS_noisy and MME) are the only distinct classifications
    seen = []
    for mod in (estimators_mod, harness_mod):
        def counted(t, g, _real=mod.exposure_levels):
            seen.append(g)
            return _real(t, g)
        monkeypatch.setattr(mod, "exposure_levels", counted)
    cfg = ExperimentConfig(graph=small_graph, alpha=0.01, beta=0.1, p=0.1,
                           trials=6, master_seed=9)
    assert cfg.estimators == ESTIMATOR_NAMES
    table = _resolve_outcomes(cfg, small_graph.n_v)
    _, failed, _, _ = _run_trials(cfg, small_graph, table, 0, cfg.trials)
    assert not failed.any()
    assert len(seen) == 2 * cfg.trials
    assert sum(g is small_graph for g in seen) == cfg.trials


def test_empty_first_replicate_fails_trials_not_the_run():
    # with alpha=0 and beta=0.9 a 6-edge graph loses every edge of replicate
    # 0 in about half the trials, which leaves the rate fit no starting point
    graph = Graph(6, [0, 1, 2, 3, 4, 0], [1, 2, 3, 4, 5, 5])
    cfg = ExperimentConfig(graph=graph, alpha=0.0, beta=0.9, p=0.5,
                           trials=50, bootstrap_b=50)
    table = _resolve_outcomes(cfg, graph.n_v)
    _, failed, _, _ = _run_trials(cfg, graph, table, 0, cfg.trials)
    empty = np.array([
        replicate(graph, cfg.noise, 3, make_rng(cfg.master_seed, _TRIAL_STREAM, t))[0].n_edges == 0
        for t in range(cfg.trials)
    ])
    assert empty.any() and failed[empty].all()
    with pytest.raises(ExperimentError):
        run_experiment(cfg)


def test_failed_trials_are_excluded_and_counted(small_graph, monkeypatch):
    calls = {"n": 0}
    real_fit = harness_mod.fit_alpha_beta

    def flaky(stats, **kw):
        calls["n"] += 1
        if calls["n"] == 1:
            raise NoiseFitError("synthetic failure")
        return real_fit(stats, **kw)

    monkeypatch.setattr(harness_mod, "fit_alpha_beta", flaky)
    cfg = ExperimentConfig(graph=small_graph, alpha=0.01, beta=0.1, p=0.1,
                           trials=200, bootstrap_b=50, master_seed=3)
    summary = run_experiment(cfg)
    assert summary.n_failed == 1
    assert summary.noise_fit_convergence_rate == 1.0


@pytest.mark.parametrize("fail_every", [0, 3])
def test_trial_releases_its_replicates_before_the_next_draw(small_graph, monkeypatch,
                                                            fail_every):
    # Graph has __slots__ without __weakref__, so watch the arrays of every
    # returned graph: they die with it
    watched, alive_at_call = [], []
    real_replicate = harness_mod.replicate

    def recording(g, noise, k, rng):
        alive_at_call.append(sum(ref() is not None for ref in watched))
        reps = real_replicate(g, noise, k, rng)
        watched[:] = [weakref.ref(a) for r in reps
                      for a in (r.codes, r.edge_i, r.edge_j, r.degrees)]
        return reps

    calls = {"n": 0}
    real_fit = harness_mod.fit_alpha_beta

    def flaky(stats, **kw):
        calls["n"] += 1
        if fail_every and calls["n"] % fail_every == 1:
            raise NoiseFitError("synthetic failure")
        return real_fit(stats, **kw)

    monkeypatch.setattr(harness_mod, "replicate", recording)
    monkeypatch.setattr(harness_mod, "fit_alpha_beta", flaky)
    cfg = ExperimentConfig(graph=small_graph, alpha=0.01, beta=0.1, p=0.1,
                           trials=7, master_seed=23)
    table = _resolve_outcomes(cfg, small_graph.n_v)
    _, failed, _, _ = _run_trials(cfg, small_graph, table, 0, cfg.trials)
    assert failed.any() == bool(fail_every)
    assert alive_at_call == [0] * cfg.trials


def test_too_many_failures_abort_run(small_graph, monkeypatch):
    def always_fail(stats, **kw):
        raise NoiseFitError("synthetic failure")

    monkeypatch.setattr(harness_mod, "fit_alpha_beta", always_fail)
    cfg = ExperimentConfig(graph=small_graph, alpha=0.01, beta=0.1, p=0.1,
                           trials=50, master_seed=3)
    with pytest.raises(ExperimentError):
        run_experiment(cfg)


def test_known_noise_skips_fitting(small_graph):
    cfg = ExperimentConfig(graph=small_graph, alpha=0.01, beta=0.1, p=0.1,
                           noise_known=True, trials=30, bootstrap_b=40, master_seed=5)
    summary = run_experiment(cfg)
    assert summary.noise_fit_convergence_rate is None
    assert summary.n_failed == 0


def test_regenerated_graphs_vary_but_stay_deterministic():
    spec = {"source": "generate", "kind": "ztp", "n_v": 40, "mean_degree": 4.0, "seed": 1}
    cfg = dict(graph=spec, alpha=0.0, beta=0.0, p=0.1, trials=12,
               bootstrap_b=30, master_seed=21, regenerate_graph=True)
    a = run_experiment(ExperimentConfig(**cfg))
    b = run_experiment(ExperimentConfig(**cfg))
    assert a.rows == b.rows


# -- results emission -----------------------------------------------------------


def test_emit_results_files_and_determinism(small_graph, tmp_path):
    cfg = ExperimentConfig(graph=small_graph, alpha=0.01, beta=0.1, p=0.1,
                           trials=40, bootstrap_b=50, master_seed=2)
    summary = run_experiment(cfg)
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    emit_results(summary, out1)
    emit_results(run_experiment(cfg), out2)
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().strip().split("\n")
    assert lines[0].startswith("estimator,level,truth,mean_estimate,bias")
    assert len(lines) == 1 + 4 * 3
    sidecar = json.loads((tmp_path / "r1.json").read_text())
    assert sidecar["config"]["alpha"] == 0.01
    assert sidecar["n_trials"] == 40


def test_single_trial_run_has_nan_sd_intervals(small_graph):
    cfg = ExperimentConfig(graph=small_graph, alpha=0.01, beta=0.1, p=0.1,
                           trials=1, bootstrap_b=20, master_seed=4)
    summary = run_experiment(cfg)
    assert summary.n_failed == 0
    for r in summary.rows:
        assert math.isnan(r.sd) and math.isnan(r.sd_ci_lo) and math.isnan(r.sd_ci_hi)
        assert r.bias_ci_lo == r.bias == r.bias_ci_hi


def test_mme_bias_reduction_comes_from_the_shared_resamples(small_graph, tmp_path):
    # MME listed first, so the estimator columns are found by name, not position
    cfg = ExperimentConfig(graph=small_graph, alpha=0.01, beta=0.1, p=0.1, trials=60,
                           bootstrap_b=80, bootstrap_level=0.9, master_seed=12,
                           estimators=("MME", "AS_noisy"))
    summary = run_experiment(cfg)
    table = _resolve_outcomes(cfg, small_graph.n_v)
    est, failed, _, _ = _run_trials(cfg, small_graph, table, 0, cfg.trials)
    data = est[~failed]
    means, _ = _bootstrap_columns(data.reshape(len(data), 8), cfg.bootstrap_b,
                                  make_rng(cfg.master_seed, _BOOT_STREAM))
    truth = table.truth()
    gaps = np.array([[abs(means[r, 4 + k] - truth[k]) - abs(means[r, k] - truth[k])
                      for k in range(4)] for r in range(cfg.bootstrap_b)])
    q = (1.0 - cfg.bootstrap_level) / 2.0 * 100.0  # bootstrap_ci's percentile
    lo, hi = np.percentile(gaps, [q, 100.0 - q], axis=0)
    rows = {(r.estimator, r.level): r for r in summary.rows}
    assert len(summary.mme_bias_reduction) == 4
    for k, entry in enumerate(summary.mme_bias_reduction):
        level = LEVEL_NAMES[k]
        assert entry == {
            "level": level,
            "reduction": abs(rows[("AS_noisy", level)].bias) - abs(rows[("MME", level)].bias),
            "ci_lo": lo[k],
            "ci_hi": hi[k],
        }
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    emit_results(summary, out1)
    emit_results(run_experiment(cfg), out2)
    assert (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()
    sidecar = json.loads((tmp_path / "r1.json").read_text())
    assert sidecar["mme_bias_reduction"] == list(summary.mme_bias_reduction)


@pytest.mark.parametrize("estimators", [("HT_true", "AS_noisy"), ("HT_true", "MME"), ()])
def test_mme_bias_reduction_needs_both_noisy_estimators(small_graph, tmp_path, estimators):
    cfg = ExperimentConfig(graph=small_graph, alpha=0.01, beta=0.1, p=0.1, trials=20,
                           bootstrap_b=30, master_seed=12, estimators=estimators)
    summary = run_experiment(cfg)
    assert summary.mme_bias_reduction is None
    emit_results(summary, tmp_path / "r.csv")
    assert "mme_bias_reduction" not in json.loads((tmp_path / "r.json").read_text())


def test_emit_results_header_only_for_empty_estimators(small_graph, tmp_path):
    cfg = ExperimentConfig(graph=small_graph, alpha=0.0, beta=0.0, p=0.1,
                           trials=1, bootstrap_b=1, master_seed=0, estimators=())
    summary = run_experiment(cfg)
    out = tmp_path / "empty.csv"
    emit_results(summary, out)
    assert out.read_text().strip() == (
        "estimator,level,truth,mean_estimate,bias,bias_ci_lo,bias_ci_hi,"
        "sd,sd_ci_lo,sd_ci_hi,n_trials,n_failed"
    )


# -- benchmark tracer contract ----------------------------------------------------


def test_benchmark_tracer_targets_resolve(monkeypatch):
    # perfbench/tracing.py swaps these module globals for timed wrappers and
    # reads the observed graph's size off mme_estimate's first argument
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    for module, name, _ in tracing.TARGETS:
        assert callable(getattr(module, name, None)), (module.__name__, name)
    assert isinstance(harness_mod._TRIAL_STREAM, int)
    assert isinstance(harness_mod._BOOT_STREAM, int)
    first = next(iter(inspect.signature(harness_mod.mme_estimate).parameters.values()))
    assert first.name == "g_obs" and first.annotation in (Graph, "Graph")
