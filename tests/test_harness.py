import collections
import dataclasses
import functools
import importlib.util
import inspect
import json
import math
import re
import sys
import tempfile
import threading
import time
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import nnc.estimators as estimators_mod
import nnc.graphs as graphs_mod
import nnc.harness as harness_mod
from nnc.estimators import MixingRule, ht_estimate, mme_estimate, realize_outcomes
from nnc.exposure import (
    LEVEL_NAMES,
    _level_probabilities,
    _levels,
    _own_level_probability,
    assign_treatment,
    exposure_levels,
)
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
    MIXING_MODES,
    ExperimentConfig,
    ExperimentError,
    _block_layout,
    _bootstrap_columns,
    _draw_block,
    _observed_degrees,
    _percentile_interval,
    _replicate_changes,
    _run_trials,
    _resolve_outcomes,
    _trial_words,
    bootstrap_ci,
    emit_results,
    resolve_graph,
    run_experiment,
)
from nnc.noise import NoiseParams, _nonedges_before, _pair_count, _rank_index, replicate
from nnc.noise_fit import (
    FIT_DEGENERATE,
    FIT_DIVERGED,
    FIT_UNCONVERGED,
    _presence_table,
    fit_alpha_beta,
    moment_stats,
)
from nnc.seeding import make_rng

from dense_oracle import random_graph

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
    # the SD intervals of run_experiment: the shared resamples' SDs
    x = make_rng(5).normal(scale=2.0, size=10_000)
    _, sds = _bootstrap_columns(x[:, None], 400, make_rng(6))
    (lo,), (hi,) = _percentile_interval(sds, 0.95)
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


def test_bootstrap_of_columns_too_large_to_square_is_exactly_scaled():
    # columns whose squares overflow float64 are scaled by a power of two:
    # their resampled means and SDs are the ordinary columns' times 2**600,
    # bit for bit, and an ordinary column's scale is 1
    x = make_rng(3).normal(size=(200, 3)) * np.array([1.0, 1e3, 1e-3]) + 5.0
    assert np.array_equal(harness_mod._square_scale(x), np.ones(3))
    big = x * 2.0**600
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        means, sds = _bootstrap_columns(x, 300, make_rng(9))
        big_means, big_sds = _bootstrap_columns(big, 300, make_rng(9))
    assert np.array_equal(big_means, means * 2.0**600)
    assert np.array_equal(big_sds, sds * 2.0**600)


@pytest.mark.parametrize("mixing", MIXING_MODES)
@pytest.mark.parametrize("large", [1e200, 1e300, -1e300])
def test_outcomes_too_large_to_square_give_finite_results(mixing, large, tmp_path):
    # constant outcomes (large, 1, 1, 1) on a 50-vertex ZTP(4) graph: the
    # estimates are near 1e200 or 1e300, whose squares overflow; the run
    # completes under warnings as errors, with finite means, SDs and intervals
    g = resolve_graph({"source": "generate", "kind": "ztp", "n_v": 50, "mean_degree": 4.0,
                       "seed": 3})
    cfg = ExperimentConfig(graph=g, alpha=0.01, beta=0.1, p=0.1, outcomes=(large, 1, 1, 1),
                           trials=200, bootstrap_b=200, mixing=mixing, master_seed=5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        summary = run_experiment(cfg)
        emit_results(summary, tmp_path / "out.csv")
    assert summary.n_failed == 0
    for row in summary.rows:
        values = [getattr(row, f.name) for f in dataclasses.fields(row)][2:]
        assert all(math.isfinite(v) for v in values), row
    c11 = [row for row in summary.rows if row.level == "c11"]
    assert all(abs(row.mean_estimate) > abs(large) / 10 and row.sd > abs(large) / 10
               for row in c11)


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
    # the percentile intervals of the gathered statistics: of the means
    # through bootstrap_ci, the one-column case on the same stream, and of
    # the SDs through _percentile_interval, as run_experiment reads them
    sd_ci = _percentile_interval(sds, 0.9)
    for c in (0, 5):
        for statistic in ("mean", "sd"):
            if statistic == "mean":
                ci = np.array(bootstrap_ci(x[:, c], b, 0.9, make_rng(41, n)))
            else:
                ci = sd_ci[:, c]
            if n == 1 and statistic == "sd":
                assert np.isnan(ci).all()
                continue
            col = draw[:, :, c]
            stats = col.mean(axis=1) if statistic == "mean" else col.std(axis=1, ddof=1)
            want = np.percentile(stats, [5.0, 95.0])
            assert np.all(np.abs(ci - want) <= 1e-12 * np.abs(want) + tol[c])
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
    # a whole (B x n) count matrix would be 80 MB here; bootstrap_ci
    # resamples through the same blocks
    x = make_rng(8).normal(size=(10_000, 12))
    tracemalloc.start()
    try:
        _bootstrap_columns(x, 1_000, make_rng(9))
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        bootstrap_ci(x[:, 0], 1_000, 0.95, make_rng(9))
        _, peak_one = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak
    assert peak_one < 16 * 2**20, peak_one


# -- configuration ------------------------------------------------------------


def test_config_validation():
    g_spec = {"source": "generate", "kind": "ztp", "n_v": 50, "mean_degree": 4.0, "seed": 1}
    ExperimentConfig(graph=g_spec, alpha=0.01, beta=0.1, p=0.1, trials=10)
    with pytest.raises(ValueError):
        ExperimentConfig(graph=g_spec, alpha=0.01, beta=0.1, p=0.1, estimators=("bogus",))
    # an estimator named twice would run twice and write its rows twice
    with pytest.raises(ValueError, match=r"^estimators must not repeat: \['MME'\]$"):
        ExperimentConfig(graph=g_spec, alpha=0.01, beta=0.1, p=0.1,
                         estimators=["MME", "AS_noisy", "MME"])
    # a name that is not a string, hashable or not, is refused by name
    for names in ([["MME"]], [{"MME"}], [1, "MME"]):
        with pytest.raises(ValueError, match="^estimator names must be strings"):
            ExperimentConfig(graph=g_spec, alpha=0.01, beta=0.1, p=0.1, estimators=names)
    with pytest.raises(ValueError):
        ExperimentConfig(graph=g_spec, alpha=0.01, beta=0.1, p=0.1, trials=0)
    with pytest.raises(ValueError):
        ExperimentConfig(graph=g_spec, alpha=0.01, beta=0.1, p=0.1, mixing="other")
    with pytest.raises(ValueError):
        ExperimentConfig(graph=g_spec, alpha=0.6, beta=0.5, p=0.1, noise_known=True)
    with pytest.raises(ValueError):
        ExperimentConfig(graph={"source": "edge_list", "path": "x.csv"},
                         alpha=0.0, beta=0.0, p=0.1, regenerate_graph=True)
    # fields from a JSON file with the wrong type are refused up front, naming
    # the field, before any graph is built: a float or a bool for an integer,
    # a bool or a string for a real number, anything but a bool for a flag
    base = {"graph": g_spec, "alpha": 0.01, "beta": 0.1, "p": 0.1}
    for name, value in (("trials", 10.5), ("trials", 10.0), ("trials", True),
                        ("bootstrap_b", 50.0), ("master_seed", 3.7),
                        ("alpha", "0.01"), ("alpha", True), ("beta", "0.1"),
                        ("beta", False), ("p", "0.1"), ("p", True),
                        ("bootstrap_level", "0.95"), ("bootstrap_level", True),
                        ("noise_known", "false"), ("noise_known", 0),
                        ("regenerate_graph", "true"), ("regenerate_graph", 1),
                        ("trials", np.bool_(True)), ("noise_known", np.bool_(False))):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            ExperimentConfig.from_json({**base, name: value})
    # integers and numpy floats are real numbers
    cfg = ExperimentConfig.from_json({**base, "alpha": 0, "beta": np.float64(0.1), "p": 0.1})
    assert cfg.alpha == 0 and cfg.beta == 0.1


def test_numpy_typed_config_emits_the_plain_typed_files(small_graph, tmp_path):
    # numpy's numbers pass the field checks and are stored as built-in ones,
    # so the run and both files equal those of the plain-typed config
    plain = dict(alpha=float(np.float32(0.01)), beta=0.125, p=0.25, trials=30,
                 bootstrap_b=50, bootstrap_level=0.9, master_seed=7)
    typed = dict(alpha=np.float32(0.01), beta=np.float32(0.125), p=np.float64(0.25),
                 trials=np.int64(30), bootstrap_b=np.int32(50),
                 bootstrap_level=np.float64(0.9), master_seed=np.uint8(7))
    outputs = []
    for name, kwargs in (("plain", plain), ("typed", typed)):
        cfg = ExperimentConfig(graph=small_graph, **kwargs)
        assert all(type(getattr(cfg, key)) in (int, float) for key in kwargs)
        csv_path = tmp_path / f"{name}.csv"
        emit_results(run_experiment(cfg), csv_path)
        outputs.append((csv_path.read_bytes(), csv_path.with_suffix(".json").read_bytes()))
    assert outputs[1] == outputs[0]


def test_numpy_outcomes_emit_the_plain_typed_files(small_graph, tmp_path):
    # constant outcomes given as numpy numbers run, and both files equal
    # those of the same outcomes as built-in numbers, ints kept as ints
    for plain, typed in (((10.0, 7.0, 5.0, 1.0), np.array([10, 7, 5, 1], dtype=np.float32)),
                         ((10, 7, 5.0, 1.0), (np.int64(10), 7, 5.0, np.float32(1)))):
        outputs = []
        for name, outcomes in (("plain", plain), ("typed", typed)):
            cfg = ExperimentConfig(graph=small_graph, alpha=0.01, beta=0.1, p=0.1,
                                   outcomes=outcomes, trials=20, bootstrap_b=30,
                                   master_seed=3)
            csv_path = tmp_path / f"{name}.csv"
            emit_results(run_experiment(cfg), csv_path)
            outputs.append((csv_path.read_bytes(), csv_path.with_suffix(".json").read_bytes()))
        assert outputs[1] == outputs[0]
        assert json.loads(outputs[0][1])["config"]["outcomes"] == list(plain)


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
    # integral values convert, whatever their JSON type
    assert resolve_graph(dict(spec, n_v=30.0, seed=2.0)) == g
    assert resolve_graph(dict(spec, n_v="30", seed="2")) == g
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


@pytest.mark.parametrize("flag", [True, False, np.bool_(True)])
def test_graph_spec_numbers_refuse_booleans(tmp_path, flag):
    # int() and float() take a JSON true or false as 1 or 0, yet it is no
    # graph-spec number: every numeric key of every source refuses it,
    # naming the key, where the spec as given resolves
    rpath = tmp_path / "rounds.csv"
    rpath.write_text("round,node_a,node_b\n1,a,b\n2,a,b\n")
    specs = (
        ({"source": "generate", "kind": "ztp", "n_v": 30, "mean_degree": 4.0, "seed": 2},
         ("n_v", "seed", "mean_degree")),
        ({"source": "generate", "kind": "pareto", "n_v": 30, "rate": 0.1, "shape": 1.2,
          "lower": 3, "upper": 20, "seed": 2}, ("rate", "shape", "lower", "upper")),
        ({"source": "rounds", "path": str(rpath), "min_count": 2}, ("min_count",)),
    )
    for spec, keys in specs:
        resolve_graph(spec)
        for key in keys:
            label = "an integer" if key in ("n_v", "seed", "min_count") else "a number"
            with pytest.raises(ValueError, match=re.escape(
                    f"graph spec key {key!r} must be {label}, got {flag!r}") + "$"):
                resolve_graph(dict(spec, **{key: flag}))


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


def test_mme_degree_comes_from_all_three_replicates(small_graph):
    # replay trial 4's draws by hand: three replicates, rate fit, treatment
    cfg = ExperimentConfig(graph=small_graph, alpha=0.01, beta=0.1, p=0.1,
                           trials=5, master_seed=17)
    table = _resolve_outcomes(cfg, small_graph.n_v)
    est, failed, _, _, _ = _run_trials(cfg, small_graph, table)
    assert not failed[4]
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
    assert np.array_equal(est[4, mme], mme_estimate(*args, d_obs=d_mean).means.values)
    assert not np.array_equal(est[4, mme], mme_estimate(*args).means.values)
    # the other estimators still see replicate 0 and the true graph only
    as_noisy = cfg.estimators.index("AS_noisy")
    assert np.array_equal(est[4, as_noisy], ht_estimate(reps[0], lv, realized, cfg.p).values)
    ht_true = cfg.estimators.index("HT_true")
    assert np.array_equal(est[4, ht_true],
                          ht_estimate(small_graph, realized.levels, realized, cfg.p).values)


def test_each_graph_is_classified_once_per_trial(small_graph, monkeypatch):
    # a block classifies its true graphs once and its replicates 0 once, each
    # call covering every trial's vertices once; AS_noisy and MME share
    # replicate 0's levels and no estimator classifies on its own
    sizes = []
    real_levels = harness_mod._levels

    def counted(z, treated):
        sizes.append(z.size)
        return real_levels(z, treated)

    def forbidden(*args):
        raise AssertionError("the block path classifies through _levels only")

    monkeypatch.setattr(harness_mod, "_levels", counted)
    monkeypatch.setattr(estimators_mod, "exposure_levels", forbidden)
    per_trial = 3 * (small_graph.n_edges + small_graph.n_v)
    monkeypatch.setattr(harness_mod, "_BLOCK_ENTRIES", 2 * per_trial)
    cfg = ExperimentConfig(graph=small_graph, alpha=0.01, beta=0.1, p=0.1,
                           trials=6, master_seed=9)
    assert cfg.estimators == ESTIMATOR_NAMES
    table = _resolve_outcomes(cfg, small_graph.n_v)
    _, failed, _, _, _ = _run_trials(cfg, small_graph, table)
    assert not failed.any()
    # three blocks of two trials, two classifications each
    assert sizes == [2 * small_graph.n_v] * 6


def test_empty_first_replicate_fails_trials_not_the_run():
    # with alpha=0 and beta=0.9 a 6-edge graph loses every edge of replicate
    # 0 in about half the trials, which leaves the rate fit no starting point
    graph = Graph(6, [0, 1, 2, 3, 4, 0], [1, 2, 3, 4, 5, 5])
    cfg = ExperimentConfig(graph=graph, alpha=0.0, beta=0.9, p=0.5,
                           trials=50, bootstrap_b=50)
    table = _resolve_outcomes(cfg, graph.n_v)
    _, failed, _, _, _ = _run_trials(cfg, graph, table)
    empty = np.array([
        replicate(graph, cfg.noise, 3, make_rng(cfg.master_seed, _TRIAL_STREAM, t))[0].n_edges == 0
        for t in range(cfg.trials)
    ])
    assert empty.any() and failed[empty].all()
    with pytest.raises(ExperimentError):
        run_experiment(cfg)


def _failing_fits(monkeypatch, fail):
    # route the harness's rate fits through a wrapper that marks the block
    # rows ``fail(call, rows)`` selects as degenerate fits
    real_fit = harness_mod._fit_rates
    calls = []

    def flaky(*args, **kw):
        fits = real_fit(*args, **kw)
        bad = fail(len(calls), np.arange(fits.status.size))
        calls.append(None)
        fits.status[bad] = FIT_DEGENERATE
        for rate in (fits.alpha_hat, fits.beta_hat, fits.delta_hat):
            rate[bad] = np.nan
        return fits

    monkeypatch.setattr(harness_mod, "_fit_rates", flaky)


def test_failed_trials_are_excluded_and_counted(small_graph, monkeypatch):
    _failing_fits(monkeypatch, lambda call, row: (call == 0) & (row == 0))
    cfg = ExperimentConfig(graph=small_graph, alpha=0.01, beta=0.1, p=0.1,
                           trials=200, bootstrap_b=50, master_seed=3)
    summary = run_experiment(cfg)
    assert summary.n_failed == 1
    assert summary.noise_fit_convergence_rate == 1.0
    assert summary.noise_fit["failed"] == {"degenerate": 1, "diverged": 0}


@pytest.mark.parametrize("fail_every", [0, 3])
def test_trial_releases_its_replicates_before_the_next_draw(small_graph, monkeypatch,
                                                            fail_every):
    # a block's draws (missed flags, non-edge gaps, treatments) and the
    # replicate changes made from them are released before the next block
    # draws; the fixed graph's layout is made once, every block gets the
    # same arrays, and they are released when the trials are done
    watched, alive_at_call, layouts = [], [], []
    real_draw = harness_mod._draw_block
    real_changes = harness_mod._replicate_changes

    def recording(*args):
        alive_at_call.append(sum(ref() is not None for ref in watched))
        draws = real_draw(*args)
        # the missed flags and treatments, and each replicate's gap batches
        arrays = [a for a in draws if isinstance(a, np.ndarray)] + draws.gaps
        assert len(arrays) == 2 + 3 * len(draws.graphs)
        # the missed flags are a view of the block's buffer; watch it too
        watched[:] = [weakref.ref(b) for a in arrays for b in (a, a.base) if b is not None]
        return draws

    def watching(draws, layout):
        changes = real_changes(draws, layout)
        watched.extend(weakref.ref(a) for a in changes if isinstance(a, np.ndarray))
        # the layout's arrays, the non-edge index's among them
        layouts.append([a for a in (*layout, *layout.nonedges) if isinstance(a, np.ndarray)])
        return changes

    monkeypatch.setattr(harness_mod, "_draw_block", recording)
    monkeypatch.setattr(harness_mod, "_replicate_changes", watching)
    if fail_every:
        _failing_fits(monkeypatch, lambda call, row: row % fail_every == 1)
    per_trial = 3 * (small_graph.n_edges + small_graph.n_v)
    monkeypatch.setattr(harness_mod, "_BLOCK_ENTRIES", 2 * per_trial)
    cfg = ExperimentConfig(graph=small_graph, alpha=0.01, beta=0.1, p=0.1,
                           trials=7, master_seed=23)
    table = _resolve_outcomes(cfg, small_graph.n_v)
    _, failed, _, _, _ = _run_trials(cfg, small_graph, table)
    assert failed.any() == bool(fail_every)
    assert alive_at_call == [0] * 4
    # every field is an array but n, the index and the index's shift
    n_arrays = len(harness_mod._Layout._fields) + len(harness_mod._RankIndex._fields) - 3
    assert len(layouts) == 4 and len(layouts[0]) == n_arrays
    assert all(a is b for arrays in layouts[1:] for a, b in zip(arrays, layouts[0]))
    held = [weakref.ref(a) for a in layouts[0]]
    layouts.clear()
    assert [ref() is None for ref in held] == [True] * len(held)


def _laid_end_to_end(graphs, tables):
    # the layout of a block of trials on ``graphs``, concatenated afresh, with
    # the non-edge tables of the graphs ``tables``; the tables laid end to
    # end, as the layout's index holds them, come as "start" and "low"
    n, pairs = graphs[0].n_v, graphs[0].n_v * (graphs[0].n_v - 1) // 2
    m = np.array([g.n_edges for g in graphs])
    rows = np.repeat(np.arange(len(graphs)), m)
    sizes = np.array([g.n_edges for g in tables])
    nonedges = _rank_index(np.concatenate([_nonedges_before(g) for g in tables])
                           + np.repeat(np.arange(len(tables)), sizes) * pairs,
                           len(tables) * pairs)
    return dict(
        n_true=m,
        src=np.concatenate([g.edge_i for g in graphs]) + rows * n,
        dst=np.concatenate([g.edge_j for g in graphs]) + rows * n,
        degrees=np.concatenate([g.degrees for g in graphs]),
        table_start=np.cumsum(sizes) - sizes,
    ), nonedges


@pytest.mark.parametrize("regenerate", [False, True])
def test_layout_prefixes_equal_the_per_block_concatenation(small_graph, regenerate,
                                                           monkeypatch):
    # one-trial blocks, then blocks of three trials with a partial last one:
    # each block's part of the layout is its trials' graphs laid end to end,
    # with one non-edge table per graph (the fixed graph's own, or one per
    # regenerated trial), its trial count is the one fixed by the
    # fixed graph's or trial 0's graph's size, and its missed-edge flags hold
    # exactly its true edges
    spec = {"source": "generate", "kind": "ztp", "n_v": 60, "mean_degree": 5.0, "seed": 4}
    cfg = ExperimentConfig(graph=spec if regenerate else small_graph, alpha=0.01, beta=0.1,
                           p=0.1, trials=7, master_seed=23, regenerate_graph=regenerate)
    if regenerate:
        graph, table = harness_mod._trial(cfg, None, _trial_words(cfg), 0)[0], None
    else:
        graph, table = small_graph, _resolve_outcomes(cfg, small_graph.n_v)
    real_changes = harness_mod._replicate_changes
    blocks = []

    def watching(draws, layout):
        changes = real_changes(draws, layout)
        blocks.append((draws.graphs, changes.lay, draws.missed.shape[1]))
        return changes

    monkeypatch.setattr(harness_mod, "_replicate_changes", watching)
    per_trial = 3 * (graph.n_edges + graph.n_v)
    for budget, sizes in ((per_trial, [1] * 7), (3 * per_trial, [3, 3, 1])):
        monkeypatch.setattr(harness_mod, "_BLOCK_ENTRIES", budget)
        blocks.clear()
        _run_trials(cfg, None if regenerate else graph, table)
        assert [len(graphs) for graphs, _, _ in blocks] == sizes
        for graphs, lay, missed_edges in blocks:
            assert lay.n == graphs[0].n_v
            assert missed_edges == sum(g.n_edges for g in graphs)
            tables = list(graphs) if regenerate else [graph]
            fields, nonedges = _laid_end_to_end(graphs, tables)
            for name, want in fields.items():
                got = getattr(lay, name)
                assert got.dtype == np.int64 and np.array_equal(got, want), name
            assert lay.nonedges.shift == nonedges.shift
            for got, want in zip(lay.nonedges[1:], nonedges[1:]):
                assert got.dtype == want.dtype and np.array_equal(got, want)
            if len(graphs) == 1 and (regenerate or budget == per_trial):
                # a one-trial layout's arrays are its graph's own
                g = graphs[0]
                for got, own in ((lay.src, g.edge_i), (lay.dst, g.edge_j),
                                 (lay.degrees, g.degrees)):
                    assert np.shares_memory(got, own)
            if not regenerate:
                # the fixed graph's trials search the index of its one table
                assert lay.nonedges.low.size == graph.n_edges
        if regenerate:
            # the graphs differ in size, yet every full block holds k trials
            assert len({g.n_edges for graphs, _, _ in blocks for g in graphs}) > 1


def test_a_lone_fixed_graph_layout_allocates_only_its_non_edge_table():
    # a one-trial layout of a fixed graph uses the graph's own endpoint and
    # degree arrays, and holds no per-edge array but the index of the
    # graph's one non-edge table, in at most the 8 bytes per edge of the
    # table itself: what it keeps allocated is that index, plus a few
    # one-entry arrays
    g = resolve_graph({"source": "generate", "kind": "ztp", "n_v": 2000, "mean_degree": 10.0,
                       "seed": 3})
    assert g.n_edges > 9000
    tracemalloc.start()
    try:
        lay = _block_layout([g])
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    for got, own in ((lay.src, g.edge_i), (lay.dst, g.edge_j), (lay.degrees, g.degrees)):
        assert np.shares_memory(got, own)
    index_bytes = lay.nonedges.start.nbytes + lay.nonedges.low.nbytes
    assert index_bytes <= 8 * g.n_edges
    assert index_bytes <= kept < index_bytes + 2048


@pytest.mark.parametrize("per_block, pooled", [(1, True), (1.9, True), (2, False)])
def test_a_fixed_graph_runs_on_the_pool_when_one_trial_fills_a_block(
        small_graph, monkeypatch, per_block, pooled):
    # at 2 usable CPUs a fixed graph's ranges run on the pool when the block
    # budget fits one trial, and on this thread when it fits two
    per_trial = 3 * (small_graph.n_edges + small_graph.n_v)
    real_run = harness_mod._run_block
    ran_here = []

    def watched(*args):
        ran_here.append(threading.current_thread() is threading.main_thread())
        return real_run(*args)

    monkeypatch.setattr(harness_mod, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(harness_mod, "_BLOCK_ENTRIES", int(per_block * per_trial))
    monkeypatch.setattr(harness_mod, "_run_block", watched)
    cfg = ExperimentConfig(graph=small_graph, alpha=0.01, beta=0.1, p=0.1, trials=4,
                           master_seed=5)
    _run_trials(cfg, small_graph, _resolve_outcomes(cfg, small_graph.n_v))
    assert ran_here == [not pooled] * (4 if per_block < 2 else 2)


def test_too_many_failures_abort_run(small_graph, monkeypatch):
    _failing_fits(monkeypatch, lambda call, row: row >= 0)
    cfg = ExperimentConfig(graph=small_graph, alpha=0.01, beta=0.1, p=0.1,
                           trials=50, master_seed=3)
    with pytest.raises(ExperimentError):
        run_experiment(cfg)


def test_unconverged_unidentifiable_fit_fails_the_trial_not_the_run(small_graph,
                                                                    monkeypatch):
    # after one pass some fits have alpha_hat + beta_hat >= 1; they are
    # unconverged, not diverged by the band check, yet no MME weight exists
    # for them, so they count as diverged fits and the run goes on
    monkeypatch.setattr(harness_mod, "_fit_rates",
                        functools.partial(harness_mod._fit_rates, max_iter=1))
    cfg = ExperimentConfig(graph=small_graph, alpha=0.3, beta=0.6, p=0.1,
                           trials=40, master_seed=3)
    table = _resolve_outcomes(cfg, small_graph.n_v)
    est, failed, fits, _, _ = _run_trials(cfg, small_graph, table)
    stuck = (fits.status == FIT_DIVERGED) & (fits.iterations == 1)
    assert stuck.any()
    assert failed[stuck].all() and np.isnan(est[stuck]).all()
    assert (fits.status[~failed] == FIT_UNCONVERGED).all()
    assert np.isfinite(est[~failed]).all()


def test_known_noise_skips_fitting(small_graph):
    cfg = ExperimentConfig(graph=small_graph, alpha=0.01, beta=0.1, p=0.1,
                           noise_known=True, trials=30, bootstrap_b=40, master_seed=5)
    summary = run_experiment(cfg)
    assert summary.noise_fit_convergence_rate is None
    assert summary.n_failed == 0


def test_a_graph_too_small_to_fit_is_refused_before_any_trial(monkeypatch):
    # one vertex has no pairs to fit the rates from, and none has no unit:
    # each run is refused with one line before any block runs. With known
    # rates one vertex runs
    real_run, calls = harness_mod._run_block, []

    def counted(*args):
        calls.append(1)
        return real_run(*args)

    monkeypatch.setattr(harness_mod, "_run_block", counted)
    cfg = dict(alpha=0.01, beta=0.1, p=0.3, trials=3, bootstrap_b=5)
    with pytest.raises(ValueError, match="^fitting the noise rates .* set noise_known"):
        run_experiment(ExperimentConfig(graph=Graph(1), **cfg))
    for noise_known in (False, True):
        with pytest.raises(ValueError, match="^need at least one unit$"):
            run_experiment(ExperimentConfig(graph=Graph(0), noise_known=noise_known, **cfg))
    assert not calls
    run_experiment(ExperimentConfig(graph=Graph(1), noise_known=True, **cfg))
    assert calls


_PROBE_RATES = (0.0, 1e-12, 0.01, 0.3, 0.9, 1.0 - 1e-12, 1.0)


@st.composite
def _probe_configs(draw):
    # small configs at the robustness probe's ranges: a fixed graph of 2 to
    # 19 vertices, or a regenerating ZTP or Pareto law of 4 to 19
    seed = draw(st.integers(0, 2**16))
    if draw(st.booleans()):
        n = draw(st.integers(4, 19))
        if draw(st.booleans()):
            graph = {"source": "generate", "kind": "ztp", "n_v": n,
                     "mean_degree": draw(st.floats(1.5, 6.0)), "seed": seed}
        else:
            graph = {"source": "generate", "kind": "pareto", "n_v": n,
                     "rate": draw(st.floats(0.1, 1.0)), "shape": draw(st.floats(0.5, 2.0)),
                     "lower": draw(st.integers(1, 2)), "seed": seed}
    else:
        graph = random_graph(draw(st.integers(2, 19)), draw(st.floats(0.0, 1.0)), seed)
    return dict(
        graph=graph, regenerate_graph=isinstance(graph, dict),
        alpha=draw(st.sampled_from(_PROBE_RATES)), beta=draw(st.sampled_from(_PROBE_RATES)),
        p=draw(st.floats(1e-9, 1.0 - 1e-9)), noise_known=draw(st.booleans()),
        mixing=draw(st.sampled_from(harness_mod.MIXING_MODES)),
        estimators=draw(st.lists(st.sampled_from(harness_mod.ESTIMATOR_NAMES), unique=True)),
        outcomes=draw(st.sampled_from([DILATED, (1, 2, 3, 4), (1e200, 1.0, 1.0, 1.0)])),
        trials=draw(st.integers(1, 5)), bootstrap_b=draw(st.integers(1, 30)),
        master_seed=draw(st.integers(0, 2**32)),
    )


def _probe_run(kwargs, cpus, tmp):
    # the run's output bytes, or its exception's type and message, and
    # whether any block ran; on one usable CPU the blocks hold as many
    # trials as the budget fits, and on two the ranges hold one trial each
    # and run on the pool
    blocks = []
    real_run = harness_mod._run_block

    def counted(*args):
        blocks.append(1)
        return real_run(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness_mod, "_run_block", counted)
        mp.setattr(harness_mod, "_usable_cpus", lambda: cpus)
        if cpus > 1:
            mp.setattr(harness_mod, "_BLOCK_ENTRIES", 1)
        mp.setattr(harness_mod, "_THREADED_BUILD_STUBS", 0)
        try:
            summary = run_experiment(ExperimentConfig(**kwargs))
        except (ValueError, ExperimentError) as exc:
            return (type(exc), str(exc)), None, bool(blocks)
    csv_path = tmp / f"run_{cpus}.csv"
    emit_results(summary, csv_path)
    return (csv_path.read_bytes(), csv_path.with_suffix(".json").read_text()), summary, True


_PROBE_TINY = dict(alpha=0.01, beta=0.1, p=0.5, trials=3, bootstrap_b=5)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_probe_configs())
@example(dict(_PROBE_TINY, graph=Graph(0)))  # no unit: refused
@example(dict(_PROBE_TINY, graph=Graph(1)))  # no pair to fit from: refused
@example(dict(_PROBE_TINY, graph=Graph(1), noise_known=True))  # runs
def test_small_runs_return_or_fail_cleanly_and_alike_on_one_and_two_cpus(kwargs):
    # under -W error, every run returns or raises ExperimentError; a
    # ValueError comes from the config, graph or outcome checks before any
    # block runs. A returned run's sidecar re-reads equal, its unattained
    # levels read 0 (and, the outcomes being positive, HT_true's and
    # AS_noisy's other levels read above 0), and its bytes, or its error,
    # are the same on one usable CPU and on two, where its ranges run on
    # the pool
    with warnings.catch_warnings(), tempfile.TemporaryDirectory() as tmp:
        warnings.simplefilter("error")
        try:
            ExperimentConfig(**kwargs)
        except ValueError:
            return
        out, summary, ran = _probe_run(kwargs, 1, Path(tmp))
        assert _probe_run(kwargs, 2, Path(tmp))[0] == out
    if summary is None:
        assert out[0] is ExperimentError or not ran, out
        return
    sidecar = json.loads(out[1])
    assert json.dumps(sidecar, indent=2, sort_keys=True) + "\n" == out[1]
    assert sidecar["config"] == summary.config
    assert (sidecar["n_trials"], sidecar["n_failed"]) == (summary.n_trials, summary.n_failed)
    assert sidecar.get("unattained_levels", []) == list(summary.unattained_levels)
    unattained = {(u["estimator"], u["level"]) for u in summary.unattained_levels}
    for row in summary.rows:
        if (row.estimator, row.level) in unattained:
            assert row.mean_estimate == 0.0
        elif row.estimator != "MME":
            # positive outcomes: a level with a term somewhere reads above 0
            assert row.mean_estimate > 0.0


def test_levels_cover_every_treatment_and_count():
    # own treatment crossed with "any neighbor treated", as int64 codes in
    # LEVEL_NAMES order, for treated-neighbor counts of 0, 1 and more
    z = np.array([True, True, True, False, False, False])
    counts = np.array([1, 3, 0, 2, 1, 0])
    levels = _levels(z, counts)
    assert levels.dtype == np.int64
    assert [LEVEL_NAMES[lv] for lv in levels] == ["c11", "c11", "c10", "c01", "c01", "c00"]


@pytest.mark.parametrize("p", [1e-3, 0.1, 0.5, 0.97])
def test_level_probabilities_equal_the_closed_form_at_every_degree(p):
    # the table gather gives the closed form's bits at every degree from 0
    # to the largest and every level, for a (trials, vertices) array
    degrees = np.repeat(np.arange(301), 4).reshape(4, -1)
    levels = np.tile(np.arange(4), degrees.size // 4).reshape(degrees.shape)
    got = _level_probabilities(degrees, levels, p)
    assert got.shape == degrees.shape
    assert np.array_equal(got, _own_level_probability(degrees, levels, p))
    edgeless = np.zeros(5, dtype=np.int64)
    assert np.array_equal(_level_probabilities(edgeless, np.arange(5) % 4, p),
                          _own_level_probability(edgeless, np.arange(5) % 4, p))


def test_regenerated_graphs_vary_but_stay_deterministic():
    spec = {"source": "generate", "kind": "ztp", "n_v": 40, "mean_degree": 4.0, "seed": 1}
    cfg = dict(graph=spec, alpha=0.0, beta=0.0, p=0.1, trials=12,
               bootstrap_b=30, master_seed=21, regenerate_graph=True)
    a = run_experiment(ExperimentConfig(**cfg))
    b = run_experiment(ExperimentConfig(**cfg))
    assert a.rows == b.rows


@pytest.mark.parametrize("regenerate", [False, True])
def test_block_degrees_and_moments_equal_the_per_graph_path(small_graph, regenerate):
    # nine trials of the fixed graph in one block, or, regenerating, nine
    # trials that each have their own graph and non-edge table
    _check_block_degrees_and_moments(small_graph, "regenerating" if regenerate else "fixed")


@pytest.mark.parametrize("case", ["fixed_blocks", "edgeless"])
def test_block_degrees_and_moments_hold_across_blocks_and_without_edges(small_graph, case):
    # the fixed graph's nine trials cut into blocks of three that share one
    # layout and one non-edge table, as ``_run_trials`` does; and a graph
    # with no edges, whose replicates have only false edges
    _check_block_degrees_and_moments(small_graph, case)


def _check_block_degrees_and_moments(small_graph, case):
    # heavy noise, so that replicates share missed and false edges: replicate
    # 0's degrees, the three replicates' degree sum, the moments and the
    # presence tables of each trial equal those of its replicates drawn by
    # hand through ``replicate``
    spec = {"source": "generate", "kind": "ztp", "n_v": 60, "mean_degree": 5.0, "seed": 4}
    regenerate = case == "regenerating"
    graph = {"regenerating": None, "edgeless": Graph(30)}.get(case, small_graph)
    cfg = ExperimentConfig(graph=spec if regenerate else graph, alpha=0.05, beta=0.3,
                           p=0.1, trials=9, master_seed=41, regenerate_graph=regenerate)
    size = 3 if case == "fixed_blocks" else cfg.trials
    layout = None if regenerate else _block_layout([graph] * size)
    blocks = []
    for t0 in range(0, cfg.trials, size):
        trials = _trial_source(cfg, graph, t0, t0 + size)
        draws = _draw_block(cfg, trials)
        assert len(draws.graphs) == size and next(trials, None) is None
        changes = _replicate_changes(draws, layout or _block_layout(draws.graphs))
        lay = changes.lay
        missed = harness_mod._missed_counts(draws.missed, lay.n_true)
        assert changes.missed_0 == missed[:, 1::2].sum()
        false = _presence_table(changes.false, changes.false_rep, changes.gained,
                                _pair_count(lay.n))
        moments = harness_mod._replicate_moments(missed, changes.gained, changes.false,
                                                 changes.false_rep, lay.n)
        blocks += zip(draws.graphs, *np.reshape(_observed_degrees(changes), (2, size, -1)),
                      *moments, missed, false, np.transpose(changes.gained))
    missed_thrice = shared = 0
    for t, (block_g, deg, deg_sum, *block_moments, by_miss, by_presence, gained) in (
            enumerate(blocks)):
        # trial t's graph and replicates, drawn by hand from its own stream
        rng = make_rng(cfg.master_seed, _TRIAL_STREAM, t)
        g = harness_mod._build_generated_graph(spec, rng) if regenerate else graph
        assert g == block_g
        reps = replicate(g, cfg.noise, 3, rng)
        assert np.array_equal(deg, reps[0].degrees)
        assert np.array_equal(deg_sum, sum(r.degrees for r in reps))
        assert deg_sum.dtype == np.int64
        # a third of the exact sum is the replicates' mean degree to the bit
        assert np.array_equal(deg_sum / 3.0, np.mean([r.degrees for r in reps], axis=0))
        m = moment_stats(*reps)
        assert tuple(block_moments) == (m.u1, m.u2, m.u3)
        # the true edges by miss pattern, and the false ones by presence
        # pattern: bit r for replicate r
        pattern = sum(~np.isin(g.codes, r.codes) << k for k, r in enumerate(reps))
        assert np.array_equal(by_miss, np.bincount(pattern, minlength=8))
        seen = np.setdiff1d(np.concatenate([r.codes for r in reps]), g.codes)
        pattern = sum(np.isin(seen, r.codes) << k for k, r in enumerate(reps))
        assert np.array_equal(by_presence, np.bincount(pattern, minlength=8))
        assert list(gained) == [np.setdiff1d(r.codes, g.codes).size for r in reps]
        missed_thrice += by_miss[7]
        both = np.intersect1d(reps[1].codes, reps[2].codes)
        shared += np.setdiff1d(both, g.codes).size
    assert shared > 0  # some false edges coincide across replicates
    if case == "edgeless":
        assert not any(np.count_nonzero(b[6]) for b in blocks)
    else:
        assert missed_thrice > 0  # some true edges are missed by all three replicates


class _EditedGaps:
    """A trial's own generator whose Geometric gaps pass through ``edit``;
    the gaps are still drawn from the stream, so the draw order shows."""

    def __init__(self, rng, edit, calls):
        self.rng, self.edit, self.calls = rng, edit, calls

    def geometric(self, p, size):
        self.calls.append(size)
        return self.edit(self.rng.geometric(p, size))

    def __getattr__(self, name):
        return getattr(self.rng, name)


def _trial_source(cfg, graph, t0=0, t1=None):
    # the (graph, generator) pairs of trials t0 ... t1 - 1 in trial order,
    # each made when it is taken; graph is None when every trial
    # regenerates its graph
    words = _trial_words(cfg)
    t1 = cfg.trials if t1 is None else t1
    return (harness_mod._trial(cfg, graph, words, t) for t in range(t0, t1))


def _block_path(cfg, graph, size):
    # per trial: its graph, its replicates' edge codes and its treatment
    # flags, as the block path draws them in blocks of ``size`` trials
    out = []
    for t0 in range(0, cfg.trials, size):
        draws = _draw_block(cfg, _trial_source(cfg, graph, t0, min(t0 + size, cfg.trials)))
        ch = _replicate_changes(draws, _block_layout(draws.graphs))
        n = ch.lay.n
        # the missed edges come replicate by replicate, as flagged
        per_rep = np.count_nonzero(draws.missed, axis=1)
        assert ch.missed_0 == per_rep[0]
        miss_rep = np.repeat(np.arange(3), per_rep)
        for k, g in enumerate(draws.graphs):
            reps = []
            for r in range(3):
                on = (ch.miss_i // n == k) & (miss_rep == r)
                lost = (ch.miss_i[on] - k * n) * n + (ch.miss_j[on] - k * n)
                assert np.isin(lost, g.codes).all()
                on = (ch.false // (n * (n - 1) // 2) == k) & (ch.false_rep == r)
                assert np.count_nonzero(on) == ch.gained[r, k]
                false = (ch.false_i[on] - k * n) * n + (ch.false_j[on] - k * n)
                reps.append(np.sort(np.concatenate([np.setdiff1d(g.codes, lost), false])))
            out.append((g, reps, draws.z[k * n : (k + 1) * n]))
    return out


def _per_graph_path(cfg, graph, t):
    # trial t drawn by hand from its own stream: graph, replicates, treatment
    rng = harness_mod.make_rng(cfg.master_seed, _TRIAL_STREAM, t)
    g = harness_mod._build_generated_graph(cfg.graph, rng) if graph is None else graph
    reps = replicate(g, cfg.noise, 3, rng)
    return g, [r.codes for r in reps], assign_treatment(g.n_v, cfg.p, rng).z


_EDGE_CASES = ("short_first_batch", "gap_at_last_nonedge", "gap_past_last_nonedge",
               "tiny_alpha", "alpha_zero", "complete_graph", "beta_zero", "beta_one",
               "regenerating")


@pytest.mark.parametrize("one_trial_blocks", [False, True])
@pytest.mark.parametrize("case", _EDGE_CASES)
def test_block_draws_equal_the_per_graph_path(case, one_trial_blocks, small_graph,
                                              monkeypatch):
    graph, alpha, beta = small_graph, 0.02, 0.1
    nonedges = small_graph.n_v * (small_graph.n_v - 1) // 2 - small_graph.n_edges
    edit, calls = None, []
    if case == "short_first_batch":
        # gaps of at most 3 end no first batch: every draw continues
        edit = functools.partial(np.minimum, 3)
    elif case in ("gap_at_last_nonedge", "gap_past_last_nonedge"):
        # a first gap of n_nonedges turns on the last non-edge; one more
        # reaches past it, and the cap must keep it there
        first = nonedges + (case == "gap_past_last_nonedge")

        def edit(gaps):
            gaps[0] = first
            return gaps
    elif case == "tiny_alpha":
        alpha = 1e-300  # every gap is int64's maximum; their sum wraps
    elif case == "alpha_zero":
        alpha = 0.0
    elif case == "complete_graph":
        i, j = np.triu_indices(12, 1)
        graph = Graph(12, i, j)
    elif case in ("beta_zero", "beta_one"):
        beta = float(case == "beta_one")
    spec = {"source": "generate", "kind": "ztp", "n_v": 60, "mean_degree": 5.0, "seed": 4}
    regenerate = case == "regenerating"
    cfg = ExperimentConfig(graph=spec if regenerate else graph, alpha=alpha, beta=beta,
                           p=0.3, trials=9, master_seed=17, regenerate_graph=regenerate)
    graph = None if regenerate else graph
    if edit is not None:
        # both paths' generators: the block path's, built from hashed seed
        # words, and the per-graph path's ``make_rng`` streams
        real, real_words = harness_mod.make_rng, harness_mod.rng_from_words
        monkeypatch.setattr(harness_mod, "make_rng",
                            lambda *path: _EditedGaps(real(*path), edit, calls))
        monkeypatch.setattr(harness_mod, "rng_from_words",
                            lambda words: _EditedGaps(real_words(words), edit, calls))
    block = _block_path(cfg, graph, 1 if one_trial_blocks else cfg.trials)
    assert len(block) == cfg.trials
    block_calls = len(calls)
    for t, (g, reps, z) in enumerate(block):
        want_g, want_reps, want_z = _per_graph_path(cfg, graph, t)
        assert g == want_g
        assert all(np.array_equal(a, b) for a, b in zip(reps, want_reps)), t
        assert np.array_equal(z, want_z), t
    assert block_calls == len(calls) - block_calls
    falses = [rep.size - len(np.intersect1d(rep, g.codes)) for g, reps, _ in block
              for rep in reps]
    if case == "short_first_batch":
        assert block_calls > 3 * cfg.trials
    elif case == "gap_at_last_nonedge":
        i, j = np.triu_indices(small_graph.n_v, 1)
        last = np.setdiff1d(i * small_graph.n_v + j, small_graph.codes)[-1]
        assert falses == [1] * (3 * cfg.trials)
        assert all(last in rep for _, reps, _ in block for rep in reps)
    elif case in ("gap_past_last_nonedge", "tiny_alpha", "alpha_zero", "complete_graph"):
        assert falses == [0] * (3 * cfg.trials)
    if case == "beta_one":
        assert all(np.setdiff1d(rep, g.codes).size == rep.size for g, reps, _ in block
                   for rep in reps)
    elif case == "beta_zero":
        assert all(np.isin(g.codes, rep).all() for g, reps, _ in block for rep in reps)
    elif case == "regenerating":
        assert len({g.n_edges for g, _, _ in block}) > 1


def _homogeneous_graph(n, seed):
    rng = make_rng(seed)
    return build_graph_configuration(
        sample_degree_sequence(ZeroTruncatedPoisson(10.0), n, rng), rng)


def _budget_case(case, tmp_path, small_graph):
    # the three benchmark workloads (the 1e5-vertex ZTP graph scaled down to
    # 2e4 vertices), per-vertex outcomes, and the estimator subsets of
    # acceptance criteria 5 and 7
    if case == "school_dense":
        school = {"source": "generate", "kind": "pareto", "n_v": 115, "rate": 0.40,
                  "shape": 1.0, "lower": 7, "seed": 12345}
        return dict(graph=resolve_graph(school), alpha=0.01, beta=0.10, p=0.1, trials=300)
    if case == "ztp_sparse":
        ztp = {"source": "generate", "kind": "ztp", "n_v": 20_000, "mean_degree": 10.0,
               "seed": 12345}
        return dict(graph=resolve_graph(ztp), alpha=1e-5, beta=0.10, p=0.01, trials=8)
    if case == "pareto_regen_known":
        pareto = {"source": "generate", "kind": "pareto", "n_v": 500, "rate": 0.1,
                  "shape": 1.2, "lower": 3, "seed": 12345}
        return dict(graph=pareto, alpha=0.005, beta=0.10, p=0.1, trials=30, noise_known=True,
                    mixing="order_of_magnitude", regenerate_graph=True)
    if case == "pareto_regen_fitted":
        # the same law with fitted rates: per-trial non-edge tables meet the
        # coincidence rows of several trials
        return dict(_budget_case("pareto_regen_known", tmp_path, small_graph), trials=60,
                    noise_known=False)
    if case == "vertex_outcomes":
        outcomes = tmp_path / "outcomes.csv"
        rows = make_rng(5).normal(size=(small_graph.n_v, 4)) * 3.0 + np.array(DILATED)
        outcomes.write_text("y_c11,y_c10,y_c01,y_c00\n" + "".join(
            ",".join(repr(float(v)) for v in row) + "\n" for row in rows))
        return dict(graph=small_graph, alpha=0.01, beta=0.1, p=0.1, outcomes=str(outcomes),
                    trials=200, mixing="order_of_magnitude")
    if case == "criterion_5":
        return dict(graph=_homogeneous_graph(500, 72), alpha=0.005, beta=0.10, p=0.1,
                    noise_known=True, trials=300, estimators=("AS_noisy",))
    assert case == "criterion_7"
    return dict(graph=_homogeneous_graph(250, 71), alpha=0.005, beta=0.10, p=0.1,
                trials=300, estimators=("AS_noisy", "MME"))


@pytest.mark.parametrize("case", ["school_dense", "ztp_sparse", "pareto_regen_known",
                                  "pareto_regen_fitted", "vertex_outcomes", "criterion_5",
                                  "criterion_7"])
def test_results_do_not_depend_on_the_block_size(case, small_graph, tmp_path, monkeypatch):
    kwargs = dict(_budget_case(case, tmp_path, small_graph), bootstrap_b=200, master_seed=777)
    cfg = ExperimentConfig(**kwargs)
    # the fixed graph, or the graph of a regenerating run's trial 0
    graph = _trial_source(cfg, None if cfg.regenerate_graph else resolve_graph(cfg.graph))
    graph = next(graph)[0]
    per_trial = 3 * (graph.n_edges + graph.n_v)
    blocks = []
    real_draw = harness_mod._draw_block
    lock = threading.Lock()  # a large graph's blocks draw on several threads

    def counted(*args):
        with lock:
            blocks[-1] += 1
        return real_draw(*args)

    monkeypatch.setattr(harness_mod, "_draw_block", counted)
    outputs = []
    for budget in (per_trial, 7 * per_trial, harness_mod._BLOCK_ENTRIES):
        monkeypatch.setattr(harness_mod, "_BLOCK_ENTRIES", budget)
        blocks.append(0)
        summary = run_experiment(ExperimentConfig(**kwargs))
        csv_path = tmp_path / f"run_{budget}.csv"
        emit_results(summary, csv_path)
        outputs.append((csv_path.read_bytes(), csv_path.with_suffix(".json").read_bytes()))
    assert blocks[0] == kwargs["trials"] and blocks[1] < blocks[0]
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
    if case == "pareto_regen_fitted":
        # every trial's rates were fitted, and every fit converged
        assert summary.n_failed == 0 and summary.noise_fit_convergence_rate == 1.0


def test_results_do_not_depend_on_the_thread_count(small_graph, tmp_path, monkeypatch):
    # the 2e4-vertex ZTP graph's one-trial ranges, and a 500-vertex
    # regenerating run's ranges with the graphs they build, run on as many
    # threads as there are usable CPUs (at most one per range). The output
    # bytes, the first failing range's exception and the live thread count
    # after the run are those of the one-thread run
    ztp = dict(_budget_case("ztp_sparse", tmp_path, small_graph), bootstrap_b=200,
               master_seed=777)
    assert 3 * (ztp["graph"].n_edges + ztp["graph"].n_v) >= harness_mod._BLOCK_ENTRIES
    regen = dict(_budget_case("pareto_regen_known", tmp_path, small_graph), bootstrap_b=200,
                 master_seed=777)
    cfg = ExperimentConfig(**regen)
    first, _ = harness_mod._trial(cfg, None, _trial_words(cfg), 0)
    assert 2 * first.n_edges >= harness_mod._THREADED_BUILD_STUBS
    real_run, real_trial = harness_mod._run_block, harness_mod._trial
    ran_on, built_on, failing = [], {}, set()

    def watched(cfg, trials, layout, table, rule):
        ran_on.append(threading.current_thread() is threading.main_thread())
        return real_run(cfg, trials, layout, table, rule)

    def trial(cfg, graph, words, t):
        # a range makes its trials' pairs on its own thread
        if graph is None:
            built_on[t] = threading.current_thread() is threading.main_thread()
        if t in failing:
            raise RuntimeError(f"trial {t}")
        return real_trial(cfg, graph, words, t)

    monkeypatch.setattr(harness_mod, "_run_block", watched)
    monkeypatch.setattr(harness_mod, "_trial", trial)
    start = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # up to more threads than cores, switching often
    try:
        # trials 3 and 5 of 8 fail, or the builds of trials 7 and 12: trial
        # 3's or trial 7's exception surfaces, as in turn
        for kwargs, fails, error in ((ztp, (3, 5), "trial 3"), (regen, (7, 12), "trial 7")):
            outputs, errors = [], []
            trials = kwargs["trials"]
            for cpus in (1, 2, 3):
                monkeypatch.setattr(harness_mod, "_usable_cpus", lambda: cpus)
                failing.clear()
                ran_on.clear()
                built_on.clear()
                summary = run_experiment(ExperimentConfig(**kwargs))
                assert threading.active_count() == start
                assert len(ran_on) > 1 and all(ran_on) == (cpus == 1)
                if kwargs is ztp:
                    assert len(ran_on) == trials
                    assert not built_on
                else:
                    # trial 0's graph is built here, the others off this
                    # thread exactly when there are several CPUs
                    assert sorted(built_on) == list(range(trials))
                    assert ([built_on[t] for t in range(trials)]
                            == [True] + [cpus == 1] * (trials - 1))
                csv_path = tmp_path / f"run_{cpus}.csv"
                emit_results(summary, csv_path)
                outputs.append((csv_path.read_bytes(),
                                csv_path.with_suffix(".json").read_bytes()))
                failing.update(fails)
                with pytest.raises(RuntimeError) as info:
                    run_experiment(ExperimentConfig(**kwargs))
                assert threading.active_count() == start
                errors.append(str(info.value))
            assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
            assert errors == [error] * 3
    finally:
        sys.setswitchinterval(interval)
    failing.clear()
    # a small graph's ranges (three of them here) stay on this thread, and
    # so do the ranges and builds of a 115-vertex regenerating run
    ran_on.clear()
    run_experiment(ExperimentConfig(**dict(_budget_case("school_dense", tmp_path, small_graph),
                                           trials=160, bootstrap_b=20)))
    assert len(ran_on) == 3 and all(ran_on)
    school = dict(_budget_case("school_dense", tmp_path, small_graph), trials=160,
                  bootstrap_b=20, regenerate_graph=True)
    school["graph"] = {"source": "generate", "kind": "pareto", "n_v": 115, "rate": 0.40,
                       "shape": 1.0, "lower": 7, "seed": 12345}
    ran_on.clear()
    built_on.clear()
    run_experiment(ExperimentConfig(**school))
    assert len(ran_on) > 1 and all(ran_on)
    assert len(built_on) == 160 and all(built_on.values())


def test_a_failing_block_cancels_the_builds_not_yet_started(small_graph, tmp_path,
                                                           monkeypatch):
    # a regenerating run's one-trial ranges on two threads, each slowed, so
    # that most have not started when range 2 raises: its exception is
    # raised, those ranges never start, so they never build their graphs,
    # also after the run returns, and no thread is left
    kwargs = dict(_budget_case("pareto_regen_known", tmp_path, small_graph), bootstrap_b=20,
                  master_seed=777)
    real_run, real_trial = harness_mod._run_block, harness_mod._trial
    started, built, lock = [], [], threading.Lock()

    def building(cfg, graph, words, t):
        with lock:
            built.append(t)
        return real_trial(cfg, graph, words, t)

    def failing(cfg, trials, layout, table, rule):
        trials = list(trials)
        with lock:
            started.append(len(started))
            if len(started) == 3:
                raise RuntimeError("block 2")
        time.sleep(0.05)
        return real_run(cfg, trials, layout, table, rule)

    monkeypatch.setattr(harness_mod, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(harness_mod, "_BLOCK_ENTRIES", 1)
    monkeypatch.setattr(harness_mod, "_trial", building)
    monkeypatch.setattr(harness_mod, "_run_block", failing)
    start = threading.active_count()
    with pytest.raises(RuntimeError, match="^block 2$"):
        run_experiment(ExperimentConfig(**kwargs))
    assert threading.active_count() == start
    ran, builds = len(started), len(built)
    time.sleep(0.2)
    assert len(started) == ran < kwargs["trials"] // 2
    # trial 0 is built here; every other build belongs to a range that started
    assert len(built) == builds == ran


def test_a_failing_consumer_starts_no_later_range(small_graph, tmp_path, monkeypatch):
    # a regenerating run's one-trial ranges on two threads, each slowed:
    # range 1 returns None, so the run's own loop raises TypeError when it
    # takes range 1's results. That error is raised, the queued ranges never
    # start, also after the run returns, and no thread is left
    kwargs = dict(_budget_case("pareto_regen_known", tmp_path, small_graph), bootstrap_b=20,
                  master_seed=777)
    real_run, real_trial = harness_mod._run_block, harness_mod._trial
    trial_of, started, lock = {}, [], threading.Lock()

    def tagged(cfg, graph, words, t):
        pair = real_trial(cfg, graph, words, t)
        trial_of[id(pair[1])] = t
        return pair

    def broken(cfg, trials, layout, table, rule):
        trials = list(trials)
        t = trial_of[id(trials[0][1])]
        with lock:
            started.append(t)
        time.sleep(0.05)
        out = real_run(cfg, trials, layout, table, rule)
        return None if t == 1 else out

    monkeypatch.setattr(harness_mod, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(harness_mod, "_BLOCK_ENTRIES", 1)
    monkeypatch.setattr(harness_mod, "_trial", tagged)
    monkeypatch.setattr(harness_mod, "_run_block", broken)
    start = threading.active_count()
    with pytest.raises(TypeError):
        run_experiment(ExperimentConfig(**kwargs))
    assert threading.active_count() == start
    ran = len(started)
    time.sleep(0.2)
    assert len(started) == ran < kwargs["trials"] // 2


def test_regenerated_lazy_graphs_nest_no_second_pool(tmp_path, monkeypatch):
    # a regenerating run whose ZTP(10) graphs (n = 2000, about 2e4 stubs)
    # take the lazy path: every build runs its attempts in turn on the
    # thread that builds, trial 0's on this thread and the later ones on the
    # run's range threads. At 2 usable CPUs no more than 2 range threads
    # are ever alive, and the CSV and sidecar are those of the 1-CPU run
    kwargs = dict(graph={"source": "generate", "kind": "ztp", "n_v": 2000, "mean_degree": 10.0,
                         "seed": 12345},
                  alpha=0.005, beta=0.10, p=0.1, trials=6, bootstrap_b=20, master_seed=777,
                  noise_known=True, regenerate_graph=True)
    real_attempt = graphs_mod._lazy_attempt
    alive, ran_on, lock = [], collections.Counter(), threading.Lock()

    def watched(*args):
        with lock:
            alive.append(sum(t.name.startswith(harness_mod._THREAD_PREFIX)
                             for t in threading.enumerate()))
            ran_on[threading.current_thread().name] += 1
        return real_attempt(*args)

    monkeypatch.setattr(graphs_mod, "_lazy_attempt", watched)
    start = threading.active_count()
    here = threading.current_thread().name
    outputs = []
    for cpus in (1, 2):
        monkeypatch.setattr(harness_mod, "_usable_cpus", lambda: cpus)
        alive.clear()
        ran_on.clear()
        summary = run_experiment(ExperimentConfig(**kwargs))
        assert threading.active_count() == start
        assert len(alive) == 6 * 99
        if cpus == 1:
            assert max(alive) == 0 and ran_on == {here: 6 * 99}
        else:
            assert 0 < max(alive) <= 2 and ran_on[here] == 99
            assert all(name.startswith(harness_mod._THREAD_PREFIX) for name in ran_on if name != here)
        csv_path = tmp_path / f"run_{cpus}.csv"
        emit_results(summary, csv_path)
        outputs.append((csv_path.read_bytes(), csv_path.with_suffix(".json").read_bytes()))
    assert outputs[1] == outputs[0]


@pytest.mark.parametrize("cpus", [2, 3])
def test_at_most_threads_blocks_run_at_once(cpus, small_graph, tmp_path, monkeypatch):
    # a regenerating run's one-trial ranges, each slowed while it holds no
    # lock, run on ``cpus`` threads: never more of them at once, and that
    # many at once at some point
    kwargs = dict(_budget_case("pareto_regen_known", tmp_path, small_graph), bootstrap_b=20,
                  master_seed=777)
    real_run = harness_mod._run_block
    lock = threading.Lock()
    running, depths = [0], []

    def slowly(*args):
        with lock:
            running[0] += 1
            depths.append(running[0])
        time.sleep(0.05)
        try:
            return real_run(*args)
        finally:
            with lock:
                running[0] -= 1

    monkeypatch.setattr(harness_mod, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(harness_mod, "_BLOCK_ENTRIES", 1)
    monkeypatch.setattr(harness_mod, "_run_block", slowly)
    run_experiment(ExperimentConfig(**kwargs))
    assert len(depths) == kwargs["trials"] and max(depths) == cpus


def test_sidecar_summarises_the_rate_fits(small_graph, tmp_path):
    cfg = ExperimentConfig(graph=small_graph, alpha=0.01, beta=0.1, p=0.1, trials=80,
                           bootstrap_b=50, master_seed=31)
    summary = run_experiment(cfg)
    table = _resolve_outcomes(cfg, small_graph.n_v)
    _, failed, fits, _, _ = _run_trials(cfg, small_graph, table)
    assert not failed.any()

    def spread(x):
        return {"mean": x.mean(), "sd": x.std(ddof=1), "q25": np.percentile(x, 25),
                "median": np.percentile(x, 50), "q75": np.percentile(x, 75)}

    assert summary.noise_fit == {
        "failed": {"degenerate": 0, "diverged": 0},
        "unconverged": 0,
        "alpha_hat": spread(fits.alpha_hat),
        "beta_hat": spread(fits.beta_hat),
        "iterations": {"mean": fits.iterations.mean(), "max": fits.iterations.max()},
    }
    assert 0.005 < summary.noise_fit["alpha_hat"]["median"] < 0.02
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    emit_results(summary, out1)
    emit_results(run_experiment(cfg), out2)
    assert out1.read_bytes() == out2.read_bytes()
    assert (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()
    sidecar = json.loads((tmp_path / "r1.json").read_text())
    assert sidecar["noise_fit"] == summary.noise_fit
    # known rates have no fit to summarise
    known = run_experiment(dataclasses.replace(cfg, noise_known=True))
    emit_results(known, out1)
    assert known.noise_fit is None
    assert json.loads((tmp_path / "r1.json").read_text())["noise_fit"] is None


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
    est, failed, _, _, _ = _run_trials(cfg, small_graph, table)
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
