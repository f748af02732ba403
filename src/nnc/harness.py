"""Scenario orchestration: replicated observation, rate fitting, estimation,
and bootstrap summaries, all reproducible from one master seed.

Per-trial randomness comes from an independent PCG64 stream seeded by an
avalanche mix of (master_seed, trial index). The bootstrap draws one set of
resamples per experiment from its own mix domain, and every summary column
(estimator x level, mean and SD) is read off those same resamples.
Aggregation runs in trial-index order, so results do not depend on how
trials would be scheduled.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from .estimators import (
    MixingRule,
    OutcomeTable,
    ht_estimate,
    load_outcome_table,
    mme_estimate,
    realize_outcomes,
)
from .exposure import LEVEL_NAMES, assign_treatment, exposure_levels
from .graphs import (
    Graph,
    ParetoExpCutoff,
    ZeroTruncatedPoisson,
    build_graph_configuration,
    build_true_graph_from_rounds,
    load_edge_list,
    load_rounds,
    sample_degree_sequence,
)
from .noise import NoiseParams, replicate
from .noise_fit import NoiseFitError, fit_alpha_beta, moment_stats
from .seeding import make_rng

ESTIMATOR_NAMES = ("HT_true", "AS_noisy", "MME")
MIXING_MODES = ("sparse_fallback", "order_of_magnitude")

# seed-mix domains
_GRAPH_STREAM = 1
_TRIAL_STREAM = 2
_BOOT_STREAM = 3
_PERTURB_STREAM = 4  # ``nnc perturb``; never the generator's stream at the same seed

# entries of one block of the shared bootstrap's count matrix (1 MB of float64)
_BOOT_BLOCK_ENTRIES = 2**17


class ExperimentError(RuntimeError):
    """The run as a whole is unusable (e.g. too many failed trials)."""


@dataclass
class ExperimentConfig:
    """Everything needed to reproduce one experiment.

    ``graph`` is either an in-memory ``Graph`` or a JSON-style dict:
    ``{"source": "generate", "kind": "ztp"|"pareto", ...}``,
    ``{"source": "edge_list", "path": ...}`` or
    ``{"source": "rounds", "path": ..., "min_count": 2}``.
    ``outcomes`` is four per-level constants or a path to a per-vertex CSV.
    """

    graph: Graph | dict
    alpha: float
    beta: float
    p: float
    outcomes: Sequence[float] | str = (10.0, 7.0, 5.0, 1.0)
    noise_known: bool = False
    trials: int = 10_000
    bootstrap_b: int = 1_000
    bootstrap_level: float = 0.95
    mixing: str = "sparse_fallback"
    master_seed: int = 0
    estimators: tuple[str, ...] = ESTIMATOR_NAMES
    regenerate_graph: bool = False

    def __post_init__(self):
        self.estimators = tuple(self.estimators)
        unknown = set(self.estimators) - set(ESTIMATOR_NAMES)
        if unknown:
            raise ValueError(f"unknown estimators: {sorted(unknown)}")
        if self.mixing not in MIXING_MODES:
            raise ValueError(f"mixing must be one of {MIXING_MODES}")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.bootstrap_b < 1:
            raise ValueError("bootstrap_b must be at least 1")
        if not (0.0 < self.bootstrap_level < 1.0):
            raise ValueError("bootstrap_level must lie in (0, 1)")
        if not (0.0 < self.p < 1.0):
            raise ValueError("treatment probability must lie in (0, 1)")
        self.noise = NoiseParams(self.alpha, self.beta)
        if "MME" in self.estimators and self.noise_known and not self.noise.identifiable:
            raise ValueError("known-rate correction needs alpha + beta < 1")
        if self.regenerate_graph:
            if not (isinstance(self.graph, dict) and self.graph.get("source") == "generate"):
                raise ValueError("regenerate_graph needs a generator graph source")
            if isinstance(self.outcomes, str):
                raise ValueError("regenerate_graph needs constant outcomes")

    @classmethod
    def from_json(cls, source) -> "ExperimentConfig":
        if isinstance(source, (str, Path)):
            with open(source, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        else:
            data = dict(source)
        if "outcomes" in data and isinstance(data["outcomes"], list):
            data["outcomes"] = tuple(data["outcomes"])
        if "estimators" in data:
            data["estimators"] = tuple(data["estimators"])
        return cls(**data)

    def echo(self) -> dict:
        """JSON-serializable copy of the configuration, one key per field."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        if isinstance(self.graph, Graph):
            g = self.graph
            out["graph"] = {"source": "in_memory", "n_v": g.n_v, "n_edges": g.n_edges}
        else:
            out["graph"] = dict(self.graph)
        if not isinstance(self.outcomes, str):
            out["outcomes"] = list(self.outcomes)
        out["estimators"] = list(self.estimators)
        return out


def _build_generated_graph(spec: dict, rng: np.random.Generator) -> Graph:
    kind = spec.get("kind")
    n_v = int(spec["n_v"])
    if kind == "ztp":
        dist = ZeroTruncatedPoisson(float(spec["mean_degree"]))
    elif kind == "pareto":
        dist = ParetoExpCutoff(
            rate=float(spec["rate"]),
            shape=float(spec["shape"]),
            lower=float(spec["lower"]),
            upper=float(spec.get("upper", n_v - 1)),
        )
    else:
        raise ValueError(f"unknown generator kind {kind!r}")
    degrees = sample_degree_sequence(dist, n_v, rng)
    return build_graph_configuration(degrees, rng)


def resolve_graph(spec: Graph | dict) -> Graph:
    """Materialize the configured true graph."""
    if isinstance(spec, Graph):
        return spec
    source = spec.get("source")
    if source == "generate":
        rng = make_rng(int(spec.get("seed", 0)), _GRAPH_STREAM)
        return _build_generated_graph(spec, rng)
    if source == "edge_list":
        return load_edge_list(spec["path"])
    if source == "rounds":
        data = load_rounds(spec["path"])
        return build_true_graph_from_rounds(data, int(spec.get("min_count", 2)))
    raise ValueError(f"unknown graph source {source!r}")


def _resolve_outcomes(cfg: ExperimentConfig, n_v: int) -> OutcomeTable:
    if isinstance(cfg.outcomes, str):
        table = load_outcome_table(cfg.outcomes)
        if table.n_v != n_v:
            raise ValueError("outcome table size does not match the graph")
        return table
    return OutcomeTable.constant(n_v, cfg.outcomes)


def _mixing_rule(cfg: ExperimentConfig) -> MixingRule:
    if cfg.mixing == "order_of_magnitude":
        return MixingRule.order_of_magnitude(cfg.p)
    return MixingRule.sparse_fallback()


def _run_trials(
    cfg: ExperimentConfig,
    graph: Graph | None,
    table: OutcomeTable | None,
    t0: int,
    t1: int,
):
    """Run trials [t0, t1); returns per-trial estimates and bookkeeping.

    Failed trials (rate fitting degenerate or diverged) carry NaN estimates
    and are flagged. The per-trial draw order is fixed: graph (only when
    regenerating), three replicates, then treatment.

    Each graph is classified once per trial: HT_true reuses the true-graph
    levels that ``realize_outcomes`` computed, and replicate 0's levels are
    shared by AS_noisy and MME. MME's corrected degree is taken from the
    mean observed degree of all three replicates: it has the same
    expectation as replicate 0's degree and a third of its variance, and the
    inverse-confusion weights are exponential in it.

    A trial drops its replicates before the next trial draws new ones, so at
    most one trial's three observed graphs are alive at a time.
    """
    rule = _mixing_rule(cfg)
    n_trials = t1 - t0
    n_est = len(cfg.estimators)
    estimates = np.full((n_trials, n_est, 4), np.nan)
    failed = np.zeros(n_trials, dtype=bool)
    conv = np.zeros(n_trials, dtype=bool)
    rule_counts = {"corrected": 0, "rule_fallback": 0, "singular_fallback": 0}

    for row, t in enumerate(range(t0, t1)):
        rng = make_rng(cfg.master_seed, _TRIAL_STREAM, t)
        if cfg.regenerate_graph:
            g = _build_generated_graph(cfg.graph, rng)
            tbl = _resolve_outcomes(cfg, g.n_v)
        else:
            g, tbl = graph, table
        reps = replicate(g, cfg.noise, 3, rng)
        if cfg.noise_known:
            noise_hat = cfg.noise
            conv[row] = True
        else:
            try:
                fit = fit_alpha_beta(moment_stats(*reps))
            except NoiseFitError:
                failed[row] = True
                del reps
                continue
            noise_hat = NoiseParams(fit.alpha_hat, fit.beta_hat)
            conv[row] = fit.converged
        t_assign = assign_treatment(g.n_v, cfg.p, rng)
        realized = realize_outcomes(g, t_assign, tbl)
        lv_obs = exposure_levels(t_assign, reps[0])
        for e, name in enumerate(cfg.estimators):
            if name == "HT_true":
                estimates[row, e] = ht_estimate(g, realized.levels, realized, cfg.p).values
            elif name == "AS_noisy":
                estimates[row, e] = ht_estimate(reps[0], lv_obs, realized, cfg.p).values
            else:
                d_mean = (reps[0].degrees + reps[1].degrees + reps[2].degrees) / 3.0
                res = mme_estimate(reps[0], lv_obs, realized, cfg.p, noise_hat, rule,
                                   d_obs=d_mean)
                estimates[row, e] = res.means.values
                rule_counts["corrected"] += res.n_corrected
                rule_counts["rule_fallback"] += res.n_rule_fallback
                rule_counts["singular_fallback"] += res.n_singular_fallback
        del reps
    return estimates, failed, conv, rule_counts


@dataclass(frozen=True)
class LevelSummary:
    estimator: str
    level: str
    truth: float
    mean_estimate: float
    bias: float
    bias_ci_lo: float
    bias_ci_hi: float
    sd: float
    sd_ci_lo: float
    sd_ci_hi: float


@dataclass(frozen=True, eq=False)
class EstimateSummary:
    rows: tuple[LevelSummary, ...]
    n_trials: int
    n_failed: int
    noise_fit_convergence_rate: float | None
    mme_rule_counts: dict
    mme_bias_reduction: tuple[dict, ...] | None
    config: dict


def bootstrap_ci(
    samples,
    b: int,
    level: float,
    rng: np.random.Generator,
    statistic: str = "mean",
) -> tuple[float, float]:
    """Percentile confidence interval for the mean or SD of ``samples``.

    Draws ``b`` resamples with replacement, computes the statistic on each,
    and returns the symmetric percentile interval at the given level.
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("samples must be a nonempty vector")
    if b < 1:
        raise ValueError("need at least one resample")
    if not (0.0 < level < 1.0):
        raise ValueError("level must lie in (0, 1)")
    if statistic not in ("mean", "sd"):
        raise ValueError("statistic must be 'mean' or 'sd'")
    n = x.size
    stats = np.empty(b)
    block = max(1, min(b, 4_000_000 // n))
    idx_dtype = np.int32 if n < 2**31 else np.int64
    pos = 0
    while pos < b:
        take = min(block, b - pos)
        idx = rng.integers(0, n, size=(take, n), dtype=idx_dtype)
        draw = x[idx]
        if statistic == "mean":
            stats[pos : pos + take] = draw.mean(axis=1)
        else:
            stats[pos : pos + take] = draw.std(axis=1, ddof=1)
        pos += take
    lo = (1.0 - level) / 2.0 * 100.0
    return (
        float(np.percentile(stats, lo)),
        float(np.percentile(stats, 100.0 - lo)),
    )


def _bootstrap_columns(
    x: np.ndarray, b: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Means and SDs (ddof=1) of every column of ``x`` over ``b`` resamples.

    Each resample draws ``n = len(x)`` row indices with replacement, and all
    columns share them. A block of resamples becomes a count matrix C, one
    ``bincount`` over ``resample * n + index`` of at most
    ``_BOOT_BLOCK_ENTRIES`` entries (or one resample), so the resampled sums
    are ``C @ X`` and ``C @ X**2``. X is centred per column first, so the
    SD's difference of sums does not cancel away the digits of a column far
    from zero. Returns two (b, k) arrays; the SDs are NaN when n < 2.
    """
    n, k = x.shape
    centre = x.mean(axis=0)
    xc = x - centre
    xc2 = xc * xc
    sums = np.empty((b, k))
    sq_sums = np.empty((b, k))
    block = max(1, min(b, _BOOT_BLOCK_ENTRIES // n))
    pos = 0
    while pos < b:
        take = min(block, b - pos)
        idx = rng.integers(0, n, size=(take, n))
        idx += np.arange(0, take * n, n)[:, None]
        counts = np.bincount(idx.ravel(), minlength=take * n).reshape(take, n)
        del idx
        counts = counts.astype(np.float64)
        sums[pos : pos + take] = counts @ xc
        sq_sums[pos : pos + take] = counts @ xc2
        pos += take
    means = sums / n
    if n < 2:
        sds = np.full((b, k), np.nan)
    else:
        var = (sq_sums - n * means * means) / (n - 1)
        sds = np.sqrt(np.maximum(var, 0.0))
    return means + centre, sds


def _percentile_interval(stats: np.ndarray, level: float) -> np.ndarray:
    """Symmetric percentile interval of each column of resampled statistics.

    ``stats`` holds one resample per row; the result stacks the lower and
    upper ends (shape ``(2,) + stats.shape[1:]``), computed as in
    ``bootstrap_ci``.
    """
    lo = (1.0 - level) / 2.0 * 100.0
    return np.percentile(stats, [lo, 100.0 - lo], axis=0)


def _mme_bias_reduction(cfg, rows, boot_means, truth) -> tuple[dict, ...]:
    """|bias(AS_noisy)| - |bias(MME)| per level, with a percentile interval.

    ``boot_means`` holds the shared (b, estimator, level) resampled means,
    so each resample's difference pairs the two estimators on the same
    trials and the interval costs no new draws.
    """
    a = cfg.estimators.index("AS_noisy")
    m = cfg.estimators.index("MME")
    gaps = np.abs(boot_means[:, a] - truth) - np.abs(boot_means[:, m] - truth)
    ci = _percentile_interval(gaps, cfg.bootstrap_level)
    return tuple(
        {
            "level": LEVEL_NAMES[k],
            "reduction": abs(rows[4 * a + k].bias) - abs(rows[4 * m + k].bias),
            "ci_lo": float(ci[0, k]),
            "ci_hi": float(ci[1, k]),
        }
        for k in range(4)
    )


def run_experiment(cfg: ExperimentConfig) -> EstimateSummary:
    """Monte Carlo experiment under the configured scenario.

    Each trial observes the true graph three times, fits the noise rates
    from the replicates (unless they are declared known), assigns treatment,
    realizes outcomes on the true graph, and computes the requested
    estimators; the noisy ones classify exposures on the first replicate.
    MME's corrected degrees come from the mean observed degree over all
    three replicates. Trials whose rate fit fails are dropped and counted;
    more than 1% of them aborts the run.

    The bias and SD intervals of all columns come from one set of
    ``bootstrap_b`` resamples of the surviving trials; when AS_noisy and MME
    both run, the same resamples give ``mme_bias_reduction``.
    """
    if cfg.regenerate_graph:
        graph = table = None
        truth = OutcomeTable.constant(1, cfg.outcomes).truth()
    else:
        graph = resolve_graph(cfg.graph)
        table = _resolve_outcomes(cfg, graph.n_v)
        truth = table.truth()

    estimates, failed, conv, rule_counts = _run_trials(cfg, graph, table, 0, cfg.trials)
    n_failed = int(failed.sum())
    if n_failed > 0.01 * cfg.trials:
        raise ExperimentError(
            f"{n_failed} of {cfg.trials} trials failed rate fitting (> 1%)"
        )
    ok = ~failed
    data = estimates[ok]
    n_ok, n_est = data.shape[:2]
    # one set of resamples for every (estimator, level) column
    boot_means, boot_sds = _bootstrap_columns(
        data.reshape(n_ok, 4 * n_est), cfg.bootstrap_b,
        make_rng(cfg.master_seed, _BOOT_STREAM),
    )
    boot_means = boot_means.reshape(cfg.bootstrap_b, n_est, 4)
    mean_ci = _percentile_interval(boot_means, cfg.bootstrap_level)
    sd_ci = _percentile_interval(boot_sds.reshape(boot_means.shape), cfg.bootstrap_level)

    rows = []
    for e, name in enumerate(cfg.estimators):
        for k in range(4):
            samples = data[:, e, k]
            mean = float(samples.mean())
            sd = float(samples.std(ddof=1)) if n_ok > 1 else float("nan")
            rows.append(
                LevelSummary(
                    estimator=name,
                    level=LEVEL_NAMES[k],
                    truth=float(truth[k]),
                    mean_estimate=mean,
                    bias=mean - float(truth[k]),
                    bias_ci_lo=float(mean_ci[0, e, k]) - float(truth[k]),
                    bias_ci_hi=float(mean_ci[1, e, k]) - float(truth[k]),
                    sd=sd,
                    sd_ci_lo=float(sd_ci[0, e, k]),
                    sd_ci_hi=float(sd_ci[1, e, k]),
                )
            )
    reduction = None
    if "AS_noisy" in cfg.estimators and "MME" in cfg.estimators:
        reduction = _mme_bias_reduction(cfg, rows, boot_means, truth)
    conv_rate = None if cfg.noise_known else (float(conv[ok].mean()) if n_ok else 0.0)
    return EstimateSummary(
        rows=tuple(rows),
        n_trials=cfg.trials,
        n_failed=n_failed,
        noise_fit_convergence_rate=conv_rate,
        mme_rule_counts=rule_counts,
        mme_bias_reduction=reduction,
        config=cfg.echo(),
    )


_CSV_COLUMNS = (
    "estimator", "level", "truth", "mean_estimate", "bias",
    "bias_ci_lo", "bias_ci_hi", "sd", "sd_ci_lo", "sd_ci_hi",
    "n_trials", "n_failed",
)


def emit_results(summary: EstimateSummary, csv_path, sidecar_path=None) -> None:
    """Write the summary CSV and a JSON sidecar echoing the configuration.

    Field order is fixed and floats use their shortest round-trip form, so
    identical summaries produce byte-identical files.
    """
    csv_path = Path(csv_path)
    if sidecar_path is None:
        sidecar_path = csv_path.with_suffix(".json")
    lines = [",".join(_CSV_COLUMNS)]
    for r in summary.rows:
        lines.append(
            ",".join(
                [
                    r.estimator,
                    r.level,
                    repr(r.truth),
                    repr(r.mean_estimate),
                    repr(r.bias),
                    repr(r.bias_ci_lo),
                    repr(r.bias_ci_hi),
                    repr(r.sd),
                    repr(r.sd_ci_lo),
                    repr(r.sd_ci_hi),
                    str(summary.n_trials),
                    str(summary.n_failed),
                ]
            )
        )
    try:
        csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        sidecar = {
            "config": summary.config,
            "n_trials": summary.n_trials,
            "n_failed": summary.n_failed,
            "noise_fit_convergence_rate": summary.noise_fit_convergence_rate,
            "mme_rule_counts": summary.mme_rule_counts,
        }
        if summary.mme_bias_reduction is not None:
            sidecar["mme_bias_reduction"] = list(summary.mme_bias_reduction)
        Path(sidecar_path).write_text(
            json.dumps(sidecar, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    except OSError as exc:
        raise OSError(f"failed writing results near {csv_path}: {exc}") from exc
