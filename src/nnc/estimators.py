"""Level-mean estimators: inverse-probability weighting on true or observed
graphs, and the confusion-corrected per-node reweighting with its mixing rule."""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .exposure import (
    NoiseParams,
    Treatment,
    DET_FLOOR,
    _level_probability_matrix,
    _s_inverse_entries,
    exposure_levels,
)
from .graphs import Graph


@dataclass(frozen=True, eq=False)
class OutcomeTable:
    """Potential outcomes per vertex, one column per level (c11, c10, c01, c00)."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2 or v.shape[1] != 4:
            raise ValueError("outcome table must have shape (n_v, 4)")
        if not np.all(np.isfinite(v)):
            raise ValueError("outcomes must be finite")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @classmethod
    def constant(cls, n_v: int, level_values: Sequence[float] = (10.0, 7.0, 5.0, 1.0)):
        """Same four outcome values for every vertex."""
        row = np.asarray(level_values, dtype=np.float64)
        if row.shape != (4,):
            raise ValueError("need exactly four level values")
        return cls(np.tile(row, (n_v, 1)))

    @property
    def n_v(self) -> int:
        return self.values.shape[0]

    @property
    def y_max(self) -> float:
        return float(np.abs(self.values).max()) if self.values.size else 0.0

    def truth(self) -> np.ndarray:
        """Population mean outcome per level."""
        return self.values.mean(axis=0)


def load_outcome_table(source) -> OutcomeTable:
    """Read per-vertex outcomes from a CSV with header ``y_c11,y_c10,y_c01,y_c00``."""
    def _read(fh):
        rows = csv.reader(fh)
        header = next(rows, None)
        expected = ["y_c11", "y_c10", "y_c01", "y_c00"]
        if header is None or [c.strip() for c in header] != expected:
            raise ValueError("expected header 'y_c11,y_c10,y_c01,y_c00'")
        return [[float(c) for c in row] for row in rows if row]

    if hasattr(source, "read"):
        data = _read(source)
    else:
        with open(source, "r", encoding="utf-8", newline="") as fh:
            data = _read(fh)
    return OutcomeTable(np.asarray(data, dtype=np.float64).reshape(-1, 4))


@dataclass(frozen=True, eq=False)
class RealizedOutcomes:
    """True exposure level and the outcome it reveals, per vertex."""

    levels: np.ndarray
    values: np.ndarray


def realize_outcomes(g_true: Graph, t: Treatment, table: OutcomeTable) -> RealizedOutcomes:
    """Outcome each vertex reveals under its true exposure."""
    if table.n_v != g_true.n_v:
        raise ValueError("outcome table size does not match vertex count")
    lv = exposure_levels(t, g_true)
    vals = table.values[np.arange(g_true.n_v), lv]
    return RealizedOutcomes(levels=lv, values=vals)


@dataclass(frozen=True, eq=False)
class LevelMeans:
    """Estimated mean outcome per level, in (c11, c10, c01, c00) order."""

    values: np.ndarray

    def __getitem__(self, level) -> float:
        return float(self.values[int(level)])


def ht_estimate(g: Graph, levels, realized: RealizedOutcomes, p: float) -> LevelMeans:
    """Inverse-probability-weighted level means.

    ``levels`` are the exposure level codes of ``g``'s vertices
    (``exposure_levels(t, g)``); the weights come from ``g``'s degrees. Pass
    the true graph with ``realized.levels`` for the ideal estimator, or an
    observed graph with its own levels for the plug-in on noisy data
    (outcomes still come from ``realized``, i.e. from true exposures).
    Vertices whose level probability is zero are never classified at that
    level, so they contribute nothing to it.
    """
    n = g.n_v
    if n < 1:
        raise ValueError("graph has no vertices")
    if realized.values.shape != (n,):
        raise ValueError("realized outcomes do not match vertex count")
    lv = np.asarray(levels)
    if lv.shape != (n,):
        raise ValueError("exposure levels do not match vertex count")
    pm = _level_probability_matrix(g.degrees, p)
    pr = pm[np.arange(n), lv]
    if np.any(pr <= 0.0):
        raise ValueError("zero exposure probability at an attained level")
    contrib = realized.values / pr
    est = np.bincount(lv, weights=contrib, minlength=4) / n
    return LevelMeans(est)


def degree_estimate(d_obs, alpha_hat: float, beta_hat: float, n_v: int):
    """Noise-corrected degree from an observed degree; may be negative."""
    if not (alpha_hat >= 0 and beta_hat >= 0 and alpha_hat + beta_hat < 1.0):
        raise ValueError("need alpha_hat, beta_hat >= 0 with alpha_hat + beta_hat < 1")
    d = np.asarray(d_obs, dtype=np.float64)
    out = (d - (n_v - 1) * alpha_hat) / (1.0 - alpha_hat - beta_hat)
    return float(out) if out.ndim == 0 else out


_SQRT10 = math.sqrt(10.0)


@dataclass(frozen=True)
class MixingRule:
    """Chooses which vertices get the confusion correction.

    ``order_of_magnitude`` corrects vertices whose corrected degree shares
    the order of magnitude of 1/p, bucketed by mantissa in [1/sqrt(10),
    sqrt(10)); ties at the upper cut fall back. ``sparse_fallback`` corrects
    every vertex with corrected degree at least 1, the recommended mode for
    sparse, small, or heavy-tailed graphs.
    """

    mode: str
    c1: float | None = None
    c2: float | None = None

    @classmethod
    def sparse_fallback(cls) -> "MixingRule":
        return cls("sparse_fallback")

    @classmethod
    def order_of_magnitude(cls, p: float) -> "MixingRule":
        if not (0.0 < p < 1.0):
            raise ValueError("treatment probability must lie in (0, 1)")
        inv = 1.0 / p
        b = math.floor(math.log10(inv) + 0.5)
        a = inv / 10.0 ** b
        if a < 1.0 / _SQRT10:
            b -= 1
        elif a >= _SQRT10:
            b += 1
        return cls("order_of_magnitude", 10.0 ** b / _SQRT10, _SQRT10 * 10.0 ** b)

    def accepts(self, d_hat) -> np.ndarray:
        d = np.asarray(d_hat, dtype=np.float64)
        if self.mode == "sparse_fallback":
            return d >= 1.0
        if self.mode == "order_of_magnitude":
            return (d >= self.c1) & (d < self.c2)
        raise ValueError(f"unknown mixing mode {self.mode!r}")


@dataclass(frozen=True, eq=False)
class MmeResult:
    """Corrected level means plus per-node routing counts."""

    means: LevelMeans
    n_corrected: int
    n_rule_fallback: int
    n_singular_fallback: int


def mme_estimate(
    g_obs: Graph,
    levels,
    realized: RealizedOutcomes,
    p: float,
    noise_hat: NoiseParams,
    rule: MixingRule,
    *,
    d_obs=None,
) -> MmeResult:
    """Confusion-corrected level means on an observed graph.

    ``levels`` are the exposure level codes of ``g_obs``'s vertices
    (``exposure_levels(t, g_obs)``); ``g_obs``'s degrees give the
    inverse-probability terms of vertices that are not corrected. ``d_obs``
    holds the observed degrees behind the corrected degree d_hat (default:
    ``g_obs.degrees``). Any statistic with the expectation of one
    replicate's degree will do; the mean degree over several replicates is
    one with less variance. That matters because the inverse-confusion
    entries are exponential in d_hat, so their plug-in bias grows with the
    variance of d_hat.

    Vertices accepted by the mixing rule (after clamping negative corrected
    degrees to zero) get the inverse-confusion reweighting; the rest, and
    any vertex whose confusion block is numerically singular, keep their
    plain inverse-probability term.
    """
    if not noise_hat.identifiable:
        raise ValueError("need alpha + beta < 1 for the correction")
    n = g_obs.n_v
    if realized.values.shape != (n,):
        raise ValueError("realized outcomes do not match vertex count")
    lv = np.asarray(levels)
    if lv.shape != (n,):
        raise ValueError("exposure levels do not match vertex count")
    if d_obs is None:
        d_obs = g_obs.degrees
    elif np.shape(d_obs) != (n,):
        raise ValueError("observed degrees do not match vertex count")
    a, b = noise_hat.alpha, noise_hat.beta
    d_hat = np.maximum(degree_estimate(d_obs, a, b, n), 0.0)
    want = rule.accepts(d_hat)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        i11, i12, i21, i22, det = _s_inverse_entries(d_hat, n, p, a, b)
    ok = np.isfinite(det) & (det > DET_FLOOR)
    corrected = want & ok

    v = realized.values
    pm = _level_probability_matrix(g_obs.degrees, p)
    pr = pm[np.arange(n), lv]
    est = np.zeros(4)

    fall = ~corrected
    if fall.any():
        est += np.bincount(lv[fall], weights=v[fall] / pr[fall], minlength=4)

    f = p / (1.0 - p)
    m = corrected & (lv == 0)
    est[0] += float((v[m] * i11[m]).sum())
    est[1] += float((v[m] * i21[m]).sum())
    m = corrected & (lv == 1)
    est[0] += float((v[m] * i12[m]).sum())
    est[1] += float((v[m] * i22[m]).sum())
    m = corrected & (lv == 2)
    est[2] += f * float((v[m] * i11[m]).sum())
    est[3] += f * float((v[m] * i21[m]).sum())
    m = corrected & (lv == 3)
    est[2] += f * float((v[m] * i12[m]).sum())
    est[3] += f * float((v[m] * i22[m]).sum())

    return MmeResult(
        means=LevelMeans(est / n),
        n_corrected=int(corrected.sum()),
        n_rule_fallback=int((~want).sum()),
        n_singular_fallback=int((want & ~ok).sum()),
    )
