"""Level-mean estimators: inverse-probability weighting on true or observed
graphs, and the confusion-corrected per-node reweighting with its mixing rule."""
from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real
from typing import Callable, Sequence

import numpy as np

from .exposure import (
    NoiseParams,
    Treatment,
    DET_FLOOR,
    _gather,
    _level_probabilities,
    _s_inverse_entries,
    exposure_levels,
)
from .graphs import EdgeListError, Graph, _names_its_file, _records


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

    def truth(self) -> np.ndarray:
        """Population mean outcome per level."""
        return self.values.mean(axis=0)


@_names_its_file
def load_outcome_table(source) -> OutcomeTable:
    """Read per-vertex outcomes from a CSV with header ``y_c11,y_c10,y_c01,y_c00``.

    Each non-empty line after the header holds one vertex's four outcomes;
    a line with another field count, a non-number or a non-finite number
    raises ``EdgeListError`` naming the line.
    """
    data = []
    for lineno, fields in _records(source, ("y_c11", "y_c10", "y_c01", "y_c00")):
        try:
            row = [float(c) for c in fields]
        except ValueError:
            raise EdgeListError(f"line {lineno}: outcomes must be numbers, got {fields}") from None
        if not all(map(math.isfinite, row)):
            raise EdgeListError(f"line {lineno}: outcomes must be finite, got {fields}")
        data.append(row)
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
    level, so they contribute nothing to it. This is the one-trial case of
    ``_ht_means``.
    """
    n = g.n_v
    if n < 1:
        raise ValueError("graph has no vertices")
    if realized.values.shape != (n,):
        raise ValueError("realized outcomes do not match vertex count")
    lv = np.asarray(levels)
    if lv.shape != (n,):
        raise ValueError("exposure levels do not match vertex count")
    lv = lv[None]
    pr = _level_probabilities(g.degrees[None], lv, p)
    means, _ = _ht_means(lv, realized.values[None], pr)
    return LevelMeans(means[0])


def _level_sum_keys(levels: np.ndarray) -> np.ndarray:
    # bincount keys 4 t + level of a (T, n) level array
    return levels + 4 * np.arange(levels.shape[0])[:, None]


def _ht_means(
    levels: np.ndarray, values: np.ndarray, pr: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Inverse-probability-weighted level means of T trials at once.

    All arguments are (T, n): level codes, realized outcomes and the
    probability of each vertex's level. Each level sum adds its terms in
    vertex order, so a trial's means do not depend on the others. Returns
    the (T, 4) means and the (T, 4) counts of their terms.
    """
    t, n = levels.shape
    if np.any(pr <= 0.0):
        raise ValueError("zero exposure probability at an attained level")
    keys = _level_sum_keys(levels).ravel()
    sums = np.bincount(keys, weights=(values / pr).ravel(), minlength=4 * t)
    terms = np.bincount(keys, minlength=4 * t)
    return sums.reshape(t, 4) / n, terms.reshape(t, 4)


def degree_estimate(d_obs, alpha_hat, beta_hat, n_v: int):
    """Noise-corrected degree from an observed degree; may be negative.

    The rates may be arrays that broadcast against ``d_obs``.
    """
    a, b = np.asarray(alpha_hat), np.asarray(beta_hat)
    if not np.all((a >= 0) & (b >= 0) & (a + b < 1.0)):
        raise ValueError("need alpha_hat, beta_hat >= 0 with alpha_hat + beta_hat < 1")
    d = np.asarray(d_obs, dtype=np.float64)
    out = (d - (n_v - 1) * alpha_hat) / (1.0 - alpha_hat - beta_hat)
    return float(out) if out.ndim == 0 else out


_SQRT10 = math.sqrt(10.0)
MIXING_MODES = ("sparse_fallback", "order_of_magnitude")


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

    def __post_init__(self):
        if self.mode not in MIXING_MODES:
            raise ValueError(f"mixing mode must be one of {MIXING_MODES}, not {self.mode!r}")
        cuts = (self.c1, self.c2)
        if self.mode == "sparse_fallback":
            if cuts != (None, None):
                raise ValueError("sparse_fallback takes no cuts")
        elif not (all(isinstance(c, Real) and math.isfinite(c) for c in cuts)
                  and 0.0 < self.c1 < self.c2):
            raise ValueError("order_of_magnitude needs finite cuts 0 < c1 < c2")

    @classmethod
    def sparse_fallback(cls) -> "MixingRule":
        return cls("sparse_fallback")

    @classmethod
    def order_of_magnitude(cls, p: float) -> "MixingRule":
        if not (0.0 < p < 1.0):
            raise ValueError("treatment probability must lie in (0, 1)")
        # the upper cut is at most 10 / p
        if not math.isfinite(10.0 / p):
            raise ValueError(f"treatment probability {p!r} is too small for order_of_magnitude")
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
        return (d >= self.c1) & (d < self.c2)


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
    plain inverse-probability term. This is the one-trial case of
    ``_mme_means``: each vertex's code is the index of its observed degree
    among the distinct ones (``np.unique``), so each distinct degree is
    corrected once.
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
    distinct, codes = np.unique(np.asarray(d_obs), return_inverse=True)
    lv = lv[None]
    pr = _level_probabilities(g_obs.degrees[None], lv, p)
    means, _, counts = _mme_means(
        lv, realized.values[None], pr, codes.reshape(1, n), distinct.take, p,
        np.array([noise_hat.alpha]), np.array([noise_hat.beta]), rule,
    )
    corrected, rule_fallback, singular_fallback = (int(c) for c in counts[0])
    return MmeResult(
        means=LevelMeans(means[0]),
        n_corrected=corrected,
        n_rule_fallback=rule_fallback,
        n_singular_fallback=singular_fallback,
    )


def _mme_means(
    levels: np.ndarray,
    values: np.ndarray,
    pr: np.ndarray,
    codes: np.ndarray,
    degree_of: Callable[[np.ndarray], np.ndarray],
    p: float,
    alpha: np.ndarray,
    beta: np.ndarray,
    rule: MixingRule,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Confusion-corrected level means of T trials at once.

    ``levels``, ``values`` and ``pr`` are (T, n), as in ``_ht_means``.
    ``codes`` (T, n) are non-negative integers that stand for each vertex's
    observed degree, and ``degree_of`` maps an array of codes to the
    degrees they stand for (the block path's codes are the exact
    three-replicate degree sums, a third of which is the mean degree).
    ``alpha``/``beta`` hold each trial's rates, with alpha + beta < 1.
    Returns the (T, 4) means, the (T, 4) counts of their terms and the
    (T, 3) counts of corrected, rule-fallback and singular-fallback
    vertices. A corrected vertex adds one term to each level of its arm,
    taken from the closed-form inverse of its confusion block; every level
    sum adds its terms in vertex order.

    The corrected degree, the rule, the inverse's entries and the
    determinant check depend on a vertex only through its trial and its
    code, so they are made once per (trial, code) key that occurs and
    gathered per vertex (``_gather``), bit for bit as if made per vertex.
    The keys are found with one ``bincount`` over trial * (largest code + 1)
    + code; the entries are sized by the keys that occur.
    """
    t, n = levels.shape
    width = int(codes.max(initial=0)) + 1
    key = codes + np.arange(0, t * width, width)[:, None]
    slot = np.bincount(key.ravel())
    # the keys that occur, their vertex counts, and each vertex's key's
    # position among them
    at = np.flatnonzero(slot)
    held = slot[at]
    slot[at] = np.arange(at.size)
    index = slot.take(key)
    del key, slot
    trial, code = np.divmod(at, width)
    a, b = alpha[trial], beta[trial]
    d_hat = np.maximum(degree_estimate(degree_of(code), a, b, n), 0.0)
    want = rule.accepts(d_hat)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        i11, i12, i21, i22, det = _s_inverse_entries(d_hat, n, p, a, b)
        ok = np.isfinite(det) & (det > DET_FLOOR)
        # c11 and c01 vertices weigh by the inverse's first column, c10 and
        # c00 ones by its second
        top, bottom = _gather((np.stack([i11, i12]), np.stack([i21, i22])), levels & 1, index)
        top *= values
        bottom *= values
    corrected = (want & ok).take(index)
    del index
    # each key's vertices: corrected (0), rule fallback (1) or singular (2)
    route = np.where(want, np.where(ok, 0, 2), 1)
    counts = np.bincount(3 * trial + route, weights=held, minlength=3 * t)

    keys = _level_sum_keys(levels)
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
    # a level's terms: its fallback vertices and its arm's corrected ones
    terms = np.bincount(fall_keys, minlength=4 * t).reshape(t, 4)
    arm = np.bincount(keys, minlength=4 * t).reshape(t, 2, 2).sum(axis=2)
    terms += np.repeat(arm, 2, axis=1)
    return est / n, terms, counts.astype(np.int64).reshape(t, 3)
