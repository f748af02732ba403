"""Treatment assignment, exposure classification, and its misclassification law.

Level order everywhere is (c11, c10, c01, c00): own treatment crossed with
whether any neighbor is treated. Closed-form level probabilities are also
given for a general treated-neighbor threshold.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .graphs import Graph
from .noise import NoiseParams

LEVEL_NAMES = ("c11", "c10", "c01", "c00")


class ExposureLevel(IntEnum):
    C11 = 0
    C10 = 1
    C01 = 2
    C00 = 3


@dataclass(frozen=True, eq=False)
class Treatment:
    """Bernoulli(p) assignment vector."""

    p: float
    z: np.ndarray

    def __post_init__(self):
        if not (0.0 < self.p < 1.0):
            raise ValueError("treatment probability must lie in (0, 1)")
        z = np.asarray(self.z, dtype=bool)
        z.flags.writeable = False
        object.__setattr__(self, "z", z)

    @property
    def n(self) -> int:
        return int(self.z.size)


def assign_treatment(n: int, p: float, rng: np.random.Generator) -> Treatment:
    """Independent Bernoulli(p) assignment for ``n`` units."""
    if not (0.0 < p < 1.0):
        raise ValueError("treatment probability must lie in (0, 1)")
    if n < 1:
        raise ValueError("need at least one unit")
    return Treatment(p, rng.random(n) < p)


def treated_neighbor_counts(g: Graph, z: np.ndarray) -> np.ndarray:
    """Number of treated neighbors per vertex."""
    z = np.asarray(z, dtype=bool)
    if z.size != g.n_v:
        raise ValueError("assignment length does not match vertex count")
    return _treated_counts(z, g.edge_i, g.edge_j)


def _treated_counts(z: np.ndarray, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Treated-neighbor counts over the edges (src, dst) for flags ``z``.

    The vertices may be those of several graphs laid end to end (trial t's
    vertex v at t * n_v + v), each with its own edges and assignment.
    """
    return (np.bincount(dst[z[src]], minlength=z.size)
            + np.bincount(src[z[dst]], minlength=z.size))


def exposure_levels(t: Treatment, g: Graph) -> np.ndarray:
    """Exposure level code per vertex (0..3 in ``LEVEL_NAMES`` order)."""
    return _levels(t.z, treated_neighbor_counts(g, t.z))


def _levels(z: np.ndarray, treated_counts: np.ndarray) -> np.ndarray:
    # own treatment crossed with "any neighbor treated"
    hit = treated_counts >= 1
    return np.where(z, np.where(hit, 0, 1), np.where(hit, 2, 3)).astype(np.int64)


# -- closed-form exposure probabilities -----------------------------------


@dataclass(frozen=True)
class ExposureProbabilities:
    c11: float
    c10: float
    c01: float
    c00: float

    def as_array(self) -> np.ndarray:
        return np.array([self.c11, self.c10, self.c01, self.c00])

    def __getitem__(self, level) -> float:
        return float(self.as_array()[int(level)])


def exposure_probabilities(d: float, p: float) -> ExposureProbabilities:
    """Level probabilities for a vertex of (possibly non-integer) degree ``d``.

    Real degrees arise when noise-corrected degree estimates are plugged in;
    the closed forms extend by real exponentiation.
    """
    if not (0.0 < p < 1.0):
        raise ValueError("treatment probability must lie in (0, 1)")
    if not (d >= 0.0):
        raise ValueError("degree must be nonnegative")
    return ExposureProbabilities(*_level_probability_matrix([d], p)[0].tolist())


def _level_probability_matrix(d: np.ndarray, p: float) -> np.ndarray:
    q = (1.0 - p) ** np.asarray(d, dtype=np.float64)
    return np.stack([p * (1.0 - q), p * q, (1.0 - p) * (1.0 - q), (1.0 - p) * q], axis=1)


def _binomial_head(d: int, p: float, kmax: int) -> float:
    # P(Binomial(d, p) <= kmax), summed term by term
    term = (1.0 - p) ** d
    total = term
    for x in range(kmax):
        term *= (d - x) / (x + 1) * (p / (1.0 - p))
        total += term
    return min(total, 1.0)


def exposure_probabilities_generalized(d: int, p: float, m: int) -> ExposureProbabilities:
    """Level probabilities when the neighbor threshold is ``m`` instead of 1."""
    if not (0.0 < p < 1.0):
        raise ValueError("treatment probability must lie in (0, 1)")
    d, m = int(d), int(m)
    if d < 0:
        raise ValueError("degree must be nonnegative")
    if m < 1:
        raise ValueError("threshold must be at least 1")
    head = _binomial_head(d, p, min(m - 1, d))
    tail = 1.0 - head if m <= d else 0.0
    return ExposureProbabilities(p * tail, p * head, (1.0 - p) * tail, (1.0 - p) * head)


# -- expected confusion between observed and true levels ------------------


DET_FLOOR = 1e-12


def _noise_factors(d, n_v, p, alpha, beta):
    # for a vertex of true degree d: qd = P(no true neighbor treated),
    # a = P(no false edge to a treated vertex), b = P(no kept true edge to a
    # treated neighbor); vector-safe in d
    d = np.asarray(d, dtype=np.float64)
    qd = (1.0 - p) ** d
    a = (1.0 - alpha * p) ** (n_v - 1 - d)
    b = (1.0 - (1.0 - beta) * p) ** d
    return qd, a, b


def _s_entries(d, n_v, p, alpha, beta):
    # treated-arm joint probabilities of (observed level, true level) for a
    # vertex of true degree d; vector-safe in d
    qd, a, b = _noise_factors(d, n_v, p, alpha, beta)
    s11 = p * (1.0 - qd - a * (b - qd))
    s12 = p * qd * (1.0 - a)
    s21 = p * a * (b - qd)
    s22 = p * qd * a
    return s11, s12, s21, s22


def _s_inverse_entries(d, n_v, p, alpha, beta):
    # closed-form inverse of the treated block, plus its determinant; the
    # control block's inverse is p / (1 - p) times this one
    qd, a, b = _noise_factors(d, n_v, p, alpha, beta)
    det = p * p * qd * a * (1.0 - b)
    denom = p * (1.0 - b)
    i11 = 1.0 / denom
    i12 = -(1.0 - a) / (a * denom)
    i21 = -(b - qd) / (qd * denom)
    i22 = (1.0 - qd - a * (b - qd)) / (qd * a * denom)
    return i11, i12, i21, i22, det


@dataclass(frozen=True, eq=False)
class ConfusionMatrix:
    """Expected joint classification of observed vs. true exposure levels.

    ``s`` is the treated arm (rows = observed c11, c10; columns = true) and
    ``q`` the control arm; the two arms are proportional because edge noise
    never touches treatment status.
    """

    s: np.ndarray
    q: np.ndarray


def confusion_matrix(d: float, n_v: int, p: float, noise: NoiseParams) -> ConfusionMatrix:
    if not (0.0 < p < 1.0):
        raise ValueError("treatment probability must lie in (0, 1)")
    if not (0.0 <= d <= n_v - 1):
        raise ValueError("degree must lie in [0, n_v - 1]")
    s11, s12, s21, s22 = _s_entries(float(d), n_v, p, noise.alpha, noise.beta)
    s = np.array([[s11, s12], [s21, s22]])
    q = (1.0 - p) / p * s
    return ConfusionMatrix(s=s, q=q)
