"""Edge-noise rate estimation from three replicated network observations."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import Graph


class NoiseFitError(RuntimeError):
    """Moment-based rate fitting could not produce usable estimates."""


class DegenerateMomentsError(NoiseFitError):
    """The first observation is empty, or an iterate collided with its
    density; the update is undefined."""


class DivergedError(NoiseFitError):
    """The fixed-point iterate left the admissible band."""


@dataclass(frozen=True)
class MomentStats:
    """Pairwise moment statistics of three observations on a shared vertex set.

    ``u1`` is the edge density of the first observation, ``u2`` the density
    of pairwise disagreements between the first two (per ordered pair, i.e.
    half the symmetric-difference share of unordered pairs), and ``u3`` the
    matching share of pairs present in exactly one of the three.
    """

    u1: float
    u2: float
    u3: float
    n_v: int


def moment_stats(a1: Graph, a2: Graph, a3: Graph) -> MomentStats:
    """Compute the three moment statistics from replicate observations.

    All three counts come from one merge of the replicates' sorted edge
    codes, in time and memory linear in their total edge count.
    """
    if not (a1.n_v == a2.n_v == a3.n_v):
        raise ValueError("replicates must share the vertex set")
    n = a1.n_v
    if n < 2:
        raise ValueError("need at least two vertices")
    denom = n * (n - 1)
    # tag each code with its replicate in the two low bits (codes stay below
    # 2**61 while n_v < 1.5e9); the stable sort merges the three sorted runs,
    # and a pair's copies end up adjacent, in replicate order
    keys = np.concatenate([a1.codes << 2, (a2.codes << 2) | 1, (a3.codes << 2) | 2])
    keys.sort(kind="stable")
    tags = np.empty(keys.size, dtype=np.int8)
    np.bitwise_and(keys, 3, out=tags, casting="unsafe")
    keys >>= 2
    same = keys[1:] == keys[:-1]
    del keys
    pairs = int(np.count_nonzero(same))
    triples = int(np.count_nonzero(same[1:] & same[:-1]))
    in_1_and_2 = int(np.count_nonzero(same & (tags[:-1] == 0) & (tags[1:] == 1)))
    once = tags.size - 2 * pairs + triples
    u1 = 2.0 * a1.n_edges / denom
    u2 = (a1.n_edges + a2.n_edges - 2 * in_1_and_2) / denom
    u3 = 2.0 * once / (3.0 * denom)
    return MomentStats(u1=u1, u2=u2, u3=u3, n_v=n)


@dataclass(frozen=True)
class NoiseFitResult:
    alpha_hat: float
    beta_hat: float
    delta_hat: float
    iterations: int
    converged: bool


_CLAMP_LO = 1e-12
_CLAMP_HI = 1.0 - 1e-9
_BAND = 0.05


def _clamp(x: float) -> float:
    return min(max(x, _CLAMP_LO), _CLAMP_HI)


def fit_alpha_beta(
    m: MomentStats,
    alpha0: float | None = None,
    eps: float = 1e-10,
    max_iter: int = 10_000,
) -> NoiseFitResult:
    """Fixed-point fit of the false-edge rate, missed-edge rate and density.

    Starting from ``alpha0`` (default: a tenth of the observed density,
    which raises ``DegenerateMomentsError`` when that density is zero), each
    pass solves the three moment equations in turn and feeds the new
    false-edge rate back in until successive values agree within ``eps``.
    Derived rate and density iterates are clamped into (0, 1) to absorb
    sampling noise; the fed-back rate itself aborts with ``DivergedError``
    if it overshoots [0, 1] by more than 0.05. Hitting ``max_iter`` returns
    the last iterate flagged unconverged rather than raising.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    u1, u2, u3 = m.u1, m.u2, m.u3
    if alpha0 is None:
        if u1 == 0.0:
            raise DegenerateMomentsError("first observation has no edges")
        alpha0 = u1 / 10.0
    if not (0.0 < alpha0 < u1):
        raise ValueError("alpha0 must lie strictly between 0 and the observed density")

    alpha_hat = float(alpha0)
    beta_hat = delta_hat = float("nan")
    iterations = 0
    converged = False
    while iterations < max_iter:
        prev = alpha_hat
        if abs(u1 - prev) < 1e-12:
            raise DegenerateMomentsError("iterate collided with the observed density")
        beta_hat = _clamp((u2 - prev + u1 * prev) / (u1 - prev))
        denom = u1 - u2 - 2.0 * u1 * prev + prev * prev
        if abs(denom) < 1e-300:
            raise DegenerateMomentsError("density update is undefined at this iterate")
        delta_hat = _clamp((u1 - prev) ** 2 / denom)
        alpha_raw = (u3 - delta_hat * beta_hat**2 * (1.0 - beta_hat)) / (
            (1.0 - delta_hat) * (1.0 - prev) ** 2
        )
        if not (-_BAND <= alpha_raw <= 1.0 + _BAND):
            raise DivergedError(f"rate iterate left [0, 1] by more than {_BAND}")
        alpha_hat = _clamp(alpha_raw)
        iterations += 1
        if abs(alpha_hat - prev) <= eps:
            converged = True
            break

    if converged and alpha_hat + beta_hat >= 1.0:
        raise DivergedError("fitted rates are not identifiable (alpha + beta >= 1)")
    return NoiseFitResult(
        alpha_hat=alpha_hat,
        beta_hat=beta_hat,
        delta_hat=delta_hat,
        iterations=iterations,
        converged=converged,
    )
