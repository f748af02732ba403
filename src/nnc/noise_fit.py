"""Edge-noise rate estimation from three replicated network observations."""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

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
    codes = np.concatenate([a1.codes, a2.codes, a3.codes])
    rep = np.repeat(np.arange(3), [a1.n_edges, a2.n_edges, a3.n_edges])
    # every code is below n * n, so all of them belong to "trial" 0
    pairs, triples, in_1_and_2 = (int(c[0]) for c in _coincidences(codes, rep, 1, n * n))
    once = codes.size - 2 * pairs + triples
    u1, u2, u3 = _moments(a1.n_edges, a2.n_edges, in_1_and_2, once, n)
    return MomentStats(u1=u1, u2=u2, u3=u3, n_v=n)


def _moments(e1, e2, in_1_and_2, once, n_v):
    # (u1, u2, u3) from the edge counts of the first two observations, the
    # pairs in both of them and the pairs in exactly one of the three;
    # scalars or arrays alike
    if n_v < 2:
        raise ValueError("need at least two vertices")
    denom = n_v * (n_v - 1)
    u1 = 2.0 * e1 / denom
    u2 = (e1 + e2 - 2 * in_1_and_2) / denom
    u3 = 2.0 * once / (3.0 * denom)
    return u1, u2, u3


def _replicate_moments(n_true, missed_counts, gained, false, false_rep, n_v):
    """Moment statistics of many trials' three observations of known graphs.

    Trial t's observations are noisy copies of its own true graph, which
    has ``n_true[t]`` edges. Each observation is described by what it
    changed: the true edges it missed, counted per trial by
    ``_missed_counts``, and the false edges it turned on, ``gained[r, t]``
    of them for observation r (``false``: t * P + the non-edge's rank, with
    P = n_v (n_v - 1) / 2, and ``false_rep`` says which observation, 0, 1
    or 2, each belongs to). A missed edge is never a false one, so the two
    kinds are counted apart. Returns (u1, u2, u3), one entry per trial,
    equal to ``moment_stats`` on the same observations.
    """
    lost, missed_twice, missed_01 = missed_counts
    n_edges = n_true - lost + gained
    f_pairs, f_triples, f_01 = _coincidences(false, false_rep, n_true.size,
                                             n_v * (n_v - 1) // 2)
    # a true edge is in exactly one observation when two of them missed it
    once = missed_twice + gained.sum(axis=0) - 2 * f_pairs + f_triples
    in_1_and_2 = n_true - lost[0] - lost[1] + missed_01 + f_01
    return _moments(n_edges[0], n_edges[1], in_1_and_2, once, n_v)


def _missed_counts(flags, n_true):
    """Per trial, what its three observations' missed true edges count.

    ``flags[r]`` flags the true edges that observation r missed, trial by
    trial: trial t's ``n_true[t]`` edges follow the earlier trials'. Each
    edge's miss pattern (bit r set when observation r missed it) is counted
    per trial: by ``count_nonzero`` for a lone trial, by one ``bincount`` of
    8 * trial + pattern otherwise, so an edgeless trial counts 0. Returns,
    one entry per trial, the (3, trials) edges each observation missed, the
    edges missed by exactly two observations, and the edges missed by
    observations 0 and 1.
    """
    n_trials = n_true.size
    pattern = flags[2].view(np.uint8) << 2
    pattern |= flags[1].view(np.uint8) << 1
    pattern |= flags[0]
    if n_trials == 1:
        counts = np.array([[np.count_nonzero(pattern == p) for p in range(8)]])
    else:
        key = np.repeat(np.arange(0, 8 * n_trials, 8), n_true)
        key |= pattern
        counts = np.bincount(key, minlength=8 * n_trials).reshape(n_trials, 8)
    lost = np.stack([counts[:, np.arange(8) & bit > 0].sum(axis=1) for bit in (1, 2, 4)])
    return lost, counts[:, 3] + counts[:, 5] + counts[:, 6], counts[:, 3] + counts[:, 7]


def _coincidences(items, rep, n_trials: int, pairs: int):
    # per trial t (items t * pairs + k): the adjacent equal items, the
    # adjacent equal triples, and the items of observation 0 also in 1.
    # Each item is tagged with its observation in the two low bits (items
    # stay below 2**61), and one sort, a merge when each observation's
    # items come sorted, leaves an item's copies adjacent, in observation
    # order. Only the positions whose item equals the next one's are read
    keys = (items << 2) | rep
    keys.sort(kind="stable")
    tags = keys & 3
    keys >>= 2
    at = np.flatnonzero(keys[1:] == keys[:-1])
    row = keys[at] // pairs
    return (
        np.bincount(row, minlength=n_trials),
        np.bincount(row[1:][at[1:] == at[:-1] + 1], minlength=n_trials),
        np.bincount(row[(tags[at] == 0) & (tags[at + 1] == 1)], minlength=n_trials),
    )


@dataclass(frozen=True)
class NoiseFitResult:
    alpha_hat: float
    beta_hat: float
    delta_hat: float
    iterations: int
    converged: bool


# per-fit outcome of ``_fit_rates``; the last two are failed fits
FIT_CONVERGED, FIT_UNCONVERGED, FIT_DEGENERATE, FIT_DIVERGED = range(4)


class RateFits(NamedTuple):
    """Fixed-point fits of many moment triples, one entry each.

    ``status`` holds a ``FIT_*`` code; the rates of failed fits are NaN and
    their ``iterations`` count the passes completed before the failure.
    """

    alpha_hat: np.ndarray
    beta_hat: np.ndarray
    delta_hat: np.ndarray
    iterations: np.ndarray
    status: np.ndarray


_CLAMP_LO = 1e-12
_CLAMP_HI = 1.0 - 1e-9
_BAND = 0.05


def _clamp(x: np.ndarray) -> np.ndarray:
    # in place
    np.maximum(x, _CLAMP_LO, out=x)
    return np.minimum(x, _CLAMP_HI, out=x)


def _square(x: np.ndarray) -> np.ndarray:
    # the C library's pow(x, 2), as Python's ``x ** 2`` on a float computes
    # it; numpy's float_power loop calls it element by element, while
    # ``np.power`` (vectorised) and ``x * x`` round a few squares per
    # thousand differently
    return np.float_power(x, 2.0)


def _fit_rates(u1, u2, u3, alpha0=None, eps: float = 1e-10, max_iter: int = 10_000) -> RateFits:
    """Vector form of ``fit_alpha_beta``: every fit takes the same passes,
    in the same floating-point order, as the scalar iteration would.

    ``alpha0`` defaults to a tenth of each observed density, and a zero
    density is a degenerate fit. A fit leaves when it converges, fails, or
    after ``max_iter`` passes (unconverged), and keeps the iterate of the
    pass it left on. Fitted rates with alpha + beta >= 1 are not
    identifiable and count as diverged, converged or not.
    """
    u1, u2, u3 = (np.asarray(u, dtype=np.float64).ravel() for u in (u1, u2, u3))
    k = u1.size
    status = np.full(k, FIT_UNCONVERGED, dtype=np.int8)
    if alpha0 is None:
        alpha0 = u1 / 10.0
        status[u1 == 0.0] = FIT_DEGENERATE
    alpha = np.array(np.broadcast_to(alpha0, k), dtype=np.float64)
    beta = np.full(k, np.nan)
    delta = np.full(k, np.nan)
    iterations = np.zeros(k, dtype=np.int64)

    active = status == FIT_UNCONVERGED
    prev = alpha.copy()
    a1_a2, two_a1 = u1 - u2, 2.0 * u1
    passes = 0
    with np.errstate(all="ignore"):
        # all fits take every pass, which costs no more numpy calls than
        # dropping the finished ones; only the active fits' results are kept
        while passes < max_iter and np.count_nonzero(active):
            passes += 1
            gap = u1 - prev
            b = _clamp((u2 - prev + u1 * prev) / gap)
            denom = a1_a2 - two_a1 * prev + prev * prev
            gap2, b2, q2 = _square(np.stack([gap, b, 1.0 - prev]))
            d = _clamp(gap2 / denom)
            raw = (u3 - d * b2 * (1.0 - b)) / ((1.0 - d) * q2)
            # any NaN comparison fails the pass as well
            ok = np.abs(gap) >= 1e-12
            ok &= np.abs(denom) >= 1e-300
            ok &= raw >= -_BAND
            ok &= raw <= 1.0 + _BAND
            a = _clamp(raw)
            leave = active & ~(ok & (np.abs(a - prev) > eps))
            if passes == max_iter:
                leave = active
            if np.count_nonzero(leave):
                done = ok[leave]
                degenerate = (np.abs(gap[leave]) < 1e-12) | (np.abs(denom[leave]) < 1e-300)
                status[leave] = np.where(
                    done,
                    np.where(np.abs(a[leave] - prev[leave]) > eps, FIT_UNCONVERGED,
                             FIT_CONVERGED),
                    np.where(degenerate, FIT_DEGENERATE, FIT_DIVERGED),
                )
                iterations[leave] = passes - 1 + done
                alpha[leave], beta[leave], delta[leave] = a[leave], b[leave], d[leave]
                active &= ~leave
            prev = a

    status[(status <= FIT_UNCONVERGED) & (alpha + beta >= 1.0)] = FIT_DIVERGED
    failed = status >= FIT_DEGENERATE
    for rate in (alpha, beta, delta):
        rate[failed] = np.nan
    return RateFits(alpha, beta, delta, iterations, status)


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
    the last iterate flagged unconverged rather than raising, unless its
    rates are not identifiable (alpha + beta >= 1), which raises
    ``DivergedError`` as for a converged fit.

    This is the one-fit case of ``_fit_rates``, the vector form the
    experiment harness runs.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    if alpha0 is not None and not (0.0 < alpha0 < m.u1):
        raise ValueError("alpha0 must lie strictly between 0 and the observed density")
    fit = _fit_rates(m.u1, m.u2, m.u3, alpha0, eps, max_iter)
    status = int(fit.status[0])
    if status == FIT_DEGENERATE:
        raise DegenerateMomentsError(
            "rate fit is degenerate: the first observation is empty or an "
            "iterate collided with its density"
        )
    if status == FIT_DIVERGED:
        raise DivergedError(
            f"rate fit diverged: an iterate left [0, 1] by more than {_BAND} "
            "or the fitted rates are not identifiable (alpha + beta >= 1)"
        )
    return NoiseFitResult(
        alpha_hat=float(fit.alpha_hat[0]),
        beta_hat=float(fit.beta_hat[0]),
        delta_hat=float(fit.delta_hat[0]),
        iterations=int(fit.iterations[0]),
        converged=status == FIT_CONVERGED,
    )
