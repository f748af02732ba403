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

    The presence table of all three comes from one merge of the replicates'
    sorted edge codes, in time and memory linear in their total edge count.
    """
    if not (a1.n_v == a2.n_v == a3.n_v):
        raise ValueError("replicates must share the vertex set")
    n = a1.n_v
    sizes = [a1.n_edges, a2.n_edges, a3.n_edges]
    codes = np.concatenate([a1.codes, a2.codes, a3.codes])
    rep = np.repeat(np.arange(3), sizes)
    # every code is below n * n, so all of them belong to "trial" 0
    table = _presence_table(codes, rep, np.reshape(sizes, (3, 1)), n * n)
    u1, u2, u3 = (float(u[0]) for u in _moments(table, n))
    return MomentStats(u1=u1, u2=u2, u3=u3, n_v=n)


def _moments(table, n_v):
    """(u1, u2, u3), one entry per row of a (trials, 8) presence table.

    Cell c counts the vertex pairs present in exactly the observations whose
    bits c sets (bit r is observation r); cell 0 is never read. u1 reads the
    pairs in observation 0, u2 those in one of observations 0 and 1, and u3
    those in one of the three.
    """
    if n_v < 2:
        raise ValueError("need at least two vertices")
    denom = n_v * (n_v - 1)
    u1 = 2.0 * table[:, [1, 3, 5, 7]].sum(axis=1) / denom
    u2 = table[:, [1, 2, 5, 6]].sum(axis=1) / denom
    u3 = 2.0 * table[:, [1, 2, 4]].sum(axis=1) / (3.0 * denom)
    return u1, u2, u3


def _replicate_moments(missed, gained, false, false_rep, n_v):
    """Moment statistics of many trials' three observations of known graphs.

    Trial t's observations are noisy copies of its own true graph, each
    described by what it changed: the true edges it missed, tabled by miss
    pattern in ``missed`` (``_missed_counts``), and the false edges it turned
    on, ``gained[r, t]`` of them for observation r (``false``: t * P + the
    non-edge's rank, with P = n_v (n_v - 1) / 2, and ``false_rep`` says which
    observation, 0, 1 or 2, each belongs to). A missed edge is never a false
    one, so their presence tables add. Returns (u1, u2, u3), one entry per
    trial, equal to ``moment_stats`` on the same observations.
    """
    # a true edge with miss pattern m is present in pattern 7 - m
    table = missed[:, ::-1] + _presence_table(false, false_rep, gained, n_v * (n_v - 1) // 2)
    return _moments(table, n_v)


def _missed_counts(flags, n_true):
    """(trials, 8) table: per trial, its true edges of each miss pattern.

    ``flags[r]`` flags the true edges that observation r missed, trial by
    trial: trial t's ``n_true[t]`` edges follow the earlier trials'. Each
    edge's miss pattern (bit r set when observation r missed it) is counted
    per trial: by ``count_nonzero`` for a lone trial, by one ``bincount`` of
    8 * trial + pattern otherwise, so an edgeless trial counts 0.
    """
    n_trials = n_true.size
    pattern = flags[2].view(np.uint8) << 2
    pattern |= flags[1].view(np.uint8) << 1
    pattern |= flags[0]
    if n_trials == 1:
        return np.array([[np.count_nonzero(pattern == p) for p in range(8)]])
    key = np.repeat(np.arange(0, 8 * n_trials, 8), n_true)
    key |= pattern
    return np.bincount(key, minlength=8 * n_trials).reshape(n_trials, 8)


def _presence_table(items, rep, sizes, pairs: int):
    """The (trials, 8) presence table (``_moments``) of three observations.

    Observation r holds ``sizes[r, t]`` items of trial t, each t * pairs + k,
    and ``rep`` says which observation each item belongs to. Each item is
    tagged with it in the two low bits (items stay below 2**61), and one
    sort, a merge when each observation's items come sorted, leaves an
    item's copies adjacent, in observation order. Only the positions whose
    item equals the next one's are read: such a pair is in cell
    (1 << tag) | (1 << next tag), a triple (the pairs (0, 1) and (1, 2)) in
    cell 7 alone, and observation r's other items in cell 1 << r.
    """
    keys = (items << 2) | rep
    keys.sort(kind="stable")
    tags = keys & 3
    keys >>= 2
    at = np.flatnonzero(keys[1:] == keys[:-1])
    cell = (1 << tags[at]) | (1 << tags[at + 1])
    second = np.flatnonzero(at[1:] == at[:-1] + 1) + 1
    cell[second - 1] = 7
    at, cell = np.delete(at, second), np.delete(cell, second)
    table = np.bincount(keys[at] // pairs * 8 + cell, minlength=8 * sizes.shape[1])
    table = table.reshape(-1, 8)
    for r in range(3):
        table[:, 1 << r] = sizes[r] - table[:, np.arange(8) & (1 << r) > 0].sum(axis=1)
    return table


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
