"""Independent edge-flip observation noise for simple graphs."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import Graph


@dataclass(frozen=True)
class NoiseParams:
    """False-edge rate ``alpha`` and missed-edge rate ``beta``.

    Both rates live in [0, 1] so degenerate observation processes stay
    expressible; estimation paths additionally require alpha + beta < 1
    (see ``identifiable``) and enforce it where it matters.
    """

    alpha: float
    beta: float

    def __post_init__(self):
        for name, v in (("alpha", self.alpha), ("beta", self.beta)):
            if not (math.isfinite(v) and 0.0 <= v <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1]")

    @property
    def identifiable(self) -> bool:
        return self.alpha + self.beta < 1.0


def _pair_count(n: int) -> int:
    return n * (n - 1) // 2


def _pair_of_rank(r: np.ndarray, row_cum: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # rank r in [0, n(n-1)/2) -> the r-th pair (i, j) in canonical (i < j)
    # order; row_cum as in _rank_tables
    i = np.searchsorted(row_cum, r, side="right")
    # pairs before row i: row_cum[i - 1], or none in row 0
    j = r - np.concatenate(([0], row_cum))[i]
    j += i
    j += 1
    return i, j


def _rank_tables(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Tables that map non-edge ranks of ``g`` to pair codes, O(n + m) in size.

    ``nonedges_before[k]`` counts the non-edges that precede the k-th true
    edge in canonical pair order, and ``row_cum[i]`` counts the pairs whose
    smaller vertex is at most ``i``.
    """
    n, m = g.n_v, g.n_edges
    row_cum = np.cumsum(np.arange(n - 1, 0, -1, dtype=np.int64))
    # the pair (i, j) has rank row_cum[i] + j - n, and k true edges precede
    # the k-th; updated in place to keep one O(m) temporary
    nonedges_before = row_cum[g.edge_i]
    nonedges_before += g.edge_j
    nonedges_before -= np.arange(n, n + m, dtype=np.int64)
    return nonedges_before, row_cum


def _nonedge_pairs(
    ranks: np.ndarray,
    owner,
    nonedges_before: np.ndarray,
    first_edge: np.ndarray,
    row_cum: np.ndarray,
    n: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Vertex pairs (i, j) of non-edges given by their ranks.

    ``ranks[k]`` counts among the non-edges, in canonical pair order, of
    graph ``owner[k]`` (or ``owner``, one index for all) of several
    ``n``-vertex graphs. ``nonedges_before`` holds their first rank tables
    (``_rank_tables``) laid end to end, graph t's from ``first_edge[t]`` on
    and shifted by t * n(n-1)/2, and ``row_cum`` is the second table, the
    same for all. A non-edge rank r maps to the pair rank r + (true edges
    before it), so one search serves every graph.
    """
    pair_rank = np.searchsorted(nonedges_before, owner * _pair_count(n) + ranks, side="right")
    pair_rank += ranks - first_edge[owner]
    return _pair_of_rank(pair_rank, row_cum)


def _batch_size(left: int, p: float) -> int:
    """How many Geometric(p) gaps to draw at once among ``left`` Bernoulli(p)
    trials: the expected count of successes and four standard deviations,
    so that one batch usually reaches past the last trial."""
    mean = left * p
    return int(mean + 4.0 * math.sqrt(mean)) + 8


def _cap_gaps(gaps: np.ndarray, n_trials: int) -> np.ndarray:
    """``gaps`` capped at ``n_trials`` + 1, in place.

    A gap that reaches past the last of ``n_trials`` trials ends the draw
    wherever it is capped, and the cap keeps running sums far from int64
    overflow when p is tiny.
    """
    return np.minimum(gaps, n_trials + 1, out=gaps)


def _gaps_to_end(
    n_trials: int, p: float, rng: np.random.Generator, gaps: np.ndarray
) -> np.ndarray:
    """The first gap batch ``gaps`` (``_batch_size(n_trials, p)`` of them),
    then further batches, each sized from the trials still left, until the
    gaps reach past the last trial; all capped (``_cap_gaps``)."""
    parts = [gaps]
    total = int(_cap_gaps(gaps, n_trials).sum())
    while total <= n_trials:
        gaps = _cap_gaps(rng.geometric(p, _batch_size(n_trials - total, p)), n_trials)
        parts.append(gaps)
        total += int(gaps.sum())
    return np.concatenate(parts) if len(parts) > 1 else gaps


def _success_ranks(n_trials: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """Increasing indices of the successes among ``n_trials`` Bernoulli(p) trials.

    The gaps between successes are Geometric(p) (Batagelj & Brandes, Phys.
    Rev. E 71, 036113, 2005), drawn in batches (``_batch_size``) sized from
    the expected count of successes still to come, so the work is
    proportional to the number of successes, not of trials.
    """
    if p == 0.0 or n_trials == 0:
        return np.empty(0, dtype=np.int64)
    gaps = _gaps_to_end(n_trials, p, rng, rng.geometric(p, _batch_size(n_trials, p)))
    return _batch_ranks(gaps, np.array([gaps.size]), np.array([n_trials]))[0]


def _batch_ranks(gaps: np.ndarray, counts: np.ndarray, n_trials: np.ndarray):
    """``_success_ranks`` of many draws at once, from their gaps.

    Draw s among ``n_trials[s]`` trials has the next ``counts[s]`` entries of
    ``gaps``: its first batch when that reached past the last trial, or its
    batches to the end (``_gaps_to_end``). ``gaps`` is capped in place.
    Returns every draw's success ranks, draw after draw, and the draw of each.
    """
    # one cap for all draws: a gap capped at the largest n_trials + 1 still
    # reaches past the last trial of its own draw
    _cap_gaps(gaps, n_trials.max(initial=0))
    # one running sum for all draws, less what came before each draw
    run = np.zeros(gaps.size + 1, dtype=np.int64)
    np.cumsum(gaps, out=run[1:])
    ranks = run[1:]
    ranks -= np.repeat(run[np.cumsum(counts) - counts] + 1, counts)
    draw = np.repeat(np.arange(counts.size), counts)
    keep = ranks < n_trials[draw]
    return ranks[keep], draw[keep]


def _observe(
    g: Graph,
    noise: NoiseParams,
    rng: np.random.Generator,
    tables: tuple[np.ndarray, np.ndarray],
) -> Graph:
    n, m = g.n_v, g.n_edges
    keep = rng.random(m) < 1.0 - noise.beta
    r = _success_ranks(_pair_count(n) - m, noise.alpha, rng)
    kept = g.codes[keep]
    i, j = _nonedge_pairs(r, 0, tables[0], np.zeros(1, dtype=np.int64), tables[1], n)
    false_codes = i * n + j
    del i, j
    # both parts are sorted, so the stable sort is one merge of two runs
    codes = np.concatenate([kept, false_codes])
    del kept, false_codes, r
    codes.sort(kind="stable")
    return Graph._from_codes(n, codes, labels=g.labels)


def perturb(g: Graph, noise: NoiseParams, rng: np.random.Generator) -> Graph:
    """One noisy observation of ``g``.

    Every true edge survives independently with probability 1 - beta and
    every non-edge turns on independently with probability alpha. The vertex
    set is unchanged and the output is again simple.

    Draw order: one uniform per true edge, in edge-code order, keeps the edge
    when below 1 - beta; then Geometric(alpha) gaps pick the non-edges that
    turn on, in increasing canonical (i < j) pair order, so a fixed generator
    state reproduces the observation bit for bit. Time and memory are
    O(n + m + observed edges); no array has one entry per vertex pair.
    """
    return _observe(g, noise, rng, _rank_tables(g))


def replicate(g: Graph, noise: NoiseParams, k: int, rng: np.random.Generator) -> list[Graph]:
    """``k`` conditionally independent noisy observations of ``g``.

    Equal to ``k`` successive ``perturb`` calls on ``rng``; the rank tables
    of ``g`` are built once and shared by the ``k`` draws.
    """
    if k < 1:
        raise ValueError("need at least one replicate")
    tables = _rank_tables(g)
    return [_observe(g, noise, rng, tables) for _ in range(k)]
