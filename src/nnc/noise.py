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


def _batch_ranks(gaps: list, n_trials: np.ndarray):
    """Success ranks (increasing indices) of many draws at once, from gaps.

    Draw s among ``n_trials[s]`` trials has the gaps ``gaps[s]``, as
    ``_draw_observations`` appends them: its first batch when that reached
    past the last trial, or its batches to the end (``_gaps_to_end``).
    Returns every draw's success ranks, draw after draw, and the draw of
    each; empties ``gaps``, so its batches are released once copied.
    """
    counts = np.fromiter(map(len, gaps), np.int64, len(gaps))
    parts, gaps = gaps, np.concatenate(gaps)
    parts.clear()
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


_NO_GAPS = np.empty(0, dtype=np.int64)


def _draw_observations(rng, k, noise: NoiseParams, nonedges, scratch, missed, gaps) -> None:
    """The random draws of ``k`` noisy observations of one true graph.

    Draw order, per observation r: one uniform per true edge, in edge-code
    order, through ``scratch`` (one entry per true edge) into ``missed[r]``,
    which flags the edges it misses (uniform >= 1 - beta); then
    Geometric(alpha) gaps between the ``nonedges`` non-edges that turn on,
    in increasing canonical (i < j) pair order (Batagelj & Brandes, Phys.
    Rev. E 71, 036113, 2005). The gaps come in one batch of ``_batch_size``
    when that reaches past the last non-edge (an overflowed sum does not,
    and is continued), or in batches to the end (``_gaps_to_end``). Each
    observation's gaps, or ``_NO_GAPS`` when alpha or ``nonedges`` is 0, are
    appended to ``gaps``; ``_batch_ranks`` turns them into non-edge ranks. A
    fixed generator state thus reproduces the observations bit for bit.
    """
    keep_below, alpha = 1.0 - noise.beta, noise.alpha
    batch_size = _batch_size(nonedges, alpha) if alpha > 0.0 and nonedges > 0 else 0
    for r in range(k):
        rng.random(out=scratch)
        np.greater_equal(scratch, keep_below, out=missed[r])
        if not batch_size:
            gaps.append(_NO_GAPS)
            continue
        batch = rng.geometric(alpha, batch_size)
        if batch.sum() <= nonedges:
            batch = _gaps_to_end(nonedges, alpha, rng, batch)
        gaps.append(batch)


def perturb(g: Graph, noise: NoiseParams, rng: np.random.Generator) -> Graph:
    """One noisy observation of ``g``: ``replicate(g, noise, 1, rng)[0]``.

    Every true edge survives independently with probability 1 - beta and
    every non-edge turns on independently with probability alpha. The vertex
    set is unchanged and the output is again simple. The draw order is
    ``_draw_observations``'; time and memory are O(n + m + observed edges).
    """
    return replicate(g, noise, 1, rng)[0]


def replicate(g: Graph, noise: NoiseParams, k: int, rng: np.random.Generator) -> list[Graph]:
    """``k`` conditionally independent noisy observations of ``g``.

    Equal to ``k`` successive ``perturb`` calls on ``rng``: the draws are
    ``_draw_observations``' for ``k`` observations, and their false edges
    are mapped to pairs through one set of ``g``'s rank tables.
    """
    if k < 1:
        raise ValueError("need at least one replicate")
    n, m = g.n_v, g.n_edges
    nonedges = _pair_count(n) - m
    missed, gaps = np.empty((k, m), dtype=bool), []
    _draw_observations(rng, k, noise, nonedges, np.empty(m), missed, gaps)
    ranks, obs = _batch_ranks(gaps, np.full(k, nonedges))
    nonedges_before, row_cum = _rank_tables(g)
    i, j = _nonedge_pairs(ranks, 0, nonedges_before, np.zeros(1, dtype=np.int64), row_cum, n)
    false_codes = i * n + j
    ends = np.searchsorted(obs, np.arange(k + 1))
    out = []
    for r in range(k):
        # both parts are sorted, so the stable sort is one merge of two runs
        codes = np.concatenate([g.codes[~missed[r]], false_codes[ends[r] : ends[r + 1]]])
        codes.sort(kind="stable")
        out.append(Graph._from_codes(n, codes, labels=g.labels))
    return out
