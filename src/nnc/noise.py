"""Independent edge-flip observation noise for simple graphs."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import Graph, _sorted_unique


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


_DENSE_PAIR_LIMIT = 20_000


def _pair_count(n: int) -> int:
    return n * (n - 1) // 2


def _in_sorted(values: np.ndarray, table: np.ndarray) -> np.ndarray:
    if table.size == 0:
        return np.zeros(values.shape, dtype=bool)
    pos = np.searchsorted(table, values)
    pos = np.minimum(pos, table.size - 1)
    return table[pos] == values


def _decode_pair_rank(r: np.ndarray, n: int, row_cum: np.ndarray) -> np.ndarray:
    # rank r in [0, n(n-1)/2) -> linear code i*n + j of the r-th pair in
    # canonical (i < j) order
    i = np.searchsorted(row_cum, r, side="right")
    base = np.where(i > 0, row_cum[np.maximum(i - 1, 0)], 0)
    j = i + 1 + (r - base)
    return i * n + j


def _draw_uniform_nonedges(
    n: int, edge_codes: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """Uniform random set of ``k`` distinct vertex pairs avoiding ``edge_codes``."""
    if k == 0:
        return np.empty(0, dtype=np.int64)
    total = _pair_count(n)
    row_cum = np.cumsum(np.arange(n - 1, 0, -1, dtype=np.int64))
    chosen = np.empty(0, dtype=np.int64)
    while chosen.size < k:
        r = rng.integers(0, total, size=k - chosen.size)
        cand = _decode_pair_rank(r, n, row_cum)
        cand = _sorted_unique(cand)
        cand = cand[~_in_sorted(cand, edge_codes)]
        if chosen.size:
            cand = cand[~_in_sorted(cand, chosen)]
        chosen = np.sort(np.concatenate([chosen, cand]))
    return chosen


def perturb(
    g: Graph, noise: NoiseParams, rng: np.random.Generator, method: str = "auto"
) -> Graph:
    """One noisy observation of ``g``.

    Every true edge survives independently with probability 1 - beta and
    every non-edge turns on independently with probability alpha. The vertex
    set is unchanged and the output is again simple.

    ``method="dense"`` draws one uniform per vertex pair in canonical
    (i < j) order, so a fixed generator state reproduces the observation
    bit for bit. ``method="sparse"`` thins the edge list and inserts a
    Binomial(#non-edges, alpha) count of uniformly chosen non-edges, which
    follows the same law without O(n^2) work. ``"auto"`` picks by size and
    density.
    """
    if method not in ("auto", "dense", "sparse"):
        raise ValueError(f"unknown method {method!r}")
    n = g.n_v
    total = _pair_count(n)
    if total == 0:
        return Graph._from_codes(n, np.empty(0, dtype=np.int64), labels=g.labels)
    if method == "auto":
        dense = total <= _DENSE_PAIR_LIMIT or (g.density + noise.alpha) >= 0.25
        method = "dense" if dense else "sparse"

    if method == "dense":
        iu_i, iu_j = np.triu_indices(n, 1)
        flat_true = g.adjacency[iu_i, iu_j]
        u = rng.random(total)
        observed = np.where(flat_true, u < 1.0 - noise.beta, u < noise.alpha)
        codes = (iu_i.astype(np.int64) * n + iu_j)[observed]
        return Graph._from_codes(n, codes, labels=g.labels)

    m = g.n_edges
    if m:
        kept = g.codes[rng.random(m) < 1.0 - noise.beta]
    else:
        kept = np.empty(0, dtype=np.int64)
    n_false = int(rng.binomial(total - m, noise.alpha)) if total > m else 0
    false_codes = _draw_uniform_nonedges(n, g.codes, n_false, rng)
    codes = np.sort(np.concatenate([kept, false_codes]))
    return Graph._from_codes(n, codes, labels=g.labels)


def replicate(
    g: Graph, noise: NoiseParams, k: int, rng: np.random.Generator, method: str = "auto"
) -> list[Graph]:
    """``k`` conditionally independent noisy observations of ``g``."""
    if k < 1:
        raise ValueError("need at least one replicate")
    return [perturb(g, noise, rng, method=method) for _ in range(k)]
