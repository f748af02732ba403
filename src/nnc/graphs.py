"""Simple undirected graphs, degree-law samplers, and contact-data ingestion.

Vertices are dense 0-based indices; labelled inputs are mapped to indices in
first-seen order. Graphs are immutable once built: the sorted edge arrays are
their only storage, kept read-only, so memory grows with n + m and never with
the n^2 vertex pairs.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from numbers import Integral
from pathlib import Path
from typing import IO, Iterator, Sequence, Union

import numpy as np


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """Sorted distinct elements of an integer array, equal to ``np.unique``.

    Sorts, then keeps each element that differs from its predecessor. On
    numpy 2.x ``np.unique`` of an int64 array takes a hash-based path that is
    tens of times slower than this on the 5e5 edge codes of a ZTP(10) graph
    with 1e5 vertices.
    """
    s = np.sort(values)
    if s.size < 2:
        return s
    keep = np.empty(s.size, dtype=bool)
    keep[0] = True
    np.not_equal(s[1:], s[:-1], out=keep[1:])
    return s[keep]


class EdgeListError(ValueError):
    """Malformed edge-list or contact-round input; message carries the line number."""


class Graph:
    """Simple undirected graph with canonical ``i < j`` edge storage.

    Edges are kept as a sorted array of linear pair codes ``i * n_v + j``
    with ``i < j``, decoded into ``edge_i`` (nondecreasing) and ``edge_j``.
    This is the only edge format: set operations on edge sets (noise
    perturbation, replicate comparison) work on the codes, and neighbor
    queries on the decoded arrays.
    """

    __slots__ = ("n_v", "codes", "edge_i", "edge_j", "degrees", "labels", "meta")

    def __init__(
        self,
        n_v: int,
        edge_i: Sequence[int] = (),
        edge_j: Sequence[int] = (),
        labels: Sequence[str] | None = None,
        meta: dict | None = None,
    ):
        n_v = int(n_v)
        if n_v < 0:
            raise ValueError("vertex count must be nonnegative")
        ei = np.asarray(edge_i, dtype=np.int64).ravel()
        ej = np.asarray(edge_j, dtype=np.int64).ravel()
        if ei.shape != ej.shape:
            raise ValueError("edge endpoint arrays differ in length")
        if ei.size:
            if ei.min() < 0 or ej.min() < 0 or max(int(ei.max()), int(ej.max())) >= n_v:
                raise IndexError("edge endpoint out of range")
            if np.any(ei == ej):
                raise ValueError("self-edges are not allowed")
            lo = np.minimum(ei, ej)
            hi = np.maximum(ei, ej)
            codes = _sorted_unique(lo * n_v + hi)
        else:
            codes = np.empty(0, dtype=np.int64)
        self._init_from_codes(n_v, codes, labels, meta)

    def _init_from_codes(self, n_v, codes, labels, meta):
        self.n_v = n_v
        self.codes = codes
        if codes.size:
            self.edge_i = codes // n_v
            self.edge_j = codes - self.edge_i * n_v
        else:
            self.edge_i = np.empty(0, dtype=np.int64)
            self.edge_j = np.empty(0, dtype=np.int64)
        self.degrees = (
            np.bincount(self.edge_i, minlength=n_v) + np.bincount(self.edge_j, minlength=n_v)
        ).astype(np.int64, copy=False)
        for arr in (self.codes, self.edge_i, self.edge_j, self.degrees):
            arr.flags.writeable = False
        self.labels = tuple(labels) if labels is not None else None
        if self.labels is not None and len(self.labels) != n_v:
            raise ValueError("label count does not match vertex count")
        self.meta = dict(meta) if meta else {}

    @classmethod
    def _from_codes(cls, n_v, codes, labels=None, meta=None) -> "Graph":
        # fast path for internal construction; codes must be sorted, unique,
        # self-free and in range
        obj = cls.__new__(cls)
        obj._init_from_codes(int(n_v), np.asarray(codes, dtype=np.int64), labels, meta)
        return obj

    # -- basic accessors -------------------------------------------------

    @property
    def n_edges(self) -> int:
        return int(self.codes.size)

    @property
    def density(self) -> float:
        if self.n_v < 2:
            return 0.0
        return 2.0 * self.n_edges / (self.n_v * (self.n_v - 1))

    def _check_vertex(self, i: int) -> int:
        i = int(i)
        if not 0 <= i < self.n_v:
            raise IndexError(f"vertex {i} out of range for {self.n_v} vertices")
        return i

    def neighbors(self, i: int) -> np.ndarray:
        """Sorted neighbors of ``i``: the lower ones, then the higher ones.

        Lower neighbors are the ``edge_i`` of edges ending at ``i``; higher
        ones are the ``edge_j`` run where ``edge_i == i``. Both come out
        sorted because the codes are.
        """
        i = self._check_vertex(i)
        lo, hi = np.searchsorted(self.edge_i, [i, i + 1])
        return np.concatenate([self.edge_i[self.edge_j == i], self.edge_j[lo:hi]])

    def common_neighbors(self, i: int, j: int) -> int:
        i = self._check_vertex(i)
        j = self._check_vertex(j)
        if i == j:
            raise ValueError("common_neighbors needs two distinct vertices")
        return int(np.intersect1d(self.neighbors(i), self.neighbors(j), assume_unique=True).size)

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.n_v == other.n_v
            and np.array_equal(self.codes, other.codes)
            and self.labels == other.labels
        )

    def __repr__(self):
        return f"Graph(n_v={self.n_v}, n_edges={self.n_edges})"


# -- degree distributions ------------------------------------------------


def _truncated_poisson_rate(mean_degree: float) -> float:
    """Parent Poisson rate whose zero-truncated mean equals ``mean_degree``.

    The truncated mean mu / (1 - exp(-mu)) increases from 1, so targets at
    or below 1 collapse to the point mass at degree 1 (rate 0). Solved by
    bisection to an interval width of 1e-12.
    """
    if not math.isfinite(mean_degree) or mean_degree <= 0:
        raise ValueError("mean degree must be positive and finite")
    if mean_degree <= 1.0:
        return 0.0
    lo, hi = 1e-12, float(mean_degree)
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if mid / -math.expm1(-mid) < mean_degree:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class ZeroTruncatedPoisson:
    """Homogeneous degree law: Poisson conditioned on being at least 1."""

    mean_degree: float

    def __post_init__(self):
        if not math.isfinite(self.mean_degree) or self.mean_degree <= 0:
            raise ValueError("mean degree must be positive and finite")

    @property
    def parent_rate(self) -> float:
        return _truncated_poisson_rate(self.mean_degree)


@dataclass(frozen=True)
class ParetoExpCutoff:
    """Heavy-tailed degree law with density ~ exp(-rate*x) * x**-(shape+1) on [lower, upper]."""

    rate: float
    shape: float
    lower: float
    upper: float

    def __post_init__(self):
        if not (self.rate > 0 and math.isfinite(self.rate)):
            raise ValueError("rate must be positive")
        if not (self.shape > 0 and math.isfinite(self.shape)):
            raise ValueError("shape must be positive")
        if not (1 <= self.lower < self.upper):
            raise ValueError("need 1 <= lower < upper")


DegreeDistribution = Union[ZeroTruncatedPoisson, ParetoExpCutoff]


def sample_degree_sequence(
    dist: DegreeDistribution, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw ``n`` integer degrees from ``dist``, clamped to [1, n-1].

    The Pareto-with-cutoff law is sampled exactly on its continuous support
    by inverse-CDF draws from the pure truncated Pareto accepted with
    probability exp(-rate * (x - lower)), then rounded to the nearest
    integer and clamped to [max(1, ceil(lower)), n-1].
    """
    n = int(n)
    if n < 2:
        raise ValueError("need at least two vertices")

    if isinstance(dist, ZeroTruncatedPoisson):
        mu = dist.parent_rate
        if mu == 0.0:
            return np.ones(n, dtype=np.int64)
        out = np.empty(0, dtype=np.int64)
        while out.size < n:
            batch = rng.poisson(mu, size=int((n - out.size) * 1.25) + 16)
            batch = batch[batch > 0]
            out = np.concatenate([out, batch[: n - out.size]])
        return np.minimum(out, n - 1)

    if isinstance(dist, ParetoExpCutoff):
        a = float(dist.lower)
        b = float(min(dist.upper, n - 1))
        if not a < b:
            raise ValueError("lower bound must sit below min(upper, n-1)")
        k_lo = max(1, math.ceil(a))
        za, zb = a ** -dist.shape, b ** -dist.shape
        out = np.empty(0, dtype=np.int64)
        while out.size < n:
            m = int((n - out.size) * 1.6) + 16
            u = rng.random(m)
            x = (za - u * (za - zb)) ** (-1.0 / dist.shape)
            accept = rng.random(m) < np.exp(-dist.rate * (x - a))
            k = np.rint(x[accept]).astype(np.int64)
            out = np.concatenate([out, k[: n - out.size]])
        return np.clip(out, k_lo, n - 1)

    raise TypeError(f"unknown degree distribution: {dist!r}")


# -- graph construction --------------------------------------------------


# smallest first chunk (stubs) of a lazily drawn matching; a matching of at
# most 2 * _MATCH_CHUNK stubs is drawn as one permutation
_MATCH_CHUNK = 2**13


def _shuffle_stubs(stubs: np.ndarray, n: int, rng: np.random.Generator,
                   out: np.ndarray) -> bool:
    """Fill ``out`` with the stubs in uniform random order, abandoning the
    draw early when the matching it makes cannot be simple; entries 2k and
    2k + 1 are the k-th pair of the matching.

    The first half of the order is drawn in chunks that start at
    ``max(_MATCH_CHUNK, stubs.size // 64)`` stubs and double, as long as the
    next chunk keeps the drawn prefix below half the stubs; the builder calls
    this only above ``2 * _MATCH_CHUNK`` stubs, so at least one chunk is
    drawn. A chunk is a uniform ordered sample of stub indices with the
    already drawn ones removed, which is a uniform ordered sample of the
    undrawn ones, so the prefix is that of a uniform permutation. The draw
    stops and returns False as soon as the pairs drawn so far hold a
    self-loop or a repeated pair. Otherwise the undrawn stubs follow in
    uniform random order and True is returned. ``n`` is the vertex count,
    the base of the pair codes ``lo * n + hi``.
    """
    used = np.zeros(stubs.size, dtype=bool)
    seen = np.empty(0, dtype=np.int64)  # sorted pair codes of the prefix
    head = 0
    chunk = max(_MATCH_CHUNK, stubs.size // 64)
    while 2 * (head + chunk) < stubs.size:
        idx = rng.choice(stubs.size, chunk, replace=False)
        idx = idx[~used[idx]]
        used[idx] = True
        start = head - head % 2  # an odd stub left over pairs with the chunk's first
        out[head:head + idx.size] = stubs[idx]
        head += idx.size
        stop = head - head % 2
        a, b = out[start:stop:2], out[start + 1:stop:2]
        if np.any(a == b):
            return False
        seen = np.sort(np.concatenate([seen, np.minimum(a, b) * n + np.maximum(a, b)]))
        if np.any(seen[1:] == seen[:-1]):
            return False
        chunk *= 2
    out[head:] = stubs[~used]
    rng.shuffle(out[head:])
    return True


def build_graph_configuration(
    degrees: Sequence[int],
    rng: np.random.Generator,
    max_attempts: int = 100,
) -> Graph:
    """Random simple graph from a degree sequence by stub matching.

    Stubs are matched uniformly at random; matchings containing self-loops
    or parallel edges are redrawn up to ``max_attempts`` times, after which
    the offending pairs of the last matching are erased. Either way realized
    degrees never exceed the requested ones, and the number of stubs lost to
    erasure is reported in ``meta['erased_stub_count']`` beside the number
    of matchings drawn (``meta['matching_attempts']``). An odd stub total is
    repaired by adding one stub to a uniformly chosen vertex that can still
    take it (``meta['odd_repair_node']``). ``max_attempts`` must be a
    positive integer (not a bool).

    The chance that a matching is simple falls like exp(-nu/2 - nu^2/4) with
    nu = E[d(d-1)]/E[d] (Janson, CPC 2009), so degree laws such as ZTP(10)
    or the school Pareto essentially never yield one: all attempts run and
    the last one is erased. Above ``2 * _MATCH_CHUNK`` stubs each attempt
    before the last is drawn lazily (``_shuffle_stubs``) and abandoned at
    the first chunk that shows a self-loop or a repeated pair (ZTP(10) at
    n = 1e5: after ~15% of stubs); one that survives half its stubs is
    completed and checked in full. Every other attempt, the last one
    included, is one whole permutation: the stubs are copied into one buffer
    and shuffled in place, which draws exactly what ``rng.permutation(stubs)``
    draws, and only an attempt without a self-loop, or the last one, builds
    its pair codes. Attempts stay independent uniform matchings accepted iff
    simple, so the graph and ``meta`` have the law of redrawing whole
    matchings, though above ``2 * _MATCH_CHUNK`` stubs not the same stream.
    At or below that size the graph, ``meta`` and the generator's state are
    exactly those of drawing every attempt with ``rng.permutation``.
    """
    if type(max_attempts) is bool or not isinstance(max_attempts, Integral) or max_attempts < 1:
        raise ValueError("max_attempts must be an integer of at least 1")
    d = np.asarray(degrees, dtype=np.int64).copy()
    n = d.size
    if n == 0:
        raise ValueError("degree sequence is empty")
    if d.min() < 1 or d.max() > n - 1:
        raise ValueError("each degree must lie in [1, n-1]")

    meta: dict = {"odd_repair_node": None}
    if d.sum() % 2 == 1:
        pick = int(rng.choice(np.flatnonzero(d < n - 1)))
        d[pick] += 1
        meta["odd_repair_node"] = pick

    stubs = np.repeat(np.arange(n, dtype=np.int64), d)
    n_pairs = stubs.size // 2
    perm = np.empty_like(stubs)
    a, b = perm[0::2], perm[1::2]
    # attempts drawn in chunks: all but the last above 2 * _MATCH_CHUNK stubs
    lazy = max_attempts - 1 if stubs.size > 2 * _MATCH_CHUNK else 0
    for attempts in range(1, max_attempts + 1):
        if attempts > lazy:
            perm[:] = stubs
            rng.shuffle(perm)
        elif not _shuffle_stubs(stubs, n, rng, perm):
            continue
        if attempts < max_attempts and (a == b).any():
            continue
        codes = np.minimum(a, b)
        codes *= n
        codes += np.maximum(a, b)
        codes = _sorted_unique(codes[a != b])
        if codes.size == n_pairs:
            break
    meta["matching_attempts"] = attempts
    meta["erased_stub_count"] = int(2 * (n_pairs - codes.size))
    return Graph._from_codes(n, codes, meta=meta)


# -- edge-list and contact-round ingestion --------------------------------

Source = Union[str, Path, IO[str]]


def _rows(source: Source) -> Iterator[list[str]]:
    if hasattr(source, "read"):
        yield from csv.reader(source)
    else:
        with open(source, "r", encoding="utf-8", newline="") as fh:
            yield from csv.reader(fh)


def _parse_pair(fields, labels: dict, lineno: int) -> tuple[int, int]:
    a, b = fields[0].strip(), fields[1].strip()
    if not a or not b:
        raise EdgeListError(f"line {lineno}: empty node label")
    if a == b:
        raise EdgeListError(f"line {lineno}: self-edge {a!r}")
    ia = labels.setdefault(a, len(labels))
    ib = labels.setdefault(b, len(labels))
    return (ia, ib) if ia < ib else (ib, ia)


def load_edge_list(source: Source) -> Graph:
    """Read an undirected edge list with header ``node_a,node_b``.

    Labels map to dense indices in first-seen order; duplicate and reversed
    pairs collapse to one edge. A header-only stream yields the empty graph.
    """
    rows = _rows(source)
    header = next(rows, None)
    if header is None or [c.strip() for c in header] != ["node_a", "node_b"]:
        raise EdgeListError("line 1: expected header 'node_a,node_b'")
    labels: dict[str, int] = {}
    ei: list[int] = []
    ej: list[int] = []
    for lineno, fields in enumerate(rows, start=2):
        if not fields:
            continue
        if len(fields) != 2:
            raise EdgeListError(f"line {lineno}: expected 2 fields, got {len(fields)}")
        a, b = _parse_pair(fields, labels, lineno)
        ei.append(a)
        ej.append(b)
    # Graph sorts the pairs and drops the repeats
    return Graph(len(labels), ei, ej, labels=tuple(labels))


@dataclass(frozen=True)
class RoundedContactData:
    """Per-round contact edge sets over a shared labelled vertex universe."""

    round_ids: tuple[int, ...]
    edges_by_round: tuple[frozenset[tuple[int, int]], ...]
    labels: tuple[str, ...]

    @property
    def n_v(self) -> int:
        return len(self.labels)

    @property
    def n_rounds(self) -> int:
        return len(self.round_ids)


def load_rounds(source: Source) -> RoundedContactData:
    """Read multi-round contact data with header ``round,node_a,node_b``."""
    rows = _rows(source)
    header = next(rows, None)
    if header is None or [c.strip() for c in header] != ["round", "node_a", "node_b"]:
        raise EdgeListError("line 1: expected header 'round,node_a,node_b'")
    labels: dict[str, int] = {}
    by_round: dict[int, set[tuple[int, int]]] = {}
    for lineno, fields in enumerate(rows, start=2):
        if not fields:
            continue
        if len(fields) != 3:
            raise EdgeListError(f"line {lineno}: expected 3 fields, got {len(fields)}")
        try:
            rid = int(fields[0].strip())
        except ValueError:
            raise EdgeListError(f"line {lineno}: round {fields[0]!r} is not an integer") from None
        if rid < 1:
            raise EdgeListError(f"line {lineno}: round must be a positive integer")
        pair = _parse_pair(fields[1:], labels, lineno)
        by_round.setdefault(rid, set()).add(pair)
    ids = tuple(sorted(by_round))
    return RoundedContactData(
        round_ids=ids,
        edges_by_round=tuple(frozenset(by_round[r]) for r in ids),
        labels=tuple(labels),
    )


def build_true_graph_from_rounds(data: RoundedContactData, min_count: int = 2) -> Graph:
    """Graph whose edges are the pairs seen in at least ``min_count`` rounds."""
    if min_count < 1:
        raise ValueError("min_count must be at least 1")
    if data.n_rounds < 1:
        raise ValueError("need at least one round")
    counts: dict[tuple[int, int], int] = {}
    for edges in data.edges_by_round:
        for pair in edges:
            counts[pair] = counts.get(pair, 0) + 1
    kept = [pair for pair, c in counts.items() if c >= min_count]
    return Graph(data.n_v, [i for i, _ in kept], [j for _, j in kept], labels=data.labels)


def align_on_labels(graphs: Sequence[Graph]) -> list[Graph]:
    """Re-index labelled graphs onto their shared label universe.

    Independently loaded edge lists assign dense indices in their own
    first-seen order, so the same label can sit at different indices in
    different files. This rebuilds every graph on the union of labels
    (first-seen across the inputs, in input order) so that edge sets are
    directly comparable.
    """
    mapping: dict[str, int] = {}
    for g in graphs:
        if g.labels is None:
            raise ValueError("all graphs must carry vertex labels")
        for lab in g.labels:
            mapping.setdefault(lab, len(mapping))
    labels = tuple(mapping)
    n = len(mapping)
    out = []
    for g in graphs:
        if g.n_edges:
            ix = np.asarray([mapping[lab] for lab in g.labels], dtype=np.int64)
            out.append(Graph(n, ix[g.edge_i], ix[g.edge_j], labels=labels))
        else:
            out.append(Graph(n, labels=labels))
    return out


def write_edge_list(g: Graph, sink: Source) -> None:
    """Write ``g`` as a ``node_a,node_b`` CSV in canonical edge order."""
    labels = g.labels if g.labels is not None else tuple(str(i) for i in range(g.n_v))

    def _write(fh):
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["node_a", "node_b"])
        for i, j in zip(g.edge_i, g.edge_j):
            w.writerow([labels[i], labels[j]])

    if hasattr(sink, "write"):
        _write(sink)
    else:
        with open(sink, "w", encoding="utf-8", newline="") as fh:
            _write(fh)
