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

from .seeding import derive_seeds, rng_from_words, seed_words


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
    bisection to an interval width of 1e-12, or, for large means where
    floats are coarser than that, until the midpoint is one of the ends.
    """
    if not math.isfinite(mean_degree) or mean_degree <= 0:
        raise ValueError("mean degree must be positive and finite")
    if mean_degree <= 1.0:
        return 0.0
    lo, hi = 1e-12, float(mean_degree)
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
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


# a matching of more than _LAZY_PAIRS pairs has its attempts but the last
# revealed lazily, hub first; a smaller one's are each one permutation
_LAZY_PAIRS = 2**13
# a lazy attempt's first group of vertices holds at least N // _FIRST_GROUP
# of the N stubs (and at least one vertex), and each later group at least
# twice as many as the one before. Rejected ZTP(10) attempts at 2e5 and 1e6
# stubs took 0.38 and 1.56 ms at N // 64, 0.31 and 1.23 ms at N // 128, and
# 0.36 and 1.25 ms at N // 256 (one process, best of three passes)
_FIRST_GROUP = 128


def _pair_codes(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    # sorted distinct codes lo * n + hi of the pairs (a[k], b[k]) that are
    # not self-loops; the matching is simple iff there are len(a) of them
    codes = np.minimum(a, b)
    codes *= n
    codes += np.maximum(a, b)
    codes = codes[a != b]  # frees the unfiltered codes before the sort
    return _sorted_unique(codes)


def _hub_first(d: np.ndarray):
    """The stubs in hub-first order and the ends of the reveal's groups.

    The vertices are put in decreasing degree order, ties by id; entry k of
    the returned stub array is the vertex of stub k in that order, so each
    vertex's stubs are a contiguous run. The groups cut that order at vertex
    boundaries, the first after at least ``N // _FIRST_GROUP`` stubs (N the
    stub count), each later one after at least twice as many stubs as the
    one before; the last ends at N.
    """
    n = d.size
    # a stable radix sort of the narrow key: ~1 ms at n = 1e5, 5 ms on -d
    order = np.argsort((d.max() - d).astype(np.min_scalar_type(d.max())), kind="stable")
    deg = d[order]
    hub = np.repeat(order.astype(np.min_scalar_type(n - 1)), deg)
    cum = np.cumsum(deg)
    ends, end, size = [], 0, max(1, hub.size // _FIRST_GROUP)
    while end < hub.size:
        end = int(cum[min(np.searchsorted(cum, end + size), n - 1)])
        ends.append(end)
        size *= 2
    return hub, ends


def _slot_pairs(rng: np.random.Generator, u: int, s: int, index_type) -> int:
    # how many of the slots (2j, 2j + 1) hold two of s uniform distinct
    # positions in [0, u). The positions are the distinct values of
    # uniform draws, drawn s - (distinct so far) at a time until there are
    # s: that set is the distinct values of the shortest prefix of an iid
    # sequence that holds s of them, so it is a uniform s-subset
    pos = _sorted_unique(rng.integers(0, u, s, dtype=index_type))
    while pos.size < s:
        more = rng.integers(0, u, s - pos.size, dtype=index_type)
        pos = _sorted_unique(np.concatenate([pos, more]))
    slots = pos >> 1
    return int(np.count_nonzero(slots[1:] == slots[:-1]))


def _outside(rng: np.random.Generator, lo: int, size: int, count: int,
             matched: np.ndarray, index_type) -> np.ndarray:
    # ``count`` stubs drawn in order from the unmatched ones in [lo, size),
    # a uniform ordered sample, each then marked in ``matched``. A batch
    # draws the count still missing uniformly with replacement and keeps, in
    # draw order, the unmatched stubs it draws exactly once; a sorted copy
    # finds the repeats. Which draws are kept depends only on which of them
    # are equal or hit a matched stub, never on their values, so the kept
    # stubs are uniform
    taken = [np.empty(0, dtype=index_type)]
    while count:
        idx = rng.integers(lo, size, count, dtype=index_type)
        idx = idx[~matched[idx]]
        matched[idx] = True
        ordered = np.sort(idx)
        repeated = ordered[1:] == ordered[:-1]
        if repeated.any():
            matched[ordered[1:][repeated]] = False
            idx = idx[matched[idx]]
        taken.append(idx)
        count -= idx.size
    return np.concatenate(taken)


def _lazy_attempt(hub: np.ndarray, ends: list, matched: np.ndarray, n: int,
                  rng: np.random.Generator):
    """One uniform stub matching revealed hub first: its sorted pair codes
    when it is simple, else None as soon as it shows a self-loop or a
    repeated pair.

    ``hub`` and ``ends`` are ``_hub_first``'s, ``n`` the vertex count, and
    ``matched`` one flag per stub, all False, which the attempt uses as
    scratch and leaves all False. Group by group, with u stubs unmatched,
    the group's unmatched stubs S (s of them) get their partners: s uniform
    distinct positions in a uniform order of the u stubs, each paired with
    the stub at its neighbouring position (2j with 2j + 1), give the number
    k of pairs inside S; a uniform ordered sample of 2k stubs of S is paired
    in turn, and the other stubs of S, in order, with a uniform ordered
    sample of the unmatched stubs outside S. That is the law of a uniform
    matching's pairs at S given the pairs revealed before, and which stubs
    are revealed next depends only on those, so the whole is a uniform
    matching (the pairing model: Bollobas, Eur. J. Combin. 1:311-316, 1980).
    Every pair a group reveals has an end in that group and none in an
    earlier one, so it can only repeat a pair of the same group, and each
    group is checked on its own. Once S would exceed a quarter of the
    unmatched stubs, the unmatched stubs are shuffled and paired in order
    and checked the same way. Revealing a vertex's stubs together shows
    every repeated pair at it: a rejected ZTP(10) attempt at n = 1e5 has
    matched a median of ~15.5k of its 1e6 stubs, in 1.5 groups on average.
    """
    size = hub.size
    # rng.integers draws 16-bit values slower than 32-bit ones
    index_type = np.promote_types(np.min_scalar_type(size), np.uint32)
    parts = []  # each group's sorted pair codes
    taken = []  # the stubs marked in ``matched``
    try:
        lo, u = 0, size
        for hi in ends:
            group = hub[lo:hi][~matched[lo:hi]]
            s = group.size
            if 4 * s > u:
                break
            if s:
                k = _slot_pairs(rng, u, s, index_type)
                out = _outside(rng, hi, size, s - 2 * k, matched, index_type)
                taken.append(out)
                a, b = group, hub[out]
                if k:
                    inner = rng.choice(s, 2 * k, replace=False)
                    keep = np.ones(s, dtype=bool)
                    keep[inner] = False
                    a = np.concatenate([group[inner[0::2]], group[keep]])
                    b = np.concatenate([group[inner[1::2]], b])
                # only the pairs inside the group can be self-loops
                if (codes := _group_codes(a, b, n, k)) is None:
                    return None
                parts.append(codes)
                u -= s + out.size
            lo = hi
        if u:
            if (codes := _rest_codes(hub[lo:][~matched[lo:]], n, rng)) is None:
                return None
            parts.append(codes)
        return np.sort(np.concatenate(parts))
    finally:
        for out in taken:
            matched[out] = False


def _rest_codes(rest: np.ndarray, n: int, rng: np.random.Generator):
    # ``_group_codes`` of a uniform matching of the stubs ``rest``: one
    # shuffle, then pairs in order (int64 shuffles twice as fast as uint32)
    rest = rest.astype(np.int64)
    rng.shuffle(rest)
    return _group_codes(rest[0::2], rest[1::2], n, rest.size // 2)


def _group_codes(a: np.ndarray, b: np.ndarray, n: int, loops: int):
    # the sorted codes lo * n + hi of the pairs (a[k], b[k]), or None when
    # one of the first ``loops`` pairs is a self-loop or two pairs are equal
    if loops and (a[:loops] == b[:loops]).any():
        return None
    codes = np.minimum(a, b).astype(np.int64)
    codes *= n
    codes += np.maximum(a, b)
    codes.sort()
    return None if (codes[1:] == codes[:-1]).any() else codes


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
    the last one is erased. Above ``2 * _LAZY_PAIRS`` stubs each attempt
    before the last runs on its own generator, seeded from one draw of
    ``rng`` (``seeding.derive_seeds`` over the attempt indices), and is
    revealed lazily, hub first (``_lazy_attempt``): the partners of whole
    vertices' stubs, in groups of vertices in decreasing degree order, until
    the first self-loop or repeated pair. A ZTP(10) attempt at n = 1e5 is
    rejected after revealing a median of ~15.5k of its 1e6 stubs. The
    attempts run in turn on the calling thread, and the first simple one
    wins. Every other attempt, the last one included, is one whole
    permutation drawn from ``rng``: the stubs are copied into one buffer and
    shuffled in place, which draws exactly what ``rng.permutation(stubs)``
    draws, and only an attempt without a self-loop, or the last one, builds
    its pair codes. Attempts stay independent uniform matchings accepted iff
    simple, so the graph and ``meta`` have the law of redrawing whole
    matchings, though above ``2 * _LAZY_PAIRS`` stubs not the same stream.
    There a build whose lazy attempts are all rejected, as ZTP(10) and
    Pareto builds essentially always are, draws its last attempt from
    ``rng`` right after the seed, so its graph, ``meta`` and the
    generator's state do not depend on how the lazy attempts are drawn. At
    or below that size, and with one attempt, no attempt seed is drawn, and
    the graph, ``meta`` and the generator's state are exactly those of
    drawing every attempt with ``rng.permutation``.
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

    n_pairs = int(d.sum()) // 2
    codes = None
    # attempts on their own streams: all but the last above 2 * _LAZY_PAIRS stubs
    lazy = max_attempts - 1 if n_pairs > _LAZY_PAIRS else 0
    if lazy:
        seed = int(rng.integers(2**64, dtype=np.uint64))
        words = seed_words(derive_seeds(seed, last=np.arange(lazy)))
        hub, ends = _hub_first(d)
        matched = np.zeros(hub.size, dtype=bool)
        for attempts in range(1, lazy + 1):
            codes = _lazy_attempt(hub, ends, matched, n, rng_from_words(words[attempts - 1]))
            if codes is not None:
                break
        del hub, matched  # before the last attempt's stub buffers
    if codes is None:
        stubs = np.repeat(np.arange(n, dtype=np.int64), d)
        perm = np.empty_like(stubs)
        a, b = perm[0::2], perm[1::2]
        for attempts in range(lazy + 1, max_attempts + 1):
            perm[:] = stubs
            rng.shuffle(perm)
            if attempts < max_attempts and (a == b).any():
                continue
            codes = _pair_codes(a, b, n)
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
