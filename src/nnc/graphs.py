"""Simple undirected graphs, degree-law samplers, and contact-data ingestion.

Vertices are dense 0-based indices; labelled inputs are mapped to indices in
first-seen order. Graphs are immutable once built: the sorted edge arrays are
their only storage, kept read-only, so memory grows with n + m and never with
the n^2 vertex pairs.
"""
from __future__ import annotations

import csv
import functools
import math
from contextlib import nullcontext
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
    """Malformed edge-list, contact-round, outcome-table or degree file; the
    message names the line, after the file when it was read from a path."""


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
# a lazy attempt's Generator.hypergeometric draws take fewer than 10^9 slots
# (pairs of unmatched stubs), so its matching holds fewer than 2 * _MAX_SLOTS
_MAX_SLOTS = 10**9
# a lazy attempt's first group of vertices holds at least N // _FIRST_GROUP
# of the N stubs (and at least one vertex), and each later group at least
# twice as many as the one before. Rejected ZTP(10) attempts at 2e5 and 1e6
# stubs took 0.38 and 1.56 ms at N // 64, 0.31 and 1.23 ms at N // 128, and
# 0.36 and 1.25 ms at N // 256 (one process, best of three passes)
_FIRST_GROUP = 128
# whole-permutation attempts after the first are drawn in batches, the rows
# of one block of at most _BATCH_ENTRIES stubs (512 KiB) drawn by one
# Generator.permuted call. Drawing each attempt on its own took four short
# numpy calls, each of which releases and retakes the GIL. A batch that wins
# before its last row draws its rows up to the win again, so a batch is
# sized to hold a simple matching with a chance of at most about
# _BATCH_WIN_SHARE
_BATCH_ENTRIES = 2**16
_BATCH_WIN_SHARE = 0.02


def _batch_rows(d: np.ndarray, stubs: int, attempts: int) -> int:
    # attempts drawn per batch of a matching of the degrees d (stubs of
    # them): as many as fit _BATCH_ENTRIES, but no more than the attempts
    # left, nor than floor(_BATCH_WIN_SHARE / q) with q = exp(-nu/2 - nu^2/4)
    # Janson's estimate that a matching is simple, nu = sum d(d-1) / sum d.
    # The Pareto laws of the tests and the benchmark have q below 5e-5 (50
    # degree sequences each), so their batches are full blocks
    cap = min(_BATCH_ENTRIES // stubs, attempts)
    if cap < 2:
        return 1
    nu = float(d @ d) / stubs - 1
    simple = math.exp(-nu / 2 - nu * nu / 4)
    return cap if cap * simple <= _BATCH_WIN_SHARE else max(1, int(_BATCH_WIN_SHARE / simple))


def _pair_codes(a: np.ndarray, b: np.ndarray, n: int, loops: bool) -> np.ndarray:
    # sorted distinct codes lo * n + hi of the pairs (a[k], b[k]) that are
    # not self-loops (when ``loops`` is false, none is); the matching is
    # simple iff there are len(a) of them
    codes = np.minimum(a, b)
    codes *= n
    codes += np.maximum(a, b)
    if loops:
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


def _slot_pairs(rng: np.random.Generator, u: int, s: int) -> int:
    # how many of the h = u / 2 slots (2j, 2j + 1) hold two of s uniform
    # distinct positions in [0, u) (u even), drawn exactly:
    # P(k) = C(h, k) C(h - k, s - 2k) 2^(s - 2k) / C(u, s). The count e of
    # even positions is hypergeometric, and given e the slots of the evens
    # and of the s - e odds are independent uniform subsets, so k, the slots
    # both hold, is hypergeometric too. numpy takes h below 10^9
    h = u // 2
    e = int(rng.hypergeometric(h, h, s))
    return int(rng.hypergeometric(e, h - e, s - e)) if 0 < e < s else 0


def _outside(rng: np.random.Generator, lo: int, size: int, count: int,
             matched: np.ndarray, mark: int, index_type) -> np.ndarray:
    # ``count`` stubs drawn in order from the unmatched ones in [lo, size)
    # (those not marked ``mark`` in ``matched``; 0 is no attempt's mark), a
    # uniform ordered sample, each then marked. A batch draws the count
    # still missing uniformly with replacement and keeps, in draw order, the
    # unmatched stubs it draws exactly once; a sorted copy finds the
    # repeats. Which draws are kept depends only on which of them are equal
    # or hit a matched stub, never on their values, so the kept stubs are
    # uniform
    taken = [np.empty(0, dtype=index_type)]
    while count:
        idx = rng.integers(lo, size, count, dtype=index_type)
        idx = idx[matched[idx] != mark]
        matched[idx] = mark
        ordered = np.sort(idx)
        repeated = ordered[1:] == ordered[:-1]
        if repeated.any():
            matched[ordered[1:][repeated]] = 0
            idx = idx[matched[idx] == mark]
        taken.append(idx)
        count -= idx.size
    return np.concatenate(taken)


def _lazy_attempt(hub: np.ndarray, ends: list, matched: np.ndarray, mark: int, n: int,
                  rng: np.random.Generator):
    """One uniform stub matching revealed hub first: its sorted pair codes
    when it is simple, else None as soon as it shows a self-loop or a
    repeated pair.

    ``hub`` and ``ends`` are ``_hub_first``'s, ``n`` the vertex count, and
    ``matched`` one entry per stub, none of them ``mark``: the attempt sets
    each stub it draws as a partner from outside a group to ``mark`` and
    leaves it so. Group by group, with u stubs unmatched, the group's
    unmatched stubs S (s of them) get their partners. In a uniform order of
    the u stubs, each paired with the stub at its neighbouring position (2j
    with 2j + 1), S takes s uniform distinct positions, and the number k of
    pairs inside S is the number of slots that hold two of them; k is drawn
    from that law (``_slot_pairs``). A uniform ordered sample of 2k stubs of
    S is paired in turn, and the other stubs of S, in order, with a uniform
    ordered sample of the unmatched stubs outside S. That is the law of a
    uniform matching's pairs at S given the pairs revealed before, and which
    stubs are revealed next depends only on those, so the whole is a uniform
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
    lo, u = 0, size
    for hi in ends:
        group = hub[lo:hi][matched[lo:hi] != mark]
        s = group.size
        if 4 * s > u:
            break
        if s:
            k = _slot_pairs(rng, u, s)
            out = _outside(rng, hi, size, s - 2 * k, matched, mark, index_type)
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
        if (codes := _rest_codes(hub[lo:][matched[lo:] != mark], n, rng)) is None:
            return None
        parts.append(codes)
    return np.sort(np.concatenate(parts))


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
    positive integer (not a bool), and the degrees integers: whole floats
    pass, but bools (one among ints in a list or tuple too), strings and
    fractions are refused.

    The chance that a matching is simple falls like exp(-nu/2 - nu^2/4) with
    nu = E[d(d-1)]/E[d] (Janson, CPC 2009), so degree laws such as ZTP(10)
    or the school Pareto essentially never yield one: all attempts run and
    the last one is erased. Above ``2 * _LAZY_PAIRS`` stubs each attempt
    before the last runs on its own generator, seeded from one draw of
    ``rng`` (``seeding.derive_seeds`` over the attempt indices), and is
    revealed lazily, hub first (``_lazy_attempt``): the partners of whole
    vertices' stubs, in groups of vertices in decreasing degree order, until
    the first self-loop or repeated pair. A ZTP(10) attempt at n = 1e5 is
    rejected after revealing a median of ~15.5k of its 1e6 stubs. Each
    group's count of pairs inside it is drawn from its hypergeometric law,
    and numpy's ``Generator.hypergeometric`` takes fewer than 10^9 slots, so
    a lazy build of 2e9 stubs or more is refused with a ``ValueError``. The
    attempts run in turn on the calling thread, and the first simple one
    wins. Every other attempt, the last one included, is one whole
    permutation drawn from ``rng``, exactly what ``rng.permutation(stubs)``
    draws. The first is drawn alone, the others in batches: each batch
    copies the stubs into the rows of one block and draws them all with one
    ``Generator.permuted`` call, which draws each row as a shuffle of it
    would (``_batch_rows`` sizes the batches from Janson's estimate: full
    blocks for heavy-tailed laws, one row for mostly simple ones). One
    comparison finds the rows with a self-loop, and only a row without one,
    or the last attempt, builds its pair codes. When a batch's first simple
    matching is not its last row, the generator's state from before the
    batch is restored and only the rows up to it are drawn again, so the
    generator ends where drawing attempt by attempt leaves it. Attempts
    stay independent uniform matchings accepted iff simple, so the graph
    and ``meta`` have the law of redrawing whole matchings, though above
    ``2 * _LAZY_PAIRS`` stubs not the same stream.
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
    d = np.asarray(degrees)
    n = d.size
    if n == 0:
        raise ValueError("degree sequence is empty")
    # int64 would truncate 2.7 to 2 and take True and "2" for numbers; a
    # list or tuple that mixes bools with ints converts to int64, so its
    # elements are checked one by one
    kind = d.dtype
    if isinstance(degrees, (list, tuple)) and any(
            isinstance(v, (bool, np.bool_)) for v in degrees):
        kind = np.dtype(bool)
    if kind.kind not in "iu" and (kind.kind != "f" or (d != np.round(d)).any()):
        raise ValueError(f"degrees must be integers, got {kind} values")
    if d.min() < 1 or d.max() > n - 1:
        raise ValueError("each degree must lie in [1, n-1]")
    d = d.astype(np.int64)

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
        if n_pairs >= _MAX_SLOTS:
            raise ValueError(f"stub matching of {2 * n_pairs} stubs is too large: "
                             f"at most {2 * _MAX_SLOTS - 2} are drawn lazily")
        seed = int(rng.integers(2**64, dtype=np.uint64))
        words = seed_words(derive_seeds(seed, last=np.arange(lazy)))
        hub, ends = _hub_first(d)
        # each attempt marks the stubs it draws as outside partners with its
        # own index, 1 to lazy, so no attempt resets the marks of another
        matched = np.zeros(hub.size, dtype=np.min_scalar_type(lazy))
        for attempts in range(1, lazy + 1):
            rng_attempt = rng_from_words(words[attempts - 1])
            codes = _lazy_attempt(hub, ends, matched, attempts, n, rng_attempt)
            if codes is not None:
                break
        del hub, matched  # before the last attempt's stub buffers
    if codes is None:
        stubs = np.repeat(np.arange(n, dtype=np.int64), d)
        block = np.empty((1, stubs.size), dtype=np.int64)
        row = rows = 0  # the batch's rows taken, and drawn
        for attempts in range(lazy + 1, max_attempts + 1):
            if row == rows:
                if attempts == lazy + 2:
                    # the first attempt, drawn alone, was not simple. Most
                    # builds of a mostly simple law end there, without the
                    # estimate's pass over the degrees
                    block = np.empty((_batch_rows(d, stubs.size, max_attempts + 1 - attempts),
                                      stubs.size), dtype=np.int64)
                rows = min(len(block), max_attempts + 1 - attempts)
                state = rng.bit_generator.state if rows > 1 else None
                batch = block[:rows]
                batch[:] = stubs
                rng.permuted(batch, axis=1, out=batch)
                a, b = batch[:, 0::2], batch[:, 1::2]
                loops = (a == b).any(axis=1).tolist()
                row = 0
            row += 1
            if attempts < max_attempts and loops[row - 1]:
                continue
            codes = _pair_codes(a[row - 1], b[row - 1], n, loops[row - 1])
            if codes.size == n_pairs:
                break
        if row < rows:
            # a win before the batch's last row: leave the generator where
            # drawing only up to it leaves it
            rng.bit_generator.state = state
            rng.permuted(block[:row], axis=1, out=block[:row])
    meta["matching_attempts"] = attempts
    meta["erased_stub_count"] = int(2 * (n_pairs - codes.size))
    return Graph._from_codes(n, codes, meta=meta)


# -- edge-list and contact-round ingestion --------------------------------

Source = Union[str, Path, IO[str]]


def _rows(source: Source) -> Iterator[tuple[int, list[str]]]:
    # (line number, fields) of each CSV record of a path or an open text
    # stream, numbered by the line it ends on; a record the csv module refuses
    # names its line. utf-8-sig drops a byte-order mark before the header
    stream = hasattr(source, "read")
    with nullcontext(source) if stream else open(source, encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            for fields in reader:
                yield reader.line_num, fields
        except csv.Error as exc:
            raise EdgeListError(f"line {reader.line_num}: {exc}") from None


def _names_its_file(load):
    # ``load(source)``, whose EdgeListError starts "<path>: " when source is
    # a path; a stream's keeps its message
    @functools.wraps(load)
    def named(source: Source):
        try:
            return load(source)
        except EdgeListError as exc:
            if hasattr(source, "read"):
                raise
            raise EdgeListError(f"{source}: {exc}") from None
    return named


def _records(source: Source, header: Sequence[str]) -> Iterator[tuple[int, list[str]]]:
    """(line number, fields) of each non-empty record of ``source`` after ``header``.

    A first line other than ``header`` (each field stripped) or a line with
    another number of fields raises ``EdgeListError`` naming the line.
    """
    rows = _rows(source)
    _, first = next(rows, (1, None))
    if first is None or [c.strip() for c in first] != list(header):
        raise EdgeListError(f"line 1: expected header {','.join(header)!r}")
    for lineno, fields in rows:
        if not fields:
            continue
        if len(fields) != len(header):
            raise EdgeListError(f"line {lineno}: expected {len(header)} fields, got {len(fields)}")
        yield lineno, fields


def _parse_pair(fields, labels: dict, lineno: int) -> tuple[int, int]:
    a, b = fields[0].strip(), fields[1].strip()
    if not a or not b:
        raise EdgeListError(f"line {lineno}: empty node label")
    if a == b:
        raise EdgeListError(f"line {lineno}: self-edge {a!r}")
    return labels.setdefault(a, len(labels)), labels.setdefault(b, len(labels))


@_names_its_file
def load_edge_list(source: Source) -> Graph:
    """Read an undirected edge list with header ``node_a,node_b``.

    Labels map to dense indices in first-seen order; duplicate and reversed
    pairs collapse to one edge. A header-only stream yields the empty graph.
    """
    labels: dict[str, int] = {}
    ei: list[int] = []
    ej: list[int] = []
    for lineno, fields in _records(source, ("node_a", "node_b")):
        a, b = _parse_pair(fields, labels, lineno)
        ei.append(a)
        ej.append(b)
    # Graph orders each pair, sorts the pairs and drops the repeats
    return Graph(len(labels), ei, ej, labels=tuple(labels))


@_names_its_file
def load_rounds(source: Source) -> list[Graph]:
    """Read multi-round contact data with header ``round,node_a,node_b``.

    One ``Graph`` per round, in increasing round order, with the round id in
    ``meta["round"]``. The rounds share one label tuple, in first-seen order
    over the whole file, so their edge codes compare directly.
    """
    labels: dict[str, int] = {}
    by_round: dict[int, list[tuple[int, int]]] = {}
    for lineno, fields in _records(source, ("round", "node_a", "node_b")):
        try:
            rid = int(fields[0].strip())
        except ValueError:
            raise EdgeListError(f"line {lineno}: round {fields[0]!r} is not an integer") from None
        if rid < 1:
            raise EdgeListError(f"line {lineno}: round must be a positive integer")
        by_round.setdefault(rid, []).append(_parse_pair(fields[1:], labels, lineno))
    names = tuple(labels)
    return [
        Graph(len(names), *zip(*by_round[r]), labels=names, meta={"round": r})
        for r in sorted(by_round)
    ]


@_names_its_file
def _load_degrees(source: Source) -> list[int]:
    # the degree file of ``nnc bias-theory``: one integer per non-blank line
    degrees = []
    for lineno, fields in _rows(source):
        if text := ",".join(fields).strip():
            try:
                degrees.append(int(text))
            except ValueError:
                raise EdgeListError(f"line {lineno}: degree must be an integer, "
                                    f"got {text!r}") from None
    return degrees


def build_true_graph_from_rounds(rounds: Sequence[Graph], min_count: int = 2) -> Graph:
    """Graph whose edges are the pairs seen in at least ``min_count`` rounds.

    ``rounds`` share one vertex count and label tuple, as ``load_rounds``'s
    do, or are refused. A round holds each pair once, so a pair's count is
    its run length in the sorted codes of all rounds.
    """
    if min_count < 1:
        raise ValueError("min_count must be at least 1")
    if not rounds:
        raise ValueError("need at least one round")
    n_v, labels = rounds[0].n_v, rounds[0].labels
    if any(g.n_v != n_v or g.labels != labels for g in rounds):
        raise ValueError("rounds must share their vertex count and labels")
    codes = np.sort(np.concatenate([g.codes for g in rounds]))
    starts = np.flatnonzero(np.diff(codes, prepend=-1))  # codes are nonnegative
    runs = np.diff(starts, append=codes.size)
    return Graph._from_codes(n_v, codes[starts[runs >= min_count]], labels=labels)


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
