"""Scenario orchestration: replicated observation, rate fitting, estimation,
and bootstrap summaries, all reproducible from one master seed.

Per-trial randomness comes from an independent PCG64 stream seeded by an
avalanche mix of (master_seed, trial index). The seed words of every
trial's stream are hashed once per experiment, as arrays
(``seeding.seed_words``); each stream equals ``make_rng(master_seed,
_TRIAL_STREAM, t)`` bit for bit. The bootstrap draws one set of
resamples per experiment from its own mix domain, and every summary column
(estimator x level, mean and SD) is read off those same resamples.
Every run is cut into ranges of one size k, fixed up front from the fixed
graph or from trial 0's graph, and each range is one block: a short
per-trial loop makes each trial's draws (its graph first, when every trial
draws its own), and everything after the draws runs once per block on
arrays keyed by (trial, replicate), computing only what the rate fit and
the estimators read. A fixed graph's trials all search its one non-edge
table; when every trial draws its own graph, each has its own table. The
ranges run through the standard library's ``ThreadPoolExecutor.map``, on
one thread per usable CPU, when one trial of the fixed graph fills a
block of ``_BLOCK_ENTRIES`` entries, or when trial 0's graph has at least
``_THREADED_BUILD_STUBS`` stubs (regenerating); otherwise they run through
the builtin ``map`` on the caller's thread. A regenerating range builds
its graphs where it runs, and a build runs its stub-matching attempts in
turn on that thread. Results are written back in trial order, so outputs
do not depend on k or on the thread count.
"""
from __future__ import annotations

import itertools
import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, dataclass, fields
from numbers import Integral, Real
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .estimators import (
    MIXING_MODES,
    MixingRule,
    OutcomeTable,
    _ht_means,
    _mme_means,
    load_outcome_table,
)
from .exposure import (
    LEVEL_NAMES,
    _level_probabilities,
    _levels,
    _treated_counts,
)
from .graphs import (
    Graph,
    ParetoExpCutoff,
    ZeroTruncatedPoisson,
    build_graph_configuration,
    build_true_graph_from_rounds,
    load_edge_list,
    load_rounds,
    sample_degree_sequence,
)
from .noise import (
    NoiseParams,
    _batch_ranks,
    _draw_observations,
    _nonedge_pairs,
    _nonedges_before,
    _pair_count,
)
from .noise_fit import (
    FIT_CONVERGED,
    FIT_DEGENERATE,
    FIT_DIVERGED,
    FIT_UNCONVERGED,
    RateFits,
    _fit_rates,
    _missed_counts,
    _replicate_moments,
)
from .seeding import derive_seeds, make_rng, rng_from_words, seed_words

# The per-graph forms of the block kernels, which the trial loop does not
# call. perfbench/tracing.py wraps its targets as module globals of this
# module, so these stay importable from here.
from .estimators import ht_estimate, mme_estimate, realize_outcomes  # noqa: F401
from .exposure import assign_treatment  # noqa: F401
from .noise import replicate  # noqa: F401
from .noise_fit import fit_alpha_beta, moment_stats  # noqa: F401

ESTIMATOR_NAMES = ("HT_true", "AS_noisy", "MME")
# every tuple of distinct estimator names, so that one lookup checks a
# configuration's; a regenerating run's whole set-up is building one
_ESTIMATOR_LISTS = frozenset(itertools.chain.from_iterable(
    itertools.permutations(ESTIMATOR_NAMES, k) for k in range(len(ESTIMATOR_NAMES) + 1)))

# seed-mix domains
_GRAPH_STREAM = 1
_TRIAL_STREAM = 2
_BOOT_STREAM = 3
_PERTURB_STREAM = 4  # ``nnc perturb``; never the generator's stream at the same seed

# entries of one block of the shared bootstrap's count matrix (1 MB of float64)
_BOOT_BLOCK_ENTRIES = 2**17
# entries (3 observations x (true edges + vertices) per trial) of one block of
# trials: about 75 trials of the 115-vertex school graph (a traced peak of
# about 2.5 MiB), one of a 1e5-vertex one. On a 2-core machine a 300-trial
# school experiment took a median 36.4 ms at 2**16, 32.6 ms at 2**17 and
# 33.6 ms at 2**18 (80 interleaved runs each). A fixed graph's blocks run on
# several threads when one trial fills a block (holds more than 2**16
# entries). A block's numpy kernels release the GIL, but its per-trial
# Python loop does not. On a 2-core machine, two threads against one (median
# of 6 alternating experiments) ran a ZTP(10) graph 0.75x as fast at 1e3
# vertices (7 trials a block), 1.01x at 3e3 (2), 1.03x at 7e3 (1), 1.58x at
# 2e4 and 1.98x at 1e5; the 115-vertex school graph (75 trials a block) 0.93x
_BLOCK_ENTRIES = 2**17
# stubs (2m) of a regenerating run's trial 0 graph from which its ranges run
# on several threads. Stub matching's shuffles release the GIL, but its
# Python code and a block's per-trial loop do not. On a 2-core machine,
# whole 61-trial experiments took this share of their in-turn time on two
# threads (median of 16 alternating pairs in one process, two passes; pairs
# where threads won): 0.99 (10/16) and 1.02 (6/16) for the 115-vertex school
# law (956 stubs), 0.68 (15/16) and 0.66 (16/16) at 1,637 stubs and 0.62 and
# 0.65 (16/16 each) at 2,724 (the benchmark's Pareto law at n = 300 and
# 500). Drawing each attempt on its own, before attempts were batched, read
# 1.01, 0.81 and 0.77 in the same session, and earlier 1.25-1.76 at 224-526
# mean stubs, 0.97 and 1.19 at 790 and 0.81 at 1,066
_THREADED_BUILD_STUBS = 1000
# the names of the range threads start with this
_THREAD_PREFIX = "nnc-range"


def _usable_cpus() -> int:
    # the CPUs this process may run on; all of them where there is no
    # affinity mask (macOS)
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class ExperimentError(RuntimeError):
    """The run as a whole is unusable (e.g. too many failed trials)."""


@dataclass
class ExperimentConfig:
    """Everything needed to reproduce one experiment.

    ``graph`` is either an in-memory ``Graph`` or a JSON-style dict:
    ``{"source": "generate", "kind": "ztp"|"pareto", ...}``,
    ``{"source": "edge_list", "path": ...}`` or
    ``{"source": "rounds", "path": ..., "min_count": 2}``.
    ``outcomes`` is four per-level constants or a path to a per-vertex CSV.
    """

    graph: Graph | dict
    alpha: float
    beta: float
    p: float
    outcomes: Sequence[float] | str = (10.0, 7.0, 5.0, 1.0)
    noise_known: bool = False
    trials: int = 10_000
    bootstrap_b: int = 1_000
    bootstrap_level: float = 0.95
    mixing: str = "sparse_fallback"
    master_seed: int = 0
    estimators: tuple[str, ...] = ESTIMATOR_NAMES
    regenerate_graph: bool = False

    def __post_init__(self):
        self.estimators = tuple(self.estimators)
        try:
            listed = self.estimators in _ESTIMATOR_LISTS
        except TypeError:  # an unhashable name
            listed = False
        if not listed:
            # the names' types are checked only here: checking them before the
            # lookup would add ~0.6 us to a regenerating run's set-up, 1/6 of it
            if named := [e for e in self.estimators if not isinstance(e, str)]:
                raise ValueError(f"estimator names must be strings, got {named!r}")
            if unknown := set(self.estimators).difference(ESTIMATOR_NAMES):
                raise ValueError(f"unknown estimators: {sorted(unknown)}")
            repeated = {e for e in self.estimators if self.estimators.count(e) > 1}
            raise ValueError(f"estimators must not repeat: {sorted(repeated)}")
        if self.mixing not in MIXING_MODES:
            raise ValueError(f"mixing must be one of {MIXING_MODES}")
        self._check_field_types()
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.bootstrap_b < 1:
            raise ValueError("bootstrap_b must be at least 1")
        if not (0.0 < self.bootstrap_level < 1.0):
            raise ValueError("bootstrap_level must lie in (0, 1)")
        if not (0.0 < self.p < 1.0):
            raise ValueError("treatment probability must lie in (0, 1)")
        self.noise = NoiseParams(self.alpha, self.beta)
        if "MME" in self.estimators and self.noise_known and not self.noise.identifiable:
            raise ValueError("known-rate correction needs alpha + beta < 1")
        if self.regenerate_graph:
            if not (isinstance(self.graph, dict) and self.graph.get("source") == "generate"):
                raise ValueError("regenerate_graph needs a generator graph source")
            if isinstance(self.outcomes, str):
                raise ValueError("regenerate_graph needs constant outcomes")

    def _check_field_types(self):
        # a JSON file can carry the wrong type: "false" is a truthy string,
        # and a bool passes as an int or a real number. Plain ints, floats
        # and bools pass on one expression, because a regenerating run's
        # whole set-up is building this configuration; anything else is
        # checked field by field (numpy's numbers pass, and every number is
        # stored as a built-in int or float, which the sidecar can write)
        plain_real = (int, float)
        if (type(self.trials) is type(self.bootstrap_b) is type(self.master_seed) is int
                and type(self.noise_known) is type(self.regenerate_graph) is bool
                and type(self.alpha) in plain_real and type(self.beta) in plain_real
                and type(self.p) in plain_real and type(self.bootstrap_level) in plain_real):
            return
        for names, kind, label in (
            (("trials", "bootstrap_b", "master_seed"), Integral, "an integer"),
            (("alpha", "beta", "p", "bootstrap_level"), Real, "a real number"),
            (("noise_known", "regenerate_graph"), bool, "true or false"),
        ):
            for name in names:
                value = getattr(self, name)
                if not isinstance(value, kind) or isinstance(value, bool) != (kind is bool):
                    raise ValueError(f"{name} must be {label}, not {value!r}")
                if kind is not bool:
                    setattr(self, name, int(value) if isinstance(value, Integral)
                            else float(value))

    @classmethod
    def from_json(cls, source) -> "ExperimentConfig":
        if isinstance(source, (str, Path)):
            # utf-8-sig drops a leading byte-order mark, as some editors write
            with open(source, "r", encoding="utf-8-sig") as fh:
                data = json.load(fh)
        else:
            data = dict(source)
        if not isinstance(data, dict):
            raise ValueError("config must be a JSON object")
        unknown = sorted(data.keys() - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(map(repr, unknown))}")
        missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in data]
        if missing:
            raise ValueError(f"config lacks the keys: {', '.join(map(repr, missing))}")
        if "outcomes" in data and isinstance(data["outcomes"], list):
            data["outcomes"] = tuple(data["outcomes"])
        # a string would pass as its letters, a number fails inside tuple()
        names = data.get("estimators", [])
        if not (isinstance(names, list) and all(isinstance(x, str) for x in names)):
            raise ValueError(f"estimators must be a list of names, not {names!r}")
        return cls(**data)

    def echo(self) -> dict:
        """JSON-serializable copy of the configuration, one key per field."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        if isinstance(self.graph, Graph):
            g = self.graph
            out["graph"] = {"source": "in_memory", "n_v": g.n_v, "n_edges": g.n_edges}
        else:
            out["graph"] = dict(self.graph)
        if not isinstance(self.outcomes, str):
            # numpy's numbers as built-in ones, which the sidecar can write
            out["outcomes"] = [x.item() if isinstance(x, np.generic) else x
                               for x in self.outcomes]
        out["estimators"] = list(self.estimators)
        return out


def _spec_value(spec: dict, key: str):
    # a graph spec comes from a config file, so a missing key is bad input
    if key not in spec:
        raise ValueError(f"graph spec needs the key {key!r}")
    return spec[key]


def _spec_number(spec: dict, key: str, kind: type, default=None):
    # the key's value as an int or float; a value that is not one names the key
    value = _spec_value(spec, key) if default is None else spec.get(key, default)
    try:
        # JSON's true and false would pass as 1 and 0
        if isinstance(value, (bool, np.bool_)):
            raise ValueError
        number = kind(value)
        # int() truncates, so a non-integral number is refused; 50.0 and "50" pass
        if kind is int and isinstance(value, Real) and number != value:
            raise ValueError
    except (TypeError, ValueError, OverflowError):
        label = "an integer" if kind is int else "a number"
        raise ValueError(f"graph spec key {key!r} must be {label}, got {value!r}") from None
    return number


def _build_generated_graph(spec: dict, rng: np.random.Generator) -> Graph:
    kind = spec.get("kind")
    n_v = _spec_number(spec, "n_v", int)
    if kind == "ztp":
        dist = ZeroTruncatedPoisson(_spec_number(spec, "mean_degree", float))
    elif kind == "pareto":
        dist = ParetoExpCutoff(
            rate=_spec_number(spec, "rate", float),
            shape=_spec_number(spec, "shape", float),
            lower=_spec_number(spec, "lower", float),
            upper=_spec_number(spec, "upper", float, n_v - 1),
        )
    else:
        raise ValueError(f"unknown generator kind {kind!r}")
    degrees = sample_degree_sequence(dist, n_v, rng)
    return build_graph_configuration(degrees, rng)


def resolve_graph(spec: Graph | dict) -> Graph:
    """Materialize the configured true graph."""
    if isinstance(spec, Graph):
        return spec
    if not isinstance(spec, dict):
        raise ValueError(f"graph must be an object, not {spec!r}")
    source = spec.get("source")
    if source == "generate":
        rng = make_rng(_spec_number(spec, "seed", int, 0), _GRAPH_STREAM)
        return _build_generated_graph(spec, rng)
    if source == "edge_list":
        return load_edge_list(_spec_value(spec, "path"))
    if source == "rounds":
        rounds = load_rounds(_spec_value(spec, "path"))
        return build_true_graph_from_rounds(rounds, _spec_number(spec, "min_count", int, 2))
    raise ValueError(f"unknown graph source {source!r}")


def _resolve_outcomes(cfg: ExperimentConfig, n_v: int) -> OutcomeTable:
    if isinstance(cfg.outcomes, str):
        table = load_outcome_table(cfg.outcomes)
        if table.n_v != n_v:
            raise ValueError("outcome table size does not match the graph")
        return table
    return OutcomeTable.constant(n_v, cfg.outcomes)


def _mixing_rule(cfg: ExperimentConfig) -> MixingRule:
    if cfg.mixing == "order_of_magnitude":
        return MixingRule.order_of_magnitude(cfg.p)
    return MixingRule.sparse_fallback()


class _Draws(NamedTuple):
    """The random draws of a block of consecutive trials, in trial order.

    ``graphs`` holds each trial's true graph. Trials sit end to end:
    ``missed[r]`` flags the true edges that replicate r missed, and ``z``
    the treated vertices, at t * n + v. ``gaps[r * T + t]``, for a block of
    T trials, holds the Geometric(alpha) gaps that pick the non-edges that
    replicate r of trial t turned on (see ``noise._batch_ranks``):
    replicate 0's of every trial come first.
    """

    graphs: tuple
    missed: np.ndarray
    gaps: list
    z: np.ndarray


def _trial_words(cfg: ExperimentConfig) -> np.ndarray:
    # the seed words of every trial's stream, one (trials, 4) uint64 array:
    # row t seeds the generator ``make_rng(cfg.master_seed, _TRIAL_STREAM, t)``
    return seed_words(derive_seeds(cfg.master_seed, _TRIAL_STREAM, last=np.arange(cfg.trials)))


def _trial(cfg: ExperimentConfig, graph: Graph | None, words: np.ndarray, t: int):
    # trial t's (graph, generator) pair: ``graph`` when every trial shares
    # it; when it is None, a graph the generator draws first, then the rest
    rng = rng_from_words(words[t])
    if graph is None:
        graph = _build_generated_graph(cfg.graph, rng)
    return graph, rng


def _draw_block(cfg: ExperimentConfig, trials) -> _Draws:
    """Draws of a block of trials, from their (graph, generator) pairs.

    ``trials`` yields each trial's graph and generator in trial order
    (``_trial``), and the block takes every pair it yields. Each trial has
    its own stream (``_trial_words``) and keeps its draw order: its graph
    (only when regenerating), then its three replicates' draws
    (``noise._draw_observations``), then the treatment uniforms. The pairs
    are taken first; then the block's arrays are made at their sizes, and
    the loop makes only the replicates' and treatment's generator calls,
    writing into them. The threshold on the treatment uniforms, the gap
    batches' regrouping by replicate, and everything made from the gaps,
    run once per block.
    """
    graphs, rngs = zip(*trials)
    n = graphs[0].n_v
    sizes = [g.n_edges for g in graphs]
    missed = np.empty((3, sum(sizes)), dtype=bool)
    uniforms = np.empty(max(sizes))
    z = np.empty(len(graphs) * n)
    gaps = []
    e = 0
    for t, (rng, m) in enumerate(zip(rngs, sizes)):
        _draw_observations(rng, 3, cfg.noise, _pair_count(n) - m, uniforms[:m],
                           missed[:, e : e + m], gaps)
        rng.random(out=z[t * n : (t + 1) * n])
        e += m
    return _Draws(graphs, missed, gaps[0::3] + gaps[1::3] + gaps[2::3], z < cfg.p)


class _Layout(NamedTuple):
    """Where a block's trials sit in its arrays, and their true graphs there.

    Trial t's vertex v sits at t * n + v. Its ``n_true[t]`` true edges
    follow the earlier trials' in ``src``/``dst`` (endpoints already at
    t * n + v), and ``degrees`` holds the true degrees at t * n + v. Trials
    sit one after another, so the first k trials' part of these is a prefix
    (``head``). The non-edge tables (``noise._nonedges_before``) are one per
    graph, not per trial: trials that share one graph, as a fixed graph's
    do, share its one table, and trials with graphs of their own have one
    table each, table t in ``nonedges_before`` from ``table_start[t]`` on,
    shifted by t * n(n-1)/2.
    """

    n: int
    n_true: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    degrees: np.ndarray
    nonedges_before: np.ndarray
    table_start: np.ndarray

    def head(self, k: int) -> "_Layout":
        """The first ``k`` trials' part, as views; the tables are all kept."""
        e = int(self.n_true[:k].sum())
        return self._replace(n_true=self.n_true[:k], src=self.src[:e], dst=self.dst[:e],
                             degrees=self.degrees[: k * self.n])


def _block_layout(graphs: list) -> _Layout:
    """The layout of trials on ``graphs``, made from the graphs alone.

    A lone trial's arrays are its graph's own, not copies, and so is the
    one table of trials that share one graph.
    """
    n = graphs[0].n_v
    n_true = np.array([g.n_edges for g in graphs], dtype=np.int64)
    tables = graphs[:1] if all(g is graphs[0] for g in graphs) else graphs
    sizes = n_true[: len(tables)]
    return _Layout(
        n, n_true,
        _end_to_end([g.edge_i for g in graphs], n_true, n),
        _end_to_end([g.edge_j for g in graphs], n_true, n),
        _end_to_end([g.degrees for g in graphs]),
        _end_to_end([_nonedges_before(g) for g in tables], sizes, _pair_count(n)),
        np.cumsum(sizes) - sizes,
    )


def _end_to_end(parts: list, sizes=None, step: int = 0) -> np.ndarray:
    # the parts laid end to end, part t's ``sizes[t]`` entries each raised by
    # t * step; a lone part is used as it is
    if len(parts) == 1:
        return parts[0]
    out = np.concatenate(parts)
    if step:
        out += np.repeat(np.arange(0, step * len(parts), step), sizes)
    return out


class _Changes(NamedTuple):
    """What a block's replicates changed in their trials' true graphs.

    ``lay`` is the block's part of the layout: views of the experiment's
    layout when the graph is fixed, or the block's own layout when the
    trials regenerate their graphs. Every other field is the block's own and
    is released with it. The true edges the replicates missed have the ends
    (``miss_i``, ``miss_j``) and the false edges they turned on the ends
    (``false_i``, ``false_j``), all at t * n + v, and the codes ``false``
    (t * P + the non-edge's rank in trial t, P = n(n-1)/2). Both kinds come
    replicate by replicate: replicate 0's missed edges are the first
    ``missed_0``, and its false edges the first ``gained[0].sum()``, where
    ``gained[r, t]`` counts replicate r's false edges in trial t.
    ``false_rep`` names each false edge's replicate, in int8, which keeps a
    block's peak low.
    """

    lay: _Layout
    miss_i: np.ndarray
    miss_j: np.ndarray
    missed_0: int
    false: np.ndarray
    false_rep: np.ndarray
    false_i: np.ndarray
    false_j: np.ndarray
    gained: np.ndarray


def _replicate_changes(draws: _Draws, layout: _Layout) -> _Changes:
    """Missed and false edges of every replicate of a block, at once.

    ``layout`` holds the block's trials first (``_Layout.head``). Each false
    edge's rank is searched in its trial's graph's non-edge table only. Each
    count is taken where it is drawn: replicate 0's missed edges from its
    flags, and the false edges per replicate and trial from the draw that
    ``_batch_ranks`` names for each.
    """
    n_t = len(draws.graphs)
    lay = layout.head(n_t)
    n = lay.n
    missed = [np.flatnonzero(flags) for flags in draws.missed]
    missed_0 = missed[0].size
    missed = np.concatenate(missed)
    miss_i, miss_j = lay.src[missed], lay.dst[missed]
    del missed
    false, draw = _batch_ranks(draws.gaps, np.tile(_pair_count(n) - lay.n_true, 3))
    # draw r * T + t; a lone trial's draw is its replicate, and its row is 0
    gained = np.bincount(draw, minlength=3 * n_t).reshape(3, n_t)
    false_rep, false_row = np.divmod(draw, n_t) if n_t > 1 else (draw, 0)
    false_rep = false_rep.astype(np.int8)
    del draw
    # trial t searches table t, or the one table that every trial shares
    false_i, false_j = _nonedge_pairs(
        false, false_row if lay.table_start.size > 1 else 0, lay.nonedges_before,
        lay.table_start, n,
    )
    if n_t > 1:
        shift = false_row * n
        false_i += shift
        false_j += shift
        shift = false_row * _pair_count(n)
        false += shift
        del shift
    del false_row
    return _Changes(lay, miss_i, miss_j, missed_0, false, false_rep, false_i, false_j, gained)


def _observed_degrees(ch: _Changes) -> tuple[np.ndarray, np.ndarray]:
    """Replicate 0's observed degrees and the sum of all three replicates',
    at t * n + v: each true degree, less the missed edges, plus the false
    ones. The sum is exact, so a third of it is the mean degree to the bit."""
    lay = ch.lay
    size = lay.degrees.size
    m0, f0 = ch.missed_0, ch.gained[0].sum()

    def change(miss: slice, false: slice) -> np.ndarray:
        # one count per endpoint, so no concatenation of the two
        out = np.bincount(ch.false_i[false], minlength=size)
        out += np.bincount(ch.false_j[false], minlength=size)
        out -= np.bincount(ch.miss_i[miss], minlength=size)
        out -= np.bincount(ch.miss_j[miss], minlength=size)
        return out

    first = change(slice(m0), slice(f0))
    first += lay.degrees
    total = change(slice(m0, None), slice(f0, None))
    total += first
    total += 2 * lay.degrees
    return first, total


def _mean_of_three(deg_sum: np.ndarray) -> np.ndarray:
    # MME's observed degree: a third of the exact three-replicate sum, which
    # is the replicates' mean degree to the bit
    return deg_sum / 3.0


def _run_block(cfg, trials, layout, table: OutcomeTable, rule: MixingRule):
    """Draw a block of ``trials``, then estimate them all at once.

    Per trial there are only the generator calls of ``_draw_block``, which
    takes each trial's graph and generator from ``trials``; the arithmetic
    on their output, from the false-edge ranks on, runs once per block.
    ``layout`` is the fixed graph's layout (``_block_layout``); when the
    trials regenerate their graphs it is None and the block makes its own.
    The replicates are never built as graphs: each is kept as what it
    changed in its trial's true graph (``_replicate_changes``). Each kernel
    computes only what the rate fit and the estimators read: the rate
    fit's presence table counts the true edges by miss pattern straight from
    the replicates' miss flags (``noise_fit._missed_counts``), and only the
    false edges go through the merge of ``noise_fit._presence_table``; of
    the observed degrees only replicate 0's and the three replicates' sum
    are made (``_observed_degrees``), and replicate 0's missed- and
    false-edge ends serve both its degrees and its treated counts. HT_true
    classifies the true graphs and AS_noisy and MME share replicate 0's
    classification and level probabilities. MME takes the integer sum
    itself as each vertex's key (``_mean_of_three`` gives a key's mean
    degree), so no per-vertex mean degree is made, and its
    inverse-confusion entries are made once per (trial, sum) that occurs.
    Returns the block's estimates (NaN for failed fits), its rate fits
    (``RateFits``), its summed MME routing counts and, per estimator and
    level, how many of its kept trials have a level mean with at least one
    term.
    """
    draws = _draw_block(cfg, trials)
    if layout is None:
        layout = _block_layout(draws.graphs)
    ch = _replicate_changes(draws, layout)
    lay = ch.lay
    n_t, n = lay.n_true.size, lay.n
    # the rate fit counts the missed edges from the replicates' flags, before
    # the draws are released
    missed = None if cfg.noise_known else _missed_counts(draws.missed, lay.n_true)
    # of the draws only the treatment flags are used from here on
    z = draws.z
    del draws
    if cfg.noise_known:
        fits = RateFits(
            np.full(n_t, cfg.alpha), np.full(n_t, cfg.beta), np.full(n_t, np.nan),
            np.zeros(n_t, dtype=np.int64), np.full(n_t, FIT_CONVERGED, dtype=np.int8),
        )
    else:
        fits = _fit_rates(*_replicate_moments(missed, ch.gained, ch.false, ch.false_rep, n))

    estimates = np.full((n_t, len(cfg.estimators), 4), np.nan)
    rule_counts = np.zeros(3, dtype=np.int64)
    reached = np.zeros((len(cfg.estimators), 4), dtype=np.int64)
    rows = np.flatnonzero(fits.status <= FIT_UNCONVERGED)
    if not (rows.size and cfg.estimators):
        return estimates, fits, rule_counts, reached
    if rows.size == n_t:
        rows = slice(None)  # every trial is kept: views, not copies
    deg, deg_sum = (d.reshape(n_t, n)[rows] for d in _observed_degrees(ch))
    treated = _treated_counts(z, lay.src, lay.dst)
    lv_true = _levels(z, treated).reshape(n_t, n)[rows]
    # replicate 0: the true graph, less its missed edges, plus its false ones
    m0, f0 = ch.missed_0, ch.gained[0].sum()
    treated -= _treated_counts(z, ch.miss_i[:m0], ch.miss_j[:m0])
    treated += _treated_counts(z, ch.false_i[:f0], ch.false_j[:f0])
    # the replicates' changes are spent
    del ch
    lv_obs = _levels(z, treated).reshape(n_t, n)[rows]
    del z, treated
    # vertex v's outcome at level l is entry 4 v + l of the table
    values = table.values.ravel().take(lv_true + np.arange(0, 4 * n, 4))
    pr_obs = _level_probabilities(deg, lv_obs, cfg.p)
    del deg
    if "MME" not in cfg.estimators:
        del deg_sum
    for e, name in enumerate(cfg.estimators):
        if name == "HT_true":
            d_true = lay.degrees.reshape(n_t, n)[rows]
            pr_true = _level_probabilities(d_true, lv_true, cfg.p)
            means, terms = _ht_means(lv_true, values, pr_true)
            del pr_true
        elif name == "AS_noisy":
            means, terms = _ht_means(lv_obs, values, pr_obs)
        else:
            means, terms, counts = _mme_means(lv_obs, values, pr_obs, deg_sum, _mean_of_three,
                                              cfg.p, fits.alpha_hat[rows], fits.beta_hat[rows],
                                              rule)
            rule_counts += counts.sum(axis=0)
        estimates[rows, e] = means
        reached[e] = np.count_nonzero(terms, axis=0)
    return estimates, fits, rule_counts, reached


def _run_trials(cfg: ExperimentConfig, graph: Graph | None, table: OutcomeTable | None):
    """Run every trial; returns per-trial estimates and bookkeeping.

    Returns (estimates, failed, fits, rule_counts, reached): a (trials,
    estimators, 4) array, the failed-trial flags, every trial's ``RateFits``
    entry (the configured rates and status converged when they are known),
    the summed MME routing counts and, per estimator and level, the number
    of kept trials whose level mean has at least one term. A trial fails
    when its rate fit is degenerate or diverged; its estimates are NaN.

    HT_true classifies the true graph and AS_noisy and MME share replicate
    0's classification and level probabilities. MME's corrected degree is
    the mean observed degree of all three replicates: it has the
    expectation of replicate 0's degree and a third of its variance, and
    the inverse-confusion weights are exponential in it. It is a third of
    the exact three-replicate degree sum, and everything MME derives from
    it is made once per (trial, sum) that occurs (``_mme_means``).

    The trials are cut into ranges of k trials (the last may hold fewer),
    and each range is one block (``_run_block``). k is fixed here, from the
    fixed graph or, when every trial draws its own graph, from trial 0's
    graph, which is drawn here and taken by block 0: as many trials as fit
    ``_BLOCK_ENTRIES`` entries, 3 (m + n) per trial, and at least one. The
    ranges run through ``ThreadPoolExecutor.map`` on ``min(_usable_cpus(),
    trials)`` threads when one trial of the fixed graph fills a block (the
    budget fits no second one), or when trial 0's graph has at least
    ``_THREADED_BUILD_STUBS`` stubs, 2m (regenerating), and k is then cut
    so that the number of ranges is a multiple of the thread count;
    otherwise through the builtin ``map`` on this thread. A regenerating
    range draws its own graphs where it runs, each first on its trial's own
    stream. Every trial has its own stream and the results are written back
    in trial order, so no output depends on k or on the thread count. A
    range's exception is raised when its turn comes, so the first failing
    range's is raised. No later range starts after any exit: ``map``
    cancels the ranges it has not handed out when one raises, and the pool
    is shut down with its queued ranges cancelled, so that the loop raising
    or an interrupt between results stop them too; the running ranges
    finish and the threads are joined. ``map`` queues every range up front,
    but a queued range holds only its start index, and a finished one
    waiting for its turn only its results (k x estimators x 4 estimates and
    k fit entries).

    What lives for the whole experiment: the seed words of every trial's
    stream (``_trial_words``, 32 bytes per trial), hashed once here, and a
    fixed graph's block layout (``_block_layout``: edge endpoints and
    degrees laid out for k trials, of which each block uses a prefix, or
    the graph's own arrays when k is 1, and the graph's one non-edge table,
    which every trial searches), made once here. What lives for one block:
    its trials' generators and graphs, its draws, until its replicates'
    changes and missed-edge counts are made from them (the treatment flags
    until replicate 0's levels are known), those changes until replicate
    0's treated counts are taken, what is estimated from them, and, when
    every trial regenerates its graph, the block's layout. All of it is
    released when the block returns, so at most as many blocks' arrays live
    at once as there are threads: one block on a single thread, two on two
    (at n = 1e5, a block's traced peak is about 12.3 MiB above the
    layout's 3.8 MiB, which is the non-edge table alone). ``graph`` and
    ``table`` are None when every trial regenerates its graph.
    """
    rule = _mixing_rule(cfg)
    words = _trial_words(cfg)
    n_trials = cfg.trials
    made = {}  # trial 0's pair when it regenerates, until block 0 takes it
    if graph is None:
        made[0] = _trial(cfg, None, words, 0)
        sample = made[0][0]
        table = OutcomeTable.constant(sample.n_v, cfg.outcomes)
    else:
        sample = graph
    fit = _BLOCK_ENTRIES // (3 * (sample.n_edges + sample.n_v))
    k = min(n_trials, max(1, fit))
    # a fixed graph's ranges run on threads when one trial fills a block
    threaded = fit < 2 if graph is not None else 2 * sample.n_edges >= _THREADED_BUILD_STUBS
    del sample
    threads = min(_usable_cpus(), n_trials) if threaded else 1
    if threads > 1:
        # as many ranges on every thread: their count rounded up to a multiple
        ranges = -(-n_trials // k)
        ranges += -ranges % threads
        k = -(-n_trials // ranges)
    layout = None if graph is None else _block_layout([graph] * k)

    def block(t0):
        trials = (made.pop(t, None) or _trial(cfg, graph, words, t)
                  for t in range(t0, min(t0 + k, n_trials)))
        return _run_block(cfg, trials, layout, table, rule)

    estimates = np.full((n_trials, len(cfg.estimators), 4), np.nan)
    fits = RateFits(
        np.empty(n_trials), np.empty(n_trials), np.empty(n_trials),
        np.empty(n_trials, dtype=np.int64), np.empty(n_trials, dtype=np.int8),
    )
    rule_counts = np.zeros(3, dtype=np.int64)
    reached = np.zeros((len(cfg.estimators), 4), dtype=np.int64)
    starts = range(0, n_trials, k)
    pool = ThreadPoolExecutor(threads, thread_name_prefix=_THREAD_PREFIX) if threads > 1 else None
    try:
        blocks = map(block, starts) if pool is None else pool.map(block, starts)
        for t0, (est, block_fits, counts, block_reached) in zip(starts, blocks):
            estimates[t0 : t0 + k] = est
            for whole, part in zip(fits, block_fits):
                whole[t0 : t0 + k] = part
            rule_counts += counts
            reached += block_reached
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    failed = fits.status >= FIT_DEGENERATE
    counts = dict(zip(("corrected", "rule_fallback", "singular_fallback"),
                      (int(c) for c in rule_counts)))
    return estimates, failed, fits, counts, reached


@dataclass(frozen=True)
class LevelSummary:
    estimator: str
    level: str
    truth: float
    mean_estimate: float
    bias: float
    bias_ci_lo: float
    bias_ci_hi: float
    sd: float
    sd_ci_lo: float
    sd_ci_hi: float


@dataclass(frozen=True, eq=False)
class EstimateSummary:
    rows: tuple[LevelSummary, ...]
    n_trials: int
    n_failed: int
    noise_fit_convergence_rate: float | None
    mme_rule_counts: dict
    mme_bias_reduction: tuple[dict, ...] | None
    noise_fit: dict | None
    config: dict
    # the (estimator, level) pairs whose mean no kept trial gave a term
    unattained_levels: tuple[dict, ...]


def bootstrap_ci(
    samples,
    b: int,
    level: float,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Percentile confidence interval for the mean of ``samples``.

    The one-column case of the shared resampler: ``b`` resamples from
    ``_bootstrap_columns``, the symmetric percentile interval at the given
    level from ``_percentile_interval``.
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("samples must be a nonempty vector")
    if b < 1:
        raise ValueError("need at least one resample")
    if not (0.0 < level < 1.0):
        raise ValueError("level must lie in (0, 1)")
    means, _ = _bootstrap_columns(x[:, None], b, rng)
    lo, hi = _percentile_interval(means, level)
    return float(lo[0]), float(hi[0])


def _bootstrap_columns(
    x: np.ndarray, b: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Means and SDs (ddof=1) of every column of ``x`` over ``b`` resamples.

    Each resample draws ``n = len(x)`` row indices with replacement, and all
    columns share them. A block of resamples becomes a count matrix C, one
    ``bincount`` over ``resample * n + index`` of at most
    ``_BOOT_BLOCK_ENTRIES`` entries (or one resample), so the resampled sums
    are ``C @ X`` and ``C @ X**2``. X is centred per column first, so the
    SD's difference of sums does not cancel away the digits of a column far
    from zero, and scaled per column by ``_square_scale``, so its squares
    and their sums stay finite. Returns two (b, k) arrays; the SDs are NaN
    when n < 2.
    """
    n, k = x.shape
    scale = _square_scale(x)
    x = x * scale
    centre = x.mean(axis=0)
    xc = x - centre
    xc2 = xc * xc
    sums = np.empty((b, k))
    sq_sums = np.empty((b, k))
    block = max(1, min(b, _BOOT_BLOCK_ENTRIES // n))
    pos = 0
    while pos < b:
        take = min(block, b - pos)
        idx = rng.integers(0, n, size=(take, n))
        idx += np.arange(0, take * n, n)[:, None]
        counts = np.bincount(idx.ravel(), minlength=take * n).reshape(take, n)
        del idx
        counts = counts.astype(np.float64)
        sums[pos : pos + take] = counts @ xc
        sq_sums[pos : pos + take] = counts @ xc2
        pos += take
    means = sums / n
    if n < 2:
        sds = np.full((b, k), np.nan)
    else:
        var = (sq_sums - n * means * means) / (n - 1)
        sds = np.sqrt(np.maximum(var, 0.0)) / scale
    return (means + centre) / scale, sds


# the largest |value| that ``_square_scale`` leaves unscaled is below 2**this:
# the sum of up to 2**60 such squares is below float64's largest number
_SQUARE_EXPONENT = 480


def _square_scale(x: np.ndarray) -> np.ndarray:
    """Per column of ``x``, the power of two 2**-e (e >= 0) that brings its
    largest |value| below ``2**_SQUARE_EXPONENT``; 1 for ordinary data.

    A means-and-SD computation on the scaled column, divided back by the
    scale, gives the same bits as on the column itself wherever that one
    stays finite: multiplying by a power of two is exact, and so is every
    sum, product, quotient and square root of scaled operands. Only the
    squares change, from overflowing to finite.
    """
    _, exponent = np.frexp(np.abs(x).max(axis=0, initial=0.0))
    return np.ldexp(1.0, -np.maximum(exponent - _SQUARE_EXPONENT, 0))


def _percentile_interval(stats: np.ndarray, level: float) -> np.ndarray:
    """Symmetric percentile interval of each column of resampled statistics.

    ``stats`` holds one resample per row; the result stacks the lower and
    upper ends (shape ``(2,) + stats.shape[1:]``).
    """
    lo = (1.0 - level) / 2.0 * 100.0
    return np.percentile(stats, [lo, 100.0 - lo], axis=0)


def _mme_bias_reduction(cfg, rows, boot_means, truth) -> tuple[dict, ...]:
    """|bias(AS_noisy)| - |bias(MME)| per level, with a percentile interval.

    ``boot_means`` holds the shared (b, estimator, level) resampled means,
    so each resample's difference pairs the two estimators on the same
    trials and the interval costs no new draws.
    """
    a = cfg.estimators.index("AS_noisy")
    m = cfg.estimators.index("MME")
    gaps = np.abs(boot_means[:, a] - truth) - np.abs(boot_means[:, m] - truth)
    ci = _percentile_interval(gaps, cfg.bootstrap_level)
    return tuple(
        {
            "level": LEVEL_NAMES[k],
            "reduction": abs(rows[4 * a + k].bias) - abs(rows[4 * m + k].bias),
            "ci_lo": float(ci[0, k]),
            "ci_hi": float(ci[1, k]),
        }
        for k in range(4)
    )


def run_experiment(cfg: ExperimentConfig) -> EstimateSummary:
    """Monte Carlo experiment under the configured scenario.

    Each trial observes the true graph three times, fits the noise rates
    from the replicates (unless they are declared known), assigns treatment,
    realizes outcomes on the true graph, and computes the requested
    estimators; the noisy ones classify exposures on the first replicate.
    MME's corrected degrees come from the mean observed degree over all
    three replicates. Trials whose rate fit fails are dropped and counted;
    more than 1% of them aborts the run. With fitted rates, ``noise_fit``
    summarises the fits (``_fit_summary``).

    The bias and SD intervals of all columns come from one set of
    ``bootstrap_b`` resamples of the surviving trials; when AS_noisy and MME
    both run, the same resamples give ``mme_bias_reduction``. A level whose
    mean has no term in any kept trial reads 0 in every such trial;
    ``unattained_levels`` names each such (estimator, level) pair.
    """
    if cfg.regenerate_graph:
        graph = table = None
        truth = OutcomeTable.constant(1, cfg.outcomes).truth()
    else:
        graph = resolve_graph(cfg.graph)
        if graph.n_v < 1:
            raise ValueError("need at least one unit")
        if graph.n_v < 2 and not cfg.noise_known:
            raise ValueError("fitting the noise rates needs at least two vertices; "
                             "set noise_known to use alpha and beta as given")
        table = _resolve_outcomes(cfg, graph.n_v)
        truth = table.truth()

    estimates, failed, fits, rule_counts, reached = _run_trials(cfg, graph, table)
    n_failed = int(failed.sum())
    if n_failed > 0.01 * cfg.trials:
        raise ExperimentError(
            f"{n_failed} of {cfg.trials} trials failed rate fitting (> 1%)"
        )
    ok = ~failed
    data = estimates[ok]
    n_ok, n_est = data.shape[:2]
    # one set of resamples for every (estimator, level) column
    boot_means, boot_sds = _bootstrap_columns(
        data.reshape(n_ok, 4 * n_est), cfg.bootstrap_b,
        make_rng(cfg.master_seed, _BOOT_STREAM),
    )
    boot_means = boot_means.reshape(cfg.bootstrap_b, n_est, 4)
    mean_ci = _percentile_interval(boot_means, cfg.bootstrap_level)
    sd_ci = _percentile_interval(boot_sds.reshape(boot_means.shape), cfg.bootstrap_level)

    scale = _square_scale(data.reshape(n_ok, 4 * n_est)).reshape(n_est, 4)
    rows = []
    for e, name in enumerate(cfg.estimators):
        for k in range(4):
            samples = data[:, e, k]
            mean = float(samples.mean())
            # the SD of the column scaled as the bootstrap scales it
            sd = (float((samples * scale[e, k]).std(ddof=1) / scale[e, k]) if n_ok > 1
                  else float("nan"))
            rows.append(
                LevelSummary(
                    estimator=name,
                    level=LEVEL_NAMES[k],
                    truth=float(truth[k]),
                    mean_estimate=mean,
                    bias=mean - float(truth[k]),
                    bias_ci_lo=float(mean_ci[0, e, k]) - float(truth[k]),
                    bias_ci_hi=float(mean_ci[1, e, k]) - float(truth[k]),
                    sd=sd,
                    sd_ci_lo=float(sd_ci[0, e, k]),
                    sd_ci_hi=float(sd_ci[1, e, k]),
                )
            )
    reduction = None
    if "AS_noisy" in cfg.estimators and "MME" in cfg.estimators:
        reduction = _mme_bias_reduction(cfg, rows, boot_means, truth)
    conv_rate = fit_summary = None
    if not cfg.noise_known:
        conv_rate = float((fits.status[ok] == FIT_CONVERGED).mean()) if n_ok else 0.0
        fit_summary = _fit_summary(fits, ok)
    return EstimateSummary(
        rows=tuple(rows),
        n_trials=cfg.trials,
        n_failed=n_failed,
        noise_fit_convergence_rate=conv_rate,
        mme_rule_counts=rule_counts,
        mme_bias_reduction=reduction,
        noise_fit=fit_summary,
        config=cfg.echo(),
        unattained_levels=tuple(
            {"estimator": cfg.estimators[e], "level": LEVEL_NAMES[k]}
            for e, k in zip(*np.nonzero(reached == 0))
        ),
    )


def _fit_summary(fits: RateFits, ok: np.ndarray) -> dict:
    """Failed fits by reason, unconverged fits, and the spread of the fitted
    rates and iteration counts over the trials that kept their fit."""
    def spread(x):
        q25, median, q75 = np.percentile(x, [25, 50, 75])
        return {
            "mean": float(x.mean()),
            "sd": float(x.std(ddof=1)) if x.size > 1 else None,
            "q25": float(q25),
            "median": float(median),
            "q75": float(q75),
        }

    iterations = fits.iterations[ok]
    return {
        "failed": {
            "degenerate": int(np.count_nonzero(fits.status == FIT_DEGENERATE)),
            "diverged": int(np.count_nonzero(fits.status == FIT_DIVERGED)),
        },
        "unconverged": int(np.count_nonzero(fits.status == FIT_UNCONVERGED)),
        "alpha_hat": spread(fits.alpha_hat[ok]),
        "beta_hat": spread(fits.beta_hat[ok]),
        "iterations": {"mean": float(iterations.mean()), "max": int(iterations.max())},
    }


# one column per ``LevelSummary`` field, then the run's trial counts
_CSV_COLUMNS = (*(f.name for f in fields(LevelSummary)), "n_trials", "n_failed")


def emit_results(summary: EstimateSummary, csv_path, sidecar_path=None) -> None:
    """Write the summary CSV and a JSON sidecar echoing the configuration.

    Field order is fixed and floats use their shortest round-trip form, so
    identical summaries produce byte-identical files.
    """
    csv_path = Path(csv_path)
    if sidecar_path is None:
        sidecar_path = csv_path.with_suffix(".json")
    counts = f"{summary.n_trials},{summary.n_failed}"
    lines = [",".join(_CSV_COLUMNS)]
    for r in summary.rows:
        cells = (getattr(r, f.name) for f in fields(LevelSummary))
        lines.append(",".join([*(repr(v) if isinstance(v, float) else v for v in cells), counts]))
    try:
        csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        sidecar = {
            "config": summary.config,
            "n_trials": summary.n_trials,
            "n_failed": summary.n_failed,
            "noise_fit_convergence_rate": summary.noise_fit_convergence_rate,
            "mme_rule_counts": summary.mme_rule_counts,
            "noise_fit": summary.noise_fit,
        }
        if summary.mme_bias_reduction is not None:
            sidecar["mme_bias_reduction"] = list(summary.mme_bias_reduction)
        if summary.unattained_levels:
            sidecar["unattained_levels"] = list(summary.unattained_levels)
        Path(sidecar_path).write_text(
            json.dumps(sidecar, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    except OSError as exc:
        raise OSError(f"failed writing results near {csv_path}: {exc}") from exc
