"""In-memory spans around the public functions the experiment path calls.

``nnc.harness`` and ``nnc.estimators`` call these functions through their
module globals, so replacing the globals from outside the package puts a
span around every call without touching ``src/nnc``. ``Tracer.installed``
restores the originals on exit; untraced runs never see a wrapper.

A span records its name, start, end, parent span, trial index, phase and a
few counts read off the call's arguments or result. A trial index is taken
from the per-trial ``make_rng(master_seed, _TRIAL_STREAM, t)`` call that
opens each trial.
"""
from __future__ import annotations

import contextlib
import statistics
from dataclasses import dataclass
from time import perf_counter

from nnc import estimators, harness

# (module, global name, span name); the span name's prefix is the layer
TARGETS = (
    (harness, "make_rng", "seeding.make_rng"),
    (harness, "sample_degree_sequence", "graphs.sample_degrees"),
    (harness, "build_graph_configuration", "graphs.build"),
    (harness, "replicate", "noise.replicate"),
    (harness, "moment_stats", "noise_fit.moment_stats"),
    (harness, "fit_alpha_beta", "noise_fit.fit"),
    (harness, "assign_treatment", "exposure.assign_treatment"),
    (estimators, "exposure_levels", "exposure.levels"),
    (harness, "realize_outcomes", "estimators.realize"),
    (harness, "ht_estimate", "estimators.ht"),
    (harness, "mme_estimate", "estimators.mme"),
    (estimators, "degree_estimate", "estimators.degree_estimate"),
    (harness, "bootstrap_ci", "harness.bootstrap"),
)
# the benchmark itself opens "harness.setup", "harness.run_experiment" and
# "harness.emit" around its calls into the package
SPAN_NAMES = tuple(name for _, _, name in TARGETS) + ("harness.emit",)


@dataclass(slots=True)
class Span:
    name: str
    parent: int | None
    trial: int | None
    phase: int  # -1 for set-up, else the traced experiment's index
    start: float = 0.0
    end: float = 0.0
    error: str | None = None
    info: tuple = ()


def _info(name: str, args: tuple, out) -> tuple:
    # counts kept per call; never the (possibly large) result itself
    if name == "graphs.build":
        return (out.meta["matching_attempts"], out.meta["erased_stub_count"])
    if name == "noise.replicate":
        return tuple(g.n_edges for g in out)
    if name == "noise_fit.fit":
        return (out.iterations, out.converged)
    if name == "estimators.mme":
        return (out.n_corrected, args[0].n_v)
    return ()


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.phase = -1
        self._stack: list[int] = []
        self._trial: int | None = None

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        if name == "seeding.make_rng":
            path = args[1:]
            if path and path[0] == harness._TRIAL_STREAM:
                self._trial = int(path[1])
            elif path and path[0] == harness._BOOT_STREAM:
                self._trial = None
        parent = self._stack[-1] if self._stack else None
        span = Span(name, parent, self._trial, self.phase)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:
            span.error = type(exc).__name__
            raise
        finally:
            span.end = perf_counter()
            self._stack.pop()
        span.info = _info(name, args, out)
        return out

    @contextlib.contextmanager
    def installed(self):
        """Route the experiment path's calls through ``call``."""
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in TARGETS]
        try:
            for (mod, attr, fn), (_, _, name) in zip(saved, TARGETS):
                setattr(mod, attr, self._wrapper(name, fn))
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def _wrapper(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    # -- aggregation -----------------------------------------------------

    def phase_totals(self, phase: int) -> dict[str, dict]:
        """Per span name: calls, self time and inclusive durations in a phase."""
        spans = [(i, s) for i, s in enumerate(self.spans) if s.phase == phase]
        child = {i: 0.0 for i, _ in spans}
        for _, s in spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        out: dict[str, dict] = {}
        for i, s in spans:
            row = out.setdefault(s.name, {"calls": 0, "self_s": 0.0, "durations": [], "spans": []})
            row["calls"] += 1
            row["self_s"] += (s.end - s.start) - child[i]
            row["durations"].append(s.end - s.start)
            row["spans"].append(s)
        return out

    def dump(self, phases) -> list:
        """Compact rows ``[name, start, end, parent, trial, phase]`` for a report."""
        keep = set(phases)
        t0 = self.spans[0].start if self.spans else 0.0
        return [
            [s.name, round(s.start - t0, 9), round(s.end - t0, 9), s.parent, s.trial, s.phase]
            for s in self.spans
            if s.phase in keep
        ]


def quantile(values, q: float) -> float:
    """Inclusive-method quantile; 0.0 for no samples."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return float(cuts[round(q * 100) - 1])
