"""Workload definitions: each turns a workload seed into the inputs of
``nnc experiment`` runs (a graph spec and ``ExperimentConfig`` arguments).

The graph seed and every experiment's ``master_seed`` derive from the
workload seed alone, so the same seed gives the same inputs. Why each
workload was chosen is recorded in ``BENCHMARK.json`` and ``README.md``.
"""
from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    graph: dict  # generator spec for ``harness.resolve_graph``, without its seed
    config: dict  # ``ExperimentConfig`` arguments besides graph and master_seed
    setup_batches: int  # setup_s is the median over batches of the time per set-up
    setup_reps: int  # set-ups per batch

    @property
    def trials(self) -> int:
        return self.config["trials"]

    def seed_stream(self, seed: int) -> random.Random:
        """Deterministic source of the graph seed and the master seeds."""
        return random.Random(f"{self.name}:{seed}")


_OUTCOMES = (10.0, 7.0, 5.0, 1.0)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="school_dense",
            graph={"source": "generate", "kind": "pareto", "n_v": 115,
                   "rate": 0.40, "shape": 1.0, "lower": 7},
            config={"alpha": 0.01, "beta": 0.10, "p": 0.1, "outcomes": _OUTCOMES,
                    "trials": 300, "bootstrap_b": 1000, "mixing": "sparse_fallback"},
            setup_batches=8,
            setup_reps=8,
        ),
        Workload(
            name="ztp_sparse_100k",
            graph={"source": "generate", "kind": "ztp", "n_v": 100_000,
                   "mean_degree": 10.0},
            config={"alpha": 1e-5, "beta": 0.10, "p": 0.01, "outcomes": _OUTCOMES,
                    "trials": 8, "bootstrap_b": 1000, "mixing": "sparse_fallback"},
            # one set-up takes tens of seconds, so a run affords only one
            setup_batches=1,
            setup_reps=1,
        ),
        Workload(
            name="pareto_regen_known",
            graph={"source": "generate", "kind": "pareto", "n_v": 500,
                   "rate": 0.1, "shape": 1.2, "lower": 3},
            config={"alpha": 0.005, "beta": 0.10, "p": 0.1, "outcomes": _OUTCOMES,
                    "trials": 30, "bootstrap_b": 1000, "noise_known": True,
                    "mixing": "order_of_magnitude", "regenerate_graph": True},
            setup_batches=8,
            setup_reps=2048,
        ),
    )
}
