"""Per-trial results of three small experiments, pinned to a committed file.

The tests that compare the block path with the per-graph path run both on
this code, so a change to the order of random draws that moves both paths
together passes them. ``golden_trials.json`` pins, for three
configurations, every trial's estimates, fitted rates, fit status and
iteration count and the experiment's MME routing counts, as the code wrote
them before. A declared stream change (see ROADMAP aim 3) regenerates the
file, from the repository root::

    PYTHONPATH=src python tests/test_golden_trials.py

Estimates are compared at a relative tolerance of 1e-12 and integers
exactly. Bootstrap intervals are left out, because the rounding of their
matrix products depends on the BLAS build.
"""
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from nnc.harness import ExperimentConfig, _resolve_outcomes, _run_trials, resolve_graph
from nnc.seeding import make_rng

GOLDEN = Path(__file__).with_name("golden_trials.json")
_SCHOOL = {"source": "generate", "kind": "pareto", "n_v": 115, "rate": 0.40, "shape": 1.0,
           "lower": 7, "seed": 12345}
_PARETO = {"source": "generate", "kind": "pareto", "n_v": 150, "rate": 0.1, "shape": 1.2,
           "lower": 3, "seed": 3}
_ZTP = {"source": "generate", "kind": "ztp", "n_v": 150, "mean_degree": 6.0, "seed": 61}
CASES = ("fixed_fitted_sparse_fallback", "regenerating_known_order_of_magnitude",
         "vertex_outcomes")


def _config(case: str, tmp_dir: Path) -> ExperimentConfig:
    if case == "fixed_fitted_sparse_fallback":
        return ExperimentConfig(graph=resolve_graph(_SCHOOL), alpha=0.01, beta=0.1, p=0.1,
                                trials=24, master_seed=101)
    if case == "regenerating_known_order_of_magnitude":
        return ExperimentConfig(graph=_PARETO, alpha=0.005, beta=0.1, p=0.1, trials=16,
                                noise_known=True, mixing="order_of_magnitude",
                                regenerate_graph=True, master_seed=202)
    graph = resolve_graph(_ZTP)
    rows = make_rng(5).normal(size=(graph.n_v, 4)) * 3.0 + np.array([10.0, 7.0, 5.0, 1.0])
    outcomes = tmp_dir / "outcomes.csv"
    outcomes.write_text("y_c11,y_c10,y_c01,y_c00\n" + "".join(
        ",".join(repr(float(v)) for v in row) + "\n" for row in rows))
    return ExperimentConfig(graph=graph, alpha=0.02, beta=0.15, p=0.1,
                            outcomes=str(outcomes), trials=20, master_seed=303)


def _results(case: str, tmp_dir: Path) -> dict:
    cfg = _config(case, tmp_dir)
    if cfg.regenerate_graph:
        graph = table = None
    else:
        graph = cfg.graph
        table = _resolve_outcomes(cfg, graph.n_v)
    estimates, _, fits, rule_counts, _ = _run_trials(cfg, graph, table)
    return {
        "estimates": estimates.reshape(cfg.trials, -1).tolist(),
        "alpha_hat": fits.alpha_hat.tolist(),
        "beta_hat": fits.beta_hat.tolist(),
        "status": fits.status.tolist(),
        "iterations": fits.iterations.tolist(),
        "rule_counts": rule_counts,
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES)
def test_trials_reproduce_the_committed_results(case, golden, tmp_path):
    got, want = _results(case, tmp_path), golden[case]
    assert set(got) == set(want)
    for key in ("estimates", "alpha_hat", "beta_hat"):
        np.testing.assert_allclose(np.array(got[key]), np.array(want[key]), rtol=1e-12,
                                   atol=0.0, equal_nan=True, err_msg=key)
    for key in ("status", "iterations", "rule_counts"):
        assert got[key] == want[key], key


def _write(tmp_dir: Path) -> None:
    # one line per trial's estimates, so a regenerated file diffs by trial
    parts = []
    for case in CASES:
        fields = []
        for key, value in _results(case, tmp_dir).items():
            if key == "estimates":
                value = "[\n   " + ",\n   ".join(json.dumps(row) for row in value) + "\n  ]"
            else:
                value = json.dumps(value)
            fields.append(f'  "{key}": {value}')
        parts.append(f' "{case}": {{\n' + ",\n".join(fields) + "\n }")
    GOLDEN.write_text("{\n" + ",\n".join(parts) + "\n}\n", encoding="utf-8")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        _write(Path(tmp))
    sys.exit(0)
