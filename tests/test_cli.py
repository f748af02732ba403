import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nnc
from nnc.cli import main
from nnc.graphs import load_edge_list, write_edge_list
from nnc.harness import _GRAPH_STREAM, _PERTURB_STREAM
from nnc.noise import NoiseParams, perturb
from nnc.seeding import make_rng


def test_generate_perturb_noise_fit_roundtrip(tmp_path, capsys):
    edges = tmp_path / "true.csv"
    assert main([
        "generate", "--kind", "ztp", "--n-v", "300", "--mean-degree", "8",
        "--seed", "11", "--out", str(edges),
    ]) == 0
    g = load_edge_list(edges)
    assert g.n_v == 300
    fields = dict(kv.split("=") for kv in capsys.readouterr().out.split())
    assert int(fields["n_edges"]) == g.n_edges
    assert 1 <= int(fields["matching_attempts"]) <= 100
    assert int(fields["erased_stubs"]) % 2 == 0

    reps = []
    for k in range(3):
        out = tmp_path / f"rep{k}.csv"
        assert main([
            "perturb", "--edges", str(edges), "--alpha", "0.01", "--beta", "0.1",
            "--seed", str(50 + k), "--out", str(out),
        ]) == 0
        reps.append(out)

    fit_out = tmp_path / "fit.csv"
    assert main(["noise-fit", *map(str, reps), "--out", str(fit_out)]) == 0
    header, row = fit_out.read_text().strip().split("\n")
    assert header == "alpha_hat,beta_hat,delta_hat,iterations,converged"
    alpha_hat, beta_hat, delta_hat, iters, conv = row.split(",")
    assert conv == "true"
    assert 0.0 <= float(alpha_hat) < 0.05
    assert 0.0 <= float(beta_hat) < 0.4
    assert 0.0 < float(delta_hat) < 0.1
    assert int(iters) >= 1
    capsys.readouterr()


def test_generate_pareto_requires_parameters(tmp_path):
    with pytest.raises(SystemExit):
        main(["generate", "--kind", "pareto", "--n-v", "100", "--out", str(tmp_path / "x.csv")])
    assert main([
        "generate", "--kind", "pareto", "--n-v", "100", "--rate", "0.1",
        "--shape", "1.5", "--lower", "2", "--seed", "4", "--out", str(tmp_path / "p.csv"),
    ]) == 0


def test_perturb_stream_is_not_the_generators(tmp_path, capsys):
    # generate and perturb both default to --seed 0; perturb must not reuse
    # the degree sampler's uniforms as its edge-keep uniforms
    seed = 7
    edges = tmp_path / "true.csv"
    noisy = tmp_path / "noisy.csv"
    assert main([
        "generate", "--kind", "pareto", "--n-v", "120", "--rate", "0.4", "--shape", "1.0",
        "--lower", "7", "--seed", str(seed), "--out", str(edges),
    ]) == 0
    assert main(["perturb", "--edges", str(edges), "--alpha", "0.01", "--beta", "0.1",
                 "--seed", str(seed), "--out", str(noisy)]) == 0
    capsys.readouterr()
    assert not np.array_equal(
        make_rng(seed, _PERTURB_STREAM).random(64), make_rng(seed, _GRAPH_STREAM).random(64)
    )

    g = load_edge_list(edges)
    noise = NoiseParams(0.01, 0.1)

    def text(stream):
        buf = io.StringIO()
        write_edge_list(perturb(g, noise, make_rng(seed, stream)), buf)
        return buf.getvalue()

    assert noisy.read_text() == text(_PERTURB_STREAM)
    assert noisy.read_text() != text(_GRAPH_STREAM)


def test_perturb_preserves_labels(tmp_path, capsys):
    edges = tmp_path / "in.csv"
    edges.write_text("node_a,node_b\nalice,bob\nbob,carol\ncarol,alice\n")
    out = tmp_path / "out.csv"
    assert main(["perturb", "--edges", str(edges), "--alpha", "0", "--beta", "0",
                 "--seed", "1", "--out", str(out)]) == 0
    text = out.read_text()
    assert "alice,bob" in text and "bob,carol" in text
    capsys.readouterr()


def test_bias_theory_outputs_four_levels(tmp_path, capsys):
    degs = tmp_path / "degrees.txt"
    degs.write_text("5\n5\n5\n")
    assert main([
        "bias-theory", "--degrees", str(degs), "--alpha", "0", "--beta", "0.1",
        "--p", "0.1", "--n-v", "20", "--outcomes", "10,7,5,1",
    ]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert out[0] == "level,predicted_bias,exact"
    rows = dict(line.split(",")[:2] for line in out[1:])
    assert set(rows) == {"c11", "c10", "c01", "c00"}
    assert float(rows["c10"]) == pytest.approx(3 * (1 - 0.99**5), abs=1e-12)
    assert float(rows["c11"]) == 0.0  # no false edges, exact zero


def test_experiment_command_and_seed_override(tmp_path, capsys, monkeypatch):
    cfg = {
        "graph": {"source": "generate", "kind": "ztp", "n_v": 60, "mean_degree": 5.0, "seed": 2},
        "alpha": 0.01,
        "beta": 0.1,
        "p": 0.1,
        "trials": 40,
        "bootstrap_b": 50,
        "master_seed": 5,
        "estimators": ["AS_noisy", "MME"],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))

    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    out_c = tmp_path / "c.csv"
    assert main(["experiment", "--config", str(cfg_path), "--out", str(out_a)]) == 0
    assert main(["experiment", "--config", str(cfg_path), "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    assert json.loads((tmp_path / "a.json").read_text())["config"]["master_seed"] == 5

    monkeypatch.setenv("NNC_SEED", "99")
    assert main(["experiment", "--config", str(cfg_path), "--out", str(out_c)]) == 0
    assert out_a.read_bytes() != out_c.read_bytes()
    assert json.loads((tmp_path / "c.json").read_text())["config"]["master_seed"] == 99
    capsys.readouterr()


def test_package_import_leaves_scipy_integrate_unloaded():
    # no code path of the package integrates, and loading scipy's quadrature
    # adds tens of MB to every process that imports it
    src = str(Path(nnc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import nnc, nnc.cli, sys; print('scipy.integrate' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "False"
