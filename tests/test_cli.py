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


def test_input_errors_end_in_one_line_and_status_two(tmp_path, capsys, monkeypatch):
    degs = tmp_path / "degrees.txt"
    degs.write_text("1\n2\n3\n5\n8\n13\n")
    empty = tmp_path / "empty.csv"
    empty.write_text("node_a,node_b\n")
    full = tmp_path / "full.csv"
    full.write_text("node_a,node_b\na,b\nb,c\n")
    bad_header = tmp_path / "bad.csv"
    bad_header.write_text("from,to\na,b\n")
    out = str(tmp_path / "out.csv")
    perturb_args = ["--alpha", "0.01", "--beta", "0.1", "--out", out]
    cases = {
        # n_v defaults to the six degrees' count, below the largest degree
        "bias-theory": ["bias-theory", "--degrees", str(degs), "--alpha", "0.005",
                        "--beta", "0.1", "--p", "0.1"],
        "noise-fit": ["noise-fit", str(empty), str(full), str(full)],
        "missing file": ["perturb", "--edges", str(tmp_path / "nope.csv"), *perturb_args],
        "bad header": ["perturb", "--edges", str(bad_header), *perturb_args],
    }
    # bad experiment configs, and the text their error must hold
    good = {"graph": {"source": "edge_list", "path": str(full)}, "alpha": 0.01,
            "beta": 0.1, "p": 0.1, "trials": 5}
    configs = {
        "unknown key": (dict(good, bogus=1), "'bogus'"),
        "missing key": ({k: v for k, v in good.items() if k != "p"}, "'p'"),
        "list config": ([good], "JSON object"),
        "generator without n_v": (
            dict(good, graph={"source": "generate", "kind": "ztp", "mean_degree": 5.0}), "'n_v'"),
        "graph as a path": (dict(good, graph=str(full)), "must be an object"),
        "estimators as a number": (dict(good, estimators=5), "estimators must be a list"),
        "estimators as a string": (dict(good, estimators="MME"), "estimators must be a list"),
        "n_v not an integer": (
            dict(good, graph={"source": "generate", "kind": "ztp", "n_v": "x", "mean_degree": 5.0}),
            "graph spec key 'n_v' must be an integer, got 'x'"),
        "n_v not integral": (
            dict(good, graph={"source": "generate", "kind": "ztp", "n_v": 50.9,
                              "mean_degree": 5.0}),
            "graph spec key 'n_v' must be an integer, got 50.9"),
        "seed not integral": (
            dict(good, graph={"source": "generate", "kind": "ztp", "n_v": 50,
                              "mean_degree": 5.0, "seed": 1.5}),
            "graph spec key 'seed' must be an integer, got 1.5"),
        "mean_degree not a number": (
            dict(good, graph={"source": "generate", "kind": "ztp", "n_v": 50,
                              "mean_degree": "abc"}),
            "graph spec key 'mean_degree' must be a number, got 'abc'"),
        "NNC_SEED": (good, "NNC_SEED must be an integer, got 'abc'"),
    }
    needles = {}
    for k, (name, (config, needle)) in enumerate(configs.items()):
        path = tmp_path / f"config{k}.json"
        path.write_text(json.dumps(config))
        cases[name] = ["experiment", "--config", str(path), "--out", out]
        needles[name] = needle
    for name, argv in cases.items():
        if name == "NNC_SEED":
            monkeypatch.setenv("NNC_SEED", "abc")
        assert main(argv) == 2, name
        captured = capsys.readouterr()
        assert captured.out == "", name
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("nnc: error: "), (name, lines)
        assert needles.get(name, "") in lines[0], (name, lines)
        assert "Traceback" not in captured.err, name


def test_bias_theory_names_the_file_and_line_of_a_bad_degree(tmp_path, capsys):
    degs = tmp_path / "degrees.txt"
    degs.write_text("3\n\n x \n4\n")
    argv = ["bias-theory", "--degrees", str(degs), "--alpha", "0.005", "--beta", "0.1",
            "--p", "0.1", "--n-v", "20"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"nnc: error: {degs}: line 3: degree must be an integer, got 'x'\n"


def test_runtime_imports_and_cli_pipeline_need_no_scipy(tmp_path):
    # numpy is the only runtime dependency: importing the package loads no
    # scipy module, and every subcommand runs with any scipy import failing
    src = str(Path(nnc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))

    def run(code):
        return subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                              capture_output=True, text=True, check=True, timeout=120)

    code = ("import nnc, nnc.cli, sys; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert run(code).stdout.strip() == "[]"

    (tmp_path / "degrees.txt").write_text("1\n2\n3\n5\n8\n13\n")
    (tmp_path / "exp.json").write_text(json.dumps({
        "graph": {"source": "edge_list", "path": "g.csv"},
        "alpha": 0.01, "beta": 0.1, "p": 0.1, "trials": 20, "bootstrap_b": 50,
        "master_seed": 7,
    }))
    code = """
import sys
sys.modules["scipy"] = None
from nnc.cli import main
from nnc.graphs import load_edge_list
from nnc.theory import condition_diagnostics
calls = [
    ["generate", "--kind", "ztp", "--n-v", "200", "--mean-degree", "5", "--seed", "1",
     "--out", "g.csv"],
    *(["perturb", "--edges", "g.csv", "--alpha", "0.01", "--beta", "0.1", "--seed", s,
       "--out", f"r{s}.csv"] for s in "123"),
    ["noise-fit", "r1.csv", "r2.csv", "r3.csv", "--out", "fit.csv"],
    ["bias-theory", "--degrees", "degrees.txt", "--alpha", "0.005", "--beta", "0.1",
     "--p", "0.1", "--n-v", "20", "--out", "bias.csv"],
    ["experiment", "--config", "exp.json", "--out", "run.csv"],
]
for argv in calls:
    assert main(argv) == 0, argv
diag = condition_diagnostics(load_edge_list("g.csv"), 0.1)
assert 0.0 < diag.dependency_fraction < 1.0
print("ok")
"""
    assert run(code).stdout.strip().endswith("ok")
