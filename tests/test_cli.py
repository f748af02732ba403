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


def test_experiment_names_the_levels_no_trial_attains(tmp_path, capsys):
    # ZTP degrees clamped to 199 of 200 vertices: a vertex has no treated
    # neighbour with probability about 0.9**125, so no trial has a c10 or
    # c00 vertex. HT_true and AS_noisy have no term there; MME's corrected
    # c11 and c01 vertices still add to c10 and c00. The rows read as
    # before, the sidecar names the four pairs and one warning line says so
    cfg = {"graph": {"source": "generate", "kind": "ztp", "n_v": 200, "mean_degree": 10000},
           "alpha": 0.01, "beta": 0.1, "p": 0.1, "trials": 20, "bootstrap_b": 200,
           "master_seed": 1}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out.csv"
    assert main(["experiment", "--config", str(cfg_path), "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert err.startswith("nnc: warning: ") and err.count("\n") == 1
    unattained = [(e, lvl) for e in ("HT_true", "AS_noisy") for lvl in ("c10", "c00")]
    sidecar = json.loads((tmp_path / "out.json").read_text())
    assert sidecar["n_failed"] == 0
    assert sidecar["unattained_levels"] == [{"estimator": e, "level": lvl}
                                            for e, lvl in unattained]
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows) == 12
    for name, level, _, mean, _, _, _, sd, *_ in rows:
        if (name, level) in unattained:
            assert float(mean) == 0.0 and float(sd) == 0.0
        else:
            assert float(sd) > 0.0

    # every level attained: no key, no warning
    cfg["graph"]["mean_degree"] = 5.0
    cfg_path.write_text(json.dumps(cfg))
    assert main(["experiment", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert "unattained_levels" not in json.loads((tmp_path / "out.json").read_text())


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
        "repeated estimators": (dict(good, estimators=["MME", "AS_noisy", "MME"]),
                                "estimators must not repeat: ['MME']"),
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
        "spec numbers as booleans": (
            dict(good, graph={"source": "generate", "kind": "ztp", "n_v": 50,
                              "mean_degree": True, "seed": True}),
            "graph spec key 'seed' must be an integer, got True"),
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


def test_every_text_input_reads_past_a_byte_order_mark(tmp_path, capsys):
    # an edge list, contact rounds, an outcome table, an experiment config
    # and a degree file, each saved with a UTF-8 byte-order mark, as some
    # editors write them, give the files they give without it
    pairs = ("a,b", "b,c", "c,d", "a,d", "b,d")
    texts = {
        "edges.csv": "node_a,node_b\n" + "".join(f"{p}\n" for p in pairs),
        "rounds.csv": "round,node_a,node_b\n" + "".join(f"{r},{p}\n" for r in (1, 2)
                                                     for p in pairs),
        "y.csv": "y_c11,y_c10,y_c01,y_c00\n" + "4,3,2,1\n" * 4,
        "degrees.txt": "1\n2\n3\n",
    }
    outputs = []
    for mark in ("", "\ufeff"):
        d = tmp_path / ("marked" if mark else "plain")
        d.mkdir()
        for name, text in texts.items():
            (d / name).write_text(mark + text, encoding="utf-8")
        config = {"graph": {"source": "rounds", "path": str(d / "rounds.csv")},
                  "outcomes": str(d / "y.csv"), "alpha": 0.01, "beta": 0.1, "p": 0.3,
                  "trials": 20, "bootstrap_b": 20, "master_seed": 5, "noise_known": True}
        (d / "exp.json").write_text(mark + json.dumps(config), encoding="utf-8")
        for argv in (
            ["perturb", "--edges", str(d / "edges.csv"), "--alpha", "0.1", "--beta", "0.2",
             "--seed", "3", "--out", str(d / "r.csv")],
            ["bias-theory", "--degrees", str(d / "degrees.txt"), "--alpha", "0.005",
             "--beta", "0.1", "--p", "0.1", "--n-v", "20", "--out", str(d / "bias.csv")],
            ["experiment", "--config", str(d / "exp.json"), "--out", str(d / "run.csv")],
        ):
            assert main(argv) == 0, argv
        sidecar = json.loads((d / "run.json").read_text())
        del sidecar["config"]  # it echoes the paths
        outputs.append([(d / name).read_bytes() for name in ("r.csv", "bias.csv", "run.csv")]
                       + [sidecar])
    capsys.readouterr()
    assert outputs[1] == outputs[0]


def test_bias_theory_names_the_file_and_line_of_a_bad_degree(tmp_path, capsys):
    degs = tmp_path / "degrees.txt"
    degs.write_text("3\n\n x \n4\n")
    argv = ["bias-theory", "--degrees", str(degs), "--alpha", "0.005", "--beta", "0.1",
            "--p", "0.1", "--n-v", "20"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"nnc: error: {degs}: line 3: degree must be an integer, got 'x'\n"


@pytest.mark.parametrize("command", ["perturb", "bias-theory"])
def test_an_over_long_field_ends_in_one_line_and_status_two(tmp_path, capsys, command):
    # a line over the csv module's field size limit of 131,072 characters,
    # in an edge list or a degree file, is an input error, not a traceback
    path = tmp_path / "long.txt"
    out = str(tmp_path / "out.csv")
    if command == "perturb":
        path.write_text("node_a,node_b\na,b\nc," + "x" * 200_000 + "\n")
        argv = ["perturb", "--edges", str(path), "--alpha", "0.01", "--beta", "0.1",
                "--out", out]
    else:
        path.write_text("3\n5\n" + "4" * 200_000 + "\n")
        argv = ["bias-theory", "--degrees", str(path), "--alpha", "0.005", "--beta", "0.1",
                "--p", "0.1", "--n-v", "20", "--out", out]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"nnc: error: {path}: line 3: field larger than field limit "
                            f"(131072)\n")


def test_a_bad_input_file_is_named_in_its_error(tmp_path, capsys):
    # a short row in the second of three replicates, and in an experiment's
    # outcome table, each ends in one line that names the file and its line
    good = "node_a,node_b\na,b\nb,c\nc,a\n"
    reps = [tmp_path / f"r{k}.csv" for k in (1, 2, 3)]
    for rep, text in zip(reps, (good, "node_a,node_b\na,b\nc\n", good)):
        rep.write_text(text)
    outcomes = tmp_path / "y.csv"
    outcomes.write_text("y_c11,y_c10,y_c01,y_c00\n1,2,3,4\n1,2,3\n1,2,3,4\n")
    config = tmp_path / "exp.json"
    config.write_text(json.dumps({"graph": {"source": "edge_list", "path": str(reps[0])},
                                  "outcomes": str(outcomes), "alpha": 0.01, "beta": 0.1,
                                  "p": 0.1, "trials": 5}))
    for argv, message in (
        (["noise-fit", *map(str, reps)], f"{reps[1]}: line 3: expected 2 fields, got 1"),
        (["experiment", "--config", str(config), "--out", str(tmp_path / "out.csv")],
         f"{outcomes}: line 3: expected 4 fields, got 3"),
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"nnc: error: {message}\n"


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
