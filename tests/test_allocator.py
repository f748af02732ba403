"""Freed buffers stay in the heap: a repeated call faults no memory in.

Each test runs in a fresh interpreter that imports only ``nnc``, so the
allocator setting comes from the package import and no earlier test has
grown the heap. It repeats a call and counts the minor page faults
(``ru_minflt``) of the second one. On glibc 2.36 with its default
thresholds that count was 8,177 for the experiment and 36,176 for
``bootstrap_ci``; with the package's setting it was 196 and 19.
"""
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

import nnc

pytestmark = pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                                reason="the allocator setting applies only to glibc")

FAULT_BOUND = 1_000

_PRELUDE = """
import resource
import numpy as np
import nnc

def second_call_faults(call):
    call()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    call()
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def _second_call_faults(code: str) -> int:
    src = str(Path(nnc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", _PRELUDE + code], env=env,
                          capture_output=True, text=True, check=True, timeout=300)
    return int(done.stdout.split()[-1])


def test_repeated_experiment_at_n_5e4_faults_no_memory_in():
    faults = _second_call_faults("""
graph = nnc.resolve_graph({"source": "generate", "kind": "ztp", "n_v": 50_000,
                           "mean_degree": 10.0, "seed": 1})
cfg = nnc.ExperimentConfig(graph=graph, alpha=1e-5, beta=0.1, p=0.01, trials=4,
                           bootstrap_b=200, master_seed=7)
second_call_faults(lambda: nnc.run_experiment(cfg))
""")
    assert faults < FAULT_BOUND


def test_repeated_bootstrap_ci_faults_no_memory_in():
    faults = _second_call_faults("""
x = np.random.default_rng(1).normal(size=10_000)
second_call_faults(lambda: nnc.bootstrap_ci(x, 1_000, 0.95, np.random.default_rng(2)))
""")
    assert faults < FAULT_BOUND
