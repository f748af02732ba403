"""Freed buffers stay in the heap: a repeated call faults little memory in.

Each test runs in a fresh interpreter that imports only ``nnc``, so the
allocator setting comes from the package import and no earlier test has
grown the heap. It repeats a call and counts the minor page faults
(``ru_minflt``) of the second one. On glibc 2.36, in ten fresh processes
each, a 300-trial experiment on a school-sized graph faulted 121-123
pages with the package's setting and 1,153-1,155 with ``mallopt``
skipped; a ``bootstrap_ci`` call at n = 1e4 faulted none and 36,081. A
4-trial ZTP(10) experiment at n = 5e4 tells the two apart no longer: 4-5
pages with glibc's defaults, whose mmap threshold grows as large buffers
are freed, and 4-496 with the setting.
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

# the school-sized experiment's bound, and the bootstrap call's
EXPERIMENT_FAULT_BOUND = 400
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


def test_repeated_school_sized_experiment_faults_little_memory_in():
    faults = _second_call_faults("""
graph = nnc.resolve_graph({"source": "generate", "kind": "pareto", "n_v": 115, "rate": 0.4,
                           "shape": 1.0, "lower": 7, "seed": 1})
cfg = nnc.ExperimentConfig(graph=graph, alpha=0.01, beta=0.1, p=0.1, trials=300,
                           bootstrap_b=200, master_seed=7)
second_call_faults(lambda: nnc.run_experiment(cfg))
""")
    assert faults < EXPERIMENT_FAULT_BOUND


def test_repeated_bootstrap_ci_faults_no_memory_in():
    faults = _second_call_faults("""
x = np.random.default_rng(1).normal(size=10_000)
second_call_faults(lambda: nnc.bootstrap_ci(x, 1_000, 0.95, np.random.default_rng(2)))
""")
    assert faults < FAULT_BOUND
