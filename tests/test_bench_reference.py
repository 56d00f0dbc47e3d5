"""Benchmark ops still match their checked-in fingerprints.

A bench op fails when its fingerprint (exit codes, printed estimates and
the sha256 of every artifact) differs from bench/reference/. This runs a
handful of pool ops through the bench's own op runner, untimed, so a change
that moves an output is caught by the test suite and not first by a timed
bench run. It covers the whole 16-case wide-q5 cycle, an eighth of the readme-q1
pool (32 ops, each running about 21 seed picks), and two verify-q3 ops,
one of which (s41) exits 3 in the reference.

bench/workloads.py is run from its source, so no bytecode is written under
bench/, and its work directory is moved to a temporary one.
"""

import os
import sys
import time
import types

import pytest

from nrqae.cli import main

WORKLOADS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "bench", "workloads.py")

CASES = ([("wide-q5", f"j{j}") for j in range(16)]
         + [("readme-q1", f"s{j}") for j in range(32)]
         + [("verify-q3", "s0"), ("verify-q3", "s41")])


@pytest.fixture(scope="module")
def workloads():
    name = "bench_workloads"
    module = types.ModuleType(name)
    module.__file__ = WORKLOADS
    # its dataclasses look their module up in sys.modules while being built
    sys.modules[name] = module
    try:
        with open(WORKLOADS) as fh:
            exec(compile(fh.read(), WORKLOADS, "exec"), module.__dict__)
        yield module
    finally:
        del sys.modules[name]


@pytest.mark.parametrize("workload_name", sorted({w for w, _ in CASES}))
def test_ops_match_the_bench_reference(workloads, workload_name, tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "WORK_DIR", str(tmp_path / "work"))
    workload = workloads.WORKLOADS[workload_name]
    reference = workloads.load_reference(workload)
    config_paths = workloads.write_configs(workload, str(tmp_path / "configs"))
    ops = {op.key: op for op in workload.pool}
    for name, key in CASES:
        if name != workload_name:
            continue
        result = workloads.run_op(ops[key], config_paths, main, time.perf_counter)
        assert workloads.op_failed(result, reference) is None, (workload_name, key)
