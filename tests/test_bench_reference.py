"""Benchmark ops still match their checked-in fingerprints.

A bench op fails when its fingerprint (exit codes, printed estimates and
the sha256 of every artifact) differs from bench/reference/. This runs a
handful of pool ops through the bench's own op runner, untimed, so a change
that moves an output is caught by the test suite and not first by a timed
bench run. It covers the whole 16-case wide-q5 cycle, an eighth of the readme-q1
pool (32 ops, each running about 21 seed picks), and two verify-q3 ops,
one of which (s41) exits 3 in the reference.

bench/workloads.py is run from its source, as tests/bench_pool.py runs it
for every op of every pool, so no bytecode is written under bench/, and
its work directory is moved to a temporary one.
"""

import pytest
from bench_pool import bench_workloads, failed_ops

CASES = ([("wide-q5", f"j{j}") for j in range(16)]
         + [("readme-q1", f"s{j}") for j in range(32)]
         + [("verify-q3", "s0"), ("verify-q3", "s41")])


@pytest.fixture(scope="module")
def workloads(tmp_path_factory):
    with bench_workloads(str(tmp_path_factory.mktemp("bench") / "work")) as module:
        yield module


@pytest.mark.parametrize("workload_name", sorted({w for w, _ in CASES}))
def test_ops_match_the_bench_reference(workloads, workload_name, tmp_path):
    keys = [key for name, key in CASES if name == workload_name]
    assert failed_ops(workloads, workload_name, keys, str(tmp_path)) == []
