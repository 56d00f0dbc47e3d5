"""Every op of every benchmark workload pool against its checked-in fingerprint.

tests/test_bench_reference.py runs 50 of the 400 pool ops in the test suite.
This script runs all of them, untimed, through bench/workloads.py's own
run_op and op_failed, so a change that moves any op's output is caught
before a timed bench run. It is a script, not a test module, so pytest does
not collect it:

    PYTHONPATH=src python tests/bench_pool.py [workload ...]

It prints one line per workload, and each failed op with its reason, and
exits 1 if any op failed. bench/workloads.py is run from its source, so no
bytecode is written under bench/, and its work directory is moved to a
temporary one.
"""

import contextlib
import os
import sys
import tempfile
import time
import types

from nrqae.cli import main as cli_main

WORKLOADS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "bench", "workloads.py")


@contextlib.contextmanager
def bench_workloads(work_dir: str):
    """bench/workloads.py run from its source as a module, with WORK_DIR set to work_dir."""
    name = "bench_workloads"
    module = types.ModuleType(name)
    module.__file__ = WORKLOADS
    # its dataclasses look their module up in sys.modules while being built
    sys.modules[name] = module
    try:
        with open(WORKLOADS) as fh:
            exec(compile(fh.read(), WORKLOADS, "exec"), module.__dict__)
        module.WORK_DIR = work_dir
        yield module
    finally:
        del sys.modules[name]


def failed_ops(workloads, workload_name: str, keys, tmp: str) -> list:
    """(key, reason) of each listed op of the workload that fails against its reference."""
    workload = workloads.WORKLOADS[workload_name]
    reference = workloads.load_reference(workload)
    config_paths = workloads.write_configs(workload, os.path.join(tmp, workload_name))
    ops = {op.key: op for op in workload.pool}
    results = (workloads.run_op(ops[key], config_paths, cli_main, time.perf_counter)
               for key in keys)
    return [(result.key, reason) for result in results
            if (reason := workloads.op_failed(result, reference)) is not None]


def main(names) -> int:
    failures = 0
    with tempfile.TemporaryDirectory() as tmp, \
            bench_workloads(os.path.join(tmp, "work")) as workloads:
        for name in names or sorted(workloads.WORKLOADS):
            pool = workloads.WORKLOADS[name].pool
            t0 = time.perf_counter()
            failed = failed_ops(workloads, name, [op.key for op in pool], tmp)
            print(f"{name}: {len(pool) - len(failed)}/{len(pool)} ops match "
                  f"bench/reference/ ({time.perf_counter() - t0:.1f} s)")
            for key, reason in failed:
                print(f"  {key}: {reason}")
            failures += len(failed)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
