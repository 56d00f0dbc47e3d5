"""Regenerate bench/reference/<workload>.json from the current source tree.

    python3 bench/make_reference.py [WORKLOAD ...]

Runs every op in each workload's pool once and records its exit codes and
fingerprint. NOTES.md names the commit the checked-in reference was made
from; regenerate it only in a change that means to alter the program's
outputs, and say so in CHANGES.md.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

import run
import workloads as wl


def main(argv=None) -> int:
    names = (argv if argv is not None else sys.argv[1:]) or sorted(wl.WORKLOADS)
    wl.check_source_tree()
    run.pin_threads()
    sys.path.insert(0, wl.SRC_DIR)
    import nrqae.cli

    os.makedirs(wl.REFERENCE_DIR, exist_ok=True)
    for name in names:
        workload = wl.WORKLOADS[name]
        config_dir = os.path.join(wl.WORK_DIR, f"reference-{os.getpid()}")
        paths = wl.write_configs(workload, config_dir)
        ops = {}
        start = time.perf_counter()
        try:
            for op in workload.pool:
                res = wl.run_op(op, paths, nrqae.cli.main, time.perf_counter)
                if res.error:
                    raise SystemExit(f"{name} {op.key} raised: {res.error}")
                ops[op.key] = {"rcs": res.rcs, "fingerprint": res.fingerprint}
        finally:
            shutil.rmtree(config_dir, ignore_errors=True)
        with open(os.path.join(wl.REFERENCE_DIR, f"{name}.json"), "w") as fh:
            json.dump({"workload": name, "ops": ops}, fh, indent=0, sort_keys=True)
            fh.write("\n")
        codes = sorted({tuple(v["rcs"]) for v in ops.values()})
        print(f"{name}: {len(ops)} ops in {time.perf_counter() - start:.1f} s, "
              f"exit codes {codes}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
