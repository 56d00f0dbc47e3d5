"""Set-up probe: run in a fresh interpreter, prints one JSON line.

Times ``import nrqae`` (and numpy with it) plus parsing each config given on
the command line and building its problem, the work a workload does before
its first op. numpy is imported first and its import is also timed on its
own: it runs no nrqae code, so run.py uses it as the set-up's reference for
the machine's speed. Usage: python3 bench/probe_setup.py CONFIG [CONFIG ...]
"""

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

import numpy  # noqa: E402,F401

_NUMPY_S = time.perf_counter() - _T0

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))

import nrqae.cli  # noqa: E402,F401
from nrqae.config import build_problem, load_config  # noqa: E402

for path in sys.argv[1:]:
    build_problem(load_config(path))
print(json.dumps({"setup_s": time.perf_counter() - _T0, "numpy_import_s": _NUMPY_S}))
