"""The golden cases: CLI runs whose outputs tests/golden/ stores byte for byte.

Each case is one `nrqae` command line. Its stored outputs are its exit code
(`exit_code`), its stdout (`stdout`, with the output directory written as
`<out>`) and every file it writes (`out/<name>`). The cases are the README
config through each command, verify-perturbation at q = 3 with the pauli and
statistical kinds at a seed that passes (exit 0) and one that fails a check
(exit 3), estimate and compare-noise at a seed of 2^40 + 3 (two entropy
words), plan-shots without and with --out, and the --help text of the CLI
and of each command at 80 columns.
The help texts follow Python 3.11's argparse layout, which other versions
may change.

Run as a script it clears tests/golden/ and writes every case again from
the package on PYTHONPATH:

    PYTHONPATH=src python tests/golden_cases.py
"""

import argparse
import contextlib
import io
import json
import os
import shutil
import tempfile
from pathlib import Path
from unittest import mock

from nrqae.cli import _build_parser, main

STORE = Path(__file__).resolve().parent / "golden"
OUT_TOKEN = "<out>"

README_CONFIG = {
    "config_version": 1, "mode": "amplitude", "qubits": 1, "amplitude": 0.75,
    "noise": {"kind": "pauli"}, "shots": 100000, "iterations": 5, "trials": 10,
    "seed": 7,
}
VERIFY_Q3_CONFIG = dict(README_CONFIG, qubits=3, compare_kinds=["pauli", "statistical"])
BIG_SEED = 2 ** 40 + 3
README_COMMANDS = ("estimate", "sweep-depth", "compare-noise", "verify-perturbation")
VERIFY_Q3_SEEDS = (0, 53)
BIG_SEED_COMMANDS = ("estimate", "compare-noise")
PLAN_SHOTS_ARGV = ["plan-shots", "--eps", "0.01", "--delta", "0.05"]
PLAN_SHOTS_CASES = ("no-out", "out")
HELP_COMMANDS = ("nrqae", "nrqae estimate", "nrqae sweep-depth", "nrqae compare-noise",
                 "nrqae verify-perturbation", "nrqae plan-shots")

# case name -> (config written to --config, or None for a case without one; argv,
# where OUT_TOKEN stands for the output directory)
CASES = {
    **{f"readme/{command}": (README_CONFIG, [command]) for command in README_COMMANDS},
    **{f"verify-q3/seed-{seed}": (VERIFY_Q3_CONFIG, ["verify-perturbation", "--seed", str(seed)])
       for seed in VERIFY_Q3_SEEDS},
    **{f"big-seed/{command}": (README_CONFIG, [command, "--seed", str(BIG_SEED)])
       for command in BIG_SEED_COMMANDS},
    "plan-shots/no-out": (None, PLAN_SHOTS_ARGV),
    "plan-shots/out": (None, [*PLAN_SHOTS_ARGV, "--out", OUT_TOKEN]),
    **{f"help/{command.replace(' ', '-')}": (None, [*command.split()[1:], "--help"])
       for command in HELP_COMMANDS},
}


def subparsers() -> dict:
    """{command: its subparser}, whose --help texts the help cases store."""
    return next(action for action in _build_parser()._actions
                if isinstance(action, argparse._SubParsersAction)).choices


def outputs(name: str, tmp) -> dict:
    """Run case `name` in the empty directory `tmp`: {store path: bytes} of every output."""
    config, argv = CASES[name]
    out = os.path.join(tmp, "out")
    if config is not None:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        argv = [*argv, "--config", path, "--out", out]
    argv = [out if arg == OUT_TOKEN else arg for arg in argv]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), mock.patch.dict(os.environ, COLUMNS="80"):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    found = {"exit_code": f"{code}\n".encode(),
             "stdout": stdout.getvalue().replace(out, OUT_TOKEN).encode()}
    if os.path.isdir(out):
        for entry in sorted(os.listdir(out)):
            with open(os.path.join(out, entry), "rb") as fh:
                found[f"out/{entry}"] = fh.read()
    return found


def stored(name: str) -> dict:
    """{store path: bytes} of every file tests/golden/ holds for case `name`."""
    root = STORE / name
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


if __name__ == "__main__":
    shutil.rmtree(STORE, ignore_errors=True)
    for case in CASES:
        with tempfile.TemporaryDirectory() as scratch:
            for rel, data in outputs(case, scratch).items():
                target = STORE / case / rel
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_bytes(data)
