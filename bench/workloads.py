"""Workload definitions, op execution and fingerprints for the nrqae benchmark.

Every op calls the public entry point ``nrqae.cli.main(argv)`` in process,
writes its artifacts to a fresh directory, and is fingerprinted as the
sha256 of (command, exit code, printed estimate rounded to 1e-9) for each
command plus the sha256 of every artifact it wrote. An op fails if it
raises, exits with another code than its reference, or its fingerprint
differs from the reference checked in under ``bench/reference/``.

Ops come from a fixed pool per workload, so the reference covers every op
any seed can produce; the workload seed only chooses which pool entries run
and in what order. Why each workload exists is recorded in NOTES.md.

This module imports nothing heavy at import time: ``nrqae`` (and so numpy)
is imported by the caller after BLAS threads are pinned.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import re
import shutil
import tempfile
from dataclasses import dataclass
from typing import Optional

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(ROOT, "src")
REFERENCE_DIR = os.path.join(BENCH_DIR, "reference")
WORK_DIR = os.path.join(BENCH_DIR, ".work")

# The README config: every CLI command accepts it.
README_CONFIG = {
    "config_version": 1, "mode": "amplitude", "qubits": 1, "amplitude": 0.75,
    "noise": {"kind": "pauli"}, "shots": 100000, "iterations": 5, "trials": 10,
    "seed": 7,
}

# Gentle channels: the README's default strengths leave no signal at q >= 4.
WIDE_NOISES = (
    {"kind": "pauli",
     "params": {"weight_i": 0.99, "weight_x": 0.003, "weight_y": 0.002, "weight_z": 0.005}},
    {"kind": "amplitude-damping",
     "params": {"identity_weight": 0.99, "damping_weight": 0.01}},
)
WIDE_TARGETS = (
    {"mode": "amplitude", "amplitude": 0.3},
    {"mode": "amplitude", "amplitude": 0.75},
    {"mode": "observable", "observable": "ZXIZX", "expectation": 0.4},
    {"mode": "observable", "observable": "ZXIZX", "expectation": -0.6},
)
WIDE_CYCLE = 16  # 8 problems x {exact, 1e5 shots}

_ESTIMATE_RE = re.compile(r"value=(\S+) mirror=(\S+) true=(\S+)")


@dataclass(frozen=True)
class Op:
    """One closed-loop op: a pool key plus the CLI commands it runs, in order."""

    key: str
    commands: tuple  # argv tuples without --out


@dataclass
class OpResult:
    key: str
    seconds: float
    rcs: list
    fingerprint: str
    estimates: list  # (value, mirror, true) per command that prints one
    error: Optional[str] = None


@dataclass(frozen=True)
class Workload:
    name: str
    configs: dict        # config file name -> config dict
    pool: tuple          # every op any seed can produce
    trace_ops: int       # ops per pass in the traced (--trace 1) run
    in_order: bool = False  # run the pool in order from a seeded start
    # What op time is made of, so which reference loop scales it (run.SpeedScale):
    # "interpreter" (Python-bound, q <= 3) or "blas" (dense products, q = 5).
    speed_kind: str = "interpreter"

    def ops(self, seed: int):
        """Endless op stream for a workload seed; the same seed gives the same ops."""
        rng = random.Random(f"{self.name}:{seed}")
        order = list(range(len(self.pool)))
        if self.in_order:
            start = rng.randrange(len(order))
            order = order[start:] + order[:start]
        else:
            rng.shuffle(order)
        for i in itertools.cycle(order):
            yield self.pool[i]


def _readme_q1() -> Workload:
    cmds = ("estimate", "sweep-depth", "compare-noise", "verify-perturbation")
    pool = tuple(
        Op(key=f"s{j}", commands=tuple((c, "--config", "readme.json", "--seed", str(j))
                                       for c in cmds))
        for j in range(256))
    return Workload("readme-q1", {"readme.json": README_CONFIG}, pool, trace_ops=16)


def _wide_case(j: int):
    """(problem index, exact) for position j of the 16-case cycle."""
    half = j // 8
    problem = (j + 3 * half) % 8
    return problem, j % 2 == 0


def _wide_q5() -> Workload:
    configs = {}
    for p in range(8):
        for exact in (True, False):
            cfg = {"config_version": 1, "qubits": 5, "shots": 100000, "iterations": 5,
                   "seed": 7, "noise": WIDE_NOISES[p % 2], "exact": exact}
            cfg.update(WIDE_TARGETS[p // 2])
            configs[f"wide-p{p}-{'exact' if exact else 'shots'}.json"] = cfg
    # Pool order follows the cycle, so in-order windows never run one problem
    # twice in a row and alternate exact / sampled.
    pool = []
    for j in range(3 * WIDE_CYCLE):
        p, exact = _wide_case(j % WIDE_CYCLE)
        name = f"wide-p{p}-{'exact' if exact else 'shots'}.json"
        pool.append(Op(key=f"j{j}", commands=(("estimate", "--config", name,
                                               "--seed", str(j)),)))
    return Workload("wide-q5", configs, tuple(pool), trace_ops=4, in_order=True,
                    speed_kind="blas")


def _verify_q3() -> Workload:
    cfg = dict(README_CONFIG, qubits=3, compare_kinds=["pauli", "statistical"])
    pool = tuple(
        Op(key=f"s{j}", commands=(("verify-perturbation", "--config", "verify.json",
                                   "--seed", str(j)),))
        for j in range(96))
    return Workload("verify-q3", {"verify.json": cfg}, pool, trace_ops=16)


WORKLOADS = {w.name: w for w in (_readme_q1(), _wide_q5(), _verify_q3())}


def check_source_tree():
    """Refuse to run unless the nrqae sources sit next to the benchmark."""
    if not os.path.isfile(os.path.join(SRC_DIR, "nrqae", "cli.py")):
        raise SystemExit(f"nrqae sources not found under {SRC_DIR}")


def write_configs(workload: Workload, directory: str) -> dict:
    """Write the workload's config files; returns name -> path."""
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for name, cfg in workload.configs.items():
        path = os.path.join(directory, name)
        with open(path, "w") as fh:
            json.dump(cfg, fh, indent=1, sort_keys=True)
        paths[name] = path
    return paths


def load_reference(workload: Workload) -> dict:
    with open(os.path.join(REFERENCE_DIR, f"{workload.name}.json")) as fh:
        return json.load(fh)["ops"]


def _fingerprint(entries: list, out_dir: str) -> str:
    h = hashlib.sha256()
    for cmd, rc, est in entries:
        h.update(f"{cmd}\0{rc}\0{est}\n".encode())
    for dirpath, _, files in sorted(os.walk(out_dir)):
        for fname in sorted(files):
            path = os.path.join(dirpath, fname)
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            h.update(f"{os.path.relpath(path, out_dir)}\0{digest}\n".encode())
    return h.hexdigest()


def run_op(op: Op, config_paths: dict, main, clock, tracer=None) -> OpResult:
    """Run one op through `main` (nrqae.cli.main); time only the main() calls.

    With a tracer, the op's root span covers its commands.
    """
    os.makedirs(WORK_DIR, exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix="op-", dir=WORK_DIR)
    root = tracer.start_op() if tracer else None
    try:
        entries, rcs, estimates = [], [], []
        seconds = 0.0
        for argv in op.commands:
            argv = [config_paths.get(a, a) for a in argv] + ["--out", out_dir]
            buf = io.StringIO()
            t0 = clock()
            try:
                with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                    rc = main(argv)
            except (Exception, SystemExit) as exc:  # op boundary: record and go on
                seconds += clock() - t0
                return OpResult(op.key, seconds, rcs, "", estimates,
                                error=f"{argv[0]}: {type(exc).__name__}: {exc}")
            seconds += clock() - t0
            est = ""
            m = _ESTIMATE_RE.search(buf.getvalue())
            if m:
                value, mirror, true = (float(g) for g in m.groups())
                estimates.append((value, mirror, true))
                est = f"{round(value, 9):.9f}"
            entries.append((argv[0], rc, est))
            rcs.append(rc)
        if tracer:
            tracer.close(root)
            root = None
        return OpResult(op.key, seconds, rcs, _fingerprint(entries, out_dir), estimates)
    finally:
        if root is not None:
            tracer.close(root)
        shutil.rmtree(out_dir, ignore_errors=True)


def op_failed(result: OpResult, reference: dict) -> Optional[str]:
    """Reason the op counts as failed against its reference, or None."""
    if result.error:
        return result.error
    ref = reference.get(result.key)
    if ref is None:
        return f"no reference for {result.key}"
    if result.rcs != ref["rcs"]:
        return f"exit codes {result.rcs} != reference {ref['rcs']}"
    if result.fingerprint != ref["fingerprint"]:
        return "fingerprint differs from reference"
    return None
