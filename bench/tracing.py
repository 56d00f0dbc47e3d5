"""Span tracing for the traced pass, recorded from the benchmark's own files.

The program is not edited: `install` replaces each traced function with a
wrapper at the place its caller looks the name up (a module global such as
``circuits.noise_superop`` and ``perturbation.noise_superop``, or a method
on ``CircuitSimulator``), and `uninstall` puts every original back.

Spans (name, start, end, parent, op) are kept in memory. A span's layer is
the part of its name before the first dot; a layer's self time is its span
time minus the time its child spans cover. The root span of each op is
named ``op``; its self time is op time that no layer accounts for.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import Counter

# (module, attribute, span name). Class methods are given as "Class.method".
TARGETS = (
    ("cli", "load_config", "config.load"),
    ("cli", "run_estimate", "experiments.run_estimate"),
    ("cli", "run_sweep_depth", "experiments.run_sweep_depth"),
    ("cli", "run_compare_noise", "experiments.run_compare_noise"),
    ("cli", "run_verify_perturbation", "experiments.run_verify_perturbation"),
    ("cli", "write_csv", "experiments.io"),
    ("cli", "write_text", "experiments.io"),
    ("experiments", "build_problem", "config.build_problem"),
    ("experiments", "run", "estimator.run"),
    ("experiments", "iqae_run", "baseline.iqae_run"),
    ("experiments", "line_plot", "svgplot.line_plot"),
    ("experiments", "lemma1_check", "perturbation.lemma1"),
    ("experiments", "lemma2_check", "perturbation.lemma2"),
    ("experiments", "theorem1_check", "perturbation.theorem1"),
    ("experiments", "subspace_basis", "perturbation.subspace_basis"),
    ("perturbation", "subspace_basis", "perturbation.subspace_basis"),
    ("estimator", "seed_theta", "estimator.seed_theta"),
    ("estimator", "ratio_y", "estimator.solve"),
    ("estimator", "roots_cos", "estimator.solve"),
    ("estimator", "candidate_angles", "estimator.solve"),
    ("estimator", "merge_angles", "estimator.solve"),
    ("estimator", "select_candidate", "estimator.solve"),
    ("estimator", "fit_decay", "estimator.fit_decay"),
    ("circuits", "CircuitSimulator.__init__", "circuits.sim_build"),
    ("circuits", "CircuitSimulator.exact_t", "circuits.exact_t"),
    ("circuits", "CircuitSimulator.sampled_t", "circuits.sampled_t"),
    ("circuits", "CircuitSimulator.prob", "circuits.prob"),
    ("circuits", "noise_superop", "channels.noise_superop"),
    ("perturbation", "noise_superop", "channels.noise_superop"),
    ("channels", "single_qubit_ptm", "channels.single_qubit_ptm"),
    ("channels", "ptm_of_conjugation", "channels.ptm_of_conjugation"),
    ("circuits", "grover", "model.build"),
    ("circuits", "conjugation_superop", "model.build"),
    ("circuits", "rho_tilde", "model.build"),
    ("perturbation", "grover", "model.build"),
    ("perturbation", "conjugation_superop", "model.build"),
    ("perturbation", "rho_tilde", "model.build"),
    ("perturbation", "eig_dense", "linalg.eig"),
    ("config", "eig_dense", "linalg.eig"),
    ("circuits", "substream", "rng.substream"),
    ("channels", "substream", "rng.substream"),
    ("baseline", "substream", "rng.substream"),
)


class Tracer:
    """In-memory span recorder plus the counts read at the same boundaries."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []    # [name, start, end, parent index or -1, op index]
        self.stack = []
        self.counts = Counter()
        self.maxima = Counter()
        self.op = -1

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, self.clock(), None, parent, self.op])
        idx = len(self.spans) - 1
        self.stack.append(idx)
        return idx

    def close(self, idx: int):
        self.spans[idx][2] = self.clock()
        self.stack.pop()

    def start_op(self) -> int:
        self.op += 1
        return self.open("op")

    def self_times(self) -> Counter:
        """Seconds of self time per span name."""
        out = Counter()
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return out

    def inclusive_times(self) -> Counter:
        """Seconds per span name, counting only outermost spans of that name."""
        out = Counter()
        for name, start, end, parent, _ in self.spans:
            if parent >= 0 and self.spans[parent][0] == name:
                continue
            out[name] += end - start
        return out

    def calls(self) -> Counter:
        return Counter(s[0] for s in self.spans)

    def write(self, path: str):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def _observe(tracer: Tracer, name: str, args, kwargs, result):
    """Counts read from the arguments and results at a span boundary."""
    c = tracer.counts
    if name == "circuits.sampled_t":
        n, shots = args[1], args[2]
        boost = kwargs.get("boost", args[5] if len(args) > 5 else 1)
        c["oracle_calls_run"] += 4 * shots * boost * n  # four circuits of depth n
    elif name == "estimator.run":
        c["iter_attempted"] += len(result.iterations)
        c["iter_ok"] += sum(r.ok for r in result.iterations)
        c["retries"] += sum(r.retried for r in result.iterations)
        c["oracle_calls_reported"] += result.oracle_calls
    elif name == "baseline.iqae_run":
        c["iqae_rounds"] += len(result.rounds)
    elif name == "linalg.eig":
        tracer.maxima["eig_dim_max"] = max(tracer.maxima["eig_dim_max"], len(args[0]))
    elif name == "experiments.io":
        c["io_bytes"] += os.path.getsize(args[0])


def wrap(tracer: Tracer, name: str, fn):
    is_exact_t = name == "circuits.exact_t"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if is_exact_t and args[1] in getattr(args[0], "_t_cache", ()):
            tracer.counts["exact_t_memo_hits"] += 1
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        _observe(tracer, name, args, kwargs, result)
        return result

    return wrapper


def install(tracer: Tracer) -> list:
    """Patch every target; returns what `uninstall` needs to undo it.

    A target the program no longer has raises LookupError, with nothing left
    patched: its layer would otherwise read 0 and look like a speed-up. A
    change that renames a traced function updates TARGETS with it.
    """
    import importlib

    undo = []
    try:
        for module_name, attr, name in TARGETS:
            owner = importlib.import_module(f"nrqae.{module_name}")
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = vars(owner).get(leaf) if owner is not None else None
            if original is None:
                raise LookupError(f"traced target nrqae.{module_name}.{attr} not found")
            undo.append((owner, leaf, original))
            setattr(owner, leaf, wrap(tracer, name, original))
    except BaseException:
        uninstall(undo)
        raise
    return undo


def uninstall(undo: list):
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
