"""nrqae benchmark: one workload, one process, one closed-loop client.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from any directory; paths resolve from this file. The workload seed
chooses the ops (see workloads.py); each op starts when the previous one
has finished. BLAS/OpenMP threads are pinned before numpy loads.

--trace 0: one warm-up op, then ops for S seconds, untraced, with set-up
probes in fresh interpreters spread between them. Prints the end-to-end
metrics, with every op and probe time scaled to a reference machine speed
(SpeedScale, setup_probe); the unscaled figures are in the notes.
--trace 1: one warm-up op, then a fixed list of ops, each run untraced and
then traced, so per-layer counts repeat exactly for a seed. Prints per-layer
metrics; the traced pass must reproduce every untraced fingerprint.

Every op is checked against the checked-in reference. The report lines
come first; the last stdout line is the JSON result. The full record goes
to bench/results/BENCH_<workload>_trace<0|1>.json, spans to bench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

import tracing
import workloads as wl

BLAS_THREADS = 2
SETUP_PROBES = 25
# Machine-speed reference: a fixed piece of work that runs no nrqae code, of
# the kind the timing is made of, timed next to it. Each timing is scaled by
# SPEED_REF_S[kind] / (reference time), giving seconds at the speed of the
# machine the references were taken on (2 vCPU Xeon, KVM). Ops use the
# workload's speed_kind, timed just before and after each op (SpeedScale);
# set-up uses the probe's own import of numpy. See NOTES.md, "Speed noise".
SPEED_STEPS = 100_000  # interpreter loop steps
SPEED_DIM = 256  # BLAS loop: products of a SPEED_DIM x SPEED_DIM complex unitary
SPEED_MATMULS = 8
SPEED_REF_S = {"interpreter": 0.010, "blas": 0.014, "import": 0.092}
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
RESULTS_DIR = os.path.join(wl.BENCH_DIR, "results")
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_threads() -> int:
    n = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    for var in _THREAD_VARS:
        os.environ[var] = str(n)
    return n


def _cache_sizes() -> dict:
    out = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for entry in sorted(os.listdir(base)):
            if not entry.startswith("index"):
                continue

            def read(name, entry=entry):
                with open(os.path.join(base, entry, name)) as fh:
                    return fh.read().strip()

            out[f"L{read('level')}-{read('type').lower()}"] = read("size")
    except OSError:
        return {"unknown": "cache sizes not readable"}
    return out


def environment(threads: int, seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": threads,
        "thread_env": {v: os.environ[v] for v in _THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "workload_seed": seed,
        "caches": _cache_sizes(),
    }


def setup_probe(config_paths: dict) -> tuple:
    """Set-up seconds measured in a fresh interpreter, raw and scaled.

    The probe times its import of numpy on its own; it is the same kind of
    work as the rest of set-up, so it is the reference for the machine's speed.
    """
    probe = os.path.join(wl.BENCH_DIR, "probe_setup.py")
    proc = subprocess.run([sys.executable, probe, *config_paths.values()],
                          capture_output=True, text=True, timeout=120, check=True)
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return out["setup_s"], out["setup_s"] * SPEED_REF_S["import"] / out["numpy_import_s"]


def _interpreter_loop():
    acc = 0
    for i in range(SPEED_STEPS):
        acc += i * i % 7


def _blas_loop():
    import numpy as np

    # Unitary, so repeated products neither grow nor underflow.
    matrix = np.fft.fft(np.eye(SPEED_DIM)) / np.sqrt(SPEED_DIM)

    def loop():
        product = matrix
        for _ in range(SPEED_MATMULS):
            product = matrix @ product

    return loop


class SpeedScale:
    """Scales a timing by the machine's speed, measured just before and after it.

    The reference loop runs no nrqae code, so a change to the program moves
    scaled timings as much as raw ones; only the machine's speed cancels.
    """

    def __init__(self, kind: str):
        self.loop = _blas_loop() if kind == "blas" else _interpreter_loop
        self.ref_s = SPEED_REF_S[kind]
        self.factors = []
        self.last = self.time_loop()

    def time_loop(self) -> float:
        t0 = time.perf_counter()
        self.loop()
        return time.perf_counter() - t0

    def __call__(self, seconds: float) -> float:
        now = self.time_loop()
        factor = self.ref_s / ((self.last + now) / 2.0)
        self.last = now
        self.factors.append(factor)
        return seconds * factor


def tail(latencies: list):
    """Highest listed percentile with at least 10 samples beyond it, or None."""
    n = len(latencies)
    ordered = sorted(latencies)
    for p in TAIL_PERCENTILES:
        beyond = int(n * (100.0 - p) / 100.0)
        if beyond >= 10:
            return p, ordered[n - beyond - 1], beyond
    return None


class Runner:
    """Runs ops of one workload and keeps the failure tally."""

    def __init__(self, workload, seed: int, main, config_paths: dict):
        self.workload = workload
        self.stream = workload.ops(seed)
        self.main = main
        self.config_paths = config_paths
        self.reference = wl.load_reference(workload)
        self.attempted = 0
        self.failures = []

    def run(self, op, main=None, tracer=None) -> wl.OpResult:
        result = wl.run_op(op, self.config_paths, main or self.main, time.perf_counter, tracer)
        self.attempted += 1
        reason = wl.op_failed(result, self.reference)
        if reason:
            self.failures.append(f"{op.key}: {reason}")
        return result


def e2e_pass(runner: Runner, seconds: float) -> tuple:
    """Timed ops for `seconds`, with set-up probes spread evenly between them.

    On a shared virtual machine the CPU speed changes every few seconds and
    drifts over minutes. Spreading the probes over the window keeps the
    set-up median from resting on one speed, and every op and probe is also
    kept scaled to the reference speed (SpeedScale, setup_probe). Returns (op
    results, scaled op seconds, set-up seconds, scaled set-up seconds, op scale
    factors).
    """
    runner.run(next(runner.stream))  # warm-up: lazy imports, BLAS pools, file cache
    scale = SpeedScale(runner.workload.speed_kind)
    results, ops_scaled, probes = [], [], []
    start = time.perf_counter()
    while (elapsed := time.perf_counter() - start) < seconds or not results:
        if len(probes) * seconds <= elapsed * SETUP_PROBES:
            probes.append(setup_probe(runner.config_paths))
        results.append(runner.run(next(runner.stream)))
        ops_scaled.append(scale(results[-1].seconds))
    while len(probes) < SETUP_PROBES:
        probes.append(setup_probe(runner.config_paths))
    setup, setup_scaled = (list(v) for v in zip(*probes))
    return results, ops_scaled, setup, setup_scaled, scale.factors


def e2e_metrics(results: list, ops_scaled: list, setup: list, setup_scaled: list,
                factors: list) -> tuple:
    lat = [r.seconds for r in results]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (statistics.median(setup_scaled), "s"),
        "ops_per_s": (len(ops_scaled) / sum(ops_scaled), "1/s"),
        "op_p50_s": (statistics.median(ops_scaled), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    notes = {
        "op_samples": len(lat),
        "speed_scale": {"median": statistics.median(factors), "min": min(factors),
                        "max": max(factors), "samples": len(factors)},
        "unscaled": {"setup_s": statistics.median(setup), "ops_per_s": len(lat) / sum(lat),
                     "op_p50_s": statistics.median(lat)},
        "setup_samples": setup,
    }
    t = tail(ops_scaled)
    if t is None:
        notes["op_tail_s"] = (f"left out: {len(lat)} samples, fewer than 40 needed for "
                              "p75 with 10 beyond it")
    else:
        p, value, beyond = t
        metrics["op_tail_s"] = (value, "s")
        notes["op_tail_s"] = f"p{p:g} over {len(lat)} samples, {beyond} beyond it"
    errs = [min(abs(v - t_), abs(m - t_)) for r in results for v, m, t_ in r.estimates]
    if errs:
        metrics["abs_err_p50"] = (statistics.median(errs), "1")
        notes["abs_err_p50"] = f"median over {len(errs)} estimates"
    else:
        notes["abs_err_p50"] = "left out: the workload's commands print no estimate"
    return metrics, notes


def traced_passes(runner: Runner, tracer: tracing.Tracer) -> tuple:
    """Each op of a fixed list runs untraced, then at once traced.

    The wrappers are installed for the traced run of each op only, so every
    pair runs close together in time and shares the machine's speed.
    """
    runner.run(next(runner.stream))  # warm-up
    ops = [next(runner.stream) for _ in range(runner.workload.trace_ops)]
    traced_main = tracing.wrap(tracer, "cli.main", runner.main)
    plain, traced = [], []
    for op in ops:
        plain.append(runner.run(op))
        undo = tracing.install(tracer)
        try:
            traced.append(runner.run(op, main=traced_main, tracer=tracer))
        finally:
            tracing.uninstall(undo)
    for a, b in zip(plain, traced):
        if a.fingerprint != b.fingerprint or a.rcs != b.rcs:
            runner.failures.append(f"{a.key}: traced fingerprint differs from untraced")
    return plain, traced


def layer_metrics(tracer: tracing.Tracer, plain: list, traced: list) -> tuple:
    n_ops = len(traced)
    incl = tracer.inclusive_times()
    own = tracer.self_times()
    calls = tracer.calls()
    c = tracer.counts
    layer_self = Counter()
    for name, s in own.items():
        layer_self[name.split(".")[0]] += s
    untraced_s = sum(r.seconds for r in plain)
    traced_s = sum(r.seconds for r in traced)
    overhead = statistics.median((t.seconds - u.seconds) / u.seconds
                                 for u, t in zip(plain, traced))
    op_s = incl["op"]

    def per_op(seconds):
        return (seconds / n_ops, "s")

    def count(value):
        return (int(value), "count")

    def ratio(num, base):
        return (num / base if base else 0.0, "ratio")

    m = {
        "channels.noise_superop_calls": count(calls["channels.noise_superop"]),
        "channels.noise_superop_s": per_op(incl["channels.noise_superop"]),
        "channels.single_qubit_ptm_s": per_op(incl["channels.single_qubit_ptm"]),
        "channels.ptm_of_conjugation_calls": count(calls["channels.ptm_of_conjugation"]),
        "channels.self_s": per_op(layer_self["channels"]),
        "model.build_s": per_op(incl["model.build"]),
        "circuits.sim_builds": count(calls["circuits.sim_build"]),
        "circuits.sim_build_s": per_op(incl["circuits.sim_build"]),
        "circuits.exact_t_calls": count(calls["circuits.exact_t"]),
        "circuits.exact_t_s": per_op(incl["circuits.exact_t"]),
        "circuits.sampled_t_calls": count(calls["circuits.sampled_t"]),
        "circuits.sampled_t_s": per_op(incl["circuits.sampled_t"]),
        "circuits.prob_calls": count(calls["circuits.prob"]),
        "circuits.prob_s": per_op(incl["circuits.prob"]),
        "circuits.t_memo_hit_ratio": ratio(c["exact_t_memo_hits"], calls["circuits.exact_t"]),
        "circuits.oracle_calls_run": count(c["oracle_calls_run"]),
        "circuits.self_s": per_op(layer_self["circuits"]),
        "estimator.run_calls": count(calls["estimator.run"]),
        "estimator.self_s": per_op(layer_self["estimator"]),
        "estimator.seed_theta_calls": count(calls["estimator.seed_theta"]),
        "estimator.seed_theta_s": per_op(incl["estimator.seed_theta"]),
        "estimator.solve_s": per_op(incl["estimator.solve"]),
        "estimator.fit_decay_s": per_op(incl["estimator.fit_decay"]),
        "estimator.iter_attempted": count(c["iter_attempted"]),
        "estimator.iter_ok_ratio": ratio(c["iter_ok"], c["iter_attempted"]),
        "estimator.retries": count(c["retries"]),
        "estimator.oracle_calls_reported": count(c["oracle_calls_reported"]),
        "baseline.iqae_calls": count(calls["baseline.iqae_run"]),
        "baseline.rounds": count(c["iqae_rounds"]),
        "baseline.self_s": per_op(layer_self["baseline"]),
        "rng.substream_calls": count(calls["rng.substream"]),
        "rng.substream_s": per_op(incl["rng.substream"]),
        "perturbation.lemma1_s": per_op(incl["perturbation.lemma1"]),
        "perturbation.lemma2_s": per_op(incl["perturbation.lemma2"]),
        "perturbation.theorem1_s": per_op(incl["perturbation.theorem1"]),
        "perturbation.subspace_basis_calls": count(calls["perturbation.subspace_basis"]),
        "perturbation.self_s": per_op(layer_self["perturbation"]),
        "linalg.eig_calls": count(calls["linalg.eig"]),
        "linalg.eig_s": per_op(incl["linalg.eig"]),
        "linalg.eig_dim_max": count(tracer.maxima["eig_dim_max"]),
        "config.load_s": per_op(incl["config.load"]),
        "experiments.self_s": per_op(layer_self["experiments"]),
        "experiments.io_s": per_op(incl["experiments.io"]),
        "experiments.io_bytes": count(c["io_bytes"]),
        "svgplot.line_plot_s": per_op(incl["svgplot.line_plot"]),
        "cli.self_s": per_op(layer_self["cli"]),
        "trace.ops": count(n_ops),
        "trace.overhead_frac": (overhead, "ratio"),
        "trace.unaccounted_frac": ratio(own["op"], op_s),
    }
    by_self = sorted(((s, name) for name, s in own.items() if name != "op"), reverse=True)
    shares = {layer: s / op_s for layer, s in sorted(layer_self.items()) if layer != "op"}
    notes = {
        "layer_self_share_of_op": shares,
        "top_spans_by_self_s": [[name, s / n_ops] for s, name in by_self[:6]],
        "oracle_calls_reported_over_run": (c["oracle_calls_reported"] / c["oracle_calls_run"]
                                           if c["oracle_calls_run"] else None),
        "untraced_op_s": untraced_s / n_ops,
        "traced_op_s": traced_s / n_ops,
    }
    return m, notes


def predictions(workload: str, notes: dict) -> dict:
    """The layer profile each workload was chosen for, checked as measured."""
    share = notes["layer_self_share_of_op"]
    top = [name for name, _ in notes["top_spans_by_self_s"][:2]]
    if workload == "wide-q5":
        v = share.get("circuits", 0.0) + share.get("channels", 0.0)
        return {"claim": "circuits + channels self time >= 90% of op time",
                "measured": v, "met": v >= 0.9}
    if workload == "verify-q3":
        return {"claim": "linalg.eig and channels.single_qubit_ptm lead self time",
                "measured": top,
                "met": set(top) == {"linalg.eig", "channels.single_qubit_ptm"}}
    v = sum(share.get(k, 0.0) for k in ("estimator", "channels", "baseline", "rng"))
    return {"claim": "estimator + channels + baseline + rng self time > circuits",
            "measured": [v, share.get("circuits", 0.0)], "met": v > share.get("circuits", 0.0)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    wl.check_source_tree()
    threads = pin_threads()
    workload = wl.WORKLOADS[args.workload]
    config_dir = os.path.join(wl.WORK_DIR, f"configs-{os.getpid()}")
    try:
        return _run(args, workload, threads, wl.write_configs(workload, config_dir))
    finally:
        shutil.rmtree(config_dir, ignore_errors=True)


def _run(args, workload, threads: int, config_paths: dict) -> int:
    sys.path.insert(0, wl.SRC_DIR)
    import nrqae
    import nrqae.cli

    if not os.path.abspath(nrqae.__file__).startswith(wl.SRC_DIR + os.sep):
        raise SystemExit(f"imported nrqae from {nrqae.__file__}, not from {wl.SRC_DIR}")
    runner = Runner(workload, args.seed, nrqae.cli.main, config_paths)
    record = {"workload": workload.name, "trace": args.trace,
              "env": environment(threads, args.seed)}
    if args.trace == 0:
        metrics, notes = e2e_metrics(*e2e_pass(runner, args.seconds))
        contract = ("setup_s", "ops_per_s", "op_p50_s", "peak_rss_mb")
    else:
        tracer = tracing.Tracer()
        plain, traced = traced_passes(runner, tracer)
        metrics, notes = layer_metrics(tracer, plain, traced)
        notes["prediction"] = predictions(workload.name, notes)
        contract = tuple(metrics)
        tracer.write(os.path.join(RESULTS_DIR, f"spans_{workload.name}_seed{args.seed}.jsonl"))
    failed = len(runner.failures)
    metrics["fail_frac"] = (failed / runner.attempted, "ratio")
    record.update(metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                  notes=notes, attempted=runner.attempted, failures=runner.failures)

    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, f"BENCH_{workload.name}_trace{args.trace}.json"),
              "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"# nrqae bench workload={workload.name} seed={args.seed} trace={args.trace}")
    print("env " + json.dumps(record["env"]))
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print("notes " + json.dumps(notes))
    for f in runner.failures:
        print(f"FAILED {f}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in contract},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
