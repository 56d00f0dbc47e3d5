"""The benchmark's own tests, at tiny size (one or two ops per workload).

    python3 -m pytest bench/tests/check_bench.py

Kept out of the package's default test collection (the file name does not
match test_*.py) so the harness does not join the package's test suite.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

with open(os.path.join(wl.ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


@pytest.fixture(scope="module")
def main():
    run.pin_threads()
    sys.path.insert(0, wl.SRC_DIR)
    import nrqae.cli

    return nrqae.cli.main


def _bench(capsys, argv) -> tuple:
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.fixture
def tiny(monkeypatch):
    """Traced runs of one op per pass."""
    for name, w in wl.WORKLOADS.items():
        monkeypatch.setitem(wl.WORKLOADS, name, dataclasses.replace(w, trace_ops=1))


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_every_workload_runs(main, tmp_path, name):
    workload = wl.WORKLOADS[name]
    runner = run.Runner(workload, 0, main, wl.write_configs(workload, str(tmp_path)))
    result = runner.run(next(runner.stream))
    assert runner.failures == [] and runner.attempted == 1
    assert result.rcs and result.fingerprint


def test_ops_follow_seed():
    def take(seed):
        stream = wl.WORKLOADS["verify-q3"].ops(seed)
        return [next(stream).key for _ in range(5)]

    assert take(3) == take(3) and take(3) != take(4)
    wide = wl.WORKLOADS["wide-q5"]
    stream = wide.ops(5)
    cfgs = [next(stream).commands[0][2] for _ in range(2 * len(wide.pool))]
    for a, b in zip(cfgs, cfgs[1:]):
        assert a.split("-")[1] != b.split("-")[1]  # problem changes
        assert a.endswith("exact.json") != b.endswith("exact.json")  # modes alternate


def test_every_metric_printed_with_unit(main, capsys, tiny):
    report, out = _bench(capsys, ["--workload", "readme-q1", "--seed", "0",
                                  "--seconds", "0.1", "--trace", "0"])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 2
    assert {k: v["unit"] for k, v in out["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in out["metrics"].values())
    text = "\n".join(report)
    for name in ("op_tail_s", "abs_err_p50", "fail_frac", "blas_threads", "caches"):
        assert name in text

    report, out = _bench(capsys, ["--workload", "readme-q1", "--seed", "0",
                                  "--seconds", "0.1", "--trace", "1"])
    assert out["correct"]
    assert {k: v["unit"] for k, v in out["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}


def test_tampered_reference_fails_op(main, capsys, monkeypatch):
    real = wl.load_reference

    def tampered(workload):
        ref = real(workload)
        return {k: dict(v, fingerprint="0" * 64) for k, v in ref.items()}

    monkeypatch.setattr(wl, "load_reference", tampered)
    report, out = _bench(capsys, ["--workload", "verify-q3", "--seed", "0",
                                  "--seconds", "0.1", "--trace", "0"])
    assert not out["correct"] and out["failed"] == out["attempted"] > 0
    frac = next(line for line in report if line.startswith("metric fail_frac"))
    assert float(frac.split()[3]) > 0


def _traced_targets() -> dict:
    out = {}
    for module_name, attr, _ in tracing.TARGETS:
        owner = sys.modules[f"nrqae.{module_name}"]
        for part in attr.split("."):
            owner = getattr(owner, part)
        out[(module_name, attr)] = owner
    return out


def test_wrappers_removed_and_counts_repeat(main, tmp_path, tiny):
    workload = wl.WORKLOADS["readme-q1"]
    paths = wl.write_configs(workload, str(tmp_path))
    before = _traced_targets()
    counts = []
    for _ in range(2):
        runner = run.Runner(workload, 1, main, paths)
        tracer = tracing.Tracer()
        plain, traced = run.traced_passes(runner, tracer)
        assert runner.failures == []
        assert [r.fingerprint for r in plain] == [r.fingerprint for r in traced]
        after = _traced_targets()
        assert all(after[k] is v for k, v in before.items()), "a wrapper was left installed"
        metrics, _ = run.layer_metrics(tracer, plain, traced)
        counts.append({k: v for k, (v, unit) in metrics.items() if unit == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["circuits.sim_builds"] > 0 and counts[0]["rng.substream_calls"] > 0


def test_missing_target_fails_traced_pass(main, monkeypatch):
    before = _traced_targets()
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (
        ("circuits", "no_such_function", "circuits.gone"),))
    with pytest.raises(LookupError, match="no_such_function"):
        tracing.install(tracing.Tracer())
    monkeypatch.undo()
    after = _traced_targets()
    assert all(after[k] is v for k, v in before.items())


def test_tail_needs_ten_beyond():
    assert run.tail([1.0] * 39) is None
    p, value, beyond = run.tail([float(i) for i in range(40)])
    assert (p, value, beyond) == (75.0, 29.0, 10)
    assert run.tail([float(i) for i in range(100)])[0] == 90.0


@pytest.mark.parametrize("kind", ["interpreter", "blas"])
def test_speed_scale_uses_loop_times_around_each_timing(monkeypatch, kind):
    loops = iter([0.02, 0.02, 0.005])
    monkeypatch.setattr(run.SpeedScale, "time_loop", lambda self: next(loops))
    scale = run.SpeedScale(kind)
    ref = run.SPEED_REF_S[kind]
    assert scale(1.0) == pytest.approx(ref / 0.02)
    assert scale(2.0) == pytest.approx(2.0 * ref / 0.0125)
    assert len(scale.factors) == 2


def test_refuses_without_sources(tmp_path):
    import shutil
    import subprocess

    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "results", "__pycache__"))
    shutil.copy(os.path.join(wl.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "readme-q1",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
