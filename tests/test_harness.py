"""Config handling, experiment runners, SVG output, and the CLI."""

import dataclasses
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from golden_cases import subparsers

from nrqae import cli, model, perturbation
from nrqae.channels import NoiseSpec
from nrqae.circuits import CircuitSimulator, sampled_provider
from nrqae.cli import main
from nrqae.config import (MAX_DEPTH, MAX_QUBITS, ExperimentConfig, build_problem,
                          config_from_dict, load_config)
from nrqae.errors import ConfigError, DegenerateProblemError
from nrqae.estimator import run
from nrqae.experiments import (VerifyReport, _median, hoeffding_shots, run_compare_noise,
                               run_estimate, run_sweep_depth,
                               run_verify_perturbation, write_csv)
from nrqae.svgplot import line_plot

# two-qubit state pair with overlap ~0.53, frozen so the perturbation
# slopes stay far from both degenerate corners
PSI4 = [[0.05528649439827491, 0.5263037941421089],
        [-0.152871789477933, 0.3345981937745342],
        [-0.12079569834306281, -0.09516617834010697],
        [-0.7139791496631485, 0.22629086619137373]]
PHI4 = [[0.1818874506617437, -0.21268375651884527],
        [-0.35821337756462623, -0.5123616183762825],
        [0.6322919811796548, 0.2942675105305514],
        [-0.20086840445561324, -0.06416143722594386]]


def test_hoeffding_shots():
    assert hoeffding_shots(0.01, 0.05) == 18445
    assert hoeffding_shots(0.1, 0.05) == 185
    assert hoeffding_shots(0.5, 2.0 / np.e) == 2
    assert hoeffding_shots(0.05, 0.05) == 738
    for eps, delta in ((0.0, 0.5), (1.0, 0.5), (0.1, 0.0), (0.1, 1.0)):
        with pytest.raises(ConfigError):
            hoeffding_shots(eps, delta)
    # eps^2 underflows to 0, or 2 / delta overflows: the count is not a finite float
    for eps, delta in ((1e-200, 0.05), (0.01, 1e-320), (1e-160, 0.05)):
        with pytest.raises(ConfigError, match="overflows"):
            hoeffding_shots(eps, delta)
    assert hoeffding_shots(1e-150, 0.05) == math.ceil(math.log(40.0) / (2.0 * 1e-150 * 1e-150))


def test_config_dict_round_trip():
    cfg = ExperimentConfig(mode="observable", qubits=2, expectation=0.4,
                           observable="ZX", noise=NoiseSpec(kind="statistical", seed=3),
                           compare_kinds=["pauli", "depolarizing"], shots=5000,
                           iterations=3, trials=2, seed=11, retry=True)
    d = dataclasses.asdict(cfg)
    assert d["config_version"] == 1
    assert d["noise"] == {"kind": "statistical", "params": {}, "seed": 3}
    assert dataclasses.asdict(config_from_dict(d)) == d


def test_config_dict_rejects_junk():
    with pytest.raises(ConfigError):
        config_from_dict({"mode": "amplitude", "bogus": 1})
    with pytest.raises(ConfigError):
        config_from_dict({"noise": {"kind": "pauli", "bogus": 2}})
    with pytest.raises(ConfigError):
        config_from_dict({"config_version": 99})
    with pytest.raises(ConfigError):
        config_from_dict(["not", "a", "dict"])
    with pytest.raises(ConfigError):
        config_from_dict({"noise": "pauli"})
    # the IQAE baseline in compare-noise runs to its matched budget, so these
    # two keys set nothing and are rejected like any other unknown key
    for key, value in (("target_eps", 0.01), ("confidence", 0.95)):
        with pytest.raises(ConfigError):
            config_from_dict({key: value})
    # keys of mixed types, which sorted() alone cannot order, are named in the message
    with pytest.raises(ConfigError, match=r"unknown config keys: \['a', 1\]"):
        config_from_dict({1: 2, "a": 3})
    with pytest.raises(ConfigError, match=r"unknown noise keys: \['x', 1\]"):
        config_from_dict({"noise": {1: 2, "x": 1}})
    with pytest.raises(ConfigError, match=r"unknown parameters for pauli: \['x', 1\]"):
        config_from_dict({"noise": {"kind": "pauli", "params": {1: 2, "x": 1}}})


def test_config_file_round_trip(tmp_path):
    cfg = ExperimentConfig(amplitude=0.8, shots=321, noise=NoiseSpec(kind="pauli"))
    path = tmp_path / "cfg.json"
    with open(path, "w") as fh:
        json.dump(dataclasses.asdict(cfg), fh)
    assert load_config(str(path)) == cfg


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ConfigError):
        load_config(str(bad))


def test_build_problem_amplitude_geometries():
    for cfg in (ExperimentConfig(theta_g=np.pi / 3),
                ExperimentConfig(amplitude=0.75),
                ExperimentConfig(theta_ch=2 * np.pi / 3)):
        problem = build_problem(cfg)
        assert problem.mode == "amplitude"
        assert abs(abs(np.vdot(problem.phi, problem.psi)) ** 2 - 0.75) < 1e-12


def test_build_problem_explicit_states():
    cfg = ExperimentConfig(qubits=1, psi=[[1.0, 0.0], [0.0, 0.0]],
                           phi=[[0.6, 0.0], [0.8, 0.0]])
    problem = build_problem(cfg)
    assert abs(abs(np.vdot(problem.phi, problem.psi)) ** 2 - 0.36) < 1e-12
    cfg4 = ExperimentConfig(qubits=2, psi=PSI4, phi=PHI4)
    problem = build_problem(cfg4)
    assert problem.psi.shape == (4,)


def test_build_problem_observable():
    cfg = ExperimentConfig(mode="observable", qubits=1, expectation=0.6,
                           observable="Z")
    problem = build_problem(cfg)
    assert problem.mode == "observable"
    got = np.vdot(problem.psi, problem.observable @ problem.psi).real
    assert abs(got - 0.6) < 1e-12
    explicit = ExperimentConfig(mode="observable", qubits=1,
                                psi=[[0.6, 0.0], [0.8, 0.0]], observable="Z")
    got = np.vdot(build_problem(explicit).psi,
                  np.diag([1.0, -1.0]) @ build_problem(explicit).psi).real
    assert abs(got - (0.36 - 0.64)) < 1e-12


@pytest.mark.parametrize("geometry", [
    {"qubits": 2, "psi": [[0.5, 0.0]] * 4, "phi": [[0.0, 0.5]] * 4},  # phi = i psi
    {"psi": [[1.0, 0.0], [0.0, 0.0]], "phi": [[0.0, 0.0], [1.0, 0.0]]},  # phase pi
    {"mode": "observable", "observable": "X", "psi": [[0.5 ** 0.5, 0.0]] * 2},
])
def test_build_problem_rejects_explicit_states_that_span_no_plane(geometry):
    with pytest.raises(DegenerateProblemError):
        build_problem(ExperimentConfig(**geometry))


def test_build_problem_errors():
    with pytest.raises(ConfigError):
        build_problem(ExperimentConfig())  # nothing specified
    with pytest.raises(ConfigError):
        build_problem(ExperimentConfig(amplitude=0.5, theta_g=1.0))
    with pytest.raises(ConfigError):
        build_problem(ExperimentConfig(amplitude=1.0))  # parallel states
    with pytest.raises(ConfigError):
        build_problem(ExperimentConfig(amplitude=-0.2))
    with pytest.raises(ConfigError):
        build_problem(ExperimentConfig(expectation=0.5))  # amplitude mode
    with pytest.raises(ConfigError):
        build_problem(ExperimentConfig(mode="observable", amplitude=0.5,
                                       observable="Z"))
    with pytest.raises(ConfigError):
        build_problem(ExperimentConfig(mode="observable", expectation=0.5))
    with pytest.raises(ConfigError):
        build_problem(ExperimentConfig(mode="observable", qubits=2,
                                       expectation=0.5, observable="Z"))
    with pytest.raises(ConfigError):
        build_problem(ExperimentConfig(psi=[[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(ConfigError):
        build_problem(ExperimentConfig(qubits=1, psi=[[1.0, 0.0]],
                                       phi=[[1.0, 0.0]]))


def test_write_csv_formatting(tmp_path):
    path = tmp_path / "rows.csv"
    rows = [(1, 0.123456789012345, True, None, "x"), (2, 1.0, False, 0.5, "y")]
    write_csv(str(path), ["a", "b", "c", "d", "e"], rows)
    text = path.read_text()
    assert text == ("a,b,c,d,e\n"
                    "1,0.123456789012,1,,x\n"
                    "2,1,0,0.5,y\n")
    write_csv(str(path), ["a", "b", "c", "d", "e"], rows)
    assert path.read_text() == text


def test_run_estimate_exact():
    cfg = ExperimentConfig(theta_g=np.pi / 3, exact=True, iterations=3)
    report = run_estimate(cfg)
    assert abs(report.result.theta_ch - 2 * np.pi / 3) < 1e-9
    assert abs(report.result.value - 0.75) < 1e-9
    assert abs(report.true_value - 0.75) < 1e-12
    assert len(report.rows) == 4
    for i, row in enumerate(report.rows):
        assert row[0] == i
        assert row[1] == 2 ** i
        assert len(row) == 10
        assert row[8] is True


def test_run_sweep_depth():
    cfg = ExperimentConfig(theta_g=np.pi / 3, perturbation=1e-3, trials=3,
                           iterations=3, seed=5)
    report = run_sweep_depth(cfg)
    assert abs(report.theta_true - np.pi / 3) < 1e-12
    assert len(report.rows) == 3 * 4
    assert [d for d, _, _ in report.summary_rows] == [1, 2, 4, 8]
    assert report.slope is not None and report.slope < 0
    assert report.svg.startswith("<svg")
    again = run_sweep_depth(cfg)
    assert again.rows == report.rows
    assert again.svg == report.svg


def test_run_compare_noise_needs_sampling():
    with pytest.raises(ConfigError):
        run_compare_noise(ExperimentConfig(amplitude=0.9, exact=True))


def test_run_compare_noise_rows():
    cfg = ExperimentConfig(amplitude=0.9, noise=NoiseSpec(kind="pauli"),
                           shots=200, trials=2, iterations=2, seed=7)
    report = run_compare_noise(cfg)
    assert report.kinds == ["pauli"]
    assert abs(report.true_value - 0.9) < 1e-12
    assert len(report.rows) == 2 * 3
    budgets = {}
    for row in report.rows:
        assert len(row) == 9
        assert row[0] == "pauli"
        prev = budgets.get(row[1], 0)
        assert row[3] > prev  # cumulative within a trial
        budgets[row[1]] = row[3]
        if row[4] is not None:
            assert 0.0 <= row[4] <= 1.0
            assert row[8] >= 1
    assert report.svg.startswith("<svg")

    # the matched budget is the estimator's own per-iteration charge,
    # retries included
    cfg.retry = True
    report = run_compare_noise(cfg)
    problem = build_problem(cfg)
    retried = 0
    for trial in range(cfg.trials):
        provider = sampled_provider(CircuitSimulator(problem, cfg.noise), cfg.shots, cfg.seed,
                                    trial)
        res = run(provider, k=cfg.iterations, retry=True)
        rows = [row for row in report.rows if row[1] == trial]
        assert [row[2] for row in rows] == [rec.n for rec in res.iterations]
        budget = 0
        for row, rec in zip(rows, res.iterations):
            budget += rec.oracle_calls
            assert row[3] == budget
            retried += rec.retried
    assert retried >= 1

    # an iteration before the trial's first success has no estimate, so its
    # row leaves the value and every IQAE column empty
    cfg = ExperimentConfig(theta_g=float(np.deg2rad(88)), noise=NoiseSpec(kind="pauli"),
                           shots=2000, trials=1, iterations=2, seed=32)
    first, *rest = run_compare_noise(cfg).rows
    assert first == ("pauli", 0, 1, 48000, None, None, None, None, None)
    assert [row[2] for row in rest] == [2, 4] and None not in rest[0] + rest[1]


def test_run_verify_perturbation_floor():
    # scalar contraction on one qubit: every first-order statement is
    # exact and every residual series sits on the float-noise floor
    cfg = ExperimentConfig(theta_g=2.0, noise=NoiseSpec(kind="depolarizing"))
    report = run_verify_perturbation(cfg)
    assert report.all_ok
    assert report.flagged == 0
    assert len(report.summary_rows) == 5
    for kind, name, value, lo, hi, ok in report.summary_rows:
        assert kind == "depolarizing"
        assert name.endswith("_below_floor")
        assert ok


def test_run_verify_perturbation_generic():
    cfg = ExperimentConfig(qubits=2, psi=PSI4, phi=PHI4,
                           compare_kinds=["depolarizing", "pauli"])
    report = run_verify_perturbation(cfg)
    assert report.all_ok
    assert len(report.summary_rows) == 10
    names = {name for _, name, *_ in report.summary_rows}
    assert not any(n.endswith("_below_floor") for n in names)
    assert report.rows  # raw series present for both kinds
    assert report.svg.startswith("<svg")


def test_run_verify_perturbation_rejects_trivial_kind():
    with pytest.raises(ConfigError):
        run_verify_perturbation(ExperimentConfig(theta_g=2.0))


def _uniformity(depth_grid):
    cfg = ExperimentConfig(amplitude=0.75, noise=NoiseSpec(kind="pauli"), depth_grid=depth_grid)
    rows = run_verify_perturbation(cfg).summary_rows
    return [(value, ok) for _, name, value, *_, ok in rows if name == "theorem1_uniformity"]


@pytest.mark.parametrize("grid, sorted_grid", [
    ([64, 32, 16, 8, 4, 2, 1], [1, 2, 4, 8, 16, 32, 64]),
    (list(range(65)), list(range(1, 65))),  # depth 0 runs no layer: not a reference
])
def test_theorem1_uniformity_divides_by_the_smallest_positive_depth(grid, sorted_grid):
    # on the README config the sorted grids pass with 1; the first listed
    # depth, 64 or 0, used to give 13.33 and 3748
    assert _uniformity(grid) == _uniformity(sorted_grid) == [(1.0, True)]


def test_depth_grid_reaches_the_deepest_layer_of_an_estimate():
    # MAX_DEPTH, 3 * 2^12, is the last depth admitted; its theorem-1 rows stay finite
    cfg = ExperimentConfig(amplitude=0.75, noise=NoiseSpec(kind="pauli"),
                           depth_grid=[1, 2, 4, 8, 16, 32, 64, MAX_DEPTH])
    report = run_verify_perturbation(cfg)
    assert MAX_DEPTH == 12288 and report.all_ok
    assert any(n == MAX_DEPTH for *_, n, _ in report.rows)
    assert all(np.isfinite(value) for *_, value in report.rows)


def test_verify_rejects_a_trivial_kind_before_any_perturbed_steps(tmp_path, monkeypatch,
                                                                  capsys):
    steps = []
    monkeypatch.setattr("nrqae.experiments.perturbed_steps", lambda *args: steps.append(args))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"amplitude": 0.75, "noise": {"kind": "pauli"},
                               "compare_kinds": ["pauli", "none"]}))
    assert main(["verify-perturbation", "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err == "error: verify-perturbation needs a non-trivial noise kind\n"
    assert steps == []


def test_run_verify_perturbation_builds_each_kind_once(monkeypatch):
    # per kind: the 2 x 2 eigendecomposition of subspace_basis's rotation
    # plane (model.rotation_plane), one channel, then per strength one eigendecomposition of S(s) and one match
    # for each of the +-theta_ch dyads, shared by the three checks
    calls = []
    noise_superop, eig_dense = perturbation.noise_superop, perturbation.eig_dense
    matched_pair = perturbation._matched_pair

    def counted_noise_superop(noise, qubits):
        calls.append(("channel", noise.kind))
        return noise_superop(noise, qubits)

    def counted_eig_dense(m):
        calls.append(("eig", len(m)))
        return eig_dense(m)

    def counted_matched_pair(spec, target_vec):
        calls.append(("match",))
        return matched_pair(spec, target_vec)

    monkeypatch.setattr(perturbation, "noise_superop", counted_noise_superop)
    monkeypatch.setattr(perturbation, "eig_dense", counted_eig_dense)
    monkeypatch.setattr(model, "eig_dense", counted_eig_dense)
    monkeypatch.setattr(perturbation, "_matched_pair", counted_matched_pair)
    cfg = ExperimentConfig(amplitude=0.75, compare_kinds=["pauli", "statistical"])
    run_verify_perturbation(cfg)
    per_kind = {kind: [("eig", 2), ("channel", kind)]
                + [("eig", 4), ("match",), ("match",)] * len(cfg.s_grid)
                for kind in cfg.compare_kinds}
    assert calls == per_kind["pauli"] + per_kind["statistical"]


def test_line_plot_deterministic():
    series = {"a": ([1.0, 2.0, 3.0], [1.0, 4.0, 9.0]),
              "b": ([1.0, 2.0, 3.0], [2.0, 2.0, 2.0])}
    svg = line_plot(series, title="t", xlabel="x", ylabel="y")
    assert svg == line_plot(series, title="t", xlabel="x", ylabel="y")
    assert svg.startswith("<svg")
    assert svg.endswith("</svg>\n")
    assert svg.count("<polyline") == 2
    assert ">a</text>" in svg and ">b</text>" in svg


def test_line_plot_log_axes_drop_nonpositive():
    svg = line_plot({"a": ([1.0, 2.0, 3.0], [0.5, 0.0, 2.0])},
                    title="t", xlabel="x", ylabel="y")
    start = svg.index('<polyline points="') + len('<polyline points="')
    coords = svg[start:svg.index('"', start)]
    assert len(coords.split()) == 2  # the zero is gone
    empty = line_plot({"a": ([1.0], [-1.0])}, title="t", xlabel="x", ylabel="y")
    assert "(no data)" in empty


def test_cli_plan_shots(tmp_path, capsys):
    assert main(["plan-shots", "--eps", "0.01", "--delta", "0.05"]) == 0
    assert "shots=18445" in capsys.readouterr().out
    out = tmp_path / "plan"
    assert main(["plan-shots", "--eps", "0.1", "--delta", "0.05",
                 "--out", str(out)]) == 0
    assert (out / "plan_shots.csv").read_text() == "eps,delta,shots\n0.1,0.05,185\n"


def test_cli_plan_shots_bad_range(capsys):
    assert main(["plan-shots", "--eps", "0", "--delta", "0.05"]) == 1
    assert "error:" in capsys.readouterr().err
    # in range, but eps^2 underflows or 2 / delta overflows
    for eps, delta in (("1e-200", "0.05"), ("0.01", "1e-320")):
        assert main(["plan-shots", "--eps", eps, "--delta", delta]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "overflows" in err
        assert "Traceback" not in err and len(err.splitlines()) == 1


def test_cli_usage_errors():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1


def test_cli_estimate(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mode": "amplitude", "qubits": 1,
                               "theta_g": np.pi / 3, "exact": True,
                               "iterations": 3}))
    out = tmp_path / "out"
    assert main(["estimate", "--config", str(cfg), "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "mode=amplitude" in text
    assert "value=0.75" in text
    assert "iterations ok: 4/4" in text
    csv = (out / "estimate.csv").read_text().splitlines()
    assert csv[0] == "iteration,depth,t1,t2,t3,y,candidates,selected_theta,ok,reason"
    assert len(csv) == 5


def test_cli_estimate_flag_overrides_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"theta_g": np.pi / 3, "exact": True,
                               "iterations": 4}))
    assert main(["estimate", "--config", str(cfg), "--out",
                 str(tmp_path / "out"), "--iterations", "1"]) == 0
    assert "iterations ok: 2/2" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["estimate", "sweep-depth", "compare-noise",
                                     "verify-perturbation"])
def test_cli_main_twice_writes_the_same_bytes(command, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"amplitude": 0.75, "noise": {"kind": "pauli"}, "shots": 2000,
                               "iterations": 3, "trials": 2}))
    artifacts = []
    for run_dir in ("first", "second"):
        out = tmp_path / run_dir
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
        artifacts.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert artifacts[0] and artifacts[0] == artifacts[1]


def test_cli_flags_do_not_carry_into_the_next_call(tmp_path, monkeypatch, capsys):
    seen = []

    def capture(cfg):
        seen.append(cfg)
        return run_estimate(cfg)

    monkeypatch.setattr(cli, "run_estimate", capture)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"amplitude": 0.75, "shots": 2000, "iterations": 2}))
    out = str(tmp_path / "out")
    assert main(["estimate", "--config", str(cfg), "--out", out, "--retry", "--exact",
                 "--seed", "3", "--iterations", "1"]) == 0
    assert main(["estimate", "--config", str(cfg), "--out", out]) == 0
    assert (seen[0].retry, seen[0].exact, seen[0].seed, seen[0].iterations) == (True, True, 3, 1)
    assert seen[1] == load_config(str(cfg))


class _RecordingConfig(ExperimentConfig):
    """An ExperimentConfig that notes, in `read`, each attribute read after its checks."""

    def __post_init__(self):
        super().__post_init__()
        self.read = set()

    def __getattribute__(self, name):
        read = object.__getattribute__(self, "__dict__").get("read")
        if read is not None:
            read.add(name)
        return object.__getattribute__(self, name)


# per config command: its driver, and configs that between them take each path
# that reads a setting (sampled shots; a second noise kind, drawn from the seed)
_READ_PATHS = {
    "estimate": (run_estimate, [{"exact": True}, {}]),
    "sweep-depth": (run_sweep_depth, [{}]),
    "compare-noise": (run_compare_noise, [{"compare_kinds": ["pauli", "statistical"]}]),
    "verify-perturbation": (run_verify_perturbation,
                            [{"compare_kinds": ["pauli", "statistical"]}]),
}


@pytest.mark.parametrize("command", list(_READ_PATHS))
def test_every_setting_flag_names_a_field_its_command_reads(command):
    driver, configs = _READ_PATHS[command]
    read = set()
    for extra in configs:
        cfg = _RecordingConfig(amplitude=0.75, noise=NoiseSpec(kind="pauli"), shots=2000,
                               iterations=2, trials=2, **extra)
        driver(cfg)
        read |= cfg.read
    dests = {action.dest for action in subparsers()[command]._actions
             if action.option_strings and action.dest not in ("help", "config", "out")}
    assert dests <= {f.name for f in dataclasses.fields(ExperimentConfig)}
    assert dests <= read, dests - read


@pytest.mark.parametrize("argv", [
    ["estimate", "--trials", "2"],
    ["sweep-depth", "--shots", "2000"],
    ["sweep-depth", "--exact"],
    ["verify-perturbation", "--trials", "2"],
    ["verify-perturbation", "--shots", "2000"],
    ["verify-perturbation", "--exact"],
    ["verify-perturbation", "--iterations", "2"],
])
def test_a_flag_the_command_does_not_read_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err


def test_cli_missing_config(tmp_path, capsys):
    assert main(["estimate", "--config", str(tmp_path / "gone.json")]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("content", [
    b"[" * 100_000 + b"]" * 100_000,  # RecursionError in the decoder
    b'{"seed": 1}\xff',  # UnicodeDecodeError
    b'{"seed": ' + b"7" * 5000 + b"}",  # ValueError: past the 4300-digit int limit
], ids=["deep-nesting", "not-utf8", "huge-int"])
def test_cli_rejects_an_unreadable_config_in_one_line(tmp_path, capsys, content):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(content)
    assert main(["estimate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err


def test_cli_estimate_failure_exit_code(tmp_path, capsys):
    # pauli decay at this angle pushes every depth under the division
    # guard for this seed; without retry the run gives up
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"theta_g": float(np.deg2rad(84)),
                               "noise": {"kind": "pauli"}, "shots": 2000,
                               "seed": 6, "iterations": 2}))
    assert main(["estimate", "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 2
    assert "estimation failed" in capsys.readouterr().err


def test_cli_sweep_depth(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"theta_g": np.pi / 3}))
    out = tmp_path / "out"
    assert main(["sweep-depth", "--config", str(cfg), "--out", str(out),
                 "--trials", "2", "--iterations", "2",
                 "--perturbation", "0.001"]) == 0
    assert "theta_true=" in capsys.readouterr().out
    for name in ("sweep_depth.csv", "sweep_depth_summary.csv", "sweep_depth.svg"):
        assert (out / name).exists()


def test_cli_compare_noise(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"amplitude": 0.9, "noise": {"kind": "pauli"},
                               "shots": 200, "trials": 1, "iterations": 1}))
    out = tmp_path / "out"
    assert main(["compare-noise", "--config", str(cfg), "--out", str(out)]) == 0
    assert "true value 0.9" in capsys.readouterr().out
    assert (out / "compare_noise.csv").exists()
    assert (out / "compare_noise.svg").exists()


def test_compare_noise_builds_one_generator_per_simulator(tmp_path, monkeypatch, capsys):
    # every sampled draw re-keys its simulator's generator instead of building one
    philox, sims = [], []
    build_philox, build_sim = np.random.Philox, CircuitSimulator.__init__

    def counted_philox(*args, **kwargs):
        philox.append(args)
        return build_philox(*args, **kwargs)

    def counted_sim(self, *args, **kwargs):
        sims.append(self)
        build_sim(self, *args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counted_philox)
    monkeypatch.setattr(CircuitSimulator, "__init__", counted_sim)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"config_version": 1, "mode": "amplitude", "qubits": 1,
                               "amplitude": 0.75, "noise": {"kind": "pauli"},
                               "shots": 100000, "iterations": 5, "trials": 10, "seed": 7}))
    assert main(["compare-noise", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert len(sims) == 1
    assert 1 <= len(philox) <= len(sims)


def test_cli_verify_perturbation(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"theta_g": 2.0,
                               "noise": {"kind": "depolarizing"}}))
    out = tmp_path / "out"
    assert main(["verify-perturbation", "--config", str(cfg),
                 "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "PASS" in text and "below_floor" in text
    assert (out / "verify_perturbation_summary.csv").exists()


def test_cli_verify_failure_exit_code(tmp_path, monkeypatch, capsys):
    stub = VerifyReport(rows=[("pauli", "lemma1_residual", 0.001, 1, 0.5)],
                        summary_rows=[("pauli", "lemma1_slope", 5.0, 1.7, 2.3, False)],
                        flagged=2, all_ok=False, svg="<svg></svg>\n")
    monkeypatch.setattr("nrqae.cli.run_verify_perturbation", lambda cfg: stub)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"theta_g": 2.0, "noise": {"kind": "pauli"}}))
    assert main(["verify-perturbation", "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 3
    out = capsys.readouterr().out
    assert "FAIL pauli lemma1_slope" in out
    assert "FAIL 2 rows flagged for ambiguous eigenvector matching" in out


def test_cli_verify_perturbation_qubit_limit(tmp_path, monkeypatch, capsys):
    # the checks diagonalize the dense 4^q x 4^q step superoperator, so q stops at 3
    def no_work(cfg):
        raise AssertionError("the limit is checked before any work")

    monkeypatch.setattr("nrqae.experiments.build_problem", no_work)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"qubits": 4, "amplitude": 0.75, "noise": {"kind": "pauli"}}))
    out = tmp_path / "out"
    assert main(["verify-perturbation", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "qubits <= 3" in err
    assert "Traceback" not in err and len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("argv, out, driver", [
    (["verify-perturbation", "--config", "CFG"], "afile/x", "run_verify_perturbation"),
    (["estimate", "--config", "CFG"], "afile", "run_estimate"),
    (["plan-shots", "--eps", "0.1", "--delta", "0.1"], "afile/sub", "hoeffding_shots"),
], ids=["verify-perturbation", "estimate", "plan-shots"])
def test_cli_rejects_an_out_that_cannot_be_a_directory(tmp_path, monkeypatch, capsys, argv,
                                                       out, driver):
    # an --out at or under a regular file is refused before any work, not at its first write
    def no_work(*args):
        raise AssertionError("--out is checked before any work")

    monkeypatch.setattr(cli, driver, no_work)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"qubits": 3, "amplitude": 0.75, "noise": {"kind": "pauli"},
                               "compare_kinds": ["pauli", "statistical"]}))
    afile = tmp_path / "afile"
    afile.write_text("kept")
    argv = [str(cfg) if arg == "CFG" else arg for arg in argv]
    assert main([*argv, "--out", str(tmp_path / out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: --out {tmp_path / out}: {afile} is not a directory\n"
    assert afile.read_text() == "kept"


# command -> (argv before --out, the driver it calls, its artifacts in write order)
ARTIFACTS = {
    "estimate": (["estimate"], "run_estimate", ["estimate.csv"]),
    "sweep-depth": (["sweep-depth"], "run_sweep_depth",
                    ["sweep_depth.csv", "sweep_depth_summary.csv", "sweep_depth.svg"]),
    "compare-noise": (["compare-noise"], "run_compare_noise",
                      ["compare_noise.csv", "compare_noise.svg"]),
    "verify-perturbation": (["verify-perturbation"], "run_verify_perturbation",
                            ["verify_perturbation.csv", "verify_perturbation_summary.csv",
                             "verify_perturbation.svg"]),
    "plan-shots": (["plan-shots", "--eps", "0.1", "--delta", "0.1"], "hoeffding_shots",
                   ["plan_shots.csv"]),
}


@pytest.mark.parametrize("command", ARTIFACTS)
def test_cli_rejects_a_directory_at_an_artifact_path(tmp_path, monkeypatch, capsys, command):
    # a directory where an artifact goes is refused before any work, not at its write
    # after all of it, and nothing is written, not even the artifacts before it
    argv, driver, names = ARTIFACTS[command]

    def no_work(*args):
        raise AssertionError("artifact paths are checked before any work")

    monkeypatch.setattr(cli, driver, no_work)
    for name in dict.fromkeys([names[0], names[-1]]):
        out = tmp_path / f"out-{name}"
        (out / name).mkdir(parents=True)
        assert main([*argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: --out {out}: {out / name} is a directory\n"
        assert list(out.rglob("*")) == [out / name]


def test_cli_reports_a_failed_write_in_one_line(tmp_path, capsys):
    # the artifact path passes the check before the run, as a dangling symlink,
    # and its write then fails: one error line, exit 1, no traceback
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"amplitude": 0.75, "exact": True, "iterations": 1}))
    out = tmp_path / "od"
    out.mkdir()
    os.symlink(tmp_path / "missing" / "estimate.csv", out / "estimate.csv")
    assert main(["estimate", "--config", str(cfg), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: cannot write {out / 'estimate.csv'}: "
                            f"No such file or directory\n")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("qubits", range(1, MAX_QUBITS + 1))
def test_cli_observable_estimate_runs_at_every_allowed_qubit_count(qubits, tmp_path, capsys):
    # build_problem diagonalizes the 2^q x 2^q Pauli observable at every q the
    # config admits; the eigensolver has no size cap of its own
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mode": "observable", "qubits": qubits,
                               "observable": ("ZXY" * 3)[:qubits], "expectation": 0.3,
                               "exact": True, "iterations": 2}))
    code = main(["estimate", "--config", str(cfg), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code in (0, 2)
    assert "Traceback" not in captured.err
    if code == 0:
        assert sum(line.startswith("value=") for line in captured.out.splitlines()) == 1
        assert captured.err == ""
    else:
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("estimation failed:")


def test_qubit_limit_is_checked_when_the_config_is_read(tmp_path, capsys):
    with pytest.raises(ConfigError, match="qubits"):
        ExperimentConfig(qubits=MAX_QUBITS + 1)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"qubits": 9, "amplitude": 0.75, "exact": True}))
    assert main(["estimate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "qubits must be in [1, 8], got 9" in err and "Traceback" not in err


def test_cli_rejects_a_negative_mixture_weight(tmp_path, capsys):
    # trace-preserving, but its PTM diag(1, -0.6, -0.6, -0.6) is not completely positive
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"amplitude": 0.75, "exact": True, "noise": {
        "kind": "depolarizing", "params": {"identity_weight": -0.2, "pauli_weight": 0.4}}}))
    assert main(["estimate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: depolarizing weights must be >= 0") and "Traceback" not in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("extra, flags, message", [
    ({"depth_grid": [1, -2]}, [], "depth_grid entry -2 is not a non-negative integer"),
    ({"depth_grid": [1, 2.5]}, [], "depth_grid entry 2.5 is not a non-negative integer"),
    ({"depth_grid": [0, 4]}, [], "depth_grid needs at least two positive points"),
    ({"s_grid": [0.1, 2.0]}, [], "s_grid entry 2.0 is not a number in [0, 1]"),
    ({"s_grid": [0.1, "0.2"]}, [], "s_grid entry '0.2' is not a number in [0, 1]"),
    ({"s_grid": [0.0, 0.1]}, [], "s_grid needs at least two positive points"),
    ({"s_grid": 0.1}, [], "s_grid must be a list"),
    # flag overrides go through the same checks as file values
    ({}, ["--iterations", "-1"], "iterations must be >= 0, got -1"),
    ({}, ["--shots", "0"], "shots must be >= 1, got 0"),
    ({}, ["--trials", "0"], "trials must be >= 1, got 0"),
    # the slope fits need two distinct strengths, not one repeated
    ({"s_grid": [0.01, 0.01]}, [],
     "s_grid needs at least two positive points with distinct values"),
    ({"depth_grid": [0, 4, 4]}, [],
     "depth_grid needs at least two positive points with distinct values"),
    # past the deepest layer of an estimate: 2**70 overflowed theorem 1's
    # squares into nan rows, and 10**400 raised OverflowError
    ({"depth_grid": [1, 2, 12289]}, [],
     "depth_grid entry 12289 is not a non-negative integer <= 12288"),
    ({"depth_grid": [1, 2, 2 ** 70]}, [],
     f"depth_grid entry {2 ** 70} is not a non-negative integer <= 12288"),
    ({"depth_grid": [1, 2, 10 ** 400]}, [],
     f"depth_grid entry {10 ** 400} is not a non-negative integer <= 12288"),
])
def test_bad_settings_are_rejected_when_the_config_is_read(tmp_path, capsys, extra, flags,
                                                           message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"amplitude": 0.75, "noise": {"kind": "pauli"}, **extra}))
    out = tmp_path / "out"
    # verify-perturbation takes no flag but --config, --seed and --out
    command = "compare-noise" if flags else "verify-perturbation"
    assert main([command, "--config", str(cfg), "--out", str(out), *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert "Traceback" not in err and len(err.splitlines()) == 1
    assert not out.exists()


OBSERVABLE_MODE = {"amplitude": None, "mode": "observable", "expectation": 0.5}


PARALLEL_STATES = {"psi": [[1, 0], [0, 0]], "phi": [[1, 0], [0, 0]]}
ORTHOGONAL_STATES = {"psi": [[1, 0], [0, 0]], "phi": [[0, 0], [1, 0]]}
EIGENSTATE_OF_Z = {"mode": "observable", "observable": "Z", "psi": [[1, 0], [0, 0]]}


def _bad_observable(qubits: int, got: str) -> str:
    return (f"observable must be one IXYZ letter per qubit (qubits = {qubits}), not all I "
            f"(the identity is not traceless), got {got}")


@pytest.mark.parametrize("command, extra, flags, message", [
    ("estimate", {}, ["--seed", "-3"], "seed must be >= 0, got -3"),
    ("sweep-depth", {}, ["--perturbation", "-0.1"],
     "perturbation must be a finite number >= 0, got -0.1"),
    ("sweep-depth", {}, ["--perturbation", "nan"],
     "perturbation must be a finite number >= 0, got nan"),
    ("sweep-depth", {}, ["--perturbation", "inf"],
     "perturbation must be a finite number >= 0, got inf"),
    ("estimate", {"iterations": 1.5}, [], "iterations must be an integer, got 1.5"),
    ("estimate", {"qubits": 1.0}, [], "qubits must be an integer, got 1.0"),
    ("sweep-depth", {"trials": 2.5}, [], "trials must be an integer, got 2.5"),
    ("estimate", {"shots": 1.5}, [], "shots must be an integer, got 1.5"),
    ("estimate", {"shots": 2 ** 61}, [], f"shots must be <= 2**60, got {2 ** 61}"),
    ("estimate", {"seed": True}, [], "seed must be an integer, got True"),
    ("sweep-depth", {"perturbation": "0.1"}, [], "perturbation must be a number, got '0.1'"),
    ("sweep-depth", {"perturbation": 10 ** 400}, [],
     f"perturbation must be a finite number >= 0, got {10 ** 400}"),
    ("estimate", {"retry": "no"}, [], "retry must be true or false, got 'no'"),
    ("estimate", {"exact": 1}, [], "exact must be true or false, got 1"),
    ("estimate", {"iterations": 13}, [], "iterations must be <= 12, got 13"),
    ("estimate", {}, ["--iterations", "40"], "iterations must be <= 12, got 40"),
    ("estimate", {"amplitude": "0.3"}, [], "amplitude must be a number, got '0.3'"),
    ("estimate", {"theta_g": [1]}, [], "theta_g must be a number, got [1]"),
    ("estimate", {"config_version": True}, [], "config_version must be an integer, got True"),
    ("estimate", {"observable": 3}, [], "observable must be a Pauli string, got 3"),
    ("estimate", {"psi": [1, 0]}, [], "psi must be a list of [re, im] pairs, got [1, 0]"),
    ("estimate", {"amplitude": None, "psi": [[1, 0], [1, 0]], "phi": [[1, 0], [0, 0]]}, [],
     "psi is not normalized: |psi| = 1.41421"),
    ("estimate", {"noise": {"kind": "pauli", "params": "x"}}, [],
     "noise params must be an object, got 'x'"),
    ("estimate", {"noise": {"kind": "pauli", "params": {"weight_i": "a"}}}, [],
     "noise param weight_i must be a finite number, got 'a'"),
    ("estimate", {"noise": {"kind": "pauli", "params": {"weight_i": float("nan")}}}, [],
     "noise param weight_i must be a finite number, got nan"),
    ("estimate", {"noise": {"kind": "coherent", "params": {"delta_t": 10 ** 400}}}, [],
     f"noise param delta_t must be a finite number, got {10 ** 400}"),
    ("estimate", {"noise": {"kind": "statistical", "seed": "a"}}, [],
     "noise seed must be an integer, got 'a'"),
    ("estimate", {"noise": {"kind": "statistical", "seed": -1}}, [],
     "noise seed must be >= 0, got -1"),
    ("compare-noise", {"compare_kinds": 3}, [], "compare_kinds must be a list of noise kinds, got 3"),
    ("compare-noise", {}, ["--kinds", "pauli,bogus"],
     "compare_kinds must be a list of noise kinds, got ['pauli', 'bogus']"),
    ("sweep-depth", {}, ["--trials", "1000000000"], "trials must be <= 10000, got 1000000000"),
    ("sweep-depth", {"trials": 10_001}, [], "trials must be <= 10000, got 10001"),
    # the observable is checked when the config is read: one IXYZ letter per
    # qubit, and not all I, since the identity is not traceless
    ("estimate", {**OBSERVABLE_MODE, "observable": "I"}, [], _bad_observable(1, "'I'")),
    ("sweep-depth", {**OBSERVABLE_MODE, "observable": "I"}, [], _bad_observable(1, "'I'")),
    ("compare-noise", {**OBSERVABLE_MODE, "observable": "I"}, [], _bad_observable(1, "'I'")),
    ("verify-perturbation", {**OBSERVABLE_MODE, "observable": "I"}, [],
     _bad_observable(1, "'I'")),
    ("estimate", {**OBSERVABLE_MODE, "qubits": 2, "observable": "II"}, [],
     _bad_observable(2, "'II'")),
    ("estimate", {**OBSERVABLE_MODE, "observable": "ZZ"}, [], _bad_observable(1, "'ZZ'")),
    ("estimate", {**OBSERVABLE_MODE, "qubits": 2, "observable": "Z"}, [],
     _bad_observable(2, "'Z'")),
    ("estimate", {**OBSERVABLE_MODE, "qubits": 2, "observable": "ZQ"}, [],
     _bad_observable(2, "'ZQ'")),
    ("estimate", {**OBSERVABLE_MODE, "observable": ""}, [], _bad_observable(1, "''")),
    ("estimate", OBSERVABLE_MODE, [], _bad_observable(1, "None")),
    # explicit states must span a plane for the walk, as the scalar forms must
    *[(command, {"amplitude": None, **states}, [], message)
      for command in ("estimate", "sweep-depth", "compare-noise", "verify-perturbation")
      for states, message in (
          (PARALLEL_STATES, "the two states are parallel; no rotation plane"),
          (ORTHOGONAL_STATES, f"degenerate rotation phase {np.pi}"),
          (EIGENSTATE_OF_Z, "the two states are parallel; no rotation plane"))],
    # an empty list used to fall back to the noise kind, a repeated kind to
    # write its rows twice under one plot series
    ("compare-noise", {"compare_kinds": []}, [],
     "compare_kinds must name at least one noise kind, got []"),
    ("compare-noise", {}, ["--kinds", ","],
     "compare_kinds must name at least one noise kind, got []"),
    ("compare-noise", {}, ["--kinds", ""],
     "compare_kinds must name at least one noise kind, got []"),
    ("verify-perturbation", {"compare_kinds": []}, [],
     "compare_kinds must name at least one noise kind, got []"),
    ("compare-noise", {"compare_kinds": ["pauli", "pauli"]}, [],
     "compare_kinds must not repeat a kind, got ['pauli', 'pauli']"),
    ("compare-noise", {}, ["--kinds", "pauli,depolarizing,pauli"],
     "compare_kinds must not repeat a kind, got ['pauli', 'depolarizing', 'pauli']"),
    ("estimate", {"mode": "x"}, [], "unknown mode 'x'"),
    ("estimate", {**OBSERVABLE_MODE, "observable": "Z", "expectation": 1.5}, [],
     "expectation 1.5 outside [-1, 1]"),
])
def test_bad_scalars_are_rejected_when_the_config_is_read(tmp_path, capsys, command, extra,
                                                          flags, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"amplitude": 0.75, **extra}))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out), *flags]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"
    assert not out.exists()


def test_grid_edge_values_are_accepted():
    cfg = ExperimentConfig(depth_grid=[0, 1, 2], s_grid=[0, 0.5, 1])
    assert config_from_dict(dataclasses.asdict(cfg)) == cfg


def test_import_builds_no_cached_basis():
    # the cached bases, PTMs and parser are built on first use, so `import nrqae` stays cheap
    code = ("import nrqae, nrqae.cli\n"
            "from nrqae.channels import fixed_conjugation_ptm, pauli_vec_basis\n"
            "print(*(f.cache_info().currsize for f in (pauli_vec_basis,\n"
            "      fixed_conjugation_ptm, nrqae.cli._build_parser)))\n")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == ["0", "0", "0"]


def test_import_and_problem_build_leave_numpy_random_unloaded():
    # numpy.random costs several ms and MB to import; set-up reaches no draw,
    # so the rng module's constants are plain ints and its arrays are built per call
    code = ("import sys\n"
            "import nrqae.cli\n"
            "from nrqae.config import build_problem, config_from_dict\n"
            "build_problem(config_from_dict({'config_version': 1, 'mode': 'amplitude',\n"
            "    'qubits': 1, 'amplitude': 0.75, 'noise': {'kind': 'pauli'}, 'shots': 100000,\n"
            "    'iterations': 5, 'trials': 10, 'seed': 7}))\n"
            "print('numpy.random' in sys.modules)\n")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == ["False"]


def test_median_is_numpys_bit_for_bit():
    rng = np.random.default_rng(643)
    for size in range(1, 41):
        for _ in range(25):
            values = (rng.standard_normal(size) * 10.0 ** rng.integers(-12, 4)).tolist()
            if rng.random() < 0.3:
                values += values[: size // 2]  # repeated values
            assert _median(values) == float(np.median(values)), values


def test_sweeps_do_not_import_numpy_ma(tmp_path):
    # np.median imports numpy.ma on its first call; the drivers take their
    # medians without it
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"config_version": 1, "mode": "amplitude", "qubits": 1,
                               "amplitude": 0.75, "noise": {"kind": "pauli"},
                               "shots": 100000, "iterations": 5, "trials": 10, "seed": 7}))
    code = ("import sys\n"
            "from nrqae.cli import main\n"
            f"for command in ('sweep-depth', 'compare-noise'):\n"
            f"    assert main([command, '--config', {str(cfg)!r}, '--out', {str(tmp_path)!r}]) == 0\n"
            "print('numpy.ma' in sys.modules)\n")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-W", "ignore", "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines()[-1] == "False"
