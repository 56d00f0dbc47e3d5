"""Property tests: any mix of valid and invalid settings ends in a clean exit.

The draws cover the mode, the scalar settings, the config version, the
observable and one state geometry: amplitude, theta_g or explicit psi/phi
vectors in amplitude mode; expectation, theta_g or an explicit psi in
observable mode. One test drives `estimate --iterations 0`; another
drives every command, with a noise kind, compare kinds and command flags
drawn too, and reads every CSV it writes. The third draws only valid
observable-mode `estimate` runs at 4-8 qubits, where the fault-mixing draws
stop at 3 to stay short.
"""

import contextlib
import io
import json
import math
import os
import tempfile

import numpy as np
from golden_cases import subparsers
from hypothesis import given, settings
from hypothesis import strategies as st

from nrqae.channels import NOISE_KINDS
from nrqae.cli import main
from nrqae.config import MAX_ITERATIONS, MAX_QUBITS, MAX_SHOTS

JUNK = st.one_of(st.text(max_size=3), st.lists(st.integers(), max_size=2))
NUMBERS = st.floats(allow_nan=True, allow_infinity=True)


def _scalar(valid, invalid, faults=True):
    """A (value, is_valid) pair drawn from either strategy, or from valid only without faults."""
    pairs = valid.map(lambda v: (v, True))
    return st.one_of(pairs, invalid.map(lambda v: (v, False))) if faults else pairs


def _integer(valid, lo, hi=None, nullable=False, faults=True):
    """valid draws ints the config accepts; [lo, hi] bounds every int it accepts."""
    invalid = st.integers(max_value=lo - 1) | NUMBERS | st.booleans() | JUNK
    if hi is not None:
        invalid |= st.integers(min_value=hi + 1)
    if nullable:
        valid |= st.none()
    else:
        invalid |= st.none()
    return _scalar(valid, invalid, faults)


def _fields(faults: bool) -> dict:
    """The optional scalar settings, each a (value, is_valid) strategy."""
    return {
        # small valid values keep each run short; the range checks see the rest
        "qubits": _integer(st.integers(1, 3), 1, MAX_QUBITS, faults=faults),
        "iterations": _integer(st.integers(0, 6), 0, MAX_ITERATIONS, faults=faults),
        "trials": _integer(st.integers(1, 50), 1, faults=faults),
        "shots": _integer(st.integers(1, MAX_SHOTS), 1, MAX_SHOTS, nullable=True,
                          faults=faults),
        "seed": _integer(st.integers(0, 2 ** 70), 0, faults=faults),
        "perturbation": _scalar(
            st.floats(min_value=0.0, allow_infinity=False) | st.integers(0, 10 ** 6),
            st.floats(max_value=-1e-300) | st.integers(max_value=-1) | st.none()
            | st.sampled_from([math.nan, math.inf]) | st.booleans() | JUNK, faults),
        "exact": _scalar(st.booleans(), st.integers(0, 1) | NUMBERS | st.none() | JUNK, faults),
        "retry": _scalar(st.booleans(), st.integers(0, 1) | NUMBERS | st.none() | JUNK, faults),
        "config_version": _scalar(st.just(1), st.integers().filter(lambda v: v != 1)
                                  | st.just(1.0) | st.booleans() | st.none() | JUNK, faults),
    }

# the wrong type for the observable in either mode; amplitude mode reads nothing else of it
BAD_OBSERVABLE = (st.integers() | NUMBERS | st.booleans()
                  | st.lists(st.text(max_size=2), max_size=2))

# an invalid angle or expectation: the wrong type, or a number that leaves no
# state phase in (0, pi)
BAD_TYPE = (st.text(max_size=3) | st.lists(st.floats(0.1, 0.9), max_size=2) | st.booleans()
            | st.none())
BAD_ANGLE = BAD_TYPE | st.floats(min_value=3.2) | st.floats(max_value=-0.01) | st.just(math.nan)
BAD_EXPECTATION = (BAD_TYPE | st.floats(min_value=1.0) | st.floats(max_value=-1.0)
                   | st.just(math.nan))
PAIR = st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=2)
BAD_PAIRS = (st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=3) | st.text(max_size=3)
             | st.lists(st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3), min_size=1,
                        max_size=2)
             | st.lists(st.lists(st.booleans(), min_size=2, max_size=2), min_size=1, max_size=2)
             | NUMBERS)


def _pairs(vec) -> list:
    return [[float(v), 0.0] for v in vec]


def _bad_psi(dim: int):
    """The wrong type, the wrong size or not normalized."""
    return (BAD_PAIRS | st.just(_pairs(np.ones(dim)))
            | st.lists(PAIR, min_size=1, max_size=8).filter(lambda v: len(v) != dim))


@st.composite
def observable_geometry(draw, dim: int, faults=True):
    """({setting: value}, is_valid) for one observable-mode state geometry on dim amplitudes."""
    kind = draw(st.sampled_from(["expectation", "theta_g", "psi"]))
    if kind == "expectation":
        value, ok = draw(_scalar(st.floats(-0.95, 0.95), BAD_EXPECTATION, faults))
        return {"expectation": value}, ok
    if kind == "theta_g":
        value, ok = draw(_scalar(st.floats(0.1, 3.0), BAD_ANGLE, faults))
        return {"theta_g": value}, ok
    # a generic complex state is an eigenvector of no Pauli string other than
    # the identity, so every valid observable leaves it a rotation plane
    vec = np.random.default_rng(dim).standard_normal((dim, 2))
    value, ok = draw(_scalar(st.just((vec / np.linalg.norm(vec)).tolist()), _bad_psi(dim),
                             faults))
    return {"psi": value}, ok


@st.composite
def geometry(draw, dim: int, faults=True):
    """({setting: value}, is_valid) for one amplitude-mode state geometry on dim amplitudes."""
    kind = draw(st.sampled_from(["amplitude", "theta_g", "psi"]))
    if kind == "amplitude":
        value, ok = draw(_scalar(st.floats(0.05, 0.95), BAD_ANGLE, faults))
        return {"amplitude": value}, ok
    if kind == "theta_g":
        value, ok = draw(_scalar(st.floats(0.1, 3.0), BAD_ANGLE, faults))
        return {"theta_g": value}, ok
    # phi is the uniform state; a valid psi is a basis state of the right size
    phi = _pairs([dim ** -0.5] * dim)
    basis = draw(st.integers(0, dim - 1))
    value, ok = draw(_scalar(st.just(_pairs(1.0 * (np.arange(dim) == basis))), _bad_psi(dim),
                             faults))
    return {"psi": value, "phi": phi}, ok


@st.composite
def configs(draw, faults=True):
    """(config dict, every setting valid); without faults every setting is valid."""
    drawn = draw(st.fixed_dictionaries({}, optional=_fields(faults)))
    qubits, qubits_ok = drawn.get("qubits", (1, True))
    dim = 2 ** qubits if qubits_ok else 2
    mode = draw(st.sampled_from(["amplitude", "observable"]))
    if mode == "amplitude":
        state, state_ok = draw(geometry(dim, faults))
        # amplitude mode checks only the observable's type
        observable = _scalar(st.none() | st.sampled_from(["Z", "XZ"]), BAD_OBSERVABLE, faults)
    elif faults:
        state, state_ok = draw(observable_geometry(dim))
        # one IXYZ letter per qubit, not all I; short strings make both faults common
        label = draw(st.text("IXYZ", min_size=1, max_size=3))
        label_ok = len(label) == qubits and set(label) != {"I"}
        observable = st.just((label, label_ok)) | (st.none() | BAD_OBSERVABLE).map(
            lambda v: (v, False))
    else:
        state, state_ok = draw(observable_geometry(dim, faults))
        observable = st.text("IXYZ", min_size=qubits, max_size=qubits).filter(
            lambda label: set(label) != {"I"}).map(lambda label: (label, True))
    drawn["mode"] = (mode, True)
    drawn["observable"] = draw(observable)
    config = {**state, **{name: value for name, (value, _) in drawn.items()}}
    return config, state_ok and all(ok for _, ok in drawn.values())


@settings(max_examples=60, deadline=None)
@given(configs())
def test_estimate_exits_cleanly_on_any_scalar_settings(drawn):
    config, all_valid = drawn
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["estimate", "--config", path, "--iterations", "0",
                         "--out", os.path.join(tmp, "out")])
    err = err.getvalue()
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    # exit 1 is the configuration error, one line, exactly when a setting is bad
    assert (code == 1) == (not all_valid), (config, err)
    if code == 1:
        assert err.startswith("error:") and len(err.splitlines()) == 1


def _noise(kind: str) -> dict:
    return {"kind": kind, "seed": 3} if kind == "statistical" else {"kind": kind}


@st.composite
def wide_observable_runs(draw):
    """(argv without --config and --out, config) for a valid observable-mode estimate at q = 4-8.

    Observable mode keeps the dense layer at every width, so these are the
    widest circuits the simulator follows; one or two iterations keep each
    example short.
    """
    qubits = draw(st.integers(4, 8))
    state, _ = draw(observable_geometry(2 ** qubits, faults=False))
    label = draw(st.text("IXYZ", min_size=qubits, max_size=qubits).filter(
        lambda label: set(label) != {"I"}))
    config = {**state, "mode": "observable", "observable": label, "qubits": qubits,
              "noise": _noise(draw(st.sampled_from(NOISE_KINDS))),
              "shots": draw(st.integers(1, MAX_SHOTS)), "seed": draw(st.integers(0, 2 ** 70))}
    argv = ["estimate", "--iterations", str(draw(st.integers(0, 1)))]
    return argv + draw(st.sampled_from([[], ["--exact"]])), config


def _run_cli(argv, config):
    """(exit code, stderr, {csv name: text}) of main on config written to a file."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        if config is not None:
            path = os.path.join(tmp, "cfg.json")
            with open(path, "w") as fh:
                json.dump(config, fh)
            argv = [*argv, "--config", path]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([*argv, "--out", out])
        written = {}
        for name in sorted(os.listdir(out)) if os.path.isdir(out) else []:
            if name.endswith(".csv"):
                with open(os.path.join(out, name)) as fh:
                    written[name] = fh.read()
    return code, err.getvalue(), written


def _assert_finite(written, *context):
    for name, text in written.items():
        fields = {f.lower() for line in text.splitlines() for f in line.split(",")}
        assert not fields & {"nan", "inf", "-inf"}, (*context, name)


@settings(max_examples=10, deadline=None)
@given(wide_observable_runs())
def test_wide_observable_estimates_exit_cleanly_and_write_finite_csvs(drawn):
    argv, config = drawn
    code, err, written = _run_cli(argv, config)
    assert code in (0, 2), (argv, config, err)
    # an estimation failure is one line; a success writes nothing to stderr
    assert len(err.splitlines()) == (code == 2), (argv, config, err)
    assert code == 2 or "estimate.csv" in written
    _assert_finite(written, argv, config)


CONFIG_COMMANDS = ("estimate", "sweep-depth", "compare-noise", "verify-perturbation")
PROBABILITIES = st.floats(0.0, 1.0) | NUMBERS
KIND_LISTS = st.lists(st.sampled_from(NOISE_KINDS), min_size=1, max_size=2, unique=True)


def _flag(name: str, values):
    """[] or ["name=value"] for an optional flag; the = keeps a value such as -1e+16
    from reading as an option."""
    return st.one_of(st.just([]), values.map(lambda v: [f"{name}={v}"]))


@st.composite
def command_lines(draw):
    """(argv without --config and --out, config dict or None, every config setting valid)."""
    command = draw(st.sampled_from((*CONFIG_COMMANDS, "plan-shots")))
    if command == "plan-shots":
        eps, delta = draw(PROBABILITIES), draw(PROBABILITIES)
        return ["plan-shots", f"--eps={eps}", f"--delta={delta}"], None, True
    # half the examples keep every setting valid, so that the command itself runs
    config, all_valid = draw(configs(faults=draw(st.booleans())))
    config["noise"] = _noise(draw(st.sampled_from(NOISE_KINDS)))
    if draw(st.booleans()):
        config["compare_kinds"] = draw(KIND_LISTS)
    # each command takes only the flags its run reads; few trials and shallow
    # runs keep each example short, and the config file's own values are
    # checked before these override them
    accepted = {flag for action in subparsers()[command]._actions
                for flag in action.option_strings}
    argv = [command]
    if "--trials" in accepted:
        argv += ["--trials", str(draw(st.integers(1, 2)))]
    if "--iterations" in accepted:
        argv += ["--iterations", str(draw(st.integers(0, 2)))]
    if "--exact" in accepted:
        argv += draw(st.sampled_from([[], ["--exact"]]))
    argv += draw(_flag("--seed", st.integers(0, 2 ** 70)))
    if "--perturbation" in accepted:
        argv += draw(_flag("--perturbation", NUMBERS))
    if "--kinds" in accepted:
        argv += draw(_flag("--kinds", KIND_LISTS.map(",".join)))
    return argv, config, all_valid


@settings(max_examples=100, deadline=None)
@given(command_lines())
def test_every_command_exits_cleanly_and_writes_finite_csvs(drawn):
    argv, config, all_valid = drawn
    code, err, written = _run_cli(argv, config)
    assert code in (0, 1, 2, 3), (argv, config, err)
    # every command reads the config first, so a bad setting always exits 1
    assert all_valid or code == 1, (argv, config, err)
    if code == 1:
        assert err.startswith("error:") and len(err.splitlines()) == 1, (argv, config, err)
    _assert_finite(written, argv, config)
