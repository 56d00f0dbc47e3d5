"""Property test: any mix of valid and invalid scalar settings ends in a clean exit."""

import contextlib
import io
import json
import math
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from nrqae.cli import main
from nrqae.config import MAX_QUBITS, MAX_SHOTS

JUNK = st.one_of(st.text(max_size=3), st.lists(st.integers(), max_size=2))
NUMBERS = st.floats(allow_nan=True, allow_infinity=True)


def _scalar(valid, invalid):
    """A (value, is_valid) pair drawn from either strategy."""
    return st.one_of(valid.map(lambda v: (v, True)), invalid.map(lambda v: (v, False)))


def _integer(valid, lo, hi=None, nullable=False):
    """valid draws ints the config accepts; [lo, hi] bounds every int it accepts."""
    invalid = st.integers(max_value=lo - 1) | NUMBERS | st.booleans() | JUNK
    if hi is not None:
        invalid |= st.integers(min_value=hi + 1)
    if nullable:
        valid |= st.none()
    else:
        invalid |= st.none()
    return _scalar(valid, invalid)


FIELDS = {
    # small valid values keep each run short; the range checks see the rest
    "qubits": _integer(st.integers(1, 3), 1, MAX_QUBITS),
    "iterations": _integer(st.integers(0, 6), 0),
    "trials": _integer(st.integers(1, 50), 1),
    "shots": _integer(st.integers(1, MAX_SHOTS), 1, MAX_SHOTS, nullable=True),
    "seed": _integer(st.integers(0, 2 ** 70), 0),
    "perturbation": _scalar(
        st.floats(min_value=0.0, allow_infinity=False) | st.integers(0, 10 ** 6),
        st.floats(max_value=-1e-300) | st.integers(max_value=-1) | st.none()
        | st.sampled_from([math.nan, math.inf]) | st.booleans() | JUNK),
    "exact": _scalar(st.booleans(), st.integers(0, 1) | NUMBERS | st.none() | JUNK),
    "retry": _scalar(st.booleans(), st.integers(0, 1) | NUMBERS | st.none() | JUNK),
}


@settings(max_examples=60, deadline=None)
@given(st.fixed_dictionaries({}, optional=FIELDS))
def test_estimate_exits_cleanly_on_any_scalar_settings(drawn):
    config = {"amplitude": 0.3, **{name: value for name, (value, _) in drawn.items()}}
    all_valid = all(ok for _, ok in drawn.values())
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
