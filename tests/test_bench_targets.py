"""Every function the benchmark's traced pass wraps still exists in nrqae.

bench/tracing.py names each traced function by module and attribute; a
rename in the package would otherwise surface only when a traced bench pass
dies with LookupError. The module is run from its source (no bytecode is
written under bench/) and its own install/uninstall pair is called, so the
lookup checked is the one the bench makes.
"""

import os
import types

import pytest

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "bench", "tracing.py")


@pytest.fixture(scope="module")
def tracing():
    module = types.ModuleType("bench_tracing")
    module.__file__ = TRACING
    with open(TRACING) as fh:
        exec(compile(fh.read(), TRACING, "exec"), module.__dict__)
    return module


def test_every_traced_target_resolves(tracing):
    undo = tracing.install(tracing.Tracer())
    try:
        assert len(undo) == len(tracing.TARGETS)
        originals = [original for _, _, original in undo]
        assert all(callable(original) for original in originals)
    finally:
        tracing.uninstall(undo)
    # uninstall put every original back
    assert all(vars(owner)[leaf] is original for owner, leaf, original in undo)
