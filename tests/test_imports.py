"""Every name a module of nrqae imports is used there, and its records are tuples.

An imported name counts as used when the module reads it, lists it in
__all__, or is the place bench/tracing.py wraps it (its TARGETS name a
module global by module and attribute): the traced pass looks such a name
up in that module even when the module no longer calls it. The tracing
module is run from its source, as tests/test_bench_targets.py runs it.
"""

import ast
import dataclasses
import importlib
import os
import types

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "nrqae")
TRACING = os.path.join(ROOT, "bench", "tracing.py")
MODULES = sorted(name[:-3] for name in os.listdir(PACKAGE) if name.endswith(".py"))


def _traced_globals() -> set:
    module = types.ModuleType("bench_tracing")
    module.__file__ = TRACING
    with open(TRACING) as fh:
        exec(compile(fh.read(), TRACING, "exec"), module.__dict__)
    return {(owner, attr) for owner, attr, _ in module.TARGETS if "." not in attr}


def _imported(tree) -> dict:
    """Name bound by each import, mapped to its line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
    return names


def _exported(tree) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def _unused(source: str, module: str = "", traced=frozenset()) -> dict:
    """The imported names source neither reads, exports nor has traced, with their lines."""
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return {name: line for name, line in _imported(tree).items()
            if name not in read and name not in _exported(tree)
            and (module, name) not in traced}


@pytest.fixture(scope="module")
def traced():
    return _traced_globals()


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module, traced):
    with open(os.path.join(PACKAGE, module + ".py")) as fh:
        unused = _unused(fh.read(), module, traced)
    assert not unused, f"nrqae/{module}.py imports unused names: {unused}"


def test_the_check_sees_an_unused_import():
    source = ("from itertools import chain, product\nimport numpy as np\n"
              "np.zeros(product([1], [2]))\n")
    assert _unused(source) == {"chain": 1}
    # a traced name counts as used in the module the tracer wraps it in
    assert _unused(source, "circuits", {("circuits", "chain")}) == {}


# Value records are NamedTuples: creating one at import costs a third or
# less of what a dataclass does. A class stays a dataclass only for what a
# tuple cannot do: checks in __post_init__, dataclasses.replace or a
# cached_property.
DATACLASSES = {"channels.NoiseSpec", "config.ExperimentConfig", "estimator.EstimationResult",
               "model.EstimationProblem"}
RECORDS = {"baseline.IqaeRound", "baseline.IqaeResult", "circuits.TProvider",
           "estimator.IterationRecord",
           "experiments.EstimateReport", "experiments.SweepReport",
           "experiments.CompareReport", "experiments.VerifyReport", "model.ValuePair",
           "perturbation.SubspaceBasis", "perturbation.PerturbedStep",
           "perturbation.PerturbedSteps", "perturbation.Lemma1Row", "perturbation.Lemma2Row",
           "perturbation.Theorem1Row"}


@pytest.fixture(scope="module")
def classes() -> dict:
    """Every class a module of nrqae defines, by "module.Class"."""
    found = {}
    for module in MODULES:
        mod = importlib.import_module(f"nrqae.{module}")
        for name, value in vars(mod).items():
            if isinstance(value, type) and value.__module__ == mod.__name__:
                found[f"{module}.{name}"] = value
    return found


def test_only_the_validating_or_caching_classes_are_dataclasses(classes):
    assert {name for name, cls in classes.items() if dataclasses.is_dataclass(cls)} == DATACLASSES
    assert RECORDS <= set(classes)
    assert all(issubclass(classes[name], tuple) for name in RECORDS)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_are_immutable(classes, name):
    cls = classes[name]
    record = cls._make([None] * len(cls._fields))
    for field in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, 1)
