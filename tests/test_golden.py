"""Golden outputs: every case of golden_cases against its store in tests/golden/.

A case passes when its rerun gives the stored exit code, the stored stdout,
exactly the stored set of artifact files and each file's stored bytes, so a
refactor that claims to keep the behaviour can be checked by running this
file. A mismatch shows the first differing lines of each file that moved.
A change that moves an output on purpose rewrites the store with

    PYTHONPATH=src python tests/golden_cases.py

and the diff of tests/golden/ lists what moved. The stored sweep_depth.svg
holds the nan coordinates svgplot currently writes for a constant log axis;
the change that fixes svgplot rewrites it.
"""

import difflib
from itertools import islice

import numpy as np
import pytest
from golden_cases import (BIG_SEED_COMMANDS, HELP_COMMANDS, README_COMMANDS, VERIFY_Q3_SEEDS,
                          outputs, stored)

import nrqae
from nrqae.channels import NoiseSpec
from nrqae.circuits import CircuitSimulator, sampled_provider
from nrqae.estimator import run
from nrqae.model import amplitude_problem

DIFF_LINES = 20


def _first_diff(rel: str, want: bytes, got: bytes) -> str:
    lines = difflib.unified_diff(want.decode(errors="replace").splitlines(),
                                 got.decode(errors="replace").splitlines(),
                                 f"stored {rel}", f"rerun {rel}", lineterm="", n=1)
    return "\n".join(islice(lines, DIFF_LINES))


def check_case(name: str, tmp_path):
    got, want = outputs(name, tmp_path), stored(name)
    problems = []
    if sorted(got) != sorted(want):
        problems.append(f"files: stored {sorted(want)}, rerun {sorted(got)}")
    problems += [_first_diff(rel, want[rel], got[rel])
                 for rel in sorted(want.keys() & got.keys()) if want[rel] != got[rel]]
    if problems:
        pytest.fail(f"case {name} differs from tests/golden/{name}:\n" + "\n".join(problems),
                    pytrace=False)


@pytest.mark.parametrize("command", README_COMMANDS)
def test_readme_config_artifacts(command, tmp_path):
    check_case(f"readme/{command}", tmp_path)


@pytest.mark.parametrize("seed", VERIFY_Q3_SEEDS)
def test_verify_perturbation_q3_artifacts(seed, tmp_path):
    check_case(f"verify-q3/seed-{seed}", tmp_path)


@pytest.mark.parametrize("command", BIG_SEED_COMMANDS)
def test_multi_word_seed_artifacts(command, tmp_path):
    check_case(f"big-seed/{command}", tmp_path)


@pytest.mark.parametrize("command", HELP_COMMANDS)
def test_help_text(command, tmp_path):
    check_case(f"help/{command.replace(' ', '-')}", tmp_path)


def test_readme_quick_start_values():
    psi = np.array([1.0, 0.0])
    phi = np.array([np.cos(np.pi / 6), np.sin(np.pi / 6)])
    problem = amplitude_problem(psi, phi)
    sim = CircuitSimulator(problem, NoiseSpec(kind="none"))
    res = run(sampled_provider(sim, shots=100_000, seed=7), k=5)
    assert abs(res.value - 0.7499933642391001) < 1e-9
    noisy = NoiseSpec(kind="pauli", params={"weight_i": 0.9, "weight_x": 0.03,
                                            "weight_y": 0.02, "weight_z": 0.05})
    sim = CircuitSimulator(problem, noisy)
    assert abs(run(sampled_provider(sim, shots=100_000, seed=7), k=5).value
               - 0.7513080188473099) < 1e-9


def test_every_export_resolves():
    assert all(hasattr(nrqae, name) for name in nrqae.__all__)
