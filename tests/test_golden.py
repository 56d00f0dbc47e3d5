"""Golden artifacts: the README config at seed 7 through every command.

The hashes pin the exact bytes each command writes, so a refactor that
claims to keep the behaviour can be checked by running this file. The
sweep_depth.svg hash includes the nan coordinates svgplot currently writes
for a constant log axis; the change that fixes svgplot updates that hash.
verify-perturbation is also pinned at q = 3 with the pauli and statistical
kinds, at one seed that passes (exit 0) and one that fails a check (exit 3).
The --help text of the CLI and of each command is pinned too, at 80
columns, so an edit to the shared parser cannot change the interface
unseen; the hashes are of Python 3.11's argparse layout, which other
versions may change.
"""

import hashlib
import json

import numpy as np
import pytest

import nrqae
from nrqae.channels import NoiseSpec
from nrqae.circuits import CircuitSimulator, sampled_provider
from nrqae.cli import main
from nrqae.estimator import run
from nrqae.model import amplitude_problem

README_CONFIG = {
    "config_version": 1, "mode": "amplitude", "qubits": 1, "amplitude": 0.75,
    "noise": {"kind": "pauli"}, "shots": 100000, "iterations": 5, "trials": 10,
    "seed": 7,
}

GOLDEN = {
    "estimate": {
        "estimate.csv": "5a758c57de73ff6308487880e25f284e87647d0d6e031880fe7d5bd0bb356c25",
    },
    "sweep-depth": {
        "sweep_depth.csv": "ee4f89c09f0f62a6405a2d282bd0d7725dc0afca6e7e6d520ee1a357304279cb",
        "sweep_depth.svg": "fc90c3a51c6014bfb2b0908cfc75b3cb307452deb9eb7b904c1b2e099aa96147",
        "sweep_depth_summary.csv":
            "2d76709e87828b2d0a00f1c3ac05e807522eb02ebca183feca48ee0ed74dba8e",
    },
    "compare-noise": {
        "compare_noise.csv": "120109dddbd010db104d7f2dd2f3702d839e5cb4d4d7f68e2bb09105b29ab463",
        "compare_noise.svg": "471520eba32545d3a85fcd9f06cefd008cfb476ab01d39730e9b8778eea938ce",
    },
    "verify-perturbation": {
        "verify_perturbation.csv":
            "f51f52d5a37557e4eb1356379ce32e59e12ebe5eda7192851d7e7b8a81ab80fc",
        "verify_perturbation.svg":
            "1b2ddd9508e39f24e0abffe531baf89175da384ac84c54ef796fab9777b351d9",
        "verify_perturbation_summary.csv":
            "694270b13b0c91efc967d6697a01bff50c6bc7d313fb23ef57f065cd1a3f1f43",
    },
}


VERIFY_Q3_GOLDEN = {
    0: (0, {
        "verify_perturbation.csv":
            "25994f6198061f912f805681ba46daa97a18270c67392e267624f0fced033208",
        "verify_perturbation.svg":
            "5f268e5a40f55af0da1ab344a30334c1ea44668a82de675092d7e2ac0ac66494",
        "verify_perturbation_summary.csv":
            "fd6c9070720036f0b9c20e2609fc3548344d650575370adf79548311ab5da9b9",
    }),
    53: (3, {
        "verify_perturbation.csv":
            "9ef8b4f0ab2a55e4c9b427e94d059bff4fae381fedcdc7d9fef6898e6c8b6b6d",
        "verify_perturbation.svg":
            "fa820aae8563c9458a8d0bfe521a4018f070a4573349755f9a5ecda894027f52",
        "verify_perturbation_summary.csv":
            "ccfb1b1560adb5f07232350ac861f783496242863a69c12f8905064cf52dccd2",
    }),
}


HELP = {
    "nrqae": "cba0f55e46ca205e6af48559022a1071a89bb8b31951fc7c9c9e741bb86bf99d",
    "nrqae estimate": "7630d4b857600e393b10ed2b9f2d9b046c34f2d1f4b26f3715a4db777ff1bcdc",
    "nrqae sweep-depth": "248e91c51cd5ffbfe7a38162033170f8d7e62bb9467affaa216e0be85f80e6ca",
    "nrqae compare-noise": "553a6b35b982a44165f9d6e876ffe2751298643ab6f64efe504c17649345e2f9",
    "nrqae verify-perturbation":
        "8594146433afe3d8f5f2ac337563b297d3849d0fe1328ee2375fef1f8d1cad56",
    "nrqae plan-shots": "824818afbfd00bddd3ee0052f2f491ecba35cd450ac3f805ec2e120d9dae34bf",
}


def _artifact_hashes(out) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_readme_config_artifacts(command, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(README_CONFIG))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
    printed = capsys.readouterr().out.splitlines()
    if command == "estimate":
        assert "value=0.800081722 mirror=0.199918278 true=0.75" in printed
    assert _artifact_hashes(out) == GOLDEN[command]


@pytest.mark.parametrize("seed", sorted(VERIFY_Q3_GOLDEN))
def test_verify_perturbation_q3_artifacts(seed, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(README_CONFIG, qubits=3,
                                   compare_kinds=["pauli", "statistical"])))
    out = tmp_path / "out"
    code, hashes = VERIFY_Q3_GOLDEN[seed]
    assert main(["verify-perturbation", "--config", str(cfg), "--seed", str(seed),
                 "--out", str(out)]) == code
    assert _artifact_hashes(out) == hashes


@pytest.mark.parametrize("command", sorted(HELP))
def test_help_text(command, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([*command.split()[1:], "--help"])
    assert exc.value.code == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == HELP[command]


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
