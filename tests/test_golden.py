"""Golden artifacts: the README config at seed 7 through every command.

The hashes pin the exact bytes each command writes, so a refactor that
claims to keep the behaviour can be checked by running this file. The
sweep_depth.svg hash includes the nan coordinates svgplot currently writes
for a constant log axis; the change that fixes svgplot updates that hash.
"""

import hashlib
import json

import pytest

import nrqae
from nrqae.cli import main

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


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_readme_config_artifacts(command, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(README_CONFIG))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
    printed = capsys.readouterr().out.splitlines()
    if command == "estimate":
        assert "value=0.800081722 mirror=0.199918278 true=0.75" in printed
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert written == GOLDEN[command]


def test_every_export_resolves():
    assert all(hasattr(nrqae, name) for name in nrqae.__all__)
