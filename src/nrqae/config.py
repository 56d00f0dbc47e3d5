"""Experiment configuration: JSON round-trip plus problem construction.

A config file is a single JSON object; unknown keys are rejected so typos
fail loudly. Exactly one way of specifying the state geometry must be
given: amplitude, expectation, theta_g, theta_ch, or explicit vectors.
CLI flags override file values (flag > file > default).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from .channels import NoiseSpec, pauli_string
from .errors import ConfigError
from .linalg import eig_dense
from .model import EstimationProblem, amplitude_problem, observable_problem

CONFIG_VERSION = 1
# Each simulated layer multiplies d x d density matrices (d = 2^q) by the dense
# walk operator, O(8^q) work; the cap bounds it before any array is built.
MAX_QUBITS = 8

DEFAULT_S_GRID = [0.001, 0.002154434690032, 0.004641588833613, 0.01,
                  0.02154434690032, 0.04641588833613, 0.1]


@dataclass
class ExperimentConfig:
    config_version: int = CONFIG_VERSION
    mode: str = "amplitude"
    qubits: int = 1
    amplitude: Optional[float] = None
    expectation: Optional[float] = None
    theta_g: Optional[float] = None
    theta_ch: Optional[float] = None
    psi: Optional[list] = None
    phi: Optional[list] = None
    observable: Optional[str] = None
    noise: NoiseSpec = field(default_factory=NoiseSpec)
    compare_kinds: Optional[list] = None
    shots: Optional[int] = 100_000
    exact: bool = False
    iterations: int = 5
    trials: int = 10
    seed: int = 7
    perturbation: float = 0.01
    retry: bool = False
    s_grid: list = field(default_factory=lambda: list(DEFAULT_S_GRID))
    depth_grid: list = field(default_factory=lambda: [1, 2, 4, 8, 16, 32, 64])

    def __post_init__(self):
        if self.config_version != CONFIG_VERSION:
            raise ConfigError(f"unsupported config_version {self.config_version}")
        if self.mode not in ("amplitude", "observable"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if not 1 <= self.qubits <= MAX_QUBITS:
            raise ConfigError(f"qubits must be in [1, {MAX_QUBITS}], got {self.qubits}")
        if self.iterations < 0:
            raise ConfigError(f"iterations must be >= 0, got {self.iterations}")
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if self.shots is not None and self.shots < 1:
            raise ConfigError(f"shots must be >= 1, got {self.shots}")


def _noise_to_dict(spec: NoiseSpec) -> dict:
    out = {"kind": spec.kind}
    if spec.params:
        out["params"] = dict(spec.params)
    if spec.seed is not None:
        out["seed"] = spec.seed
    return out


def _noise_from_dict(d) -> NoiseSpec:
    if not isinstance(d, dict):
        raise ConfigError(f"noise must be an object, got {type(d).__name__}")
    unknown = set(d) - {"kind", "params", "seed"}
    if unknown:
        raise ConfigError(f"unknown noise keys: {sorted(unknown)}")
    return NoiseSpec(kind=d.get("kind", "none"), params=dict(d.get("params", {})),
                     seed=d.get("seed"))


def config_to_dict(cfg: ExperimentConfig) -> dict:
    out = {}
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if f.name == "noise":
            out[f.name] = _noise_to_dict(value)
        else:
            out[f.name] = value
    return out


def config_from_dict(d: dict) -> ExperimentConfig:
    if not isinstance(d, dict):
        raise ConfigError(f"config must be an object, got {type(d).__name__}")
    known = {f.name for f in fields(ExperimentConfig)}
    unknown = set(d) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    kwargs = dict(d)
    if "noise" in kwargs:
        kwargs["noise"] = _noise_from_dict(kwargs["noise"])
    try:
        return ExperimentConfig(**kwargs)
    except TypeError as exc:
        raise ConfigError(f"bad config: {exc}") from exc


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return config_from_dict(data)


def save_config(cfg: ExperimentConfig, path: str):
    with open(path, "w") as fh:
        json.dump(config_to_dict(cfg), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _state_spec_count(cfg: ExperimentConfig) -> int:
    return sum(v is not None for v in
               (cfg.amplitude, cfg.expectation, cfg.theta_g, cfg.theta_ch, cfg.psi))


def _theta_g_from(cfg: ExperimentConfig) -> float:
    if cfg.theta_g is not None:
        theta = cfg.theta_g
    elif cfg.theta_ch is not None:
        theta = cfg.theta_ch / 2.0
    elif cfg.amplitude is not None:
        if not 0.0 <= cfg.amplitude <= 1.0:
            raise ConfigError(f"amplitude {cfg.amplitude} outside [0, 1]")
        theta = float(np.arccos(2.0 * cfg.amplitude - 1.0))
    elif cfg.expectation is not None:
        if not -1.0 <= cfg.expectation <= 1.0:
            raise ConfigError(f"expectation {cfg.expectation} outside [-1, 1]")
        theta = float(np.arccos(cfg.expectation))
    else:
        raise ConfigError("no state geometry given")
    if not 0.0 < theta < np.pi:
        raise ConfigError(f"state phase {theta} is degenerate (needs (0, pi))")
    return float(theta)


def _vector_from(entries, dim: int, name: str) -> np.ndarray:
    arr = np.asarray(entries, dtype=float)
    if arr.shape != (dim, 2):
        raise ConfigError(f"{name} must be a list of {dim} [re, im] pairs")
    return arr[:, 0] + 1j * arr[:, 1]


def build_problem(cfg: ExperimentConfig) -> EstimationProblem:
    """Concrete problem instance from the configured geometry.

    Synthetic states put |psi> on the first basis vector with the second
    direction on the last basis vector (amplitude mode), or split |psi>
    across the first +1 and -1 eigenvectors of the observable at the angle
    matching the requested expectation (observable mode).
    """
    count = _state_spec_count(cfg)
    if count != 1:
        raise ConfigError(f"exactly one state specification required, got {count}")
    dim = 2 ** cfg.qubits
    if cfg.mode == "amplitude":
        if cfg.expectation is not None:
            raise ConfigError("expectation is an observable-mode setting")
        if cfg.psi is not None:
            if cfg.phi is None:
                raise ConfigError("explicit psi needs an explicit phi in amplitude mode")
            return amplitude_problem(_vector_from(cfg.psi, dim, "psi"),
                                     _vector_from(cfg.phi, dim, "phi"))
        delta = _theta_g_from(cfg) / 2.0
        psi = np.zeros(dim, dtype=complex)
        psi[0] = 1.0
        phi = np.zeros(dim, dtype=complex)
        phi[0] = np.cos(delta)
        phi[-1] = np.sin(delta)
        return amplitude_problem(psi, phi)
    if cfg.amplitude is not None or cfg.phi is not None:
        raise ConfigError("amplitude/phi are amplitude-mode settings")
    if cfg.observable is None:
        raise ConfigError("observable mode needs an observable Pauli string")
    obs = pauli_string(cfg.observable)
    if obs.shape[0] != dim:
        raise ConfigError(f"observable {cfg.observable!r} acts on "
                          f"{int(np.log2(obs.shape[0]))} qubits, config says {cfg.qubits}")
    if cfg.psi is not None:
        return observable_problem(_vector_from(cfg.psi, dim, "psi"), obs)
    chi = _theta_g_from(cfg)
    spec = eig_dense(obs)
    plus = spec.eigenvectors[:, int(np.argmin(np.abs(spec.eigenvalues - 1.0)))]
    minus = spec.eigenvectors[:, int(np.argmin(np.abs(spec.eigenvalues + 1.0)))]
    psi = np.cos(chi / 2.0) * plus + np.sin(chi / 2.0) * minus
    return observable_problem(psi, obs)
