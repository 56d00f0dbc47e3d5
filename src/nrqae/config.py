"""Experiment configuration: JSON round-trip plus problem construction.

A config file is a single JSON object; unknown keys are rejected so typos
fail loudly. json.dump(dataclasses.asdict(cfg), fh) writes one that
load_config reads back. Exactly one way of specifying the state geometry must be
given: amplitude, expectation, theta_g, theta_ch, or explicit vectors.
CLI flags override file values (flag > file > default).
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from .channels import NOISE_KINDS, NoiseSpec, pauli_string
from .errors import ConfigError
from .model import (NORM_TOL, EstimationProblem, amplitude_problem, eig_dense, observable_problem,
                    rotation_plane)

CONFIG_VERSION = 1
# On the dense layer each simulated layer multiplies d x d density matrices
# (d = 2^q) by the walk operator, O(8^q) work; the cap bounds it before any array
# is built. Noisy problems at q >= 2 whose states lie on two basis states (synthetic
# amplitude problems, and observable ones whose psi does) run in count space instead.
MAX_QUBITS = 8
# Iteration k reaches depth 3 * 2^k, so the cap bounds a run at 12,288 layers,
# and MAX_DEPTH bounds depth_grid at the same deepest layer.
MAX_ITERATIONS = 12
MAX_DEPTH = 3 * 2 ** MAX_ITERATIONS
# Shot counts are drawn as int64 binomial counts, 4x larger on a retry.
MAX_SHOTS = 2 ** 60
# Trials run one after another, each adding its rows to the CSVs: at the cap a
# README-config compare-noise run (q = 1) takes about 20 s and writes 5 MB.
MAX_TRIALS = 10_000

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
        _check_type("config_version", self.config_version, _is_int, "an integer")
        if self.config_version != CONFIG_VERSION:
            raise ConfigError(f"unsupported config_version {self.config_version}")
        if self.mode not in ("amplitude", "observable"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        for name in ("qubits", "iterations", "trials", "seed"):
            _check_type(name, getattr(self, name), _is_int, "an integer")
        _check_type("perturbation", self.perturbation, _is_number, "a number")
        for name in ("exact", "retry"):
            _check_type(name, getattr(self, name), lambda v: isinstance(v, bool), "true or false")
        for name in ("amplitude", "expectation", "theta_g", "theta_ch"):
            _check_type(name, getattr(self, name), _optional(_is_number), "a number")
        for name in ("psi", "phi"):
            _check_type(name, getattr(self, name), _optional(_is_pairs), "a list of [re, im] pairs")
        _check_type("observable", self.observable, _optional(lambda v: isinstance(v, str)),
                    "a Pauli string")
        for key, value in self.noise.params.items():
            _check_type(f"noise param {key}", value,
                        lambda v: _is_number(v) and abs(v) <= sys.float_info.max,
                        "a finite number")
        _check_type("noise seed", self.noise.seed, _optional(_is_int), "an integer")
        if self.noise.seed is not None and self.noise.seed < 0:
            raise ConfigError(f"noise seed must be >= 0, got {self.noise.seed}")
        _check_type("compare_kinds", self.compare_kinds, _optional(
            lambda v: isinstance(v, list) and all(kind in NOISE_KINDS for kind in v)),
            "a list of noise kinds")
        # an empty list would fall back to the noise kind, and a repeated kind
        # would write its rows twice under one plot series
        if self.compare_kinds == []:
            raise ConfigError("compare_kinds must name at least one noise kind, got []")
        if self.compare_kinds and len(set(self.compare_kinds)) < len(self.compare_kinds):
            raise ConfigError(f"compare_kinds must not repeat a kind, got {self.compare_kinds}")
        if not 1 <= self.qubits <= MAX_QUBITS:
            raise ConfigError(f"qubits must be in [1, {MAX_QUBITS}], got {self.qubits}")
        label = self.observable or ""
        if self.mode == "observable" and (len(label) != self.qubits
                                          or not set(label) <= set("IXYZ")
                                          or not set(label) & set("XYZ")):
            raise ConfigError(f"observable must be one IXYZ letter per qubit "
                              f"(qubits = {self.qubits}), not all I (the identity is not "
                              f"traceless), got {self.observable!r}")
        if self.iterations < 0:
            raise ConfigError(f"iterations must be >= 0, got {self.iterations}")
        if self.iterations > MAX_ITERATIONS:
            raise ConfigError(f"iterations must be <= {MAX_ITERATIONS}, got {self.iterations}")
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if self.trials > MAX_TRIALS:
            raise ConfigError(f"trials must be <= {MAX_TRIALS}, got {self.trials}")
        if self.shots is not None:
            _check_type("shots", self.shots, _is_int, "an integer")
            if self.shots < 1:
                raise ConfigError(f"shots must be >= 1, got {self.shots}")
            if self.shots > MAX_SHOTS:
                raise ConfigError(f"shots must be <= 2**60, got {self.shots}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not 0 <= self.perturbation <= sys.float_info.max:
            raise ConfigError(
                f"perturbation must be a finite number >= 0, got {self.perturbation}")
        _check_grid("depth_grid", self.depth_grid, lambda n: _is_int(n) and 0 <= n <= MAX_DEPTH,
                    f"a non-negative integer <= {MAX_DEPTH}")
        _check_grid("s_grid", self.s_grid, lambda s: _is_number(s) and 0.0 <= s <= 1.0,
                    "a number in [0, 1]")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_pairs(value) -> bool:
    return isinstance(value, list) and all(
        isinstance(pair, list) and len(pair) == 2 and all(map(_is_number, pair))
        for pair in value)


def _optional(valid):
    return lambda value: value is None or valid(value)


def _check_type(name: str, value, valid, wanted: str):
    if not valid(value):
        raise ConfigError(f"{name} must be {wanted}, got {value!r}")


def _check_grid(name: str, grid, valid, wanted: str):
    """Entry-wise check plus the two distinct positive points the log-log slope fits need."""
    if not isinstance(grid, list):
        raise ConfigError(f"{name} must be a list, got {type(grid).__name__}")
    for entry in grid:
        if not valid(entry):
            raise ConfigError(f"{name} entry {entry!r} is not {wanted}")
    if len({entry for entry in grid if entry > 0}) < 2:
        raise ConfigError(f"{name} needs at least two positive points with distinct values, "
                          f"got {grid}")


def _noise_from_dict(d) -> NoiseSpec:
    if not isinstance(d, dict):
        raise ConfigError(f"noise must be an object, got {type(d).__name__}")
    unknown = set(d) - {"kind", "params", "seed"}
    if unknown:
        raise ConfigError(f"unknown noise keys: {sorted(unknown, key=repr)}")
    params = d.get("params", {})
    _check_type("noise params", params, lambda v: isinstance(v, dict), "an object")
    return NoiseSpec(kind=d.get("kind", "none"), params=dict(params), seed=d.get("seed"))


def config_from_dict(d: dict) -> ExperimentConfig:
    if not isinstance(d, dict):
        raise ConfigError(f"config must be an object, got {type(d).__name__}")
    known = {f.name for f in fields(ExperimentConfig)}
    unknown = set(d) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown, key=repr)}")
    kwargs = dict(d)
    if "noise" in kwargs:
        kwargs["noise"] = _noise_from_dict(kwargs["noise"])
    return ExperimentConfig(**kwargs)


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # also bad UTF-8, huge ints, deep nesting
        raise ConfigError(f"config {path} is not readable JSON: {exc}") from exc
    return config_from_dict(data)


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
    else:  # build_problem calls this with exactly one scalar geometry set
        if not -1.0 <= cfg.expectation <= 1.0:
            raise ConfigError(f"expectation {cfg.expectation} outside [-1, 1]")
        theta = float(np.arccos(cfg.expectation))
    if not 0.0 < theta < np.pi:
        raise ConfigError(f"state phase {theta} is degenerate (needs (0, pi))")
    return float(theta)


def _vector_from(entries, dim: int, name: str) -> np.ndarray:
    arr = np.asarray(entries, dtype=float)
    if arr.shape != (dim, 2):
        raise ConfigError(f"{name} must be a list of {dim} [re, im] pairs")
    vec = arr[:, 0] + 1j * arr[:, 1]
    norm = float(np.linalg.norm(vec))
    if not abs(norm - 1.0) <= NORM_TOL:
        raise ConfigError(f"{name} is not normalized: |{name}| = {norm:.6g}")
    return vec


def build_problem(cfg: ExperimentConfig) -> EstimationProblem:
    """Concrete problem instance from the configured geometry.

    Synthetic states put |psi> on the first basis vector with the second
    direction on the last basis vector (amplitude mode), or split |psi>
    across the first +1 and -1 eigenvectors of the observable at the angle
    matching the requested expectation (observable mode). Explicit states
    that span no plane for the walk raise DegenerateProblemError, as the
    scalar forms of a degenerate geometry raise ConfigError.
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
            problem = amplitude_problem(_vector_from(cfg.psi, dim, "psi"),
                                        _vector_from(cfg.phi, dim, "phi"))
            rotation_plane(problem)  # the states must span the walk's plane
            return problem
        delta = _theta_g_from(cfg) / 2.0
        psi = np.zeros(dim, dtype=complex)
        psi[0] = 1.0
        phi = np.zeros(dim, dtype=complex)
        phi[0] = np.cos(delta)
        phi[-1] = np.sin(delta)
        return amplitude_problem(psi, phi)
    if cfg.amplitude is not None or cfg.phi is not None:
        raise ConfigError("amplitude/phi are amplitude-mode settings")
    obs = pauli_string(cfg.observable)
    if cfg.psi is not None:
        problem = observable_problem(_vector_from(cfg.psi, dim, "psi"), obs)
        rotation_plane(problem)  # the states must span the walk's plane
        return problem
    chi = _theta_g_from(cfg)
    w, v = eig_dense(obs)
    plus = v[:, int(np.argmin(np.abs(w - 1.0)))]
    minus = v[:, int(np.argmin(np.abs(w + 1.0)))]
    psi = np.cos(chi / 2.0) * plus + np.sin(chi / 2.0) * minus
    return observable_problem(psi, obs)
