"""Exact and sampled depth series for the noisy walk channel.

One layer of the simulated circuit is the channel S: rho -> N(G rho G^dag),
with G the walk operator and N the noise channel; depth n applies the same
layer n times. The depth statistic is

    t_n = <<rho_tilde | S^n | rho_tilde>>

which a hardware run assembles from four prepare/measure probabilities with
signs (+, -, -, +). Noiseless, t_n = 2 |c|^2 cos(n theta_ch).

S is never formed as a matrix: the simulator pushes a d x d density matrix
through one layer at a time and keeps the scalar read-outs of every depth
it passes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .channels import NoiseSpec, noise_superop
from .errors import NonPhysicalChannelError
from .model import EstimationProblem, conjugation_superop, grover, rho_tilde, vectorize
from .rng import substream

_CLAMP_TOL = 1e-6
_IMAG_TOL = 1e-8

EXACT_DIVISION_GUARD = 1e-9


def problem_tag(problem: EstimationProblem) -> str:
    h = hashlib.sha256()
    h.update(problem.mode.encode())
    h.update(np.ascontiguousarray(problem.psi).tobytes())
    h.update(np.ascontiguousarray(problem.second_state()).tobytes())
    return h.hexdigest()[:12]


def _clamped_real(value: complex, context: str) -> float:
    if abs(value.imag) > _IMAG_TOL:
        raise NonPhysicalChannelError(f"{context}: non-real probability {value}")
    p = value.real
    if p < -_CLAMP_TOL or p > 1.0 + _CLAMP_TOL:
        raise NonPhysicalChannelError(f"{context}: probability {p} outside [0, 1]")
    return float(min(max(p, 0.0), 1.0))


class _Trajectory:
    """One initial operator pushed through successive layers.

    Only the latest operator is kept, plus the read-out <<probe|rho_m>> of
    every registered probe at every depth m passed so far. A depth below the
    current one that was never read (a probe registered late) replays the
    trajectory from depth 0; the replay repeats the same arithmetic, so its
    values are bit-identical to a fresh trajectory's.
    """

    def __init__(self, rho0: np.ndarray, layer):
        self._rho0 = rho0
        self._layer = layer
        self._rho = rho0
        self._depth = 0
        self._probes: dict = {}
        self._readouts: dict = {}

    def readout(self, key, probe_vec: np.ndarray, n: int) -> complex:
        if n < 0:
            raise ValueError(f"negative depth {n}")
        value = self._readouts.get((key, n))
        if value is not None:
            return value
        self._probes.setdefault(key, probe_vec)
        if n < self._depth:
            self._rho, self._depth = self._rho0, 0
        self._record()
        while self._depth < n:
            self._rho = self._layer(self._rho)
            self._depth += 1
            self._record()
        return self._readouts[(key, n)]

    def _record(self):
        flat = self._rho.reshape(-1)
        for key, vec in self._probes.items():
            self._readouts[(key, self._depth)] = complex(np.vdot(vec, flat))


class CircuitSimulator:
    """Propagates density matrices through layers rho -> N(G rho G^dag).

    A layer is two d x d products for the walk and, per qubit, one product
    of the 4 x 4 single-qubit noise superoperator with the (i_j, k_j) index
    pair of rho. exact_t follows rho_tilde itself and prob follows each
    preparation once; each trajectory keeps only its latest matrix, so a
    depth costs the layers beyond the deepest one reached and a repeated
    depth is free. Build one simulator per (problem, noise) and share it:
    every value is independent of what the simulator served before.

    noise_matrix, when given, overrides the built-in channel kinds with an
    explicit d^2 x d^2 superoperator, applied as a dense product on vec(rho).
    """

    def __init__(self, problem: EstimationProblem, noise: NoiseSpec = NoiseSpec(),
                 noise_matrix: Optional[np.ndarray] = None):
        self.problem = problem
        self.noise = noise
        g = grover(problem)
        if noise_matrix is not None:
            self._step = np.asarray(noise_matrix, dtype=complex) @ conjugation_superop(g)
            self._layer = self._dense_layer
        else:
            self._g = g
            self._g_dag = g.conj().T.copy()
            self._noise_t = noise_superop(noise, 1).T.copy()
            q = problem.qubits
            # (i_1..i_q, k_1..k_q) <-> (i_1, k_1, ..., i_q, k_q)
            self._pairs = tuple(a for j in range(q) for a in (j, q + j))
            self._unpairs = tuple(np.argsort(self._pairs))
            self._layer = self._noisy_walk
        tilde = rho_tilde(problem)
        self.rho_tilde_vec = vectorize(tilde)
        self._tilde = _Trajectory(tilde, self._layer)
        self._preps: dict = {}
        self._t_cache: dict[int, float] = {}

    def _dense_layer(self, rho: np.ndarray) -> np.ndarray:
        return (self._step @ rho.reshape(-1)).reshape(rho.shape)

    def _noisy_walk(self, rho: np.ndarray) -> np.ndarray:
        d = rho.shape[0]
        q = self.problem.qubits
        rho = self._g @ rho @ self._g_dag
        x = rho.reshape((2,) * (2 * q)).transpose(self._pairs)
        # Each pass maps the leading (i_j, k_j) pair and rotates it to the
        # back; after q passes the pairs are back in order.
        for _ in range(q):
            x = x.reshape(4, -1).T @ self._noise_t
        return x.reshape((2,) * (2 * q)).transpose(self._unpairs).reshape(d, d)

    def prob(self, prep, meas, n: int) -> float:
        """Probability of projecting onto meas after n layers from prep."""
        prep = np.asarray(prep, dtype=complex)
        meas = np.asarray(meas, dtype=complex)
        traj = self._preps.get(prep.tobytes())
        if traj is None:
            traj = _Trajectory(np.outer(prep, np.conj(prep)), self._layer)
            self._preps[prep.tobytes()] = traj
        meas_vec = vectorize(np.outer(meas, np.conj(meas)))
        return _clamped_real(traj.readout(meas.tobytes(), meas_vec, n), f"depth {n}")

    def _signed_pairs(self):
        psi = self.problem.psi
        sec = self.problem.second_state()
        return ((sec, sec, 1.0), (psi, sec, -1.0), (sec, psi, -1.0), (psi, psi, 1.0))

    def exact_t(self, n: int) -> float:
        """<<rho_tilde | S^n | rho_tilde>>, cached per depth."""
        if n not in self._t_cache:
            raw = self._tilde.readout(None, self.rho_tilde_vec, n)
            if abs(raw.imag) > _IMAG_TOL:
                raise NonPhysicalChannelError(f"depth {n}: non-real t value {raw}")
            self._t_cache[n] = float(raw.real)
        return self._t_cache[n]

    def sampled_t(self, n: int, shots: int, seed: int, trial: int = 0, boost: int = 1) -> float:
        """Binomial estimate of t_n from four independently sampled circuits.

        Each of the four probabilities is drawn from its own substream keyed
        by (trial, depth, term, boost), so any value is reproducible in
        isolation and a retry with boosted shots is a fresh measurement.
        """
        if shots < 1:
            raise ValueError(f"shots must be >= 1, got {shots}")
        total = 0.0
        eff = shots * boost
        for term, (prep, meas, sign) in enumerate(self._signed_pairs()):
            p = self.prob(prep, meas, n)
            gen = substream(seed, trial, n, term, boost)
            total += sign * gen.binomial(eff, p) / eff
        return total


def circuit_prob(prep, meas, n: int, problem: EstimationProblem,
                 noise: NoiseSpec = NoiseSpec()) -> float:
    return CircuitSimulator(problem, noise).prob(prep, meas, n)


def exact_t(n: int, problem: EstimationProblem, noise: NoiseSpec = NoiseSpec()) -> float:
    return CircuitSimulator(problem, noise).exact_t(n)


def sampled_t(n: int, shots: int, problem: EstimationProblem, noise: NoiseSpec = NoiseSpec(),
              seed: int = 0, trial: int = 0) -> float:
    return CircuitSimulator(problem, noise).sampled_t(n, shots, seed, trial)


def t_halfwidth(shots: int, delta: float = 0.5) -> float:
    """Hoeffding half-width of a sampled t value.

    t is a signed sum of four Binomial(shots, p)/shots terms, so a union
    bound gives |t_hat - t| <= 4 sqrt(ln(2/delta) / (2 shots)) with
    probability at least 1 - 4 delta.
    """
    return 4.0 * np.sqrt(np.log(2.0 / delta) / (2.0 * shots))


@dataclass
class TSeries:
    """Record of measured t values keyed by depth."""

    problem: str = ""
    noise: str = ""
    seed: Optional[int] = None
    shots: Optional[int] = None
    entries: dict = field(default_factory=dict)

    def record(self, n: int, value: float):
        self.entries.setdefault(n, float(value))

    def depths(self):
        return sorted(self.entries)

    def value(self, n: int) -> float:
        return self.entries[n]


def _simulator(problem: EstimationProblem, noise: NoiseSpec,
               sim: Optional[CircuitSimulator]) -> CircuitSimulator:
    """sim when it simulates (problem, noise), else a new simulator."""
    if sim is None:
        return CircuitSimulator(problem, noise)
    if sim.problem is not problem or sim.noise != noise:
        raise ValueError("shared simulator was built for another problem or noise")
    return sim


class ExactTProvider:
    """Serves exact expectations; division guard at float-noise scale."""

    def __init__(self, problem: EstimationProblem, noise: NoiseSpec = NoiseSpec(),
                 noise_matrix: Optional[np.ndarray] = None):
        self.sim = CircuitSimulator(problem, noise, noise_matrix=noise_matrix)
        self.eps_div = EXACT_DIVISION_GUARD
        self.series = TSeries(problem=problem_tag(problem), noise=noise.tag())

    def triplet(self, n: int, boost: int = 1):
        values = tuple(self.sim.exact_t(m) for m in (n, 2 * n, 3 * n))
        for m, v in zip((n, 2 * n, 3 * n), values):
            self.series.record(m, v)
        return values

    def calls_for(self, n: int, boost: int = 1) -> int:
        return 0


class SampledTProvider:
    """Serves binomial-sampled t values with per-depth caching.

    The guard eps_div is three Hoeffding half-widths of t at the configured
    shot count (delta = 0.5 working point), so a ratio is formed only when
    the denominator clears its own statistical noise by a wide margin.
    Trials may share one simulator: its probabilities do not depend on the
    trial, and each draw has its own substream.
    """

    def __init__(self, problem: EstimationProblem, noise: NoiseSpec, shots: int,
                 seed: int, trial: int = 0, sim: Optional[CircuitSimulator] = None):
        self.sim = _simulator(problem, noise, sim)
        self.shots = shots
        self.seed = seed
        self.trial = trial
        self.eps_div = 3.0 * t_halfwidth(shots)
        self.series = TSeries(problem=problem_tag(problem), noise=noise.tag(),
                              seed=seed, shots=shots)
        self._cache: dict[tuple, float] = {}

    def triplet(self, n: int, boost: int = 1):
        out = []
        for m in (n, 2 * n, 3 * n):
            key = (m, boost)
            if key not in self._cache:
                self._cache[key] = self.sim.sampled_t(m, self.shots, self.seed,
                                                      self.trial, boost=boost)
            out.append(self._cache[key])
            if boost == 1:
                self.series.record(m, self._cache[key])
        return tuple(out)

    def calls_for(self, n: int, boost: int = 1) -> int:
        # Four circuits at each of the depths n, 2n, 3n.
        return self.shots * boost * 4 * (n + 2 * n + 3 * n)


class PerturbedTProvider:
    """Exact values plus a signed offset eps per depth (robustness sweeps).

    The sign is drawn once per (trial, depth) from a seeded substream; the
    guard scales with the perturbation the way the sampled guard scales
    with shot noise.
    """

    def __init__(self, problem: EstimationProblem, noise: NoiseSpec, eps: float,
                 seed: int, trial: int = 0, sim: Optional[CircuitSimulator] = None):
        if eps < 0:
            raise ValueError(f"perturbation must be >= 0, got {eps}")
        self.sim = _simulator(problem, noise, sim)
        self.eps = eps
        self.seed = seed
        self.trial = trial
        self.eps_div = max(3.0 * eps, EXACT_DIVISION_GUARD)
        self.series = TSeries(problem=problem_tag(problem), noise=noise.tag(), seed=seed)
        self._cache: dict[int, float] = {}

    def _value(self, n: int) -> float:
        if n not in self._cache:
            sign = 1.0 if substream(self.seed, self.trial, n).integers(0, 2) else -1.0
            self._cache[n] = self.sim.exact_t(n) + sign * self.eps
        return self._cache[n]

    def triplet(self, n: int, boost: int = 1):
        values = tuple(self._value(m) for m in (n, 2 * n, 3 * n))
        for m, v in zip((n, 2 * n, 3 * n), values):
            self.series.record(m, v)
        return values

    def calls_for(self, n: int, boost: int = 1) -> int:
        return 0


def t_triplet(n: int, problem: EstimationProblem, noise: NoiseSpec = NoiseSpec(),
              shots: Optional[int] = None, seed: int = 0, trial: int = 0):
    """t at depths (n, 2n, 3n), exact when shots is None."""
    if shots is None:
        return ExactTProvider(problem, noise).triplet(n)
    return SampledTProvider(problem, noise, shots, seed, trial).triplet(n)
