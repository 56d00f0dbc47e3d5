"""Exact and sampled depth series for the noisy walk channel.

One layer of the simulated circuit is the channel S: rho -> N(G rho G^dag),
with G the walk operator and N the noise channel; depth n applies the same
layer n times. The depth statistic is

    t_n = <<rho_tilde | S^n | rho_tilde>>

which a hardware run assembles from four prepare/measure probabilities with
signs (+, -, -, +). Noiseless, t_n = 2 |c|^2 cos(n theta_ch).

S is never formed as a matrix: the simulator pushes a stack of d x d
density matrices through one layer at a time and keeps the scalar
read-outs of every depth it passes; a sampled run follows both of its
preparations in one two-slice stack. One provider class, TProvider,
serves the depths (n, 2n, 3n) to the estimator; exact_provider,
sampled_provider and perturbed_provider give it its measurement rule
(exact, binomial or offset) and its guard.
"""

from __future__ import annotations

import numpy as np

from .channels import NoiseSpec, noise_superop
from .errors import NonPhysicalChannelError
# conjugation_superop is unused here; the benchmark's traced pass looks it up.
from .model import EstimationProblem, conjugation_superop, grover, rho_tilde, vectorize
from .rng import substream

_CLAMP_TOL = 1e-6
_IMAG_TOL = 1e-8

EXACT_DIVISION_GUARD = 1e-9


def _clamped_real(value: complex, context: str) -> float:
    if abs(value.imag) > _IMAG_TOL:
        raise NonPhysicalChannelError(f"{context}: non-real probability {value}")
    p = value.real
    if p < -_CLAMP_TOL or p > 1.0 + _CLAMP_TOL:
        raise NonPhysicalChannelError(f"{context}: probability {p} outside [0, 1]")
    return float(min(max(p, 0.0), 1.0))


def _pair_indices(qubits: int):
    """Gather indices between rho's flat order and its qubit-paired order.

    rho.reshape(-1).take(pair) is rho.reshape((2,) * 2q).transpose(pairs)
    flattened, with the axes (i_1..i_q, k_1..k_q) reordered to
    (i_1, k_1, ..., i_q, k_q); unpair is the inverse permutation.
    """
    pairs = tuple(a for j in range(qubits) for a in (j, qubits + j))
    pair = np.arange(4 ** qubits).reshape((2,) * (2 * qubits)).transpose(pairs).reshape(-1)
    return pair, np.argsort(pair)


class _Trajectory:
    """A stack of initial operators (B, d, d) pushed through successive layers.

    Only the latest stack is kept, plus the read-out <<probe|rho_m[b]>> of
    every registered (slice b, probe) at every depth m passed so far. A
    depth below the current one that was never read (a probe registered
    late) replays the trajectory from depth 0; the replay repeats the same
    arithmetic, so its values are bit-identical to a fresh trajectory's.
    The layer comes with each call: a stored bound method of the simulator
    would close a reference cycle and leave a dead simulator to the cyclic
    collector.
    """

    def __init__(self, rho0: np.ndarray):
        self._rho0 = rho0
        self._rho = rho0
        self._depth = 0
        self._probes: dict = {}
        self._readouts: dict = {}

    def readout(self, index: int, key, probe_vec: np.ndarray, n: int, layer) -> complex:
        if n < 0:
            raise ValueError(f"negative depth {n}")
        value = self._readouts.get((index, key, n))
        if value is not None:
            return value
        self._probes.setdefault((index, key), probe_vec)
        if n < self._depth:
            self._rho, self._depth = self._rho0, 0
        self._record()
        while self._depth < n:
            self._rho = layer(self._rho)
            self._depth += 1
            self._record()
        return self._readouts[(index, key, n)]

    def _record(self):
        flat = self._rho.reshape(len(self._rho), -1)
        for (index, key), vec in self._probes.items():
            self._readouts[(index, key, self._depth)] = complex(np.vdot(vec, flat[index]))


class CircuitSimulator:
    """Propagates stacks of density matrices through layers rho -> N(G rho G^dag).

    A layer is, per slice of the stack, two d x d products for the walk
    and, per qubit, one product of the 4 x 4 single-qubit noise
    superoperator with the (i_j, k_j) index pair of rho; the pairs are
    brought together and apart by two gathers through index arrays built
    once. exact_t follows rho_tilde itself. prob follows psi and the second
    state as one two-slice stack, built on its first call, any other
    preparation as its own one-slice stack, and builds each measurement
    vector once. Each trajectory keeps only its latest stack, so a depth
    costs the layers beyond the deepest one reached and a repeated depth
    is free. Build one simulator per (problem, noise) and share it: every
    value is independent of what the simulator served before. It is the
    handle the providers and the IQAE baseline take.
    """

    def __init__(self, problem: EstimationProblem, noise: NoiseSpec = NoiseSpec()):
        self.problem = problem
        self.noise = noise
        self._g = grover(problem)
        self._g_dag = self._g.conj().T.copy()
        self._noise_t = noise_superop(noise, 1).T.copy()
        self._pair, self._unpair = _pair_indices(problem.qubits)
        tilde = rho_tilde(problem)
        self.rho_tilde_vec = vectorize(tilde)
        self._tilde = _Trajectory(tilde[None])
        self._preps: dict = {}  # preparation bytes -> (trajectory, slice)
        self._meas_vecs: dict = {}

    def _noisy_walk(self, rho: np.ndarray) -> np.ndarray:
        # matmul runs one product per slice of a (B, ...) stack, so every
        # slice gets the arithmetic of a lone d x d matrix.
        b, d, _ = rho.shape
        x = (self._g @ rho @ self._g_dag).reshape(b, -1).take(self._pair, axis=1)
        # Each pass maps the leading (i_j, k_j) pair and rotates it to the
        # back; after q passes the pairs are back in order.
        for _ in range(self.problem.qubits):
            x = x.reshape(b, 4, -1).swapaxes(1, 2) @ self._noise_t
        return x.reshape(b, -1).take(self._unpair, axis=1).reshape(b, d, d)

    def _follow(self, *preps):
        """Start one trajectory whose stack holds the given preparations."""
        preps = [np.asarray(p, dtype=complex) for p in preps]
        traj = _Trajectory(np.stack([np.outer(p, np.conj(p)) for p in preps]))
        for index, prep in enumerate(preps):
            self._preps.setdefault(prep.tobytes(), (traj, index))

    def _state(self, v, role: str) -> np.ndarray:
        v = np.asarray(v, dtype=complex)
        d = 2 ** self.problem.qubits
        if v.shape != (d,):
            raise ValueError(f"{role} has shape {v.shape}, expected length 2^q = {d}")
        return v

    def prob(self, prep, meas, n: int) -> float:
        """Probability of projecting onto meas after n layers from prep."""
        prep = self._state(prep, "preparation")
        meas = self._state(meas, "measurement")
        if not self._preps:
            self._follow(self.problem.psi, self.problem.second_state())
        prep_key = prep.tobytes()
        if prep_key not in self._preps:
            self._follow(prep)
        traj, index = self._preps[prep_key]
        key = meas.tobytes()
        meas_vec = self._meas_vecs.get(key)
        if meas_vec is None:
            meas_vec = vectorize(np.outer(meas, np.conj(meas)))
            self._meas_vecs[key] = meas_vec
        value = traj.readout(index, key, meas_vec, n, self._noisy_walk)
        return _clamped_real(value, f"depth {n}")

    def _signed_pairs(self):
        psi = self.problem.psi
        sec = self.problem.second_state()
        return ((sec, sec, 1.0), (psi, sec, -1.0), (sec, psi, -1.0), (psi, psi, 1.0))

    def exact_t(self, n: int) -> float:
        """<<rho_tilde | S^n | rho_tilde>>; the trajectory keeps every read-out."""
        raw = self._tilde.readout(0, None, self.rho_tilde_vec, n, self._noisy_walk)
        if abs(raw.imag) > _IMAG_TOL:
            raise NonPhysicalChannelError(f"depth {n}: non-real t value {raw}")
        return float(raw.real)

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


def t_halfwidth(shots: int, delta: float = 0.5) -> float:
    """Hoeffding half-width of a sampled t value.

    t is a signed sum of four Binomial(shots, p)/shots terms, so a union
    bound gives |t_hat - t| <= 4 sqrt(ln(2/delta) / (2 shots)) with
    probability at least 1 - 4 delta.
    """
    return 4.0 * np.sqrt(np.log(2.0 / delta) / (2.0 * shots))


class TProvider:
    """Serves t at depths (n, 2n, 3n), each depth measured once per boost.

    measure(m, boost) returns t at depth m; a value is cached per
    (depth, boost), so a boosted retry is a fresh measurement, and only
    unboosted values enter series, the dict the envelope fit reads. eps_div is
    the division guard of the ratio. shots is the shot count per circuit,
    0 when the values are not sampled; it prices calls_for and allows a
    failed iteration to be re-measured.
    """

    def __init__(self, sim: CircuitSimulator, measure, eps_div: float, shots: int = 0):
        self.sim = sim
        self.measure = measure
        self.eps_div = eps_div
        self.shots = shots
        self._cache: dict[tuple, float] = {}

    @property
    def series(self) -> dict:
        """The unboosted values measured so far, keyed by depth."""
        return {m: v for (m, boost), v in self._cache.items() if boost == 1}

    def triplet(self, n: int, boost: int = 1):
        out = []
        for m in (n, 2 * n, 3 * n):
            key = (m, boost)
            if key not in self._cache:
                self._cache[key] = self.measure(m, boost)
            out.append(self._cache[key])
        return tuple(out)

    def calls_for(self, n: int, boost: int = 1) -> int:
        # Four circuits at each of the depths n, 2n, 3n.
        return self.shots * boost * 4 * (n + 2 * n + 3 * n)


def exact_provider(sim: CircuitSimulator) -> TProvider:
    """Exact expectations; division guard at float-noise scale."""
    return TProvider(sim, lambda m, boost: sim.exact_t(m), EXACT_DIVISION_GUARD)


def sampled_provider(sim: CircuitSimulator, shots: int, seed: int, trial: int = 0) -> TProvider:
    """Binomial-sampled t values.

    The guard eps_div is three Hoeffding half-widths of t at the configured
    shot count (delta = 0.5 working point), so a ratio is formed only when
    the denominator clears its own statistical noise by a wide margin.
    Trials may share one simulator: its probabilities do not depend on the
    trial, and each draw has its own substream.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")

    def measure(m: int, boost: int) -> float:
        return sim.sampled_t(m, shots, seed, trial, boost=boost)

    return TProvider(sim, measure, 3.0 * t_halfwidth(shots), shots=shots)


def perturbed_provider(sim: CircuitSimulator, eps: float, seed: int, trial: int = 0) -> TProvider:
    """Exact values plus a signed offset eps per depth (robustness sweeps).

    The sign is drawn once per (trial, depth) from a seeded substream; the
    guard scales with the perturbation the way the sampled guard scales
    with shot noise.
    """
    if not 0.0 <= eps < np.inf:
        raise ValueError(f"perturbation must be a finite number >= 0, got {eps}")

    def measure(m: int, boost: int) -> float:
        sign = 1.0 if substream(seed, trial, m).integers(0, 2) else -1.0
        return sim.exact_t(m) + sign * eps

    return TProvider(sim, measure, max(3.0 * eps, EXACT_DIVISION_GUARD))
