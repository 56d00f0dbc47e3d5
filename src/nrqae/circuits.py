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
preparations in one two-slice stack. A TProvider is an immutable
description of how the estimator measures t at a depth; estimator.run
keeps the values it measured. exact_provider, sampled_provider and
perturbed_provider give it its measurement rule (exact, binomial or
offset) and its guard. sampled_providers and perturbed_providers give
one provider per trial of a command, sharing one table of draw keys.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import cached_property, partial
from itertools import chain, product
from typing import NamedTuple

import numpy as np

from .channels import NoiseSpec, noise_superop
from .errors import NonPhysicalChannelError
# conjugation_superop is unused here; the benchmark's traced pass looks it up.
from .model import EstimationProblem, conjugation_superop, grover, rho_tilde, vectorize
from .rng import philox_keys, rekey, stream_key, substream

_CLAMP_TOL = 1e-6
_IMAG_TOL = 1e-8

EXACT_DIVISION_GUARD = 1e-9


def _clamped_real(value: complex, n: int) -> float:
    """value as a probability in [0, 1]; n is the depth, named only in an error."""
    if abs(value.imag) > _IMAG_TOL:
        raise NonPhysicalChannelError(f"depth {n}: non-real probability {value}")
    p = value.real
    if p < -_CLAMP_TOL or p > 1.0 + _CLAMP_TOL:
        raise NonPhysicalChannelError(f"depth {n}: probability {p} outside [0, 1]")
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

    probes is a fixed list of (slice b, probe vector); readouts[m] holds
    <<probe|rho_m[b]>> for each of them, in that order, for every depth m
    passed so far. Only the latest stack is kept. The layer comes with each
    call: a stored bound method of the simulator would close a reference
    cycle and leave a dead simulator to the cyclic collector.
    """

    def __init__(self, rho0: np.ndarray, probes):
        self._rho = rho0
        self._probes = probes
        self.readouts: list = []
        self._record()

    def at(self, n: int, layer) -> tuple:
        """The read-outs at depth n."""
        if n < 0:
            raise ValueError(f"negative depth {n}")
        while len(self.readouts) <= n:
            self._rho = layer(self._rho)
            self._record()
        return self.readouts[n]

    def _record(self):
        flat = self._rho.reshape(len(self._rho), -1)
        self.readouts.append(tuple(complex(np.vdot(vec, flat[b])) for b, vec in self._probes))


# The four circuits of t_n in the order sampled_t draws them, as
# (preparation, measurement, sign) with 0 = psi and 1 = the second state.
_TERMS = ((1, 1, 1.0), (0, 1, -1.0), (1, 0, -1.0), (0, 0, 1.0))


class CircuitSimulator:
    """Propagates stacks of density matrices through layers rho -> N(G rho G^dag).

    A layer is, per slice of the stack, two d x d products for the walk
    and, per qubit, one product of the 4 x 4 single-qubit noise
    superoperator with the (i_j, k_j) index pair of rho; the pairs are
    brought together and apart by two gathers through index arrays built
    once, and skipped at q = 1, where the pairs are in order already. The
    walk runs only its own circuits, so the simulator follows two fixed
    trajectories: rho_tilde, read against itself by exact_t, and psi with
    the second state as one two-slice stack, each measured onto both,
    built on the first sampled_t or prob call. Each trajectory keeps only
    its latest stack, so a depth costs the layers beyond the deepest one
    reached and a repeated depth is free. Build one simulator per
    (problem, noise) and share it: every value is independent of what the
    simulator served before. It is the handle the providers and the IQAE
    baseline take.

    rng is the one Philox generator the simulator's sampled draws use,
    built on the first of them: each draw re-keys it (rng.rekey), so a draw
    is that of its own fresh substream and an exact run builds none. Like
    the trajectories, it is mutable state: use a simulator from one thread
    at a time.
    """

    def __init__(self, problem: EstimationProblem, noise: NoiseSpec = NoiseSpec()):
        self.problem = problem
        self.noise = noise
        self._g = grover(problem)
        self._g_dag = self._g.conj().T.copy()
        self._noise_t = noise_superop(noise, 1).T.copy()
        pair, unpair = _pair_indices(problem.qubits)
        # at q = 1 both gathers are the identity, and the layer skips them
        identity = np.array_equal(pair, np.arange(pair.size))
        self._pair, self._unpair = (None, None) if identity else (pair, unpair)
        self._states = tuple(np.asarray(v, dtype=complex)
                             for v in (problem.psi, problem.second_state()))
        tilde = rho_tilde(problem)
        self.rho_tilde_vec = vectorize(tilde)
        self._tilde = _Trajectory(tilde[None], [(0, self.rho_tilde_vec)])

    @cached_property
    def rng(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(0))

    @cached_property
    def _circuits(self) -> _Trajectory:
        """psi and the second state as one stack, with the probes of the four terms."""
        rho0 = np.stack([np.outer(v, np.conj(v)) for v in self._states])
        meas = [vectorize(r) for r in rho0]
        return _Trajectory(rho0, [(prep, meas[m]) for prep, m, _ in _TERMS])

    def _noisy_walk(self, rho: np.ndarray) -> np.ndarray:
        # matmul runs one product per slice of a (B, ...) stack, so every
        # slice gets the arithmetic of a lone d x d matrix.
        b, d, _ = rho.shape
        x = (self._g @ rho @ self._g_dag).reshape(b, -1)
        if self._pair is not None:
            x = x.take(self._pair, axis=1)
        # Each pass maps the leading (i_j, k_j) pair and rotates it to the
        # back; after q passes the pairs are back in order.
        for _ in range(self.problem.qubits):
            x = x.reshape(b, 4, -1).swapaxes(1, 2) @ self._noise_t
        if self._unpair is not None:
            x = x.reshape(b, -1).take(self._unpair, axis=1)
        return x.reshape(b, d, d)

    def prob(self, n: int) -> float:
        """Probability of measuring the second state after n layers from psi.

        That is the IQAE baseline's one circuit, term 1 of sampled_t.
        """
        return _clamped_real(self._circuits.at(n, self._noisy_walk)[1], n)

    def exact_t(self, n: int) -> float:
        """<<rho_tilde | S^n | rho_tilde>>; the trajectory keeps every read-out."""
        raw = self._tilde.at(n, self._noisy_walk)[0]
        if abs(raw.imag) > _IMAG_TOL:
            raise NonPhysicalChannelError(f"depth {n}: non-real t value {raw}")
        return float(raw.real)

    def sampled_t(self, n: int, shots: int, seed: int, trial: int = 0, boost: int = 1,
                  keys=None) -> float:
        """Binomial estimate of t_n from four independently sampled circuits.

        Each of the four probabilities is drawn from its own substream keyed
        by (trial, depth, term, boost), so any value is reproducible in
        isolation and a retry with boosted shots is a fresh measurement.
        The draws re-key the simulator's rng, to the four terms' given keys
        (the providers' key table) or else through substream; the values are
        the same.
        """
        if shots < 1:
            raise ValueError(f"shots must be >= 1, got {shots}")
        total = 0.0
        eff = shots * boost
        values = self._circuits.at(n, self._noisy_walk)
        for term, (_, _, sign) in enumerate(_TERMS):
            p = _clamped_real(values[term], n)
            gen = (rekey(self.rng, keys[term]) if keys is not None
                   else substream(seed, trial, n, term, boost, into=self.rng))
            total += sign * gen.binomial(eff, p) / eff
        return total


def t_halfwidth(shots: int, delta: float = 0.5) -> float:
    """Hoeffding half-width of a sampled t value.

    t is a signed sum of four Binomial(shots, p)/shots terms, so a union
    bound gives |t_hat - t| <= 4 sqrt(ln(2/delta) / (2 shots)) with
    probability at least 1 - 4 delta.
    """
    return 4.0 * np.sqrt(np.log(2.0 / delta) / (2.0 * shots))


def _no_plan(depths) -> None:
    """TProvider's default prepare: nothing is keyed ahead of a run."""


class TProvider(NamedTuple):
    """How to measure t; it holds no values, so every run measures its own.

    measure(m, boost) returns t at depth m with boost times the shots.
    eps_div is the division guard of the ratio. shots is the shot count per
    circuit, 0 when the values are not sampled; it prices calls and allows
    a failed iteration to be re-measured. A run first passes its depth
    schedule to prepare(depths), a no-op by default; the sampled and
    perturbed providers key their draws there (see _KeyTable).
    """

    sim: CircuitSimulator
    measure: Callable
    eps_div: float
    shots: int = 0
    prepare: Callable = _no_plan

    def calls(self, m: int, boost: int = 1) -> int:
        """Walk calls of one measurement at depth m: four m-layer circuits, shots * boost each."""
        return len(_TERMS) * self.shots * boost * m


def exact_provider(sim: CircuitSimulator) -> TProvider:
    """Exact expectations; division guard at float-noise scale."""
    return TProvider(sim, lambda m, boost: sim.exact_t(m), EXACT_DIVISION_GUARD)


class _KeyTable:
    """Philox keys of the draws of one command's trials, per (trial, depth, boost) cell.

    With terms, the draws of cell (t, m, b) are those of substream(seed, t,
    m, term, b) for each term; without, the cell's one draw is that of
    substream(seed, t, m), whatever the boost. keys[(t, m, b)] is the tuple
    of their keys in that order. The first prepare(depths), from the first
    run of the command, keys every trial's unboosted cells at those depths
    in one rng.philox_keys pass; later calls find the table filled. get
    keys a missing cell, a boosted retry or a depth outside the first
    schedule, on the scalar path, rng.stream_key, which is cheaper for a
    few keys than a batch of one cell.
    """

    def __init__(self, seed: int, trials, terms: int = 0):
        self.seed = seed
        self.trials = list(trials)
        if seed < 0 or not all(0 <= t < 2 ** 32 for t in self.trials):
            raise ValueError(f"seed must be >= 0 and trials in [0, 2^32), got {seed}, {trials}")
        self.terms = terms
        self.keys: dict[tuple, tuple] = {}

    def prepare(self, depths) -> None:
        if self.keys:
            return
        depths = list(depths)
        tails = (range(self.terms), (1,)) if self.terms else ()
        rows = np.fromiter(chain.from_iterable(product(self.trials, depths, *tails)), np.int64)
        flat = philox_keys(self.seed, rows.reshape(-1, 2 + len(tails)))
        cells = product(self.trials, depths, (1,))
        self.keys.update(zip(cells, zip(*[iter(flat)] * (self.terms or 1))))

    def get(self, trial: int, m: int, boost: int) -> tuple:
        cell = (trial, m, boost)
        if cell not in self.keys:
            tails = (range(self.terms), (boost,)) if self.terms else ()
            self.keys[cell] = tuple(stream_key(self.seed, trial, m, *tail)
                                    for tail in product(*tails))
        return self.keys[cell]

    def providers(self, sim: CircuitSimulator, measure, eps_div: float, shots: int = 0) -> list:
        """One TProvider per trial, measuring with measure(trial, m, boost)."""
        return [TProvider(sim, partial(measure, trial), eps_div, shots, prepare=self.prepare)
                for trial in self.trials]


def sampled_providers(sim: CircuitSimulator, shots: int, seed: int, trials) -> list:
    """Binomial-sampled t values, one provider per trial, sharing one key table.

    The guard eps_div is three Hoeffding half-widths of t at the configured
    shot count (delta = 0.5 working point), so a ratio is formed only when
    the denominator clears its own statistical noise by a wide margin.
    The trials share sim: its probabilities do not depend on the trial,
    and each draw has its own substream's key.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    table = _KeyTable(seed, trials, len(_TERMS))

    def measure(trial: int, m: int, boost: int) -> float:
        return sim.sampled_t(m, shots, seed, trial, boost=boost, keys=table.get(trial, m, boost))

    return table.providers(sim, measure, 3.0 * t_halfwidth(shots), shots)


def sampled_provider(sim: CircuitSimulator, shots: int, seed: int, trial: int = 0) -> TProvider:
    """The one-trial case of sampled_providers."""
    return sampled_providers(sim, shots, seed, [trial])[0]


def perturbed_providers(sim: CircuitSimulator, eps: float, seed: int, trials) -> list:
    """Exact values plus a signed offset eps per depth (robustness sweeps).

    The sign is drawn once per (trial, depth) with a seeded substream's
    key, re-keying sim.rng; the guard scales with the perturbation the way
    the sampled guard scales with shot noise. One provider per trial,
    sharing one key table.
    """
    if not 0.0 <= eps < np.inf:
        raise ValueError(f"perturbation must be a finite number >= 0, got {eps}")
    table = _KeyTable(seed, trials)

    def measure(trial: int, m: int, boost: int) -> float:
        gen = rekey(sim.rng, table.get(trial, m, boost)[0])
        return sim.exact_t(m) + (1.0 if gen.integers(0, 2) else -1.0) * eps

    return table.providers(sim, measure, max(3.0 * eps, EXACT_DIVISION_GUARD))


def perturbed_provider(sim: CircuitSimulator, eps: float, seed: int, trial: int = 0) -> TProvider:
    """The one-trial case of perturbed_providers."""
    return perturbed_providers(sim, eps, seed, [trial])[0]
