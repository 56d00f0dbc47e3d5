"""Exact and sampled depth series for the noisy walk channel.

One layer of the simulated circuit is the channel S: rho -> N(G rho G^dag),
with G the walk operator and N the noise channel; depth n applies the same
layer n times. The depth statistic is

    t_n = <<rho_tilde | S^n | rho_tilde>>

which a hardware run assembles from four prepare/measure probabilities with
signs (+, -, -, +). Noiseless, t_n = 2 |c|^2 cos(n theta_ch).

S^n is never formed: the simulator pushes a stack of states through one
layer at a time and keeps the scalar read-outs of every depth it passes;
a sampled run follows both of its preparations in one two-slice stack,
an exact run their difference rho_tilde alone. Both stacks take one
layer, built when either is first read, so a run builds only what it
reads. The dense layer (_dense_layer) acts on d x d density matrices.
A noisy synthetic amplitude problem (q >= 2, both states on |0^q> and
|1^q>) runs in Pauli-count space instead: the walk and a qubitwise
channel keep the states in the span of the symmetrised Pauli strings,
one per letter count, so a state is D = C(q + 3, 3) real coordinates
(56 at q = 5, against 4^q = 1024) and the layer one D x D matrix
(_count_space). A TProvider is an immutable description of how the
estimator measures t at a depth; estimator.run keeps the values it
measured. exact_provider, sampled_provider and perturbed_provider give
it its measurement rule (exact, binomial or offset) and its guard.
sampled_providers and perturbed_providers give one provider per trial
of a command, which key every draw from one table.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import cache, cached_property, partial
from itertools import chain, product
from math import comb
from typing import NamedTuple

import numpy as np

from .channels import NoiseSpec, noise_superop, single_qubit_ptm
from .errors import NonPhysicalChannelError
# conjugation_superop, rho_tilde and substream are unused here; bench/tracing.py looks them up.
from .model import (EstimationProblem, conjugation_superop, grover, real_value,
                    reflection_about, rho_tilde)
from .rng import philox_keys, rekey, substream

_CLAMP_TOL = 1e-6

EXACT_DIVISION_GUARD = 1e-9


def _clamped_real(value: complex, n: int) -> float:
    """value as a probability in [0, 1]; n is the depth, named only in an error."""
    p = real_value(value, n, "probability")
    if p < -_CLAMP_TOL or p > 1.0 + _CLAMP_TOL:
        raise NonPhysicalChannelError(f"depth {n}: probability {p} outside [0, 1]")
    return min(max(p, 0.0), 1.0)


def _pair_indices(qubits: int):
    """Gather indices between rho's flat order and its qubit-paired order.

    rho.reshape(-1).take(pair) is rho.reshape((2,) * 2q).transpose(pairs)
    flattened, with the axes (i_1..i_q, k_1..k_q) reordered to
    (i_1, k_1, ..., i_q, k_q); unpair is the inverse permutation.
    """
    pairs = tuple(a for j in range(qubits) for a in (j, qubits + j))
    pair = np.arange(4 ** qubits).reshape((2,) * (2 * qubits)).transpose(pairs).reshape(-1)
    return pair, np.argsort(pair)


@cache
def _count_basis(qubits: int) -> tuple:
    """(counts, m, levels): the count-space basis at q = qubits and _letterwise's tables.

    counts is the (D, 4) array of letter counts (c_I, c_X, c_Y, c_Z) that
    sum to q, and m[c] = q! / prod c_L! the number of Pauli strings with
    counts c. levels holds, per degree k = 1..q, the arrays (first, par,
    down): row r of degree k, counts c, comes from its first letter
    l = first[r] and the row par[r] of c - e_l at degree k - 1; down[l, r]
    is the row of c - e_l at degree k - 1, or that degree's size (a zero
    column) when c_l = 0.
    """
    levels, prev = [], {(0, 0, 0, 0): 0}
    for k in range(1, qubits + 1):
        counts = [(k - x - y - z, x, y, z)
                  for x in range(k + 1) for y in range(k + 1 - x) for z in range(k + 1 - x - y)]
        down = np.array([[prev.get(c[:l] + (c[l] - 1,) + c[l + 1:], len(prev)) for c in counts]
                         for l in range(4)])
        first = [next(l for l in range(4) if c[l]) for c in counts]
        levels.append((np.array(first), down[first, range(len(counts))], down))
        prev = {c: i for i, c in enumerate(counts)}
    m = [comb(qubits, c[0]) * comb(qubits - c[0], c[1]) * comb(c[2] + c[3], c[2]) for c in counts]
    return np.array(counts), np.array(m, dtype=float), levels


def _letterwise(a: np.ndarray, qubits: int) -> np.ndarray:
    """The map P_L -> sum_L' a[L', L] P_L' on every qubit, on count-space coordinates.

    Its entry (c', c) is sqrt(m_c' / m_c) [v^c] prod_L' (sum_L a[L', L] v_L)^c'_L';
    the coefficients are built one degree at a time, each product of linear
    forms from the one with its first letter taken off.
    """
    _, m, levels = _count_basis(qubits)
    k = np.ones((1, 1))
    for first, par, down in levels:
        rows = np.concatenate([k, np.zeros((len(k), 1))], axis=1)[par]  # zero column for down
        coef, k = a[first].T[:, :, None], np.zeros((len(par), len(par)))
        buf = np.empty_like(k)
        for l in range(4):  # in place: the build holds few D x D arrays at a time
            k += np.multiply(coef[l], rows.take(down[l], 1, buf, "clip"), out=buf)
    s = np.sqrt(m)
    k *= s[:, None]
    k /= s
    return k


def _count_space(states, noise: NoiseSpec) -> tuple:
    """Coordinates (2, D) of the two preparations and the layer N(G rho G^dag), in count space.

    The basis is W_c = S_c / sqrt(m_c 2^q), S_c the sum of the m_c Pauli
    strings with letter counts c: orthonormal and Hermitian, so Hermitian
    operators and Hermiticity-preserving maps have real coordinates. Both
    states lie on span{|0^q>, |1^q>}, so G = I + H with H = sum_ab h_ab
    |a^q><b^q|, and the walk adds H rho, its adjoint and H rho H^dag to rho.
    With the Dicke states D_j, e_a[c, j] = <D_j|W_c|a^q> is nonzero only at
    j = w = c_X + c_Y for a = 0, where it is i^c_Y sqrt(m_c / (2^q C(q, w))),
    and at j = q - w for a = 1, where it is (-i)^c_Y (-1)^c_Z times that.
    For rho in the span, H rho has coordinates sum_ab h_ab e_a e_b^dag r,
    and (|a><a'|)^(x)q has e_a[:, 0 or q], which gives the states, the
    probes and H rho H^dag. The noise is _letterwise of its PTM.
    """
    q = len(states[0]).bit_length() - 1
    counts, m, _ = _count_basis(q)
    dim, w = len(m), counts[:, 1] + counts[:, 2]
    mag = np.sqrt(m / [comb(q, x) for x in w.tolist()] / 2.0 ** q)
    e = np.zeros((dim, 2, q + 1), dtype=complex)
    e[range(dim), 0, w] = np.array([1, 1j, -1, -1j])[counts[:, 2] % 4] * mag
    e[range(dim), 1, q - w] = e[range(dim), 0, w].conj() * (1 - 2 * (counts[:, 3] % 2))
    u = e[:, :, [0, q]].reshape(dim, 4)  # column 2a + a' holds (|a><a'|)^(x)q
    psi, sec = (v[[0, -1]] for v in states)
    h = reflection_about(sec) @ reflection_about(psi) - np.eye(2)
    # G rho G^dag - rho = 2 Re(H rho) + H rho H^dag = Re(left @ right^dag) r for real r
    left = np.concatenate([2.0 * np.einsum("caj,ab->cbj", e, h).reshape(dim, -1),
                           u @ np.kron(h, h.conj())], axis=1)
    right = np.concatenate([e.reshape(dim, -1), u], axis=1)
    noise_map = _letterwise(single_qubit_ptm(noise), q)
    layer = (noise_map @ left.view(float)) @ right.view(float).T
    layer += noise_map
    rho0 = np.stack([(u @ np.kron(v, v.conj())).real for v in (psi, sec)])
    return rho0, layer


def _dense_layer(problem: EstimationProblem, noise: NoiseSpec) -> Callable:
    """The layer rho -> N(G rho G^dag) on a stack (B, d, d) of density matrices.

    Per slice, two d x d products for the walk and, per qubit, one product
    of the 4 x 4 single-qubit noise superoperator with the (i_j, k_j) index
    pair of rho; the pairs are brought together and apart by two gathers
    through index arrays built once, and skipped at q = 1, where the pairs
    are in order already. The layer is a closure over these arrays alone.
    """
    g = grover(problem)
    g_dag = g.conj().T.copy()
    noise_t = noise_superop(noise, 1).T.copy()
    pair, unpair = _pair_indices(problem.qubits)
    # at q = 1 both gathers are the identity, and the layer skips them
    identity = np.array_equal(pair, np.arange(pair.size))

    def layer(rho: np.ndarray) -> np.ndarray:
        # matmul runs one product per slice of a (B, ...) stack, so every
        # slice gets the arithmetic of a lone d x d matrix.
        b, d, _ = rho.shape
        x = (g @ rho @ g_dag).reshape(b, -1)
        if not identity:
            x = x.take(pair, axis=1)
        # Each pass maps the leading (i_j, k_j) pair and rotates it to the
        # back; after q passes the pairs are back in order.
        for _ in range(problem.qubits):
            x = x.reshape(b, 4, -1).swapaxes(1, 2) @ noise_t
        if not identity:
            x = x.reshape(b, -1).take(unpair, axis=1)
        return x.reshape(b, d, d)

    return layer


class _Trajectory:
    """A stack of initial operators (B, d, d), or their coordinates (B, D), pushed through a layer.

    probes is a fixed list of (slice b, probe vector); readouts[m] holds
    <<probe|rho_m[b]>> for each of them, in that order, for every depth m
    passed so far. Only the latest stack is kept.
    """

    def __init__(self, rho0: np.ndarray, probes, layer: Callable):
        self._rho = rho0
        self._probes = probes
        self._layer = layer
        self.readouts: list = []
        self._record()

    def at(self, n: int) -> tuple:
        """The read-outs at depth n."""
        if n < 0:
            raise ValueError(f"negative depth {n}")
        while len(self.readouts) <= n:
            self._rho = self._layer(self._rho)
            self._record()
        return self.readouts[n]

    def _record(self):
        flat = self._rho.reshape(len(self._rho), -1)
        self.readouts.append(tuple(complex(np.vdot(vec, flat[b])) for b, vec in self._probes))


# The four circuits of t_n in the order sampled_t draws them, as
# (preparation, measurement, sign) with 0 = psi and 1 = the second state.
_TERMS = ((1, 1, 1.0), (0, 1, -1.0), (1, 0, -1.0), (0, 0, 1.0))


class CircuitSimulator:
    """Propagates stacks of states through layers rho -> N(G rho G^dag).

    The walk runs only its own circuits, so the simulator follows two fixed
    trajectories, each built when it is first read: rho_tilde, read
    against itself by exact_t, and psi with the second state as one
    two-slice stack, each measured onto both, read by sampled_t and prob.
    No command reads both, so the constructor builds nothing. Both take
    one layer, built once (_space): the count-space layer (_count_space)
    when the problem is in amplitude mode, q >= 2, the noise is not none
    and psi and phi are zero off indices 0 and 2^q - 1: then G - I lives
    on span{|0^q>, |1^q>}, which the direct build needs. Every other
    problem takes the dense layer (_dense_layer), where rho_tilde is
    model.rho_tilde bit for bit. The two layers agree to about 1e-13,
    which moves no binomial draw except at a probability of exactly 1/2,
    where numpy's binomial changes method; the noiseless walk sits there
    at a = 1/2 and so stays dense. Each trajectory keeps only its latest
    stack, so a depth costs the layers beyond the deepest one reached and
    a repeated depth is free. Build one simulator per (problem, noise) and
    share it: every value is independent of what the simulator served
    before. It is the handle the providers and the IQAE baseline take.

    rng is the one Philox generator the simulator's sampled draws use,
    built on the first of them: each draw re-keys it (rng.rekey) to its
    stream's key, so it draws as a fresh stream, and an exact run builds
    none. Like the trajectories, it is mutable state: use a simulator from
    one thread at a time.
    """

    def __init__(self, problem: EstimationProblem, noise: NoiseSpec = NoiseSpec()):
        self.problem = problem
        self.noise = noise

    @cached_property
    def rng(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(0))

    @cached_property
    def _space(self) -> tuple:
        """Both preparations as one stack, and the layer both trajectories take (see the class)."""
        p = self.problem
        states = tuple(np.asarray(v, dtype=complex) for v in (p.psi, p.second_state()))
        if (p.mode == "amplitude" and p.qubits >= 2 and self.noise.kind != "none"
                and not any(v[1:-1].any() for v in states)):
            rho0, layer = _count_space(states, self.noise)
            return rho0, lambda rho: rho @ layer.T
        return np.stack([np.outer(v, np.conj(v)) for v in states]), _dense_layer(p, self.noise)

    @cached_property
    def _tilde(self) -> _Trajectory:
        """rho_tilde alone, probed by itself."""
        rho0, layer = self._space
        tilde = (rho0[1] - rho0[0])[None]
        return _Trajectory(tilde, [(0, tilde.reshape(-1))], layer)

    @cached_property
    def _circuits(self) -> _Trajectory:
        """psi and the second state as one stack, with the probes of the four terms."""
        rho0, layer = self._space
        return _Trajectory(rho0, [(prep, rho0[m].reshape(-1)) for prep, m, _ in _TERMS], layer)

    def prob(self, n: int) -> float:
        """Probability of measuring the second state after n layers from psi.

        That is the IQAE baseline's one circuit, term 1 of sampled_t.
        """
        return _clamped_real(self._circuits.at(n)[1], n)

    def exact_t(self, n: int) -> float:
        """<<rho_tilde | S^n | rho_tilde>>; the trajectory keeps every read-out."""
        return real_value(self._tilde.at(n)[0], n, "t value")

    def sampled_t(self, n: int, shots: int, keys, *, boost: int = 1) -> float:
        """Binomial estimate of t_n from four independently sampled circuits.

        keys holds the Philox keys of the four terms' draws, in _TERMS order;
        each draw re-keys the simulator's rng to its key. The providers take
        them from their key table, one stream per (trial, depth, term, boost),
        so any value is reproducible in isolation and a retry with boosted
        shots is a fresh measurement.
        """
        if shots < 1:
            raise ValueError(f"shots must be >= 1, got {shots}")
        total = 0.0
        eff = shots * boost
        values = self._circuits.at(n)
        for (_, _, sign), value, key in zip(_TERMS, values, keys, strict=True):
            total += sign * rekey(self.rng, key).binomial(eff, _clamped_real(value, n)) / eff
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

    With terms, the draws of cell (t, m, b) are those of the streams
    SeedSequence(entropy=seed, spawn_key=(t, m, term, b)), one per term;
    without, the cell's one draw is that of spawn_key (t, m), whatever the
    boost. keys[(t, m, b)] is the tuple of their keys in that order. Every
    key comes from rng.philox_keys: the first prepare(depths), from the
    first run of the command, keys every trial's unboosted cells at those
    depths in one pass, and later calls find the table filled; get keys a
    missing cell, a boosted retry or a depth outside the first schedule,
    the same way.
    """

    def __init__(self, seed: int, trials, terms: int = 0):
        self.seed = seed
        self.trials = list(trials)
        if seed < 0 or not all(0 <= t < 2 ** 32 for t in self.trials):
            raise ValueError(f"seed must be >= 0 and trials in [0, 2^32), got {seed}, {trials}")
        self.terms = terms
        self.keys: dict[tuple, tuple] = {}

    def _fill(self, trials, depths, boost: int) -> None:
        """Key every cell (trial, depth, boost) of trials x depths in one philox_keys pass."""
        tails = (range(self.terms), (boost,)) if self.terms else ()
        rows = np.fromiter(chain.from_iterable(product(trials, depths, *tails)), np.int64)
        flat = philox_keys(self.seed, rows.reshape(-1, 2 + len(tails)))
        cells = product(trials, depths, (boost,))
        self.keys.update(zip(cells, zip(*[iter(flat)] * (self.terms or 1))))

    def prepare(self, depths) -> None:
        if not self.keys:
            self._fill(self.trials, list(depths), 1)

    def get(self, trial: int, m: int, boost: int) -> tuple:
        cell = (trial, m, boost)
        if cell not in self.keys:
            self._fill((trial,), (m,), boost)
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
    and each draw has its own stream's key.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    table = _KeyTable(seed, trials, len(_TERMS))

    def measure(trial: int, m: int, boost: int) -> float:
        return sim.sampled_t(m, shots, table.get(trial, m, boost), boost=boost)

    return table.providers(sim, measure, 3.0 * t_halfwidth(shots), shots)


def sampled_provider(sim: CircuitSimulator, shots: int, seed: int, trial: int = 0) -> TProvider:
    """The one-trial case of sampled_providers."""
    return sampled_providers(sim, shots, seed, [trial])[0]


def perturbed_providers(sim: CircuitSimulator, eps: float, seed: int, trials) -> list:
    """Exact values plus a signed offset eps per depth (robustness sweeps).

    The sign is drawn once per (trial, depth) with a seeded stream's key,
    re-keying sim.rng; the guard scales with the perturbation the way
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
