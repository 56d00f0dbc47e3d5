"""Depth series simulation: exact propagation, sampling, the provider."""

import gc
import inspect
import tracemalloc
import weakref
from functools import partial

import numpy as np
import pytest

import count_space
from problems import plane_problem

from nrqae import circuits
from nrqae.baseline import iqae_run
from nrqae.channels import NoiseSpec, noise_superop, pauli_string
from nrqae.circuits import (
    EXACT_DIVISION_GUARD,
    CircuitSimulator,
    exact_provider,
    perturbed_provider,
    perturbed_providers,
    sampled_provider,
    sampled_providers,
    t_halfwidth,
)
from nrqae.config import ExperimentConfig, build_problem
from nrqae.errors import NonPhysicalChannelError
from nrqae.estimator import run
from nrqae.experiments import run_compare_noise, run_sweep_depth
from nrqae.model import (amplitude_problem, conjugation_superop, grover, observable_problem,
                         rho_tilde, vectorize)
from nrqae.rng import substream


def random_problem(rng, qubits):
    d = 2 ** qubits
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    w = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return amplitude_problem(v / np.linalg.norm(v), w / np.linalg.norm(w))


def test_worked_instance_triplet():
    # delta = pi/6 gives a = 3/4 and the depth series 0.5 cos(2 pi n / 3)
    sim = CircuitSimulator(plane_problem(np.pi / 6))
    assert abs(sim.exact_t(1) + 0.25) < 1e-12
    assert abs(sim.exact_t(2) + 0.25) < 1e-12
    assert abs(sim.exact_t(3) - 0.5) < 1e-12
    assert abs(sim.exact_t(0) - 0.5) < 1e-12


def test_noiseless_series_closed_form():
    """t_n = 2 (1 - a) cos(n theta_ch) with cos(theta_ch / 2) = 2a - 1."""
    rng = np.random.default_rng(211)
    for _ in range(15):
        q = int(rng.integers(1, 3))
        p = random_problem(rng, q)
        a = abs(np.vdot(p.phi, p.psi)) ** 2
        theta_ch = 2.0 * np.arccos(np.clip(2.0 * a - 1.0, -1.0, 1.0))
        sim = CircuitSimulator(p)
        for n in range(9):
            want = 2.0 * (1.0 - a) * np.cos(n * theta_ch)
            assert abs(sim.exact_t(n) - want) < 1e-10


def test_single_qubit_depolarizing_scales_the_series():
    # diag(1, .6, .6, .6) is a scalar contraction of the traceless block,
    # so on one qubit the noisy series is exactly 0.6^n times the ideal one.
    p = plane_problem(0.77)
    ideal = CircuitSimulator(p)
    noisy = CircuitSimulator(p, NoiseSpec(kind="depolarizing"))
    for n in range(1, 7):
        assert abs(noisy.exact_t(n) - 0.6 ** n * ideal.exact_t(n)) < 1e-12


def test_probabilities_form_a_distribution():
    """Every layer maps a stack of density matrices to density matrices.

    Trace 1 and a non-negative diagonal: the basis-state probabilities of
    every slice form a distribution at every depth.
    """
    rng = np.random.default_rng(223)
    p = random_problem(rng, 2)
    a = rng.standard_normal((2, 4, 4)) + 1j * rng.standard_normal((2, 4, 4))
    rhos = a @ a.conj().swapaxes(1, 2)
    rhos /= np.trace(rhos, axis1=1, axis2=2)[:, None, None]
    for noise in (NoiseSpec(), NoiseSpec(kind="pauli"), NoiseSpec(kind="amplitude-damping")):
        layer = circuits._dense_layer(p, noise)
        stack = rhos
        for _ in range(3):
            stack = layer(stack)
            assert np.all(abs(np.trace(stack, axis1=1, axis2=2) - 1.0) < 1e-10), noise.kind
            diag = np.diagonal(stack, axis1=1, axis2=2)
            assert np.all(diag.real >= -1e-12) and np.all(abs(diag.imag) < 1e-12), noise.kind


_MILD = NoiseSpec(kind="pauli", params={"weight_i": 0.99, "weight_x": 0.003, "weight_y": 0.002,
                                        "weight_z": 0.005})

ORACLE_NOISES = (NoiseSpec(), NoiseSpec(kind="depolarizing"), NoiseSpec(kind="pauli"),
                 NoiseSpec(kind="amplitude-damping"), NoiseSpec(kind="coherent"),
                 NoiseSpec(kind="statistical", seed=5))


def oracle_problems(rng, qubits):
    yield random_problem(rng, qubits)
    v = rng.standard_normal(2 ** qubits) + 1j * rng.standard_normal(2 ** qubits)
    yield observable_problem(v / np.linalg.norm(v), pauli_string("Z" + "X" * (qubits - 1)))


@pytest.mark.parametrize("qubits", [1, 2, 3])
def test_propagation_matches_dense_matrix_power(qubits):
    """exact_t and prob agree with powers of the dense step superoperator."""
    rng = np.random.default_rng(227 + qubits)
    for p in oracle_problems(rng, qubits):
        rho_vec = vectorize(rho_tilde(p))
        prep = vectorize(np.outer(p.psi, p.psi.conj()))
        sec = p.second_state()
        meas = vectorize(np.outer(sec, sec.conj()))
        for noise in ORACLE_NOISES:
            step = noise_superop(noise, qubits) @ conjugation_superop(grover(p))
            sim = CircuitSimulator(p, noise)
            for n in range(14):
                power = np.linalg.matrix_power(step, n)
                t_want = np.vdot(rho_vec, power @ rho_vec).real
                p_want = np.vdot(meas, power @ prep).real
                assert abs(sim.exact_t(n) - t_want) < 1e-12, (p.mode, noise.kind, n)
                assert abs(sim.prob(n) - p_want) < 1e-12, (p.mode, noise.kind, n)
            with pytest.raises(ValueError):
                sim.exact_t(-1)
            with pytest.raises(ValueError):
                sim.prob(-1)


def _reference_walk(sim, rho):
    """The transpose-based layer the gathers replaced, kept here as the reference."""
    d = rho.shape[0]
    q = sim.problem.qubits
    pairs = tuple(a for j in range(q) for a in (j, q + j))
    g = grover(sim.problem)
    noise_t = noise_superop(sim.noise, 1).T.copy()
    rho = g @ rho @ g.conj().T.copy()
    x = rho.reshape((2,) * (2 * q)).transpose(pairs)
    for _ in range(q):
        x = x.reshape(4, -1).T @ noise_t
    return x.reshape((2,) * (2 * q)).transpose(tuple(np.argsort(pairs))).reshape(d, d)


def _circuit_prob(sim, prep, meas, n):
    """Probability of circuit (prep, meas) after n layers, 0 being psi and 1 the second state.

    prob(n) serves only (0, 1); this reads any of the four from the stack's read-outs.
    """
    term = [t[:2] for t in circuits._TERMS].index((prep, meas))
    return circuits._clamped_real(sim._circuits.at(n)[term], n)


def _reference_probs(sim, prep, meas, depths):
    """prob at each depth from the reference layer, one preparation alone."""
    meas_vec = vectorize(np.outer(meas, np.conj(meas)))
    rho = np.outer(prep, np.conj(prep)).astype(complex)
    out = {}
    for n in range(max(depths) + 1):
        if n in depths:
            out[n] = circuits._clamped_real(complex(np.vdot(meas_vec, rho.reshape(-1))), "")
        rho = _reference_walk(sim, rho)
    return out


@pytest.mark.parametrize("qubits", range(1, 9))
def test_stacked_layer_matches_the_transpose_layer(qubits):
    rng = np.random.default_rng(263 + qubits)
    d = 2 ** qubits
    # every kind is one 4 x 4 PTM to the layer; at q = 7 and 8 a non-unital
    # and a generic one keep the test short
    noises = ORACLE_NOISES if qubits <= 6 else ORACLE_NOISES[3::2]
    for p in oracle_problems(rng, qubits):
        for noise in noises:
            sim = CircuitSimulator(p, noise)
            layer = circuits._dense_layer(p, noise)
            for b in (1, 2):
                a = rng.standard_normal((b, d, d)) + 1j * rng.standard_normal((b, d, d))
                stack = a + a.conj().swapaxes(1, 2)
                got = layer(stack)
                assert got.shape == (b, d, d)
                for rho, want in zip(stack, got):
                    assert np.array_equal(want, _reference_walk(sim, rho)), (p.mode, noise.kind, b)


@pytest.mark.parametrize("qubits", range(1, 9))
def test_pair_indices_are_the_transpose_permutations(qubits):
    pair, unpair = circuits._pair_indices(qubits)
    n = 4 ** qubits
    assert np.array_equal(pair[unpair], np.arange(n))
    assert np.array_equal(unpair[pair], np.arange(n))
    pairs = tuple(a for j in range(qubits) for a in (j, qubits + j))
    grid = np.arange(n).reshape((2,) * (2 * qubits))
    assert np.array_equal(pair, grid.transpose(pairs).reshape(-1))
    assert np.array_equal(unpair, grid.transpose(tuple(np.argsort(pairs))).reshape(-1))


def test_preparations_share_one_stack():
    rng = np.random.default_rng(269)
    p = random_problem(rng, 3)
    noise = NoiseSpec(kind="amplitude-damping")
    sim = CircuitSimulator(p, noise)
    states = (p.psi, p.second_state())
    want = {(a, b): _reference_probs(sim, states[a], states[b], range(13))
            for a in (0, 1) for b in (0, 1)}
    # interleaved preparations and measurements (0 = psi, 1 = the second
    # state), up and down in depth
    calls = [(1, 1, 3), (0, 1, 3), (1, 0, 3), (0, 0, 7), (0, 1, 1), (1, 1, 12), (0, 0, 5),
             (1, 0, 12)]
    for a, b, n in calls:
        assert _circuit_prob(sim, a, b, n) == want[(a, b)][n], (a, b, n)
    traj = sim._circuits
    assert traj._rho.shape == (2, 8, 8)
    assert len(traj.readouts) == 13  # depths 0..12
    # every value read before stays served from the read-outs
    for a, b, n in calls:
        assert _circuit_prob(sim, a, b, n) == want[(a, b)][n], (a, b, n)
    assert sim.prob(12) == want[(0, 1)][12]
    assert sim._circuits is traj and len(traj.readouts) == 13


def test_exact_run_builds_no_preparation_stack(monkeypatch):
    problems = (random_problem(np.random.default_rng(271), 2),
                build_problem(ExperimentConfig(qubits=3, amplitude=0.3)),
                build_problem(ExperimentConfig(mode="observable", qubits=5, observable="ZXIZX",
                                               expectation=-0.6)))
    for p in problems:  # sampled reads, dense or in count space, build no rho_tilde
        sim = CircuitSimulator(p, NoiseSpec(kind="pauli"))
        sampled_provider(sim, shots=1000, seed=3).measure(4, 1)
        sim.prob(2)
        assert "_circuits" in vars(sim) and "_tilde" not in vars(sim)

    # exact runs build rho_tilde alone, on the circuits' layer: dense (d, d) slices at
    # the random q = 2 problem, D = C(q + 3, 3) count-space coordinates at the q = 3
    # corners, and D = 10 * 10 * 4 = 400 for ZXIZX (classes ZZ, XX and I)
    for p, shape in zip(problems, ((1, 4, 4), (1, 20), (1, 400)), strict=True):
        sim = CircuitSimulator(p, NoiseSpec(kind="pauli"))
        run(exact_provider(sim), k=3)
        assert "_circuits" not in vars(sim) and "rng" not in vars(sim)  # nor a generator
        assert sim._tilde._rho.shape == shape

    def no_count_space(*args):
        raise AssertionError("an exact run built the count-space layer")

    monkeypatch.setattr(circuits, "_count_space", no_count_space)
    run(exact_provider(CircuitSimulator(problems[0], NoiseSpec(kind="pauli"))), k=3)
    with pytest.raises(AssertionError, match="count-space"):
        run(exact_provider(CircuitSimulator(problems[1], NoiseSpec(kind="pauli"))), k=3)


@pytest.mark.parametrize("qubits", range(2, 7))
def test_count_space_matches_the_dense_layer(qubits):
    """Read-outs, prob(n) and exact_t(n), every noise kind, depths 0..96 (count_space.py)."""
    gaps = count_space.gaps(qubits)
    assert len(gaps) == len(list(count_space.problems(qubits))) * len(count_space.NOISES)
    assert max(gaps.values()) < count_space.TOLERANCE, gaps


def test_count_space_is_taken_exactly_for_noisy_walks_on_two_basis_states(monkeypatch):
    builds = []
    for name in ("_count_space", "_dense_layer"):
        def spy(*args, name=name, original=getattr(circuits, name)):
            builds.append(name)
            return original(*args)

        monkeypatch.setattr(circuits, name, spy)

    def spaces(problem, noise=_MILD) -> bool:
        """Whether both reads run in count space; they share one layer, built once."""
        sim = CircuitSimulator(problem, noise)
        sim.exact_t(2), sim.prob(2)
        assert sim._tilde._layer is sim._circuits._layer
        # dense stacks are (B, d, d), count-space ones (B, D)
        count = sim._circuits._rho.ndim == 2
        assert builds == ["_count_space" if count else "_dense_layer"]
        builds.clear()
        return count

    pair = count_space.pair_state
    # amplitude corners: one class
    for q in range(2, 6):
        assert spaces(build_problem(ExperimentConfig(qubits=q, amplitude=0.3)))
        assert spaces(amplitude_problem(pair(q, 0.2, 1.0), pair(q, 0.9, 2.0)))
    for noise in count_space.NOISES[1:]:
        assert spaces(build_problem(ExperimentConfig(qubits=3, amplitude=0.6)), noise)
    # every other problem on two basis states: ZXIZX (classes ZZ, XX and I), the
    # one-class XXX on the corners, an amplitude pair off the corners, and a lone basis
    # state, paired with its complement
    zxizx = build_problem(ExperimentConfig(mode="observable", qubits=5, observable="ZXIZX",
                                           expectation=0.4))
    xxx = observable_problem(pair(3, 0.4, 0.0), pauli_string("XXX"))
    off = amplitude_problem(pair(4, 0.2, 1.0, 1, 14), pair(4, 0.9, 2.0, 1, 14))
    lone = observable_problem(pair(3, 0.0, 0.0, 5, 2), pauli_string("ZIZ"))
    for problem in (zxizx, xxx, off, lone):
        assert spaces(problem)
    assert circuits._count_classes(lone, _MILD)[:2] == (2, 5)
    # the size cap: five one-qubit classes give D = 4^5 = 1024, taken; ZXIYZX gives
    # D = 10 * 10 * 4 * 4 = 1600, not
    x = 0b00010
    at_cap = observable_problem(pair(5, 0.4, 0.3, x, x ^ 0b11000), pauli_string("XYZZI"))
    assert circuits._count_classes(at_cap, _MILD)[2] == tuple(
        (x_bit, y_bit, o, 1) for x_bit, y_bit, o in
        ((0, 1, "X"), (0, 1, "Y"), (0, 0, "Z"), (1, 1, "Z"), (0, 0, "I")))
    assert spaces(at_cap)
    above = build_problem(ExperimentConfig(mode="observable", qubits=6, observable="ZXIYZX",
                                           expectation=0.4))
    assert np.union1d(np.flatnonzero(above.psi), np.flatnonzero(above.second_state())).size == 2
    assert not spaces(above)
    # q = 1, where count space is the Pauli basis itself, and the noiseless walk, whose
    # probabilities sit on 1/2 exactly at a = 1/2, where a last-bit change moves a draw
    assert not spaces(build_problem(ExperimentConfig(qubits=1, amplitude=0.3)))
    assert not spaces(build_problem(ExperimentConfig(qubits=3, amplitude=0.5)), NoiseSpec())
    assert not spaces(zxizx, NoiseSpec())
    # a state with weight on a third basis state, at either end of the indices between
    # the corners
    for q, third in ((2, 1), (2, 2), (4, 1), (4, 14)):
        v = pair(q, 0.4, 0.3)
        v[third] = 0.5
        for psi, phi in ((v / np.linalg.norm(v), pair(q, 1.0, 0.0)),
                         (pair(q, 1.0, 0.0), v / np.linalg.norm(v))):
            assert not spaces(amplitude_problem(psi, phi)), (q, third)
    # an observable that is no Pauli string: H (x) I keeps |00> and H|00> on two basis
    # states, but its letters are not those of one Pauli per qubit
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    not_pauli = observable_problem(pair(2, 0.0, 0.0), np.kron(hadamard, np.eye(2)))
    assert not spaces(not_pauli)
    # -XXX is the same walk up to sign; (1 + 1e-12) XX passes the model's checks but is
    # not a Pauli string, and the layer would drop its scale
    assert spaces(observable_problem(pair(3, 0.4, 0.0), -pauli_string("XXX")))
    assert not spaces(observable_problem(pair(2, 0.4, 0.0), (1 + 1e-12) * pauli_string("XX")))


def test_count_space_build_holds_no_dense_operator(monkeypatch):
    """A q = 8 sampled run, and an exact one, builds no dense operator.

    Each calls none of grover, noise_superop and rho_tilde, and its traced
    peak, simulator build included, stays below one complex d x d array
    (1 MiB).
    """
    # a q = 1 run first imports every module a run loads (numpy.random among
    # them), whose memory is not the simulator's
    run(sampled_provider(CircuitSimulator(plane_problem(0.6), _MILD), shots=1000, seed=7), k=2)
    q = 8
    problem = build_problem(ExperimentConfig(qubits=q, amplitude=0.3))
    calls = []
    for name in ("grover", "noise_superop", "rho_tilde"):
        def spy(*args, name=name, original=getattr(circuits, name)):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(circuits, name, spy)
    for provider, trajectory, shape in ((partial(sampled_provider, shots=100_000, seed=7),
                                         "_circuits", (2, 165)),  # D = C(q + 3, 3)
                                        (exact_provider, "_tilde", (1, 165))):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            sim = CircuitSimulator(problem, _MILD)
            run(provider(sim), k=5)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert getattr(sim, trajectory)._rho.shape == shape
        assert calls == []
        assert peak < 16 * 4 ** q, (trajectory, peak)


def test_shared_simulator_matches_fresh_one():
    """Values do not depend on what a simulator served before."""
    rng = np.random.default_rng(233)
    p = random_problem(rng, 2)
    noise = NoiseSpec(kind="amplitude-damping")
    shared = CircuitSimulator(p, noise)
    for provider in sampled_providers(shared, 1000, 3, range(3)):
        for n in (1, 2, 3, 24, 40):
            provider.measure(n, 1)
    shared.exact_t(40)
    for n in (0, 1, 5, 17, 40):
        fresh = CircuitSimulator(p, noise)
        assert shared.exact_t(n) == fresh.exact_t(n)
        assert _circuit_prob(shared, 1, 0, n) == _circuit_prob(fresh, 1, 0, n)
        assert shared.prob(n) == fresh.prob(n)
        assert sampled_provider(shared, 1000, 3, 7).measure(n, 1) == \
            sampled_provider(fresh, 1000, 3, 7).measure(n, 1)
    own = sampled_provider(CircuitSimulator(p, noise), shots=1000, seed=3, trial=1)
    lent = sampled_provider(shared, shots=1000, seed=3, trial=1)
    assert lent.sim is shared
    for m in (1, 2, 3, 4, 6, 8, 12, 16, 24):
        assert own.measure(m, 1) == lent.measure(m, 1)


def test_prob_builds_each_measurement_vector_once():
    rng = np.random.default_rng(241)
    p = random_problem(rng, 2)
    noise = NoiseSpec(kind="amplitude-damping")
    sim = CircuitSimulator(p, noise)
    depths = (1, 2, 3, 4, 6, 8, 12, 5, 9)
    calls = [(depths[i % len(depths)], i % 3) for i in range(50)]
    providers = sampled_providers(sim, 1000, 5, range(3))
    values = [providers[trial].measure(n, 1) for n, trial in calls]
    # the four signed pairs measure onto two states, psi and the second state: each
    # probe is a view of its state's slice of the one preparation stack
    stack, _ = sim._space
    states = (p.psi, p.second_state())
    for (prep, meas, _), (b, vec) in zip(circuits._TERMS, sim._circuits._probes, strict=True):
        assert b == prep and np.shares_memory(vec, stack[meas])
        assert np.array_equal(vec, vectorize(np.outer(states[meas], np.conj(states[meas]))))
    for (n, trial), value in zip(calls, values):
        assert value == sampled_provider(CircuitSimulator(p, noise), 1000, 5, trial).measure(n, 1)


def test_simulator_is_freed_without_the_cyclic_collector():
    # nothing the simulator keeps may point back at it, so refcounting
    # frees it as soon as its last user lets go
    p = random_problem(np.random.default_rng(251), 2)
    gc.disable()
    try:
        sim = CircuitSimulator(p, NoiseSpec(kind="pauli"))
        sim.exact_t(5)
        sim.prob(3)
        sampled_provider(sim, 1000, 3).measure(4, 1)
        run(exact_provider(sim), k=2)
        ref = weakref.ref(sim)
        del sim
        assert ref() is None
    finally:
        gc.enable()


def test_exact_run_stays_matrix_free():
    """Exact k = 5 at q = 7: one dense step superoperator would be 4 GiB."""
    d = 2 ** 7
    psi = np.zeros(d, dtype=complex)
    psi[0] = 1.0
    phi = np.zeros(d, dtype=complex)
    phi[0], phi[-1] = np.cos(0.4), np.sin(0.4)
    noise = NoiseSpec(kind="pauli", params={"weight_i": 0.99, "weight_x": 0.003,
                                            "weight_y": 0.002, "weight_z": 0.005})
    tracemalloc.start()
    try:
        res = run(exact_provider(CircuitSimulator(amplitude_problem(psi, phi), noise)), k=5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20, peak
    assert all(rec.ok for rec in res.iterations)


def test_sampled_t_is_reproducible():
    p = plane_problem(0.6)
    noise = NoiseSpec(kind="pauli")
    sim = CircuitSimulator(p, noise)
    a = sampled_provider(sim, 500, 9, 3).measure(2, 1)
    b = sampled_provider(CircuitSimulator(p, noise), 500, 9, 3).measure(2, 1)
    assert a == b
    assert a != sampled_provider(sim, 500, 9, 4).measure(2, 1)
    keys = [_written_key(9, 3, 2, term, 1) for term in range(4)]
    assert sim.sampled_t(2, 500, keys) == a  # the keys alone decide the draws
    with pytest.raises(ValueError, match="shots"):
        sim.sampled_t(1, 0, keys)
    with pytest.raises(ValueError):  # one key per term, no fewer
        sim.sampled_t(1, 500, keys[:3])


def _fresh_stream(seed, *path):
    """A new generator for (seed, path), built as numpy spawns one."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=path)
    return np.random.Generator(np.random.Philox(ss))


# the four circuits of t_n as (preparation, measurement, sign), 0 being psi
_TERMS = ((1, 1, 1.0), (0, 1, -1.0), (1, 0, -1.0), (0, 0, 1.0))


def _fresh_sampled_t(sim, seed, trial, n, shots, boost=1):
    """t_n from four binomial draws, each on its own fresh (seed, trial, n, term, boost) stream."""
    eff = shots * boost
    total = 0.0
    for term, (prep, meas, sign) in enumerate(_TERMS):
        gen = _fresh_stream(seed, trial, n, term, boost)
        total += sign * gen.binomial(eff, _circuit_prob(sim, prep, meas, n)) / eff
    return total


def test_draws_on_one_simulator_match_fresh_streams():
    """Interleaved draws through the simulator's one generator are each a fresh stream's."""
    p = random_problem(np.random.default_rng(281), 1)
    sim = CircuitSimulator(p, NoiseSpec(kind="pauli"))
    seed, shots, eps = 11, 3000, 1e-3
    draws = [("sampled", n, trial, boost) for n in (1, 2, 3, 6, 12) for trial in (0, 5)
             for boost in (1, 4)]
    draws += [("sign", m, trial) for m in (1, 2, 4, 9) for trial in (0, 3)]
    # runs of two or more rounds, at a small budget and a large one
    draws += [("iqae", trial, budget) for trial in (0, 1025) for budget in (10**5, 10**7)]
    order = np.random.default_rng(283).permutation(len(draws))
    owned = set()
    for i in order:
        kind, *args = draws[i]
        if kind == "sampled":
            n, trial, boost = args
            want = _fresh_sampled_t(sim, seed, trial, n, shots, boost)
            assert sampled_provider(sim, shots, seed, trial).measure(n, boost) == want, draws[i]
        elif kind == "sign":
            m, trial = args
            sign = 1.0 if _fresh_stream(seed, trial, m).integers(0, 2) else -1.0
            prov = perturbed_provider(sim, eps, seed, trial)
            assert prov.measure(m, 1) == sim.exact_t(m) + sign * eps, draws[i]
        else:
            trial, budget = args
            res = iqae_run(sim, budget, shots_per_round=shots, seed=seed, trial=trial)
            assert len(res.rounds) >= 2, draws[i]
            for r in res.rounds:
                count = _fresh_stream(seed, trial, r.index).binomial(
                    shots, sim.prob(r.applications))
                assert r.p_hat == count / shots, (draws[i], r.index)
        owned.add(id(vars(sim)["rng"]))
    assert len(owned) == 1  # every draw re-keyed the one generator


def test_sampled_t_concentrates_on_exact_value():
    p = plane_problem(np.pi / 6)
    noise = NoiseSpec(kind="pauli")
    sim = CircuitSimulator(p, noise)
    truth = sim.exact_t(1)
    vals = [provider.measure(1, 1) for provider in sampled_providers(sim, 400, 5, range(300))]
    band = t_halfwidth(400, 0.01)
    violations = sum(abs(v - truth) > band for v in vals)
    assert violations <= 12  # union bound allows 4%; the seeded run gives 0
    assert abs(np.mean(vals) - truth) < band / np.sqrt(300.0)


def test_t_halfwidth_values():
    assert abs(t_halfwidth(100000) - 0.010531075390936636) < 1e-15
    assert abs(t_halfwidth(100) - 0.3330218444630791) < 1e-15
    assert abs(t_halfwidth(400, 0.01) - 0.32552472614374584) < 1e-15


def test_exact_provider():
    p = plane_problem(np.pi / 6)
    prov = exact_provider(CircuitSimulator(p))
    trip = tuple(prov.measure(m, 1) for m in (1, 2, 3))
    assert np.allclose(trip, (-0.25, -0.25, 0.5), atol=1e-12)
    assert prov.shots == 0  # not sampled: run() never retries it
    assert prov.calls(64) == prov.calls(64, boost=4) == 0
    assert prov.eps_div == EXACT_DIVISION_GUARD
    # the provider keeps no values: a run's series holds what that run measured
    assert run(prov, k=0).series == dict(zip((1, 2, 3), trip))
    assert tuple(exact_provider(CircuitSimulator(p)).measure(m, 1) for m in (1, 2, 3)) == trip


def test_sampled_provider_cache_and_accounting():
    p = plane_problem(0.9)
    prov = sampled_provider(CircuitSimulator(p, NoiseSpec(kind="pauli")), shots=20000, seed=11,
                            trial=0)
    assert prov.shots == 20000
    assert sum(prov.calls(m) for m in (2, 4, 6)) == 20000 * 4 * 12
    assert sum(prov.calls(m, boost=3) for m in (2, 4, 6)) == 20000 * 3 * 4 * 12
    assert abs(prov.eps_div - 3.0 * t_halfwidth(20000)) < 1e-15
    measured = []

    def counting(m, boost):
        measured.append((m, boost))
        return prov.measure(m, boost)

    res = run(prov._replace(measure=counting), k=1)
    t1, t2 = (rec.triplet for rec in res.iterations)
    assert t1[1] == t2[0]  # depth 2 measured once, reused
    assert measured == [(m, 1) for m in (1, 2, 3, 4, 6)]
    assert res.series == dict(zip((1, 2, 3, 4, 6), t1 + t2[1:]))
    assert res.oracle_calls == 20000 * 4 * (6 + 12)
    # boosted values are fresh draws, not rescaled stored values
    assert tuple(prov.measure(m, 5) for m in (1, 2, 3)) != t1


def test_perturbed_provider():
    p = plane_problem(0.8)
    eps = 1e-3
    prov = perturbed_provider(CircuitSimulator(p), eps=eps, seed=21, trial=4)
    sim = CircuitSimulator(p)
    trip = [prov.measure(m, 1) for m in (2, 4, 6)]
    for m, v in zip((2, 4, 6), trip):
        assert abs(abs(v - sim.exact_t(m)) - eps) < 1e-15
        sign = 1.0 if substream(21, 4, m).integers(0, 2) else -1.0
        assert abs(v - (sim.exact_t(m) + sign * eps)) < 1e-15
    assert prov.eps_div == 3.0 * eps
    assert perturbed_provider(sim, eps=0.0, seed=1).eps_div == EXACT_DIVISION_GUARD
    assert prov.shots == 0
    assert prov.calls(2) == 0
    with pytest.raises(ValueError):
        perturbed_provider(sim, eps=-1e-3, seed=1)
    for eps in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            perturbed_provider(sim, eps=eps, seed=1)


@pytest.mark.parametrize("shots", [0, -1, -100000])
def test_sampled_provider_rejects_a_shot_count_below_one(shots):
    with pytest.raises(ValueError, match="shots"):
        sampled_provider(CircuitSimulator(plane_problem(0.9)), shots=shots, seed=1)


def test_unphysical_noise_matrix_is_rejected(monkeypatch):
    p = plane_problem(np.pi / 6)
    sim = CircuitSimulator(p)
    # scales every layer's output by 5
    monkeypatch.setattr(circuits, "noise_superop", lambda noise, qubits: 5.0 * np.eye(4))
    with pytest.raises(NonPhysicalChannelError):
        sim.prob(1)
    # float slack of 1e-6 either side of [0, 1] is clamped, up to its edges; 1e-4 is a
    # broken channel
    assert circuits._clamped_real(complex(1.0 + 1e-7), 3) == 1.0
    assert circuits._clamped_real(complex(-1e-7), 3) == 0.0
    assert circuits._clamped_real(complex(1.0 + 1e-6), 3) == 1.0
    assert circuits._clamped_real(complex(-1e-6), 3) == 0.0
    for value in (1.0 + 1e-4, -1e-4):
        with pytest.raises(NonPhysicalChannelError, match="outside"):
            circuits._clamped_real(complex(value), 3)


def _turned_simulator(monkeypatch):
    """A simulator whose one layer turns every read-out off the real axis by the phase 1e-4."""
    monkeypatch.setattr(circuits, "noise_superop", lambda noise, qubits: np.exp(1e-4j) * np.eye(4))
    return CircuitSimulator(plane_problem(np.pi / 6))


def test_a_non_real_probability_is_rejected(monkeypatch):
    # at depth 1 prob reads p = 0.75 and sampled_t's first term p = 0.25, each off by 1e-4 p j
    sim = _turned_simulator(monkeypatch)
    with pytest.raises(NonPhysicalChannelError,
                       match=r"^depth 1: non-real probability \(0\.7499\d*\+7\.49\d*e-05j\)$"):
        sim.prob(1)
    with pytest.raises(NonPhysicalChannelError,
                       match=r"^depth 1: non-real probability \(0\.2499\d*\+2\.49\d*e-05j\)$"):
        sampled_provider(sim, shots=100, seed=1).measure(1, 1)


def test_a_non_real_t_value_is_rejected(monkeypatch):
    with pytest.raises(NonPhysicalChannelError,
                       match=r"^depth 1: non-real t value \(-0\.2499\d*-2\.49\d*e-05j\)$"):
        _turned_simulator(monkeypatch).exact_t(1)


def _provider(kind, sim, seed):
    if kind == "perturbed":
        return perturbed_provider(sim, 0.1, seed, trial=3)
    return sampled_provider(sim, shots=1000, seed=seed, trial=3)


@pytest.mark.parametrize("seed", [0, 7, 2 ** 40 + 3])
@pytest.mark.parametrize("kind, retry", [("sampled", False), ("sampled", True),
                                         ("perturbed", False)])
def test_planned_run_matches_per_draw_run(kind, retry, seed):
    """Keys derived for the whole schedule give the values of keys derived draw by draw."""
    sim = CircuitSimulator(plane_problem(0.6), _MILD)
    planned = run(_provider(kind, sim, seed), k=5, retry=retry)
    per_draw = _provider(kind, sim, seed)._replace(prepare=lambda depths: None)
    unplanned = run(per_draw, k=5, retry=retry)
    assert planned.series == unplanned.series
    for got, want in zip(planned.iterations, unplanned.iterations, strict=True):
        assert (got.triplet, got.selected, got.ok, got.retried, got.oracle_calls) == \
            (want.triplet, want.selected, want.ok, want.retried, want.oracle_calls)
    assert planned.oracle_calls == unplanned.oracle_calls
    assert planned.theta_ch == unplanned.theta_ch
    # the cases exercise both successes and boosted retries
    assert any(rec.ok for rec in planned.iterations)
    assert any(rec.retried for rec in planned.iterations) == retry


@pytest.mark.parametrize("seed", [7, 2 ** 40 + 3, 2 ** 130 + 1])
def test_provider_draws_take_every_key_from_the_table(monkeypatch, seed):
    """Unboosted, boosted and off-schedule draws, for any seed, are keyed by the table alone.

    The scheduled unboosted cells take one philox_keys batch per table; a
    boosted retry and a depth off the schedule take one batch per cell, one
    row per draw.
    """
    batches = []  # the rows of each philox_keys call
    real_keys = circuits.philox_keys

    def counting_keys(seed, paths):
        batches.append([tuple(row) for row in np.asarray(paths).tolist()])
        return real_keys(seed, paths)

    monkeypatch.setattr(circuits, "philox_keys", counting_keys)
    sim = CircuitSimulator(plane_problem(0.6), _MILD)
    trials, shots, eps = [0, 3], 1000, 0.1
    sampled = sampled_providers(sim, shots, seed, trials)
    perturbed = perturbed_providers(sim, eps, seed, trials)
    draws = []  # per provider, its run's (depth, boost, value) in measurement order

    def recording(provider):
        def measure(m, boost):
            value = provider.measure(m, boost)
            draws[-1].append((m, boost, value))
            return value
        return provider._replace(measure=measure)

    series = []
    for provider in sampled + perturbed:
        draws.append([])
        series.append(run(recording(provider), k=5, retry=True).series)
    retries = [[(trial, m, term, boost) for term in range(4)]
               for trial, cells in zip(trials, draws) for m, boost, _ in cells if boost > 1]
    assert retries  # only the sampled runs retry
    # trials x scheduled depths (x terms), per table; each retry between them
    assert [len(rows) for rows in batches] == [2 * 13 * 4] + [4] * len(retries) + [2 * 13]
    assert batches[1:-1] == retries
    # depth 5 is off the schedule: each provider keys its cell once, and a
    # boosted cell of its own
    batches.clear()
    off = [[provider.measure(5, 1) for _ in range(2)] + [provider.measure(5, 4)]
           for provider in sampled + perturbed]
    assert batches == ([[(trial, 5, term, boost) for term in range(4)]
                        for trial in trials for boost in (1, 4)]
                       + [[(trial, 5)] for trial in trials for _ in (1, 4)])
    monkeypatch.undo()
    for trial, cells, at_5 in zip(trials, draws, off):
        assert at_5 == [_fresh_sampled_t(sim, seed, trial, 5, shots)] * 2 + \
            [_fresh_sampled_t(sim, seed, trial, 5, shots, 4)]
        for m, boost, value in cells:
            assert value == _fresh_sampled_t(sim, seed, trial, m, shots, boost), (trial, m, boost)

    def signed(trial, m):
        sign = 1.0 if _fresh_stream(seed, trial, m).integers(0, 2) else -1.0
        return sim.exact_t(m) + sign * eps

    for trial, values, at_5 in zip(trials, series[len(sampled):], off[len(sampled):]):
        assert at_5 == [signed(trial, 5)] * 3  # the sign ignores the boost
        for m, value in values.items():
            assert value == signed(trial, m), (trial, m)


def test_an_exact_t_far_above_float_noise_is_divided_by():
    # series phase pi/4 - 5e-7 puts t_2 = t_0 cos(2 theta_ch) at 7.6e-8: no measurement
    # noise hides it, so the exact guard, at float-noise scale, lets it through
    res = run(exact_provider(CircuitSimulator(plane_problem(np.pi / 16 - 1.25e-7))), k=0)
    rec = res.iterations[0]
    assert 1e-8 < abs(rec.triplet[1]) < 1e-7
    assert rec.outcome == "refined"
    assert abs(res.theta_ch - (np.pi / 4 - 5e-7)) < 1e-12


def test_providers_reject_a_negative_seed():
    sim = CircuitSimulator(plane_problem(0.6), _MILD)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        sampled_providers(sim, 1000, -1, [0])


@pytest.mark.parametrize("trial", [2 ** 32, -1])
def test_providers_reject_a_trial_outside_32_bits(trial):
    sim = CircuitSimulator(plane_problem(0.6), _MILD)
    with pytest.raises(ValueError, match="trials"):
        sampled_providers(sim, 1000, 7, [trial])
    with pytest.raises(ValueError, match="trials"):
        perturbed_providers(sim, 0.1, 7, [0, trial])


def _written_key(seed, *path):
    """The Philox key substream writes for (seed, path): the reference for a table's keys."""
    gen = substream(seed, *path, into=np.random.Generator(np.random.Philox(0)))
    return tuple(gen.bit_generator.state["state"]["key"].tolist())


@pytest.mark.parametrize("seed", [7, 2 ** 40 + 3])
@pytest.mark.parametrize("kind", ["sampled", "perturbed"])
def test_shared_key_table_matches_per_trial_providers(kind, seed):
    """One table for five trials gives each trial the keys and draws of its own provider."""
    sim = CircuitSimulator(plane_problem(0.6), _MILD)
    trials = [0, 1, 2, 5, 9]
    if kind == "sampled":
        shared = sampled_providers(sim, 1000, seed, trials)
        alone = [sampled_provider(sim, 1000, seed, trial) for trial in trials]
    else:
        shared = perturbed_providers(sim, 0.1, seed, trials)
        alone = [perturbed_provider(sim, 0.1, seed, trial) for trial in trials]
    table = shared[0].prepare.__self__
    assert all(p.prepare.__self__ is table for p in shared)
    retry = kind == "sampled"
    for trial, got_provider, want_provider in zip(trials, shared, alone, strict=True):
        got = run(got_provider, k=5, retry=retry)
        want = run(want_provider, k=5, retry=retry)
        assert got.series == want.series
        assert [(r.triplet, r.selected, r.ok, r.retried) for r in got.iterations] == \
            [(r.triplet, r.selected, r.ok, r.retried) for r in want.iterations]
        if retry:
            assert any(r.retried for r in got.iterations)
    # the first run keyed every trial's unboosted draws at every scheduled
    # depth, once; each boosted retry added its own cell
    depths = sorted(got.series)
    assert sorted(cell for cell in table.keys if cell[2] == 1) == \
        sorted((t, m, 1) for t in trials for m in depths)
    assert any(cell[2] == 4 for cell in table.keys) == retry
    for (trial, m, boost), keys in table.keys.items():
        tails = [(term, boost) for term in range(4)] if kind == "sampled" else [()]
        assert keys == tuple(_written_key(seed, trial, m, *tail) for tail in tails)


def test_a_command_keys_its_draws_in_one_pass_per_kind(monkeypatch):
    calls = []
    real = circuits.philox_keys

    def counting(seed, paths):
        calls.append(len(paths))
        return real(seed, paths)

    monkeypatch.setattr(circuits, "philox_keys", counting)
    cfg = ExperimentConfig(amplitude=0.75, noise=NoiseSpec(kind="pauli"), shots=100_000,
                           iterations=5, trials=10, seed=7,
                           compare_kinds=["pauli", "depolarizing"])
    run_compare_noise(cfg)
    assert calls == [10 * 13 * 4, 10 * 13 * 4]  # trials x depths x terms, per kind
    calls.clear()
    cfg.perturbation = 1e-3
    run_sweep_depth(cfg)
    assert calls == [10 * 13]


def test_sampled_t_keeps_its_positional_order():
    # the benchmark's tracer reads n and shots from positions 1 and 2, and
    # boost from the keywords
    params = inspect.signature(CircuitSimulator.sampled_t).parameters
    assert list(params)[:3] == ["self", "n", "shots"]
    assert params["boost"].kind is inspect.Parameter.KEYWORD_ONLY
