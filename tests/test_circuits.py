"""Depth series simulation: exact propagation, sampling, the provider."""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from nrqae import circuits
from nrqae.channels import NoiseSpec, noise_superop, pauli_string
from nrqae.circuits import (
    EXACT_DIVISION_GUARD,
    CircuitSimulator,
    exact_provider,
    perturbed_provider,
    sampled_provider,
    t_halfwidth,
)
from nrqae.errors import NonPhysicalChannelError
from nrqae.estimator import run
from nrqae.model import (amplitude_problem, conjugation_superop, grover, observable_problem,
                         rho_tilde, vectorize)
from nrqae.rng import substream


def plane_problem(delta):
    """Two real states separated by the angle delta."""
    psi = np.array([1.0, 0.0])
    phi = np.array([np.cos(delta), np.sin(delta)])
    return amplitude_problem(psi, phi)


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
    rng = np.random.default_rng(223)
    p = random_problem(rng, 2)
    for noise in (NoiseSpec(), NoiseSpec(kind="pauli"), NoiseSpec(kind="amplitude-damping")):
        sim = CircuitSimulator(p, noise)
        total = 0.0
        for i in range(4):
            meas = np.zeros(4)
            meas[i] = 1.0
            val = sim.prob(p.psi, meas, 3)
            assert 0.0 <= val <= 1.0
            total += val
        assert abs(total - 1.0) < 1e-10


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
                assert abs(sim.prob(p.psi, sec, n) - p_want) < 1e-12, (p.mode, noise.kind, n)
            with pytest.raises(ValueError):
                sim.exact_t(-1)
            with pytest.raises(ValueError):
                sim.prob(p.psi, sec, -1)


def test_shared_simulator_matches_fresh_one():
    """Values do not depend on what a simulator served before."""
    rng = np.random.default_rng(233)
    p = random_problem(rng, 2)
    noise = NoiseSpec(kind="amplitude-damping")
    shared = CircuitSimulator(p, noise)
    sec = p.second_state()
    for trial in range(3):
        for n in (1, 2, 3, 24, 40):
            shared.sampled_t(n, 1000, seed=3, trial=trial)
    shared.exact_t(40)
    # a measurement first asked for after the trajectory passed its depths
    basis = np.zeros(4)
    basis[1] = 1.0
    assert shared.prob(sec, basis, 40) == CircuitSimulator(p, noise).prob(sec, basis, 40)
    for n in (0, 1, 5, 17, 40):
        fresh = CircuitSimulator(p, noise)
        assert shared.exact_t(n) == fresh.exact_t(n)
        assert shared.prob(sec, basis, n) == fresh.prob(sec, basis, n)
        assert shared.prob(p.psi, sec, n) == fresh.prob(p.psi, sec, n)
        assert shared.sampled_t(n, 1000, seed=3, trial=7) == \
            fresh.sampled_t(n, 1000, seed=3, trial=7)
    own = sampled_provider(CircuitSimulator(p, noise), shots=1000, seed=3, trial=1)
    lent = sampled_provider(shared, shots=1000, seed=3, trial=1)
    assert lent.sim is shared
    for n in (1, 2, 4, 8):
        assert own.triplet(n) == lent.triplet(n)


def test_prob_builds_each_measurement_vector_once(monkeypatch):
    rng = np.random.default_rng(241)
    p = random_problem(rng, 2)
    noise = NoiseSpec(kind="amplitude-damping")
    sim = CircuitSimulator(p, noise)
    built = []

    def counting_vectorize(op):
        built.append(op.copy())
        return vectorize(op)

    monkeypatch.setattr(circuits, "vectorize", counting_vectorize)
    depths = (1, 2, 3, 4, 6, 8, 12, 5, 9)
    calls = [(depths[i % len(depths)], i % 3) for i in range(50)]
    values = [sim.sampled_t(n, 1000, seed=5, trial=trial) for n, trial in calls]
    # the four signed pairs measure onto two states: psi and the second state
    sec = p.second_state()
    assert len(built) == 2
    for meas in (p.psi, sec):
        projector = np.outer(meas, np.conj(meas))
        assert sum(np.array_equal(op, projector) for op in built) == 1
    for (n, trial), value in zip(calls, values):
        assert value == CircuitSimulator(p, noise).sampled_t(n, 1000, seed=5, trial=trial)


def test_simulator_is_freed_without_the_cyclic_collector():
    # nothing the simulator keeps may point back at it, so refcounting
    # frees it as soon as its last user lets go
    p = random_problem(np.random.default_rng(251), 2)
    gc.disable()
    try:
        sim = CircuitSimulator(p, NoiseSpec(kind="pauli"))
        sim.exact_t(5)
        sim.prob(p.psi, p.second_state(), 3)
        sim.sampled_t(4, 1000, seed=3)
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
    a = sim.sampled_t(2, 500, seed=9, trial=3)
    b = CircuitSimulator(p, noise).sampled_t(2, 500, seed=9, trial=3)
    assert a == b
    assert a != sim.sampled_t(2, 500, seed=9, trial=4)
    with pytest.raises(ValueError):
        sim.sampled_t(1, 0, seed=1)


def test_sampled_t_concentrates_on_exact_value():
    p = plane_problem(np.pi / 6)
    noise = NoiseSpec(kind="pauli")
    sim = CircuitSimulator(p, noise)
    truth = sim.exact_t(1)
    vals = [sim.sampled_t(1, 400, seed=5, trial=t) for t in range(300)]
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
    trip = prov.triplet(1)
    assert np.allclose(trip, (-0.25, -0.25, 0.5), atol=1e-12)
    assert prov.shots == 0  # not sampled: run() never retries it
    assert prov.calls_for(64) == 0
    assert prov.eps_div == EXACT_DIVISION_GUARD
    assert sorted(prov.series) == [1, 2, 3]
    assert exact_provider(CircuitSimulator(p)).triplet(1) == trip


def test_sampled_provider_cache_and_accounting():
    p = plane_problem(0.9)
    prov = sampled_provider(CircuitSimulator(p, NoiseSpec(kind="pauli")), shots=200, seed=11,
                            trial=0)
    assert prov.shots == 200
    t1 = prov.triplet(1)
    t2 = prov.triplet(2)
    assert t1[1] == t2[0]  # depth 2 measured once, reused
    assert sorted(prov.series) == [1, 2, 3, 4, 6]
    assert prov.calls_for(2) == 200 * 4 * 12
    assert prov.calls_for(2, boost=3) == 200 * 3 * 4 * 12
    assert abs(prov.eps_div - 3.0 * t_halfwidth(200)) < 1e-15
    # boosted values are fresh draws, not rescaled cache hits, and stay
    # out of the series
    assert prov.triplet(1, boost=5) != t1
    prov.triplet(8, boost=5)
    assert sorted(prov.series) == [1, 2, 3, 4, 6]


def test_perturbed_provider():
    p = plane_problem(0.8)
    eps = 1e-3
    prov = perturbed_provider(CircuitSimulator(p), eps=eps, seed=21, trial=4)
    sim = CircuitSimulator(p)
    trip = prov.triplet(2)
    for m, v in zip((2, 4, 6), trip):
        assert abs(abs(v - sim.exact_t(m)) - eps) < 1e-15
        sign = 1.0 if substream(21, 4, m).integers(0, 2) else -1.0
        assert abs(v - (sim.exact_t(m) + sign * eps)) < 1e-15
    assert prov.eps_div == 3.0 * eps
    assert perturbed_provider(sim, eps=0.0, seed=1).eps_div == EXACT_DIVISION_GUARD
    assert prov.shots == 0
    assert prov.calls_for(2) == 0
    with pytest.raises(ValueError):
        perturbed_provider(sim, eps=-1e-3, seed=1)


def test_unphysical_noise_matrix_is_rejected():
    p = plane_problem(np.pi / 6)
    sim = CircuitSimulator(p)
    sim._noise_t = 5.0 * np.eye(4)  # scales every layer's output by 5
    with pytest.raises(NonPhysicalChannelError):
        sim.prob(p.psi, p.psi, 1)
