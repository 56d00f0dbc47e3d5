"""States, walk operators, trace identities, and the vectorized picture."""

import numpy as np
import pytest

from problems import plane_problem

from nrqae import model
from nrqae.errors import DegenerateProblemError, NrqaeError
from nrqae.model import (
    EstimationProblem,
    ValuePair,
    amplitude_problem,
    as_state,
    conjugation_superop,
    eig_dense,
    grover,
    observable_problem,
    real_value,
    reflection_about,
    rho_tilde,
    rotation_plane,
    theta_to_value,
    vectorize,
)


def random_state(rng, d):
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def random_involution(rng, d):
    """Hermitian, traceless, squares to identity: U diag(+-1) U^dag."""
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, _ = np.linalg.qr(z)
    signs = np.concatenate([np.ones(d // 2), -np.ones(d // 2)])
    return q @ np.diag(signs) @ q.conj().T


def test_as_state_validation():
    with pytest.raises(ValueError):
        as_state([1.0, 1.0])
    with pytest.raises(ValueError):
        as_state(np.eye(2))
    s = as_state([1.0, 0.0])
    assert s.dtype == complex
    # the norm may miss 1 by 1e-10: 5e-11 is rounding, 1e-9 an unnormalized state
    assert as_state([1.0 + 5e-11, 0.0])[0] == 1.0 + 5e-11
    with pytest.raises(ValueError, match="not normalized"):
        as_state([1.0 + 1e-9, 0.0])


def test_real_value_takes_an_imaginary_part_up_to_1e_8():
    assert real_value(complex(0.5, 1e-8), 3, "t value") == 0.5
    with pytest.raises(NrqaeError, match="depth 3: non-real t value"):
        real_value(complex(0.5, 2e-8), 3, "t value")


def test_reflection_properties():
    rng = np.random.default_rng(17)
    for _ in range(20):
        d = int(rng.integers(2, 9))
        s = random_state(rng, d)
        r = reflection_about(s)
        assert np.allclose(r @ r, np.eye(d), atol=1e-12)
        assert np.allclose(r @ s, s, atol=1e-12)
        # anything orthogonal to s is negated
        t = random_state(rng, d)
        t = t - np.vdot(s, t) * s
        t /= np.linalg.norm(t)
        assert np.allclose(r @ t, -t, atol=1e-12)


def test_problem_validation():
    psi = np.array([1.0, 0.0])
    with pytest.raises(ValueError):
        EstimationProblem(mode="amplitude", psi=[1.0, 1.0], phi=psi)
    with pytest.raises(ValueError):
        EstimationProblem(mode="amplitude", psi=psi)
    with pytest.raises(ValueError):
        EstimationProblem(mode="banana", psi=psi, phi=psi)
    with pytest.raises(ValueError, match="phi has length 4, expected 2"):
        amplitude_problem(psi, np.eye(4)[0])
    with pytest.raises(ValueError, match="observable mode needs an observable"):
        EstimationProblem(mode="observable", psi=psi)
    with pytest.raises(ValueError, match=r"observable is \(4, 4\), expected \(2, 2\)"):
        observable_problem(psi, np.diag([1.0, -1.0, 1.0, -1.0]))
    # observables must be Hermitian involutions with zero trace
    with pytest.raises(ValueError):
        observable_problem(psi, np.array([[0.0, 1j], [1j, 0.0]]))
    with pytest.raises(ValueError):
        observable_problem(psi, np.array([[1.0, 0.0], [0.0, 0.5]]))
    with pytest.raises(ValueError):
        observable_problem(psi, np.eye(2))
    with pytest.raises(ValueError):
        amplitude_problem(np.ones(3) / np.sqrt(3), np.ones(3) / np.sqrt(3))
    assert amplitude_problem(np.ones(8) / np.sqrt(8), np.eye(8)[0]).qubits == 3


def _xz_blocks(e, k):
    """k blocks [[e, 1], [1, 0]]: Hermitian, O @ O - I has the entries e, trace k e."""
    return np.kron(np.eye(k), np.array([[e, 1.0], [1.0, 0.0]]))


def test_observable_tolerances_admit_1e_10_and_no_more():
    # each check allows a norm of 1e-10: these observables sit on it exactly
    psi = np.eye(4)[0]
    anti = np.array([[5e-11j, 1.0], [1.0, 0.0]])  # O - O^dag has norm 1e-10
    assert observable_problem(psi[:2], anti).observable[0, 0] == 5e-11j
    on_edge = _xz_blocks(5e-11, 2)  # |O @ O - I| = |tr O| = 1e-10
    assert np.linalg.norm(on_edge @ on_edge - np.eye(4)) == abs(np.trace(on_edge)) == 1e-10
    assert observable_problem(psi, on_edge).qubits == 2
    # 1e-9 off in each property is rejected, by the check for that property
    for obs, what in (
            (np.array([[1.0, 1e-9j], [1e-9j, -1.0]]), "Hermitian"),
            ((1.0 + 1e-9) * np.diag([1.0, -1.0]), "involution"),
            (_xz_blocks(3e-11, 4), "traceless")):  # |O @ O - I| = 8.5e-11, |tr O| = 1.2e-10
        with pytest.raises(ValueError, match=what):
            observable_problem(np.eye(len(obs))[0], obs)


def test_walk_matrix_on_plane_instance():
    # psi = |0>, phi at angle pi/6: the product of reflections rotates by pi/3.
    psi = np.array([1.0, 0.0])
    phi = np.array([np.cos(np.pi / 6), np.sin(np.pi / 6)])
    g = grover(amplitude_problem(psi, phi))
    half = np.sqrt(3.0) / 2.0
    assert np.allclose(g, [[0.5, -half], [half, 0.5]], atol=1e-12)


def test_amplitude_trace_relation():
    """Tr(G) = 4 |<psi|phi>|^2 - 4 + d over random instances."""
    rng = np.random.default_rng(29)
    for _ in range(50):
        q = int(rng.integers(1, 4))
        d = 2 ** q
        psi, phi = random_state(rng, d), random_state(rng, d)
        g = grover(amplitude_problem(psi, phi))
        want = 4.0 * abs(np.vdot(phi, psi)) ** 2 - 4.0 + d
        assert abs(np.trace(g) - want) < 1e-10


def test_observable_trace_relation():
    """Tr(G_O) = 2 <psi|O|psi> for traceless involutions."""
    rng = np.random.default_rng(31)
    for _ in range(50):
        q = int(rng.integers(1, 4))
        d = 2 ** q
        psi = random_state(rng, d)
        obs = random_involution(rng, d)
        g = grover(observable_problem(psi, obs))
        want = 2.0 * np.vdot(psi, obs @ psi).real
        assert abs(np.trace(g) - want) < 1e-10


def test_observable_walk_negates_o_orthogonal_states():
    # G_O s = -O s whenever <psi|O s> = 0.
    rng = np.random.default_rng(37)
    for _ in range(20):
        d = 4
        psi = random_state(rng, d)
        obs = random_involution(rng, d)
        g = grover(observable_problem(psi, obs))
        s = random_state(rng, d)
        os = obs @ s
        os -= np.vdot(psi, os) * psi
        s = obs @ os  # now <psi|O s> = 0 by construction
        assert np.allclose(g @ s, -obs @ s, atol=1e-10)


def test_observable_walk_literal():
    psi = np.array([1.0, 0.0, 0.0, 0.0])
    obs = np.diag([1.0, 1.0, -1.0, -1.0])
    g = grover(observable_problem(psi, obs))
    assert np.allclose(g, np.diag([1.0, -1.0, 1.0, 1.0]), atol=1e-12)
    assert abs(np.trace(g) - 2.0) < 1e-12


def test_grover_dispatch():
    # amplitude mode: diag(-1, 1) @ diag(1, -1); observable mode: diag(1, -1) @ X
    psi = np.array([1.0, 0.0])
    phi = np.array([0.0, 1.0])
    assert np.array_equal(grover(amplitude_problem(psi, phi)), -np.eye(2))
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.array_equal(grover(observable_problem(psi, x)), [[0.0, 1.0], [-1.0, 0.0]])


def test_theta_to_value():
    assert theta_to_value(0.0, "amplitude") == ValuePair(1.0, 0.0)
    pair = theta_to_value(np.pi, "amplitude")
    assert abs(pair.value - 0.5) < 1e-12 and abs(pair.mirror - 0.5) < 1e-12
    pair = theta_to_value(2.0 * np.pi / 3.0, "amplitude")
    assert abs(pair.value - 0.75) < 1e-12 and abs(pair.mirror - 0.25) < 1e-12
    pair = theta_to_value(np.pi / 2.0, "observable")
    assert abs(pair.value - np.cos(np.pi / 4.0)) < 1e-12
    assert abs(pair.mirror + np.cos(np.pi / 4.0)) < 1e-12
    with pytest.raises(ValueError):
        theta_to_value(-0.5, "amplitude")
    with pytest.raises(ValueError):
        theta_to_value(np.pi + 0.5, "amplitude")
    with pytest.raises(ValueError):
        theta_to_value(1.0, "banana")
    # 1e-12 of slack either side of [0, pi] is clamped, up to its edges
    assert theta_to_value(-1e-12, "amplitude") == theta_to_value(0.0, "amplitude")
    assert theta_to_value(np.pi + 1e-12, "observable") == theta_to_value(np.pi, "observable")
    for theta_ch in (-1e-10, np.pi + 1e-10):
        with pytest.raises(ValueError, match="outside"):
            theta_to_value(theta_ch, "amplitude")


def test_rotation_plane_resolves_states_1e_8_from_degenerate():
    assert abs(rotation_plane(plane_problem(1e-8))[1] - 2e-8) < 1e-15
    assert abs(rotation_plane(plane_problem(np.pi / 2 - 1e-8))[1] - (np.pi - 2e-8)) < 1e-15
    # a second state exactly 1e-9 off psi still spans a plane, at theta_g = 2e-9
    _, theta_g, *_ = rotation_plane(amplitude_problem([1.0, 0.0], [1.0, 1e-9]))
    assert abs(theta_g - 2e-9) < 1e-15
    with pytest.raises(DegenerateProblemError, match="parallel"):
        rotation_plane(amplitude_problem([1.0, 0.0], [1.0, 5e-10]))


@pytest.mark.parametrize("theta_g", [1e-9, np.pi - 1e-9], ids=["low", "high"])
def test_rotation_phases_on_the_degeneracy_bounds_are_kept(monkeypatch, theta_g):
    w = np.exp(np.array([1j, -1j]) * theta_g)
    assert np.angle(w[0]) == theta_g
    monkeypatch.setattr(model, "eig_dense", lambda m: (w, np.eye(2, dtype=complex)))
    assert rotation_plane(plane_problem(0.5))[1] == theta_g


def test_rho_tilde_is_traceless_hermitian():
    rng = np.random.default_rng(47)
    for _ in range(20):
        d = 4
        p = amplitude_problem(random_state(rng, d), random_state(rng, d))
        r = rho_tilde(p)
        assert abs(np.trace(r)) < 1e-12
        assert np.allclose(r, r.conj().T, atol=1e-12)


def test_rho_tilde_avoids_stationary_eigenvectors():
    """rho_tilde has zero overlap with every eigenvalue-1 eigenvector of the
    conjugated walk, and on two qubits that eigenspace has dimension at
    least (d - 2)^2 + 2 = 6."""
    rng = np.random.default_rng(53)
    for _ in range(5):
        p = amplitude_problem(random_state(rng, 4), random_state(rng, 4))
        m = conjugation_superop(grover(p))
        w, v = eig_dense(m)
        ones = np.abs(w - 1.0) < 1e-8
        assert int(ones.sum()) >= 6
        rv = vectorize(rho_tilde(p))
        for i in np.flatnonzero(ones):
            assert abs(np.vdot(v[:, i], rv)) < 1e-10


def test_vectorize_round_trip():
    rng = np.random.default_rng(59)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    v = vectorize(a)
    assert v.shape == (16,)
    assert np.array_equal(v, a.reshape(-1))  # row stacking: v[4 i + j] = a[i, j]
    assert v[4 * 2 + 3] == a[2, 3]
    assert np.array_equal(v.reshape(4, 4), a)


def test_conjugation_superop_action():
    # vec(U rho U^dag) = kron(U, U.conj()) vec(rho) in the row-stacking basis
    rng = np.random.default_rng(67)
    for _ in range(10):
        z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        u, _ = np.linalg.qr(z)
        rho = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        lhs = conjugation_superop(u) @ vectorize(rho)
        rhs = vectorize(u @ rho @ u.conj().T)
        assert np.allclose(lhs, rhs, atol=1e-10)
    for shape in ((2, 3), (4,)):
        with pytest.raises(ValueError, match="expected a square matrix"):
            conjugation_superop(np.ones(shape))


def test_eig_dense_reconstructs_action():
    # A v_i = w_i v_i for every returned pair, on generic dense matrices.
    rng = np.random.default_rng(41)
    for _ in range(30):
        d = int(rng.integers(2, 9))
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        w, v = eig_dense(a)
        for i in range(d):
            assert np.linalg.norm(a @ v[:, i] - w[i] * v[:, i]) < 1e-8
            assert abs(np.linalg.norm(v[:, i]) - 1.0) < 1e-12


def test_eig_dense_ordering():
    """Descending modulus, then ascending phase mod 2 pi on ties."""
    w, _ = eig_dense(np.diag([1.0, -1.0, 1j, 0.5]))
    assert np.all(np.diff(np.abs(w)) <= 1e-12)
    # the three unit-modulus values come out phase ordered: 1, i, -1
    assert np.allclose(w[:3], [1.0, 1j, -1.0], atol=1e-12)
    assert abs(w[3] - 0.5) < 1e-12


def test_eig_dense_rejects_non_square():
    with pytest.raises(ValueError):
        eig_dense(np.zeros((3, 4)))


def test_eig_dense_wraps_solver_failure():
    with pytest.raises(NrqaeError, match="eigensolver did not converge"):
        eig_dense(np.array([[np.nan, 0.0], [0.0, 1.0]]))
