"""First-order eigenstructure checks of the noisy step operator.

The generic two-qubit instance used for the slope assertions is frozen by
its RNG recipe: both channels act non-degenerately there, so none of the
residual series collapses to float noise and every log-log fit is real.
"""

import hashlib

import numpy as np
import pytest

from problems import plane_problem

from nrqae import perturbation
from nrqae.channels import NoiseSpec, noise_superop
from nrqae.circuits import CircuitSimulator, exact_provider
from nrqae.errors import DegenerateProblemError, NonPhysicalChannelError
from nrqae.estimator import run
from nrqae.model import amplitude_problem, conjugation_superop, grover
from nrqae.perturbation import (
    SubspaceBasis,
    fit_loglog_slope,
    interpolated_noise,
    lemma1_check,
    lemma2_check,
    perturbed_steps,
    subspace_basis,
    theorem1_check,
)

S_GRID = [0.001, 0.002154434690032, 0.004641588833613, 0.01,
          0.02154434690032, 0.04641588833613, 0.1]


def generic_problem():
    """Two-qubit instance with overlap ~0.53 and no accidental symmetry."""
    rng = np.random.default_rng(2)
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    return amplitude_problem(v / np.linalg.norm(v), w / np.linalg.norm(w))


def test_subspace_basis_worked_instance():
    sub = subspace_basis(plane_problem(np.pi / 6))
    assert isinstance(sub, SubspaceBasis)
    assert abs(sub.theta_g - np.pi / 3) < 1e-12
    assert abs(sub.theta_ch - 2 * np.pi / 3) < 1e-12
    assert abs(abs(sub.c) ** 2 - 0.25) < 1e-12


def test_subspace_basis_is_orthonormal_and_diagonalizes():
    rng = np.random.default_rng(401)
    for _ in range(10):
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        p = amplitude_problem(v / np.linalg.norm(v), w / np.linalg.norm(w))
        sub = subspace_basis(p)
        gram = sub.vectors.conj().T @ sub.vectors
        assert np.max(np.abs(gram - np.eye(4))) < 1e-12
        mg = conjugation_superop(grover(p))
        d = sub.vectors.conj().T @ mg @ sub.vectors
        want = np.diag([1.0, np.exp(1j * sub.theta_ch), np.exp(-1j * sub.theta_ch), 1.0])
        assert np.max(np.abs(d - want)) < 1e-10


def test_subspace_basis_wide_angle():
    delta = 1.2834315
    sub = subspace_basis(plane_problem(delta))
    assert abs(sub.theta_g - 2 * delta) < 1e-12


def test_subspace_basis_degenerate_states():
    psi = np.array([1.0, 0.0])
    with pytest.raises(DegenerateProblemError):
        subspace_basis(amplitude_problem(psi, psi))
    with pytest.raises(DegenerateProblemError):
        subspace_basis(amplitude_problem(psi, 1j * psi))


def test_interpolated_noise():
    n = noise_superop(NoiseSpec(kind="pauli"), 1)
    assert np.allclose(interpolated_noise(n, 0.0), np.eye(4), atol=1e-15)
    assert np.allclose(interpolated_noise(n, 1.0), n, atol=1e-15)
    half = interpolated_noise(n, 0.5)
    assert np.allclose(half, 0.5 * np.eye(4) + 0.5 * n, atol=1e-15)
    with pytest.raises(ValueError):
        interpolated_noise(n, -0.1)
    with pytest.raises(ValueError):
        interpolated_noise(n, 1.1)


def test_lemma1_zero_strength():
    rows = lemma1_check(perturbed_steps(plane_problem(0.9), NoiseSpec(kind="pauli"), [0.0]))
    assert rows[0].residual < 1e-12
    assert rows[0].overlap > 1.0 - 1e-10
    assert not rows[0].flagged


def test_a_step_matched_below_half_overlap_is_flagged():
    steps = perturbed_steps(plane_problem(0.9), NoiseSpec(kind="pauli"), [0.0])
    for overlap, flagged in ((0.4, True), (0.5, False), (0.6, False)):
        step = steps.steps[0]._replace(overlap1=overlap, overlap=overlap)
        weak = steps._replace(steps=(step,))
        for rows in (lemma1_check(weak), lemma2_check(weak), theorem1_check(weak)):
            assert [r.flagged for r in rows] == [flagged] * len(rows), overlap


@pytest.mark.parametrize("kind", ["depolarizing", "pauli"])
def test_lemma1_second_order_residual(kind):
    rows = lemma1_check(perturbed_steps(generic_problem(), NoiseSpec(kind=kind), S_GRID))
    assert not any(r.flagged for r in rows)
    slope = fit_loglog_slope([r.s for r in rows], [r.residual for r in rows])
    assert 1.7 <= slope <= 2.3
    # the first-order term itself is exactly linear in s
    lam0 = np.exp(1j * subspace_basis(generic_problem()).theta_ch)
    first = [abs(r.prediction - lam0) for r in rows]
    slope1 = fit_loglog_slope([r.s for r in rows], first)
    assert 0.9 <= slope1 <= 1.1


def test_lemma2_zero_strength():
    rows = lemma2_check(perturbed_steps(plane_problem(0.9), NoiseSpec(kind="pauli"), [0.0]))
    assert rows[0].c1_error < 1e-10
    assert rows[0].c2_error < 1e-10
    assert rows[0].span_residual < 1e-10


@pytest.mark.parametrize("kind", ["depolarizing", "pauli"])
def test_lemma2_first_order_drift(kind):
    rows = lemma2_check(perturbed_steps(generic_problem(), NoiseSpec(kind=kind), S_GRID))
    assert not any(r.flagged for r in rows)
    for series in ([r.c1_error for r in rows], [r.c2_error for r in rows],
                   [r.span_residual for r in rows]):
        slope = fit_loglog_slope([r.s for r in rows], series)
        assert 0.7 <= slope <= 1.3


def test_theorem1_zero_strength():
    steps = perturbed_steps(plane_problem(0.9), NoiseSpec(kind="pauli"), [0.0])
    rows = theorem1_check(steps)
    assert all(r.error < 1e-10 for r in rows)
    with pytest.raises(ValueError):
        theorem1_check(steps, depths=(4, -3))
    with pytest.raises(ValueError, match="negative depth -1"):
        theorem1_check(steps, depths=(1, -1))


@pytest.mark.parametrize("kind", ["depolarizing", "pauli"])
def test_theorem1_first_order_uniform(kind):
    rows = theorem1_check(perturbed_steps(generic_problem(), NoiseSpec(kind=kind), S_GRID))
    assert not any(r.flagged for r in rows)
    max_err = {s: max(r.error for r in rows if r.s == s) for s in S_GRID}
    slope = fit_loglog_slope(list(max_err), list(max_err.values()))
    assert 0.7 <= slope <= 1.3
    for s in S_GRID:
        e1 = next(r.error for r in rows if r.s == s and r.n == 1)
        assert max_err[s] <= 3.0 * e1


def test_theorem1_series_pinned_at_any_depth():
    """Exact series and model error, bit for bit, at depths that are not powers of two.

    S^n is a product of several squares at these depths, so the pin also
    fixes the product order. The digest was recorded with the per-depth
    repeated squaring that the shared list of squares replaced.
    """
    depths = (0, 1, 3, 5, 6, 7, 12, 37, 63, 64, 100)
    digest = hashlib.sha256()
    for kind in ("pauli", "amplitude-damping", "coherent"):
        steps = perturbed_steps(generic_problem(), NoiseSpec(kind=kind), [0.01, 0.1])
        for r in theorem1_check(steps, depths=depths):
            digest.update(f"{r.t_exact.hex()} {r.error.hex()}\n".encode())
    assert digest.hexdigest() == (
        "76253bbbd363b8889b0895bf7a32956997af9247a967f095d6d694fc0acd1ce6")


def test_theta_drift_order_by_channel_family():
    """Pauli-diagonal channels protect the phase to first order.

    The first-order eigenvalue shift is e^(i theta) <<b|(N - 1)|b>> and a
    channel diagonal in the Pauli basis has real fidelities, so the shift
    only contracts the modulus; the phase moves at second order. Channels
    with off-diagonal transfer-matrix structure drift at first order.
    """
    problem = generic_problem()
    sub = subspace_basis(problem)

    def drift_slope(kind):
        rows = lemma1_check(perturbed_steps(problem, NoiseSpec(kind=kind), S_GRID))
        # wrapped difference: theta_ch exceeds pi on this instance
        drift = [abs(np.angle(r.eigenvalue * np.exp(-1j * sub.theta_ch)))
                 for r in rows]
        return fit_loglog_slope([r.s for r in rows], drift)

    for kind in ("pauli", "depolarizing"):
        assert 1.7 <= drift_slope(kind) <= 2.3
    for kind in ("amplitude-damping", "coherent"):
        assert 0.7 <= drift_slope(kind) <= 1.3


def test_single_qubit_depolarizing_commutes():
    # scalar contraction of the traceless block: the eigenvectors do not
    # move, the phase does not move, only the modulus decays
    problem = plane_problem(np.pi / 5)
    sub = subspace_basis(problem)
    rows = lemma1_check(perturbed_steps(problem, NoiseSpec(kind="depolarizing"), S_GRID))
    for r in rows:
        assert r.residual < 1e-13
        assert abs(np.angle(r.eigenvalue) - sub.theta_ch) < 1e-12
    # and the estimator consequently tracks the ideal phase: precision is
    # set by the deepest triplet the decay leaves above the division guard
    res = run(exact_provider(CircuitSimulator(problem, NoiseSpec(kind="depolarizing"))), k=5)
    assert abs(res.theta - sub.theta_g) < 1e-7


def test_fit_loglog_slope():
    xs = [0.001, 0.01, 0.1, 1.0]
    assert abs(fit_loglog_slope(xs, [3.0 * x ** 2 for x in xs]) - 2.0) < 1e-12
    assert abs(fit_loglog_slope(xs, [0.7 * x for x in xs]) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        fit_loglog_slope([1.0, 2.0], [0.0, -1.0])
    with pytest.raises(ValueError):
        fit_loglog_slope([1.0], [1.0])
    # a zero x or y is left out, not fitted as log 0
    assert abs(fit_loglog_slope([0.0, 0.1, 1.0, 2.0], [5.0, 0.1, 1.0, 0.0]) - 1.0) < 1e-12


def test_a_plane_is_flagged_by_its_weaker_match(monkeypatch):
    # an eigensolver whose second vector meets the -theta_ch dyad at overlap 0.4 only
    problem = plane_problem(0.9)
    b = subspace_basis(problem).vectors
    v = np.stack([b[:, 1], 0.4 * b[:, 2] + np.sqrt(0.84) * b[:, 0]], axis=1)
    monkeypatch.setattr(perturbation, "eig_dense", lambda m: (np.array([0.9, 0.8]), v))
    steps = perturbed_steps(problem, NoiseSpec(kind="pauli"), [0.1])
    assert steps.steps[0].overlap1 == pytest.approx(1.0)
    assert steps.steps[0].overlap == pytest.approx(0.4)
    assert [r.flagged for r in lemma1_check(steps)] == [False]
    assert [r.flagged for r in lemma2_check(steps)] == [True]


def test_theorem1_check_rejects_a_non_real_t_value():
    # every step turned by the phase 1e-4 leaves t at depth 1 non-real by 1e-4 |t|
    steps = perturbed_steps(plane_problem(np.pi / 6), NoiseSpec(kind="pauli"), [0.01])
    turned = steps._replace(steps=tuple(st._replace(step=np.exp(1e-4j) * st.step)
                                        for st in steps.steps))
    with pytest.raises(NonPhysicalChannelError,
                       match=r"^depth 1: non-real t value \(-0\.2479\d*-2\.47\d*e-05j\)$"):
        theorem1_check(turned, depths=(1, 2))
