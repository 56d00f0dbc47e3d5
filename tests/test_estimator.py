"""Ratio estimator: root algebra, candidate selection, the full iteration."""

import tracemalloc
from functools import cache

import numpy as np
import pytest

from nrqae import estimator
from nrqae.channels import NoiseSpec
from nrqae.circuits import (EXACT_DIVISION_GUARD, CircuitSimulator, TProvider, exact_provider,
                            perturbed_provider, sampled_provider)
from nrqae.errors import DepthGuardError, EstimationFailure
from nrqae.estimator import (
    SEED_GRID_SIZE,
    _near_best_rows,
    _seed_basis,
    _seed_residual,
    candidate_angles,
    fit_decay,
    fold_theta,
    merge_angles,
    ratio_y,
    roots_cos,
    run,
    seed_theta,
    select_candidate,
)
from nrqae.model import amplitude_problem, observable_problem


def plane_problem(delta):
    psi = np.array([1.0, 0.0])
    phi = np.array([np.cos(delta), np.sin(delta)])
    return amplitude_problem(psi, phi)


def exact(problem, noise=NoiseSpec()):
    return exact_provider(CircuitSimulator(problem, noise))


def stuck_provider(problem):
    """Every even depth, so every t_2n, sits under the division guard."""
    return TProvider(CircuitSimulator(problem), lambda m, boost: 1.0 if m % 2 else 1e-12,
                     EXACT_DIVISION_GUARD)


def test_ratio_y_worked_values():
    assert abs(ratio_y(-0.25, -0.25, 0.5, 1e-9) + 2.0) < 1e-12
    assert abs(ratio_y(0.3, 0.3, 0.3, 1e-9) - 1.0) < 1e-12
    with pytest.raises(DepthGuardError):
        ratio_y(0.7071, 0.0, -0.7071, 1e-9)
    with pytest.raises(DepthGuardError):
        ratio_y(0.5, 1e-10, 0.5, 1e-9)


def test_ratio_y_envelope_invariance():
    """An envelope c * p^depth multiplying the series cancels exactly."""
    rng = np.random.default_rng(307)
    for _ in range(100):
        t1, t2, t3 = rng.uniform(-1, 1, 3)
        if abs(t2) < 1e-3:
            continue
        c = rng.uniform(0.1, 3.0) * rng.choice([-1.0, 1.0])
        p = rng.uniform(0.1, 1.5)
        n = int(rng.integers(1, 65))
        base = ratio_y(t1, t2, t3, 1e-12)
        scaled = ratio_y(c * p ** n * t1, c * p ** (2 * n) * t2,
                         c * p ** (3 * n) * t3, 0.0)
        assert abs(scaled - base) <= 1e-12 * abs(base)


def test_roots_cos_fixed_points():
    assert roots_cos(1.0) == [1.0]
    assert roots_cos(9.0 / 8.0) == []
    got = roots_cos(-2.0)
    assert len(got) == 2
    assert abs(got[0] + 0.5) < 1e-12
    assert abs(got[1] - 1.0 / 3.0) < 1e-12
    assert roots_cos(100.0) == []  # negative discriminant


def test_roots_cos_recovers_cosine():
    # y built from an exact cosine table always contains x = cos(2 n theta)
    rng = np.random.default_rng(311)
    done = 0
    while done < 200:
        theta = rng.uniform(0.0, np.pi)
        n = int(rng.integers(1, 65))
        t2 = np.cos(2 * n * theta)
        if abs(t2) < 1e-6:
            continue
        y = np.cos(n * theta) * np.cos(3 * n * theta) / t2 ** 2
        roots = roots_cos(y)
        assert any(abs(r - t2) < 1e-10 for r in roots)
        done += 1


def test_candidate_angles_literals():
    got = candidate_angles(-0.5, 1)
    assert np.allclose(got, [np.pi / 3, 2 * np.pi / 3], atol=1e-12)
    got = candidate_angles(0.0, 2)
    assert np.allclose(got, [np.pi / 8, 3 * np.pi / 8, 5 * np.pi / 8, 7 * np.pi / 8],
                       atol=1e-12)
    got = candidate_angles(1.0, 4)
    assert np.allclose(got, [0.0, np.pi / 4, np.pi / 2, 3 * np.pi / 4, np.pi], atol=1e-12)
    with pytest.raises(ValueError):
        candidate_angles(0.5, 0)
    with pytest.raises(ValueError):
        candidate_angles(1.5, 1)


def test_candidate_angles_complete_and_consistent():
    rng = np.random.default_rng(313)
    for _ in range(100):
        theta = rng.uniform(0.0, np.pi)
        n = int(rng.integers(1, 65))
        x = float(np.cos(2 * n * theta))
        cands = candidate_angles(x, n)
        assert any(abs(c - theta) < 1e-9 for c in cands)
        for c in cands:
            assert 0.0 <= c <= np.pi + 1e-12
            assert abs(np.cos(2 * n * c) - x) < 1e-9


def test_merge_angles():
    assert merge_angles([0.5, 0.5 + 1e-13, 0.3]) == [0.3, 0.5]
    assert merge_angles([]) == []


def test_select_candidate():
    assert abs(select_candidate([np.pi / 3, 2 * np.pi / 3], 2.0) - 2 * np.pi / 3) < 1e-12
    assert abs(select_candidate([np.pi / 6, 5 * np.pi / 6], 0.5) - np.pi / 6) < 1e-12
    assert select_candidate([0.4, 0.6], 0.5) == 0.4  # tie toward the smaller
    with pytest.raises(ValueError):
        select_candidate([], 1.0)
    with pytest.raises(ValueError):
        estimator._select_seeded([], 1.0, 3)


def _reference_select_candidate(candidates, theta_prev):
    """The separate nearest-candidate loop select_candidate replaced, kept as the reference."""
    best = best_d = None
    for theta in sorted(candidates):
        d = abs(theta - theta_prev)
        if best is None or d < best_d - 1e-12:
            best, best_d = theta, d
    return float(best)


def _reference_select_seeded(candidates, beta, n):
    """The seeded rule with its fold through np.mod, kept as the reference."""
    best = best_d = None
    for theta in sorted(candidates):
        a = float(np.mod(n * theta, 2.0 * np.pi))
        d = abs(min(a, 2.0 * np.pi - a) - beta)
        if best is None or d < best_d - 1e-12:
            best, best_d = theta, d
    return float(best)


def test_selection_rules_match_their_references():
    rng = np.random.default_rng(131)
    for _ in range(4000):
        n = 2 ** int(rng.integers(0, 7))
        cands = candidate_angles(float(rng.uniform(-1.0, 1.0)), n)
        ref = float(rng.uniform(0.0, np.pi))
        # exact ties too: a reference on a candidate or halfway between two
        if rng.random() < 0.2:
            i = int(rng.integers(len(cands)))
            ref = cands[i] if i == 0 else 0.5 * (cands[i - 1] + cands[i])
        assert select_candidate(cands, ref) == _reference_select_candidate(cands, ref)
        m = int(rng.integers(1, 65))
        assert estimator._select_seeded(cands, ref, m) == \
            _reference_select_seeded(cands, ref, m)


def test_seed_theta_worked_triplet():
    # pi/3 would predict the sign pattern (+, -, -); only 2 pi / 3 fits (-, -, +)
    got = seed_theta((-0.25, -0.25, 0.5))
    assert abs(got - 2 * np.pi / 3) < 2 * np.pi / SEED_GRID_SIZE


def test_seed_theta_self_consistency():
    rng = np.random.default_rng(317)
    for _ in range(50):
        theta = rng.uniform(0.05, np.pi - 0.05)
        c = rng.uniform(0.1, 2.0)
        trip = tuple(c * np.cos(m * theta) for m in (1, 2, 3))
        assert abs(seed_theta(trip) - theta) <= np.pi / SEED_GRID_SIZE + 1e-12


def test_seed_theta_sees_through_decay():
    # with a per-depth envelope the pure-cosine reading would drift; the
    # joint (theta, p) grid keeps the angle honest
    rng = np.random.default_rng(331)
    for _ in range(25):
        theta = rng.uniform(0.3, np.pi - 0.3)
        p = rng.uniform(0.5, 0.95)
        trip = tuple(0.4 * p ** m * np.cos(m * theta) for m in (1, 2, 3))
        assert abs(seed_theta(trip) - theta) < 0.05


def test_seed_theta_zero_triplet():
    assert seed_theta((0.0, 0.0, 0.0)) == 0.0


def _seed_fit_rebuilt(triplet):
    """seed_theta's residual and angle as written when it rebuilt its basis on every call."""
    t = np.asarray(triplet, dtype=float)
    grid = np.linspace(0.0, np.pi, SEED_GRID_SIZE)
    decays = np.linspace(0.2, 1.0, 17)
    m = np.array([1.0, 2.0, 3.0])
    basis = np.cos(np.outer(m, grid))[:, :, None] * (decays[None, None, :] ** m[:, None, None])
    denom = np.sum(basis * basis, axis=0)
    c = np.einsum("m,mtp->tp", t, basis) / np.where(denom > 0, denom, 1.0)
    c = np.maximum(c, 0.0)
    resid = np.sum((t[:, None, None] - c[None, :, :] * basis) ** 2, axis=0)
    flat = int(np.argmin(resid))
    return resid, float(grid[flat // decays.size])


@cache
def _full_grid():
    """The grid, full basis and guarded denominator seed_theta once kept whole."""
    grid = np.linspace(0.0, np.pi, SEED_GRID_SIZE)
    decays = np.linspace(0.2, 1.0, 17)
    m = np.array([1.0, 2.0, 3.0])
    basis = np.cos(np.outer(m, grid))[:, :, None] * (decays[None, None, :] ** m[:, None, None])
    denom = np.sum(basis * basis, axis=0)
    return grid, decays, basis, np.where(denom > 0, denom, 1.0)


def _full_grid_residual(t):
    """_seed_fit_rebuilt's residual from a basis built once, in two grid-sized buffers.

    seed_theta evaluated this on every call before its two-stage search. It
    is the fast reference for the bulk of the random triplets.
    """
    _, _, basis, denom = _full_grid()
    c = np.einsum("m,mtp->tp", t, basis)
    c /= denom
    np.maximum(c, 0.0, out=c)
    resid = _squared_miss(t[0], c, basis[0], np.empty_like(c))
    term = np.empty_like(c)
    for m in (1, 2):
        resid += _squared_miss(t[m], c, basis[m], term)
    return resid


def _squared_miss(t_m, c, basis_m, out):
    """(t_m - c basis_m)^2, written into out."""
    np.multiply(c, basis_m, out=out)
    np.subtract(t_m, out, out=out)
    return np.multiply(out, out, out=out)


def _assert_seed_fit(trip, resid, theta):
    """seed_theta picks theta; its re-checked rows hold resid's values bit for bit."""
    t = np.asarray(trip, dtype=float)
    rows = _near_best_rows(t)
    assert np.all(np.diff(rows) > 0), trip
    assert int(np.argmin(resid)) // resid.shape[1] in rows, trip
    assert np.array_equal(_seed_residual(t, rows), resid[rows]), trip
    assert seed_theta(trip) == theta, trip


def test_seed_theta_matches_the_per_call_basis():
    rng = np.random.default_rng(337)
    triplets = [(0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (0.0, 1.0, 0.0)]
    triplets += [tuple(rng.uniform(-1.0, 1.0, 3)) for _ in range(150)]
    for _ in range(150):
        theta, p, c = rng.uniform(0.0, np.pi), rng.uniform(0.2, 1.0), rng.uniform(0.01, 1.0)
        triplets.append(tuple(c * p ** m * np.cos(m * theta) for m in (1, 2, 3)))
    # all-negative triplets: the clip zeroes the scale on about a third of the grid,
    # where the residual is the same sum of squares at every point
    triplets += [(-0.25, -0.5, -0.125), (-1.0, -1.0, -1.0)]
    triplets += [tuple(-rng.uniform(0.0, 1.0, 3)) for _ in range(20)]
    # entries near the bottom and the top of the useful range
    triplets += [tuple(rng.uniform(-1.0, 1.0, 3) * 1e-12) for _ in range(20)]
    triplets += [(1e-12, 1e-12, 1e-12), (-1e-12, 2e-12, -1e-12)]
    triplets += [tuple(rng.uniform(-1.0, 1.0, 3) * 1e3) for _ in range(20)]
    triplets += [(1e3, 1e3, 1e3), (-1e3, 1e3, -1e3)]
    # outside the range where the score's rounding is bounded: every row is re-checked
    triplets += [(1e-160, 0.0, 0.0), (1e-150, -2e-150, 1e-150), (1e150, 1.0, -1.0)]
    for trip in triplets:
        resid, theta = _seed_fit_rebuilt(trip)
        assert np.array_equal(_full_grid_residual(np.asarray(trip, dtype=float)), resid)
        _assert_seed_fit(trip, resid, theta)
    # 10,000 random triplets, four families of 2,500, plus near ties, held to
    # the full-grid residual that the triplets above hold to _seed_fit_rebuilt
    grid, decays, basis, denom = _full_grid()
    unit = basis / np.sqrt(denom)
    triplets = []
    for _ in range(2500):
        triplets.append(tuple(rng.uniform(-1.0, 1.0, 3)))
        triplets.append(tuple(-rng.uniform(0.0, 1.0, 3)))
        triplets.append(tuple(rng.uniform(-1.0, 1.0, 3) * 1e-12))
        theta, p, c = rng.uniform(0.0, np.pi), rng.uniform(0.2, 1.0), rng.uniform(0.01, 1.0)
        triplets.append(tuple(c * p ** m * np.cos(m * theta) + rng.normal(0.0, 0.01)
                              for m in (1, 2, 3)))
    # halfway between two neighbouring angles: the two best points tie up to
    # rounding, and the score's rounding orders them differently from the
    # residual's in about a third of these
    for _ in range(500):
        i, j = int(rng.integers(0, SEED_GRID_SIZE - 1)), int(rng.integers(0, decays.size))
        triplets.append(tuple(unit[:, i, j] + unit[:, i + 1, j]))
    for trip in triplets:
        resid = _full_grid_residual(np.asarray(trip, dtype=float))
        _assert_seed_fit(trip, resid, float(grid[int(np.argmin(resid)) // decays.size]))


def test_seed_tables_are_small_and_match_the_full_grid():
    tables = _seed_basis()
    assert sum(arr.nbytes for arr in tables) < 0.25 * 2 ** 20
    # the inverse norms, summed one m at a time, are those of the full basis
    _, _, _, denom = _full_grid()
    want = np.ascontiguousarray((1.0 / np.sqrt(denom)).T, dtype=np.float32)
    assert np.array_equal(tables.inv_norm, want)


def test_seed_theta_peak_memory():
    seed_theta((0.1, 0.2, 0.3))  # build the cached tables outside the traced call
    tracemalloc.start()
    try:
        seed_theta((0.3, -0.1, 0.2))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the float32 grid of scores fits; a float64 grid-sized buffer, let alone
    # the full 3-slice basis, does not
    assert peak < 0.75 * SEED_GRID_SIZE * 17 * 8, peak


def test_fold_theta():
    assert fold_theta(0.3) == 0.3
    assert abs(fold_theta(3.0) - (np.pi - 3.0)) < 1e-15
    assert abs(fold_theta(np.pi / 2) - np.pi / 2) < 1e-15


def test_fit_decay_recovers_envelope():
    theta = 2 * np.pi / 3
    series = {n: 0.5 * 0.95 ** n * np.cos(n * theta) for n in (1, 2, 3, 4, 6, 8, 12)}
    assert abs(fit_decay(theta, series) - 0.95) < 1e-3
    # noiseless series fits p = 1 exactly (clamped from above)
    clean = {n: 0.5 * np.cos(n * theta) for n in (1, 2, 3)}
    assert abs(fit_decay(theta, clean) - 1.0) < 1e-6


def test_fit_decay_needs_two_usable_depths():
    theta = np.pi / 4  # cos(2 theta) = 0, cos(4 theta) = -1...
    series = {2: 0.0, 4: -0.5}  # depth 2 excluded: |cos| below threshold
    with pytest.raises(EstimationFailure):
        fit_decay(theta, series)


def test_run_worked_instance():
    res = run(exact(plane_problem(np.pi / 6)), k=3)
    assert abs(res.theta_ch - 2 * np.pi / 3) < 1e-9
    assert abs(res.value - 0.75) < 1e-9
    assert abs(res.mirror - 0.25) < 1e-9
    assert abs(res.theta - np.pi / 3) < 1e-9
    assert res.oracle_calls == 0
    assert all(rec.ok for rec in res.iterations)
    assert all(0.0 <= rec.selected <= np.pi for rec in res.iterations)
    assert abs(res.p_hat - 1.0) < 1e-6
    with pytest.raises(ValueError):
        run(exact(plane_problem(np.pi / 6)), k=-1)


def test_p_hat_is_fitted_when_read_and_once(monkeypatch):
    fits = []

    def counting_fit(theta_ch, series):
        fits.append(theta_ch)
        return fit_decay(theta_ch, series)

    monkeypatch.setattr(estimator, "fit_decay", counting_fit)
    res = run(exact(plane_problem(np.pi / 6), NoiseSpec(kind="depolarizing")), k=3)
    assert fits == []
    p_hat = res.p_hat
    assert res.p_hat == p_hat
    assert len(fits) == 1
    assert p_hat == fit_decay(res.theta_ch, res.series)
    assert abs(p_hat - 0.6) < 1e-6


def test_run_identical_states():
    psi = np.array([1.0, 0.0])
    res = run(exact(amplitude_problem(psi, psi)), k=4)
    assert res.value == 1.0
    assert res.theta_ch == 0.0
    assert res.iterations[0].ok
    assert res.p_hat is None


def test_run_observable_mode():
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    z = np.array([[1.0, 0.0], [0.0, -1.0]])
    res = run(exact(observable_problem(plus, z)), k=4)
    assert abs(res.theta_ch - np.pi) < 1e-9
    assert abs(res.value) < 1e-9
    # a generic expectation lands on the principal branch
    obs = np.array([[0.6, 0.8], [0.8, -0.6]])
    res = run(exact(observable_problem(np.array([1.0, 0.0]), obs)), k=5)
    assert abs(res.value - 0.6) < 1e-9
    assert abs(res.mirror + 0.6) < 1e-9


def test_run_mirror_instance():
    # wide separation: theta_g > pi/2, so the estimate reads the folded
    # angle and the true amplitude appears as the mirror member
    delta = 1.2834315
    res = run(exact(plane_problem(delta)), k=5)
    a = np.cos(delta) ** 2
    assert abs(res.theta - (np.pi - 2 * delta)) < 1e-9
    assert abs(res.value - (1.0 - a)) < 1e-9
    assert abs(res.mirror - a) < 1e-9


def test_run_carries_through_guard_trips():
    # series phase pi/4 zeroes the depth-2 denominator, so iteration 0
    # fails and the first estimate comes from depth 2
    res = run(exact(plane_problem(np.pi / 16)), k=5)
    assert not res.iterations[0].ok
    assert res.iterations[0].reason
    assert res.iterations[1].ok
    assert res.iteration_thetas()[0] is None
    assert res.iteration_thetas()[1] is not None
    assert abs(res.theta_ch - np.pi / 4) < 1e-8


def test_run_all_iterations_failed():
    p = plane_problem(np.pi / 6)
    with pytest.raises(EstimationFailure):
        run(stuck_provider(p), k=3)
    # not sampled (shots = 0), so retry=True has nothing to re-measure
    with pytest.raises(EstimationFailure, match="i=0: [^;]*guard[^;]*; i=1"):
        run(stuck_provider(p), k=3, retry=True)


def test_run_sampled_determinism_and_accounting():
    p = plane_problem(np.pi / 6)
    res = run(sampled_provider(CircuitSimulator(p), shots=100000, seed=3), k=2)
    again = run(sampled_provider(CircuitSimulator(p), shots=100000, seed=3), k=2)
    assert res.theta_ch == again.theta_ch
    assert [r.triplet for r in res.iterations] == [r.triplet for r in again.iterations]
    assert res.oracle_calls == 100000 * 24 * (1 + 2 + 4)
    assert abs(res.value - 0.75) < 0.02


def test_run_retry_accounting():
    # frozen instance where iteration 0 trips at 1x shots and clears on the
    # 4x retry while deeper iterations stay under the guard either way
    delta = np.deg2rad(42.0)
    p = plane_problem(delta)
    noise = NoiseSpec(kind="pauli")
    res = run(sampled_provider(CircuitSimulator(p, noise), shots=2000, seed=6), k=2,
              retry=True)
    assert res.iterations[0].retried and res.iterations[0].ok
    assert not res.iterations[1].ok and not res.iterations[2].ok
    base = 2000 * 24 * (1 + 2 + 4)
    extra = 2000 * 4 * 24 * (1 + 2 + 4)  # every iteration retried once
    assert res.oracle_calls == base + extra
    for rec in res.iterations:
        assert rec.retried
        assert rec.oracle_calls == 2000 * 24 * rec.n * 5
    assert sum(rec.oracle_calls for rec in res.iterations) == res.oracle_calls
    with pytest.raises(EstimationFailure):
        run(sampled_provider(CircuitSimulator(p, noise), shots=2000, seed=6), k=2, retry=False)


def test_run_monotone_refinement():
    """Noiseless exact iterations never move away from the true phase."""
    rng = np.random.default_rng(337)
    checked = 0
    while checked < 20:
        delta = rng.uniform(0.1, np.pi / 2 - 0.1)
        truth = 2.0 * fold_theta(2.0 * delta)
        res = run(exact(plane_problem(delta)), k=6)
        errs = [abs(rec.selected - truth) for rec in res.iterations if rec.ok]
        if len(errs) < 2:
            continue
        assert all(b <= a + 1e-12 for a, b in zip(errs, errs[1:]))
        assert errs[-1] < 1e-6
        checked += 1


def test_perturbed_run_stays_close():
    sim = CircuitSimulator(plane_problem(np.pi / 6))
    res = run(perturbed_provider(sim, 1e-3, seed=11), k=4)
    assert abs(res.theta_ch - 2 * np.pi / 3) < 1e-2
    assert res.oracle_calls == 0
