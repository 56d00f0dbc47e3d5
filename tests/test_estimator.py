"""Ratio estimator: root algebra, candidate selection, the step, the full iteration."""

import typing

import numpy as np
import pytest

from nrqae import estimator
from nrqae.channels import NoiseSpec
from nrqae.circuits import (EXACT_DIVISION_GUARD, CircuitSimulator, TProvider, exact_provider,
                            perturbed_provider, sampled_provider)
from nrqae.errors import DepthGuardError, EstimationFailure
from nrqae.estimator import (
    Outcome,
    candidate_angles,
    fit_decay,
    fold_theta,
    merge_angles,
    ratio_y,
    roots_cos,
    run,
    seed_theta,
    select_candidate,
    step,
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


def _reference_select_candidate(candidates, theta_prev):
    """The separate nearest-candidate loop select_candidate replaced, kept as the reference."""
    best = best_d = None
    for theta in sorted(candidates):
        d = abs(theta - theta_prev)
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


def _model_triplet(theta, n, c=1.0, p=1.0):
    """t at depths (n, 2n, 3n) of the series c p^m cos(m theta)."""
    return tuple(c * p ** m * np.cos(m * theta) for m in (n, 2 * n, 3 * n))


def _candidates(triplet, n):
    return merge_angles([a for x in roots_cos(ratio_y(*triplet, 1e-9))
                         for a in candidate_angles(x, n)])


def test_seed_theta_worked_triplet():
    # pi/3 would predict the sign pattern (+, -, -); only 2 pi / 3 fits (-, -, +)
    got = seed_theta([np.pi / 3, 2 * np.pi / 3], (-0.25, -0.25, 0.5), 1)
    assert got == [2 * np.pi / 3]
    with pytest.raises(ValueError):
        seed_theta([], (-0.25, -0.25, 0.5), 1)


def test_seed_theta_self_consistency():
    # on a pure cosine the true candidate wins at depth 1; at depth n every
    # candidate whose n * theta folds onto the true one ties with it
    rng = np.random.default_rng(317)
    for _ in range(50):
        theta = rng.uniform(0.05, np.pi - 0.05)
        c = rng.uniform(0.1, 2.0)
        trip = _model_triplet(theta, 1, c)
        if abs(trip[1]) < 1e-3:
            continue
        got = seed_theta(_candidates(trip, 1), trip, 1)
        assert len(got) == 1 and abs(got[0] - theta) < 1e-9
        n = 2 ** int(rng.integers(1, 6))
        trip = _model_triplet(theta, n, c)
        if abs(trip[1]) < 1e-3:
            continue
        got = seed_theta(_candidates(trip, n), trip, n)
        assert any(abs(g - theta) < 1e-9 for g in got)
        assert got == sorted(got) and len(got) == n
        for g in got:
            assert abs(np.cos(n * g) - np.cos(n * theta)) < 1e-9


def test_seed_theta_sees_through_decay():
    # with a per-depth envelope the pure-cosine reading would drift; scoring
    # each candidate over the envelopes keeps the angle honest
    rng = np.random.default_rng(331)
    for _ in range(25):
        theta = rng.uniform(0.3, np.pi - 0.3)
        p = rng.uniform(0.5, 0.95)
        trip = _model_triplet(theta, 1, 0.4, p)
        got = seed_theta(_candidates(trip, 1), trip, 1)
        assert abs(got[0] - theta) < 1e-9


def test_seed_theta_zero_triplet():
    # nothing to fit: every candidate ties, in ascending order
    assert seed_theta([1.2, 0.3, 2.5], (0.0, 0.0, 0.0), 1) == [0.3, 1.2, 2.5]


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


# t at depths (2, 4, 6) for series phase 3 pi / 4, where 4 theta = 3 pi: y = 0, so the
# roots are -1 and 0.5, and seed_theta ties pi / 4 and 3 pi / 4, which fold onto one 2 theta
TIED = (0.0, -0.5, 0.0)
TIED_CANDIDATES = tuple(np.pi / 12 * j for j in (1, 3, 5, 7, 9, 11))

# (id, (triplet, n, ref, guard, base), outcome, y, candidates, selected, reason)
STEP_CASES = [
    ("quiet", ((1e-4, -2e-4, 5e-5), 1, None, 1e-3, (1e-4, -2e-4, 5e-5)),
     "quiet", None, (0.0,), 0.0, None),
    ("guard", ((0.5, 1e-4, 0.5), 2, 1.0, 1e-3, (0.5, 0.2, -0.1)),
     "guard", None, (), None, "|t_2n| = 0.0001 below division guard 0.001"),
    # the root 1 / q = 1.0000082 lies just above 1 and is dropped (ROADMAP item 1)
    ("boundary-root", ((1.0000041, 1.0, 1.0), 1, None, 1e-3, (1.0000041, 1.0, 1.0)),
     "no_candidates", 1.0000041, (), None, "no candidate angles at depth 1 (y = 1)"),
    ("tie-broken-by-base", (TIED, 2, None, 1e-3, (-0.35, 0.0, 0.35)),
     "refined", 0.0, TIED_CANDIDATES, 3 * np.pi / 4, None),
    ("zero-base-keeps-tie", (TIED, 2, None, 1e-3, (0.0, 0.0, 0.0)),
     "refined", 0.0, TIED_CANDIDATES, np.pi / 4, None),
    ("nearest-to-ref", (TIED, 2, 1.9, 1e-3, (-0.35, 0.0, 0.35)),
     "refined", 0.0, TIED_CANDIDATES, 7 * np.pi / 12, None),
]


@pytest.mark.parametrize("args, outcome, y, candidates, selected, reason",
                         [case[1:] for case in STEP_CASES], ids=[case[0] for case in STEP_CASES])
def test_step_on_synthetic_triplets(args, outcome, y, candidates, selected, reason):
    rec = step(*args, retried=True, oracle_calls=7)
    assert (rec.triplet, rec.n, rec.outcome, rec.y, rec.reason) == (args[0], args[1], outcome, y,
                                                                    reason)
    assert rec.ok == (selected is not None)
    assert rec.selected == pytest.approx(selected, abs=1e-12)
    assert rec.candidates == pytest.approx(candidates, abs=1e-12)
    assert (rec.retried, rec.oracle_calls, rec.index) == (True, 7, args[1].bit_length() - 1)
    with pytest.raises(AttributeError):
        rec.selected = 1.0


def test_step_cases_cover_every_outcome():
    assert {case[2] for case in STEP_CASES} == set(typing.get_args(Outcome))


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


def test_run_breaks_the_mirror_tie_with_the_depth_1_triplet(monkeypatch):
    # series phase 3 pi / 4: iteration 0 trips the guard (cos(3 pi / 2) = 0), and
    # at depth 2 the candidates pi / 4 and 3 pi / 4 fold 2 theta onto one angle
    sim = CircuitSimulator(plane_problem(3 * np.pi / 16))
    measured = []

    def measure(m, boost):
        measured.append((m, boost))
        return sim.exact_t(m)

    seeds = []

    def recording_seed(candidates, triplet, n):
        seeds.append((triplet, n))
        best = seed_theta(candidates, triplet, n)
        seeds[-1] += (best,)
        return best

    monkeypatch.setattr(estimator, "seed_theta", recording_seed)
    res = run(TProvider(sim, measure, EXACT_DIVISION_GUARD), k=3)
    assert not res.iterations[0].ok and res.iterations[1].ok
    assert abs(res.theta_ch - 3 * np.pi / 4) < 1e-8
    # the depth-2 score ties the two branches; the depth-1 triplet of the
    # failed iteration 0 picks one
    (trip2, n2, tied), (trip1, n1, best) = seeds
    assert (n2, n1) == (2, 1)
    assert trip2 == res.iterations[1].triplet and trip1 == res.iterations[0].triplet
    assert np.allclose(tied, [np.pi / 4, 3 * np.pi / 4], atol=1e-9)
    assert len(best) == 1 and best[0] == tied[1]
    # the tie-break measured nothing again
    assert len(measured) == len(set(measured)) == len(res.series)


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
    # the boosted retries stay out of the series, which holds the unboosted draws
    fresh = sampled_provider(CircuitSimulator(p, noise), shots=2000, seed=6)
    assert res.series == {m: fresh.measure(m, 1) for m in (1, 2, 3, 4, 6, 8, 12)}
    with pytest.raises(EstimationFailure):
        run(sampled_provider(CircuitSimulator(p, noise), shots=2000, seed=6), k=2, retry=False)


def test_run_records_a_retried_iteration_from_its_last_attempt():
    # depth 1 reads y = 4, which has no real root, unboosted, and trips the guard at
    # 4x shots; the record shows the boosted triplet with nothing of the first attempt
    depth1 = {1: (1.0, 0.5, 1.0), 4: (0.3, 0.0, 0.3)}

    def measure(m, boost):
        return depth1[boost][m - 1] if m <= 3 else 0.5 * np.cos(0.5 * m)

    provider = TProvider(CircuitSimulator(plane_problem(np.pi / 6)), measure, 0.01, shots=100)
    res = run(provider, k=1, retry=True)
    rec = res.iterations[0]
    assert (rec.triplet, rec.outcome, rec.y, rec.roots, rec.candidates) == \
        ((0.3, 0.0, 0.3), "guard", None, (), ())
    assert rec.reason == "|t_2n| = 0 below division guard 0.01"
    assert rec.retried and rec.selected is None
    assert rec.oracle_calls == 100 * 4 * (1 + 2 + 3) * (1 + 4)
    assert res.iterations[1].ok and not res.iterations[1].retried


def test_a_provider_run_twice_gives_each_run_only_its_own_depths():
    # the provider describes how to measure and keeps nothing: a k = 1 run after
    # a k = 4 run reads depths 1-6, as on a fresh provider, and fits p_hat to those
    gentle = NoiseSpec(kind="pauli", params={"weight_i": 0.99, "weight_x": 0.003,
                                             "weight_y": 0.002, "weight_z": 0.005})
    sim = CircuitSimulator(plane_problem(np.pi / 6), gentle)
    provider = sampled_provider(sim, shots=100_000, seed=7)
    assert sorted(run(provider, k=4).series) == [1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48]
    again = run(provider, k=1)
    fresh = run(sampled_provider(CircuitSimulator(plane_problem(np.pi / 6), gentle),
                                 shots=100_000, seed=7), k=1)
    assert sorted(again.series) == [1, 2, 3, 4, 6]
    assert again.series == fresh.series
    assert again.p_hat == fresh.p_hat is not None
    assert again.iterations == fresh.iterations
    assert (again.theta_ch, again.oracle_calls) == (fresh.theta_ch, fresh.oracle_calls)


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
