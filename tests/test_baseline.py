"""Iterative baseline: interval maintenance, budgets, multiplier schedule."""

import numpy as np
import pytest

from nrqae.baseline import iqae_run
from nrqae.channels import NoiseSpec
from nrqae.circuits import CircuitSimulator
from nrqae.model import amplitude_problem, observable_problem


def plane_problem(delta):
    psi = np.array([1.0, 0.0])
    phi = np.array([np.cos(delta), np.sin(delta)])
    return amplitude_problem(psi, phi)


def test_converges_on_noiseless_instance():
    res = iqae_run(CircuitSimulator(plane_problem(np.pi / 6)), target_eps=1e-3,
                   shots_per_round=20000, seed=2)
    assert res.converged
    assert abs(res.estimate - 0.75) < 2e-3
    assert res.interval[0] <= res.interval[1]
    assert res.mode == "amplitude"


def test_interval_never_widens():
    res = iqae_run(CircuitSimulator(plane_problem(0.4)), target_eps=1e-4,
                   shots_per_round=5000, seed=3)
    widths = [r.x_hi - r.x_lo for r in res.rounds]
    assert all(b <= a + 1e-12 for a, b in zip(widths, widths[1:]))
    lo, hi = res.x_interval
    assert 0.0 <= lo <= hi <= np.pi


def test_identical_states_edge():
    psi = np.array([1.0, 0.0])
    res = iqae_run(CircuitSimulator(amplitude_problem(psi, psi)), target_eps=1e-3,
                   shots_per_round=10000, seed=5)
    assert abs(res.estimate - 1.0) < 5e-3


def test_shots_scale_inversely_with_precision():
    """Total oracle calls grow roughly like 1/eps on a log-log fit."""
    p = plane_problem(np.pi / 5)
    epss = [0.1, 0.03, 0.01, 0.003, 0.001]
    calls = []
    for eps in epss:
        res = iqae_run(CircuitSimulator(p), target_eps=eps, shots_per_round=4000, seed=11)
        assert res.converged
        calls.append(res.oracle_calls)
    slope = np.polyfit(np.log(epss), np.log(calls), 1)[0]
    assert -2.0 < slope < -0.5
    assert calls[0] < calls[-1]


def test_budget_cap_respected():
    budget = 60000
    res = iqae_run(CircuitSimulator(plane_problem(np.pi / 5)), target_eps=0.0,
                   shots_per_round=3000, seed=7, max_oracle_calls=budget)
    assert res.oracle_calls <= budget
    assert not res.converged
    spent = sum(r.shots * r.applications for r in res.rounds)
    assert spent == res.oracle_calls


def test_multiplier_schedule_amplitude():
    res = iqae_run(CircuitSimulator(plane_problem(0.7)), target_eps=1e-4,
                   shots_per_round=8000, seed=13)
    ms = [r.m for r in res.rounds]
    assert ms[0] == 1
    assert all(m % 2 == 1 for m in ms)  # odd multipliers only
    assert all(b >= a for a, b in zip(ms, ms[1:]))
    assert all(r.applications == (r.m + 1) // 2 for r in res.rounds)


def test_multiplier_schedule_observable():
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    obs = np.array([[0.6, 0.8], [0.8, -0.6]])
    res = iqae_run(CircuitSimulator(observable_problem(plus, obs)), target_eps=1e-3,
                   shots_per_round=20000, seed=17)
    ms = [r.m for r in res.rounds]
    assert ms[0] == 2
    assert all(m % 2 == 0 for m in ms)
    assert all(r.applications == r.m // 2 - 1 for r in res.rounds)
    want = float(np.vdot(plus, obs @ plus).real)
    assert abs(res.estimate - abs(want)) < 5e-3


def test_noise_biases_the_estimate():
    # under a contractive channel the cosine model is wrong and the interval
    # locks onto a biased phase; the error floor does not shrink with budget
    p = plane_problem(np.deg2rad(18.5))  # amplitude 0.9
    truth = 0.9
    res = iqae_run(CircuitSimulator(p, NoiseSpec(kind="pauli")), target_eps=0.0,
                   shots_per_round=100000, seed=19, max_oracle_calls=10**8)
    assert abs(res.estimate - truth) > 0.05


def test_determinism_and_validation():
    p = plane_problem(0.5)
    a = iqae_run(CircuitSimulator(p), target_eps=1e-3, shots_per_round=2000, seed=23, trial=1)
    b = iqae_run(CircuitSimulator(p), target_eps=1e-3, shots_per_round=2000, seed=23, trial=1)
    assert a.estimate == b.estimate
    assert [r.p_hat for r in a.rounds] == [r.p_hat for r in b.rounds]
    c = iqae_run(CircuitSimulator(p), target_eps=1e-3, shots_per_round=2000, seed=23, trial=2)
    assert a.estimate != c.estimate
    with pytest.raises(ValueError):
        iqae_run(CircuitSimulator(p), target_eps=-1.0)
    with pytest.raises(ValueError):
        iqae_run(CircuitSimulator(p), shots_per_round=0)
    with pytest.raises(ValueError):
        iqae_run(CircuitSimulator(p), confidence=1.5)
