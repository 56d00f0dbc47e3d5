"""Iterative baseline: interval maintenance, budgets, multiplier schedule."""

import numpy as np
import pytest

from nrqae.baseline import (_BRANCH_TOL, _MAX_MULTIPLIER, _branch, _next_multiplier,
                            iqae_run)
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
    with pytest.raises(ValueError):
        iqae_run(CircuitSimulator(p), max_rounds=0)


def test_branch_index_matches_the_numpy_floor():
    def reference(m, x_lo, x_hi):
        return int(np.floor(m * 0.5 * (x_lo + x_hi) / np.pi))

    rng = np.random.default_rng(43)
    ms = rng.integers(1, 2 ** 20, 10_000)
    lows = rng.uniform(0.0, np.pi, 10_000)
    highs = np.minimum(lows + rng.uniform(0.0, 0.5, 10_000), np.pi)
    cases = list(zip(ms.tolist(), lows, highs))  # numpy scalars, as iqae_run passes
    cases += [(m, float(lo), float(hi)) for m, lo, hi in cases[:1000]]
    # m * x on an exact multiple of pi, and the ends of [0, pi]
    for m in (1, 2, 3, 7, 64, 1023, 2 ** 24):
        for j in range(0, m + 1, max(1, m // 16)):
            x = j * np.pi / m
            cases += [(m, x, x), (m, x, np.nextafter(x, 4.0)), (m, np.nextafter(x, -1.0), x)]
        cases += [(m, 0.0, 0.0), (m, 0.0, np.pi), (m, np.pi, np.pi)]
    for m, x_lo, x_hi in cases:
        got = _branch(m, x_lo, x_hi)
        assert type(got) is int and got == reference(m, x_lo, x_hi), (m, x_lo, x_hi)


def _next_multiplier_rebuilt(mode, x_lo, x_hi, m_cur):
    """The numpy-scalar scan _next_multiplier replaced, kept here as the reference."""
    def branch_ok(m):
        j = _branch(m, x_lo, x_hi)
        return (m * x_lo >= j * np.pi - _BRANCH_TOL
                and m * x_hi <= (j + 1) * np.pi + _BRANCH_TOL)

    width = x_hi - x_lo
    if width <= 0:
        return m_cur
    m_max = min(int(np.floor(np.pi / width)), _MAX_MULTIPLIER)
    if mode == "amplitude" and m_max % 2 == 0:
        m_max -= 1
    if mode == "observable" and m_max % 2 == 1:
        m_max -= 1
    m = m_max
    while m >= 2 * m_cur:
        if branch_ok(m):
            return m
        m -= 2
    return m_cur


def test_next_multiplier_matches_the_numpy_scan():
    rng = np.random.default_rng(47)
    count = 50_000
    modes = rng.choice(["amplitude", "observable"], count).tolist()
    widths = 10.0 ** rng.uniform(-7.0, 0.0, count)
    lows = rng.uniform(0.0, np.pi, count) * (1.0 - widths / np.pi)
    highs = lows + widths
    # m_cur near half the widest multiplier, as in a run, keeps each scan short;
    # the top of the range makes the scan hold m_cur
    m_tops = np.minimum(np.floor(np.pi / widths), 2 ** 24).astype(np.int64) // 2
    m_curs = np.maximum(m_tops - rng.integers(-2, 48, count), 1).tolist()
    # numpy scalars, as iqae_run passes them, and the same values as Python floats
    cases = list(zip(modes, lows, highs, m_curs))
    cases += [(mode, float(lo), float(hi), m) for mode, lo, hi, m in cases]
    # intervals whose ends sit on, or one ulp off, an exact multiple of pi / m
    # (a width of one subnormal ulp at 0 overflows pi / width in both scans);
    # a full scan from m_cur = 1 only where it stays short
    def m_curs_at(m):
        return {max(1, m // 2), max(1, m // 2 - 8)} | ({1} if m < 2 ** 12 else set())

    for m in (1, 2, 3, 7, 64, 1023, 2 ** 24):
        for j in range(1, m + 1, max(1, m // 16)):
            x = j * np.pi / m
            for lo, hi in ((x, x), (x, np.nextafter(x, 4.0)), (np.nextafter(x, -1.0), x),
                           (x, x + np.pi / m), (x - np.pi / m, x)):
                for mode in ("amplitude", "observable"):
                    cases += [(mode, lo, hi, m_cur) for m_cur in m_curs_at(m)]
        cases += [(mode, lo, hi, 1) for mode in ("amplitude", "observable")
                  for lo, hi in ((0.0, 0.0), (0.0, np.pi), (np.pi, np.pi))]
        # an end a few ulps from j pi -+ _BRANCH_TOL at the first m scanned, which
        # is m itself: a width just under pi / m and m_cur = m // 2
        mode = "amplitude" if m % 2 else "observable"
        for j in range(0, m, max(1, m // 16)):
            lo = (j * np.pi - _BRANCH_TOL) / m
            hi = ((j + 1) * np.pi + _BRANCH_TOL) / m
            for _ in range(4):
                lo, hi = np.nextafter(lo, -1.0), np.nextafter(hi, 4.0)
            for _ in range(8):
                cases += [(mode, lo, lo + np.pi / (m + 1), max(1, m // 2)),
                          (mode, hi - np.pi / (m + 1), hi, max(1, m // 2))]
                lo, hi = np.nextafter(lo, 4.0), np.nextafter(hi, -1.0)
    assert len(cases) >= 100_000
    moved = 0
    for mode, x_lo, x_hi, m_cur in cases:
        got = _next_multiplier(mode, x_lo, x_hi, m_cur)
        assert type(got) is int
        assert got == _next_multiplier_rebuilt(mode, x_lo, x_hi, m_cur), (mode, x_lo, x_hi, m_cur)
        moved += got != m_cur
    # the scan both advances and holds m on this set
    assert 0 < moved < len(cases)
