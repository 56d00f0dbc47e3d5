"""Iterative baseline: interval maintenance, budgets, multiplier schedule."""

from collections import Counter

import numpy as np
import pytest

from problems import plane_problem

from nrqae import baseline
from nrqae.baseline import (_BRANCH_TOL, _MAX_MULTIPLIER, MAX_ROUNDS, _branch,
                            _next_multiplier, iqae_run)
from nrqae.channels import NoiseSpec
from nrqae.circuits import CircuitSimulator
from nrqae.model import amplitude_problem, observable_problem


def budget_ended(res, budget):
    """The budget ended the run: within it, before MAX_ROUNDS, no contradiction, not collapsed."""
    return (res.oracle_calls <= budget and len(res.rounds) < MAX_ROUNDS
            and res.interval[0] < res.interval[1]
            and not any(r.contradiction for r in res.rounds))


def test_converges_on_noiseless_instance():
    res = iqae_run(CircuitSimulator(plane_problem(np.pi / 6)), 10**7,
                   shots_per_round=20000, seed=2)
    assert budget_ended(res, 10**7)
    assert res.interval[1] - res.interval[0] <= 1e-3
    assert abs(res.estimate - 0.75) < 2e-3
    assert res.interval[0] <= res.interval[1]
    assert res.mode == "amplitude"


def test_interval_never_widens():
    res = iqae_run(CircuitSimulator(plane_problem(0.4)), 10**7,
                   shots_per_round=5000, seed=3)
    widths = [r.x_hi - r.x_lo for r in res.rounds]
    assert len(widths) >= 3
    assert all(b <= a + 1e-12 for a, b in zip(widths, widths[1:]))
    lo, hi = res.x_interval
    assert 0.0 <= lo <= hi <= np.pi


def test_identical_states_edge():
    psi = np.array([1.0, 0.0])
    res = iqae_run(CircuitSimulator(amplitude_problem(psi, psi)), 10**6,
                   shots_per_round=10000, seed=5)
    assert abs(res.estimate - 1.0) < 5e-3


def test_shots_scale_inversely_with_precision():
    """The value-interval width shrinks roughly like 1/budget on a log-log fit."""
    p = plane_problem(np.pi / 5)
    budgets = [10**5, 3 * 10**5, 10**6, 3 * 10**6, 10**7]
    widths = []
    for budget in budgets:
        res = iqae_run(CircuitSimulator(p), budget, shots_per_round=4000, seed=11)
        assert budget_ended(res, budget)
        widths.append(res.interval[1] - res.interval[0])
    slope = np.polyfit(np.log(budgets), np.log(widths), 1)[0]
    assert -2.0 < slope < -0.5
    assert widths[0] > widths[-1]


def test_budget_cap_respected():
    budget = 60000
    res = iqae_run(CircuitSimulator(plane_problem(np.pi / 5)), budget,
                   shots_per_round=3000, seed=7)
    assert budget_ended(res, budget)
    spent = sum(r.shots * r.applications for r in res.rounds)
    assert spent == res.oracle_calls


def test_multiplier_schedule_amplitude():
    res = iqae_run(CircuitSimulator(plane_problem(0.7)), 10**7,
                   shots_per_round=8000, seed=13)
    ms = [r.m for r in res.rounds]
    assert len(ms) >= 3 and ms[0] == 1
    assert all(m % 2 == 1 for m in ms)  # odd multipliers only
    assert all(b >= a for a, b in zip(ms, ms[1:]))
    assert all(r.applications == (r.m + 1) // 2 for r in res.rounds)


def test_multiplier_schedule_observable():
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    obs = np.array([[0.6, 0.8], [0.8, -0.6]])
    res = iqae_run(CircuitSimulator(observable_problem(plus, obs)), 10**7,
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
    res = iqae_run(CircuitSimulator(p, NoiseSpec(kind="pauli")), 10**8,
                   shots_per_round=100000, seed=19)
    assert abs(res.estimate - truth) > 0.05


def test_determinism_and_validation():
    p = plane_problem(0.5)
    a = iqae_run(CircuitSimulator(p), 10**6, shots_per_round=2000, seed=23, trial=1)
    b = iqae_run(CircuitSimulator(p), 10**6, shots_per_round=2000, seed=23, trial=1)
    assert a.estimate == b.estimate
    assert [r.p_hat for r in a.rounds] == [r.p_hat for r in b.rounds]
    c = iqae_run(CircuitSimulator(p), 10**6, shots_per_round=2000, seed=23, trial=2)
    assert a.estimate != c.estimate
    with pytest.raises(ValueError):
        iqae_run(CircuitSimulator(p), 10**6, shots_per_round=0)


def test_every_run_is_bounded_by_its_budget():
    """A run at 3,000 shots and 10^8 walk calls asks for no circuit deeper than 10^8 // 3,000.

    Left unbounded, this config's depths keep growing (1, 6, 119, 1890, 38177,
    ... up to 2^23), so the budget alone must stop it.
    """
    rng = np.random.default_rng(281)
    psi, phi = (v / np.linalg.norm(v) for v in
                [rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(2)])
    sim = CircuitSimulator(amplitude_problem(psi, phi), NoiseSpec(kind="pauli"))
    deepest = 0
    prob = sim.prob

    def recording_prob(n):
        nonlocal deepest
        deepest = max(deepest, n)
        return prob(n)

    sim.prob = recording_prob
    budget, shots = 10**8, 3000
    res = iqae_run(sim, budget, shots_per_round=shots, seed=11)
    assert budget_ended(res, budget)
    assert [r.applications for r in res.rounds] == [1, 6, 119, 1890]
    assert 0 < deepest <= budget // shots
    with pytest.raises(TypeError):
        iqae_run(sim, shots_per_round=shots, seed=11)


def test_a_run_ends_before_repeating_a_contradicted_multiplier():
    """Under default pauli a contradicted round's interval is kept, and m = 7 stays.

    The README problem at 3,000 shots used to repeat that round 62 more times
    with the same outcome, to the round cap and 759,000 walk calls.
    """
    problem = amplitude_problem(np.array([1.0, 0.0]), np.array([np.sqrt(0.75), 0.5]))
    res = iqae_run(CircuitSimulator(problem, NoiseSpec(kind="pauli")), 10**8,
                   shots_per_round=3000, seed=11)
    assert [(r.m, r.contradiction) for r in res.rounds] == [(1, False), (7, True)]
    assert res.oracle_calls == 3000 * (1 + 4) == 15_000
    assert res.estimate == 0.56183114268295
    assert res.x_interval == (res.rounds[0].x_lo, res.rounds[0].x_hi)


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
    # a budget per case: the largest affordable m, of the mode's parity, near
    # the scanned range for half the cases and anywhere up to 3 m_cur for the rest
    m_cur_all = np.array([case[3] for case in cases])
    near = 2 * m_cur_all + rng.integers(-8, 100, len(cases))
    anywhere = rng.integers(0, 3 * m_cur_all + 5)
    tops = np.where(np.arange(len(cases)) % 2, anywhere, near)
    moved = 0
    outcomes = Counter()
    for (mode, x_lo, x_hi, m_cur), top in zip(cases, tops.tolist()):
        want = _next_multiplier_rebuilt(mode, x_lo, x_hi, m_cur)
        got = _next_multiplier(mode, x_lo, x_hi, m_cur, _MAX_MULTIPLIER)
        assert type(got) is int
        assert got == want, (mode, x_lo, x_hi, m_cur)
        moved += got != m_cur
        # the run stops on an m above the budget's, or acts on the same m
        m_top = max(top, 0) | 1 if mode == "amplitude" else max(top, 0) // 2 * 2 + 2
        got = _next_multiplier(mode, x_lo, x_hi, m_cur, m_top)
        assert type(got) is int and got % 2 == want % 2
        stop = want > m_top
        assert (got > m_top) == stop and (stop or got == want), (mode, x_lo, x_hi, m_cur, m_top)
        outcomes[stop, want == m_cur] += 1
    # the scan both advances and holds m on this set, and the budgets both stop
    # and admit the advanced and the held m
    assert 0 < moved < len(cases)
    assert len(outcomes) == 4 and min(outcomes.values()) > 1000, outcomes


def _invert_numpy(m, x_lo, x_hi, c_lo, c_hi):
    """_invert before its ends became Python floats, kept here as the reference."""
    j = _branch(m, x_lo, x_hi)
    if j % 2 == 0:
        v_lo, v_hi = np.arccos(c_hi), np.arccos(c_lo)
    else:
        v_lo, v_hi = np.arccos(-c_lo), np.arccos(-c_hi)
    return (j * np.pi + v_lo) / m, (j * np.pi + v_hi) / m


def test_capped_runs_of_compare_noise_match_the_full_scan(monkeypatch):
    """compare-noise's 60 capped runs on the README config, against the full scan."""
    problem = amplitude_problem(np.array([1.0, 0.0]), np.array([np.sqrt(0.75), 0.5]))
    sim = CircuitSimulator(problem, NoiseSpec(kind="pauli"))
    shots, seed = 100_000, 7
    # the estimator's cumulative charge after iterations 0..5: 4 circuits at n, 2n, 3n
    budgets = np.cumsum([shots * 4 * 6 * 2 ** i for i in range(6)]).tolist()

    def runs():
        return [iqae_run(sim, budget, shots_per_round=shots, seed=seed,
                         trial=(trial << 10) | index)
                for trial in range(10) for index, budget in enumerate(budgets)]

    got = runs()
    monkeypatch.setattr(baseline, "_next_multiplier",
                        lambda mode, x_lo, x_hi, m_cur, m_top:
                        _next_multiplier_rebuilt(mode, x_lo, x_hi, m_cur))
    monkeypatch.setattr(baseline, "_invert", _invert_numpy)
    want = runs()
    assert got == want  # field by field, np.float64 against float by value
    assert all(type(r.x_lo) is float for res in got for r in res.rounds)
    # the budget, not the round cap, ends every run, after rounds at m = 1 and beyond
    assert all(budget_ended(res, budget) for res, budget in zip(got, budgets * 10))
    assert len({r.m for res in got for r in res.rounds}) > 2
