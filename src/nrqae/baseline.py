"""Iterative amplitude estimation baseline on the same circuits.

The unknown is the state-space phase x in [0, pi] with measured
probabilities p = (1 + cos(m x)) / 2. Amplitude mode reaches the odd
multipliers m = 2k - 1 with k walk applications (prepare |psi>, apply G^k,
measure against |phi>); observable mode reaches the even multipliers
m = 2k + 2 with k applications measured against O|psi>, and is tracked on
x in [0, pi/2] (the sign of <O> is a mirror branch, as in the main
estimator). Each round:

1. pick the largest multiplier m that keeps m * [x_lo, x_hi] inside one
   half-period of the cosine (preferring at least a doubling, else m stays);
2. sample the circuit, form a Hoeffding interval on p, and invert it on the
   branch the current interval pins down;
3. intersect with the current interval.

Every run takes a walk-call budget, max_oracle_calls, and ends in one of
three ways: its next round does not fit the budget, it has run MAX_ROUNDS
rounds, or its interval has collapsed to one value. The budget bounds the
depth of every circuit by max_oracle_calls // shots_per_round. The rounds
split the failure probability 1 - CONFIDENCE evenly. Noise biases p away
from the noiseless model; a round whose inverted interval misses the
current one is kept as a no-op and flagged, so the interval never
teleports on a contradiction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuits import CircuitSimulator
from .rng import substream

_BRANCH_TOL = 1e-9
_MAX_MULTIPLIER = 2 ** 24
CONFIDENCE = 0.95
MAX_ROUNDS = 64


@dataclass
class IqaeRound:
    index: int
    m: int
    applications: int
    shots: int
    p_hat: float
    eps_p: float
    x_lo: float
    x_hi: float
    contradiction: bool = False


@dataclass
class IqaeResult:
    mode: str
    estimate: float
    interval: tuple
    x_interval: tuple
    oracle_calls: int
    shots_used: int
    rounds: list


def _value(mode: str, x: float) -> float:
    if mode == "amplitude":
        return (1.0 + np.cos(x)) / 2.0
    return float(np.cos(x))


def _value_width(mode: str, x_lo: float, x_hi: float) -> float:
    return abs(_value(mode, x_lo) - _value(mode, x_hi))


def _applications(mode: str, m: int) -> int:
    if mode == "amplitude":
        return (m + 1) // 2
    return m // 2 - 1


def _branch(m: int, x_lo: float, x_hi: float) -> int:
    """Index j of the half-period [j pi, (j + 1) pi] holding m times the midpoint."""
    return math.floor(m * 0.5 * (x_lo + x_hi) / math.pi)


def _next_multiplier(mode: str, x_lo: float, x_hi: float, m_cur: int, m_top: int) -> int:
    """Largest m >= 2 m_cur of the mode's parity with m [x_lo, x_hi] in one half-period.

    Without such an m it returns m_cur. m_top, of the mode's parity, is the
    largest m the budget affords. Any fitting m above m_top ends the run, so
    the scan looks upward from m_top + 2 and returns the first m that fits;
    if none does, it scans down from m_top. The caller's budget test then
    decides as after a full scan down from pi / width, at a few tests
    instead of dozens; m_top >= _MAX_MULTIPLIER is that full scan.

    The scan runs over Python floats, which are several times cheaper than
    numpy scalars. Its branch index repeats _branch's expression term for
    term, so _invert inverts on the half-period checked here.
    """
    x_lo = float(x_lo)
    x_hi = float(x_hi)
    width = x_hi - x_lo
    if width <= 0:
        return m_cur
    m_max = min(math.floor(math.pi / width), _MAX_MULTIPLIER)
    if mode == "amplitude" and m_max % 2 == 0:
        m_max -= 1
    if mode == "observable" and m_max % 2 == 1:
        m_max -= 1
    x_sum = x_lo + x_hi

    def fits(m: int) -> bool:
        j = math.floor(m * 0.5 * x_sum / math.pi)
        return (m * x_lo >= j * math.pi - _BRANCH_TOL
                and m * x_hi <= (j + 1) * math.pi + _BRANCH_TOL)

    m_low = 2 * m_cur
    if m_top < m_max:
        # the smallest m above m_top that the full scan would reach
        m = max(m_top + 2, m_low + (m_low - m_top) % 2)
        while m <= m_max:
            if fits(m):
                return m
            m += 2
        m_max = m_top
    m = m_max
    while m >= m_low:
        if fits(m):
            return m
        m -= 2
    return m_cur


def _invert(m: int, x_lo: float, x_hi: float, c_lo: float, c_hi: float):
    """Interval of x with cos(m x) in [c_lo, c_hi], on the pinned branch, as Python floats."""
    j = _branch(m, x_lo, x_hi)
    if j % 2 == 0:
        v_lo, v_hi = np.arccos(c_hi), np.arccos(c_lo)
    else:
        v_lo, v_hi = np.arccos(-c_lo), np.arccos(-c_hi)
    return float((j * np.pi + v_lo) / m), float((j * np.pi + v_hi) / m)


def iqae_run(sim: CircuitSimulator, max_oracle_calls: int, shots_per_round: int = 10_000,
             seed: int = 0, trial: int = 0) -> IqaeResult:
    """Run the iterative baseline on the circuits of sim's (problem, noise).

    The rounds spend at most max_oracle_calls walk applications in all.
    Round idx draws its count from substream(seed, trial, idx), re-keying
    sim.rng rather than building a generator per round.
    """
    if shots_per_round < 1:
        raise ValueError(f"shots_per_round must be >= 1, got {shots_per_round}")
    mode = sim.problem.mode
    # the confidence interval on the phase, the current multiplier and the round log
    x_lo, x_hi = 0.0, np.pi if mode == "amplitude" else np.pi / 2.0
    m_cur = shots_used = oracle_calls = 0
    rounds = []
    m_min = 1 if mode == "amplitude" else 2
    delta_round = (1.0 - CONFIDENCE) / MAX_ROUNDS
    eps_p = float(np.sqrt(np.log(2.0 / delta_round) / (2.0 * shots_per_round)))

    for idx in range(MAX_ROUNDS):
        if _value_width(mode, x_lo, x_hi) <= 0.0:
            break
        # the largest m the budget affords: each step of 2 in m costs one
        # more application per shot
        k_top = int((max_oracle_calls - oracle_calls) // shots_per_round)
        m_top = m_min + 2 * (k_top - _applications(mode, m_min))
        m = _next_multiplier(mode, x_lo, x_hi, m_cur, m_top) if m_cur else m_min
        k = _applications(mode, m)
        cost = shots_per_round * k
        if oracle_calls + cost > max_oracle_calls:
            break
        p_true = sim.prob(k)
        gen = substream(seed, trial, idx, into=sim.rng)
        p_hat = gen.binomial(shots_per_round, p_true) / shots_per_round
        c_lo = float(min(max(2.0 * (p_hat - eps_p) - 1.0, -1.0), 1.0))
        c_hi = float(min(max(2.0 * (p_hat + eps_p) - 1.0, -1.0), 1.0))
        u_lo, u_hi = _invert(m, x_lo, x_hi, c_lo, c_hi)
        new_lo = max(x_lo, u_lo)
        new_hi = min(x_hi, u_hi)
        contradiction = new_lo > new_hi
        if not contradiction:
            x_lo, x_hi = new_lo, new_hi
        m_cur = m
        shots_used += shots_per_round
        oracle_calls += cost
        rounds.append(IqaeRound(index=idx, m=m, applications=k, shots=shots_per_round,
                                p_hat=p_hat, eps_p=eps_p, x_lo=x_lo, x_hi=x_hi,
                                contradiction=contradiction))

    x_mid = 0.5 * (x_lo + x_hi)
    vals = sorted((_value(mode, x_lo), _value(mode, x_hi)))
    return IqaeResult(mode=mode, estimate=_value(mode, x_mid), interval=(vals[0], vals[1]),
                      x_interval=(x_lo, x_hi), oracle_calls=oracle_calls,
                      shots_used=shots_used, rounds=rounds)
