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

Rounds stop when the value-space width reaches target_eps, or when the
round, shot, or walk-call budget runs out. Noise biases p away from the
noiseless model; a round whose inverted interval misses the current one is
kept as a no-op and flagged, so the interval never teleports on a
contradiction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .circuits import CircuitSimulator
from .rng import substream

_BRANCH_TOL = 1e-9
_MAX_MULTIPLIER = 2 ** 24


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
class IqaeState:
    """Confidence interval on the phase plus the round log."""

    x_lo: float
    x_hi: float
    m: int
    shots_used: int = 0
    oracle_calls: int = 0
    rounds: list = field(default_factory=list)


@dataclass
class IqaeResult:
    mode: str
    estimate: float
    interval: tuple
    x_interval: tuple
    oracle_calls: int
    shots_used: int
    converged: bool
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


def _next_multiplier(mode: str, x_lo: float, x_hi: float, m_cur: int) -> int:
    """Largest m >= 2 m_cur of the mode's parity with m [x_lo, x_hi] in one half-period.

    The scan runs over Python floats: iqae_run passes numpy scalars, whose
    arithmetic costs several times more. Its branch index repeats _branch's
    expression term for term, so _invert inverts on the half-period checked here.
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
    m = m_max
    while m >= 2 * m_cur:
        j = math.floor(m * 0.5 * x_sum / math.pi)
        if (m * x_lo >= j * math.pi - _BRANCH_TOL
                and m * x_hi <= (j + 1) * math.pi + _BRANCH_TOL):
            return m
        m -= 2
    return m_cur


def _invert(m: int, x_lo: float, x_hi: float, c_lo: float, c_hi: float):
    """Interval of x with cos(m x) in [c_lo, c_hi], on the pinned branch."""
    j = _branch(m, x_lo, x_hi)
    if j % 2 == 0:
        v_lo, v_hi = np.arccos(c_hi), np.arccos(c_lo)
    else:
        v_lo, v_hi = np.arccos(-c_lo), np.arccos(-c_hi)
    return (j * np.pi + v_lo) / m, (j * np.pi + v_hi) / m


def iqae_run(sim: CircuitSimulator, target_eps: float = 1e-3,
             shots_per_round: int = 10_000, seed: int = 0, trial: int = 0,
             confidence: float = 0.95, max_rounds: int = 64,
             max_oracle_calls: Optional[int] = None) -> IqaeResult:
    """Run the iterative baseline on the circuits of sim's (problem, noise)."""
    if target_eps < 0:
        raise ValueError(f"target_eps must be >= 0, got {target_eps}")
    if shots_per_round < 1:
        raise ValueError(f"shots_per_round must be >= 1, got {shots_per_round}")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    if max_rounds < 1:
        raise ValueError(f"max_rounds must be >= 1, got {max_rounds}")
    problem = sim.problem
    psi = problem.psi
    sec = problem.second_state()
    mode = problem.mode
    state = IqaeState(x_lo=0.0, x_hi=np.pi if mode == "amplitude" else np.pi / 2.0,
                      m=0)
    m_min = 1 if mode == "amplitude" else 2
    delta_round = (1.0 - confidence) / max_rounds
    eps_p = float(np.sqrt(np.log(2.0 / delta_round) / (2.0 * shots_per_round)))
    converged = False

    for idx in range(max_rounds):
        if _value_width(mode, state.x_lo, state.x_hi) <= target_eps:
            converged = True
            break
        m = _next_multiplier(mode, state.x_lo, state.x_hi, state.m) if state.m else m_min
        k = _applications(mode, m)
        cost = shots_per_round * k
        if max_oracle_calls is not None and state.oracle_calls + cost > max_oracle_calls:
            break
        p_true = sim.prob(psi, sec, k)
        p_hat = substream(seed, trial, idx).binomial(shots_per_round, p_true) / shots_per_round
        c_lo = float(min(max(2.0 * (p_hat - eps_p) - 1.0, -1.0), 1.0))
        c_hi = float(min(max(2.0 * (p_hat + eps_p) - 1.0, -1.0), 1.0))
        u_lo, u_hi = _invert(m, state.x_lo, state.x_hi, c_lo, c_hi)
        new_lo = max(state.x_lo, u_lo)
        new_hi = min(state.x_hi, u_hi)
        contradiction = new_lo > new_hi
        if not contradiction:
            state.x_lo, state.x_hi = new_lo, new_hi
        state.m = m
        state.shots_used += shots_per_round
        state.oracle_calls += cost
        state.rounds.append(IqaeRound(index=idx, m=m, applications=k,
                                      shots=shots_per_round, p_hat=p_hat, eps_p=eps_p,
                                      x_lo=state.x_lo, x_hi=state.x_hi,
                                      contradiction=contradiction))
    else:
        converged = _value_width(mode, state.x_lo, state.x_hi) <= target_eps

    x_mid = 0.5 * (state.x_lo + state.x_hi)
    vals = sorted((_value(mode, state.x_lo), _value(mode, state.x_hi)))
    return IqaeResult(mode=mode, estimate=_value(mode, x_mid),
                      interval=(vals[0], vals[1]),
                      x_interval=(state.x_lo, state.x_hi),
                      oracle_calls=state.oracle_calls, shots_used=state.shots_used,
                      converged=converged, rounds=state.rounds)
