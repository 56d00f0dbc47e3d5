"""Depth-ratio phase estimation: a pure step per iteration, and run, its schedule.

step reads the values of t at depths (n, 2n, 3n) and measures nothing. The
scale-free ratio y = t_n t_3n / t_2n^2 cancels any per-layer envelope p^n,
which is what buys noise resilience. y gives x = cos(2 n theta) through the
quadratic 2(y - 1) x^2 - x + 1 = 0; of the 2n angles with that x, the one
nearest the running estimate is kept. The outcome is refined, quiet (depth 1,
no estimate yet, every |t| within the guard: theta = 0), guard (|t_2n| within
the guard) or no_candidates (no root in [-1, 1]). run is the schedule: it
measures at n = 2^i, i = 0..k, keeping each (depth, boost) it measured,
calls step, charges each attempt, and on request re-measures a failed
sampled iteration at 4x shots.

The working angle, the series phase in [0, pi], is the frequency of
cos(m theta) in the depth series and twice the folded state-space phase.
As cos(2 n theta) is symmetric about pi/2, pi - theta is a candidate at
every depth. seed_theta breaks that tie at the first success through the
sign of the fitted scale, with the depth-1 triplet when the success comes
deeper. Later rounds, each at half the candidate spacing, inherit the
branch by the nearest candidate; what remains is theta_to_value's mirror.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Literal, NamedTuple, Optional

import numpy as np

from .errors import DepthGuardError, EstimationFailure
from .model import theta_to_value

_MERGE_TOL = 1e-12
_ROOT_CLIP_TOL = 1e-9
# seed_theta's model c * p^m * cos(m a): the orders m, and p^m and p^2m on 17
# envelopes p
_M = np.array([1.0, 2.0, 3.0])
_POWERS = np.linspace(0.2, 1.0, 17) ** _M[:, None]
_POWERS2 = _POWERS ** 2


def ratio_y(t1: float, t2: float, t3: float, eps_div: float) -> float:
    """y = t1 t3 / t2^2, guarded against an uninformative denominator."""
    if abs(t2) <= eps_div:
        raise DepthGuardError(f"|t_2n| = {abs(t2):.3g} below division guard {eps_div:.3g}")
    return (t1 * t3) / (t2 * t2)


def roots_cos(y: float) -> list:
    """Roots x of 2(y - 1) x^2 - x + 1 = 0 kept inside [-1, 1].

    The quadratic is solved in the numerically stable form (larger-magnitude
    root from the quadratic term, companion root from c / q), and roots
    outside [-1, 1] (beyond float slack) are discarded. y = 1 degenerates to
    the linear equation with the single root x = 1. No two roots need
    merging: both lie in [-1, 1] only for y <= 1/2, where their product
    1 / (2(y - 1)) is negative, so they have opposite signs and lie at least
    sqrt(2 / |y - 1|) apart.
    """
    if y == 1.0:
        return [1.0]
    a = 2.0 * (y - 1.0)
    disc = 1.0 - 8.0 * (y - 1.0)
    if disc < 0.0:
        return []
    q = (1.0 + np.sqrt(disc)) / 2.0
    return sorted(float(min(max(x, -1.0), 1.0)) for x in (q / a, 1.0 / q)
                  if abs(x) <= 1.0 + _ROOT_CLIP_TOL)


def candidate_angles(x: float, n: int) -> list:
    """All theta in [0, pi] with cos(2 n theta) = x, duplicates merged."""
    if n < 1:
        raise ValueError(f"depth must be >= 1, got {n}")
    if abs(x) > 1.0 + _ROOT_CLIP_TOL:
        raise ValueError(f"|x| = {abs(x)} exceeds 1")
    alpha = float(np.arccos(min(max(x, -1.0), 1.0)))
    raw = []
    for k in range(n):
        raw.append((alpha + 2.0 * np.pi * k) / (2.0 * n))
        raw.append((2.0 * np.pi - alpha + 2.0 * np.pi * k) / (2.0 * n))
    return merge_angles(raw)


def merge_angles(values) -> list:
    out = []
    for v in sorted(float(v) for v in values):
        if not out or v - out[-1] > _MERGE_TOL:
            out.append(v)
    return out


def select_candidate(candidates, theta_prev: float) -> float:
    """Candidate nearest theta_prev; ties (within 1e-12) take the smaller."""
    if len(candidates) == 0:
        raise ValueError("empty candidate list")
    best = best_d = None
    for theta in sorted(candidates):
        d = abs(theta - theta_prev)
        if best is None or d < best_d - _MERGE_TOL:
            best, best_d = theta, d
    return float(best)


def seed_theta(candidates, triplet, n: int) -> list:
    """The candidates whose folded n * theta best fits the triplet, ascending.

    The triplet holds t at depths (n, 2n, 3n), so at unit depth spacing it
    reads the angle a = n * theta folded into [0, pi]. Each candidate's a is
    scored against c * p^m * cos(m a), m = 1, 2, 3, with the scale c >= 0
    fitted in closed form and p on 17 envelopes in [0.2, 1]. With b the
    basis vector, the best c leaves the squared residual
    |t|^2 - max(t.b, 0)^2 / |b|^2, so a candidate's score is the subtracted
    term at its best envelope. Both constraints carry information: a
    decaying series mimics a different pure cosine only through a growing
    envelope (p > 1), and the pi - a alias only through a negative scale,
    neither of which the model class contains.

    Scores within 1e-12 |t|^2 of the best count as ties; all of them are
    returned. At depth n the 2n candidates of one root fold onto two
    values of a, n candidates each, and each group ties; at even n theta
    and pi - theta share a group. An all-zero triplet ties every candidate.
    """
    thetas = sorted(candidates)
    if not thetas:
        raise ValueError("empty candidate list")
    # cos(m a) = cos(m n theta) for integer m, so the fold needs no arithmetic
    cos = np.cos(np.multiply.outer(thetas, n * _M))
    fit = np.maximum((cos * triplet) @ _POWERS, 0.0)
    score = (fit * fit / ((cos * cos) @ _POWERS2)).max(axis=1).tolist()
    cut = max(score) - 1e-12 * sum(v * v for v in triplet)
    return [theta for theta, s in zip(thetas, score) if s >= cut]


def fold_theta(theta: float) -> float:
    """Fold into [0, pi/2]; theta and pi - theta carry the same series."""
    return float(min(theta, np.pi - theta))


def fit_decay(theta_ch: float, series: dict) -> float:
    """Per-layer envelope p from log |t_n / cos(n theta_ch)| regression.

    series maps depth n to t_n. Depths where |cos(n theta_ch)| <= 0.1 or
    t_n = 0 are excluded; at least two usable depths are required. The fit
    is clamped into (0, 1].
    """
    ns, ys = [], []
    for n in sorted(series):
        den = np.cos(n * theta_ch)
        t = series[n]
        if abs(den) <= 0.1 or t == 0.0:
            continue
        ns.append(float(n))
        ys.append(np.log(abs(t / den)))
    if len(ns) < 2:
        raise EstimationFailure(f"envelope fit needs two usable depths, have {ns}")
    slope = np.polyfit(np.asarray(ns), np.asarray(ys), 1)[0]
    return float(min(np.exp(slope), 1.0))


Outcome = Literal["refined", "quiet", "guard", "no_candidates"]


class IterationRecord(NamedTuple):
    """What step read from the last triplet at depth n; retried and oracle_calls are run's."""

    n: int
    triplet: tuple
    outcome: Outcome
    y: Optional[float] = None
    roots: tuple = ()
    candidates: tuple = ()
    selected: Optional[float] = None
    reason: Optional[str] = None
    retried: bool = False
    oracle_calls: int = 0

    @property
    def ok(self) -> bool:
        return self.outcome in ("refined", "quiet")

    @property
    def index(self) -> int:
        """Iteration i of depth n = 2^i; it shadows tuple.index, which records never need."""
        return self.n.bit_length() - 1


def step(triplet, n: int, ref: Optional[float], guard: float, base, *,
         retried: bool = False, oracle_calls: int = 0) -> IterationRecord:
    """The record of the triplet t at depths (n, 2n, 3n); measures nothing.

    ref is the running estimate, None before the first success; base, the
    unboosted depth-1 triplet, breaks a tie left by a first success at n > 1.
    """
    meta = {"retried": retried, "oracle_calls": oracle_calls}
    if ref is None and n == 1 and max(abs(t) for t in triplet) <= guard:
        # the preparations coincide to measurement resolution; deeper, decay can hide a signal
        return IterationRecord(n, triplet, "quiet", candidates=(0.0,), selected=0.0, **meta)
    try:
        y = ratio_y(*triplet, guard)
    except DepthGuardError as exc:
        return IterationRecord(n, triplet, "guard", reason=str(exc), **meta)
    roots = tuple(roots_cos(y))
    candidates = tuple(merge_angles([a for x in roots for a in candidate_angles(x, n)]))
    if not candidates:
        return IterationRecord(n, triplet, "no_candidates", y, roots,
                               reason=f"no candidate angles at depth {n} (y = {y:.6g})", **meta)
    if ref is not None:
        selected = select_candidate(candidates, ref)
    else:
        best = seed_theta(candidates, triplet, n)
        selected = (seed_theta(best, base, 1) if len(best) > 1 and n > 1 else best)[0]
    return IterationRecord(n, triplet, "refined", y, roots, candidates, selected, **meta)


@dataclass
class EstimationResult:
    """Final estimate plus the full iteration trail.

    theta_ch is the estimated series phase in [0, pi]; theta is its
    state-space half. value/mirror are the two physical readings the
    ratio method cannot tell apart. oracle_calls is the sum of the
    iterations' charges. series maps each depth to its unboosted t value.
    """

    mode: str
    theta: float
    theta_ch: float
    value: float
    mirror: float
    oracle_calls: int
    iterations: list
    series: dict

    @cached_property
    def p_hat(self) -> Optional[float]:
        """Per-layer envelope fitted to series, None if the fit fails; fitted on first read."""
        try:
            return fit_decay(self.theta_ch, self.series)
        except EstimationFailure:
            return None

    def iteration_thetas(self) -> list:
        """Running state-phase estimate after each iteration (None before the first success)."""
        out, current = [], None
        for rec in self.iterations:
            current = rec.selected / 2.0 if rec.ok else current
            out.append(current)
        return out


def run(provider, k: int = 5, retry: bool = False) -> EstimationResult:
    """Full estimation run over iterations i = 0..k, depth n = 2^i.

    provider (a circuits.TProvider) says how to measure t and, through its
    simulator's problem, gives the mode. The run measures each (depth, boost)
    once and keeps it; series holds its unboosted values. retry=True
    re-measures a failed sampled iteration once at 4x shots, afresh.
    EstimationFailure means every iteration failed.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    provider.prepare(sorted({j * 2 ** i for i in range(k + 1) for j in (1, 2, 3)}))
    measured: dict = {}  # (depth, boost) -> t, in measurement order

    def triplet(n: int, boost: int = 1) -> tuple:
        for m in (n, 2 * n, 3 * n):
            if (m, boost) not in measured:
                measured[m, boost] = provider.measure(m, boost)
        return tuple(measured[m, boost] for m in (n, 2 * n, 3 * n))

    base = triplet(1)
    boosts = (1, 4) if retry and provider.shots else (1,)
    theta_ch, records = None, []
    for i in range(k + 1):
        n, calls = 2 ** i, 0
        for boost in boosts:
            calls += sum(provider.calls(m, boost) for m in (n, 2 * n, 3 * n))
            rec = step(triplet(n, boost), n, theta_ch, provider.eps_div, base,
                       retried=boost > 1, oracle_calls=calls)
            if rec.ok:
                theta_ch = rec.selected
                break
        records.append(rec)

    if theta_ch is None:
        reasons = "; ".join(f"i={r.index}: {r.reason}" for r in records)
        raise EstimationFailure(f"every iteration failed ({reasons})")

    mode = provider.sim.problem.mode
    pair = theta_to_value(theta_ch, mode)
    return EstimationResult(mode=mode, theta=theta_ch / 2.0, theta_ch=theta_ch,
                            value=pair.value, mirror=pair.mirror,
                            oracle_calls=sum(r.oracle_calls for r in records), iterations=records,
                            series={m: t for (m, boost), t in measured.items() if boost == 1})
