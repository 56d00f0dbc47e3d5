"""Depth-ratio phase estimation.

sampled or exact values of t at depths (n, 2n, 3n) feed the scale-free
ratio y = t_n t_3n / t_2n^2. Any per-layer envelope p^n multiplying the
series cancels in y, which is what buys noise resilience. y determines
x = cos(2 n theta) through the quadratic 2(y - 1) x^2 - x + 1 = 0; the 2n
angles consistent with an x value are enumerated and the one nearest the
running estimate is kept. Iteration i uses n = 2^i, so the candidate
spacing halves each round while earlier rounds pin the branch.

The working angle is the series phase in [0, pi], the frequency of
cos(m theta) in the depth series; it is twice the folded state-space
phase. Since cos(2 n theta) is symmetric about pi/2, pi - theta shows up
as a candidate at every depth; the seed fit breaks that tie through the
sign of the fitted scale, and later rounds inherit the branch through
the nearest-candidate rule. What remains is the genuinely
indistinguishable mirror reading reported by theta_to_value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import NamedTuple, Optional

import numpy as np

from .errors import DepthGuardError, EstimationFailure
from .model import theta_to_value

_MERGE_TOL = 1e-12
_ROOT_CLIP_TOL = 1e-9
SEED_GRID_SIZE = 2048
_EPS = float(np.finfo(np.float64).eps)
_EPS32 = float(np.finfo(np.float32).eps)
# |t|^2 range in which seed_theta's score roundings stay relative: far from
# float32 underflow, subnormals flushed to zero included, and overflow
_SEED_NORM2_RANGE = (1e-50, 1e50)


def ratio_y(t1: float, t2: float, t3: float, eps_div: float) -> float:
    """y = t1 t3 / t2^2, guarded against an uninformative denominator."""
    if abs(t2) <= eps_div:
        raise DepthGuardError(f"|t_2n| = {abs(t2):.3g} below division guard {eps_div:.3g}")
    return (t1 * t3) / (t2 * t2)


def roots_cos(y: float) -> list:
    """Roots x of 2(y - 1) x^2 - x + 1 = 0 kept inside [-1, 1].

    The quadratic is solved in the numerically stable form (larger-magnitude
    root from the quadratic term, companion root from c / q), duplicates are
    merged, and roots outside [-1, 1] (beyond float slack) are discarded.
    y = 1 degenerates to the linear equation with the single root x = 1.
    """
    if y == 1.0:
        return [1.0]
    a = 2.0 * (y - 1.0)
    disc = 1.0 - 8.0 * (y - 1.0)
    if disc < 0.0:
        return []
    sq = np.sqrt(disc)
    q = (1.0 + sq) / 2.0
    raw = [q / a, 1.0 / q]
    roots = []
    for x in raw:
        if abs(x) > 1.0 + _ROOT_CLIP_TOL:
            continue
        x = float(min(max(x, -1.0), 1.0))
        if not any(abs(x - r) <= _MERGE_TOL for r in roots):
            roots.append(x)
    return sorted(roots)


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
    best = None
    best_d = None
    for theta in sorted(candidates):
        d = abs(theta - theta_prev)
        if best is None or d < best_d - _MERGE_TOL:
            best, best_d = theta, d
    return float(best)


class _SeedTables(NamedTuple):
    """seed_theta's fixed grids and tables; see _seed_basis."""

    grid: np.ndarray          # SEED_GRID_SIZE angles on [0, pi]
    decays: np.ndarray        # 17 envelopes on [0.2, 1]
    cos: np.ndarray           # cos(m theta), (m, angle)
    powers: np.ndarray        # p^m, (m, decay)
    denom: np.ndarray         # guarded sum over m of basis^2, (angle, decay)
    score_cos: np.ndarray     # cos in float32
    score_powers: np.ndarray  # powers transposed to (decay, m), in float32
    inv_norm: np.ndarray      # denom^-1/2 transposed to (decay, angle), in float32


@cache
def _seed_basis() -> _SeedTables:
    """seed_theta's fixed grids and tables, built on first use.

    The basis basis[m, theta, p] = cos(m theta) p^m is the product of a
    cosine table cos[m, theta] and a power table powers[m, p]. Only the two
    factors are kept; _seed_residual rebuilds the rows it needs from them,
    value for value, since each entry is one rounded product. The score
    pass of _near_best_rows reads float32 copies of the factors and of the
    inverse basis norms.
    """
    grid = np.linspace(0.0, np.pi, SEED_GRID_SIZE)
    decays = np.linspace(0.2, 1.0, 17)
    m = np.array([1.0, 2.0, 3.0])
    cos = np.cos(np.outer(m, grid))
    powers = decays[None, :] ** m[:, None]
    basis = cos[:, :, None] * powers[:, None, :]
    denom = np.sum(basis * basis, axis=0)
    denom = np.where(denom > 0, denom, 1.0)
    tables = _SeedTables(grid, decays, cos, powers, denom,
                         score_cos=cos.astype(np.float32),
                         score_powers=np.ascontiguousarray(powers.T, dtype=np.float32),
                         inv_norm=np.ascontiguousarray((1.0 / np.sqrt(denom)).T,
                                                       dtype=np.float32))
    for arr in tables:
        arr.setflags(write=False)
    return tables


def seed_theta(triplet) -> float:
    """Coarse grid fit of the first triplet to c * p^m * cos(m theta), m = 1, 2, 3.

    Minimizes the squared residual over a uniform grid of SEED_GRID_SIZE
    angles on [0, pi] crossed with a coarse envelope grid p in (0, 1], the
    scale c >= 0 fitted in closed form per grid point. Both constraints
    carry information: a decaying series mimics a different pure cosine
    only through a growing envelope (p > 1), and the pi - theta alias only
    through a negative scale, neither of which the model class contains.
    The returned angle is on the series-phase scale, directly comparable
    with candidate_angles output. An all-zero triplet returns 0.0.

    The search runs in two stages. _near_best_rows scores every grid point
    in one small matrix product and keeps the angle rows within rounding
    of the best score; _seed_residual evaluates the residual on those rows
    only, with the full-grid arithmetic, so the result is the first
    minimum of the full-grid residual in flat (angle, decay) order.
    """
    tables = _seed_basis()
    t = np.asarray(triplet, dtype=float)
    rows = _near_best_rows(t)
    flat = int(np.argmin(_seed_residual(t, rows)))
    return float(tables.grid[rows[flat // tables.decays.size]])


def _near_best_rows(t: np.ndarray) -> np.ndarray:
    """Ascending angle rows that hold the first minimum of the computed residual.

    With the best scale c >= 0, the residual at a grid point with basis
    vector b is |t|^2 - s^2, s = max(t.b, 0) / |b|, so the rows are ranked
    by the score t.b / |b|. Why the cut below keeps the row of the first
    minimizer k of the computed residual, with T = |t| and u = 2^-53 and
    v = 2^-24 the float64 and float32 unit roundoffs:

    - The computed residual is within 8u T^2 of |t|^2 - s^2. The rounded
      scale moves the residual by O(u^2) T^2 only, since the exact scale
      minimizes it. Then three products, differences and squares and two
      additions each err by u relative; every term is at most T^2 because
      c |b| <= T.
    - The computed score is within e = 9v T of t.b / |b|. t and the two
      factors are rounded to float32, and the numerator rounds two
      products and two sums: 7v relative to sum |t_m b_m| <= T |b|.
      inv_norm's rounding and the product add 2v relative to
      |t.b / |b|| <= T.

    k's residual is at most every other point's, so s_k^2 >= s_j^2 - 16u
    T^2 for every j, and k's computed score is at least
    sqrt((best - e)^2 - 16u T^2) - e, with best the largest computed
    score. The cut uses e = 16 eps32 T = 32v T and 64 eps T^2 = 128u T^2,
    3.5x and 8x the derived bounds, which also covers the cut's own
    roundings; most triplets keep one to three rows. Every row is kept
    when nothing bounds k: a non-finite triplet, |t|^2 outside
    _SEED_NORM2_RANGE (the all-zero triplet among them), or a best score
    too close to 0 (a fully clipped grid).
    """
    tables = _seed_basis()
    norm2 = sum(v * v for v in t.tolist())
    if not _SEED_NORM2_RANGE[0] <= norm2 <= _SEED_NORM2_RANGE[1]:
        return np.arange(SEED_GRID_SIZE)
    # score[p, theta] = (sum_m t_m powers[m, p] cos[m, theta]) / |b|
    score = (tables.score_powers * t.astype(np.float32)) @ tables.score_cos
    score *= tables.inv_norm
    row_best = score.max(axis=0)
    err = 16.0 * _EPS32 * math.sqrt(norm2)
    best = float(row_best.max()) - err
    slack = best * best - 64.0 * _EPS * norm2
    if not (best > 0.0 and slack > 0.0):
        return np.arange(SEED_GRID_SIZE)
    return np.flatnonzero(row_best >= math.sqrt(slack) - err)


def _seed_residual(t: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Squared residual of the best scale c >= 0 on the given angle rows, (rows, decays).

    Bitwise what the full grid gives on those rows: the rows of the basis
    are rebuilt entry for entry, and every step is elementwise or, for the
    einsum over whole rows and the sum over the leading axis, runs the same
    loop over each row as over the full grid.
    """
    tables = _seed_basis()
    basis = tables.cos[:, rows, None] * tables.powers[:, None, :]
    c = np.einsum("m,mtp->tp", t, basis)
    c /= tables.denom[rows]
    np.maximum(c, 0.0, out=c)
    return np.sum((t[:, None, None] - c * basis) ** 2, axis=0)


def fold_theta(theta: float) -> float:
    """Fold into [0, pi/2]; theta and pi - theta carry the same series."""
    return float(min(theta, np.pi - theta))


def _fold_series(angle: float) -> float:
    """Map any angle to the [0, pi] representative with the same cosine series."""
    a = float(np.mod(angle, 2.0 * np.pi))
    return min(a, 2.0 * np.pi - a)


def _select_seeded(candidates, beta: float, n: int) -> float:
    """First-success selection against a seed fitted to a depth-n triplet.

    seed_theta reads its triplet at unit depth spacing, so on the depths
    (n, 2n, 3n) it estimates the folded angle n * theta rather than theta
    itself; candidates are compared on that measured scale. At n = 1 this
    is plain nearest-candidate selection.
    """
    best = None
    best_d = None
    for theta in sorted(candidates):
        d = abs(_fold_series(n * theta) - beta)
        if best is None or d < best_d - _MERGE_TOL:
            best, best_d = theta, d
    return float(best)


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
    if len(set(ns)) < 2:
        raise EstimationFailure(f"envelope fit needs two usable depths, have {sorted(set(ns))}")
    slope = np.polyfit(np.asarray(ns), np.asarray(ys), 1)[0]
    return float(min(np.exp(slope), 1.0))


@dataclass
class IterationRecord:
    index: int
    n: int
    triplet: Optional[tuple] = None
    y: Optional[float] = None
    roots: list = field(default_factory=list)
    candidates: list = field(default_factory=list)
    selected: Optional[float] = None
    ok: bool = False
    reason: Optional[str] = None
    retried: bool = False
    oracle_calls: int = 0


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
        out = []
        current = None
        for rec in self.iterations:
            if rec.ok:
                current = rec.selected / 2.0
            out.append(current)
        return out


def run(provider, k: int = 5, retry: bool = False) -> EstimationResult:
    """Full estimation run over iterations i = 0..k, depth n = 2^i.

    provider (a circuits.TProvider) serves the depth series; its simulator's
    problem sets the mode. A guard-tripped or candidate-free iteration is
    recorded as failed and the estimate carries; with retry=True a failed
    sampled iteration is re-measured once at 4x shots. If every iteration
    fails, EstimationFailure carries the records.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    theta = None
    records = []

    def attempt(rec: IterationRecord, n: int, ref: Optional[float], boost: int) -> float:
        rec.triplet = provider.triplet(n, boost=boost)
        t1, t2, t3 = rec.triplet
        if ref is None and n == 1 and max(abs(t1), abs(t2), abs(t3)) <= provider.eps_div:
            # quiet at base depth before any estimate exists: the two
            # preparations coincide to measurement resolution, theta = 0.
            # Deeper depths are excluded since decay can silence a real
            # signal there.
            rec.candidates = [0.0]
            return 0.0
        rec.y = ratio_y(t1, t2, t3, provider.eps_div)
        rec.roots = roots_cos(rec.y)
        cands = []
        for x in rec.roots:
            cands.extend(candidate_angles(x, n))
        rec.candidates = merge_angles(cands)
        if not rec.candidates:
            raise DepthGuardError(f"no candidate angles at depth {n} (y = {rec.y:.6g})")
        if ref is None:
            return _select_seeded(rec.candidates, seed_theta(rec.triplet), n)
        return select_candidate(rec.candidates, ref)

    boosts = (1, 4) if retry and provider.shots else (1,)
    for i in range(k + 1):
        n = 2 ** i
        rec = IterationRecord(index=i, n=n)
        reasons = []
        for boost in boosts:
            rec.retried = boost > 1
            rec.oracle_calls += provider.calls_for(n, boost=boost)
            try:
                theta = rec.selected = attempt(rec, n, theta, boost=boost)
            except DepthGuardError as exc:
                reasons.append(str(exc))
                continue
            rec.ok = True
            break
        else:
            rec.reason = "; retry: ".join(reasons)
        records.append(rec)

    if theta is None:
        reasons = "; ".join(f"i={r.index}: {r.reason}" for r in records)
        raise EstimationFailure(f"every iteration failed ({reasons})")

    theta_ch = float(theta)
    mode = provider.sim.problem.mode
    pair = theta_to_value(theta_ch, mode)
    return EstimationResult(mode=mode, theta=theta_ch / 2.0, theta_ch=theta_ch,
                            value=pair.value, mirror=pair.mirror,
                            oracle_calls=sum(r.oracle_calls for r in records),
                            iterations=records,
                            series=provider.series)
