"""Experiment drivers behind the CLI commands.

Each driver takes an ExperimentConfig and returns a report object with the
rows that go into the CSV artifacts plus a few headline numbers for the
terminal summary. Everything is deterministic given (config, seed): trials
and rounds draw from substreams keyed by their indices, and CSV floats are
rendered with 12 significant digits.
"""

from __future__ import annotations

import math
import os
from typing import NamedTuple, Optional

import numpy as np

from .baseline import iqae_run
from .channels import NoiseSpec
from .circuits import (CircuitSimulator, exact_provider, perturbed_providers, sampled_provider,
                       sampled_providers)
from .config import ExperimentConfig, build_problem
from .errors import ConfigError
from .estimator import fold_theta, run
from .model import theta_to_value
from .perturbation import (fit_loglog_slope, lemma1_check, lemma2_check, perturbed_steps,
                           subspace_basis, theorem1_check)
from .svgplot import line_plot

LEMMA1_SLOPE_BAND = (1.7, 2.3)
LEMMA2_SLOPE_BAND = (0.7, 1.3)
THEOREM1_SLOPE_BAND = (0.7, 1.3)
THEOREM1_UNIFORMITY_MAX = 3.0
RESIDUAL_FLOOR = 1e-12
# The perturbation checks diagonalize the dense 4^q x 4^q step
# superoperator once per strength and noise kind. That eig costs O(64^q):
# on 2 cores np.linalg.eig of one of verify-q3's 14 steps (q = 3, 64 x 64)
# takes 2.5-4.4 ms, median about 4 ms, 256 x 256 about 160 ms (q = 4) and
# 1024 x 1024 about 3.4 s (q = 5).
VERIFY_MAX_QUBITS = 3


def hoeffding_shots(eps: float, delta: float) -> int:
    """Shots m with P(|p_hat - p| >= eps) <= delta: m = ceil(ln(2/delta) / (2 eps^2))."""
    if not 0.0 < eps < 1.0:
        raise ConfigError(f"eps must be in (0, 1), got {eps}")
    if not 0.0 < delta < 1.0:
        raise ConfigError(f"delta must be in (0, 1), got {delta}")
    # eps^2 can underflow to 0 and 2 / delta overflow to inf
    denominator = 2.0 * eps * eps
    shots = math.log(2.0 / delta) / denominator if denominator > 0.0 else math.inf
    if not math.isfinite(shots):
        raise ConfigError(f"the shot count for eps={eps}, delta={delta} overflows a float")
    return int(math.ceil(shots))


def _median(values) -> float:
    """np.median of a non-empty list, bit for bit, without numpy's import of numpy.ma."""
    ordered = sorted(values)
    mid = len(ordered) // 2
    return float(ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2.0)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def write_csv(path: str, header, rows):
    write_text(path, "".join(",".join(_fmt(v) for v in row) + "\n" for row in [header, *rows]))


def write_text(path: str, text: str):
    """Write text to path, creating its directory; an OSError becomes a one-line ConfigError."""
    try:
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _true_value(problem) -> float:
    if problem.mode == "amplitude":
        return float(abs(np.vdot(problem.phi, problem.psi)) ** 2)
    return float(np.vdot(problem.psi, problem.observable @ problem.psi).real)


ESTIMATE_HEADER = ["iteration", "depth", "t1", "t2", "t3", "y", "candidates",
                   "selected_theta", "ok", "reason"]


class EstimateReport(NamedTuple):
    result: object
    rows: list
    true_value: float


def run_estimate(cfg: ExperimentConfig) -> EstimateReport:
    problem = build_problem(cfg)
    sim = CircuitSimulator(problem, cfg.noise)
    if cfg.exact or cfg.shots is None:
        provider = exact_provider(sim)
    else:
        provider = sampled_provider(sim, cfg.shots, cfg.seed)
    result = run(provider, k=cfg.iterations, retry=cfg.retry)
    rows = [(rec.index, rec.n, *rec.triplet, rec.y, len(rec.candidates), rec.selected, rec.ok,
             rec.reason or "") for rec in result.iterations]
    return EstimateReport(result=result, rows=rows, true_value=_true_value(problem))


SWEEP_HEADER = ["depth", "trial", "theta_est", "abs_error"]
SWEEP_SUMMARY_HEADER = ["depth", "median_error", "trials_ok"]


class SweepReport(NamedTuple):
    rows: list
    summary_rows: list
    slope: Optional[float]
    theta_true: float
    svg: str


def run_sweep_depth(cfg: ExperimentConfig) -> SweepReport:
    """Median phase error against max depth under fixed-size t perturbations.

    The log-log slope fits only the depths where at least two trials refined
    their estimate, since elsewhere the medians mostly repeat carried
    estimates; with fewer than two such depths it is None.
    """
    problem = build_problem(cfg)
    theta_true = fold_theta(subspace_basis(problem).theta_g)
    depths = [2 ** i for i in range(cfg.iterations + 1)]
    errors = {n: [] for n in depths}
    refined = dict.fromkeys(depths, 0)
    rows = []
    sim = CircuitSimulator(problem, cfg.noise)
    providers = perturbed_providers(sim, cfg.perturbation, cfg.seed, range(cfg.trials))
    for trial, provider in enumerate(providers):
        result = run(provider, k=cfg.iterations)
        for rec, theta in zip(result.iterations, result.iteration_thetas()):
            err = abs(theta - theta_true) if theta is not None else None
            rows.append((rec.n, trial, theta, err))
            refined[rec.n] += rec.ok
            if err is not None:
                errors[rec.n].append(err)
    summary_rows = []
    medians = {}
    for n in depths:
        med = _median(errors[n]) if errors[n] else None
        medians[n] = med
        summary_rows.append((n, med, len(errors[n])))
    fit_pts = [(n, m) for n, m in medians.items() if refined[n] >= 2 and m is not None and m > 0]
    slope = (fit_loglog_slope([p[0] for p in fit_pts], [p[1] for p in fit_pts])
             if len(fit_pts) >= 2 else None)
    svg = line_plot({"median error": ([n for n, m in medians.items() if m],
                                      [m for m in medians.values() if m])},
                    title="phase error vs depth", xlabel="max depth n",
                    ylabel="median |theta_est - theta_true|")
    return SweepReport(rows=rows, summary_rows=summary_rows, slope=slope,
                       theta_true=theta_true, svg=svg)


COMPARE_HEADER = ["kind", "trial", "depth", "oracle_calls", "nrqae_value", "nrqae_error",
                  "iqae_value", "iqae_error", "iqae_rounds"]


class CompareReport(NamedTuple):
    rows: list
    true_value: float
    svg: str
    kinds: list


def _noise_for_kind(cfg: ExperimentConfig, kind: str) -> NoiseSpec:
    if kind == cfg.noise.kind:
        return cfg.noise
    seed = cfg.seed if kind == "statistical" else None
    return NoiseSpec(kind=kind, seed=seed)


def run_compare_noise(cfg: ExperimentConfig) -> CompareReport:
    """NRQAE vs the iterative baseline at matched walk-call budgets.

    For each trial the estimator runs once over iterations 0..k; the
    baseline is rerun per depth point with its budget capped at the
    estimator's cumulative call count for that depth. Every trial and
    baseline run of one noise kind shares a simulator.
    """
    if cfg.exact or cfg.shots is None:
        raise ConfigError("compare-noise needs sampled mode (shots set, exact off)")
    problem = build_problem(cfg)
    true_value = _true_value(problem)
    kinds = cfg.compare_kinds or [cfg.noise.kind]
    rows = []
    median_series = {}
    for kind in kinds:
        noise = _noise_for_kind(cfg, kind)
        sim = CircuitSimulator(problem, noise)
        per_depth_nrqae = {}
        per_depth_iqae = {}
        providers = sampled_providers(sim, cfg.shots, cfg.seed, range(cfg.trials))
        for trial, provider in enumerate(providers):
            result = run(provider, k=cfg.iterations, retry=cfg.retry)
            budget = 0
            thetas = result.iteration_thetas()
            for rec, theta in zip(result.iterations, thetas):
                budget += rec.oracle_calls
                if theta is None:
                    rows.append((kind, trial, rec.n, budget, None, None, None, None, None))
                    continue
                value = theta_to_value(2.0 * theta, problem.mode).value
                nrqae_err = abs(value - true_value)
                base = iqae_run(sim, shots_per_round=cfg.shots,
                                seed=cfg.seed, trial=(trial << 10) | rec.index,
                                max_oracle_calls=budget)
                iqae_err = abs(base.estimate - true_value)
                rows.append((kind, trial, rec.n, budget, value, nrqae_err,
                             base.estimate, iqae_err, len(base.rounds)))
                per_depth_nrqae.setdefault(rec.n, []).append(nrqae_err)
                per_depth_iqae.setdefault(rec.n, []).append(iqae_err)
        depths = sorted(per_depth_nrqae)
        median_series[f"{kind} nrqae"] = (depths, [_median(per_depth_nrqae[n]) for n in depths])
        median_series[f"{kind} iqae"] = (depths, [_median(per_depth_iqae[n]) for n in depths])
    svg = line_plot(median_series, title="estimation error vs depth",
                    xlabel="max depth n", ylabel="median |estimate - true|")
    return CompareReport(rows=rows, true_value=true_value, svg=svg, kinds=kinds)


VERIFY_HEADER = ["kind", "check", "s", "depth", "value"]
VERIFY_SUMMARY_HEADER = ["kind", "check", "value", "band_lo", "band_hi", "ok"]


class VerifyReport(NamedTuple):
    rows: list
    summary_rows: list
    flagged: int
    all_ok: bool
    svg: str


def _slope_check(name: str, xs, ys, band) -> tuple:
    # A channel that commutes with the walk on the rotating plane leaves
    # residuals at float-noise level; fitting a slope to that junk would
    # report a spurious failure, so such a check passes on the floor band.
    top = max(ys)
    if top <= RESIDUAL_FLOOR:
        return (name + "_below_floor", top, (0.0, RESIDUAL_FLOOR))
    return (name, fit_loglog_slope(xs, ys), band)


def run_verify_perturbation(cfg: ExperimentConfig) -> VerifyReport:
    """Slope checks of the first-order perturbation statements.

    Residual series whose largest entry is at most RESIDUAL_FLOOR are
    reported as `<check>_below_floor` rows that pass trivially: the
    first-order statement holds exactly for that channel and there is no
    slope left to fit.
    """
    if cfg.qubits > VERIFY_MAX_QUBITS:
        raise ConfigError(f"verify-perturbation needs qubits <= {VERIFY_MAX_QUBITS}, got "
                          f"{cfg.qubits}: it diagonalizes the dense 4^q x 4^q "
                          f"step superoperator")
    problem = build_problem(cfg)
    kinds = cfg.compare_kinds or [cfg.noise.kind]
    if "none" in kinds:
        raise ConfigError("verify-perturbation needs a non-trivial noise kind")
    s_grid = [float(s) for s in cfg.s_grid]
    depths = [int(n) for n in cfg.depth_grid]
    rows = []
    summary = []
    flagged = 0
    series = {}
    for kind in kinds:
        steps = perturbed_steps(problem, _noise_for_kind(cfg, kind), s_grid)
        l1 = lemma1_check(steps)
        l2 = lemma2_check(steps)
        t1 = theorem1_check(steps, depths=depths)
        flagged += sum(r.flagged for r in l1) + sum(r.flagged for r in l2)
        flagged += sum(r.flagged for r in t1)
        for r in l1:
            rows.append((kind, "lemma1_residual", r.s, None, r.residual))
        for r in l2:
            rows.append((kind, "lemma2_c1_error", r.s, None, r.c1_error))
            rows.append((kind, "lemma2_c2_error", r.s, None, r.c2_error))
            rows.append((kind, "lemma2_span_residual", r.s, None, r.span_residual))
        for r in t1:
            rows.append((kind, "theorem1_error", r.s, r.n, r.error))

        checks = []
        checks.append(_slope_check("lemma1_slope", [r.s for r in l1],
                                   [r.residual for r in l1], LEMMA1_SLOPE_BAND))
        checks.append(_slope_check("lemma2_c1_slope", [r.s for r in l2],
                                   [r.c1_error for r in l2], LEMMA2_SLOPE_BAND))
        checks.append(_slope_check("lemma2_residual_slope", [r.s for r in l2],
                                   [r.span_residual for r in l2], LEMMA2_SLOPE_BAND))
        max_err = {s: max(r.error for r in t1 if r.s == s) for s in s_grid}
        checks.append(_slope_check("theorem1_slope", list(max_err),
                                   list(max_err.values()), THEOREM1_SLOPE_BAND))
        if max(max_err.values()) <= RESIDUAL_FLOOR:
            checks.append(("theorem1_uniformity_below_floor", max(max_err.values()),
                           (0.0, RESIDUAL_FLOOR)))
        else:
            # the smallest positive depth, wherever the grid lists it; depth 0 runs no
            # layer, so its error only shows how far rho_tilde leaves the two-mode model
            first = min(n for n in depths if n > 0)
            ratios = []
            for s in s_grid:
                e1 = next(r.error for r in t1 if r.s == s and r.n == first)
                if e1 > RESIDUAL_FLOOR:
                    ratios.append(max_err[s] / e1)
            checks.append(("theorem1_uniformity", max(ratios) if ratios else float("inf"),
                           (0.0, THEOREM1_UNIFORMITY_MAX)))
        for name, value, band in checks:
            ok = band[0] <= value <= band[1]
            summary.append((kind, name, value, band[0], band[1], ok))
        series[f"{kind} lemma1"] = ([r.s for r in l1], [r.residual for r in l1])
        series[f"{kind} lemma2"] = ([r.s for r in l2], [r.span_residual for r in l2])
        series[f"{kind} theorem1"] = (s_grid, [max_err[s] for s in s_grid])
    all_ok = flagged == 0 and all(row[5] for row in summary)
    svg = line_plot(series, title="perturbation residuals vs strength",
                    xlabel="interpolation s", ylabel="residual")
    return VerifyReport(rows=rows, summary_rows=summary, flagged=flagged,
                        all_ok=all_ok, svg=svg)
