"""Command line driver.

Commands: estimate, sweep-depth, compare-noise, verify-perturbation,
plan-shots. Settings come from a JSON config file (--config) with CLI
flags taking precedence over file values and file values over defaults.
Artifacts (CSV, SVG) are written under --out.

Exit codes: 0 success, 1 usage or configuration error, 2 estimation
failure, 3 verification checks failed.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys

from .config import MAX_ITERATIONS, ExperimentConfig, load_config
from .errors import ConfigError, EstimationFailure, NonPhysicalChannelError, NrqaeError
from .experiments import (COMPARE_HEADER, ESTIMATE_HEADER, SWEEP_HEADER,
                          SWEEP_SUMMARY_HEADER, VERIFY_HEADER, VERIFY_SUMMARY_HEADER,
                          hoeffding_shots, run_compare_noise, run_estimate,
                          run_sweep_depth, run_verify_perturbation, write_csv,
                          write_text)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_common(sub: argparse.ArgumentParser):
    sub.add_argument("--config", help="JSON config file")
    sub.add_argument("--seed", type=int, help="base RNG seed")
    sub.add_argument("--out", default="nrqae-out", help="output directory")
    sub.add_argument("--trials", type=int, help="number of trials")
    sub.add_argument("--shots", type=int, help="shots per circuit")
    sub.add_argument("--exact", action="store_true", default=None,
                     help="use exact expectations instead of sampling")
    sub.add_argument("--iterations", type=int,
                     help=f"max iteration index k <= {MAX_ITERATIONS} (deepest depth 3*2^k)")


@functools.cache
def _build_parser() -> _Parser:
    """The one parser of the process, built on the first main() call.

    parse_args leaves the parser as it was and returns a fresh namespace,
    so every call shares it; building it at import would slow `import nrqae`.
    """
    parser = _Parser(prog="nrqae", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("estimate", help="single estimation run")
    _add_common(p)
    p.add_argument("--retry", action="store_true", default=None,
                   help="re-sample failed iterations once at 4x shots")

    p = subs.add_parser("sweep-depth", help="phase error vs depth under fixed perturbations")
    _add_common(p)
    p.add_argument("--perturbation", type=float, help="additive t perturbation")

    p = subs.add_parser("compare-noise", help="estimator vs baseline at matched budgets")
    _add_common(p)
    p.add_argument("--kinds", help="comma-separated noise kinds to compare")

    p = subs.add_parser("verify-perturbation", help="first-order perturbation checks")
    _add_common(p)

    p = subs.add_parser("plan-shots", help="Hoeffding shot planner")
    p.add_argument("--eps", type=float, required=True, help="target half-width")
    p.add_argument("--delta", type=float, required=True, help="failure probability")
    p.add_argument("--out", help="optional output directory")
    return parser


def _config_from_args(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    overrides = {}
    for name in ("seed", "trials", "shots", "iterations", "perturbation"):
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = value
    if getattr(args, "exact", None):
        overrides["exact"] = True
    if getattr(args, "retry", None):
        overrides["retry"] = True
    if getattr(args, "kinds", None) is not None:
        overrides["compare_kinds"] = [k.strip() for k in args.kinds.split(",") if k.strip()]
    # replace() reruns the config's checks on the overridden values
    return dataclasses.replace(cfg, **overrides)


def _cmd_estimate(args) -> int:
    cfg = _config_from_args(args)
    report = run_estimate(cfg)
    write_csv(os.path.join(args.out, "estimate.csv"), ESTIMATE_HEADER, report.rows)
    res = report.result
    print(f"mode={res.mode} theta={res.theta:.9g} theta_ch={res.theta_ch:.9g}")
    print(f"value={res.value:.9g} mirror={res.mirror:.9g} true={report.true_value:.9g}")
    print(f"p_hat={res.p_hat if res.p_hat is None else f'{res.p_hat:.6g}'} "
          f"oracle_calls={res.oracle_calls}")
    ok = sum(r.ok for r in res.iterations)
    print(f"iterations ok: {ok}/{len(res.iterations)}")
    print(f"wrote {os.path.join(args.out, 'estimate.csv')}")
    return 0


def _cmd_sweep_depth(args) -> int:
    cfg = _config_from_args(args)
    report = run_sweep_depth(cfg)
    write_csv(os.path.join(args.out, "sweep_depth.csv"), SWEEP_HEADER, report.rows)
    write_csv(os.path.join(args.out, "sweep_depth_summary.csv"),
              SWEEP_SUMMARY_HEADER, report.summary_rows)
    write_text(os.path.join(args.out, "sweep_depth.svg"), report.svg)
    slope = "n/a" if report.slope is None else f"{report.slope:.4g}"
    print(f"theta_true={report.theta_true:.9g} error slope={slope}")
    for depth, med, n_ok in report.summary_rows:
        med_s = "n/a" if med is None else f"{med:.6g}"
        print(f"depth {depth}: median error {med_s} ({n_ok} trials)")
    print(f"wrote {os.path.join(args.out, 'sweep_depth.csv')}")
    return 0


def _cmd_compare_noise(args) -> int:
    cfg = _config_from_args(args)
    report = run_compare_noise(cfg)
    write_csv(os.path.join(args.out, "compare_noise.csv"), COMPARE_HEADER, report.rows)
    write_text(os.path.join(args.out, "compare_noise.svg"), report.svg)
    print(f"true value {report.true_value:.9g}, kinds: {', '.join(report.kinds)}")
    print(f"wrote {os.path.join(args.out, 'compare_noise.csv')}")
    return 0


def _cmd_verify_perturbation(args) -> int:
    cfg = _config_from_args(args)
    report = run_verify_perturbation(cfg)
    write_csv(os.path.join(args.out, "verify_perturbation.csv"), VERIFY_HEADER, report.rows)
    write_csv(os.path.join(args.out, "verify_perturbation_summary.csv"),
              VERIFY_SUMMARY_HEADER, report.summary_rows)
    write_text(os.path.join(args.out, "verify_perturbation.svg"), report.svg)
    for kind, name, value, lo, hi, ok in report.summary_rows:
        verdict = "PASS" if ok else "FAIL"
        print(f"{verdict} {kind} {name}: {value:.4g} (band [{lo:.3g}, {hi:.3g}])")
    if report.flagged:
        print(f"FAIL {report.flagged} rows flagged for ambiguous eigenvector matching")
    print(f"wrote {os.path.join(args.out, 'verify_perturbation.csv')}")
    return 0 if report.all_ok else 3


def _cmd_plan_shots(args) -> int:
    shots = hoeffding_shots(args.eps, args.delta)
    print(f"eps={args.eps:g} delta={args.delta:g} shots={shots}")
    if args.out:
        write_csv(os.path.join(args.out, "plan_shots.csv"),
                  ["eps", "delta", "shots"], [(args.eps, args.delta, shots)])
    return 0


_COMMANDS = {
    "estimate": _cmd_estimate,
    "sweep-depth": _cmd_sweep_depth,
    "compare-noise": _cmd_compare_noise,
    "verify-perturbation": _cmd_verify_perturbation,
    "plan-shots": _cmd_plan_shots,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, NonPhysicalChannelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except EstimationFailure as exc:
        print(f"estimation failed: {exc}", file=sys.stderr)
        return 2
    except NrqaeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
