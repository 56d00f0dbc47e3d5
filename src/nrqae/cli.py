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
from .errors import ConfigError, EstimationFailure, NrqaeError
from .experiments import (COMPARE_HEADER, ESTIMATE_HEADER, SWEEP_HEADER, SWEEP_SUMMARY_HEADER,
                          VERIFY_HEADER, VERIFY_SUMMARY_HEADER, hoeffding_shots, run_compare_noise,
                          run_estimate, run_sweep_depth, run_verify_perturbation, write_csv,
                          write_text)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _kinds(text: str) -> list:
    """--kinds pauli,depolarizing -> ["pauli", "depolarizing"], dropping empty names."""
    return [kind.strip() for kind in text.split(",") if kind.strip()]


# The flags of the four config commands. A setting flag's dest is the
# ExperimentConfig field it overrides; --config and --out name no field.
_FLAGS = {
    "--config": dict(help="JSON config file"),
    "--seed": dict(type=int, help="base RNG seed"),
    "--out": dict(default="nrqae-out", help="output directory"),
    "--trials": dict(type=int, help="number of trials"),
    "--shots": dict(type=int, help="shots per circuit"),
    "--exact": dict(action="store_true", default=None,
                    help="use exact expectations instead of sampling"),
    "--iterations": dict(type=int, help=f"max iteration index k <= {MAX_ITERATIONS} "
                                        f"(deepest depth 3*2^k)"),
    "--retry": dict(action="store_true", default=None,
                    help="re-sample failed iterations once at 4x shots"),
    "--perturbation": dict(type=float, help="additive t perturbation"),
    "--kinds": dict(dest="compare_kinds", metavar="KINDS", type=_kinds,
                    help="comma-separated noise kinds to compare"),
}


@functools.cache
def _build_parser() -> _Parser:
    """The one parser of the process, built on the first main() call.

    parse_args leaves the parser as it was and returns a fresh namespace,
    so every call shares it; building it at import would slow `import nrqae`.
    Each config command takes only the flags its run reads.
    """
    parser = _Parser(prog="nrqae", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    subs = parser.add_subparsers(dest="command", required=True)
    for command, help_text, flags in (
            ("estimate", "single estimation run",
             ("--config", "--seed", "--out", "--shots", "--exact", "--iterations", "--retry")),
            ("sweep-depth", "phase error vs depth under fixed perturbations",
             ("--config", "--seed", "--out", "--trials", "--iterations", "--perturbation")),
            ("compare-noise", "estimator vs baseline at matched budgets",
             ("--config", "--seed", "--out", "--trials", "--shots", "--exact", "--iterations",
              "--kinds")),
            ("verify-perturbation", "first-order perturbation checks",
             ("--config", "--seed", "--out"))):
        p = subs.add_parser(command, help=help_text)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])

    p = subs.add_parser("plan-shots", help="Hoeffding shot planner")
    p.add_argument("--eps", type=float, required=True, help="target half-width")
    p.add_argument("--delta", type=float, required=True, help="failure probability")
    p.add_argument("--out", help="optional output directory")
    return parser


def _config_from_args(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    names = {f.name for f in dataclasses.fields(cfg)}
    # replace() reruns the config's checks on the overridden values
    return dataclasses.replace(cfg, **{name: value for name, value in vars(args).items()
                                       if name in names and value is not None})


def _cmd_estimate(args) -> tuple:
    report = run_estimate(_config_from_args(args))
    res = report.result
    return report, [
        f"mode={res.mode} theta={res.theta:.9g} theta_ch={res.theta_ch:.9g}",
        f"value={res.value:.9g} mirror={res.mirror:.9g} true={report.true_value:.9g}",
        f"p_hat={res.p_hat if res.p_hat is None else f'{res.p_hat:.6g}'} "
        f"oracle_calls={res.oracle_calls}",
        f"iterations ok: {sum(r.ok for r in res.iterations)}/{len(res.iterations)}"], 0


def _cmd_sweep_depth(args) -> tuple:
    report = run_sweep_depth(_config_from_args(args))
    slope = "n/a" if report.slope is None else f"{report.slope:.4g}"
    return report, [f"theta_true={report.theta_true:.9g} error slope={slope}"] + [
        f"depth {depth}: median error {'n/a' if med is None else f'{med:.6g}'} ({n_ok} trials)"
        for depth, med, n_ok in report.summary_rows], 0


def _cmd_compare_noise(args) -> tuple:
    report = run_compare_noise(_config_from_args(args))
    return report, [f"true value {report.true_value:.9g}, kinds: {', '.join(report.kinds)}"], 0


def _cmd_verify_perturbation(args) -> tuple:
    report = run_verify_perturbation(_config_from_args(args))
    lines = [f"{'PASS' if ok else 'FAIL'} {kind} {name}: {value:.4g} (band [{lo:.3g}, {hi:.3g}])"
             for kind, name, value, lo, hi, ok in report.summary_rows]
    if report.flagged:
        lines.append(f"FAIL {report.flagged} rows flagged for ambiguous eigenvector matching")
    return report, lines, 0 if report.all_ok else 3


def _cmd_plan_shots(args) -> tuple:
    shots = hoeffding_shots(args.eps, args.delta)
    report = argparse.Namespace(rows=[(args.eps, args.delta, shots)])
    return report, [f"eps={args.eps:g} delta={args.delta:g} shots={shots}"], 0


# command -> (its run, returning (report, summary lines, exit code); its artifacts
# in write order, as (file name, CSV header or None for text, report field))
_COMMANDS = {
    "estimate": (_cmd_estimate, [("estimate.csv", ESTIMATE_HEADER, "rows")]),
    "sweep-depth": (_cmd_sweep_depth, [
        ("sweep_depth.csv", SWEEP_HEADER, "rows"),
        ("sweep_depth_summary.csv", SWEEP_SUMMARY_HEADER, "summary_rows"),
        ("sweep_depth.svg", None, "svg")]),
    "compare-noise": (_cmd_compare_noise, [
        ("compare_noise.csv", COMPARE_HEADER, "rows"),
        ("compare_noise.svg", None, "svg")]),
    "verify-perturbation": (_cmd_verify_perturbation, [
        ("verify_perturbation.csv", VERIFY_HEADER, "rows"),
        ("verify_perturbation_summary.csv", VERIFY_SUMMARY_HEADER, "summary_rows"),
        ("verify_perturbation.svg", None, "svg")]),
    "plan-shots": (_cmd_plan_shots, [("plan_shots.csv", ["eps", "delta", "shots"], "rows")]),
}


def _artifact_paths(out: str, artifacts) -> list:
    """The artifact paths under --out, checked before any work; creates nothing.

    --out itself, or its nearest existing ancestor, must be a directory, and
    no artifact path may be one, so a run does not fail at a write after all
    of its work. A write that still fails exits 1 with one line; the
    artifacts written before it stay.
    """
    probe = out
    while probe and not os.path.lexists(probe):
        probe = os.path.dirname(probe)
    if probe and not os.path.isdir(probe):
        raise ConfigError(f"--out {out}: {probe} is not a directory")
    paths = [os.path.join(out, name) for name, _, _ in artifacts]
    for path in paths:
        if os.path.isdir(path):
            raise ConfigError(f"--out {out}: {path} is a directory")
    return paths


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    command, artifacts = _COMMANDS[args.command]
    try:
        paths = [] if args.out is None else _artifact_paths(args.out, artifacts)
        report, lines, code = command(args)
        for path, (_, header, field) in zip(paths, artifacts):
            if header is None:
                write_text(path, getattr(report, field))
            else:
                write_csv(path, header, getattr(report, field))
        print(*lines, sep="\n")
        if paths and args.command != "plan-shots":  # it writes only when asked, silently
            print(f"wrote {paths[0]}")
        return code
    except EstimationFailure as exc:
        print(f"estimation failed: {exc}", file=sys.stderr)
        return 2
    except NrqaeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
