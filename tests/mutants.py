"""Mutation check: each mutant below must fail the test that pins its constant.

Not collected by pytest (like bench_pool.py). Run from any directory:

    python tests/mutants.py

It copies src/ into a temporary directory and first runs every killing test
against the unmutated copy, which must pass. Then, per mutant, it replaces
one source text (which must occur exactly once in its module) and runs the
mutant's killing test by node id against the mutated copy. A mutant is
killed when that run fails a test (pytest exit code 1). Exits 1 if the
unmutated run fails or any mutant survives, else 0.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# (module of src/nrqae, source text, mutated text, node id of the killing test)
MUTANTS = (
    ("estimator.py", "_ROOT_CLIP_TOL = 1e-9", "_ROOT_CLIP_TOL = 1e-6",
     "tests/test_estimator.py::test_roots_cos_fixed_points"),
    ("estimator.py", "return float(min(np.exp(slope), 1.0))", "return float(np.exp(slope))",
     "tests/test_estimator.py::test_fit_decay_recovers_envelope"),
    ("circuits.py", "_CLAMP_TOL = 1e-6", "_CLAMP_TOL = 1e-3",
     "tests/test_circuits.py::test_unphysical_noise_matrix_is_rejected"),
    ("perturbation.py", "OVERLAP_FLAG_THRESHOLD = 0.5", "OVERLAP_FLAG_THRESHOLD = 0.3",
     "tests/test_perturbation.py::test_a_step_matched_below_half_overlap_is_flagged"),
    ("estimator.py", "np.linspace(0.2, 1.0, 17)", "np.linspace(0.2, 1.0, 9)",
     "tests/test_estimator.py::test_seed_theta_scores_on_seventeen_envelopes"),
    ("model.py", "IMAG_TOL = 1e-8", "IMAG_TOL = 1e-2",
     "tests/test_circuits.py::test_a_non_real_probability_is_rejected"),
    ("baseline.py", "_BRANCH_TOL = 1e-9", "_BRANCH_TOL = 1e-6",
     "tests/test_baseline.py::test_a_multiplier_fits_within_the_branch_tolerance"),
    ("baseline.py", "_MAX_MULTIPLIER = 2 ** 24", "_MAX_MULTIPLIER = 2 ** 20",
     "tests/test_baseline.py::test_the_multiplier_scan_is_capped_at_two_to_the_24"),
    ("baseline.py", "CONFIDENCE = 0.95", "CONFIDENCE = 0.9",
     "tests/test_baseline.py::test_every_run_is_bounded_by_its_budget"),
    ("baseline.py", "MAX_ROUNDS = 64", "MAX_ROUNDS = 32",
     "tests/test_baseline.py::test_every_run_is_bounded_by_its_budget"),
    ("baseline.py", "oracle_calls + cost > max_oracle_calls",
     "oracle_calls + cost >= max_oracle_calls",
     "tests/test_baseline.py::test_a_round_that_spends_the_last_of_the_budget_runs"),
    ("baseline.py", "_value_width(mode, x_lo, x_hi) <= 0.0",
     "_value_width(mode, x_lo, x_hi) < 0.0",
     "tests/test_baseline.py::test_a_touching_inverted_interval_collapses_the_run"),
    ("baseline.py", "contradiction = new_lo > new_hi", "contradiction = new_lo >= new_hi",
     "tests/test_baseline.py::test_a_touching_inverted_interval_collapses_the_run"),
)


def _pytest(src: str, node_ids) -> int:
    """pytest's exit code for node_ids, run with nrqae imported from src."""
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
           "-o", f"pythonpath={src}", *node_ids]
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def main() -> int:
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        src = os.path.join(tmp, "src")
        shutil.copytree(os.path.join(ROOT, "src"), src,
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        code = _pytest(src, [node for *_, node in MUTANTS])
        if code != 0:
            print(f"FAIL the killing tests exit {code} on the unmutated source")
            return 1
        survivors = 0
        for module, old, new, node in MUTANTS:
            path = os.path.join(src, "nrqae", module)
            with open(path) as fh:
                source = fh.read()
            if source.count(old) != 1:
                print(f"FAIL {module}: {old!r} occurs {source.count(old)} times, not once")
                return 1
            with open(path, "w") as fh:
                fh.write(source.replace(old, new))
            try:
                code = _pytest(src, [node])
            finally:
                with open(path, "w") as fh:
                    fh.write(source)
            killed = code == 1
            survivors += not killed
            print(f"{'killed  ' if killed else 'SURVIVED'} {module}: {old} -> {new} "
                  f"({node.rsplit('::', 1)[1]}, exit {code})")
    print(f"{len(MUTANTS) - survivors}/{len(MUTANTS)} mutants killed "
          f"in {time.perf_counter() - start:.1f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
