"""Mutation check: each mutant below must fail the test that pins its constant.

Not collected by pytest (like bench_pool.py). Run from any directory:

    python tests/mutants.py

The table covers every numeric constant, every numeric comparison in a guard
and every clamp of estimator.py, circuits.py, baseline.py, perturbation.py,
model.py and channels.py. Each mutant replaces one source text, which must
occur exactly once in its module. MUTANTS pairs a mutant with the node id of
the test that kills it; EQUIVALENT lists the mutants that change no output
of any input, and CHANGES.md gives the argument for each. Formula
coefficients, and shape, mode and None checks, are outside the table.

This script copies src/ into a temporary directory and first runs every
killing test against the unmutated copy, which must pass. Then, per mutant,
it runs the mutant's killing test against a mutated copy, two mutants at a
time. A mutant is killed when that run fails a test (pytest exit code 1).
Exits 1 if the unmutated run fails, a source text is not found exactly once,
or a mutant survives, else 0. tests/mutation_survey.py runs all of tier-1
on every mutant of both tables instead.
"""

import os
import queue
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKERS = 2

_EST = "tests/test_estimator.py::"
_CIR = "tests/test_circuits.py::"
_BAS = "tests/test_baseline.py::"
_PER = "tests/test_perturbation.py::"
_MOD = "tests/test_model.py::"
_CHA = "tests/test_channels.py::"
_OBS = "test_observable_tolerances_admit_1e_10_and_no_more"
_T2V = "test_theta_to_value"
_PLANE = "test_rotation_plane_resolves_states_1e_8_from_degenerate"
_BOUNDS = "test_rotation_phases_on_the_degeneracy_bounds_are_kept"
_COUNT = "test_count_space_is_taken_exactly_for_noisy_walks_on_two_basis_states"
_DENSE3 = "test_count_space_matches_the_dense_layer[3]"

# (module of src/nrqae, source text, mutated text, node id of the killing test)
MUTANTS = (
    # estimator.py
    ("estimator.py", "_MERGE_TOL = 1e-12", "_MERGE_TOL = 1e-9", _EST + "test_merge_angles"),
    ("estimator.py", "_ROOT_CLIP_TOL = 1e-9", "_ROOT_CLIP_TOL = 1e-6",
     _EST + "test_roots_cos_fixed_points"),
    ("estimator.py", "np.linspace(0.2, 1.0, 17)", "np.linspace(0.2, 1.0, 9)",
     _EST + "test_seed_theta_scores_on_seventeen_envelopes"),
    ("estimator.py", "np.linspace(0.2, 1.0, 17)", "np.linspace(0.1, 1.0, 17)",
     _EST + "test_seed_theta_starts_its_envelopes_at_one_fifth"),
    ("estimator.py", "np.linspace(0.2, 1.0, 17)", "np.linspace(0.2, 1.2, 17)",
     _EST + "test_run_monotone_refinement"),
    ("estimator.py", "if abs(t2) <= eps_div:", "if abs(t2) < eps_div:",
     _EST + "test_ratio_y_worked_values"),
    ("estimator.py", "    if y == 1.0:\n        return [1.0]\n", "",
     _EST + "test_roots_cos_fixed_points"),
    ("estimator.py", "float(min(max(x, -1.0), 1.0)) for x", "float(x) for x",
     _EST + "test_roots_cos_fixed_points"),
    ("estimator.py", "if abs(x) <= 1.0 + _ROOT_CLIP_TOL)", "if abs(x) < 1.0 + _ROOT_CLIP_TOL)",
     _EST + "test_roots_cos_fixed_points"),
    ("estimator.py", "if n < 1:", "if n < 0:", _EST + "test_candidate_angles_literals"),
    ("estimator.py", "if abs(x) > 1.0 + _ROOT_CLIP_TOL:", "if abs(x) >= 1.0 + _ROOT_CLIP_TOL:",
     _EST + "test_candidate_angles_literals"),
    ("estimator.py", "np.arccos(min(max(x, -1.0), 1.0))", "np.arccos(x)",
     _EST + "test_candidate_angles_literals"),
    ("estimator.py", "v - out[-1] > _MERGE_TOL", "v - out[-1] >= _MERGE_TOL",
     _EST + "test_merge_angles"),
    ("estimator.py", "d < best_d - _MERGE_TOL", "d <= best_d - _MERGE_TOL",
     _EST + "test_select_candidate"),
    ("estimator.py", "np.maximum((cos * triplet) @ _POWERS, 0.0)", "(cos * triplet) @ _POWERS",
     _EST + "test_seed_theta_sees_through_decay"),
    ("estimator.py", "max(score) - 1e-12 *", "max(score) - 1e-6 *",
     _EST + "test_seed_theta_ties_only_within_1e_12_of_the_norm"),
    ("estimator.py", "if s >= cut]", "if s > cut]", _EST + "test_seed_theta_zero_triplet"),
    ("estimator.py", "abs(den) <= 0.1", "abs(den) <= 0.2",
     "tests/test_golden.py::test_readme_config_artifacts[estimate]"),
    ("estimator.py", "abs(den) <= 0.1", "abs(den) < 0.1",
     _EST + "test_fit_decay_needs_two_usable_depths"),
    ("estimator.py", "abs(den) <= 0.1 or t == 0.0:", "abs(den) <= 0.1:",
     _EST + "test_fit_decay_needs_two_usable_depths"),
    ("estimator.py", "if len(ns) < 2:", "if len(ns) < 1:",
     _EST + "test_fit_decay_needs_two_usable_depths"),
    ("estimator.py", "return float(min(np.exp(slope), 1.0))", "return float(np.exp(slope))",
     _EST + "test_fit_decay_recovers_envelope"),
    ("estimator.py", "for t in triplet) <= guard:", "for t in triplet) < guard:",
     _EST + "test_step_on_synthetic_triplets[quiet-at-the-guard]"),
    ("estimator.py", "ref is None and n == 1 and", "ref is None and n >= 1 and",
     _EST + "test_run_all_iterations_failed"),
    ("estimator.py", "len(best) > 1 and n > 1", "len(best) > 1",
     _EST + "test_step_on_synthetic_triplets[depth-1-tie-keeps-the-smaller]"),
    ("estimator.py", "if k < 0:", "if k < -1:", _EST + "test_run_worked_instance"),
    ("estimator.py", "boosts = (1, 4)", "boosts = (1, 2)", _EST + "test_run_retry_accounting"),
    ("estimator.py", "retried=boost > 1", "retried=boost >= 1",
     _CIR + "test_planned_run_matches_per_draw_run[sampled-False-0]"),
    # circuits.py
    ("circuits.py", "_CLAMP_TOL = 1e-6", "_CLAMP_TOL = 1e-3",
     _CIR + "test_unphysical_noise_matrix_is_rejected"),
    ("circuits.py", "if p < -_CLAMP_TOL", "if p <= -_CLAMP_TOL",
     _CIR + "test_unphysical_noise_matrix_is_rejected"),
    ("circuits.py", "p > 1.0 + _CLAMP_TOL", "p >= 1.0 + _CLAMP_TOL",
     _CIR + "test_unphysical_noise_matrix_is_rejected"),
    ("circuits.py", "return min(max(p, 0.0), 1.0)", "return p",
     _CIR + "test_unphysical_noise_matrix_is_rejected"),
    ("circuits.py", "EXACT_DIVISION_GUARD = 1e-9", "EXACT_DIVISION_GUARD = 1e-6",
     _CIR + "test_an_exact_t_far_above_float_noise_is_divided_by"),
    ("circuits.py", "if n < 0:", "if n < -1:",
     _CIR + "test_propagation_matches_dense_matrix_power[1]"),
    ("circuits.py", "while len(self.readouts) <= n:", "while len(self.readouts) < n:",
     _CIR + "test_exact_provider"),
    ("circuits.py", "        if shots < 1:", "        if shots < 0:",
     _CIR + "test_sampled_t_is_reproducible"),
    ("circuits.py", "delta: float = 0.5", "delta: float = 0.25", _CIR + "test_t_halfwidth_values"),
    ("circuits.py", "_MAX_COUNT_DIM = 1024", "_MAX_COUNT_DIM = 1023", _CIR + _COUNT),
    ("circuits.py", "_MAX_COUNT_DIM = 1024", "_MAX_COUNT_DIM = 1600", _CIR + _COUNT),
    ("circuits.py", "else None", "else letters", _CIR + _COUNT),
    ("circuits.py", "np.array_equal(observable, -p)", "False", _CIR + _COUNT),
    ("circuits.py", "== -observable[m, 0])", "== observable[m, 0])", _CIR + _COUNT),
    ("circuits.py", "if q < 2 or", "if q < 1 or", _CIR + _COUNT),
    ("circuits.py", "if q < 2 or", "if q <= 2 or", _CIR + _COUNT),
    ("circuits.py", 'noise.kind == "none"', "False", _CIR + _COUNT),
    ("circuits.py", "if len(support) == 1:", "if len(support) == 0:", _CIR + _COUNT),
    ("circuits.py", "2 ** q - 1 - min(support)", "2 ** q - 2 - min(support)", _CIR + _COUNT),
    ("circuits.py", "if len(support) > 2:", "if len(support) > 3:", _CIR + _COUNT),
    ("circuits.py", 'if problem.mode == "amplitude" else', "if True else", _CIR + _DENSE3),
    ("circuits.py", "if letters is None:", "if False:", _CIR + _COUNT),
    ('circuits.py', 'format(y, f"0{q}b"), letters)', 'format(y, f"0{q}b"), "I" * q)', _CIR + _DENSE3),
    ('circuits.py', 'format(y, f"0{q}b"), letters)', 'format(x, f"0{q}b"), letters)', _CIR + _DENSE3),
    ("circuits.py", "> _MAX_COUNT_DIM:", ">= _MAX_COUNT_DIM:", _CIR + _COUNT),
    ("circuits.py", "if len(maps) > 1:", "if len(maps) > 2:", _CIR + _DENSE3),
    ("circuits.py", "if seed < 0 or", "if seed < -1 or",
     _CIR + "test_providers_reject_a_negative_seed"),
    ("circuits.py", "0 <= t < 2 ** 32", "0 < t < 2 ** 32", _CIR + "test_perturbed_provider"),
    ("circuits.py", "0 <= t < 2 ** 32", "0 <= t <= 2 ** 32",
     _CIR + "test_providers_reject_a_trial_outside_32_bits[4294967296]"),
    ("circuits.py", "if not self.keys:", "if True:",
     _CIR + "test_provider_draws_take_every_key_from_the_table[7]"),
    ("circuits.py", "if cell not in self.keys:", "if True:",
     _CIR + "test_provider_draws_take_every_key_from_the_table[7]"),
    ("circuits.py", "\n    if shots < 1:", "\n    if shots < 0:",
     _CIR + "test_sampled_provider_rejects_a_shot_count_below_one[0]"),
    ("circuits.py", "3.0 * t_halfwidth(shots)", "2.0 * t_halfwidth(shots)",
     _CIR + "test_sampled_provider_cache_and_accounting"),
    ("circuits.py", "if not 0.0 <= eps < np.inf:", "if not 0.0 < eps < np.inf:",
     _CIR + "test_perturbed_provider"),
    ("circuits.py", "if not 0.0 <= eps < np.inf:", "if not 0.0 <= eps <= np.inf:",
     _CIR + "test_perturbed_provider"),
    ("circuits.py", "max(3.0 * eps, EXACT_DIVISION_GUARD)", "3.0 * eps",
     _CIR + "test_perturbed_provider"),
    ("circuits.py", "max(3.0 * eps, EXACT_DIVISION_GUARD)", "max(2.0 * eps, EXACT_DIVISION_GUARD)",
     _CIR + "test_perturbed_provider"),
    # baseline.py
    ("baseline.py", "_BRANCH_TOL = 1e-9", "_BRANCH_TOL = 1e-6",
     _BAS + "test_a_multiplier_fits_within_the_branch_tolerance"),
    ("baseline.py", "_MAX_MULTIPLIER = 2 ** 24", "_MAX_MULTIPLIER = 2 ** 20",
     _BAS + "test_the_multiplier_scan_is_capped_at_two_to_the_24"),
    ("baseline.py", "CONFIDENCE = 0.95", "CONFIDENCE = 0.9",
     _BAS + "test_every_run_is_bounded_by_its_budget"),
    ("baseline.py", "MAX_ROUNDS = 64", "MAX_ROUNDS = 32",
     _BAS + "test_every_run_is_bounded_by_its_budget"),
    ("baseline.py", "oracle_calls + cost > max_oracle_calls",
     "oracle_calls + cost >= max_oracle_calls",
     _BAS + "test_a_round_that_spends_the_last_of_the_budget_runs"),
    ("baseline.py", "_value_width(mode, x_lo, x_hi) <= 0.0",
     "_value_width(mode, x_lo, x_hi) < 0.0",
     _BAS + "test_a_touching_inverted_interval_collapses_the_run"),
    ("baseline.py", "contradiction = new_lo > new_hi", "contradiction = new_lo >= new_hi",
     _BAS + "test_a_touching_inverted_interval_collapses_the_run"),
    # perturbation.py
    ("perturbation.py", "OVERLAP_FLAG_THRESHOLD = 0.5", "OVERLAP_FLAG_THRESHOLD = 0.3",
     _PER + "test_a_step_matched_below_half_overlap_is_flagged"),
    ("perturbation.py", "flagged=st.overlap1 < OVERLAP", "flagged=st.overlap1 <= OVERLAP",
     _PER + "test_a_step_matched_below_half_overlap_is_flagged"),
    ("perturbation.py", "flagged=st.overlap < OVERLAP", "flagged=st.overlap <= OVERLAP",
     _PER + "test_a_step_matched_below_half_overlap_is_flagged"),
    ("perturbation.py", "flagged = st.overlap < OVERLAP", "flagged = st.overlap <= OVERLAP",
     _PER + "test_a_step_matched_below_half_overlap_is_flagged"),
    ("perturbation.py", "overlap=min(overlap1, overlap2)", "overlap=overlap1",
     _PER + "test_a_plane_is_flagged_by_its_weaker_match"),
    ("perturbation.py", "if not 0.0 <= s <= 1.0:", "if not 0.0 < s <= 1.0:",
     _PER + "test_interpolated_noise"),
    ("perturbation.py", "if not 0.0 <= s <= 1.0:", "if not 0.0 <= s < 1.0:",
     _PER + "test_interpolated_noise"),
    ("perturbation.py", "if n < 0:", "if n < -1:",
     _PER + "test_theorem1_zero_strength"),
    ("perturbation.py", "if n == 0 else None", "if n < 0 else None",
     _PER + "test_theorem1_series_pinned_at_any_depth"),
    ("perturbation.py", "while 1 << len(squares) <= top:", "while 1 << len(squares) < top:",
     _PER + "test_theorem1_zero_strength"),
    ("perturbation.py", "keep = (xs > 0) & (ys > 0)", "keep = (xs >= 0) & (ys > 0)",
     _PER + "test_fit_loglog_slope"),
    ("perturbation.py", "keep = (xs > 0) & (ys > 0)", "keep = (xs > 0) & (ys >= 0)",
     _PER + "test_fit_loglog_slope"),
    ("perturbation.py", "np.count_nonzero(keep) < 2", "np.count_nonzero(keep) < 1",
     _PER + "test_fit_loglog_slope"),
    # model.py
    ("model.py", "NORM_TOL = 1e-10", "NORM_TOL = 1e-7", _MOD + "test_as_state_validation"),
    ("model.py", "IMAG_TOL = 1e-8", "IMAG_TOL = 1e-2",
     _CIR + "test_a_non_real_probability_is_rejected"),
    ("model.py", "abs(value.imag) > IMAG_TOL", "abs(value.imag) >= IMAG_TOL",
     _MOD + "test_real_value_takes_an_imaginary_part_up_to_1e_8"),
    ("model.py", "obs.conj().T) <= 1e-10", "obs.conj().T) <= 1e-7", _MOD + _OBS),
    ("model.py", "obs.conj().T) <= 1e-10", "obs.conj().T) < 1e-10", _MOD + _OBS),
    ("model.py", "np.eye(dim)) > 1e-10", "np.eye(dim)) > 1e-7", _MOD + _OBS),
    ("model.py", "np.eye(dim)) > 1e-10", "np.eye(dim)) >= 1e-10", _MOD + _OBS),
    ("model.py", "abs(np.trace(obs)) > 1e-10", "abs(np.trace(obs)) > 1e-7", _MOD + _OBS),
    ("model.py", "abs(np.trace(obs)) > 1e-10", "abs(np.trace(obs)) >= 1e-10", _MOD + _OBS),
    ("model.py", "-1e-12 <= theta_ch", "-1e-9 <= theta_ch", _MOD + _T2V),
    ("model.py", "-1e-12 <= theta_ch", "-1e-12 < theta_ch", _MOD + _T2V),
    ("model.py", "theta_ch <= np.pi + 1e-12", "theta_ch <= np.pi + 1e-9", _MOD + _T2V),
    ("model.py", "theta_ch <= np.pi + 1e-12", "theta_ch < np.pi + 1e-12", _MOD + _T2V),
    ("model.py", "float(min(max(theta_ch, 0.0), np.pi))", "float(theta_ch)", _MOD + _T2V),
    ("model.py", "nrm < 1e-9", "nrm < 1e-6", _MOD + _PLANE),
    ("model.py", "nrm < 1e-9", "nrm <= 1e-9", _MOD + _PLANE),
    ("model.py", "theta_g < 1e-9 or", "theta_g < 1e-6 or", _MOD + _PLANE),
    ("model.py", "theta_g < 1e-9 or", "theta_g <= 1e-9 or", _MOD + _BOUNDS + "[low]"),
    ("model.py", "theta_g > np.pi - 1e-9", "theta_g > np.pi - 1e-6", _MOD + _PLANE),
    ("model.py", "theta_g > np.pi - 1e-9", "theta_g >= np.pi - 1e-9", _MOD + _BOUNDS + "[high]"),
    # channels.py
    ("channels.py", '"identity_weight": 0.7', '"identity_weight": 0.6',
     _CHA + "test_depolarizing_ptm_and_fidelity"),
    ("channels.py", '"pauli_weight": 0.1', '"pauli_weight": 0.2',
     _CHA + "test_depolarizing_ptm_and_fidelity"),
    ("channels.py", '"weight_i": 0.6', '"weight_i": 0.5',
     _CHA + "test_pauli_mixture_ptm_and_fidelity"),
    ("channels.py", '"weight_x": 0.1', '"weight_x": 0.2',
     _CHA + "test_pauli_mixture_ptm_and_fidelity"),
    ("channels.py", '"weight_y": 0.0', '"weight_y": 0.1',
     _CHA + "test_pauli_mixture_ptm_and_fidelity"),
    ("channels.py", '"weight_z": 0.3', '"weight_z": 0.2',
     _CHA + "test_pauli_mixture_ptm_and_fidelity"),
    ("channels.py", '"identity_weight": 0.9', '"identity_weight": 0.8',
     _CHA + "test_amplitude_damping_ptm_and_fidelity"),
    ("channels.py", '"damping_weight": 0.1', '"damping_weight": 0.2',
     _CHA + "test_amplitude_damping_ptm_and_fidelity"),
    ("channels.py", '"delta_t": 0.1228', '"delta_t": 0.2',
     _CHA + "test_coherent_ptm_and_fidelity"),
    ("channels.py", '"target_fidelity": 0.89', '"target_fidelity": 0.9',
     _CHA + "test_statistical_channel_hits_fidelity_target_deterministically"),
    ("channels.py", "_STAT_STREAM_TAG = 7001", "_STAT_STREAM_TAG = 7002",
     _CHA + "test_statistical_draw_is_pinned"),
    ("channels.py", "_STAT_MAX_ATTEMPTS = 500_000", "_STAT_MAX_ATTEMPTS = 50_000",
     _CHA + "test_statistical_draw_stops_after_500_000_candidates"),
    ("channels.py", "if not 0.5 < target_fidelity < 1.0:", "if not 0.5 <= target_fidelity < 1.0:",
     _CHA + "test_unphysical_weights_rejected"),
    ("channels.py", "if not 0.5 < target_fidelity < 1.0:", "if not 0.5 < target_fidelity <= 1.0:",
     _CHA + "test_unphysical_weights_rejected"),
    ("channels.py", "min(_STAT_BLOCK, left)", "_STAT_BLOCK",
     _CHA + "test_statistical_draw_budget_counts_attempts"),
    ("channels.py", "if abs(tr) < 0.5:", "if abs(tr) < 0.0:",
     _CHA + "test_statistical_draw_skips_a_trace_below_one_half"),
    ("channels.py", "if shift + contraction <= 1.0:", "if shift + contraction < 1.0:",
     _CHA + "test_statistical_draw_accepts_a_contraction_of_one"),
    ("channels.py", "if p[name] < 0}", "if p[name] <= 0}",
     _CHA + "test_pauli_mixture_ptm_and_fidelity"),
    ("channels.py", "np.array([1.0, 0.0, 0.0, 0.0]))) > 1e-12",
     "np.array([1.0, 0.0, 0.0, 0.0]))) > 1e-9", _CHA + "test_unphysical_weights_rejected"),
    ("channels.py", "if qubits < 1:", "if qubits < 0:",
     _CHA + "test_noise_superop_none_is_identity"),
)

# (module, source text, mutated text): mutants that change no output of any
# input; CHANGES.md gives the argument for each.
EQUIVALENT = (
    ("estimator.py", "if disc < 0.0:", "if disc <= 0.0:"),
    ("estimator.py", "len(best) > 1 and", "len(best) > 0 and"),
    ("circuits.py", "identity = np.array_equal(pair, np.arange(pair.size))", "identity = False"),
    ("model.py", "abs(nrm - 1.0) > NORM_TOL", "abs(nrm - 1.0) >= NORM_TOL"),
    ("channels.py", "_STAT_BLOCK = 1024", "_STAT_BLOCK = 1000"),
    ("channels.py", "_STAT_SLACK = 1e-9", "_STAT_SLACK = 1e-3"),
    ("channels.py", "np.abs(traces) >= 0.5 - _STAT_SLACK", "np.abs(traces) > 0.5 - _STAT_SLACK"),
    ("channels.py", "np.abs(traces) >= 0.5 - _STAT_SLACK", "np.abs(traces) >= 0.25 - _STAT_SLACK"),
    ("channels.py", "shifts + colmax <= 1.0 + _STAT_SLACK", "shifts + colmax < 1.0 + _STAT_SLACK"),
    ("channels.py", "np.array([1.0, 0.0, 0.0, 0.0]))) > 1e-12",
     "np.array([1.0, 0.0, 0.0, 0.0]))) >= 1e-12"),
)


def run_pytest(src: str, args) -> tuple:
    """pytest's exit code and output for args, run from the repo root with nrqae from src."""
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
           "-o", f"pythonpath={src}", *args]
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    return done.returncode, done.stdout


def describe(mutant) -> str:
    """module: old -> new, each text on one line."""
    module, old, new, *_ = mutant
    return f"{module}: {' '.join(old.split())} -> {' '.join(new.split())}"


def check_sources(mutants) -> list:
    """The mutants whose source text does not occur exactly once in its module."""
    bad = []
    for module, old, *_ in mutants:
        with open(os.path.join(ROOT, "src", "nrqae", module)) as fh:
            if fh.read().count(old) != 1:
                bad.append((module, old))
    return bad


def run_mutants(mutants, args_of):
    """Yield (mutant, exit code, output) per mutant, run with pytest args_of(mutant).

    Each of WORKERS threads owns a copy of src/ in a temporary directory and
    runs one mutant at a time on it, restoring the module afterwards; the
    first yield is the unmutated run of args_of(None).
    """
    with tempfile.TemporaryDirectory() as tmp:
        copies = queue.Queue()
        for w in range(WORKERS):
            src = os.path.join(tmp, str(w), "src")
            shutil.copytree(os.path.join(ROOT, "src"), src,
                            ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
            copies.put(src)

        def one(mutant):
            src = copies.get()
            try:
                if mutant is None:
                    return run_pytest(src, args_of(None))
                module, old, new, *_ = mutant
                path = os.path.join(src, "nrqae", module)
                with open(path) as fh:
                    source = fh.read()
                with open(path, "w") as fh:
                    fh.write(source.replace(old, new))
                try:
                    return run_pytest(src, args_of(mutant))
                finally:
                    with open(path, "w") as fh:
                        fh.write(source)
            finally:
                copies.put(src)

        yield (None, *one(None))
        with ThreadPoolExecutor(WORKERS) as pool:
            for mutant, (code, out) in zip(mutants, pool.map(one, mutants)):
                yield mutant, code, out


def main() -> int:
    start = time.perf_counter()
    bad = check_sources(MUTANTS + EQUIVALENT)
    for module, old in bad:
        print(f"FAIL {module}: {old!r} does not occur exactly once")
    if bad:
        return 1
    nodes = sorted({node for *_, node in MUTANTS})
    # no killing test draws through hypothesis; its plugin would double pytest's start-up
    quick = ["-p", "no:hypothesispytest"]
    survivors = 0
    for mutant, code, _ in run_mutants(MUTANTS, lambda m: quick + ([m[3]] if m else nodes)):
        if mutant is None:
            if code != 0:
                print(f"FAIL the killing tests exit {code} on the unmutated source")
                return 1
            continue
        node = mutant[3]
        killed = code == 1
        survivors += not killed
        print(f"{'killed  ' if killed else 'SURVIVED'} {describe(mutant)} "
              f"({node.rsplit('::', 1)[1]}, exit {code})")
    print(f"{len(MUTANTS) - survivors}/{len(MUTANTS)} mutants killed "
          f"in {time.perf_counter() - start:.1f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
