"""End-to-end acceptance checks.

Ten checks covering the full pipeline, each printing a single PASS/FAIL
line with the measured numbers (run with -s to see them) and asserting at
its stated tolerance. Timed checks measure only the work under test.
"""

import time

import numpy as np

from nrqae.channels import NoiseSpec, avg_gate_fidelity, noise_superop
from nrqae.circuits import CircuitSimulator, exact_provider
from nrqae.config import DEFAULT_S_GRID, ExperimentConfig
from nrqae.estimator import ratio_y, roots_cos, run
from nrqae.experiments import hoeffding_shots, run_compare_noise, run_sweep_depth
from nrqae.linalg import eig_dense
from nrqae.model import (amplitude_problem, conjugation_superop, grover,
                         observable_problem, rho_tilde, vectorize)
from nrqae.perturbation import (fit_loglog_slope, lemma1_check, lemma2_check,
                                perturbed_steps, subspace_basis, theorem1_check)

PSI4 = np.array([0.05528649439827491 + 0.5263037941421089j,
                 -0.152871789477933 + 0.3345981937745342j,
                 -0.12079569834306281 - 0.09516617834010697j,
                 -0.7139791496631485 + 0.22629086619137373j])
PHI4 = np.array([0.1818874506617437 - 0.21268375651884527j,
                 -0.35821337756462623 - 0.5123616183762825j,
                 0.6322919811796548 + 0.2942675105305514j,
                 -0.20086840445561324 - 0.06416143722594386j])


def _report(ok: bool, label: str, detail: str):
    print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")
    assert ok, f"{label}: {detail}"


def _plane(delta: float):
    return amplitude_problem(np.array([1.0, 0.0]),
                             np.array([np.cos(delta), np.sin(delta)]))


def _random_state(rng, dim: int):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def test_01_ratio_root_round_trip():
    rng = np.random.default_rng(11)
    start = time.perf_counter()
    worst = 0.0
    draws = 0
    while draws < 1000:
        theta = rng.uniform(0.05, np.pi - 0.05)
        n = int(rng.integers(1, 65))
        x = np.cos(2 * n * theta)
        if abs(x) < 1e-4:
            continue
        y = ratio_y(np.cos(n * theta), x, np.cos(3 * n * theta), 1e-9)
        roots = roots_cos(y)
        dev = min(abs(r - x) for r in roots) if roots else np.inf
        worst = max(worst, dev)
        draws += 1
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 1.0
    _report(ok, "[01/10] ratio/root round trip",
            f"1000 draws, worst dev {worst:.3g}, {elapsed:.2f}s")


def test_02_walk_trace_relations():
    rng = np.random.default_rng(12)
    start = time.perf_counter()
    worst = 0.0
    for i in range(1000):
        qubits = int(rng.integers(1, 4))
        dim = 2 ** qubits
        if i % 2 == 0:
            problem = amplitude_problem(_random_state(rng, dim),
                                        _random_state(rng, dim))
            ov2 = abs(np.vdot(problem.phi, problem.psi)) ** 2
            want = 4.0 * ov2 - 4.0 + dim
        else:
            q, _ = np.linalg.qr(rng.standard_normal((dim, dim))
                                + 1j * rng.standard_normal((dim, dim)))
            signs = np.concatenate([np.ones(dim // 2), -np.ones(dim // 2)])
            obs = q @ np.diag(signs) @ q.conj().T
            obs = 0.5 * (obs + obs.conj().T)
            problem = observable_problem(_random_state(rng, dim), obs)
            want = 2.0 * np.vdot(problem.psi, obs @ problem.psi).real
        got = np.trace(grover(problem))
        worst = max(worst, abs(got - want))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 5.0
    _report(ok, "[02/10] walk trace identities",
            f"1000 instances, worst dev {worst:.3g}, {elapsed:.2f}s")


def test_03_worked_instance():
    start = time.perf_counter()
    res = run(exact_provider(CircuitSimulator(_plane(np.pi / 6), NoiseSpec(kind="none"))), k=2)
    elapsed = time.perf_counter() - start
    t1, t2, t3 = res.iterations[0].triplet
    dev = max(abs(t1 + 0.25), abs(t2 + 0.25), abs(t3 - 0.5),
              abs(res.iterations[0].y + 2.0),
              abs(res.theta_ch - 2 * np.pi / 3), abs(res.value - 0.75))
    ok = dev < 1e-9 and elapsed < 0.1
    _report(ok, "[03/10] worked example",
            f"triplet ({t1:.3g}, {t2:.3g}, {t3:.3g}), theta_ch "
            f"{res.theta_ch:.6f}, value {res.value:.6f}, dev {dev:.3g}, "
            f"{elapsed:.3f}s")


def test_04_ratio_envelope_invariance():
    rng = np.random.default_rng(14)
    worst = 0.0
    draws = 0
    while draws < 100:
        theta = rng.uniform(0.05, np.pi - 0.05)
        n = int(rng.integers(1, 5))
        if abs(np.cos(2 * n * theta)) < 1e-3:
            continue
        c = rng.uniform(0.05, 3.0)
        p = rng.uniform(0.5, 1.0)
        plain = ratio_y(np.cos(n * theta), np.cos(2 * n * theta),
                        np.cos(3 * n * theta), 1e-12)
        scaled = ratio_y(c * p ** n * np.cos(n * theta),
                         c * p ** (2 * n) * np.cos(2 * n * theta),
                         c * p ** (3 * n) * np.cos(3 * n * theta), 1e-12)
        worst = max(worst, abs(scaled - plain) / max(1.0, abs(plain)))
        draws += 1
    ok = worst <= 1e-12
    _report(ok, "[04/10] ratio ignores decay envelope",
            f"100 draws, worst relative dev {worst:.3g}")


def test_05_perturbed_error_slope():
    cfg = ExperimentConfig(theta_g=np.pi / 3, perturbation=0.01, trials=100,
                           iterations=7, seed=123)
    start = time.perf_counter()
    report = run_sweep_depth(cfg)
    elapsed = time.perf_counter() - start
    ok = (report.slope is not None and -1.3 <= report.slope <= -0.7
          and elapsed < 30.0)
    _report(ok, "[05/10] phase error falls like 1/depth",
            f"slope {report.slope:.4f} over depths 1..128, 100 trials, "
            f"{elapsed:.1f}s")


def test_06_noisy_phase_tracking():
    problem = _plane(np.pi / 5)
    noise = NoiseSpec(kind="depolarizing")
    res = run(exact_provider(CircuitSimulator(problem, noise)), k=6)
    step = noise_superop(noise, 1) @ conjugation_superop(grover(problem))
    spec = eig_dense(step)
    ref = vectorize(rho_tilde(problem))
    ref = ref / np.linalg.norm(ref)
    best = None
    for lam, vec in zip(spec.eigenvalues, spec.eigenvectors.T):
        phase = abs(np.angle(lam))
        if phase < 1e-9 or abs(np.vdot(vec, ref)) <= 0.3:
            continue
        if best is None or phase < best:
            best = phase
    err = abs(res.theta - best / 2.0)
    ok = err < 1e-3
    _report(ok, "[06/10] estimator tracks the noisy phase",
            f"|theta_est - theta_pert| = {err:.3g}")


def test_07_first_order_structure():
    problem = amplitude_problem(PSI4, PHI4)
    start = time.perf_counter()
    lines = []
    ok = True
    for kind in ("depolarizing", "pauli"):
        steps = perturbed_steps(problem, NoiseSpec(kind=kind), DEFAULT_S_GRID)
        l1 = lemma1_check(steps)
        s1 = fit_loglog_slope([r.s for r in l1], [r.residual for r in l1])
        l2 = lemma2_check(steps)
        s2a = fit_loglog_slope([r.s for r in l2], [r.c1_error for r in l2])
        s2b = fit_loglog_slope([r.s for r in l2], [r.span_residual for r in l2])
        t1 = theorem1_check(steps)
        max_err = {s: max(r.error for r in t1 if r.s == s) for s in DEFAULT_S_GRID}
        s3 = fit_loglog_slope(list(max_err), list(max_err.values()))
        ratio = max(max_err[s] / next(r.error for r in t1
                                      if r.s == s and r.n == 1)
                    for s in DEFAULT_S_GRID)
        flagged = sum(r.flagged for r in l1 + l2 + t1)
        ok = ok and 1.7 <= s1 <= 2.3 and 0.7 <= s2a <= 1.3 \
            and 0.7 <= s2b <= 1.3 and 0.7 <= s3 <= 1.3 and ratio <= 3.0 \
            and flagged == 0
        lines.append(f"{kind} slopes {s1:.2f}/{s2a:.2f}/{s2b:.2f}/{s3:.2f} "
                     f"ratio {ratio:.2f}")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    _report(ok, "[07/10] first-order eigenstructure",
            "; ".join(lines) + f", {elapsed:.1f}s")


def test_08_pauli_fidelity():
    f = avg_gate_fidelity(noise_superop(NoiseSpec(kind="pauli"), 1), np.eye(4))
    ok = abs(f - 0.733333333333333) < 1e-3
    _report(ok, "[08/10] default pauli channel fidelity", f"F_avg = {f:.12f}")


def test_09_beats_baseline_under_noise():
    cfg = ExperimentConfig(amplitude=0.9, noise=NoiseSpec(kind="pauli"),
                           shots=100_000, trials=10, iterations=6, seed=7)
    start = time.perf_counter()
    report = run_compare_noise(cfg)
    elapsed = time.perf_counter() - start
    wins = 0
    for trial in range(cfg.trials):
        rows = [r for r in report.rows if r[1] == trial]
        final = rows[-1]
        good_final = final[5] is not None and final[5] < 0.05
        beats = all(r[5] is not None and r[7] is not None and r[5] < r[7]
                    for r in rows if r[2] >= 8)
        wins += int(good_final and beats)
    ok = wins >= 8 and elapsed < 120.0
    _report(ok, "[09/10] beats the iterative baseline under pauli noise",
            f"{wins}/10 trials win at matched budgets, {elapsed:.1f}s")


def test_10_shot_planner_coverage():
    shots = hoeffding_shots(0.01, 0.05)
    start = time.perf_counter()
    rng = np.random.default_rng(10)
    hits = np.abs(rng.binomial(shots, 0.3, size=1000) / shots - 0.3) <= 0.01
    coverage = float(np.mean(hits))
    elapsed = time.perf_counter() - start
    ok = shots == 18445 and coverage >= 0.95 and elapsed < 5.0
    _report(ok, "[10/10] shot planner",
            f"shots {shots}, coverage {coverage:.3f} over 1000 runs, "
            f"{elapsed:.2f}s")
