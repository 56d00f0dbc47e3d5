"""The count-space circuits of CircuitSimulator against the dense layer.

It checks both trajectories, the circuits and exact_t's rho_tilde, where
the simulator takes count space. tests/test_circuits.py runs gaps(q) at
q = 2-6. Run as a script it checks the qubit counts given (CI runs 7 and 8,
about 18 s on 2 cores, nearly all of it the dense reference) and exits 1
if a gap reaches TOLERANCE:

    PYTHONPATH=src python tests/count_space.py 7 8
"""

import sys

import numpy as np

from nrqae import circuits
from nrqae.channels import NoiseSpec
from nrqae.config import ExperimentConfig, build_problem
from nrqae.model import amplitude_problem

NOISES = (NoiseSpec(), NoiseSpec(kind="depolarizing"), NoiseSpec(kind="pauli"),
          NoiseSpec(kind="amplitude-damping"), NoiseSpec(kind="coherent"),
          NoiseSpec(kind="statistical", seed=3))
DEPTH = 96
TOLERANCE = 1e-12


def corner_state(qubits: int, angle: float, phase: float) -> np.ndarray:
    """cos(angle) |0^q> + e^(i phase) sin(angle) |1^q>."""
    v = np.zeros(2 ** qubits, dtype=complex)
    v[0], v[-1] = np.cos(angle), np.exp(1j * phase) * np.sin(angle)
    return v


def problems(qubits: int):
    """A config-built problem and one with complex explicit states, both on the two corners."""
    yield "amplitude-0.3", build_problem(ExperimentConfig(qubits=qubits, amplitude=0.3))
    yield "explicit", amplitude_problem(corner_state(qubits, 0.3, 0.4),
                                        corner_state(qubits, 1.1, -0.9))


def gaps(qubits: int, depth: int = DEPTH) -> dict:
    """Largest gap to the dense layer per (problem, noise kind), over depths 0..depth.

    Each noise kind runs the stack of circuits._count_space in count space
    and the same two preparations as a dense _Trajectory, and compares
    their four read-outs, which sampled_t draws from, and prob(n). Where
    the simulator takes count space (every kind but none), its read-outs
    must be those of the count-space trajectory, and exact_t(n) that of
    rho_tilde's, built here from the stack's rows (row 1 minus row 0), bit
    for bit. exact_t(n) is compared with the signed sum (+, -, -, +) of the
    four dense read-outs, which is t_n by linearity.
    """
    out = {}
    for name, problem in problems(qubits):
        states = [np.asarray(v, dtype=complex) for v in (problem.psi, problem.second_state())]
        for noise in NOISES:
            sim = circuits.CircuitSimulator(problem, noise)
            rho0, layer = circuits._count_space(states, noise)
            terms = [(prep, m) for prep, m, _ in circuits._TERMS]
            count = circuits._Trajectory(rho0, [(prep, rho0[m]) for prep, m in terms],
                                         lambda rho: rho @ layer.T)
            tilde = (rho0[1] - rho0[0])[None]
            tilde_count = circuits._Trajectory(tilde, [(0, tilde[0])], count._layer)
            stack = np.stack([np.outer(v, v.conj()) for v in states])
            dense = circuits._Trajectory(stack, [(prep, stack[m].ravel()) for prep, m in terms],
                                         circuits._dense_layer(problem, noise))
            gap = 0.0
            for n in range(depth + 1):
                got, want = count.at(n), dense.at(n)
                if noise.kind != "none":
                    assert sim._circuits.at(n) == got, (name, noise.kind, n)
                    assert sim.exact_t(n) == tilde_count.at(n)[0].real, (name, noise.kind, n)
                signed = sum(sign * w for (*_, sign), w in zip(circuits._TERMS, want))
                gap = max(gap, *(abs(a - b) for a, b in zip(got, want)),
                          abs(sim.prob(n) - circuits._clamped_real(want[1], n)),
                          abs(sim.exact_t(n) - signed))
            out[name, noise.kind] = gap
    return out


def main(argv) -> int:
    worst = 0.0
    for qubits in map(int, argv):
        for (name, kind), gap in gaps(qubits).items():
            print(f"q={qubits} {name} {kind}: {gap:.2e}")
            worst = max(worst, gap)
    print(f"largest gap {worst:.2e} (tolerance {TOLERANCE:.0e})")
    return 1 if worst >= TOLERANCE else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
