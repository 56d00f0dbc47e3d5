"""The count-space circuits of CircuitSimulator against the dense layer.

It checks both trajectories, the circuits and exact_t's rho_tilde, on
problems whose states lie on two basis states: the amplitude corners, an
explicit amplitude pair elsewhere and observable strings, which together
use every letter, one of them with a minus sign. tests/test_circuits.py
runs gaps(q) at q = 2-6. Run as a script it checks the qubit counts given
(CI runs 7 and 8, about 45 s on 2 cores, nearly all of it the dense
reference) and exits 1 if a gap reaches TOLERANCE:

    PYTHONPATH=src python tests/count_space.py 7 8
"""

import sys

import numpy as np

from nrqae import circuits
from nrqae.channels import NoiseSpec, pauli_string
from nrqae.config import ExperimentConfig, build_problem
from nrqae.model import amplitude_problem, observable_problem

NOISES = (NoiseSpec(), NoiseSpec(kind="depolarizing"), NoiseSpec(kind="pauli"),
          NoiseSpec(kind="amplitude-damping"), NoiseSpec(kind="coherent"),
          NoiseSpec(kind="statistical", seed=3))
DEPTH = 96
TOLERANCE = 1e-12


def pair_state(qubits: int, angle: float, phase: float, x: int = 0, y: int = -1) -> np.ndarray:
    """cos(angle) |x> + e^(i phase) sin(angle) |y>; by default on the corners |0^q> and |1^q>."""
    v = np.zeros(2 ** qubits, dtype=complex)
    v[x], v[y] = np.cos(angle), np.exp(1j * phase) * np.sin(angle)
    return v


def problems(qubits: int):
    """Problems with both states on two basis states, each under the count-space size cap.

    The corners as a config-built problem and with complex explicit states;
    explicit states on |0..01> and |1..10>; and the observable strings
    Y X..X, X..X I and Z..Z, which config-built states put on |0^q> and one
    other basis state; and -X..X with a complex explicit psi on the
    corners. At q <= 6 also the benchmark's ZXIZX, cut or padded with Z to
    q letters, whose three or more classes exceed the cap at q = 7.
    """
    yield "amplitude-0.3", build_problem(ExperimentConfig(qubits=qubits, amplitude=0.3))
    yield "explicit", amplitude_problem(pair_state(qubits, 0.3, 0.4),
                                        pair_state(qubits, 1.1, -0.9))
    pair = (1, 2 ** qubits - 2)
    yield "explicit-pair", amplitude_problem(pair_state(qubits, 0.3, 0.4, *pair),
                                             pair_state(qubits, 1.1, -0.9, *pair))
    strings = ["Y" + "X" * (qubits - 1), "X" * (qubits - 1) + "I", "Z" * qubits]
    if qubits <= 6:
        strings.append(("ZXIZX" + "Z" * qubits)[:qubits])
    for label in strings:
        yield label, build_problem(ExperimentConfig(mode="observable", qubits=qubits,
                                                    observable=label, expectation=0.4))
    yield "-" + "X" * qubits, observable_problem(pair_state(qubits, 0.3, 0.4),
                                                 -pauli_string("X" * qubits))


def gaps(qubits: int, depth: int = DEPTH) -> dict:
    """Largest gap to the dense layer per (problem, noise kind), over depths 0..depth.

    Each noise kind runs the stack and the layer of circuits._count_space
    in count space and the same two preparations as a dense _Trajectory,
    and compares their four read-outs, which sampled_t draws from, and
    prob(n). Where the simulator takes count space (every kind but none),
    its read-outs must be those of the count-space trajectory bit for bit,
    and exact_t(n) that of rho_tilde's, built here from the stack's rows
    (row 1 minus row 0). On every kind exact_t(n) must be within the gap of
    the signed sum (+, -, -, +) of the four dense read-outs, which is t_n
    by linearity.
    """
    out = {}
    for name, problem in problems(qubits):
        states = [np.asarray(v, dtype=complex) for v in (problem.psi, problem.second_state())]
        layout = circuits._count_classes(problem, NOISES[1])
        assert layout is not None, name
        for noise in NOISES:
            sim = circuits.CircuitSimulator(problem, noise)
            rho0, layer = circuits._count_space(problem, noise, layout)
            terms = [(prep, m) for prep, m, _ in circuits._TERMS]
            count = circuits._Trajectory(rho0, [(prep, rho0[m]) for prep, m in terms], layer)
            tilde = (rho0[1] - rho0[0])[None]
            tilde_count = circuits._Trajectory(tilde, [(0, tilde[0])], layer)
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
