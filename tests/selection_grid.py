"""The pre-registered branch-selection grid (ROADMAP item 1) and its record.

1,440 sampled runs: q in {1, 3}, noise none and gentle pauli, six
amplitudes, three shot counts, trials 0-19, seed 11, k = 5, no retry. Each
run is reduced to its final theta_ch and the depth of its first successful
iteration, or None for both when every iteration fails (exit 2).

Run as a script it writes that reduction for the package on PYTHONPATH to
the record file given as its argument:

    PYTHONPATH=src python tests/selection_grid.py tests/data/selection_grid_8fd6ab5.json
"""

import json
import sys

from nrqae.channels import NoiseSpec
from nrqae.circuits import CircuitSimulator, sampled_provider
from nrqae.config import ExperimentConfig, build_problem
from nrqae.errors import EstimationFailure
from nrqae.estimator import run

QUBITS = (1, 3)
NOISES = {
    "none": NoiseSpec(),
    # the first of the wide-q5 bench noises
    "gentle-pauli": NoiseSpec(kind="pauli", params={
        "weight_i": 0.99, "weight_x": 0.003, "weight_y": 0.002, "weight_z": 0.005}),
}
AMPLITUDES = (0.1, 0.3, 0.5, 0.6, 0.75, 0.9)
SHOTS = (2000, 5000, 10000)
TRIALS = 20
SEED = 11
K = 5
# a run is correct when one of its two readings is this close to the truth
TOLERANCE = 0.05


def grid_runs():
    """Every run in grid order: ((q, noise, amplitude, shots, trial), result or None)."""
    for q in QUBITS:
        for noise_name, noise in NOISES.items():
            for a in AMPLITUDES:
                sim = CircuitSimulator(build_problem(ExperimentConfig(qubits=q, amplitude=a)),
                                       noise)
                for shots in SHOTS:
                    for trial in range(TRIALS):
                        try:
                            res = run(sampled_provider(sim, shots, SEED, trial), k=K)
                        except EstimationFailure:
                            res = None
                        yield (q, noise_name, a, shots, trial), res


def first_depth(res) -> int:
    return next(rec.n for rec in res.iterations if rec.ok)


def record():
    """[key, theta_ch, first successful depth] per run; None for a failed run."""
    return [[list(key), res and res.theta_ch, res and first_depth(res)]
            for key, res in grid_runs()]


if __name__ == "__main__":
    with open(sys.argv[1], "w") as fh:
        json.dump(record(), fh, separators=(",", ":"))
        fh.write("\n")
