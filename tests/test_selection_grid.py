"""The branch-selection rule on the pre-registered grid, against its record at 8fd6ab5.

tests/data/selection_grid_8fd6ab5.json holds, per run of selection_grid's
1,440, the final theta_ch and the depth of the first success as the
estimator gave them at 8fd6ab5, where the first branch came from a
2048 x 17 grid fit. The runs whose first success is at depth 1 must keep
their theta_ch exactly; no run that was correct may turn wrong; and the
per-shot counts are those recorded in CHANGES.md.
"""

import json
import os
from collections import Counter

from selection_grid import SHOTS, TOLERANCE, first_depth, grid_runs

from nrqae.model import theta_to_value

RECORD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                      "selection_grid_8fd6ab5.json")

# per shot count: exit-0 runs within TOLERANCE, and exit-2 runs
PARENT_CORRECT = {2000: 264, 5000: 361, 10000: 408}
CORRECT = {2000: 389, 5000: 479, 10000: 479}
FAILED = {2000: 4, 5000: 1, 10000: 1}


def _correct(theta_ch, amplitude) -> bool:
    pair = theta_to_value(theta_ch, "amplitude")
    return min(abs(pair.value - amplitude), abs(pair.mirror - amplitude)) <= TOLERANCE


def test_selection_on_the_preregistered_grid():
    with open(RECORD) as fh:
        record = json.load(fh)
    assert len(record) == 1440
    parent_correct, correct, failed = Counter(), Counter(), Counter()
    for (key, res), (parent_key, parent_theta, parent_first) in zip(grid_runs(), record):
        q, noise, a, shots, trial = key
        assert list(key) == parent_key
        if res is None:
            assert parent_theta is None, key
            failed[shots] += 1
            continue
        # which iterations succeed does not depend on the selection rule
        assert first_depth(res) == parent_first, key
        if parent_first == 1:
            assert res.theta_ch == parent_theta, key
        if _correct(parent_theta, a):
            parent_correct[shots] += 1
            assert _correct(res.theta_ch, a), key
        correct[shots] += _correct(res.theta_ch, a)
    assert dict(parent_correct) == PARENT_CORRECT
    assert {s: correct[s] for s in SHOTS} == CORRECT
    assert {s: failed[s] for s in SHOTS} == FAILED
