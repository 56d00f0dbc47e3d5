"""Full mutation survey: every mutant of tests/mutants.py against all of tier-1.

Not collected by pytest. Run from any directory:

    python tests/mutation_survey.py

It first runs tier-1 on an unmutated copy of src/, then, per mutant of
MUTANTS and EQUIVALENT, runs tier-1 with -x on a mutated copy, two mutants
at a time, and prints whether the mutant was killed and by which test. A
killed mutant costs tier-1 up to its first failure, a surviving one the whole
of it: 10-12 minutes in all on 2 cores. Exits 1 if a mutant of MUTANTS
survives or one of EQUIVALENT is killed, else 0.
"""

import re
import sys
import time

from mutants import EQUIVALENT, MUTANTS, check_sources, describe, run_mutants

TIER1 = ["-x", "--continue-on-collection-errors"]


def main() -> int:
    start = time.perf_counter()
    bad = check_sources(MUTANTS + EQUIVALENT)
    for module, old in bad:
        print(f"FAIL {module}: {old!r} does not occur exactly once")
    if bad:
        return 1
    equivalent = set(EQUIVALENT)
    wrong = 0
    for mutant, code, out in run_mutants(MUTANTS + EQUIVALENT, lambda m: TIER1):
        if mutant is None:
            if code != 0:
                print(f"FAIL tier-1 exits {code} on the unmutated source")
                return 1
            continue
        killed = code == 1
        first = re.search(r"^FAILED (\S+)", out, re.M)
        wrong += killed == (mutant in equivalent)
        print(f"{'killed  ' if killed else 'SURVIVED'} {describe(mutant)} "
              f"({first.group(1) if first else f'exit {code}'})", flush=True)
    print(f"{wrong} of {len(MUTANTS) + len(EQUIVALENT)} mutants not as tabled "
          f"in {time.perf_counter() - start:.0f} s")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
