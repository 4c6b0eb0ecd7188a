#!/usr/bin/env python3
"""Exact packing/covering numbers for the two-linkage wall obstructions.

For a chosen height h, builds the obstruction instance for every ordered
pair of distinct linkage types and prints nu, nu_half, and tau, computed
by the outer-face chord solver: nu and tau are exact for these wall-based
instances, since the chord router decides every routing exactly; nu_half is
a witnessed lower bound.

Usage: obstruction_report.py [h]   (h a positive integer, 2 by default; any
other h prints a usage line on stderr and exits 2)
"""

import itertools
import sys

from nonzero_cycles import groups
from nonzero_cycles.linkage import LINKAGE_TYPES
from nonzero_cycles.obstructions import (
    ObstructionSpec,
    build_obstruction_instance,
    escher_instance,
    verify_instance,
)


USAGE = "usage: obstruction_report.py [h], with h a positive integer"


def main() -> int:
    try:
        h = groups.as_integer(sys.argv[1]) if len(sys.argv) > 1 else 2
    except ValueError:
        h = 0
    if h < 1:
        print(USAGE, file=sys.stderr)
        return 2
    z3 = groups.cyclic(3)
    one = groups.element(z3, 1)
    print(f"height h = {h}")
    print(f"{'P-type':<10}{'Q-type':<10}{'nu':>4}{'nu_half':>9}{'tau':>5}")
    for tp, tq in itertools.permutations(LINKAGE_TYPES, 2):
        spec = ObstructionSpec(
            h=h, p_type=tp, q_type=tq, gamma1=z3, gamma2=z3,
            p_values=(one,) * h, q_values=(one,) * h,
        )
        out = verify_instance(build_obstruction_instance(spec), h)
        print(f"{tp:<10}{tq:<10}{out['nu']:>4}{out['nu_half']:>9}{out['tau']:>5}")
    out = verify_instance(escher_instance(h), h)
    print(f"{'escher':<20}{out['nu']:>4}{out['nu_half']:>9}{out['tau']:>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
