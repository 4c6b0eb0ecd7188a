#!/usr/bin/env python3
"""Print structural invariants of elementary walls for a range of sizes.

Usage: wall_census.py [r_min] [r_max]   (integers, r_min at least 2; 2 and
10 by default; anything else prints a usage line on stderr and exits 2)
"""

import sys

from nonzero_cycles.groups import as_integer
from nonzero_cycles.walls import elementary_wall, validate_wall


USAGE = "usage: wall_census.py [r_min] [r_max], with integers r_min >= 2 and r_max"


def main() -> int:
    try:
        lo = as_integer(sys.argv[1]) if len(sys.argv) > 1 else 2
        hi = as_integer(sys.argv[2]) if len(sys.argv) > 2 else 10
    except ValueError:
        lo = 0
    if lo < 2 or len(sys.argv) > 3:
        print(USAGE, file=sys.stderr)
        return 2
    print(f"{'r':>3}{'vertices':>10}{'edges':>8}{'bricks':>8}{'nails':>7}")
    for r in range(lo, hi + 1):
        w = elementary_wall(r)
        validate_wall(w)
        print(
            f"{r:>3}{len(w.graph.vertices):>10}"
            f"{len(w.graph.edge_ids()):>8}{len(w.bricks):>8}{len(w.nails):>7}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
