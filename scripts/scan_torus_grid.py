#!/usr/bin/env python3
"""Scan the rational grid on the rank-1 fundamental domain: cell labels,
torus point orders, stabilizer lift checks, and induced-module norms.

Usage: python scripts/scan_torus_grid.py [max_denominator]
"""

import itertools
import sys

from weylkit import alcove, reps
from weylkit.cartan import cartan_datum


def main():
    denom = int(sys.argv[1]) if len(sys.argv) > 1 else 6
    datum = cartan_datum("A1")
    print("point\tcell\torder\tlift_ok\tmodules\tnorms")
    modules = reps.grid_modules(datum, (), denom)
    for d, group in itertools.groupby(modules, key=lambda m: m[0]):
        group = list(group)
        _, cell, t, _, _ = group[0]
        lift = alcove.torus_stabilizer(datum, (), t, S=cell.S).lift_ok
        norms = [reps.character_norm(rep, t.order).render()
                 for *_, rep in group]
        point = " ".join(str(c[0]) for c in d.coords)
        cell_str = "{" + ",".join(str(s) for s in cell.S) + "}"
        print(f"{point}\t{cell_str}\t{t.order}\t{lift}"
              f"\t{len(norms)}\t{' '.join(norms)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
