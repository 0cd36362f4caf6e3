#!/usr/bin/env python3
"""Route 100 pairs on the 101x101 grid and time it.

The construction is polynomial: each step either deletes one column
(when some pair shares a line) or two columns (after walking the
crowded block's terminals into free entries), so even 10,201 vertices
and 200 terminals finish in a fraction of a second.
"""

import random
import time

from rooklink import (LinkageProblem, ProductGraph, random_pairing, solve,
                      verify)

rng = random.Random(2718)
d1 = d2 = 100
k = (d1 + d2) // 2
grid = ProductGraph(d1, d2)
terminals = sorted(rng.sample(sorted(grid.subgrid().vertices()), 2 * k))
problem = LinkageProblem(grid, tuple(random_pairing(terminals, rng)))

started = time.perf_counter()
linkage, trace = solve(problem)
solve_time = time.perf_counter() - started

report = verify(problem, linkage)
longest = max(linkage.paths, key=len)

print(f"grid            : {d1 + 1} x {d2 + 1} ({grid.vertex_count} vertices)")
print(f"pairs routed    : {k}")
print(f"solve time      : {solve_time:.2f}s")
print(f"verifier        : {'pass' if report.ok else report.reason}")
print(f"case steps      : {trace.depth}")
print(f"longest path    : {len(longest)} vertices")
print(f"path vertices   : {sum(len(p) for p in linkage.paths)} total")
