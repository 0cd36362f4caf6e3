#!/usr/bin/env python3
"""Show that floor((d1+d2)/2) pairs is the best possible guarantee.

One pair above the bound, exhaustive sweeps find pairings that no set
of disjoint paths can realise.  A sweep checks one pairing per orbit of
the board's symmetries (row and column permutations, and transposition
on square boards), which covers every pairing.  Each hit below is
certified by a completed backtracking search, and the narrow grids
really are the tight families: the 3x3 grid at the same pair count has
none, and the 4x5 grid links every pairing even one pair above its
bound, so "best possible" means that some boards fail there, not all.
"""

from rooklink import exhaustive_solve, find_infeasible_pairing

for d1, d2 in [(1, 2), (2, 1), (1, 4), (2, 3)]:
    k = (d1 + d2 + 1) // 2
    res = find_infeasible_pairing(d1, d2, k)
    assert res.found is not None and res.completed
    assert exhaustive_solve(res.found).feasible is False
    print(f"grid ({d1},{d2}), {k} pairs: infeasible pairing after "
          f"{res.instances_checked} orbit representatives:")
    for i, (s, t) in enumerate(res.found.pairs, start=1):
        print(f"    pair {i}: {tuple(s)} -- {tuple(t)}")

for d1, d2, k, note in [(2, 2, 2, "it meets the guarantee"),
                        (3, 4, 4, "one pair above the bound")]:
    res = find_infeasible_pairing(d1, d2, k, exhaustive=True)
    assert res.found is None and res.completed
    print(f"\ngrid ({d1},{d2}), {k} pairs: no infeasible pairing among "
          f"{res.instances_checked} orbit representatives ({note})")
