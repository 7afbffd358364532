#!/usr/bin/env python3
"""Conormal duality two ways: generic covectors in the conormal space (the
linear-algebra oracle) versus the greedy multisegment involution (the
production route behind pyasetskii_dual) -- including the chain where the
duality does NOT reverse the closure order."""

from fractions import Fraction

from voganlab import Chain, build_variety, closure_leq, enumerate_orbits
from voganlab.geometry import conormal_dual, mw_involution, pyasetskii_dual
from voganlab.report import format_table

v = build_variety([Chain(Fraction(-1), (1, 2, 1))], "gl")
table = enumerate_orbits(v)

rows = []
for o in table:
    geo = conormal_dual(o, 0, table)
    comb = mw_involution(o, table)
    rows.append([o.index, o.label(), o.dim, geo.index, comb.index])
print(format_table(["id", "multisegment", "dim", "conormal dual", "greedy dual"], rows))

print("""
Both routes agree (they do on every chain variety with total grade <= 6).
The map is an involution and swaps the open and closed orbits.  But watch
the nested pair below: duality preserves its direction instead of reversing
it, so conormal duality is NOT an anti-automorphism of the closure order.
""")

a, b = table[1], table[3]
da, db = pyasetskii_dual(a, table), pyasetskii_dual(b, table)
print(f"  {a.label()}  <=  {b.label()}   (nested closures)")
print(f"  duals: {da.label()}  <=  {db.label()}   (still nested the same way)")
assert closure_leq(a, b) and closure_leq(da, db)
