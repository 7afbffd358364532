#!/usr/bin/env python3
"""From orbits to Kazhdan-Lusztig polynomials: the permutation dictionary,
the multiplicity matrix of standard modules, and rational smoothness."""

from voganlab import enumerate_orbits, kl_poly, two_eigenvalue_variety
from voganlab.bridge import multiplicity_matrix, multisegment_to_permutation, rational_smoothness
from voganlab.kl import poly_str
from voganlab.report import format_table

v = two_eigenvalue_variety("gl", 2)
table = enumerate_orbits(v)

print("orbit -> longest double-coset representative:")
perms = {}
for o in table:
    (w,) = multisegment_to_permutation(o)
    perms[o.index] = w
    print(f"  {o.label():32s} {w}")

zero = next(o for o in table if o.is_closed)
mid = next(o for o in table if not (o.is_open or o.is_closed))
p = kl_poly(perms[zero.index], perms[mid.index])
print(f"\nstalk polynomial of the quadric cone at the origin: {poly_str(p)}")
print("so the irreducible of the middle orbit appears twice in the standard")
print("module attached to the origin (the value at q = 1).\n")

matrix = multiplicity_matrix(table)
mm = matrix["entries"]
print(format_table(
    ["entry[C][D]"] + [o.label() for o in table],
    [[c.label()] + [mm[c.index][d.index] for d in table] for c in table],
))

smooth = rational_smoothness(matrix)
print("rationally smooth (all stalk polynomials 1):",
      {o.label(): smooth[o.index] for o in table})
