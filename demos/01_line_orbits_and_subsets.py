#!/usr/bin/env python3
"""Orbits of a principal-parameter variety: one coordinate line per simple
root, orbits indexed by subsets, closures all smooth."""

from voganlab import enumerate_orbits, hasse, is_smooth_closure, steinberg_variety
from voganlab.report import format_table, speculation_table, table_report

v = steinberg_variety("gl", 4)
table = enumerate_orbits(v)

print(f"variety: {v.describe()}")
print(f"{len(table)} orbits on a {v.total_dim}-dimensional space\n")

rows = []
for o in table:
    rows.append([o.index, o.label(), o.dim,
                 "open" if o.is_open else ("closed" if o.is_closed else ""),
                 "smooth" if is_smooth_closure(o) else "singular"])
print(format_table(["id", "multisegment", "dim", "extreme", "closure"], rows))

print("covering relations:", hasse(table))
print()
print("speculation summary (smooth / Arthur orbit / Arthur representation):")
print(speculation_table(table_report(table)["orbits"]))
