"""Decompose a fragmentary dataset into availability patterns.

Walks through the 10-subject toy table: which distinct availability
patterns occur, which subjects carry each pattern exactly (T sets), and
which subjects observe at least those columns (S sets) — the sample each
per-pattern model is fitted on.  Ends with a column restriction, the
device used for predicting queries that observe fewer columns.
"""

from fragma import Pattern, build_pattern_index, cc_fraction, restrict_to
from fragma.datasets import table1_toy

data = table1_toy()
print(f"dataset: {data.n} subjects x {data.p} covariates")
print("availability (rows = subjects, * = observed):")
for i in range(data.n):
    print(f"  subject {i + 1:2d}:  " + " ".join("*" if m else "." for m in data.mask[i]))

index = build_pattern_index(data)
print(f"\n{index.K} distinct patterns (largest first, then first appearance):")
for k, pat in enumerate(index.patterns, start=1):
    cols = [data.column_names[j] for j in pat.indices]
    t = (index.t_sets[k - 1] + 1).tolist()
    s = (index.s_sets[k - 1] + 1).tolist()
    print(f"  pattern {k}: columns {cols}")
    print(f"     exact-match subjects T = {t}")
    print(f"     covering subjects    S = {s}   (n_k = {len(s)}, p_k = {pat.size})")

print(f"\ncomplete-case share: {cc_fraction(index, data.n):.2f}")

# The trade-off driving the method: more columns => fewer usable subjects.
print("\ncolumns-vs-sample-size trade-off:")
for k in range(1, index.K + 1):
    print(f"  pattern {k}: p_k = {index.patterns[k - 1].size:2d}  "
          f"n_k = {index.s_sets[k - 1].size:2d}")

# Restrict to the first three columns: patterns collapse and merge.
target = Pattern((0, 1, 2))
restricted = restrict_to(data, target)
sub_index = build_pattern_index(restricted)
print(f"\nrestricted to {restricted.column_names}: {sub_index.K} patterns remain")
for k, pat in enumerate(sub_index.patterns, start=1):
    print(f"  pattern {k}: {[restricted.column_names[j] for j in pat.indices]}, "
          f"|S| = {sub_index.s_sets[k - 1].size}")
