"""Bootstrap reliability of the scaled singular-vector weights.

Resamples rows with replacement (keeping the X/Y pairing), re-fits, and
builds 95% percentile intervals for the singular-value-scaled weights. A
weight whose interval excludes zero is a stable contributor. On data where
15 designated predictors carry the first dimension, the stable PLS weights
should point at exactly those predictors.
"""

import numpy as np

from crossblock import SimulationSpec, bootstrap_ci, generate_relevant_subspace

spec = SimulationSpec(
    n=5000, p=50, q_per_component=(15, 10), relpos=((1, 2), (3, 4, 6)), gamma=0.6,
    m=4, ypos=((1, 3), (2, 4)), eta=0.0, r2=(0.2, 0.1), seed=18,
)
ds = generate_relevant_subspace(spec)
designated_lv1 = set(ds.truth.relevant_predictors[0])
print(f"designated predictors for dimension 1: {sorted(designated_lv1)}")

result = bootstrap_ci(ds.x, ds.y, "pls", n_boot=300, seed=9, threads=2)
stable = np.flatnonzero(result.x.stable[:, 0]) + 1
print(f"\nstable X weights on LV1 ({len(stable)} of 50):")
print(f"  {sorted(int(i) for i in stable)}")
hits = len(set(stable.tolist()) & designated_lv1)
print(f"  {hits}/{len(stable)} of them are designated carriers")

print("\nweight intervals for the first six X variables on LV1:")
block = result.x
for i, label in enumerate(block.labels[:6]):
    flag = "stable" if block.stable[i, 0] else "  -   "
    print(f"  {label}: {block.observed[i, 0]:+.3f}  "
          f"[{block.lower[i, 0]:+.3f}, {block.upper[i, 0]:+.3f}]  {flag}")

print("\nY-side stable weights per LV:")
for lv in range(4):
    stable_y = [label for label, s in zip(result.y.labels, result.y.stable[:, lv]) if s]
    print(f"  LV{lv + 1}: {stable_y}")
