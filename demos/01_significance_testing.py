"""Significance testing on null and structured data.

Fits PLS and CCA on two synthetic populations, runs permutation tests on
the singular values, and (for CCA) the parametric chi-square sequence.
On null data nothing should reach significance; on structured data the
two seeded dimensions should stand out.
"""

import numpy as np

from crossblock import (
    ExperimentConfig,
    SimulationSpec,
    generate_null,
    generate_relevant_subspace,
    run_full_sample,
)

config = ExperimentConfig(n_perm=500, n_boot=200, n_split=100, seed=42, threads=2)

print("=== independent standard-normal blocks (10 x, 5 y, n = 10000) ===")
null_ds = generate_null(10000, 10, 5, seed=1)
result = run_full_sample(null_ds.x, null_ds.y, config)
for method in ("pls", "cca"):
    entry = result.method(method)
    print(f"\n{method.upper()} singular values and permutation p-values:")
    for lv, (s, p) in enumerate(
        zip(entry.permutation.singular_values, entry.permutation.p_values), start=1
    ):
        print(f"  LV{lv}: s = {s:.3f}   p = {p:.3f}")
bart = result.method("cca").bartlett
print("\nchi-square sequence (CCA):")
for t in bart.tests[:2]:
    print(f"  from LV{t.start_lv}: chi2({t.df}) = {t.chi_square:.1f}, p = {t.p_value:.2f}")

print("\n=== two seeded cross-block dimensions (R2 = 0.2 and 0.1) ===")
spec = SimulationSpec(
    n=10000, p=50, q_per_component=(15, 10), relpos=((1, 2), (3, 4, 6)), gamma=0.6,
    m=4, ypos=((1, 3), (2, 4)), eta=0.0, r2=(0.2, 0.1), seed=26,
)
ds = generate_relevant_subspace(spec)
result = run_full_sample(ds.x, ds.y, config)
for method in ("pls", "cca"):
    entry = result.method(method)
    print(f"\n{method.upper()} singular values and permutation p-values:")
    for lv, (s, p) in enumerate(
        zip(entry.permutation.singular_values, entry.permutation.p_values), start=1
    ):
        print(f"  LV{lv}: s = {s:.4f}  p = {p:.3f}")
print("\nchi-square sequence (CCA): the test stops rejecting after the two real LVs")
for t in result.method("cca").bartlett.tests:
    print(f"  from LV{t.start_lv}: chi2({t.df}) = {t.chi_square:.1f}, p = {t.p_value:.2f}")
print("\npopulation canonical correlations:", np.round(np.sqrt([0.2, 0.1]), 4))
