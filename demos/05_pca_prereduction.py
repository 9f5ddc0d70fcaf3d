"""Pre-analysis PCA: score substitution and component stability.

With strongly correlated X variables, CCA's within-block adjustment and
PLS's raw cross-correlations diverge. Replacing X with re-standardized
component scores makes the within-block correlation identity, so the two
methods coincide. That substitution is only safe when the component
structure itself is stable under resampling, which the subsample
cosine-stability table measures, with and without reflection correction.
"""

import numpy as np

from crossblock import (
    SimulationSpec,
    component_scores,
    fit_cca,
    fit_pca,
    fit_pls,
    generate_relevant_subspace,
    pca_stability,
)

spec = SimulationSpec(
    n=10000, p=50, q_per_component=(15, 10), relpos=((1, 2), (3, 4, 6)), gamma=0.6,
    m=4, ypos=((1, 3), (2, 4)), eta=0.0, r2=(0.2, 0.1), seed=26,
)
ds = generate_relevant_subspace(spec)

model = fit_pca(ds.x)
print("eigenspectrum (first ten):", np.round(model.eigenvalues[:10], 3))
print(f"components for 98% of the variance: {model.n_kept}")

print("\nraw blocks:     PLS s =", np.round(fit_pls(ds.x, ds.y).s, 4))
print("                CCA s =", np.round(fit_cca(ds.x, ds.y).s, 4))

scores = component_scores(ds.x, model, model.n_kept)
print("\nscore blocks:   PLS s =", np.round(fit_pls(scores, ds.y).s, 4))
print("                CCA s =", np.round(fit_cca(scores, ds.y).s, 4))
print("(identity within-block structure makes the two methods agree)")

print("\ncomponent stability by sample size (z of cosine with the population")
print("component; parenthesized value without reflection correction):")
aligned = pca_stability(ds.x, sample_sizes=(500, 100, 20), n_iter=200, n_pc=2,
                        with_alignment=True, seed=5, threads=2)
unaligned = pca_stability(ds.x, sample_sizes=(500, 100, 20), n_iter=200, n_pc=2,
                          with_alignment=False, seed=5, threads=2)
print("  N     PC1              PC2")
for row, size in enumerate(aligned.sample_sizes):
    print(
        f"{size:>5}   {aligned.z[row, 0]:>7.1f} ({unaligned.z[row, 0]:>6.2f})"
        f"   {aligned.z[row, 1]:>7.1f} ({unaligned.z[row, 1]:>6.2f})"
    )
print("\nuncorrected reflections wash the signed cosines out to z near zero.")
