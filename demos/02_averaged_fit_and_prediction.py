"""Fit the averaged logistic model on block-missing data and predict.

Uses the synthetic four-block medical dataset (8 availability patterns).
One logistic model is fitted per pattern on all subjects observing that
pattern's columns; weights on the simplex are then chosen by the
penalized complete-case criterion.  Queries observing only some blocks
are handled by restricting the data to the observed blocks and redoing
the whole pipeline there.
"""

import numpy as np

from fragma import CandidateStore, fit_averaged, predict, predict_for_pattern
from fragma.datasets import adni_like

data, groups = adni_like(seed=1)
print(f"dataset: {data.n} subjects, blocks " +
      ", ".join(f"{b}({len(c)})" for b, c in groups.items()))

# One store per run: the data, the family and every candidate fit.
store = CandidateStore(data, "binomial")
model = fit_averaged(store, "opt1")
print(f"\n{len(model.candidates)} candidate models; "
      f"weights selected on {model.diagnostics['n_weighting']} complete cases "
      f"(penalty level {model.lambda_n:g})")
w = np.asarray(model.weights)
for k, cand in enumerate(model.candidates):
    blocks = sorted({name for name, cols in groups.items()
                     if set(cols) <= set(cand.pattern.indices)})
    label = "+".join(blocks) if blocks else "(intercept only)"
    print(f"  candidate {k + 1}: {label:20s}  "
          f"n_k={cand.n_k:4d}  p_k={cand.p_k:2d}  weight={w[k]:.4f}")
print(f"criterion value at the optimum: {model.criterion_value:.4f}")

# A fully observed query.
rng = np.random.default_rng(0)
x_full = rng.standard_normal(data.p)
x_full[0] = 1.0
theta, mean = predict(model, x_full)
print(f"\nfully observed query: theta = {theta:+.4f}, P(y=1) = {mean:.4f}")

# A query with no CSF measurements: restrict, refit, reselect weights.
x_partial = x_full.copy()
x_partial[groups["CSF"]] = np.nan
theta_p, mean_p, sub = predict_for_pattern(store, 2.0, x_partial)
print(f"query without CSF: theta = {theta_p:+.4f}, P(y=1) = {mean_p:.4f} "
      f"({len(sub.candidates)} candidates remain after restriction)")

# Weight-2 penalty vs log(n1): heavier penalty favors smaller candidates.
model2 = fit_averaged(store, "opt2")
print("\nweights under the two penalty levels:")
print("  penalty 2      :", np.round(np.asarray(model.weights), 4))
print(f"  penalty log(n1):", np.round(np.asarray(model2.weights), 4))
