"""Compare the averaging method against the baseline strategies.

Splits the block-missing dataset 75/25 within each availability pattern,
fits everything on the training part and scores the held-out rows, each
pattern group by the rule ``fragma compare`` uses, and scores the held-out
complete cases with ``kl_loss`` against their responses: the predictive
deviance per observation.  The same protocol is available from the shell:

    fragma compare --input data.csv --response y --groups groups.json \
        --methods opt1,opt2,cc,saic,sbic,imp1,imp2,glasso --out results/
"""

import numpy as np

from fragma.averaging import kl_loss, score_rows
from fragma.baselines import ALL_METHODS, fit_method
from fragma.datasets import adni_like
from fragma.glm import BINOMIAL, CandidateStore
from fragma.patterns import build_pattern_index, holdout_rows

data, groups = adni_like(seed=2)
train_rows, test_rows = holdout_rows(build_pattern_index(data), 0.75, np.random.default_rng(7))
train, test = data.take(train_rows), data.take(test_rows)
print(f"train {train.n} / test {test.n} subjects")

# one store of candidate fits for all methods (imp1/imp2 use its zero-imputed store)
store = CandidateStore(train, BINOMIAL)
eval_rows = np.flatnonzero(test.mask[:, list(store.index.patterns[0].indices)].all(axis=1))
print(f"evaluating on {eval_rows.size} held-out complete cases\n")

x_test, y_eval = np.where(test.mask, test.x, np.nan), test.y[eval_rows]
print(f"{'method':8s}  scored rows  test deviance per obs")
for name in ALL_METHODS:
    fit = fit_method(name, store, groups=groups, seed=7)
    theta = score_rows(fit, x_test, lambda: store)[0]
    deviance = kl_loss(theta[eval_rows], y_eval, BINOMIAL, per_obs=True)
    print(f"{name:8s}  {np.isfinite(theta).sum():>7d}/{test.n}  {deviance:.4f}")
