"""Compare the averaging method against the baseline strategies.

Splits the block-missing dataset 75/25 within each availability pattern,
fits everything on the training part and scores held-out complete cases
by predictive deviance.  The same protocol is available from the shell:

    fragma compare --input data.csv --response y --groups groups.json \
        --methods opt1,opt2,cc,saic,sbic,imp1,imp2,glasso --out results/
"""

import numpy as np

from fragma.baselines import ALL_METHODS, fit_method
from fragma.datasets import adni_like
from fragma.glm import BINOMIAL, CandidateStore
from fragma.patterns import FragmentaryDataset, build_pattern_index

data, groups = adni_like(seed=2)
rng = np.random.default_rng(7)

index = build_pattern_index(data)
train_rows, test_rows = [], []
for t in index.t_sets:
    perm = rng.permutation(t)
    cut = max(1, int(round(0.75 * len(t))))
    train_rows.extend(perm[:cut])
    test_rows.extend(perm[cut:])


def subset(rows):
    rows = np.sort(np.asarray(rows))
    return FragmentaryDataset(
        data.y[rows], data.x[rows], data.mask[rows], list(data.column_names)
    )


train, test = subset(train_rows), subset(test_rows)
print(f"train {train.n} / test {test.n} subjects")

tindex = build_pattern_index(train)
lead = list(tindex.patterns[0].indices)
eval_rows = np.flatnonzero(test.mask[:, lead].all(axis=1))
X_eval = test.x[np.ix_(eval_rows, lead)]
y_eval = test.y[eval_rows]
print(f"evaluating on {eval_rows.size} held-out complete cases\n")


def deviance(theta):
    return 2.0 * float(np.mean(BINOMIAL.b(theta) - y_eval * theta))


# one store of candidate fits for all methods (imp1/imp2 use its zero-imputed store)
store = CandidateStore(train, BINOMIAL)
fits = {m: fit_method(m, store, tindex, groups=groups, seed=7) for m in ALL_METHODS}

print(f"{'method':8s}  test deviance per obs")
for name, fit in fits.items():
    theta = X_eval @ fit.beta_combined[lead]
    print(f"{name:8s}  {deviance(theta):.4f}")
