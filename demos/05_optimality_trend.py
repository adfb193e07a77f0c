"""Diagnostic: selected weights approach the infeasible best weights.

The weight criterion replaces the unknown true means by the observed
responses (plus a penalty).  This script measures what that surrogacy
costs: for simulated data, where the true means are known, it compares
the KL loss of the selected weights against the exact minimum of the KL
loss over the whole simplex (computable here because the KL loss is
convex in the weights, so the same optimizer finds its true minimum).
The ratio should drift toward 1 as the sample grows.  Not a test, just a
supporting report.
"""

import numpy as np

from fragma.averaging import (
    CriterionContext,
    build_criterion_context,
    kl_loss,
    optimize_weights,
)
from fragma.glm import BINOMIAL, CandidateStore
from fragma.patterns import build_pattern_index
from fragma.sim import SimConfig, generate_replication

REPS = 20

print(f"{'n':>6s} {'median ratio':>13s} {'mean ratio':>11s}   (KL of chosen weights / best possible KL)")
for n in (400, 800, 1600):
    ratios = []
    for rep in range(REPS):
        cfg = SimConfig(n=n, rho=0.6, beta_case="decay", reps=1, seed=500 + rep)
        data, truth = generate_replication(cfg, 0)
        index = build_pattern_index(data)
        candidates = CandidateStore(data, BINOMIAL).fit_all(index)
        ctx = build_criterion_context(data, index, candidates, BINOMIAL)
        mu = truth.mean[index.s_sets[0]]

        w_hat = np.asarray(optimize_weights(ctx, 2.0).weights)
        kl_hat = kl_loss(ctx.theta_matrix @ w_hat, mu, BINOMIAL)

        # Infeasible benchmark: minimize the true KL loss itself (convex in w).
        oracle_ctx = CriterionContext(ctx.theta_matrix, mu, ctx.p_sizes, BINOMIAL)
        w_star = np.asarray(optimize_weights(oracle_ctx, 0.0).weights)
        kl_star = kl_loss(ctx.theta_matrix @ w_star, mu, BINOMIAL)

        if kl_star > 0:
            ratios.append(kl_hat / kl_star)
    ratios = np.asarray(ratios)
    print(f"{n:6d} {np.median(ratios):13.4f} {ratios.mean():11.4f}")

print("\nratios >= 1 by construction; the decline toward 1 with n is the point")
