"""Cyclic coordinate descent for tensor completion (paper Section 4.2.1).

CCD optimizes one factor-matrix *column* at a time: for mode ``j`` and rank
component ``r``, all entries ``U_j[:, r]`` are updated simultaneously (they
appear in disjoint observation sets), each minimizing the scalar objective

    g(u_{i,r}) = sum_{k in Omega_i} (res_k - w_k u_{i,r})^2 + lam u_{i,r}^2

where ``w_k = prod_{j' != j} U_{j'}[idx_{j'k}, r]`` and ``res_k`` is the
residual excluding component ``r``'s mode-``j`` contribution.  The closed
form is ``u_{i,r} = sum(res * w) / (sum(w^2) + lam)``.

This reduces ALS's ``R^3`` row-solve cost to ``R`` scalar updates per entry
per sweep (a factor-``R`` cheaper sweep), at the price of slower convergence
from decoupled updates — exactly the trade-off the paper describes.  Every
scalar update exactly minimizes a convex 1-D restriction of Eq. 3, so the
objective history is monotonically non-increasing.

Implementation: residuals are maintained incrementally; per-row reductions
use :func:`numpy.bincount` (segmented sums), so a full sweep is
``O(nnz * d * R)`` with no Python loop over observations.
"""
from __future__ import annotations

import numpy as np

from repro.core.completion.objectives import ls_objective
from repro.core.completion.state import (
    CompletionResult,
    ObservationPlan,
    check_observations,
    cp_eval,
    init_factors,
)
from repro.utils.rng import as_generator

__all__ = ["complete_ccd"]


def complete_ccd(
    shape,
    indices,
    values,
    rank: int,
    regularization: float = 1e-5,
    max_sweeps: int = 200,
    tol: float = 1e-6,
    seed=None,
    factors: list | None = None,
    plan: ObservationPlan | None = None,
) -> CompletionResult:
    """Fit a CP decomposition by cyclic coordinate descent.

    Arguments mirror :func:`repro.core.completion.als.complete_als`; CCD
    typically needs more sweeps (hence the larger default) but each sweep
    is a factor ``R`` cheaper.  ``plan`` optionally reuses a fit-wide
    :class:`ObservationPlan` (CCD only needs its observed-row masks, but
    a warm-start caller avoids rebuilding them per update).
    """
    indices, values = check_observations(shape, indices, values)
    d = len(shape)
    if factors is None:
        factors = init_factors(shape, rank, rng=as_generator(seed))
    lam = float(regularization)

    # Fit-wide observation bookkeeping: per-mode observed-row masks come
    # from the shared plan instead of a bincount per (sweep, mode, rank).
    # (CCD's segmented sums are bincounts over *unsorted* indices, so only
    # the masks are needed — not the plan's sorted layouts.)
    if plan is None:
        plan = ObservationPlan(shape, indices)
    elif not plan.matches(shape, indices):
        raise ValueError(
            "plan does not describe these observations; rebuild it "
            "(ObservationPlan.extended) when the index set changes"
        )
    observed = [plan.observed_mask(j) for j in range(d)]

    # Per-component contribution cache: comp[r] over observations.
    # pred = sum_r comp_r where comp_r = prod_j U_j[idx_j, r].
    cols = [indices[:, j] for j in range(d)]
    comp = np.ones((rank, len(values)))
    for r in range(rank):
        for j in range(d):
            comp[r] *= factors[j][cols[j], r]
    pred = comp.sum(axis=0)

    history = [ls_objective(factors, indices, values, lam)]
    converged = False
    sweeps = 0
    for sweep in range(max_sweeps):
        for j in range(d):
            idx_j = cols[j]
            n_rows = shape[j]
            for r in range(rank):
                u_rows = factors[j][idx_j, r]
                # w: component value with mode-j's contribution divided out.
                # Computed as a product over other modes to avoid dividing
                # by (possibly zero) u_rows.
                w = np.ones(len(values))
                for jj in range(d):
                    if jj != j:
                        w *= factors[jj][cols[jj], r]
                res = values - pred + w * u_rows
                num = np.bincount(idx_j, weights=res * w, minlength=n_rows)
                den = np.bincount(idx_j, weights=w * w, minlength=n_rows) + lam
                u_new = num / den
                # Unobserved rows: bincount gives 0/lam = 0; keep old value.
                u_new = np.where(observed[j], u_new, factors[j][:, r])
                # Incremental prediction update.
                new_comp_r = w * u_new[idx_j]
                pred += new_comp_r - comp[r]
                comp[r] = new_comp_r
                factors[j][:, r] = u_new
        sweeps = sweep + 1
        history.append(ls_objective(factors, indices, values, lam))
        prev, cur = history[-2], history[-1]
        if prev - cur <= tol * max(prev, 1e-30):
            converged = True
            break
        # Guard against drift in the incremental prediction.
        if sweep % 32 == 31:
            pred = cp_eval(factors, indices)
            for r in range(rank):
                comp[r] = np.ones(len(values))
                for j in range(d):
                    comp[r] *= factors[j][cols[j], r]
    return CompletionResult(
        factors=factors, history=history, converged=converged, n_sweeps=sweeps
    )


# CCD has no pluggable kernel backends, but it can reuse the fit-wide
# observation plan (see CPRModel._run_completion's capability gates).
complete_ccd.accepts_plan = True
