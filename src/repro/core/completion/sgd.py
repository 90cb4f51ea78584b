"""Minibatch stochastic gradient descent for tensor completion.

The paper lists SGD among the standard optimizers for Eq. 3 (Section 4.2.1):
each step samples a random subset of Ω, computes the residual of the current
CP model on it, and updates *all* factor matrices at once along the negative
gradient.  For observation ``k`` and mode ``j`` the gradient contribution to
row ``indices[k, j]`` is ``2 * resid_k * prod_{j' != j} U_{j'}[idx_{j'k}]``;
contributions from a minibatch are scatter-added with :func:`numpy.add.at`.

SGD is the least sweep-efficient of the three least-squares optimizers but
the cheapest per update and the natural choice for streaming settings (the
paper's future-work discussion); it is exercised by the optimizer-ablation
benchmark.
"""
from __future__ import annotations

import numpy as np

from repro.core.completion.objectives import ls_objective
from repro.core.completion.state import (
    CompletionResult,
    check_observations,
    init_factors,
    khatri_rao_rows,
)
from repro.utils.rng import as_generator

__all__ = ["complete_sgd"]


def complete_sgd(
    shape,
    indices,
    values,
    rank: int,
    regularization: float = 1e-5,
    max_sweeps: int = 500,
    tol: float = 1e-7,
    seed=None,
    factors: list | None = None,
    learning_rate: float = 0.1,
    batch_size: int = 256,
    decay: float = 0.002,
    momentum: float = 0.9,
    patience: int = 25,
) -> CompletionResult:
    """Fit a CP decomposition with minibatch SGD (heavy-ball momentum).

    One "sweep" is an epoch over a random permutation of Ω.  The step size
    follows an inverse-decay schedule ``lr / (1 + decay * epoch)``; the
    momentum term is essential on CP landscapes (orders-of-magnitude
    faster convergence in our ablations).  ``history`` records the full
    objective per epoch; convergence stops after ``patience`` consecutive
    epochs without a new best objective (momentum makes single-epoch
    non-improvement routine, so the window must be generous).
    """
    indices, values = check_observations(shape, indices, values)
    d = len(shape)
    rng = as_generator(seed)
    if factors is None:
        factors = init_factors(shape, rank, rng=rng)
    else:
        # The buffered gathers require float64; coerce warm starts.
        factors = [np.asarray(U, dtype=float) for U in factors]
    lam = float(regularization)
    n = len(values)
    batch_size = min(batch_size, n)

    history = [ls_objective(factors, indices, values, lam)]
    best = history[0]
    stall = 0
    converged = False
    sweeps = 0
    velocity = [np.zeros_like(U) for U in factors]
    # Reusable minibatch work buffers (hot loop: no per-batch allocation of
    # the Khatri-Rao block or the residual product).  Sized from the actual
    # factor rank: a warm start may carry a different rank than ``rank``.
    R = factors[0].shape[1]
    kr_buf = np.empty((batch_size, R))
    prod_buf = np.empty((batch_size, R))
    for epoch in range(max_sweeps):
        lr = learning_rate / (1.0 + decay * epoch)
        perm = rng.permutation(n)
        for start in range(0, n, batch_size):
            batch = perm[start : start + batch_size]
            idx_b = indices[batch]
            m = len(batch)
            # Residual on the batch under the current factors.
            prod = np.take(factors[0], idx_b[:, 0], axis=0, out=prod_buf[:m])
            for j in range(1, d):
                prod *= factors[j][idx_b[:, j]]
            resid = prod.sum(axis=1) - values[batch]
            scale = 2.0 * lr / m
            for j in range(d):
                K = khatri_rao_rows(factors, idx_b, skip=j, out=kr_buf[:m])
                g = np.zeros_like(factors[j])
                np.add.at(g, idx_b[:, j], scale * (K * resid[:, None]))
                velocity[j] = momentum * velocity[j] - g
                factors[j] += velocity[j]
            if lam > 0:
                for j in range(d):
                    factors[j] *= 1.0 - 2.0 * lr * lam / n
        sweeps = epoch + 1
        history.append(ls_objective(factors, indices, values, lam))
        cur = history[-1]
        if not np.isfinite(cur):
            # Divergence: halve the step and restart from fresh factors.
            learning_rate *= 0.5
            factors = init_factors(shape, rank, rng=rng)
            velocity = [np.zeros_like(U) for U in factors]
            if rank != R:  # warm start carried a different rank
                R = rank
                kr_buf = np.empty((batch_size, R))
                prod_buf = np.empty((batch_size, R))
            history[-1] = ls_objective(factors, indices, values, lam)
            continue
        if best - cur <= tol * max(best, 1e-30):
            stall += 1
            if stall >= patience:
                converged = True
                break
        else:
            stall = 0
        best = min(best, cur)
    return CompletionResult(
        factors=factors, history=history, converged=converged, n_sweeps=sweeps
    )
