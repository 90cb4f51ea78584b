"""Tucker-decomposition tensor completion (the paper's named future work).

Section 4.1 notes that low-rank structure can also be captured "using other
tensor factorizations such as Tucker"; Section 5.1 leaves their evaluation
to future work.  This module provides that evaluation path: a Tucker model

    t_{i_1..i_d} ~= sum_{r_1..r_d} g_{r_1..r_d} * prod_j U_j[i_j, r_j]

with core ``G`` of shape ``(R_1, ..., R_d)`` and orthonormal-ish factor
matrices, fitted to observed entries by alternating ridge least squares:

* each factor update solves, per row, a least-squares problem against the
  "contracted design" ``K_k = G x_{j' != j} U_{j'}[i_{j'k}]`` (an ``R_j``
  vector per observation) — identical bookkeeping to CP-ALS with the core
  contraction replacing the Khatri-Rao product;
* the core update is one global ridge least-squares in ``prod_j R_j``
  unknowns, whose design rows are outer products of the factor rows —
  solved via normal equations (the core is small by construction).

Model size is ``prod_j R_j + sum_j I_j R_j`` — the exponential core term is
exactly why the paper prefers CP for high-dimensional spaces; the ablation
benchmark quantifies that trade-off.
"""
from __future__ import annotations

import numpy as np
import scipy.linalg

from repro.core.completion.state import (
    CompletionResult,
    ObservationPlan,
    check_observations,
    solve_batched_spd,
)
from repro.utils.rng import as_generator

__all__ = ["complete_tucker", "tucker_eval", "TuckerFactors"]


class TuckerFactors:
    """A fitted Tucker model: core tensor + per-mode factor matrices.

    Quacks like the CP factor list where the code needs evaluation
    (``eval_at`` mirrors :func:`repro.core.completion.state.cp_eval`).
    """

    def __init__(self, core: np.ndarray, factors: list):
        if core.ndim != len(factors):
            raise ValueError("core order must match number of factors")
        for j, U in enumerate(factors):
            if U.shape[1] != core.shape[j]:
                raise ValueError(f"factor {j} rank mismatch with core")
        self.core = core
        self.factors = factors

    @property
    def ranks(self) -> tuple:
        return self.core.shape

    def eval_at(self, indices: np.ndarray) -> np.ndarray:
        """Model values at multi-indices ``(m, d)`` -> ``(m,)``."""
        indices = np.asarray(indices)
        d = len(self.factors)
        if indices.ndim != 2 or indices.shape[1] != d:
            raise ValueError(f"indices must be (m, {d})")
        # Contract the core with each observation's factor rows, one mode
        # at a time: acc has shape (m, R_j, ..., R_d) flattened on the fly.
        acc = np.broadcast_to(
            self.core.reshape(1, -1), (len(indices), self.core.size)
        ).copy()
        shape = list(self.core.shape)
        for j in range(d):
            rows = self.factors[j][indices[:, j]]  # (m, R_j)
            acc = acc.reshape(len(indices), shape[0], -1)
            acc = np.einsum("mr,mrk->mk", rows, acc)
            shape = shape[1:]
        return acc[:, 0]

    def size_bytes(self) -> int:
        return 8 * (self.core.size + sum(U.size for U in self.factors))


def _contracted_rows(model: TuckerFactors, indices: np.ndarray, skip: int) -> np.ndarray:
    """Design rows for mode ``skip``: core contracted with all other rows.

    Returns ``(m, R_skip)`` such that the model value is ``row . U_skip[i]``.
    """
    d = len(model.factors)
    m = len(indices)
    # Move mode `skip` to the front of the core, contract the rest.
    order = [skip] + [j for j in range(d) if j != skip]
    core = np.transpose(model.core, order)
    acc = np.broadcast_to(
        core.reshape(1, core.shape[0], -1), (m, core.shape[0], core[0].size)
    ).copy()
    shape = list(core.shape[1:])
    for j in order[1:]:
        rows = model.factors[j][indices[:, j]]  # (m, R_j)
        acc = acc.reshape(m, core.shape[0], shape[0], -1)
        acc = np.einsum("mr,msrk->msk", rows, acc)
        shape = shape[1:]
    return acc[:, :, 0]


def tucker_eval(model: TuckerFactors, indices: np.ndarray) -> np.ndarray:
    """Functional alias for :meth:`TuckerFactors.eval_at`."""
    return model.eval_at(indices)


def complete_tucker(
    shape,
    indices,
    values,
    rank: int | tuple = 4,
    regularization: float = 1e-5,
    max_sweeps: int = 50,
    tol: float = 1e-5,
    seed=None,
    max_core_size: int = 65536,
) -> CompletionResult:
    """Fit a Tucker decomposition to observed entries by alternating ridge LS.

    Parameters
    ----------
    rank
        Per-mode Tucker rank(s); an int is broadcast to every mode and
        capped at each mode's dimension.
    max_core_size
        Guard on ``prod(ranks)`` — the exponential core is Tucker's known
        scaling failure for high-order tensors (why the paper picks CP).

    Returns
    -------
    CompletionResult
        ``factors`` holds a single :class:`TuckerFactors`; ``history`` is
        the per-sweep regularized mean-squared objective.
    """
    indices, values = check_observations(shape, indices, values)
    d = len(shape)
    if isinstance(rank, int):
        ranks = tuple(min(rank, int(I)) for I in shape)
    else:
        ranks = tuple(min(int(r), int(I)) for r, I in zip(rank, shape))
        if len(ranks) != d:
            raise ValueError("rank tuple length must match tensor order")
    core_size = int(np.prod(ranks, dtype=np.int64))
    if core_size > max_core_size:
        raise MemoryError(
            f"Tucker core would hold {core_size} entries (> {max_core_size}); "
            "use CP for this order/rank (the paper's point)"
        )
    rng = as_generator(seed)
    lam = float(regularization)

    factors = [
        (np.eye(int(I), R) + 0.01 * rng.standard_normal((int(I), R)))
        for I, R in zip(shape, ranks)
    ]
    core = rng.standard_normal(ranks) * 0.1
    # Seed the core's leading entry with the data scale so the first sweep
    # starts near the mean surface rather than at zero.
    core.flat[0] = float(np.mean(values))
    model = TuckerFactors(core, factors)

    def objective():
        r = model.eval_at(indices) - values
        pen = lam * (
            float(np.sum(core * core))
            + sum(float(np.sum(U * U)) for U in factors)
        )
        return float((r @ r + pen) / len(values))

    history = [objective()]
    converged = False
    sweeps = 0
    # Fit-wide sorted observation layout shared by every sweep (one stable
    # argsort per mode), with targets pre-sorted once per mode.
    plan = ObservationPlan(shape, indices)
    t_sorted = [plan.sorted_values(values, j) for j in range(d)]
    for sweep in range(max_sweeps):
        # --- factor updates (batched ridge LS over all rows of a mode) ----
        for j in range(d):
            mp = plan.mode(j)
            if mp.n_obs == 0:
                continue
            K = _contracted_rows(model, mp.sorted_indices, skip=j)
            R = ranks[j]
            if not mp.pad_feasible:
                # Heavily skewed multiplicities: padding would dwarf
                # O(nnz); solve per row on the sorted segments instead.
                U = factors[j]
                eye = np.eye(R)
                ts = t_sorted[j]
                for lo, hi, i in zip(
                    mp.starts_obs,
                    mp.starts_obs + mp.counts[mp.obs_rows],
                    mp.obs_rows,
                ):
                    Ki, ti = K[lo:hi], ts[lo:hi]
                    G = Ki.T @ Ki + lam * eye
                    try:
                        U[i] = scipy.linalg.solve(G, Ki.T @ ti, assume_a="pos")
                    except np.linalg.LinAlgError:
                        U[i] = np.linalg.lstsq(G, Ki.T @ ti, rcond=None)[0]
                continue
            G = mp.gram(K)
            b = mp.seg_sum(K * t_sorted[j][:, None])
            G[:, np.arange(R), np.arange(R)] += lam
            factors[j][mp.obs_rows] = solve_batched_spd(G, b)
        # --- core update (global ridge LS over prod(ranks) unknowns) ------
        # Design row k = outer product of the factor rows of observation k.
        D = factors[0][indices[:, 0]]
        for j in range(1, d):
            rows = factors[j][indices[:, j]]
            D = (D[:, :, None] * rows[:, None, :]).reshape(len(values), -1)
        G = D.T @ D + lam * np.eye(core_size)
        try:
            flat = scipy.linalg.solve(G, D.T @ values, assume_a="pos")
        except np.linalg.LinAlgError:
            flat = np.linalg.lstsq(G, D.T @ values, rcond=None)[0]
        core[...] = flat.reshape(ranks)

        sweeps = sweep + 1
        history.append(objective())
        prev, cur = history[-2], history[-1]
        if prev - cur <= tol * max(prev, 1e-30):
            converged = True
            break
    return CompletionResult(
        factors=[model], history=history, converged=converged, n_sweeps=sweeps
    )
