"""Multilinear interpolation of tensor elements (paper Eq. 5).

A configuration ``x`` falls between cell mid-points along each numerical
mode; its prediction is the multilinear blend of the ``2^q`` neighbouring
tensor-element estimates (``q`` = number of interpolating modes), with
weights computed in the transformed coordinate ``h_j`` (identity for
uniform spacing, log for logarithmic spacing).

Fringe rule (Section 5.1): when ``x_j`` lies between the domain edge and
the first/last mid-point, Eq. 5's weights are extended *signed* —
``w_lo = 1 - tau``, ``w_hi = tau`` with ``tau = (h - h_lo) / (h_hi - h_lo)``
— which is exactly linear extrapolation from the two nearest mid-points
(the absolute-value form in the paper's display equals this on the
interior and is replaced by linear extrapolation at the fringe, as the
paper prescribes).

Categorical modes never interpolate: the cell index is used directly.

Two evaluators share these weights.  :func:`interpolate` is the generic
one: it stacks every corner's multi-index and calls an element-wise
``corner_eval`` once (any decomposition; the Tucker path).
:func:`cp_blend` is the CP-specialised one: corners that agree on a
prefix of modes share that prefix of the CP row product, so it builds all
``2^q`` products as a binary tree over the modes instead of gathering
``d`` factor rows per corner — with results bit-identical to
``interpolate`` over ``cp_eval`` (same per-corner multiplication order,
same corner order, same reductions).
"""
from __future__ import annotations

import numpy as np

from repro.core.grid import TensorGrid

__all__ = ["interpolation_weights", "corner_stack", "interpolate", "cp_blend"]


def interpolation_weights(grid: TensorGrid, X: np.ndarray, active=None):
    """Per-mode corner indices and weights for each configuration row.

    Parameters
    ----------
    grid
        The discretization.
    X
        Configurations, shape ``(n, d)``.
    active
        Optional boolean mask of modes to interpolate along; defaults to
        every mode that ``interpolates`` and has at least two cells.

    Returns
    -------
    lo, hi : (n, d) int arrays
        Lower/upper corner cell indices per mode (equal where inactive).
    w_lo, w_hi : (n, d) float arrays
        Corner weights (``w_hi = 0`` where inactive); signed at the fringe.
    active : (d,) bool array
        The resolved active-mode mask.
    """
    X = grid._check(X)
    n, d = X.shape
    if active is None:
        active = np.array(
            [m.interpolates and m.n_cells > 1 for m in grid.modes], dtype=bool
        )
    else:
        active = np.asarray(active, dtype=bool)
        if active.shape != (d,):
            raise ValueError(f"active must have shape ({d},)")
        for j, m in enumerate(grid.modes):
            if active[j] and (not m.interpolates or m.n_cells < 2):
                raise ValueError(f"mode {m.name!r} cannot interpolate")

    lo = np.empty((n, d), dtype=np.intp)
    hi = np.empty((n, d), dtype=np.intp)
    w_lo = np.ones((n, d))
    w_hi = np.zeros((n, d))
    for j, m in enumerate(grid.modes):
        if not active[j]:
            lo[:, j] = hi[:, j] = m.cell_of(X[:, j])
            continue
        mids = m.midpoints_h
        h = m.transform(X[:, j])
        i = np.clip(np.searchsorted(mids, h, side="right") - 1, 0, m.n_cells - 2)
        delta = mids[i + 1] - mids[i]
        tau = (h - mids[i]) / delta
        lo[:, j] = i
        hi[:, j] = i + 1
        w_lo[:, j] = 1.0 - tau
        w_hi[:, j] = tau
    return lo, hi, w_lo, w_hi, active


def corner_stack(grid: TensorGrid, X: np.ndarray, active=None):
    """All ``2^q`` corner multi-indices and weights, stacked corner-major.

    Returns
    -------
    idx : (2^q * n, d) int array
        Corner ``c``'s multi-indices occupy rows ``c*n : (c+1)*n`` (binary
        counting over the active modes, bit ``b`` selecting ``hi`` for
        active mode ``b``).
    w : (2^q, n) float array
        Matching Eq. 5 weight products (signed at the fringe).
    active : (d,) bool array
        The resolved active-mode mask.
    """
    lo, hi, w_lo, w_hi, active = interpolation_weights(grid, X, active)
    n, d = lo.shape
    act = np.flatnonzero(active)
    C = 1 << len(act)
    idx = np.broadcast_to(lo, (C, n, d)).copy()
    w = np.ones((C, n))
    corners = np.arange(C)
    for b, j in enumerate(act):
        up = ((corners >> b) & 1).astype(bool)
        idx[up, :, j] = hi[:, j]
        w[up] *= w_hi[:, j]
        w[~up] *= w_lo[:, j]
    return idx.reshape(C * n, d), w, active


def interpolate(grid: TensorGrid, corner_eval, X: np.ndarray, active=None) -> np.ndarray:
    """Evaluate Eq. 5: blend ``corner_eval`` over the neighbouring corners.

    The ``2^q`` corner lattices are stacked into one ``(2^q * n, d)`` index
    array and ``corner_eval`` is invoked exactly *once*; the blend is then
    a single weighted reduction.  This keeps the whole prediction path
    inside vectorized kernels instead of ``2^q`` Python-level callback
    round-trips (see DESIGN.md).

    Parameters
    ----------
    corner_eval
        Callable mapping multi-indices ``(m, d)`` to tensor-element
        estimates ``(m,)`` — e.g. ``exp`` of a CP evaluation for the
        interpolation model, or the raw positive CP evaluation for the
        extrapolation model.  Must be a pure element-wise map: it is called
        with all corners of all configurations stacked along axis 0, and
        must return finite values (zero-weight corners are no longer
        skipped, so a non-finite estimate would poison the blend).
    active
        Optional per-mode interpolation mask (see
        :func:`interpolation_weights`); Section 5.3 disables interpolation
        along extrapolated modes by passing ``False`` there.
    """
    X = grid._check(X)
    if len(X) == 0:
        # Empty batches are legal (a serving microbatch can flush empty on
        # shutdown); never invoke ``corner_eval`` on zero corners, since
        # extrapolating corner evaluators assume at least one row.
        return np.zeros(0)
    idx, w, _ = corner_stack(grid, X, active)
    C, n = w.shape
    vals = np.asarray(corner_eval(idx), dtype=float).reshape(C, n)
    return np.einsum("cn,cn->n", w, vals)


def cp_blend(grid: TensorGrid, factors, corner_value, X: np.ndarray,
             active=None, rows=None) -> np.ndarray:
    """Eq. 5 over a CP model, with corner products built as a tree.

    Equals ``interpolate(grid, lambda idx: corner_value(cp_eval(factors,
    idx)), X, active)`` bit for bit, without the ``(2^q * n, d)`` index
    stack or its per-corner gathers.  Modes are walked in order over a
    ``(2^q, n, R)`` buffer whose first ``k`` slabs hold the row products
    of the corners seen so far: an active mode doubles it in place
    (``P[k:2k] = P[:k] * U_j[hi]``, then ``P[:k] *= U_j[lo]``), any
    other mode multiplies its ``k`` slabs by one row per configuration.
    Corner ``c`` therefore ends as the left-to-right mode product of
    ``cp_eval``, in :func:`corner_stack`'s binary-counting order.

    Parameters
    ----------
    factors
        CP factor matrices ``U_j``, shape ``(I_j, R)``.
    corner_value
        Element-wise map from raw CP values ``(2^q * n,)`` (corner-major)
        to the blended quantity, e.g. a clamped log element.
    active
        Optional per-mode interpolation mask (see
        :func:`interpolation_weights`).
    rows
        Optional ``{j: (n, R) array}`` of per-configuration factor rows
        replacing ``U_j`` along mode ``j`` (Section 5.3's extrapolated
        rows for out-of-domain modes, which must be inactive).
    """
    X = grid._check(X)
    n = len(X)
    if n == 0:
        return np.zeros(0)
    lo, hi, w_lo, w_hi, active = interpolation_weights(grid, X, active)
    rows = rows or {}
    C = 1 << int(active.sum())
    P = np.empty((C, n, factors[0].shape[1]))
    W = np.empty((C, n))
    P[0] = 1.0
    W[0] = 1.0
    k = 1
    for j, U in enumerate(factors):
        f_lo = rows[j] if j in rows else U[lo[:, j]]
        if active[j]:
            np.multiply(P[:k], U[hi[:, j]], out=P[k:2 * k])
            np.multiply(W[:k], w_hi[:, j], out=W[k:2 * k])
            W[:k] *= w_lo[:, j]
            P[:k] *= f_lo
            k *= 2
        else:
            P[:k] *= f_lo
    # Same reductions as ``cp_eval`` (row sums of a (C*n, R) array) and
    # ``interpolate`` (the corner-weighted einsum), so rounding matches.
    vals = np.asarray(corner_value(P.reshape(C * n, -1).sum(axis=1)), dtype=float)
    return np.einsum("cn,cn->n", W, vals.reshape(C, n))
