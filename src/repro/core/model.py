"""``CPRModel`` — the public CP-completion performance model (Section 5).

Two configurations reproduce the paper's two formulations:

* ``loss="log_mse"`` (default) — Section 5.2's interpolation model: the
  observed cell means are log-transformed and centered, a CP decomposition
  is fitted with ALS (or CCD/SGD), and predictions exponentiate the CP
  output before Eq. 5 interpolation.  Positive output is implicit; no
  constraints are needed.
* ``loss="mlogq2"`` — Section 5.3's extrapolation model: the MLogQ2 loss is
  minimized by the interior-point AMN optimizer under strictly positive
  factors; out-of-domain queries synthesize factor rows from Perron rank-1
  + MARS spline extrapolators.

Example
-------
>>> from repro.apps import MatMul
>>> from repro.datasets import generate_dataset
>>> from repro.core import CPRModel
>>> app = MatMul()
>>> train = generate_dataset(app, 4096, seed=0)
>>> model = CPRModel(space=app.space, cells=16, rank=4, seed=0).fit(train.X, train.y)
>>> test = generate_dataset(app, 512, seed=1)
>>> err = model.score(test.X, test.y)   # MLogQ
"""
from __future__ import annotations

import numpy as np

from repro.apps.base import ParameterSpace
from repro.core.completion import (
    OPTIMIZERS,
    ObservationPlan,
    cp_eval,
    cp_size_bytes,
    resolve_backend,
)
from repro.core.extrap import ModeExtrapolator
from repro.core.grid import LogMode, TensorGrid, UniformMode
from repro.core.interp import cp_blend, interpolate
from repro.core.tensor import ObservedTensor
from repro.metrics import METRICS
from repro.utils.serialization import model_size_bytes
from repro.utils.validation import check_1d, check_matching_rows, check_positive

__all__ = ["CPRModel", "TuckerModel", "rank_attribution"]

_LOSSES = ("log_mse", "mlogq2")

#: Optimizers the ``rank="auto"`` configuration may dispatch to.
_AUTO_RANK_OPTIMIZERS = ("als_adaptive",)


def rank_attribution(model) -> dict:
    """Requested vs served rank of a fitted model, for manifests/stats.

    Returns ``{"rank": requested}`` plus ``{"adapted_rank": served}``
    when an adaptive fit landed on a different rank than requested (the
    ``rank="auto"`` path always does — the request is the string).  The
    serving layer stamps this into published manifests and engine stats
    so shadow-trial audits and Figure 7 size reporting compare models at
    the rank they actually serve.  Models without a rank concept
    (baseline pipelines) yield ``{}``.
    """
    tucker_rank = getattr(model, "tucker_rank", None)
    if tucker_rank is not None:
        # Tucker ranks are fixed per fit; there is no adaptation to report.
        return {
            "rank": tucker_rank
            if isinstance(tucker_rank, int)
            else list(tucker_rank)
        }
    rank = getattr(model, "rank", None)
    if rank is None:
        return {}
    out = {"rank": rank if isinstance(rank, (int, str)) else list(rank)}
    adapted = getattr(model, "adapted_rank_", None)
    if adapted is not None and adapted != rank:
        out["adapted_rank"] = int(adapted)
    return out


def _grid_from_data(X: np.ndarray, cells, scales=None) -> TensorGrid:
    """Build a grid directly from data ranges when no space is given."""
    n, d = X.shape
    if isinstance(cells, int):
        cells = [cells] * d
    cells = list(cells)
    if len(cells) != d:
        raise ValueError("cells list length must equal number of columns")
    if scales is not None and len(scales) != d:
        raise ValueError(
            f"scales list length ({len(scales)}) must equal the number of "
            f"data columns ({d})"
        )
    modes = []
    for j in range(d):
        col = X[:, j]
        low, high = float(col.min()), float(col.max())
        if low == high:
            high = low + max(abs(low) * 1e-9, 1e-12)
        scale = None if scales is None else scales[j]
        if scale is None:
            scale = "log" if low > 0 else "linear"
        cls = LogMode if scale == "log" else UniformMode
        modes.append(cls(f"x{j}", low, high, int(cells[j])))
    return TensorGrid(modes)


class CPRModel:
    """CP tensor-completion performance model (the paper's CPR).

    Parameters
    ----------
    space
        Optional :class:`~repro.apps.base.ParameterSpace`; supplies
        per-parameter scales (log/linear) and categorical structure.  When
        omitted, every column is treated as numerical with log spacing for
        strictly positive columns.
    cells
        Sub-intervals per numerical mode (int, dict by name, or list); the
        paper sweeps 4..256.
    rank
        CP rank ``R`` (paper sweeps 1..64).
    loss
        ``"log_mse"`` (interpolation model) or ``"mlogq2"`` (positive
        extrapolation model).
    optimizer
        ``"als"``, ``"ccd"`` or ``"sgd"`` for ``log_mse``; forced to
        ``"amn"`` for ``mlogq2``.  Default: ``"als"`` / ``"amn"``.
    regularization
        Eq. 3's lambda (paper sweeps ``1e-6 .. 1e-3``).
    max_sweeps, tol
        Optimizer sweep budget and relative-decrease tolerance.
    out_of_domain
        Policy for queries outside the modeling domain: ``"auto"``
        (extrapolate via Section 5.3 for ``mlogq2``; clamp to the domain
        boundary for ``log_mse``, whose factors are not positivity-
        constrained), ``"raise"``, ``"clip"``, or ``"extrapolate"``.
    seed
        Seed for factor initialization (and SGD sampling).
    opt_params
        Extra keyword arguments forwarded to the optimizer (e.g.
        ``newton_iters`` for AMN, ``batch_size`` for SGD).
    """

    def __init__(
        self,
        space: ParameterSpace | None = None,
        cells=16,
        rank: int = 4,
        loss: str = "log_mse",
        optimizer: str | None = None,
        regularization: float = 1e-5,
        max_sweeps: int = 50,
        tol: float = 1e-5,
        out_of_domain: str = "auto",
        seed=0,
        scales=None,
        **opt_params,
    ):
        if loss not in _LOSSES:
            raise ValueError(f"loss must be one of {_LOSSES}, got {loss!r}")
        if isinstance(rank, str) and rank != "auto":
            raise ValueError(f"rank must be an int or 'auto', got {rank!r}")
        auto_rank = rank == "auto"
        if loss == "mlogq2":
            if auto_rank:
                raise ValueError(
                    "rank='auto' requires loss='log_mse' (the adaptive "
                    "grow/prune loop is ALS-based)"
                )
            if optimizer not in (None, "amn"):
                raise ValueError("loss='mlogq2' requires the 'amn' optimizer")
            optimizer = "amn"
        else:
            optimizer = optimizer or ("als_adaptive" if auto_rank else "als")
            if optimizer == "amn":
                raise ValueError("optimizer 'amn' requires loss='mlogq2'")
            if auto_rank and optimizer not in _AUTO_RANK_OPTIMIZERS:
                # "als" is the natural spelling; it auto-upgrades.
                if optimizer == "als":
                    optimizer = "als_adaptive"
                else:
                    raise ValueError(
                        f"rank='auto' requires an adaptive optimizer "
                        f"({', '.join(_AUTO_RANK_OPTIMIZERS)}), "
                        f"got {optimizer!r}"
                    )
        if optimizer not in OPTIMIZERS:
            raise ValueError(f"unknown optimizer {optimizer!r}")
        if out_of_domain not in ("auto", "raise", "clip", "extrapolate"):
            raise ValueError(f"bad out_of_domain {out_of_domain!r}")
        self.space = space
        self.cells = cells
        self.rank = "auto" if auto_rank else int(rank)
        self.loss = loss
        self.optimizer = optimizer
        self.regularization = float(regularization)
        self.max_sweeps = int(max_sweeps)
        self.tol = float(tol)
        self.out_of_domain = out_of_domain
        self.seed = seed
        self.scales = scales
        self.opt_params = opt_params

    # -- fitting --------------------------------------------------------------

    def fit(self, X, y) -> "CPRModel":
        """Discretize, assemble the observed tensor, and run completion."""
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X[:, None]
        y = check_positive(check_1d(y, "y"), "y")
        check_matching_rows(X, y)
        if self.space is not None:
            X = self.space.validate(X)
            self.grid_ = TensorGrid.from_space(self.space, self.cells, X=X)
        else:
            self.grid_ = _grid_from_data(X, self.cells, self.scales)
        tensor = ObservedTensor.from_data(self.grid_, X, y)
        self.tensor_ = tensor

        if self.loss == "log_mse":
            logs = tensor.log_values()
            self.offset_ = float(np.mean(logs))
            targets = logs - self.offset_
            # Element clamp for unobserved cells: a CP model is unconstrained
            # where nothing was observed, and exponentiating a wild log value
            # overflows.  Interpolated elements are clamped to the observed
            # log range plus a generous margin (e^8 ~ 3000x headroom).
            self._log_lo = float(logs.min()) - 8.0
            self._log_hi = float(logs.max()) + 8.0
        else:
            self.offset_ = float(np.mean(np.log(tensor.values)))
            targets = tensor.values / np.exp(self.offset_)

        self._observed_rows_ = None
        self._plan_ = None
        self._run_completion(tensor, targets, warm_start=False)
        self._impute_unobserved_rows()
        self._extrapolators: dict[int, ModeExtrapolator] = {}
        return self

    def _completion_plan(self, tensor):
        """Reuse (or rebuild) the fit-wide observation plan for a solve.

        The plan depends only on the observed index set; a streaming
        ``partial_fit`` whose new measurements all landed in
        already-observed cells therefore reuses the previous fit's
        argsorts, segment bounds, and Khatri-Rao buffers verbatim — the
        dominant cost of setting up a sweep.  Any change to the index set
        (new cells, widened grid) invalidates and rebuilds.
        """
        plan = getattr(self, "_plan_", None)
        if plan is None:
            plan = ObservationPlan(self.grid_.shape, tensor.indices)
        else:
            plan = plan.extended(self.grid_.shape, tensor.indices)
        self._plan_ = plan
        return plan

    def _run_completion(self, tensor, targets, warm_start: bool) -> None:
        """Optimize the decomposition; subclasses swap the model family."""
        fn = OPTIMIZERS[self.optimizer]
        kwargs = dict(self.opt_params)
        if warm_start:
            kwargs["factors"] = self.factors_
        if getattr(fn, "accepts_kernel", False):
            # Resolve the kernel backend once per fit (env override >
            # explicit config > calibrated best) and hand the optimizer
            # the resolved object, so selection policy and manifest
            # attribution cannot disagree.  Plan caching/reuse is gated
            # on the backend's capability, not a name comparison: any
            # plan-reuse backend gets the fit-wide ObservationPlan.
            backend = resolve_backend(kwargs.pop("kernel", None))
            kwargs["kernel"] = backend
            if backend.supports_plan_reuse:
                kwargs["plan"] = self._completion_plan(tensor)
            if warm_start and not backend.supports_partial_fit:
                # A backend without warm-start support refits cold.
                kwargs.pop("factors", None)
            self.fit_backend_ = backend.name
        else:
            if "kernel" in kwargs:
                raise ValueError(
                    f"optimizer {self.optimizer!r} has no kernel backends; "
                    "the kernel option applies to als/amn only"
                )
            self.fit_backend_ = None
            if getattr(fn, "accepts_plan", False):
                # No backend, but the optimizer still reuses the
                # fit-wide observation plan across warm starts.
                kwargs["plan"] = self._completion_plan(tensor)
        self.result_ = fn(
            self.grid_.shape,
            tensor.indices,
            targets,
            rank=self.rank,
            regularization=self.regularization,
            max_sweeps=self.max_sweeps,
            tol=self.tol,
            seed=self.seed,
            **kwargs,
        )
        self.factors_ = self.result_.factors
        # The rank the model actually serves: an adaptive fit may land on
        # a different rank than configured (rank="auto" always does).
        self.adapted_rank_ = int(self.factors_[0].shape[1])
        trajectory = getattr(self.result_, "rank_trajectory", None)
        self.rank_trajectory_ = list(trajectory) if trajectory else None

    def _factor_list(self) -> list:
        """Per-mode factor matrices (hook for non-CP decompositions)."""
        return self.factors_

    def _model_value(self, indices: np.ndarray) -> np.ndarray:
        """Raw decomposition values at multi-indices."""
        return cp_eval(self.factors_, indices)

    # -- streaming updates (paper Section 8's online setting) -----------------

    def partial_fit(self, X, y, max_sweeps: int | None = None) -> "CPRModel":
        """Fold new measurements into the model without refitting from scratch.

        The paper's conclusion highlights "efficiently updating CP
        decompositions to model streaming data in online settings" as an
        open direction; this implements the natural baseline: merge the new
        observations into the per-cell running means (counts-weighted) and
        warm-start a few optimizer sweeps from the current factors.

        The grid is fixed at the first ``fit``; configurations outside the
        original modeling domain are clipped into its edge cells.  An empty
        batch is an exact no-op (the streaming trainer may flush between
        arrivals), and a model restored by ``load_model`` updates like a
        never-persisted one: the persisted payload carries the observed
        tensor (see ``__getstate_fit__``) unless it was saved with
        ``fit_state=False``.
        """
        self._require_fitted()
        if not hasattr(self, "tensor_"):
            raise RuntimeError(
                "partial_fit needs the observed tensor; this model was "
                "restored from a prediction-only snapshot "
                "(save_model(..., fit_state=False))"
            )
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X[:, None]
        y = check_positive(check_1d(y, "y"), "y")
        check_matching_rows(X, y)
        if len(y) == 0:
            return self
        if self.space is not None:
            X = self.space.validate(X)
        new = ObservedTensor.from_data(self.grid_, X, y)
        self.tensor_ = self.tensor_.merge(new)
        self._observed_rows_ = None

        if self.loss == "log_mse":
            targets = self.tensor_.log_values() - self.offset_
        else:
            targets = self.tensor_.values / np.exp(self.offset_)
        sweeps = max_sweeps if max_sweeps is not None else max(self.max_sweeps // 5, 2)
        saved = self.max_sweeps
        try:
            self.max_sweeps = sweeps
            self._run_completion(self.tensor_, targets, warm_start=True)
        finally:
            self.max_sweeps = saved
        self._impute_unobserved_rows()
        self._extrapolators = {}
        return self

    def _impute_unobserved_rows(self) -> None:
        """Fill factor rows that no observation touched.

        Completion leaves a row of ``U_j`` at its initialization when no
        observed cell has that mode index (common when measured parameter
        values cluster — e.g. power-of-two node counts on a finer grid).
        Eq. 5 would then blend garbage neighbours into predictions.  Each
        missing row is interpolated column-wise from the nearest observed
        rows along the mode's transformed coordinate (log-factor space for
        the positive model, whose factors are multiplicative), with
        constant extension at the ends; categorical modes use the mean of
        the observed rows.
        """
        for j, U in enumerate(self._factor_list()):
            obs = self._observed_per_mode()[j]
            if len(obs) == U.shape[0]:
                continue
            missing = np.setdiff1d(np.arange(U.shape[0]), obs)
            mode = self.grid_.modes[j]
            positive = self.loss == "mlogq2"
            if not mode.interpolates:
                row = (
                    np.exp(np.mean(np.log(np.maximum(U[obs], 1e-300)), axis=0))
                    if positive
                    else U[obs].mean(axis=0)
                )
                U[missing] = row
                continue
            h = mode.midpoints_h
            src = np.log(np.maximum(U[obs], 1e-300)) if positive else U[obs]
            for c in range(U.shape[1]):
                filled = np.interp(h[missing], h[obs], src[:, c])
                U[missing, c] = np.exp(filled) if positive else filled

    def _observed_per_mode(self) -> list:
        """Per-mode sorted arrays of factor-row indices touched by data.

        Derived from the observation tensor and cached; the minimal
        persisted state stores these small arrays instead of the tensor,
        which keeps out-of-domain extrapolation working after reload.
        """
        if getattr(self, "_observed_rows_", None) is None:
            self._observed_rows_ = [
                np.unique(self.tensor_.indices[:, j])
                for j in range(self.grid_.order)
            ]
        return self._observed_rows_

    def _require_fitted(self):
        if not hasattr(self, "factors_"):
            raise RuntimeError("model is not fitted; call fit(X, y) first")

    # -- element estimation ----------------------------------------------------

    def _log_element(self, indices: np.ndarray) -> np.ndarray:
        """Log-space element estimates at multi-indices (the blend input)."""
        return self._log_value(self._model_value(indices))

    def _log_value(self, val: np.ndarray) -> np.ndarray:
        """Raw decomposition values -> log-space element estimates.

        ``log_mse`` clamps ``offset + val`` to the observed log range;
        ``mlogq2`` takes the log of the positive element, floored at
        ``1e-300``.

        The paper's Section 5.2 display blends exponentiated elements
        ``e^that``; we blend in log space and exponentiate the blend, i.e.
        a geometric rather than arithmetic corner mean.  The two coincide
        as corner values agree, but the geometric blend bounds the damage
        of a wildly mispredicted *unobserved* corner cell to its weight
        share — in sparse high-dimensional tensors this is the difference
        between a usable and a broken interpolant (see DESIGN.md).
        """
        if self.loss == "log_mse":
            return np.clip(self.offset_ + val, self._log_lo, self._log_hi)
        return np.log(np.maximum(np.exp(self.offset_) * val, 1e-300))

    def _log_blend(self, X, active=None, rows=None) -> np.ndarray:
        """Eq. 5 blend of log elements over ``X``'s corners.

        CP models evaluate it as a product tree (:func:`cp_blend`);
        ``rows`` substitutes extrapolated factor rows along out-of-domain
        modes.
        """
        return cp_blend(self.grid_, self.factors_, self._log_value, X, active, rows)

    def _extrapolator(self, j: int) -> ModeExtrapolator:
        if self.loss != "mlogq2":
            raise ValueError(
                "out-of-domain extrapolation requires loss='mlogq2' "
                "(strictly positive factor matrices, Section 5.3)"
            )
        if j not in self._extrapolators:
            mode = self.grid_.modes[j]
            if not mode.interpolates:
                raise ValueError(
                    f"cannot extrapolate categorical mode {mode.name!r}"
                )
            observed = np.zeros(mode.n_cells, dtype=bool)
            observed[self._observed_per_mode()[j]] = True
            self._extrapolators[j] = ModeExtrapolator.fit(
                mode, self._factor_list()[j], observed=observed
            )
        return self._extrapolators[j]

    # -- prediction -------------------------------------------------------------

    def validate_queries(self, X) -> np.ndarray:
        """Normalize a prediction batch to a finite ``(n, d)`` float array.

        The single validation gate for every prediction entry point:
        :meth:`predict` calls it inline, and the serving layer
        (:class:`repro.serve.PredictionEngine`) calls it to reject a bad
        batch *before* it reaches the vectorized kernels, so one malformed
        query in a microbatch cannot poison its batchmates' results.

        Raises ``ValueError`` on wrong dimensionality, a column-count
        mismatch with the fitted grid, or non-finite entries (NaN would
        silently propagate through the corner blend as garbage).
        """
        self._require_fitted()
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X[:, None]
        if X.ndim != 2:
            raise ValueError(f"X must be 2-dimensional, got shape {X.shape}")
        if X.shape[1] != self.grid_.order:
            raise ValueError(
                f"X must have {self.grid_.order} columns, got {X.shape[1]}"
            )
        if X.size and not np.all(np.isfinite(X)):
            bad = np.flatnonzero(~np.isfinite(X).all(axis=1))[:5]
            raise ValueError(
                f"queries contain non-finite values (rows {bad.tolist()}...)"
            )
        return X

    def describe(self) -> dict:
        """JSON-serializable summary of the fitted model's query contract.

        Served to clients (the ``models`` op of :mod:`repro.serve.server`)
        so they can discover column order, per-mode domains, and scales
        without deserializing the model itself.
        """
        self._require_fitted()
        modes = []
        for m in self.grid_.modes:
            entry = {
                "name": m.name,
                "kind": type(m).__name__,
                "cells": int(m.n_cells),
                "interpolates": bool(m.interpolates),
            }
            if hasattr(m, "edges"):
                entry["low"] = float(m.edges[0])
                entry["high"] = float(m.edges[-1])
            modes.append(entry)
        return {
            "class": type(self).__name__,
            "loss": self.loss,
            "rank": self.rank,
            "adapted_rank": getattr(self, "adapted_rank_", None),
            "order": self.grid_.order,
            "shape": list(self.grid_.shape),
            "out_of_domain": self.out_of_domain,
            "fit_backend": getattr(self, "fit_backend_", None),
            "modes": modes,
        }

    def predict(self, X, *, validate: bool = True) -> np.ndarray:
        """Predicted execution times for configurations ``X``.

        Batched end to end: all rows of ``X`` flow through one
        corner-blend evaluation (the CP product tree of
        :func:`repro.core.interp.cp_blend`; Tucker models use
        :func:`repro.core.interp.interpolate`), so this is also the
        serving fast path — callers should pass query
        *batches*, not loop per point.  ``validate=False`` skips
        :meth:`validate_queries` for callers that already ran it (the
        serving engine validates per request before microbatch coalescing;
        re-scanning each flush would be pure overhead).
        """
        if validate:
            X = self.validate_queries(X)
        else:
            self._require_fitted()
            X = np.asarray(X, dtype=float)
        policy = self.out_of_domain
        if policy == "auto":
            policy = "extrapolate" if self.loss == "mlogq2" else "clip"

        in_dom = self.grid_.in_domain(X)
        fully_in = in_dom.all(axis=1)
        if not fully_in.all():
            if policy == "raise":
                bad = np.flatnonzero(~fully_in)[:5]
                raise ValueError(
                    f"{int((~fully_in).sum())} configuration(s) outside the "
                    f"modeling domain (rows {bad.tolist()}...); use "
                    "loss='mlogq2' with out_of_domain='extrapolate', or 'clip'"
                )
            if policy == "clip":
                X = X.copy()
                for j, m in enumerate(self.grid_.modes):
                    if not m.interpolates:
                        continue  # bad categorical indices always raise
                    X[:, j] = np.clip(X[:, j], m.edges[0], m.edges[-1])
                in_dom = self.grid_.in_domain(X)
                fully_in = in_dom.all(axis=1)

        # Both model flavours blend *log* elements (a geometric corner
        # mean): it is robust to unobserved-cell garbage for the log_mse
        # model, and keeps fringe linear-extrapolation positive for the
        # mlogq2 model (linear-space extrapolation of a steep positive
        # slope — e.g. the 1-node -> 2-node broadcast jump — goes negative).
        out = np.empty(len(X))
        if fully_in.any():
            rows = np.flatnonzero(fully_in)
            out[rows] = np.exp(self._log_blend(X[rows]))
        if not fully_in.all():
            self._predict_extrapolated(X, in_dom, ~fully_in, out)
        # Signed fringe weights can produce non-positive blends; clamp to a
        # tiny positive time as the paper does before MLogQ evaluation.
        return np.maximum(out, 1e-16)

    def _predict_extrapolated(self, X, in_dom, rows_mask, out) -> None:
        """Handle rows with at least one out-of-domain numerical mode."""
        rows = np.flatnonzero(rows_mask)
        patterns: dict[tuple, list] = {}
        for r in rows:
            key = tuple(np.flatnonzero(~in_dom[r]))
            patterns.setdefault(key, []).append(r)
        for key, rlist in patterns.items():
            ridx = np.asarray(rlist, dtype=np.intp)
            Xg = X[ridx]
            ext_rows = {j: self._extrapolator(j).factor_rows(Xg[:, j]) for j in key}
            active = np.array(
                [
                    m.interpolates and m.n_cells > 1 and (j not in ext_rows)
                    for j, m in enumerate(self.grid_.modes)
                ]
            )
            out[ridx] = np.exp(self._log_blend(Xg, active, ext_rows))

    # -- assessment ---------------------------------------------------------------

    def score(self, X, y, metric: str = "mlogq") -> float:
        """Prediction error of the model on ``(X, y)`` under ``metric``."""
        fn = METRICS[metric]
        return fn(self.predict(X), np.asarray(y, dtype=float))

    # -- size accounting -------------------------------------------------------------

    @property
    def n_parameters(self) -> int:
        """Number of model coefficients ``R * sum_j I_j``."""
        self._require_fitted()
        return sum(U.size for U in self.factors_)

    @property
    def factor_bytes(self) -> int:
        """Raw factor storage (paper's linear-in-order model size)."""
        self._require_fitted()
        return cp_size_bytes(self.factors_)

    def __getstate_for_size__(self):
        """Minimal-but-complete prediction state.

        This single state is both *measured* by ``size_bytes`` (the
        paper's Figure 7 model-size metric) and *persisted* by
        :func:`repro.utils.serialization.save_model`, so reported and
        on-disk sizes agree by construction.  It carries everything
        ``predict``/``score`` need — factors, the discretization grid,
        the log offset and clamps, and the per-mode observed-row index
        sets that rebuild extrapolators lazily — and drops fit-time
        buffers (the observation tensor and optimizer result).
        """
        self._require_fitted()
        state = {
            "factors": self.factors_,
            "grid": self.grid_,
            "offset": self.offset_,
            "loss": self.loss,
            "out_of_domain": self.out_of_domain,
            "rank": self.rank,
            "observed": self._observed_per_mode(),
            # A few scalar knobs so repr/refit on a restored model use the
            # original configuration (the parameter space itself is not
            # persisted — refitting needs it re-supplied).
            "config": {
                "optimizer": self.optimizer,
                "regularization": self.regularization,
                "max_sweeps": self.max_sweeps,
                "tol": self.tol,
                "seed": self.seed,
                "cells": self.cells,
                "scales": self.scales,
                "opt_params": self.opt_params,
                # Which kernel backend fitted the persisted factors —
                # the serving layer surfaces this (manifest meta, engine
                # stats) so a served prediction is attributable.
                "fit_backend": getattr(self, "fit_backend_", None),
            },
        }
        if self.loss == "log_mse":
            state["log_bounds"] = (self._log_lo, self._log_hi)
        # Stored only when the served rank differs from the requested one
        # (always for rank="auto"): fixed-rank states stay byte-identical
        # to pre-adaptive serializations.
        adapted = getattr(self, "adapted_rank_", None)
        if adapted is not None and adapted != self.rank:
            state["adapted_rank"] = int(adapted)
        return state

    def __getstate_fit__(self) -> dict | None:
        """Compact fit-time state enabling ``partial_fit`` after restore.

        The observed tensor (cell multi-indices, running means, counts) is
        the *sufficient statistic* of everything a warm-start update
        needs — merging new measurements into it reproduces exactly the
        tensor a never-persisted model would hold.  It is persisted
        alongside (not inside) the minimal prediction state, so the
        Figure 7 size metric (``size_bytes``) keeps measuring the
        prediction state only; see ``repro.utils.serialization``.
        """
        if not hasattr(self, "tensor_"):
            return None
        # Counts are persisted as float (the dtype `ObservedTensor.merge`
        # produces) so a fitted-then-updated model and a restored-then-
        # updated one serialize identically.
        return {
            "indices": self.tensor_.indices,
            "values": self.tensor_.values,
            "counts": np.asarray(self.tensor_.counts, dtype=float),
        }

    def _restore_fit_state(self, fit: dict) -> None:
        """Rebuild ``tensor_`` from :meth:`__getstate_fit__` (post-restore)."""
        self.tensor_ = ObservedTensor(
            grid=self.grid_,
            indices=np.asarray(fit["indices"], dtype=np.intp),
            values=np.asarray(fit["values"], dtype=float),
            counts=np.asarray(fit["counts"], dtype=float),
        )

    @classmethod
    def _from_minimal_state(cls, state: dict) -> "CPRModel":
        """Rebuild a predict-capable model from :meth:`__getstate_for_size__`.

        The restored model predicts identically to the original and keeps
        its hyper-parameter configuration.  ``loads_model`` additionally
        restores the observed tensor when the payload carries it (the
        default), making ``partial_fit`` work on restored models;
        refitting with a parameter space requires setting ``.space``
        again (spaces may hold non-persistable constraint callables).
        """
        m = object.__new__(cls)
        m.grid_ = state["grid"]
        m.factors_ = list(state["factors"])
        m.offset_ = float(state["offset"])
        m.loss = state["loss"]
        m.out_of_domain = state.get("out_of_domain", "auto")
        rank = state["rank"]
        m.rank = "auto" if rank == "auto" else int(rank)
        if "adapted_rank" in state:
            m.adapted_rank_ = int(state["adapted_rank"])
        elif isinstance(m.rank, int):
            m.adapted_rank_ = m.rank
        m._observed_rows_ = list(state["observed"])
        m._extrapolators = {}
        m._plan_ = None
        if "log_bounds" in state:
            m._log_lo, m._log_hi = (float(v) for v in state["log_bounds"])
        m.space = None
        config = state.get("config", {})
        m.optimizer = config.get("optimizer", "amn" if m.loss == "mlogq2" else "als")
        m.regularization = config.get("regularization", 1e-5)
        m.max_sweeps = config.get("max_sweeps", 50)
        m.tol = config.get("tol", 1e-5)
        m.seed = config.get("seed", 0)
        m.cells = config.get("cells", list(m.grid_.shape))
        m.scales = config.get("scales")
        m.opt_params = dict(config.get("opt_params", {}))
        m.fit_backend_ = config.get("fit_backend")
        return m

    @property
    def size_bytes(self) -> int:
        """Serialized model size (the paper's Figure 7 measurement)."""
        return model_size_bytes(self)

    def __repr__(self):
        fitted = hasattr(self, "factors_")
        extra = f", shape={self.grid_.shape}" if fitted else ""
        return (
            f"CPRModel(rank={self.rank}, loss={self.loss!r}, "
            f"optimizer={self.optimizer!r}{extra})"
        )


class TuckerModel(CPRModel):
    """Tucker-decomposition variant of the grid model (paper future work).

    Same discretization, log transform, and Eq. 5 interpolation as
    :class:`CPRModel`, with the CP decomposition replaced by a Tucker model
    (core tensor + per-mode factors) fitted by alternating ridge least
    squares.  ``rank`` may be an int (same per mode) or a per-mode tuple.

    Tucker's core grows as ``prod_j R_j``, so it is only practical for
    low/moderate tensor orders — the ablation benchmark quantifies exactly
    the size blow-up the paper avoids by choosing CP.  Extrapolation
    (Section 5.3) is CP-specific and unavailable here.
    """

    def __init__(
        self,
        space: ParameterSpace | None = None,
        cells=16,
        rank=4,
        regularization: float = 1e-5,
        max_sweeps: int = 50,
        tol: float = 1e-5,
        out_of_domain: str = "auto",
        seed=0,
        scales=None,
        **opt_params,
    ):
        super().__init__(
            space=space,
            cells=cells,
            rank=1,  # placeholder; Tucker ranks are handled below
            loss="log_mse",
            optimizer="als",
            regularization=regularization,
            max_sweeps=max_sweeps,
            tol=tol,
            out_of_domain=out_of_domain,
            seed=seed,
            scales=scales,
            **opt_params,
        )
        self.tucker_rank = rank

    def _run_completion(self, tensor, targets, warm_start: bool) -> None:
        from repro.core.completion.tucker import complete_tucker

        # The Tucker solver has no registered kernel backends (yet); its
        # fits carry no backend attribution.
        self.fit_backend_ = None
        # Warm starts re-run from the current state is not supported by the
        # Tucker solver; it refits (still cheap at these core sizes).
        self.result_ = complete_tucker(
            self.grid_.shape,
            tensor.indices,
            targets,
            rank=self.tucker_rank,
            regularization=self.regularization,
            max_sweeps=self.max_sweeps,
            tol=self.tol,
            seed=self.seed,
            **self.opt_params,
        )
        self.tucker_ = self.result_.factors[0]
        self.factors_ = self.tucker_.factors  # for shared bookkeeping

    def _factor_list(self) -> list:
        return self.tucker_.factors

    def _model_value(self, indices: np.ndarray) -> np.ndarray:
        return self.tucker_.eval_at(indices)

    def _log_blend(self, X, active=None, rows=None) -> np.ndarray:
        # A Tucker core couples every mode, so there is no product tree:
        # evaluate the stacked corners through the generic blend.
        return interpolate(self.grid_, self._log_element, X, active)

    def _extrapolator(self, j: int):
        raise ValueError(
            "Section 5.3 extrapolation is specific to positive CP "
            "decompositions; TuckerModel supports interpolation only"
        )

    @property
    def n_parameters(self) -> int:
        self._require_fitted()
        return self.tucker_.core.size + sum(U.size for U in self.tucker_.factors)

    @property
    def factor_bytes(self) -> int:
        self._require_fitted()
        return self.tucker_.size_bytes()

    def __getstate_for_size__(self):
        state = super().__getstate_for_size__()
        state["core"] = self.tucker_.core
        state["tucker_rank"] = self.tucker_rank
        return state

    @classmethod
    def _from_minimal_state(cls, state: dict) -> "TuckerModel":
        from repro.core.completion.tucker import TuckerFactors

        m = super()._from_minimal_state(state)
        m.tucker_ = TuckerFactors(np.asarray(state["core"]), m.factors_)
        m.tucker_rank = state.get("tucker_rank", m.tucker_.ranks)
        return m

    def __repr__(self):
        fitted = hasattr(self, "tucker_")
        extra = f", shape={self.grid_.shape}" if fitted else ""
        return f"TuckerModel(rank={self.tucker_rank}{extra})"
