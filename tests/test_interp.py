"""Tests for Eq. 5 multilinear interpolation and fringe extrapolation."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.base import Parameter, ParameterSpace
from repro.core import CPRModel, TuckerModel
from repro.core.completion import cp_eval
from repro.core.grid import CategoricalMode, LogMode, TensorGrid, UniformMode
from repro.core.interp import cp_blend, interpolate, interpolation_weights


def _uniform_grid_2d():
    return TensorGrid([
        UniformMode("a", 0.0, 8.0, 8),
        UniformMode("b", 0.0, 8.0, 8),
    ])


class TestWeights:
    def test_interior_weights_sum_to_one(self):
        g = _uniform_grid_2d()
        X = np.array([[3.3, 4.7], [0.9, 7.2]])
        lo, hi, w_lo, w_hi, active = interpolation_weights(g, X)
        np.testing.assert_allclose(w_lo + w_hi, 1.0)
        assert active.all()

    def test_interior_weights_nonnegative(self):
        g = _uniform_grid_2d()
        # strictly between first and last midpoints
        X = np.array([[1.0, 6.5]])
        _, _, w_lo, w_hi, _ = interpolation_weights(g, X)
        assert np.all(w_lo >= 0) and np.all(w_hi >= 0)

    def test_fringe_weights_signed_but_affine(self):
        g = _uniform_grid_2d()
        # below the first midpoint (0.5): linear extrapolation territory
        X = np.array([[0.1, 4.0]])
        _, _, w_lo, w_hi, _ = interpolation_weights(g, X)
        assert w_lo[0, 0] > 1.0 and w_hi[0, 0] < 0.0
        np.testing.assert_allclose(w_lo + w_hi, 1.0)

    def test_midpoint_exact_hit(self):
        g = _uniform_grid_2d()
        X = np.array([[2.5, 3.5]])  # exact midpoints of cells 2 and 3
        lo, hi, w_lo, w_hi, _ = interpolation_weights(g, X)
        assert w_lo[0, 0] == pytest.approx(1.0)
        assert w_hi[0, 0] == pytest.approx(0.0)

    def test_categorical_mode_inactive(self):
        g = TensorGrid([UniformMode("a", 0, 4, 4), CategoricalMode("c", 3)])
        X = np.array([[2.0, 1.0]])
        lo, hi, w_lo, w_hi, active = interpolation_weights(g, X)
        assert not active[1]
        assert lo[0, 1] == hi[0, 1] == 1
        assert w_lo[0, 1] == 1.0 and w_hi[0, 1] == 0.0

    def test_explicit_active_mask_validates(self):
        g = TensorGrid([UniformMode("a", 0, 4, 4), CategoricalMode("c", 3)])
        with pytest.raises(ValueError):
            interpolation_weights(g, np.array([[1.0, 0.0]]),
                                  active=np.array([True, True]))

    def test_single_cell_mode_inactive(self):
        g = TensorGrid([UniformMode("a", 0, 4, 1), UniformMode("b", 0, 4, 4)])
        _, _, _, _, active = interpolation_weights(g, np.array([[1.0, 1.0]]))
        assert not active[0] and active[1]


class TestInterpolate:
    def test_exactly_reproduces_multilinear_function(self):
        """Eq. 5 on elements of a bilinear function must be exact."""
        g = _uniform_grid_2d()
        ma, mb = g.modes[0].midpoints, g.modes[1].midpoints

        def corner_eval(idx):
            return 2.0 * ma[idx[:, 0]] + 3.0 * mb[idx[:, 1]] + 1.0

        gen = np.random.default_rng(0)
        X = gen.uniform(0.5, 7.5, size=(100, 2))  # inside midpoint hull
        pred = interpolate(g, corner_eval, X)
        np.testing.assert_allclose(pred, 2.0 * X[:, 0] + 3.0 * X[:, 1] + 1.0,
                                   rtol=1e-12)

    def test_exact_on_product_form_bilinear(self):
        g = _uniform_grid_2d()
        ma, mb = g.modes[0].midpoints, g.modes[1].midpoints

        def corner_eval(idx):
            return ma[idx[:, 0]] * mb[idx[:, 1]]

        gen = np.random.default_rng(1)
        X = gen.uniform(0.5, 7.5, size=(50, 2))
        np.testing.assert_allclose(
            interpolate(g, corner_eval, X), X[:, 0] * X[:, 1], rtol=1e-12
        )

    def test_log_mode_interpolates_in_log_space(self):
        g = TensorGrid([LogMode("a", 1.0, 256.0, 8)])
        mids_h = g.modes[0].midpoints_h

        def corner_eval(idx):
            return 5.0 * mids_h[idx[:, 0]]  # linear in log(x)

        X = np.array([[3.0], [10.0], [100.0]])
        np.testing.assert_allclose(
            interpolate(g, corner_eval, X), 5.0 * np.log(X[:, 0]), rtol=1e-12
        )

    def test_fringe_is_linear_extrapolation(self):
        g = TensorGrid([UniformMode("a", 0.0, 8.0, 8)])
        mids = g.modes[0].midpoints

        def corner_eval(idx):
            return 2.0 * mids[idx[:, 0]]

        # beyond the last midpoint (7.5) but inside the domain
        X = np.array([[7.9], [0.05]])
        np.testing.assert_allclose(
            interpolate(g, corner_eval, X), 2.0 * X[:, 0], rtol=1e-12
        )

    def test_categorical_passthrough(self):
        g = TensorGrid([CategoricalMode("c", 3), UniformMode("b", 0, 4, 4)])
        table = np.array([10.0, 20.0, 30.0])
        mb = g.modes[1].midpoints

        def corner_eval(idx):
            return table[idx[:, 0]] + mb[idx[:, 1]]

        X = np.array([[0.0, 2.0], [2.0, 2.0]])
        np.testing.assert_allclose(
            interpolate(g, corner_eval, X), [12.0, 32.0]
        )

    def test_active_mask_disables_interpolation(self):
        g = _uniform_grid_2d()
        calls = []

        def corner_eval(idx):
            calls.append(idx.copy())
            return np.ones(len(idx))

        interpolate(g, corner_eval, np.array([[3.3, 4.7]]),
                    active=np.array([True, False]))
        # The fused blend makes exactly one stacked call, covering only the
        # 2 corners of the single active mode (not 4).
        assert len(calls) == 1
        assert calls[0].shape == (2, 2)
        # The inactive mode's index is fixed at its cell in both corners.
        assert np.all(calls[0][:, 1] == calls[0][0, 1])

    def test_weights_partition_constant_function(self):
        """Interpolating a constant must return the constant everywhere."""
        g = TensorGrid([
            LogMode("a", 1, 1024, 6),
            UniformMode("b", 0, 1, 4),
            CategoricalMode("c", 5),
        ])
        gen = np.random.default_rng(2)
        X = np.column_stack([
            np.exp(gen.uniform(0, np.log(1024), 200)),
            gen.uniform(0, 1, 200),
            gen.integers(0, 5, 200).astype(float),
        ])
        pred = interpolate(g, lambda idx: np.full(len(idx), 7.5), X)
        np.testing.assert_allclose(pred, 7.5, rtol=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    x=st.floats(0.01, 7.99),
    slope=st.floats(-5, 5),
    intercept=st.floats(-5, 5),
)
def test_property_univariate_linear_exact(x, slope, intercept):
    """1-D Eq. 5 reproduces any affine function exactly, fringe included."""
    g = TensorGrid([UniformMode("a", 0.0, 8.0, 8)])
    mids = g.modes[0].midpoints

    def corner_eval(idx):
        return slope * mids[idx[:, 0]] + intercept

    pred = interpolate(g, corner_eval, np.array([[x]]))
    assert pred[0] == pytest.approx(slope * x + intercept, rel=1e-9, abs=1e-9)


# -- CP product-tree blend: bit-identical to the stacked-corner blend ---------

#: Linear, log, categorical, and a mode discretized into a single cell.
_MIXED_SPACE = ParameterSpace([
    Parameter("a", role="config", low=1.0, high=64.0),
    Parameter("b", role="input", low=2.0, high=4096.0),
    Parameter("c", categories=("x", "y", "z")),
    Parameter("s", role="config", low=0.0, high=1.0),
])
_MIXED_CELLS = {"a": 6, "b": 5, "c": 3, "s": 1}


def _mixed_data(n=1500, seed=0):
    gen = np.random.default_rng(seed)
    X = _MIXED_SPACE.sample(n, gen)
    y = (
        1e-3 * X[:, 0] ** 0.8 * np.sqrt(X[:, 1]) * (1.0 + X[:, 2]) * (1.5 + X[:, 3])
        * np.exp(gen.normal(0.0, 0.02, n))
    )
    return X, y


@pytest.fixture(scope="module")
def blend_models():
    X, y = _mixed_data()
    kw = dict(space=_MIXED_SPACE, cells=_MIXED_CELLS, rank=3, seed=0)
    return {
        "log_mse": CPRModel(max_sweeps=15, **kw).fit(X, y),
        "mlogq2": CPRModel(loss="mlogq2", max_sweeps=6, **kw).fit(X, y),
        "tucker": TuckerModel(max_sweeps=10, **kw).fit(X, y),
    }


def _reference_predict(model, X):
    """``predict`` as stacked-corner ``interpolate`` computes it.

    The in-domain blend runs ``interpolate`` over ``_log_element``; rows
    outside the domain use the per-pattern corner evaluator that tiles
    extrapolated factor rows over the gathered corner stack.
    """
    X = model.validate_queries(X)
    policy = model.out_of_domain
    if policy == "auto":
        policy = "extrapolate" if model.loss == "mlogq2" else "clip"
    grid = model.grid_
    if policy == "clip":
        X = X.copy()
        for j, m in enumerate(grid.modes):
            if m.interpolates:
                X[:, j] = np.clip(X[:, j], m.edges[0], m.edges[-1])
    in_dom = grid.in_domain(X)
    fully_in = in_dom.all(axis=1)
    out = np.empty(len(X))
    if fully_in.any():
        out[fully_in] = np.exp(interpolate(grid, model._log_element, X[fully_in]))
    patterns = {}
    for r in np.flatnonzero(~fully_in):
        patterns.setdefault(tuple(np.flatnonzero(~in_dom[r])), []).append(r)
    scale = np.exp(model.offset_)
    for key, rows in patterns.items():
        Xg = X[rows]
        ext = {j: model._extrapolator(j).factor_rows(Xg[:, j]) for j in key}

        def corner_eval(idx, _ext=ext, _n=len(rows)):
            reps = len(idx) // _n
            prod = None
            for j, U in enumerate(model.factors_):
                f = np.tile(_ext[j], (reps, 1)) if j in _ext else U[idx[:, j]]
                prod = f.copy() if prod is None else prod * f
            return np.log(np.maximum(scale * prod.sum(axis=1), 1e-300))

        active = np.array([
            m.interpolates and m.n_cells > 1 and j not in ext
            for j, m in enumerate(grid.modes)
        ])
        out[rows] = np.exp(interpolate(grid, corner_eval, Xg, active=active))
    return np.maximum(out, 1e-16)


def _queries(grid, us, cats):
    """Configurations at fractions ``us`` of each numerical mode's span
    (in its transformed coordinate; outside [0, 1] leaves the domain)."""
    X = np.empty((len(us), grid.order))
    for j, m in enumerate(grid.modes):
        if not m.interpolates:
            X[:, j] = cats
            continue
        lo, hi = m.edges[0], m.edges[-1]
        u = np.array([row[j] for row in us])
        if isinstance(m, LogMode):
            X[:, j] = np.exp(np.log(lo) + u * (np.log(hi) - np.log(lo)))
        else:
            X[:, j] = lo + u * (hi - lo)
    return X


#: Per-mode position: interior, fringe (edge to first/last mid-point),
#: exactly on an edge, or out of the domain on either side.
_U = st.one_of(
    st.floats(0.0, 1.0),
    st.sampled_from([0.0, 1.0, 0.02, 0.98, 0.5]),
    st.floats(-0.5, -1e-3),
    st.floats(1.001, 1.5),
)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["log_mse", "mlogq2-clip", "mlogq2-extrapolate"]),
    rows=st.lists(
        st.tuples(st.lists(_U, min_size=4, max_size=4), st.integers(0, 2)),
        min_size=0,
        max_size=40,
    ),
)
def test_property_cp_blend_predict_bit_identical(blend_models, kind, rows):
    """CPRModel.predict (product tree) equals the stacked-corner blend
    bit for bit: both losses, both out-of-domain policies, fringe and
    out-of-domain rows, categorical and single-cell modes, any n."""
    loss, _, policy = kind.partition("-")
    model = blend_models[loss]
    model.out_of_domain = policy or "auto"
    try:
        X = _queries(model.grid_, [u for u, _ in rows], [c for _, c in rows])
        assert np.array_equal(model.predict(X), _reference_predict(model, X))
    finally:
        model.out_of_domain = "auto"


@pytest.mark.parametrize("loss", ["log_mse", "mlogq2"])
@pytest.mark.parametrize("n", [0, 1, 3000])
def test_cp_blend_matches_interpolate_over_cp_eval(blend_models, loss, n):
    model = blend_models[loss]
    gen = np.random.default_rng(n)
    X = _MIXED_SPACE.sample(n, gen) if n else np.empty((0, 4))

    def stacked(idx):
        return model._log_value(cp_eval(model.factors_, idx))

    got = cp_blend(model.grid_, model.factors_, model._log_value, X)
    assert np.array_equal(got, interpolate(model.grid_, stacked, X))
    assert np.array_equal(model.predict(X), _reference_predict(model, X))


def test_tucker_predict_keeps_stacked_corner_blend(blend_models):
    model = blend_models["tucker"]
    X = _MIXED_SPACE.sample(500, np.random.default_rng(3))
    X[:50, 0] = 100.0  # out of domain: clipped
    assert np.array_equal(model.predict(X), _reference_predict(model, X))
