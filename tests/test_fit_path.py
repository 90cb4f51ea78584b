"""The ALS fit path's data-movement primitives, and its index checks.

``ObservationPlan`` range-checks the observation indices once, after
which ``khatri_rao`` gathers without per-element bounds checks,
``ModePlan.pad`` fills its padded buffer with one gather through a map
whose padding slots point at a zero row, and ``cp_eval`` gathers with
``np.take``.  Each is pure data movement, so each is compared bit for bit
(``np.array_equal``, not ``allclose``) with the indexing it replaced.
Every completion optimizer rejects out-of-range indices up front.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.completion import (
    ObservationPlan,
    complete_als,
    complete_als_adaptive,
    complete_als_regularized,
    complete_amn,
    complete_ccd,
    complete_lm,
    complete_sgd,
    cp_eval,
    khatri_rao_rows,
    registered_backends,
)
from repro.core.completion.tucker import complete_tucker


def _old_cp_eval(factors, indices):
    """``cp_eval`` as it was: fancy-index gathers, same product order."""
    prod = factors[0][indices[:, 0]].copy()
    for j in range(1, len(factors)):
        prod *= factors[j][indices[:, j]]
    return prod.sum(axis=1)


def _scatter_pad(mp, arr):
    """``ModePlan.pad`` as it was: a 2-D scatter into a zeroed buffer."""
    buf = np.zeros((mp.n_obs, mp.max_count) + arr.shape[1:])
    buf[mp.seg, mp.offsets] = arr
    return buf


def _padding_mask(mp):
    """True at the padded slots no observation fills."""
    mask = np.ones((mp.n_obs, mp.max_count), dtype=bool)
    mask[mp.seg, mp.offsets] = False
    return mask


@st.composite
def problems(draw):
    """Shapes with single-row modes, unobserved rows and skewed modes."""
    d = draw(st.integers(2, 4))
    shape = tuple(draw(st.integers(1, 7)) for _ in range(d))
    nnz = draw(st.integers(1, 60))
    rank = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    idx = np.stack([rng.integers(0, I, nnz) for I in shape], axis=1)
    if draw(st.booleans()):
        # Skew: most observations share row 0 of mode 0.
        idx[: (3 * nnz) // 4, 0] = 0
    if draw(st.booleans()) and shape[-1] > 1:
        # An unobserved row in the last mode.
        idx[idx[:, -1] == shape[-1] - 1, -1] = 0
    factors = [rng.standard_normal((I, rank)) for I in shape]
    return shape, idx, factors, rng


class TestPrimitivesBitwise:
    @settings(max_examples=80, deadline=None)
    @given(problems())
    def test_khatri_rao_matches_unsorted_rows(self, problem):
        shape, idx, factors, _ = problem
        plan = ObservationPlan(shape, idx)
        for j in range(len(shape)):
            expected = khatri_rao_rows(factors, idx, skip=j)[plan.mode(j).order]
            assert np.array_equal(plan.khatri_rao(factors, j), expected)

    @settings(max_examples=80, deadline=None)
    @given(problems())
    def test_pad_matches_scatter_on_repeated_calls(self, problem):
        shape, idx, factors, rng = problem
        rank = factors[0].shape[1]
        plan = ObservationPlan(shape, idx)
        for _ in range(3):
            for j in range(len(shape)):
                mp = plan.mode(j)
                # A Khatri-Rao call in between writes the shared scratch.
                plan.khatri_rao(factors, j)
                for slot in ("a", "b"):
                    arr = rng.standard_normal((len(idx), rank)) + 5.0
                    padded = mp.pad(arr, slot=slot)
                    assert np.array_equal(padded, _scatter_pad(mp, arr))
                    assert not padded[_padding_mask(mp)].any()

    @settings(max_examples=80, deadline=None)
    @given(problems())
    def test_cp_eval_matches_fancy_index_loop(self, problem):
        shape, idx, factors, _ = problem
        assert np.array_equal(cp_eval(factors, idx), _old_cp_eval(factors, idx))

    def test_single_observation_rank_one(self):
        shape = (1, 3, 1)
        idx = np.array([[0, 2, 0]])
        factors = [np.array([[1.5]]), np.array([[2.0], [3.0], [-0.5]]),
                   np.array([[4.0]])]
        plan = ObservationPlan(shape, idx)
        for j in range(3):
            mp = plan.mode(j)
            expected = khatri_rao_rows(factors, idx, skip=j)[mp.order]
            K = plan.khatri_rao(factors, j)
            assert np.array_equal(K, expected)
            assert np.array_equal(mp.pad(K), _scatter_pad(mp, K))
        assert np.array_equal(cp_eval(factors, idx), _old_cp_eval(factors, idx))

    def test_skewed_mode_not_pad_feasible(self):
        # One row owns 1000 observations, 99 rows own one each: padding
        # would be 100 x 1000 slots for 1099 observations.
        rng = np.random.default_rng(1)
        rows = np.concatenate([np.zeros(1000, dtype=int), np.arange(1, 100)])
        shape = (100, 5, 4)
        idx = np.stack(
            [rows, rng.integers(0, 5, len(rows)), rng.integers(0, 4, len(rows))],
            axis=1,
        )
        factors = [rng.standard_normal((I, 2)) for I in shape]
        plan = ObservationPlan(shape, idx)
        mp = plan.mode(0)
        assert not mp.pad_feasible
        K = plan.khatri_rao(factors, 0)
        assert np.array_equal(K, khatri_rao_rows(factors, idx, skip=0)[mp.order])
        # The gather map is built on the first pad, never before.
        assert mp._pad_map is None
        arr = rng.standard_normal((len(idx), 2))
        assert np.array_equal(mp.pad(arr), _scatter_pad(mp, arr))
        assert np.array_equal(cp_eval(factors, idx), _old_cp_eval(factors, idx))

    def test_sorted_indices_columns_are_contiguous(self):
        rng = np.random.default_rng(2)
        shape = (6, 5, 4)
        idx = np.stack([rng.integers(0, I, 50) for I in shape], axis=1)
        plan = ObservationPlan(shape, idx)
        for j in range(3):
            mp = plan.mode(j)
            assert np.array_equal(mp.sorted_indices, idx[mp.order])
            for m in range(3):
                assert mp.sorted_indices[:, m].flags.c_contiguous

    @pytest.mark.parametrize("bad_mode", [0, 2])
    def test_factor_row_count_mismatch_raises(self, bad_mode):
        shape = (4, 3, 5)
        idx = np.array([[0, 0, 0], [3, 2, 4], [1, 1, 1]])
        plan = ObservationPlan(shape, idx)
        factors = [np.ones((I, 2)) for I in shape]
        factors[bad_mode] = np.ones((shape[bad_mode] + 1, 2))
        with pytest.raises(ValueError, match="do not match the plan"):
            plan.khatri_rao(factors, 1)


# -- out-of-range observation indices -----------------------------------------

BACKENDS = [
    pytest.param(
        b.name,
        id=b.name,
        marks=[] if b.available() else [pytest.mark.skip(
            reason=f"backend {b.name} unavailable: {b.unavailable_reason()}"
        )],
    )
    for b in registered_backends()
]

#: Optimizers that take ``kernel``: each runs on every backend.
KERNEL_OPTIMIZERS = {
    "als": lambda s, i, v, k: complete_als(s, i, v, 2, max_sweeps=2, kernel=k),
    "als_reg": lambda s, i, v, k: complete_als_regularized(
        s, i, v, 2, max_sweeps=2, kernel=k, column_penalties=[1e-5, 1e-3]
    ),
    "als_nonneg": lambda s, i, v, k: complete_als_regularized(
        s, i, v, 2, max_sweeps=2, kernel=k, nonnegative=True
    ),
    "als_adaptive": lambda s, i, v, k: complete_als_adaptive(
        s, i, v, rank="auto", max_rank=2, max_sweeps=2, kernel=k
    ),
    "amn": lambda s, i, v, k: complete_amn(s, i, v, 2, max_sweeps=1, kernel=k),
}

OTHER_OPTIMIZERS = {
    "ccd": lambda s, i, v: complete_ccd(s, i, v, 2, max_sweeps=2),
    "sgd": lambda s, i, v: complete_sgd(s, i, v, 2, max_sweeps=2),
    "lm": lambda s, i, v: complete_lm(s, i, v, 2, max_sweeps=2),
    "tucker": lambda s, i, v: complete_tucker(s, i, v, 2, max_sweeps=2),
}

CASES = [
    pytest.param(name, backend, id=f"{name}-{backend.id}")
    for name in KERNEL_OPTIMIZERS
    for backend in BACKENDS
] + [pytest.param(name, None, id=name) for name in OTHER_OPTIMIZERS]


def _bad_problem(kind):
    """Valid observations except one index in mode 1: -1 or == shape[1]."""
    rng = np.random.default_rng(0)
    shape = (6, 5, 4)
    idx = np.stack([rng.integers(0, I, 120) for I in shape], axis=1)
    bad = -1 if kind == "negative" else shape[1]
    idx[37, 1] = bad
    vals = np.exp(rng.normal(0.0, 0.3, len(idx)))
    return shape, idx, vals, bad


@pytest.mark.parametrize("kind", ["negative", "too_large"])
@pytest.mark.parametrize("name, backend", CASES)
def test_out_of_range_index_rejected(name, backend, kind):
    shape, idx, vals, bad = _bad_problem(kind)
    with pytest.raises(ValueError, match=f"index {bad} out of range for mode 1"):
        if backend is None:
            OTHER_OPTIMIZERS[name](shape, idx, vals)
        else:
            KERNEL_OPTIMIZERS[name](shape, idx, vals, backend)


@pytest.mark.parametrize("kind", ["negative", "too_large"])
def test_plan_rejects_out_of_range_index(kind):
    shape, idx, _, bad = _bad_problem(kind)
    with pytest.raises(ValueError, match=f"index {bad} out of range for mode 1"):
        ObservationPlan(shape, idx)


def test_in_range_boundary_indices_accepted():
    shape = (3, 2)
    idx = np.array([[0, 0], [2, 1], [1, 0], [2, 0]])
    res = complete_als(shape, idx, np.ones(4), 1, max_sweeps=1)
    assert res.n_sweeps == 1
