"""Panel containers and the difference / cumulative-sum transforms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import cumsum_matrix
from panelur import DataError, DiffPanel, DimensionError, Panel, difference, lagged_cumsum
from panelur.panel import ar_recursion

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def small_matrices(min_rows=1, min_cols=2, max_rows=5, max_cols=8):
    shapes = st.tuples(st.integers(min_rows, max_rows), st.integers(min_cols, max_cols))
    return shapes.flatmap(lambda s: arrays(float, s, elements=finite_floats))


class TestContainers:
    def test_panel_requires_two_periods(self):
        with pytest.raises(DimensionError):
            Panel(np.zeros((3, 1)))

    def test_panel_rejects_non_finite(self):
        with pytest.raises(DataError):
            Panel(np.array([[1.0, np.nan]]))

    def test_panel_rejects_duplicate_labels(self):
        with pytest.raises(DataError):
            Panel(np.zeros((2, 2)), unit_ids=("a", "a"))
        with pytest.raises(DataError):
            Panel(np.zeros((2, 2)), time_ids=(1, 1))

    def test_panel_default_labels(self):
        p = Panel(np.zeros((2, 3)))
        assert p.unit_ids == (0, 1)
        assert p.time_ids == (0, 1, 2)

    def test_values_immutable(self):
        p = Panel(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            p.values[0, 0] = 1.0

    def test_caller_array_not_frozen(self):
        mine = np.zeros((2, 3))
        Panel(mine)
        mine[0, 0] = 5.0  # the container copied; my buffer stays writable


class TestDifference:
    def test_single_unit(self):
        d = difference(Panel(np.array([[1.0, 3.0, 6.0]])))
        assert np.array_equal(d.values, [[2.0, 3.0]])

    def test_constant_panel_vanishes(self):
        d = difference(Panel(np.full((4, 6), 2.5)))
        assert np.all(d.values == 0.0)

    def test_roundtrip_recovers_panel(self):
        rng = np.random.default_rng(3)
        values = rng.normal(size=(3, 5))
        d = difference(Panel(values))
        rebuilt = np.cumsum(np.column_stack([values[:, 0], d.values]), axis=1)
        assert np.allclose(rebuilt, values, atol=1e-12)

    def test_too_short(self):
        p = Panel(np.zeros((1, 2)))
        assert difference(p).values.shape == (1, 1)
        with pytest.raises(DimensionError):
            DiffPanel(np.zeros((1, 0)))


class TestCumsumMatrix:
    def test_t3(self):
        assert np.array_equal(cumsum_matrix(3),
                              [[0, 0, 0], [1, 0, 0], [1, 1, 0]])

    def test_t1(self):
        assert np.array_equal(cumsum_matrix(1), [[0.0]])

    @pytest.mark.parametrize("t", range(2, 9))
    def test_a_plus_at_identity(self, t):
        a = cumsum_matrix(t)
        assert np.array_equal(a + a.T, np.ones((t, t)) - np.eye(t))

    def test_invalid(self):
        with pytest.raises(DimensionError):
            cumsum_matrix(0)


class TestApplyCumsum:
    def test_lagged_partial_sums(self):
        assert np.array_equal(lagged_cumsum(np.array([[2.0, 3.0]])), [[0.0, 2.0]])

    def test_zeros(self):
        assert np.all(lagged_cumsum(np.zeros((3, 4))) == 0.0)

    def test_matches_matrix_product(self):
        rng = np.random.default_rng(11)
        d = DiffPanel(rng.normal(size=(2, 4)))
        via_matrix = (cumsum_matrix(4) @ d.values.T).T
        assert np.allclose(lagged_cumsum(d.values), via_matrix, atol=1e-12)


class TestArRecursion:
    def test_hand_values(self):
        out = ar_recursion(np.array([[1.0, 1.0, 1.0], [2.0, 0.0, 0.0]]), np.array([0.5, -1.0]))
        assert np.array_equal(out, [[1.0, 1.5, 1.75], [2.0, -2.0, 2.0]])

    def test_start_value(self):
        out = ar_recursion(np.zeros((2, 3)), 0.5, start=np.array([8.0, -4.0]))
        assert np.array_equal(out, [[4.0, 2.0, 1.0], [-2.0, -1.0, -0.5]])

    def test_unit_root_is_cumsum(self):
        u = np.arange(12.0).reshape(2, 6)
        assert np.array_equal(ar_recursion(u, 1.0), np.cumsum(u, axis=1))

    @given(small_matrices(min_cols=1), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_time_loop_exactly(self, u, seed):
        rng = np.random.default_rng(seed)
        coef = rng.uniform(-1.0, 1.0, u.shape[0])
        start = rng.standard_normal(u.shape[0])
        expected = np.empty_like(u)
        prev = start.copy()
        for t in range(u.shape[1]):
            for i in range(u.shape[0]):
                prev[i] = coef[i] * prev[i] + u[i, t]
            expected[:, t] = prev
        assert np.array_equal(ar_recursion(u, coef, start=start), expected)


def _column_loop(u, coef, start=0.0):
    """The recursion written column by column: x_t = coef * x_{t-1} + u_t."""
    out = np.empty(u.shape)
    level = start
    for t in range(u.shape[-1]):
        level = coef * level + u[:, t]
        out[:, t] = level
    return out


class TestArRecursionInput:
    @staticmethod
    def _layouts():
        raw = np.random.default_rng(21).standard_normal((4, 9))
        return {"c_order": raw[:, 1:].copy(),
                "fortran_order": np.asfortranarray(raw[:, 1:]),
                "non_contiguous": raw[:, 1:]}

    @pytest.mark.parametrize("layout", ["c_order", "fortran_order", "non_contiguous"])
    @pytest.mark.parametrize("start", [0.0, np.array([1.0, -2.0, 0.5, 3.0])],
                             ids=["scalar_start", "row_start"])
    def test_input_unchanged(self, layout, start):
        u = self._layouts()[layout]
        before = u.copy()
        coef = np.array([0.9, -0.5, 1.0, 0.3])
        out = ar_recursion(u, coef, start=start)
        assert np.array_equal(u, before)
        assert not np.shares_memory(out, u)
        assert out.flags.c_contiguous
        assert np.array_equal(out, _column_loop(before, coef, start))

    @pytest.mark.parametrize("columns", [0, 1])
    @pytest.mark.parametrize("coef", [0.7, np.array([0.5, -1.0, 1.0])], ids=["scalar", "per_row"])
    def test_short_inputs_match_loop(self, columns, coef):
        u = np.arange(3.0 * columns).reshape(3, columns) + 1.0
        start = np.array([2.0, -1.0, 0.25])
        out = ar_recursion(u, coef, start=start)
        assert out.shape == (3, columns)
        assert np.array_equal(out, _column_loop(u, coef, start))

    def test_docstring_promises_new_array(self):
        assert "Returns a new" in ar_recursion.__doc__


class TestRoundTripProperties:
    # Both transforms preserve length, so the compositions lose the final
    # column; the identities hold exactly on the overlapping columns.

    @given(small_matrices(min_cols=2))
    @settings(max_examples=60, deadline=None)
    def test_difference_after_cumsum_is_identity(self, values):
        d = DiffPanel(values)
        back = difference(Panel(lagged_cumsum(d.values))).values
        assert np.allclose(back, values[:, :-1],
                           rtol=0.0, atol=1e-9 * (1.0 + np.abs(values).max()))

    @given(small_matrices(min_cols=3))
    @settings(max_examples=60, deadline=None)
    def test_cumsum_after_difference_shifts_by_constant(self, values):
        p = Panel(values)
        rebuilt = lagged_cumsum(difference(p).values)
        shifts = values[:, :-1] - rebuilt
        # the lost level: constant within each unit
        assert np.allclose(shifts, values[:, :1],
                           atol=1e-9 * (1.0 + np.abs(values).max()))
