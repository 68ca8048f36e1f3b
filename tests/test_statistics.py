"""Test statistics: hand-checked values, brute-force oracles, invariance suites."""

import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import (bn_statistics, dense_operator, dense_precision, mp_statistics_dense,
                     ump_statistics_naive)
from panelur import (DataError, DgpConfig, DiffPanel, DimensionError, InnovationSpec, LrvConfig,
                     LrvSet, NumericalError, Panel, PrecisionMatrix, analyze, bn_tests,
                     difference, estimate_factors, estimate_lrv_set, lagged_cumsum, mp_tests,
                     precision_matrix, simulate, t_ump, t_ump_emp, ump_statistics)
from panelur import factors, statistics
from panelur.statistics import TEST_NAMES, analyze_many


def _lrvs(omega2, delta=None, gamma0=None):
    omega2 = np.asarray(omega2, dtype=float)
    delta = np.zeros_like(omega2) if delta is None else np.asarray(delta, dtype=float)
    gamma0 = omega2.copy() if gamma0 is None else np.asarray(gamma0, dtype=float)
    return LrvSet(omega2=omega2, delta=delta, gamma0=gamma0)


def _random_pipeline(seed, n=12, t=40, k=2, h=0.0):
    sim = simulate(DgpConfig(framework="PANIC", n=n, T=t, h=h, K=k,
                             lrv_ratio=0.8, seed=seed))
    d = difference(sim.panel)
    fit = estimate_factors(d, k)
    lrvs = estimate_lrv_set(fit.residuals, LrvConfig(prewhiten=False))
    return sim, d, fit, lrvs


class TestPrecisionMatrix:
    def test_no_factor_diagonal(self):
        psi = precision_matrix(_lrvs([1.0, 4.0]), None)
        assert np.array_equal(dense_operator(psi), np.diag([1.0, 0.25]))
        assert psi.weighted.shape[-1] == 0

    def test_hand_projection(self):
        psi = precision_matrix(_lrvs([1.0, 1.0]), np.array([[1.0], [1.0]]))
        assert np.allclose(dense_operator(psi), [[0.5, -0.5], [-0.5, 0.5]], atol=1e-12)

    def test_annihilates_loadings(self):
        _, _, fit, lrvs = _random_pipeline(1)
        psi = precision_matrix(lrvs, fit.loadings_hat)
        assert np.abs(dense_operator(psi) @ fit.loadings_hat).max() < 1e-9

    def test_symmetric_psd_rank(self):
        _, _, fit, lrvs = _random_pipeline(2, n=10, k=3)
        psi = precision_matrix(lrvs, fit.loadings_hat)
        assert np.abs(dense_operator(psi) - dense_operator(psi).T).max() < 1e-10
        eigs = np.linalg.eigvalsh(dense_operator(psi))
        assert eigs.min() > -1e-10
        assert np.sum(eigs > 1e-10 * eigs.max()) == 10 - 3

    def test_singular_loadings_raise(self):
        with pytest.raises(NumericalError):
            precision_matrix(_lrvs([1.0, 1.0]), np.zeros((2, 1)))


@st.composite
def _factor_designs(draw):
    """Inverse weights, loadings of rank K < n, a K-vector P, an invertible K x K
    rotation and an n x T array, from a drawn seed."""
    n = draw(st.integers(2, 9))
    k = draw(st.integers(0, min(3, n - 1)))
    t = draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    lam = rng.standard_normal((n, k))
    rotation = rng.standard_normal((k, k)) + 2.0 * np.eye(k)
    assume(k == 0 or (np.linalg.cond(lam) < 1e3 and np.linalg.cond(rotation) < 1e3))
    return (rng.uniform(0.2, 5.0, n), lam, rng.uniform(0.1, 3.0, k), rotation,
            rng.standard_normal((n, t)))


def _close(a, b, scale, rel=1e-10):
    assert np.abs(a - b).max(initial=0.0) <= rel * scale


def _mp_rounding_bound(y, lam, lrvs) -> float:
    """Relative rounding bound on mp_tests' t_a and t_b against the dense oracle.

    Both are proportional to rho - 1, rho = (cross - n T' delta) / denom. Each projected
    sum of at most n T products is off by up to about n T cond(L)^2 eps (Gram solve
    included) times its sum of absolute terms, projection I - P taken as |I| + |P|.
    Dividing by denom and subtracting 1 magnify that by those sums over |denom| and
    |rho - 1|; t_b also takes the square root of denom.
    """
    n, t = y.shape
    q = dense_precision(np.ones(n), lam)
    y_lag = np.zeros_like(y)
    y_lag[:, 1:] = y[:, :-1]
    bias = n * (t - 1) * lrvs.pooled_delta
    denom = np.sum(y_lag * (q @ y_lag))
    rho = (np.sum(y * (q @ y_lag)) - bias) / denom
    abs_q = np.eye(n) + np.abs(np.eye(n) - q)
    abs_denom = np.sum(np.abs(y_lag) * (abs_q @ np.abs(y_lag)))
    abs_cross = np.sum(np.abs(y) * (abs_q @ np.abs(y_lag))) + abs(bias)
    gain = ((abs_cross + abs(rho) * abs_denom) / abs(rho - 1.0) + abs_denom) / abs(denom)
    cond = np.linalg.cond(lam) ** 2 if lam.shape[1] else 1.0
    return 4.0 * n * t * cond * np.finfo(float).eps * gain


class TestPrecisionOperator:
    @given(_factor_designs(), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_apply_matches_dense_matrix(self, design, with_prior):
        inv, lam, prior, _, x = design
        prior = prior if with_prior else None
        dense = dense_precision(inv, lam, prior)
        psi = PrecisionMatrix(inv, lam, prior)
        scale = np.abs(dense).max() * np.abs(x).max() * x.shape[0]
        _close(psi.apply(x), dense @ x, scale)
        _close(dense_operator(psi), dense, np.abs(dense).max())
        assert psi.weighted.shape[-1] == lam.shape[1]

    @given(_factor_designs(), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_stack_matches_each_panel_and_dense_sums(self, design, with_prior):
        # Three panels stacked: the design, rotated loadings with negated data, and
        # reversed weights with data reversed in time.
        inv, lam, prior, rotation, x = design
        invs, lams = np.stack([inv, inv, inv[::-1]]), np.stack([lam, lam @ rotation, lam])
        xs = np.stack([x, -x, x[:, ::-1]])
        priors = np.stack([prior] * 3) if with_prior else None
        stacked = PrecisionMatrix(invs, lams, priors)
        lagged = lagged_cumsum(xs)
        pooled = stacked.pooled(lagged, xs, stacked.scores(lagged)[0], stacked.scores(xs)[1])
        for r in range(3):
            alone = PrecisionMatrix(invs[r], lams[r], None if priors is None else priors[r])
            assert np.array_equal(stacked.apply(xs)[r], alone.apply(xs[r]))
            assert pooled[r] == alone.pooled(lagged[r], xs[r], alone.scores(lagged[r])[0],
                                             alone.scores(xs[r])[1])
            dense = dense_precision(invs[r], lams[r], None if priors is None else priors[r])
            scale = np.sum(np.abs(lagged[r]) * (np.abs(dense) @ np.abs(xs[r])))
            _close(pooled[r], np.sum(lagged[r] * (dense @ xs[r])), scale)

    @given(_factor_designs())
    @settings(max_examples=80, deadline=None)
    def test_annihilates_loadings_without_prior(self, design):
        inv, lam, _, _, _ = design
        assume(lam.shape[1] > 0)
        _close(PrecisionMatrix(inv, lam).apply(lam), 0.0,
               inv.max() * np.abs(lam).max() * lam.shape[0])

    @given(_factor_designs())
    @settings(max_examples=80, deadline=None)
    def test_rotation_invariance(self, design):
        inv, lam, _, rotation, x = design
        base = PrecisionMatrix(inv, lam).apply(x)
        # L and R with condition numbers up to 1e3 cost up to ~1e-10 relative.
        _close(PrecisionMatrix(inv, lam @ rotation).apply(x), base,
               inv.max() * np.abs(x).max() * x.shape[0], rel=1e-7)

    @given(_factor_designs())
    @settings(max_examples=80, deadline=None)
    # The projected lagged sum of squares nearly cancels here: t_a is about -3e9.
    @example((np.array([0.72578441, 3.14226232]), np.array([[-0.51604109], [-2.02351072]]),
              np.array([1.0]), np.eye(1),
              np.array([[0.26645227, 0.16444297], [1.04484716, 0.20631302]])))
    def test_mp_tests_match_dense_projection(self, design):
        inv, lam, _, _, x = design
        y = np.cumsum(x, axis=1)
        lrvs = _lrvs(inv, delta=0.1 * (inv - 1.0))
        t_a, t_b = mp_tests(Panel(y), lam, lrvs)
        ref_a, ref_b = mp_statistics_dense(y, lam, lrvs)
        rel = _mp_rounding_bound(y, lam, lrvs)
        assert t_a.statistic == pytest.approx(ref_a, rel=rel, abs=0.0)
        assert t_b.statistic == pytest.approx(ref_b, rel=rel, abs=0.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            PrecisionMatrix(np.ones(3), np.ones((2, 1)))


class TestUmpStatistics:
    def test_hand_example(self):
        # difference columns 1..4; column 1 excluded; values at 2..4 are 1,2,3
        d = DiffPanel(np.array([[-7.0, 1.0, 2.0, 3.0]]))
        psi = precision_matrix(_lrvs([1.0]), None)
        inter = ump_statistics(d, psi, _lrvs([1.0]))
        assert inter.delta_hat == pytest.approx(2.75, abs=1e-12)
        assert inter.j_hat == pytest.approx(0.625, abs=1e-12)
        assert inter.correction == 0.0

    def test_zero_differences(self):
        d = DiffPanel(np.zeros((2, 6)))
        psi = precision_matrix(_lrvs([1.0, 1.0]), None)
        lrvs = _lrvs([2.0, 2.0], delta=[0.5, 0.5])
        inter = ump_statistics(d, psi, lrvs)
        assert inter.delta_hat == pytest.approx(-inter.correction)
        assert inter.correction == pytest.approx((0.25 + 0.25) / math.sqrt(2.0))
        assert inter.j_hat == 0.0

    def test_running_sum_equals_naive(self):
        rng = np.random.default_rng(3)
        for seed in range(5):
            d = DiffPanel(rng.normal(size=(3, 12)))
            lrvs = _lrvs(rng.uniform(0.5, 2.0, size=3), delta=rng.normal(size=3) * 0.1)
            lam = rng.normal(size=(3, 1))
            fast = ump_statistics(d, precision_matrix(lrvs, lam), lrvs)
            slow = ump_statistics_naive(d, lrvs, lam)
            assert fast.delta_hat == pytest.approx(slow.delta_hat, rel=1e-10)
            assert fast.j_hat == pytest.approx(slow.j_hat, rel=1e-10)

    def test_short_panel_raises(self):
        psi = precision_matrix(_lrvs([1.0]), None)
        with pytest.raises(Exception):
            ump_statistics(DiffPanel(np.ones((1, 1))), psi, _lrvs([1.0]))


class TestUmpOutcomes:
    def setup_method(self):
        self.d = DiffPanel(np.array([[-7.0, 1.0, 2.0, 3.0]]))
        self.psi = precision_matrix(_lrvs([1.0]), None)
        self.lrvs = _lrvs([1.0])
        self.inter = ump_statistics(self.d, self.psi, self.lrvs)

    def test_t_ump_value(self):
        out = t_ump(self.inter)
        assert out.statistic == pytest.approx(3.8891, abs=1e-4)
        assert not out.reject

    def test_t_ump_emp_value(self):
        out = t_ump_emp(self.inter)
        assert out.statistic == pytest.approx(3.4785, abs=1e-4)

    def test_zero_statistic_semantics(self):
        d = DiffPanel(np.zeros((1, 6)))
        out = t_ump(ump_statistics(d, self.psi, _lrvs([1.0])))
        assert out.statistic == 0.0
        assert out.p_value == pytest.approx(0.5)
        assert not out.reject

    def test_degenerate_information(self):
        d = DiffPanel(np.zeros((1, 6)))
        with pytest.raises(NumericalError):
            t_ump_emp(ump_statistics(d, self.psi, _lrvs([1.0])))

    @pytest.mark.parametrize("alpha", [0.01, 0.05, 0.2])
    def test_outcome_semantics(self, alpha):
        from scipy.special import ndtr, ndtri
        out = t_ump(self.inter, alpha=alpha)
        assert out.p_value == pytest.approx(float(ndtr(out.statistic)), abs=1e-14)
        assert out.reject == (out.statistic <= float(ndtri(alpha)))
        assert out.alpha == alpha


class TestPanicIdiosyncratic:
    # Cumulated idiosyncratic paths: lagged partial sums of the factor
    # residuals, and the current path one step ahead.

    def test_unit_steps(self):
        fit = estimate_factors(DiffPanel(np.array([[1.0, 1.0, 1.0]])), 0)
        lagged = lagged_cumsum(fit.residuals.values)
        assert np.array_equal(lagged, [[0.0, 1.0, 2.0]])
        assert np.array_equal(lagged + fit.residuals.values, [[1.0, 2.0, 3.0]])

    def test_zero_residuals(self):
        fit = estimate_factors(DiffPanel(np.zeros((2, 4))), 0)
        lagged = lagged_cumsum(fit.residuals.values)
        assert np.all(lagged == 0.0) and np.all(lagged + fit.residuals.values == 0.0)

    def test_roundtrip(self):
        rng = np.random.default_rng(4)
        fit = estimate_factors(DiffPanel(rng.normal(size=(3, 9))), 0)
        current = lagged_cumsum(fit.residuals.values) + fit.residuals.values
        back = np.column_stack([current[:, 0], np.diff(current, axis=1)])
        assert np.allclose(back, fit.residuals.values, atol=1e-12)


class TestBnTests:
    def test_hand_rho_plus(self):
        e_lag = np.array([[0.0, 1.0, 2.0, 3.0]])
        e_cur = np.array([[1.0, 2.0, 3.0, 4.0]])
        p_a, p_b = bn_statistics(e_lag, e_cur, _lrvs([1.0]), t_dim=4)
        # rho_plus = 20/14; homogeneous LRVs so P_a = 4 (10/7 - 1) / sqrt(2)
        assert p_a.statistic == pytest.approx(4.0 * (10.0 / 7.0 - 1.0) / math.sqrt(2.0),
                                              abs=1e-12)
        assert p_a.statistic == pytest.approx(1.21218, abs=1e-5)

    def test_unit_root_estimate_gives_zero(self):
        e_lag = np.array([[0.0, 1.0, 2.0, 3.0]])
        e_cur = e_lag + np.array([[1.0, 0.0, 0.0, 0.0]])  # orthogonal increment
        p_a, p_b = bn_statistics(e_lag, e_cur, _lrvs([1.5]), t_dim=4)
        assert p_a.statistic == 0.0
        assert p_b.statistic == 0.0

    def test_degenerate_paths_raise(self):
        with pytest.raises(NumericalError):
            bn_statistics(np.zeros((1, 4)), np.ones((1, 4)), _lrvs([1.0]), t_dim=4)

    def test_pipeline_consistency(self):
        _, d, fit, lrvs = _random_pipeline(5)
        p_a, p_b = bn_tests(fit, lrvs)
        # rebuild by hand: drop first residual column, cumulate, pool at T'
        resid = fit.residuals.values
        used = resid[:, 1:]
        lagged = np.zeros_like(used)
        lagged[:, 1:] = np.cumsum(used[:, :-1], axis=1)
        ref_a, ref_b = bn_statistics(lagged, lagged + used, lrvs,
                                     t_dim=resid.shape[1])
        assert p_a.statistic == pytest.approx(ref_a.statistic, rel=1e-12)
        assert p_b.statistic == pytest.approx(ref_b.statistic, rel=1e-12)


class TestMpTests:
    def test_hand_pooled_rho(self):
        panel = Panel(np.array([[1.0, 2.0, 3.0, 4.0]]))
        t_a, t_b = mp_tests(panel, None, _lrvs([1.0]))
        # pooled rho = 10/7 with zero pre-sample value; prefactor uses T' = 3
        assert t_a.statistic == pytest.approx(3.0 * (10.0 / 7.0 - 1.0) / math.sqrt(2.0),
                                              abs=1e-12)

    def test_projection_kills_loadings(self):
        lam = np.array([[1.0], [1.0]])
        q = PrecisionMatrix(np.ones(2), lam)
        assert np.allclose(dense_operator(q), [[0.5, -0.5], [-0.5, 0.5]], atol=1e-14)
        assert np.abs(q.apply(lam)).max() < 1e-14

    def test_similar_to_bn_under_null(self):
        # The pooled statistics track each other pathwise once T is moderate;
        # at very short horizons the restarted residual paths and the raw
        # levels diverge more, so the coupling is pinned at T = 200.
        close = 0
        reps = 200
        for seed in range(reps):
            sim, d, fit, lrvs = _random_pipeline(seed + 7000, n=50, t=200, k=1)
            _, p_b = bn_tests(fit, lrvs)
            _, t_b = mp_tests(sim.panel, fit.loadings_hat, lrvs)
            close += abs(t_b.statistic - p_b.statistic) < 0.3
        assert close >= 0.9 * reps


class TestInvarianceSuites:
    def test_intercept_invariance(self):
        sim, d, fit, lrvs = _random_pipeline(8)
        shifts = np.random.default_rng(9).uniform(-40.0, 40.0, size=(12, 1))
        shifted = Panel(sim.panel.values + shifts)
        d2 = difference(shifted)
        fit2 = estimate_factors(d2, 2)
        lrvs2 = estimate_lrv_set(fit2.residuals, LrvConfig(prewhiten=False))
        psi = precision_matrix(lrvs, fit.loadings_hat)
        psi2 = precision_matrix(lrvs2, fit2.loadings_hat)
        for make in (t_ump, t_ump_emp):
            a = make(ump_statistics(d, psi, lrvs)).statistic
            b = make(ump_statistics(d2, psi2, lrvs2)).statistic
            assert b == pytest.approx(a, abs=1e-9 * (1.0 + abs(a)))
        for (x, y) in zip(bn_tests(fit, lrvs), bn_tests(fit2, lrvs2)):
            assert y.statistic == pytest.approx(x.statistic, abs=1e-9 * (1.0 + abs(x.statistic)))

    def test_rotation_invariance(self):
        _, d, fit, lrvs = _random_pipeline(10, k=2)
        rng = np.random.default_rng(11)
        rotation = rng.normal(size=(2, 2)) + np.eye(2)
        assert abs(np.linalg.det(rotation)) > 1e-3
        rotated = fit.loadings_hat @ rotation
        psi_a = precision_matrix(lrvs, fit.loadings_hat)
        psi_b = precision_matrix(lrvs, rotated)
        assert np.abs(dense_operator(psi_a) - dense_operator(psi_b)).max() < 1e-8
        for make in (t_ump, t_ump_emp):
            assert make(ump_statistics(d, psi_b, lrvs)).statistic == pytest.approx(
                make(ump_statistics(d, psi_a, lrvs)).statistic, abs=1e-8)

    def test_mp_rotation_invariance(self):
        sim, _, fit, lrvs = _random_pipeline(12, k=2)
        rng = np.random.default_rng(13)
        rotation = rng.normal(size=(2, 2)) + 2.0 * np.eye(2)
        base = mp_tests(sim.panel, fit.loadings_hat, lrvs)
        rot = mp_tests(sim.panel, fit.loadings_hat @ rotation, lrvs)
        for x, y in zip(base, rot):
            assert y.statistic == pytest.approx(x.statistic, abs=1e-8)

    def test_homogeneous_reduction(self):
        rng = np.random.default_rng(14)
        for rep in range(10):
            sim, d, fit, _ = _random_pipeline(rep + 100, n=9, t=30, k=1)
            lrvs = _lrvs(np.full(9, rng.uniform(0.5, 2.0)),
                         delta=np.full(9, rng.normal() * 0.2))
            psi = precision_matrix(lrvs, fit.loadings_hat)
            emp = t_ump_emp(ump_statistics(d, psi, lrvs)).statistic
            _, p_b = bn_tests(fit, lrvs)
            assert emp == pytest.approx(p_b.statistic, abs=1e-8)


class TestAnalyze:
    def test_matches_stages_wired_by_hand(self):
        sim, d, fit, lrvs = _random_pipeline(15)
        result = analyze(sim.panel, k=2, lrv_cfg=LrvConfig(prewhiten=False))
        inter = ump_statistics(d, precision_matrix(lrvs, fit.loadings_hat), lrvs)
        expected = (t_ump(inter), t_ump_emp(inter), *bn_tests(fit, lrvs),
                    *mp_tests(sim.panel, fit.loadings_hat, lrvs))
        assert tuple(result.outcomes) == TEST_NAMES
        assert tuple(result.outcomes.values()) == expected
        assert result.ump == inter

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5])
    def test_alpha_rejected_before_any_work(self, monkeypatch, alpha):
        def never(*args, **kwargs):
            raise AssertionError("analyze fitted factors for an invalid alpha")

        monkeypatch.setattr(statistics, "fit_stack", never)
        sim, _, _, _ = _random_pipeline(16)
        with pytest.raises(DataError, match=r"alpha must lie in \(0, 1\)"):
            analyze(sim.panel, k=2, alpha=alpha)


    @pytest.mark.parametrize("k", [None, 2])
    def test_wide_panel_forms_no_unit_by_unit_array(self, k):
        n = 1500
        panel = simulate(DgpConfig(framework="PANIC", n=n, T=21, h=0.0, K=2,
                                   lrv_ratio=0.8, seed=17)).panel
        tracemalloc.start()
        try:
            analyze(panel, k=k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8 / 4

def _batch_panels(kinds=("iid", "ar1", "ma1"), sizes=(12, 20, 7), t=60):
    """Panels of one length: several n, innovation kinds, persistences and seeds."""
    panels = []
    for i, (kind, n) in enumerate((kind, n) for kind in kinds for n in sizes):
        spec = InnovationSpec(kind=kind, parameter=(0.9, 0.6, 0.3)[i % 3])
        panels.append(simulate(DgpConfig(framework="MP", n=n, T=t, h=-5.0, K=2,
                                         factor_spec=spec, idio_spec=spec,
                                         lrv_ratio=0.7, seed=900 + i)).panel)
    return panels


def _stack(panels):
    """The levels of panels of one shape as one R x n x T batch."""
    return np.stack([p.values for p in panels])


def _analyze_by_shape(panels, **kwargs):
    """`analyze_many` once per shape, over that shape's panels in their order;
    entry i is panel i's Analysis."""
    shapes = {}
    for i, p in enumerate(panels):
        shapes.setdefault(p.values.shape, []).append(i)
    results = [None] * len(panels)
    for index in shapes.values():
        stack = [panels[i] for i in index]
        for i, got in zip(index, analyze_many(_stack(stack), stack[0].unit_ids, **kwargs)):
            results[i] = got
    return results


def _assert_same_analysis(got, want):
    assert got.k == want.k
    for field in ("omega2", "delta", "gamma0"):
        assert np.array_equal(getattr(got.lrvs, field), getattr(want.lrvs, field))
    assert got.ump == want.ump
    assert got.outcomes == want.outcomes


class TestAnalyzeMany:
    @pytest.mark.parametrize("lrv_cfg", [
        LrvConfig(kernel="bartlett", bandwidth="andrews"),
        LrvConfig(kernel="quadratic_spectral", bandwidth="andrews"),
        LrvConfig(kernel="bartlett", bandwidth="fixed", fixed_bandwidth=24.0),
        LrvConfig(kernel="quadratic_spectral", bandwidth="fixed", fixed_bandwidth=20.0),
        LrvConfig(kernel="bartlett", bandwidth="andrews", prewhiten=False),
        LrvConfig(kernel="quadratic_spectral", bandwidth="andrews", prewhiten=False),
    ], ids=["bartlett-andrews", "qs-andrews", "bartlett-fixed24", "qs-fixed20",
            "bartlett-andrews-raw", "qs-andrews-raw"])
    def test_batch_equals_each_panel_alone(self, lrv_cfg):
        # In each n's stack, innovation kinds put rows with different
        # prewhitening models and truncation lags side by side in the stacked
        # LRV pass. Unprewhitened Andrews bandwidths differ most, so there a
        # row's weights are padded with the most zeros.
        panels = _batch_panels()
        alone = [analyze(p, k_max=4, lrv_cfg=lrv_cfg) for p in panels]
        batched = _analyze_by_shape(panels, k_max=4, lrv_cfg=lrv_cfg)
        reordered = _analyze_by_shape(panels[::-1], k_max=4, lrv_cfg=lrv_cfg)[::-1]
        for got, again, want in zip(batched, reordered, alone):
            _assert_same_analysis(got, want)
            _assert_same_analysis(again, want)

    # A batch with a faulty panel raises that panel's error; the Monte Carlo
    # harness reruns such a batch one replication at a time (test_harness.py,
    # TestRun::test_one_singular_replication_is_one_error).

    def test_faulty_panel_fails_alone(self):
        # Unit 3 of the middle panel moves only in its last period: its
        # differences are not all zero, but its Hannan-Rissanen design is.
        panels = _batch_panels(kinds=("iid",), sizes=(10, 10, 10))
        values = panels[1].values.copy()
        values[3] = 0.0
        values[3, -1] = 1.0
        panels[1] = Panel(values)
        cfg = LrvConfig(prewhiten=True)
        # In a batch, the LRV stage numbers units across all the stacked rows.
        with pytest.raises(NumericalError, match=r"LRV prewhitening.*unit\(s\) \[13\]"):
            analyze_many(_stack(panels), range(10), k=0, lrv_cfg=cfg)
        with pytest.raises(NumericalError, match=r"LRV prewhitening.*unit\(s\) \[3\]"):
            analyze(panels[1], k=0, lrv_cfg=cfg)

    def test_errors_are_returned_per_panel(self):
        panels = _batch_panels(kinds=("iid",), sizes=(8, 8))
        values = panels[0].values.copy()
        values[2] = 1.5
        panels.insert(0, Panel(values))
        for batch in (panels, panels[:1]):
            with pytest.raises(DataError, match=r"constant unit\(s\) 2"):
                analyze_many(_stack(batch), range(8), k=1)

    def test_zero_information_fails_alone(self):
        # Every unit moves only in its first and last period: the running sums of
        # the used differences vanish, and with them the empirical information.
        panels = _batch_panels(kinds=("iid",), sizes=(10, 10, 10))
        levels = np.zeros((10, 60))
        levels[:, 1:] = np.arange(1.0, 11.0)[:, None]
        levels[:, -1] += 1.0
        panels[1] = Panel(levels)
        cfg = LrvConfig(prewhiten=False)
        with pytest.raises(NumericalError, match="empirical information is zero"):
            analyze_many(_stack(panels), range(10), k=0, lrv_cfg=cfg)
        with pytest.raises(NumericalError, match="empirical information is zero"):
            analyze(panels[1], k=0, lrv_cfg=cfg)

    def test_zero_gamma0_fails_alone(self, monkeypatch):
        panels = _batch_panels(kinds=("iid",), sizes=(10, 10, 10))
        original = statistics.estimate_lrv_set

        def zero_unit(residuals, cfg):
            # gamma(0) of unit 3 of the middle panel in the stacked call over R n rows.
            lrvs = original(residuals, cfg)
            lrvs.gamma0[10 + 3] = 0.0
            return lrvs

        monkeypatch.setattr(statistics, "estimate_lrv_set", zero_unit)
        with pytest.raises(NumericalError) as excinfo:
            analyze_many(_stack(panels), range(10), k=1)
        assert str(excinfo.value).startswith("LRV: unit(s) 3 have all-zero factor residuals")

    def test_singular_loading_gram_fails_alone(self, monkeypatch):
        panels = _batch_panels(kinds=("iid",), sizes=(10, 10, 10))
        target = analyze(panels[1], k=1).lrvs.omega2
        original = statistics.precision_matrix

        def zero_target(lrvs, loadings):
            # The middle panel's loadings become zero: its 1 x 1 Gram is singular.
            hit = (lrvs.omega2 == target).all(axis=-1)
            return original(lrvs, np.where(hit[..., None, None], 0.0, loadings))

        monkeypatch.setattr(statistics, "precision_matrix", zero_target)
        for batch in (panels, panels[1:2]):
            with pytest.raises(NumericalError,
                               match="singular 1 x 1 loading Gram matrix over 10 units"):
                analyze_many(_stack(batch), range(10), k=1)

    def test_non_finite_residuals_fail_alone(self, monkeypatch):
        # A finite panel whose fit overflows fails the eigensolver first in every
        # case tried, so here the middle panel's eigenvectors are made nan.
        panels = _batch_panels(kinds=("iid",), sizes=(10, 10, 10))
        original = factors._eigen
        calls = []

        def nan_middle(gram, n, tp, k=None):
            vals, vecs = original(gram, n, tp, k)
            calls.append(k)
            return vals, (np.full_like(vecs, np.nan) if len(calls) == 2 else vecs)

        monkeypatch.setattr(factors, "_eigen", nan_middle)
        with pytest.raises(DataError) as excinfo:
            analyze_many(_stack(panels), range(10), k=1)
        assert str(excinfo.value) == "difference values contains non-finite entries"

    def test_non_finite_statistic_fails_alone(self):
        panels = _batch_panels(kinds=("iid",), sizes=(20, 20, 20))
        walk = np.random.default_rng(0).standard_normal((20, 60)).cumsum(axis=1)
        panels[1] = Panel(1e153 * walk)   # as in test_overflowing_statistic_is_an_error
        with np.errstate(over="ignore", invalid="ignore"):
            for batch in (panels, panels[1:2]):
                with pytest.raises(NumericalError, match="statistic is inf, not finite"):
                    analyze_many(_stack(batch), range(20), k=1)


@functools.cache
def _mixed_batch():
    """Panels of two lengths and two widths, each analyzed alone with k selected over
    0..3: every shape has panels with different selected k."""
    designs = [(20, 80, 0), (20, 80, 2), (20, 80, 1), (30, 80, 1), (30, 80, 2),
               (20, 120, 0), (20, 120, 2), (30, 120, 2), (30, 120, 0), (20, 120, 1)]
    panels = [simulate(DgpConfig(framework="PANIC", n=n, T=t, K=k_true, lrv_ratio=0.7,
                                 seed=400 + i)).panel
              for i, (n, t, k_true) in enumerate(designs)]
    return panels, [analyze(p, k_max=3) for p in panels]


class TestStackedProperty:
    @settings(max_examples=40, deadline=None)
    @given(picks=st.lists(st.integers(0, 9), min_size=1, max_size=14))
    def test_any_order_or_subset_matches_alone(self, picks):
        # Each shape is one batch, fitted and tested by selected k, so a draw
        # changes each stack's size and order; repeats put a panel in a stack twice.
        panels, alone = _mixed_batch()
        stacks = {(a.k, p.values.shape) for a, p in zip(alone, panels)}
        assert len(stacks) == 9 and len({k for k, _ in stacks}) == 3
        results = _analyze_by_shape([panels[i] for i in picks], k_max=3)
        for i, got in zip(picks, results):
            _assert_same_analysis(got, alone[i])
            assert all(np.array_equal(getattr(got.fit, f), getattr(alone[i].fit, f))
                       for f in ("loadings_bar", "loadings_hat", "factor_diffs"))
            assert np.array_equal(got.fit.residuals.values, alone[i].fit.residuals.values)


class TestKmaxClamp:
    def test_runaway_bound_clamped(self):
        # At k_max near min(n, T') IC_p2 picks k_max (49 of 49 here).
        panel = simulate(DgpConfig(framework="PANIC", n=50, T=100, K=2, lrv_ratio=0.8,
                                   seed=0)).panel
        assert analyze(panel, k_max=49).k == 2

    def test_bound_above_panel_size(self):
        # Without the clamp this selects k = 12 = n and the statistics degenerate.
        panel = simulate(DgpConfig(framework="PANIC", n=12, T=40, K=1, lrv_ratio=0.8,
                                   seed=0)).panel
        result = analyze(panel, k_max=1000)
        assert 0 <= result.k <= 6
        assert all(math.isfinite(o.statistic) for o in result.outcomes.values())

    def test_clamp_is_half_the_smaller_dimension(self, monkeypatch):
        bounds = []
        original = statistics.fit_stack

        def recording(x, k, k_max):
            bounds.append(k_max)
            return original(x, k, k_max)

        monkeypatch.setattr(statistics, "fit_stack", recording)
        values = np.random.default_rng(5).standard_normal((9, 31)).cumsum(axis=1)
        for k_max in (1, 4, 5, 100):
            analyze(Panel(values), k_max=k_max, lrv_cfg=LrvConfig(prewhiten=False))
        assert bounds == [1, 4, 4, 4]

    @pytest.mark.parametrize("k_max", [-1, -1000])
    def test_negative_bound_rejected(self, k_max):
        panels = _batch_panels(kinds=("iid",), sizes=(10, 10))
        with pytest.raises(DimensionError, match=f"k_max={k_max} outside 0..min"):
            analyze(panels[0], k_max=k_max)
        with pytest.raises(DimensionError) as excinfo:
            analyze_many(_stack(panels), range(10), k_max=k_max)
        assert str(excinfo.value) == f"k_max={k_max} outside 0..min(n=10, T'=59)"


def _invariance_panel(data):
    n = data.draw(st.integers(4, 20))
    t = data.draw(st.integers(30, 60))
    seed = data.draw(st.integers(0, 2**32 - 1))
    return simulate(DgpConfig(framework="PANIC", n=n, T=t, K=1, lrv_ratio=0.8,
                              seed=seed)).panel


# Reordering units or shifting levels moves a statistic only by rounding: sums over
# at most 20 units in another order, a few thousand ulps of float64 at most. 1e-9 is
# the bound the other invariance suites use.
_ROUNDING = 1e-9


def _same_statistic(got, want):
    assert got == pytest.approx(want, abs=_ROUNDING * (1.0 + abs(want)))


class TestUnitInvariances:
    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), k=st.sampled_from([None, 1]))
    def test_statistics_invariant_to_unit_order(self, data, k):
        panel = _invariance_panel(data)
        order = data.draw(st.permutations(range(panel.n_units)))
        base = analyze(panel, k=k)
        moved = analyze(Panel(panel.values[list(order)]), k=k)
        assert moved.k == base.k
        for name in TEST_NAMES:
            _same_statistic(moved.outcomes[name].statistic, base.outcomes[name].statistic)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), k=st.sampled_from([None, 1]))
    def test_difference_based_statistics_invariant_to_intercepts(self, data, k):
        panel = _invariance_panel(data)
        shifts = data.draw(st.lists(st.floats(-50.0, 50.0), min_size=panel.n_units,
                                    max_size=panel.n_units))
        base = analyze(panel, k=k)
        moved = analyze(Panel(panel.values + np.asarray(shifts)[:, None]), k=k)
        assert moved.k == base.k
        for name in ("t_ump", "t_ump_emp", "p_a", "p_b"):
            _same_statistic(moved.outcomes[name].statistic, base.outcomes[name].statistic)

    def test_level_based_statistics_move_with_intercepts(self):
        # t_a and t_b regress levels on lagged levels without an intercept.
        panel = simulate(DgpConfig(framework="PANIC", n=12, T=40, K=1, lrv_ratio=0.8,
                                   seed=5)).panel
        shifts = np.random.default_rng(0).uniform(-50.0, 50.0, size=(12, 1))
        base = analyze(panel, k=1)
        moved = analyze(Panel(panel.values + shifts), k=1)
        for name in ("t_a", "t_b"):
            assert abs(moved.outcomes[name].statistic - base.outcomes[name].statistic) > 0.5


class TestScaleInvariance:
    @given(scale=st.floats(1e-6, 1e6))
    @settings(max_examples=25, deadline=None)
    def test_statistics_invariant_to_common_scale(self, scale):
        panel = simulate(DgpConfig(framework="PANIC", n=20, T=100, K=1, lrv_ratio=0.8,
                                   seed=41)).panel
        base = analyze(panel)
        scaled = analyze(Panel(scale * panel.values))
        assert scaled.k == base.k
        for name in TEST_NAMES:
            assert scaled.outcomes[name].statistic == pytest.approx(
                base.outcomes[name].statistic, rel=1e-9, abs=0.0)

    def test_tiny_units_are_not_floored(self):
        # An absolute floor of 1e-8 moved t_ump from 0.085 to -3.13 here.
        values = np.random.default_rng(3).standard_normal((20, 100)).cumsum(axis=1)
        base = analyze(Panel(values), k=1)
        tiny = analyze(Panel(1e-5 * values), k=1)
        for name in TEST_NAMES:
            assert tiny.outcomes[name].statistic == pytest.approx(
                base.outcomes[name].statistic, rel=1e-9, abs=0.0)

    def test_overflowing_panel_is_an_error(self):
        # At 1e154 the squared differences overflow: the LRVs are infinite and the
        # empirical information is nan, which is no information, not a nan statistic.
        values = np.random.default_rng(3).standard_normal((20, 60)).cumsum(axis=1)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError, match="empirical information is zero"):
                analyze(Panel(1e154 * values), k=0)

    @pytest.mark.parametrize("k", [0, 1, 2, None])
    def test_overflowing_statistic_is_an_error(self, k):
        # At 1e153 the LRVs and the Gram matrix stay finite, but the pooled fourth
        # moment and the prewhitening sums overflow: t_ump was inf, with p = 1.
        values = np.random.default_rng(0).standard_normal((20, 60)).cumsum(axis=1)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError, match="t_ump statistic is inf, not finite"):
                analyze(Panel(1e153 * values), k=k)

    @pytest.mark.parametrize("exponent, advice", [
        (260, "p_a statistic is nan, not finite; rescale the panel if its values are very "
              "large or very small"),
        (-260, "t_a statistic is nan, not finite; rescale the panel if its values are very "
               "large or very small"),
        (-280, "pooled fourth moment underflowed to zero; rescale the panel if its values "
               "are very small"),
    ])
    def test_scale_advice_names_the_direction(self, exponent, advice):
        # A tiny panel fails too: at 2^-260 a statistic is nan, and at 2^-280 the
        # pooled fourth moment, a mean of omega^4, underflows to zero.
        values = np.random.default_rng(0).standard_normal((20, 60)).cumsum(axis=1)
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            with pytest.raises(NumericalError, match=advice):
                analyze(Panel(np.ldexp(values, exponent)), k=1)

    def test_zero_residual_unit_is_a_numerical_error(self):
        # One unit and one factor: the fit absorbs the unit, whose residuals
        # are then exactly zero.
        values = np.random.default_rng(3).standard_normal((1, 40)).cumsum(axis=1)
        with pytest.raises(NumericalError, match="LRV: unit\\(s\\) 'solo'"):
            analyze(Panel(values, unit_ids=("solo",)), k=1, lrv_cfg=LrvConfig(prewhiten=False))


class TestNullDistributionSmoke:
    def test_known_nuisance_calibration(self):
        stats = []
        n, t = 50, 200
        for rep in range(300):
            sim = simulate(DgpConfig(framework="PANIC", n=n, T=t, h=0.0, K=1,
                                     lrv_ratio=0.8, seed=20_000 + rep))
            d = difference(sim.panel)
            lrvs = _lrvs(sim.true_lrvs)
            psi = precision_matrix(lrvs, sim.true_loadings)
            stats.append(t_ump(ump_statistics(d, psi, lrvs)).statistic)
        stats = np.asarray(stats)
        assert abs(stats.mean()) < 0.2
        assert 0.75 <= stats.var() <= 1.25
