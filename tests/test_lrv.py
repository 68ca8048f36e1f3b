"""Long-run variance estimation: hand values, population oracles, invariances."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import prewhitened_lrv_by_group
from panelur import (DataError, DiffPanel, InnovationSpec, LrvConfig, NumericalError,
                     estimate_lrv_set, innovation_scale, lrv)

BARTLETT_NO_PW = LrvConfig(kernel="bartlett", bandwidth="andrews", prewhiten=False)


def autocovariances(x, max_lag):
    """Oracle: gamma(m) = (1/T) sum_{t=1}^{T-m} x_t x_{t+m}, m = 0..max_lag, no mean removal."""
    x = np.asarray(x, dtype=float)
    if not 0 <= max_lag < x.size:
        raise DataError(f"max_lag={max_lag} must lie in 0..T-1 for T={x.size}")
    return np.array([x[: x.size - m] @ x[m:] / x.size for m in range(max_lag + 1)])


def kernel_lrv(x, cfg):
    """(omega^2, delta, gamma(0)) for one series, through the panel estimator."""
    est = estimate_lrv_set(DiffPanel(np.asarray(x, dtype=float)[None, :]), cfg)
    return float(est.omega2[0]), float(est.delta[0]), float(est.gamma0[0])


def _two_point_series(length=8, gamma0=1.0, gamma1=0.4):
    """Alternating two-value series with prescribed gamma(0), gamma(1)."""
    # pattern (x, y, x, y, ...): gamma0 = (x^2+y^2)/2, gamma1 = (L-1) x y / L
    xy = gamma1 * length / (length - 1)
    ssq = 2.0 * gamma0
    p = math.sqrt(ssq + 2.0 * xy)
    disc = math.sqrt(ssq - 2.0 * xy)
    x, y = (p + disc) / 2.0, (p - disc) / 2.0
    return np.array([x, y] * (length // 2))


class TestAutocovariances:
    def test_alternating(self):
        g = autocovariances([1.0, -1.0, 1.0, -1.0], 1)
        assert g[0] == pytest.approx(1.0, abs=1e-15)
        assert g[1] == pytest.approx(-0.75, abs=1e-15)

    @given(arrays(float, st.integers(2, 30),
                  elements=st.floats(-100, 100, allow_nan=False)))
    @settings(max_examples=60, deadline=None)
    def test_lag0_is_mean_square(self, data):
        g = autocovariances(data, 0)
        assert g[0] >= 0.0
        assert g[0] == pytest.approx(np.mean(np.asarray(data) ** 2), rel=1e-12, abs=1e-12)

    def test_ar1_population_ratio(self):
        rng = np.random.default_rng(12)
        t = 100_000
        e = rng.standard_normal(t + 1)
        s = np.empty(t)
        level = e[0] / math.sqrt(1 - 0.16)
        for i in range(t):
            level = 0.4 * level + e[i + 1]
            s[i] = level
        g = autocovariances(s, 1)
        assert 0.38 <= g[1] / g[0] <= 0.42

    def test_max_lag_bound(self):
        with pytest.raises(DataError):
            autocovariances([1.0, 2.0], 2)


class TestKernelLrv:
    def test_hand_weighted_sum(self):
        s = _two_point_series()
        g = autocovariances(s, 1)
        assert g[0] == pytest.approx(1.0, abs=1e-12)
        assert g[1] == pytest.approx(0.4, abs=1e-12)
        cfg = LrvConfig(kernel="bartlett", bandwidth="fixed", fixed_bandwidth=2.0,
                        prewhiten=False)
        omega2, delta, gamma0 = kernel_lrv(s, cfg)
        assert omega2 == pytest.approx(1.4, abs=1e-12)
        assert delta == pytest.approx(0.2, abs=1e-12)
        assert gamma0 == pytest.approx(1.0, abs=1e-12)

    def test_white_noise_prewhitened(self):
        rng = np.random.default_rng(21)
        x = rng.standard_normal((100, 2000))
        est = estimate_lrv_set(DiffPanel(x), LrvConfig(prewhiten=True))
        assert np.median(np.abs(est.delta)) < 0.05
        assert np.median(est.omega2) == pytest.approx(np.median(est.gamma0), rel=0.1)

    def test_ma1_population_values(self):
        theta = 0.4
        sigma = innovation_scale(InnovationSpec(kind="ma1", parameter=theta))
        rng = np.random.default_rng(22)
        raw = rng.standard_normal((200, 5001))
        x = sigma * (raw[:, 1:] + theta * raw[:, :-1])
        est = estimate_lrv_set(DiffPanel(x), BARTLETT_NO_PW)
        assert 0.9 <= np.median(est.omega2) <= 1.1
        # population one-sided LRV: (1 - sigma^2 (1 + theta^2)) / 2 = 0.2041
        assert 0.15 <= np.median(est.delta) <= 0.25

    def test_delta_matches_kernel_identity(self):
        rng = np.random.default_rng(23)
        s = rng.standard_normal(60).cumsum() * 0.1 + rng.standard_normal(60)
        for b in (1.5, 3.0, 7.9):
            cfg = LrvConfig(kernel="bartlett", bandwidth="fixed", fixed_bandwidth=b,
                            prewhiten=False)
            omega2, delta, gamma0 = kernel_lrv(s, cfg)
            lags = np.arange(1, int(b) + 1)
            g = autocovariances(s, int(b))
            one_sided = float(np.sum((1.0 - lags / b) * g[1:]))
            assert delta == pytest.approx(one_sided, abs=1e-12)
            assert omega2 == pytest.approx(gamma0 + 2.0 * one_sided, abs=1e-12)

    @given(arrays(float, st.integers(10, 40),
                  elements=st.floats(-50, 50, allow_nan=False)))
    @settings(max_examples=60, deadline=None)
    def test_bartlett_nonnegative(self, data):
        s = np.asarray(data)
        if np.all(s == 0.0):
            return
        for b in (2.0, 5.5):
            lags = np.arange(1, int(b) + 1)
            g = autocovariances(s, min(int(b), s.size - 1))
            weights = np.clip(1.0 - lags[: g.size - 1] / b, 0.0, 1.0)
            direct = g[0] + 2.0 * float(weights @ g[1 : weights.size + 1])
            assert direct >= -1e-9 * (1.0 + g[0])

    @pytest.mark.parametrize("prewhiten", [False, True])
    @pytest.mark.parametrize("bandwidth", ["andrews", "newey_west"])
    def test_scale_equivariance(self, prewhiten, bandwidth):
        rng = np.random.default_rng(24)
        raw = rng.standard_normal(301)
        s = raw[1:] + 0.4 * raw[:-1]
        cfg = LrvConfig(kernel="bartlett", bandwidth=bandwidth, prewhiten=prewhiten)
        base = kernel_lrv(s, cfg)
        scaled = kernel_lrv(3.0 * s, cfg)
        for got, want in zip(scaled, base):
            assert got == pytest.approx(9.0 * want, rel=1e-9)

    def test_quadratic_spectral_runs(self):
        rng = np.random.default_rng(25)
        s = rng.standard_normal(300)
        cfg = LrvConfig(kernel="quadratic_spectral", bandwidth="andrews", prewhiten=False)
        omega2, _, gamma0 = kernel_lrv(s, cfg)
        assert omega2 == pytest.approx(gamma0, rel=0.5)

    def test_too_short(self):
        with pytest.raises(DataError):
            kernel_lrv(np.ones(7), BARTLETT_NO_PW)

    def test_config_validation(self):
        with pytest.raises(DataError):
            LrvConfig(kernel="flat")
        with pytest.raises(DataError):
            LrvConfig(bandwidth="fixed", fixed_bandwidth=0.5)
        with pytest.raises(DataError):
            LrvConfig(bandwidth="andrews", fixed_bandwidth=3.0)
        for bandwidth in (math.inf, math.nan):
            with pytest.raises(DataError, match="fixed bandwidth must be finite and >= 1"):
                LrvConfig(bandwidth="fixed", fixed_bandwidth=bandwidth)


class TestEstimateLrvSet:
    def test_identical_units_are_homogeneous(self):
        rng = np.random.default_rng(26)
        row = rng.standard_normal(150)
        x = np.tile(row, (5, 1))
        est = estimate_lrv_set(DiffPanel(x), BARTLETT_NO_PW)
        assert np.ptp(est.omega2) == 0.0
        assert est.pooled_phi4 == pytest.approx(est.pooled_omega2 ** 2, rel=1e-12)

    def test_scaled_copy_pooling(self):
        rng = np.random.default_rng(27)
        row = rng.standard_normal(200)
        est = estimate_lrv_set(DiffPanel(np.vstack([row, 2.0 * row])), BARTLETT_NO_PW)
        ratio = est.omega2[1] / est.omega2[0]
        assert ratio == pytest.approx(4.0, rel=1e-9)
        scale = est.omega2[0]
        assert est.pooled_omega2 / scale == pytest.approx(2.5, rel=1e-9)
        assert est.pooled_phi4 / scale ** 2 == pytest.approx(8.5, rel=1e-9)
        mixing = est.pooled_omega2 / math.sqrt(est.pooled_phi4)
        assert mixing == pytest.approx(2.5 / math.sqrt(8.5), rel=1e-9)

    def test_heterogeneity_ratio_recovery(self):
        from panelur import lognormal_heterogeneity_params
        mu, sigma2 = lognormal_heterogeneity_params(0.6)
        ratios = []
        for seed in range(50):
            rng = np.random.default_rng(400 + seed)
            lrvs = rng.lognormal(mu, math.sqrt(sigma2), size=50)
            x = np.sqrt(lrvs)[:, None] * rng.standard_normal((50, 2000))
            est = estimate_lrv_set(DiffPanel(x), BARTLETT_NO_PW)
            ratios.append(est.pooled_omega2 / math.sqrt(est.pooled_phi4))
        assert abs(np.median(ratios) - 0.6) <= 0.08

    @given(arrays(float, st.tuples(st.integers(2, 6), st.integers(10, 30)),
                  elements=st.floats(-10, 10, allow_nan=False)))
    @settings(max_examples=40, deadline=None)
    def test_pooled_cauchy_schwarz(self, values):
        est = estimate_lrv_set(DiffPanel(values), BARTLETT_NO_PW)
        assert np.all(est.omega2 > 0.0)
        assert est.pooled_omega2 ** 2 <= est.pooled_phi4 * (1.0 + 1e-12)


def _ar1_rows(seed, rows, length):
    """Rows of AR(1) series with a persistence of their own, so that rows in one
    call pick different prewhitening models and truncation lags."""
    rng = np.random.default_rng(seed)
    phi = rng.uniform(-0.9, 0.9, size=rows)
    e = rng.standard_normal((rows, length))
    x = np.empty_like(e)
    x[:, 0] = e[:, 0]
    for t in range(1, length):
        x[:, t] = phi * x[:, t - 1] + e[:, t]
    return rng.uniform(0.1, 10.0, size=(rows, 1)) * x


class TestRowLocality:
    # The harness stacks the residual rows of a whole batch of replications into
    # one call, so a row's estimates may not depend on the rows beside it.
    @pytest.mark.parametrize("cfg", [
        LrvConfig(kernel=kernel, bandwidth=bandwidth, prewhiten=prewhiten)
        for kernel in ("bartlett", "quadratic_spectral")
        for bandwidth in ("andrews", "newey_west")
        for prewhiten in (True, False)])
    @given(seed=st.integers(0, 2 ** 32 - 1), rows=st.integers(1, 12),
           length=st.integers(8, 120), data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_any_rows_give_the_same_bits(self, cfg, seed, rows, length, data):
        x = _ar1_rows(seed, rows, length)
        picks = data.draw(st.lists(st.integers(0, rows - 1), min_size=1, max_size=2 * rows))
        whole = estimate_lrv_set(x, cfg)
        for index in (picks, picks[:1]):
            part = estimate_lrv_set(x[index], cfg)
            for field in ("omega2", "delta", "gamma0"):
                assert np.array_equal(getattr(part, field), getattr(whole, field)[index])

    # The stacked shapes of an acceptance batch (13 replications of 50 x 99
    # residuals) and of a mc_serial_long batch (5 of 25 x 399).
    @pytest.mark.parametrize("kernel", ["bartlett", "quadratic_spectral"])
    @pytest.mark.parametrize("rows, length", [(650, 99), (125, 399)])
    def test_batch_shapes_give_the_same_bits(self, kernel, rows, length):
        cfg = LrvConfig(kernel=kernel, prewhiten=True)
        x = _mixed_law_rows(rows + length, rows, length)
        whole = estimate_lrv_set(x, cfg)
        for index in (np.arange(0, rows, 7), [rows // 2]):
            part = estimate_lrv_set(x[index], cfg)
            for field in ("omega2", "delta", "gamma0"):
                assert np.array_equal(getattr(part, field), getattr(whole, field)[index])


def _mixed_law_rows(seed, rows, length):
    """Rows drawn from iid, AR(1) and MA(1) laws at random, so that every
    prewhitening model is chosen by some row."""
    rng = np.random.default_rng(seed)
    law = rng.integers(0, 3, size=rows)
    coef = rng.uniform(-0.8, 0.8, size=rows)
    e = rng.standard_normal((rows, length + 1))
    x = e[:, 1:] + np.where(law == 2, coef, 0.0)[:, None] * e[:, :-1]
    ar = np.where(law == 1, coef, 0.0)
    for t in range(1, length):
        x[:, t] += ar * x[:, t - 1]
    return rng.uniform(0.1, 10.0, size=(rows, 1)) * x


class TestOneFilterPass:
    # The prewhitened estimator fits the long autoregression from lag products
    # and filters every model group in one pass over rows of one width. The
    # Newey-West lag is 3 at length 99 and 4 at 100, so at L = 100 a row with
    # an AR part given L in place of L - 1 shows; 101 is its neighbour.
    @given(seed=st.integers(0, 2 ** 32 - 1), rows=st.integers(1, 12),
           length=st.one_of(st.sampled_from([100, 101]), st.integers(8, 200)),
           kernel=st.sampled_from(["bartlett", "quadratic_spectral"]),
           bandwidth=st.sampled_from(["andrews", "newey_west", "fixed"]),
           fixed=st.floats(1.0, 20.0))
    @settings(max_examples=150, deadline=None)
    def test_matches_the_per_group_oracle(self, seed, rows, length, kernel, bandwidth, fixed):
        cfg = LrvConfig(kernel=kernel, bandwidth=bandwidth,
                        fixed_bandwidth=fixed if bandwidth == "fixed" else None)
        x = _mixed_law_rows(seed, rows, length)
        model, omega2, delta = prewhitened_lrv_by_group(x, cfg)
        chosen = lrv._fit_prewhitening(x, lrv._mean_square(x))[0]
        assert np.array_equal(chosen, model)
        est = estimate_lrv_set(x, cfg)
        np.testing.assert_allclose(est.omega2, omega2, rtol=1e-10, atol=0.0)
        np.testing.assert_allclose(est.delta, delta, rtol=1e-10, atol=0.0)

    @pytest.mark.parametrize("rows, recursions", [(1, 0), (40, 1)])
    def test_one_kernel_sum_and_at_most_one_recursion(self, monkeypatch, rows, recursions):
        x = _mixed_law_rows(7, rows, 120)
        if rows > 1:  # every model group occurs, so a loop over groups would show
            model = lrv._fit_prewhitening(x, lrv._mean_square(x))[0]
            assert set(model.tolist()) == {lrv._WN, lrv._AR1, lrv._MA1, lrv._ARMA11}
        calls = {"_kernel_sum": 0, "ar_recursion": 0}
        for name in calls:
            original = getattr(lrv, name)

            def counted(*args, name=name, original=original):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(lrv, name, counted)
        estimate_lrv_set(x, LrvConfig(prewhiten=True))
        assert calls == {"_kernel_sum": 1, "ar_recursion": recursions}


class TestPrewhiteningErrors:
    @pytest.mark.parametrize("zero_units", [[1], [0, 2]])
    def test_zero_residual_rows_are_a_numerical_error(self, zero_units):
        x = np.random.default_rng(31).standard_normal((3, 60))
        x[zero_units] = 0.0
        with pytest.raises(NumericalError, match="LRV prewhitening") as caught:
            estimate_lrv_set(DiffPanel(x), LrvConfig(prewhiten=True))
        assert f"unit(s) {zero_units}" in str(caught.value)

    def test_zero_rows_without_prewhitening_still_estimate(self):
        x = np.random.default_rng(31).standard_normal((3, 60))
        x[1] = 0.0
        est = estimate_lrv_set(DiffPanel(x), BARTLETT_NO_PW)
        assert np.all(np.isfinite(est.omega2))


class TestSolveRows:
    # The prewhitening regression solves a (p, p, rows) stack of ridged Grams.
    @staticmethod
    def _stack(p, rows, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((rows, p, p))
        gram = a @ a.transpose(0, 2, 1) + p * np.eye(p)  # SPD, condition number below ~10
        return gram, rng.standard_normal((rows, p))

    @pytest.mark.parametrize("p", [4, 9, 12])
    @pytest.mark.parametrize("rows", [1, 13, 650])
    def test_matches_lapack_and_each_row_alone(self, p, rows):
        gram, rhs = self._stack(p, rows, 100 * p + rows)
        want = np.linalg.solve(gram, rhs[..., None])[..., 0]
        layout = gram.transpose(1, 2, 0).copy()
        got = lrv._solve_rows(layout.copy(), rhs.T.copy()).T
        err = np.linalg.norm(got - want, axis=1) / np.linalg.norm(want, axis=1)
        assert err.max() <= 1e-12
        for r in range(rows):
            alone = lrv._solve_rows(layout[:, :, r : r + 1].copy(), rhs.T[:, r : r + 1].copy())
            assert np.array_equal(alone[:, 0], got[r])

    def test_zero_pivot_names_its_rows(self):
        gram, rhs = self._stack(9, 650, 3)
        gram[[0, 649]] = 0.0
        rhs[[0, 649]] = 0.0
        with pytest.raises(NumericalError, match=r"LRV prewhitening: singular Hannan-Rissanen "
                           r"long-autoregression design for unit\(s\) \[0, 649\]$"):
            lrv._solve_rows(gram.transpose(1, 2, 0).copy(), rhs.T.copy())
