"""Principal-components factor estimation and factor-count selection."""

import numpy as np
import pytest

from panelur import DiffPanel, DimensionError, NumericalError, estimate_factors, select_num_factors

from oracles import factor_fit_dense


def _power_iteration_top_eigs(s, k, iters=5000, seed=0):
    """Independent top-k eigenpair solver via deflated power iteration."""
    rng = np.random.default_rng(seed)
    n = s.shape[0]
    mat = s.copy()
    pairs = []
    for _ in range(k):
        v = rng.normal(size=n)
        for _ in range(iters):
            w = mat @ v
            norm = np.linalg.norm(w)
            if norm == 0.0:
                break
            v = w / norm
        lam = float(v @ mat @ v)
        pairs.append((lam, v.copy()))
        mat = mat - lam * np.outer(v, v)
    return pairs


def _random_diff(n, t, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    return DiffPanel(scale * rng.normal(size=(n, t)))


def _check_eigen_relation(n, tp):
    d = _random_diff(n, tp, seed=2)
    s = d.values @ d.values.T / (n * tp)
    k = 2
    fit = estimate_factors(d, k)
    pairs = _power_iteration_top_eigs(s, k, seed=3)
    for j, (lam, vec) in enumerate(pairs):
        col = fit.loadings_bar[:, j] / np.sqrt(n)
        assert abs(abs(col @ vec) - 1.0) < 1e-8
        assert np.allclose(s @ col, lam * col, atol=1e-8)


def _check_orthonormality(n, tp):
    d = _random_diff(n, tp, seed=4)
    fit = estimate_factors(d, 3)
    gram = fit.loadings_bar.T @ fit.loadings_bar / n
    assert np.allclose(gram, np.eye(3), atol=1e-8)
    cross = fit.loadings_bar.T @ fit.residuals.values
    assert np.abs(cross).max() < 1e-8


class TestEstimateFactors:
    def test_exact_one_factor(self):
        f = np.array([1.0, -2.0, 0.5, 3.0, -1.0])
        lam = np.array([1.0, 1.0])
        d = DiffPanel(np.outer(lam, f))
        fit = estimate_factors(d, 1)
        assert np.allclose(fit.loadings_bar[:, 0], [1.0, 1.0], atol=1e-10)
        assert np.abs(fit.residuals.values).max() < 1e-10

    def test_full_rank_projection_leaves_nothing(self):
        d = _random_diff(4, 30, seed=1)
        fit = estimate_factors(d, 4)
        assert np.abs(fit.residuals.values).max() < 1e-10

    def test_eigen_relation_against_power_iteration(self):
        _check_eigen_relation(4, 50)

    def test_eigen_relation_dual_shape(self):
        _check_eigen_relation(40, 12)

    def test_orthonormality_and_residual_orthogonality(self):
        _check_orthonormality(8, 40)

    def test_orthonormality_dual_shape(self):
        _check_orthonormality(50, 15)

    def test_k_zero_returns_input(self):
        d = _random_diff(5, 20, seed=5)
        fit = estimate_factors(d, 0)
        assert fit.k == 0
        assert fit.loadings_hat.shape == (5, 0)
        assert np.array_equal(fit.residuals.values, d.values)

    def test_scale_equivariance(self):
        d = _random_diff(6, 30, seed=6)
        scaled = DiffPanel(3.0 * d.values)
        f1 = estimate_factors(d, 2)
        f2 = estimate_factors(scaled, 2)
        assert np.allclose(f2.loadings_bar, f1.loadings_bar, atol=1e-9)
        assert np.allclose(f2.loadings_hat, 9.0 * f1.loadings_hat, atol=1e-9)
        assert np.allclose(f2.residuals.values, 3.0 * f1.residuals.values, atol=1e-9)

    def test_factor_diff_columns_orthogonal(self):
        d = _random_diff(7, 60, seed=7)
        fit = estimate_factors(d, 3)
        gram = fit.factor_diffs.T @ fit.factor_diffs
        off = gram - np.diag(np.diag(gram))
        assert np.abs(off).max() < 1e-8

    def test_refit_with_same_loadings_is_idempotent(self):
        # The extracted top-k component is gone from the residuals: projecting
        # them onto the fitted loadings again changes nothing.
        d = _random_diff(6, 40, seed=8)
        fit = estimate_factors(d, 2)
        resid = fit.residuals.values
        reproj = resid - (fit.loadings_bar @ (fit.loadings_bar.T @ resid)) / 6
        assert np.allclose(reproj, resid, atol=1e-10)

    def test_k_out_of_range(self):
        d = _random_diff(4, 10)
        with pytest.raises(DimensionError):
            estimate_factors(d, 5)
        with pytest.raises(DimensionError):
            estimate_factors(d, -1)


def _factor_diff(n, tp, k, seed):
    """k factors of decreasing strength plus unit noise, unit-major."""
    rng = np.random.default_rng(seed)
    common = rng.normal(size=(n, k)) * np.arange(k, 0, -1) @ rng.normal(size=(k, tp))
    return DiffPanel(common + rng.normal(size=(n, tp)))


# n > T': the fit decomposes the T' x T' Gram matrix instead of the n x n one.
DUAL_SHAPES = [(30, 10), (120, 40), (51, 50), (300, 7)]


class TestDualFit:
    @pytest.mark.parametrize("n, tp", DUAL_SHAPES)
    @pytest.mark.parametrize("factors", [0, 2])
    def test_matches_dense_fit(self, n, tp, factors):
        d = _factor_diff(n, tp, factors, seed=n + tp) if factors else _random_diff(n, tp, seed=n)
        for k in (1, 3):
            fit, ref = estimate_factors(d, k), factor_fit_dense(d, k)
            for got, want in [(fit.loadings_bar, ref.loadings_bar),
                              (fit.loadings_hat, ref.loadings_hat),
                              (fit.factor_diffs, ref.factor_diffs),
                              (fit.residuals.values, ref.residuals.values)]:
                assert got.shape == want.shape
                assert np.abs(got - want).max() <= 1e-10 * max(1.0, np.abs(want).max())
            anchor = np.argmax(np.abs(fit.loadings_bar), axis=0)
            assert np.all(fit.loadings_bar[anchor, np.arange(k)] > 0)
            assert np.array_equal(np.sign(fit.loadings_bar[anchor, np.arange(k)]),
                                  np.sign(ref.loadings_bar[anchor, np.arange(k)]))

    @pytest.mark.parametrize("n, tp", DUAL_SHAPES)
    @pytest.mark.parametrize("factors", [0, 1, 3])
    def test_select_matches_dense_residuals(self, n, tp, factors):
        d = _factor_diff(n, tp, factors, seed=7 * n + tp) if factors else _random_diff(n, tp)
        k_max = min(5, tp)
        penalty = (n + tp) / (n * tp) * np.log(min(n, tp))
        ics = [np.log(np.mean(d.values ** 2))]
        for k in range(1, k_max + 1):
            vk = np.mean(factor_fit_dense(d, k).residuals.values ** 2)
            ics.append(np.log(vk) + k * penalty)
        assert select_num_factors(d, k_max) == int(np.argmin(ics))


class TestRankGuard:
    @pytest.mark.parametrize("n, distinct, copies", [(40, 3, 4), (6, 3, 8)])
    def test_k_beyond_rank_raises(self, n, distinct, copies):
        # T' = distinct * copies; n > T' in the first case, n <= T' in the second.
        base = np.random.default_rng(12).normal(size=(n, distinct))
        d = DiffPanel(np.tile(base, copies))
        fit = estimate_factors(d, distinct)
        assert np.all(np.isfinite(fit.loadings_bar))
        assert np.abs(fit.residuals.values).max() < 1e-10
        with pytest.raises(NumericalError, match=f"factor fit: k={distinct + 1} exceeds "
                                                 "the rank of the differenced panel"):
            estimate_factors(d, distinct + 1)


class TestEigensolverFailure:
    @pytest.mark.parametrize("solver, call", [
        ("eigh", lambda d: estimate_factors(d, 1)),
        ("eigvalsh", lambda d: select_num_factors(d, 2)),
    ])
    @pytest.mark.parametrize("n", [6, 40])   # the primal and the dual Gram matrix
    def test_linalg_error_is_a_numerical_error(self, monkeypatch, solver, call, n):
        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, solver, failing)
        with pytest.raises(NumericalError, match="factor fit: the eigensolver failed") as caught:
            call(_random_diff(n, 20))
        assert "did not converge" in str(caught.value)


class TestSelectNumFactors:
    def test_kmax_zero(self):
        assert select_num_factors(_random_diff(5, 20), 0) == 0

    def test_strong_single_factor(self):
        rng = np.random.default_rng(9)
        n = t = 50
        lam = rng.normal(1.0, 1.0, size=n)
        f = rng.normal(size=t)
        noise = 0.1 * rng.normal(size=(n, t))
        d = DiffPanel(np.outer(lam, f) + noise)
        assert select_num_factors(d, 6) == 1
        # the information criterion really is driven by the variance drop
        v0 = np.mean(d.values ** 2)
        v1 = np.mean(estimate_factors(d, 1).residuals.values ** 2)
        penalty = (n + t) / (n * t) * np.log(min(n, t))
        assert v1 < 0.05 * v0
        assert np.log(v1) + penalty < np.log(v0)

    def test_pure_noise_selects_zero(self):
        hits = 0
        reps = 200
        for seed in range(reps):
            d = _random_diff(100, 100, seed=1000 + seed)
            hits += select_num_factors(d, 4) == 0
        assert hits >= 0.95 * reps

    def test_matches_explicit_residual_computation(self):
        d = _random_diff(10, 40, seed=10)
        n, tp = d.values.shape
        penalty = (n + tp) / (n * tp) * np.log(min(n, tp))
        ics = [np.log(np.mean(d.values ** 2))]
        for k in range(1, 5):
            vk = np.mean(estimate_factors(d, k).residuals.values ** 2)
            ics.append(np.log(vk) + k * penalty)
        assert select_num_factors(d, 4) == int(np.argmin(ics))

    def test_kmax_out_of_range(self):
        with pytest.raises(DimensionError):
            select_num_factors(_random_diff(4, 10), 5)
