"""Exact central sequences: hand values, brute-force duals, and lemma-gap checks."""

import math

import numpy as np
import pytest
from scipy.linalg import block_diag

from oracles import (OracleNuisance, ResourceError, cumsum_matrix, delta_mp_exact,
                     delta_mp_smw, delta_panic_exact, delta_simplified, delta_star,
                     psi_epsilon_inverse)
from panelur import DataError, DiffPanel, innovation_covariance, lan_convergence_report
from panelur.oracle import REPORT_COLUMNS, _ScaledCellSolver


def _white_nuisance(n, t):
    return OracleNuisance.from_covariances([np.eye(t)] * n, [], np.zeros((n, 0)))


def _ma1_nuisance(n, t, scales=None, loadings=None, k=0, theta=0.4, seed=0):
    rng = np.random.default_rng(seed)
    scales = np.ones(n) if scales is None else np.asarray(scales)
    base = innovation_covariance("ma1", theta, t, target_lrv=1.0)
    sigma_eta = [c * base for c in scales]
    sigma_f = [innovation_covariance("ma1", theta, t, target_lrv=1.0)] * k
    if loadings is None:
        loadings = rng.normal(1.0, 1.0, size=(n, k)) if k else np.zeros((n, 0))
    return OracleNuisance.from_covariances(sigma_eta, sigma_f, loadings), base, scales


class TestInnovationCovariance:
    def test_ma1_structure(self):
        theta = 0.4
        cov = innovation_covariance("ma1", theta, 5, target_lrv=1.0)
        sigma2 = (1.0 / 1.4) ** 2
        assert cov[0, 0] == pytest.approx(sigma2 * 1.16, rel=1e-12)
        assert cov[0, 1] == pytest.approx(sigma2 * 0.4, rel=1e-12)
        assert cov[0, 2] == 0.0

    def test_ar1_structure(self):
        phi = 0.4
        cov = innovation_covariance("ar1", phi, 6, target_lrv=2.0)
        sigma2 = 2.0 * 0.36
        for m in range(4):
            assert cov[0, m] == pytest.approx(sigma2 * phi ** m / (1 - phi * phi), rel=1e-12)

    def test_long_run_variance_limit(self):
        cov = innovation_covariance("ma1", 0.4, 400, target_lrv=1.0)
        assert np.sum(cov) / 400 == pytest.approx(1.0, abs=0.01)


class TestOracleNuisance:
    def test_approximate_lrvs(self):
        nu, base, _ = _ma1_nuisance(3, 20, scales=[1.0, 2.0, 0.5])
        t = 20
        for i, c in enumerate([1.0, 2.0, 0.5]):
            assert nu.lrv_eta[i] == pytest.approx(c * np.sum(base) / t, abs=1e-10)
            assert nu.oslrv_eta[i] == pytest.approx(
                c * np.sum(np.tril(base, -1)) / t, abs=1e-10)

    def test_one_sided_identity(self):
        # 2 delta_T = omega_T^2 - gamma(0) via A + A' = ones - I
        nu, base, _ = _ma1_nuisance(1, 30)
        gamma0 = base[0, 0]
        assert 2.0 * nu.oslrv_eta[0] == pytest.approx(nu.lrv_eta[0] - gamma0, abs=1e-12)

    def test_validation(self):
        bad = np.eye(3)
        bad[0, 1] = 0.5  # asymmetric
        with pytest.raises(DataError):
            OracleNuisance.from_covariances([bad], [], np.zeros((1, 0)))
        with pytest.raises(DataError):
            OracleNuisance.from_covariances([-np.eye(3)], [], np.zeros((1, 0)))


class TestDeltaPanicExact:
    def test_hand_example(self):
        nu = _white_nuisance(1, 3)
        de = DiffPanel(np.array([[1.0, 2.0, 3.0]]))
        delta, info = delta_panic_exact(de, nu)
        assert delta == pytest.approx(11.0 / 3.0, abs=1e-12)
        assert info == pytest.approx(10.0 / 9.0, abs=1e-12)

    def test_zero_input(self):
        nu = _white_nuisance(2, 4)
        delta, info = delta_panic_exact(DiffPanel(np.zeros((2, 4))), nu)
        assert delta == 0.0 and info == 0.0

    def test_blockwise_equals_kronecker(self):
        n, t = 2, 4
        nu, _, _ = _ma1_nuisance(n, t, scales=[1.0, 1.7])
        rng = np.random.default_rng(1)
        de = DiffPanel(rng.normal(size=(n, t)))
        delta, info = delta_panic_exact(de, nu)
        big_a = np.kron(np.eye(n), cumsum_matrix(t))
        big_sigma = block_diag(*nu.sigma_eta)
        x = de.values.reshape(-1)
        inv = np.linalg.inv(big_sigma)
        want_delta = x @ big_a.T @ inv @ x / (math.sqrt(n) * t)
        want_info = x @ big_a.T @ inv @ big_a @ x / (n * t * t)
        assert delta == pytest.approx(want_delta, abs=1e-10)
        assert info == pytest.approx(want_info, abs=1e-10)


class TestDeltaSimplified:
    def test_white_noise_equals_exact(self):
        nu = _white_nuisance(3, 10)
        rng = np.random.default_rng(2)
        de = DiffPanel(rng.normal(size=(3, 10)))
        exact, _ = delta_panic_exact(de, nu)
        assert np.all(nu.oslrv_eta == 0.0)
        assert delta_simplified(de, nu) == pytest.approx(exact, abs=1e-12)

    def test_hand_example(self):
        nu = _white_nuisance(1, 3)
        de = DiffPanel(np.array([[1.0, 2.0, 3.0]]))
        assert delta_simplified(de, nu) == pytest.approx(11.0 / 3.0, abs=1e-12)

    def test_symmetrized_cumsum_gives_same_quadratic(self):
        # x' (M ⊗ A') x = x' (M ⊗ (A + A')/2) x for symmetric M
        n, t = 3, 8
        nu, base, scales = _ma1_nuisance(n, t, scales=[0.5, 1.0, 2.0])
        rng = np.random.default_rng(3)
        de = rng.normal(size=(n, t))
        a = cumsum_matrix(t)
        sym = 0.5 * (a + a.T)
        inv_omega = 1.0 / nu.lrv_eta
        quad_a = sum(inv_omega[i] * de[i] @ a.T @ de[i] for i in range(n))
        quad_sym = sum(inv_omega[i] * de[i] @ sym @ de[i] for i in range(n))
        assert quad_a == pytest.approx(quad_sym, rel=1e-12)


class TestDeltaMpExact:
    def test_k_zero_reduces_to_panic(self):
        n, t = 3, 6
        nu, _, _ = _ma1_nuisance(n, t, scales=[1.0, 0.7, 1.4])
        rng = np.random.default_rng(4)
        d = DiffPanel(rng.normal(size=(n, t)))
        assert delta_mp_exact(d, nu) == pytest.approx(delta_panic_exact(d, nu), abs=1e-12)

    def test_two_unit_one_factor_dense_oracle(self):
        n, t = 2, 3
        lam = np.array([[1.0], [1.0]])
        nu = OracleNuisance.from_covariances([np.eye(t)] * n, [np.eye(t)], lam)
        rng = np.random.default_rng(5)
        dy = DiffPanel(rng.normal(size=(n, t)))
        delta, info = delta_mp_exact(dy, nu)
        sigma = np.kron(np.ones((2, 2)), np.eye(t)) + np.eye(n * t)
        inv = np.linalg.inv(sigma)
        big_a = np.kron(np.eye(n), cumsum_matrix(t))
        x = dy.values.reshape(-1)
        assert delta == pytest.approx(x @ big_a.T @ inv @ x / (math.sqrt(n) * t), abs=1e-10)
        assert info == pytest.approx(x @ big_a.T @ inv @ big_a @ x / (n * t * t), abs=1e-10)

    def test_resource_guard(self):
        nu = _white_nuisance(11, 400)
        with pytest.raises(ResourceError):
            delta_mp_exact(DiffPanel(np.zeros((11, 400))), nu)


class TestProjectionForms:
    def test_smw_equals_direct_inverse(self):
        for n, k, seed in ((5, 1, 6), (20, 2, 7), (50, 3, 8)):
            rng = np.random.default_rng(seed)
            sigma_f = [innovation_covariance("ma1", 0.4, 6, target_lrv=float(v))
                       for v in rng.uniform(0.5, 2.0, size=k)]
            sigma_eta = [float(c) * innovation_covariance("ma1", 0.4, 6)
                         for c in rng.uniform(0.5, 2.0, size=n)]
            lam = rng.normal(1.0, 1.0, size=(n, k))
            nu = OracleNuisance.from_covariances(sigma_eta, sigma_f, lam)
            smw = psi_epsilon_inverse(nu, method="smw")
            direct = psi_epsilon_inverse(nu, method="direct")
            assert np.abs(smw - direct).max() < 1e-9

    def test_k_zero_collapse(self):
        n, t = 4, 8
        nu, _, _ = _ma1_nuisance(n, t, scales=[1.0, 2.0, 0.5, 1.5])
        rng = np.random.default_rng(9)
        d = DiffPanel(rng.normal(size=(n, t)))
        simplified = delta_simplified(d, nu)
        assert delta_mp_smw(d, nu) == pytest.approx(simplified, abs=1e-12)
        assert delta_star(d, nu) == pytest.approx(simplified, abs=1e-12)

    def test_delta_star_rotation_invariance(self):
        n, t, k = 6, 10, 2
        nu, base, scales = _ma1_nuisance(n, t, scales=None, k=k, seed=10)
        rng = np.random.default_rng(11)
        d = DiffPanel(rng.normal(size=(n, t)))
        base_value = delta_star(d, nu)
        rotation = rng.normal(size=(k, k)) + 2.0 * np.eye(k)
        rotated = OracleNuisance.from_covariances(
            nu.sigma_eta, nu.sigma_f, nu.loadings @ rotation)
        assert delta_star(d, rotated) == pytest.approx(base_value, abs=1e-9)


class TestScaledSolverAgreesWithDenseOps:
    def test_full_covariance_path(self):
        n, t, k = 4, 12, 1
        rng = np.random.default_rng(12)
        scales = rng.uniform(0.5, 2.0, size=n)
        loadings = rng.normal(1.0, 1.0, size=(n, k))
        base = innovation_covariance("ma1", 0.4, t)
        sigma_f = innovation_covariance("ma1", 0.4, t)
        nu = OracleNuisance.from_covariances([c * base for c in scales],
                                             [sigma_f], loadings)
        solver = _ScaledCellSolver(base, scales, loadings, sigma_f)
        dy = rng.normal(size=(n, t))
        delta, info = solver.exact_pair(dy, full=True)
        want_delta, want_info = delta_mp_exact(DiffPanel(dy), nu)
        assert delta == pytest.approx(want_delta, abs=1e-10)
        assert info == pytest.approx(want_info, abs=1e-10)
        assert np.allclose(solver.lrv_eta, nu.lrv_eta, atol=1e-12)
        assert np.allclose(solver.oslrv_eta, nu.oslrv_eta, atol=1e-12)

    def test_idiosyncratic_path(self):
        n, t, k = 4, 12, 1
        rng = np.random.default_rng(13)
        scales = rng.uniform(0.5, 2.0, size=n)
        loadings = rng.normal(1.0, 1.0, size=(n, k))
        base = innovation_covariance("ma1", 0.4, t)
        nu = OracleNuisance.from_covariances([c * base for c in scales], [], np.zeros((n, 0)))
        solver = _ScaledCellSolver(base, scales, loadings, base)
        de = rng.normal(size=(n, t))
        delta, info = solver.exact_pair(de, full=False)
        want_delta, want_info = delta_panic_exact(DiffPanel(de), nu)
        assert delta == pytest.approx(want_delta, abs=1e-10)
        assert info == pytest.approx(want_info, abs=1e-10)


class TestConvergenceReport:
    def test_zero_seeds_empty(self):
        assert lan_convergence_report([(5, 10)], 0) == []

    def test_row_schema_and_sanity(self):
        rows = lan_convergence_report([(10, 40), (20, 160)], seeds=40, base_seed=1)
        assert {tuple(r.keys()) == tuple(REPORT_COLUMNS) or set(r) == set(REPORT_COLUMNS)
                for r in rows} == {True}
        by_key = {(r["n"], r["T"], r["quantity"]): r for r in rows}
        for size in ((10, 40), (20, 160)):
            row = by_key[(*size, "delta_simplified")]
            assert 0.1 < row["variance"] < 1.2
            assert by_key[(*size, "j_mp")]["mean"] > 0.0
        # the information estimates approach their limit of one half
        assert 0.3 < by_key[(20, 160, "j_panic")]["mean"] < 0.7
        assert 0.3 < by_key[(20, 160, "j_mp")]["mean"] < 0.7
        # lemma gaps do not blow up as size grows
        big_gap = by_key[(20, 160, "gap_panic_vs_simplified")]["median_abs_diff"]
        small_gap = by_key[(10, 40, "gap_panic_vs_simplified")]["median_abs_diff"]
        assert big_gap < small_gap * 2.0

    def test_lemma_one_gap_small_at_spec_size(self):
        # MA(1) design at n = 50, T = 200: the exact-vs-simplified gap is
        # below 0.15 in median and shrinks when T doubles.
        rows = lan_convergence_report([(50, 200), (50, 400)], seeds=200, base_seed=2)
        gaps = {(r["n"], r["T"]): r["median_abs_diff"] for r in rows
                if r["quantity"] == "gap_panic_vs_simplified"}
        assert gaps[(50, 200)] < 0.15
        assert gaps[(50, 400)] < gaps[(50, 200)]

    def test_mp_chain_gap_at_spec_size(self):
        rows = lan_convergence_report([(25, 100)], seeds=100, base_seed=3)
        by_q = {r["quantity"]: r for r in rows}
        chain = (by_q["gap_mp_vs_smw"]["median_abs_diff"]
                 + by_q["gap_smw_vs_star"]["median_abs_diff"]
                 + by_q["gap_star_vs_simplified"]["median_abs_diff"])
        assert chain < 0.2 + 0.2 + 0.15


# lan_convergence_report([(6, 20), (8, 30)], seeds=5, base_seed=4) to 13 decimals: per size,
# each quantity's (mean, variance, skew, kurtosis), or the median_abs_diff of each gap.
_PINNED_REPORT = {
    (6, 20): {
        "delta_panic": (0.1639469677458, 0.3800030156334, -0.2976431080995, 2.0488555676024),
        "delta_simplified": (0.1272217267274, 0.365909850933, -0.705642600458, 2.3734055505269),
        "delta_mp": (-0.145569070881, 0.3595304235615, 0.7488988037192, 2.5418850205413),
        "delta_mp_smw": (-0.1750359502986, 0.417616042384, 0.4764739069153, 2.2364832972323),
        "delta_star": (-0.33836475207, 0.1597939597784, -0.1043121827881, 1.9632722035737),
        "j_panic": (0.4493799009167, 0.0314976897841, 0.4721304983314, 2.3421383137074),
        "j_mp": (0.3533295528833, 0.0499005880432, 1.1683104371833, 2.8026145131694),
        "gap_panic_vs_simplified": 0.1161976341647,
        "gap_mp_vs_smw": 0.1010789641719,
        "gap_smw_vs_star": 0.0690036615507,
        "gap_star_vs_simplified": 0.2963168473229,
    },
    (8, 30): {
        "delta_panic": (0.1845729508907, 0.348748781391, 0.5209329430153, 2.0172266994045),
        "delta_simplified": (0.1835034232216, 0.3555910910128, 0.6263367515485, 2.1684632071565),
        "delta_mp": (-0.1447182616354, 0.0509350171677, -0.1935395728503, 1.3036165554363),
        "delta_mp_smw": (-0.1284268007112, 0.0569194658332, -0.2219389741002, 1.5721462530445),
        "delta_star": (-0.0791785636819, 0.0536726765984, -0.125954205943, 1.4954861528853),
        "j_panic": (0.5181589301227, 0.0338198477783, 0.9724892506353, 2.7873661406232),
        "j_mp": (0.4725266385541, 0.0179093909741, 0.7315323039574, 2.6169135190959),
        "gap_panic_vs_simplified": 0.0359369669816,
        "gap_mp_vs_smw": 0.0395664596257,
        "gap_smw_vs_star": 0.0444082303926,
        "gap_star_vs_simplified": 0.2189586971353,
    },
}


def test_report_values_pinned():
    rows = lan_convergence_report([(6, 20), (8, 30)], seeds=5, base_seed=4)
    assert [(r["n"], r["T"], r["quantity"], r["seeds"]) for r in rows] == [
        (*size, quantity, 5) for size, table in _PINNED_REPORT.items() for quantity in table]
    for row in rows:
        want = _PINNED_REPORT[row["n"], row["T"]][row["quantity"]]
        want = (math.nan, *want) if isinstance(want, tuple) else (want, *[math.nan] * 4)
        for column, value in zip(REPORT_COLUMNS[3:8], want):
            got = row[column]
            assert (math.isnan(got) if math.isnan(value)
                    else abs(got - value) <= 1e-12 * max(1.0, abs(value))), (row, column)
