"""Acceptance suite: every criterion at its stated tolerance, one line each.

The Monte Carlo criteria run at desk scale (10^4 / 5x10^3 replications) and
parallelize over the available cores; tolerances include the Monte Carlo
error bands stated alongside the reference values.
"""

import math

import numpy as np
import pytest

from oracles import (OracleNuisance, cumsum_matrix, delta_panic_exact, psi_epsilon_inverse,
                     ump_statistics_naive)
from panelur import (DgpConfig, DiffPanel, Experiment, LrvConfig, LrvSet, Panel, bn_tests,
                     difference, estimate_factors, innovation_covariance,
                     lan_convergence_report, local_power_mp_bn, mp_tests, power_envelope,
                     precision_matrix, run, simulate, t_ump, t_ump_emp, ump_statistics)
from scipy.linalg import block_diag

ACCEPTANCE_CELL = dict(sizes=((50, 100),), ratios=(0.8,), innovations=("iid",),
                       distributions=("gaussian",), k=1, k_known=True,
                       lrv_cfg=LrvConfig(kernel="bartlett", bandwidth="andrews",
                                         prewhiten=True),
                       alpha=0.05, base_seed=20_240_501)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def size_rates():
    exp = Experiment(frameworks=("PANIC",), h_values=(0.0,),
                     tests=("t_ump", "t_ump_emp", "p_b"),
                     replications=10_000, **ACCEPTANCE_CELL)
    rows = run(exp)
    return {r.test: r for r in rows}


@pytest.fixture(scope="module")
def power_rates():
    exp = Experiment(frameworks=("PANIC", "MP"), h_values=(-5.0,),
                     tests=("t_ump_emp", "p_b"),
                     replications=5_000, **ACCEPTANCE_CELL)
    rows = run(exp)
    return {(r.framework, r.test): r for r in rows}


def test_criterion_1_analytic_envelope():
    envelope_ref = [(0.0, 0.05), (0.5, 0.098300), (1.0, 0.174187),
                    (1.5, 0.279545), (2.0, 0.408797)]
    mp_bn_ref = [(0.5, 0.086597), (1.0, 0.140256), (1.5, 0.212921), (2.0, 0.303807)]
    env_err = max(abs(power_envelope(0.05, h) - v) for h, v in envelope_ref)
    mp_err = max(abs(local_power_mp_bn(0.05, h, 0.8) - v) for h, v in mp_bn_ref)
    _report(1, env_err < 1e-5 and mp_err < 1e-5,
            f"envelope max err {env_err:.2e}, MP/BN max err {mp_err:.2e} (tol 1e-5)")


def test_criterion_2_size_replication(size_rates):
    t_ump_pct = 100.0 * size_rates["t_ump"].rejection_rate
    t_emp_pct = 100.0 * size_rates["t_ump_emp"].rejection_rate
    p_b_pct = 100.0 * size_rates["p_b"].rejection_rate
    ok = (2.0 <= t_ump_pct <= 4.0 and 4.4 <= t_emp_pct <= 6.4 and 3.8 <= p_b_pct <= 5.8)
    _report(2, ok,
            f"sizes at R=10^4: t_ump {t_ump_pct:.2f}% (band [2.0, 4.0], ref 3.01), "
            f"t_ump_emp {t_emp_pct:.2f}% (band [4.4, 6.4], ref 5.40), "
            f"p_b {p_b_pct:.2f}% (band [3.8, 5.8], ref 4.80)")


def test_criterion_3_power_replication(power_rates):
    emp = power_rates[("PANIC", "t_ump_emp")].rejection_rate
    p_b = power_rates[("PANIC", "p_b")].rejection_rate
    ok = 0.86 <= emp <= 0.92 and 0.75 <= p_b <= 0.81 and emp > p_b
    _report(3, ok,
            f"power at |h|=5, R=5000: t_ump_emp {emp:.4f} (band [0.86, 0.92], ref 0.88941), "
            f"p_b {p_b:.4f} (band [0.75, 0.81], ref 0.77634), gap {emp - p_b:+.4f} > 0")


def test_criterion_4_framework_equivalence(power_rates):
    gaps = {test: abs(power_rates[("MP", test)].rejection_rate
                      - power_rates[("PANIC", test)].rejection_rate)
            for test in ("t_ump_emp", "p_b")}
    worst = max(gaps.values())
    _report(4, worst <= 0.02,
            f"MP vs PANIC power gaps at |h|=5: "
            + ", ".join(f"{k} {v:.4f}" for k, v in gaps.items()) + " (tol 0.02)")


def test_criterion_5_homogeneous_reduction():
    rng = np.random.default_rng(55)
    worst = 0.0
    for rep in range(50):
        n, t, k = 10, 35, 1 + rep % 2
        panel = Panel(rng.standard_normal((n, t)).cumsum(axis=1))
        d = difference(panel)
        fit = estimate_factors(d, k)
        lrvs = LrvSet(omega2=np.full(n, rng.uniform(0.5, 2.0)),
                      delta=np.full(n, 0.3 * rng.standard_normal()),
                      gamma0=np.ones(n))
        psi = precision_matrix(lrvs, fit.loadings_hat)
        emp = t_ump_emp(ump_statistics(d, psi, lrvs)).statistic
        _, p_b = bn_tests(fit, lrvs)
        worst = max(worst, abs(emp - p_b.statistic))
    _report(5, worst < 1e-8,
            f"t_ump_emp vs P_b with homogeneous LRVs injected: "
            f"max |diff| {worst:.2e} over 50 panels (tol 1e-8)")


def test_criterion_6_invariance_suite():
    rng = np.random.default_rng(66)
    worst_shift = 0.0
    worst_rot = 0.0
    for rep in range(100):
        n, t, k = 8, 30, 2
        sim = simulate(DgpConfig(framework="PANIC", n=n, T=t, h=0.0, K=k,
                                 lrv_ratio=0.8, seed=6000 + rep))
        d = difference(sim.panel)
        fit = estimate_factors(d, k)
        lrvs = LrvSet(omega2=rng.uniform(0.5, 2.0, size=n),
                      delta=0.2 * rng.standard_normal(n),
                      gamma0=np.ones(n))
        psi = precision_matrix(lrvs, fit.loadings_hat)
        base = {
            "t_ump": t_ump(ump_statistics(d, psi, lrvs)).statistic,
            "t_ump_emp": t_ump_emp(ump_statistics(d, psi, lrvs)).statistic,
        }
        base["p_a"], base["p_b"] = (o.statistic for o in bn_tests(fit, lrvs))

        shifted = Panel(sim.panel.values + rng.uniform(-30, 30, size=(n, 1)))
        d2 = difference(shifted)
        fit2 = estimate_factors(d2, k)
        psi2 = precision_matrix(lrvs, fit2.loadings_hat)
        moved = {
            "t_ump": t_ump(ump_statistics(d2, psi2, lrvs)).statistic,
            "t_ump_emp": t_ump_emp(ump_statistics(d2, psi2, lrvs)).statistic,
        }
        moved["p_a"], moved["p_b"] = (o.statistic for o in bn_tests(fit2, lrvs))
        worst_shift = max(worst_shift, max(abs(moved[x] - base[x]) for x in base))

        rotation = rng.standard_normal((k, k)) + 2.0 * np.eye(k)
        psi_rot = precision_matrix(lrvs, fit.loadings_hat @ rotation)
        worst_rot = max(
            worst_rot,
            abs(t_ump(ump_statistics(d, psi_rot, lrvs)).statistic - base["t_ump"]),
            abs(t_ump_emp(ump_statistics(d, psi_rot, lrvs)).statistic - base["t_ump_emp"]),
            np.abs(psi_rot.matrix - psi.matrix).max(),
            max(abs(a.statistic - b.statistic) for a, b in
                zip(mp_tests(sim.panel, fit.loadings_hat @ rotation, lrvs),
                    mp_tests(sim.panel, fit.loadings_hat, lrvs))),
        )
    _report(6, worst_shift < 1e-8 and worst_rot < 1e-8,
            f"invariance over 100 instances each: intercept max drift {worst_shift:.2e}, "
            f"rotation max drift {worst_rot:.2e} (tol 1e-8)")


def test_criterion_7_oracle_equivalences():
    rng = np.random.default_rng(77)
    worst_sum = 0.0
    for rep in range(20):
        n, tp = 4, 14
        d = DiffPanel(rng.standard_normal((n, tp)))
        lrvs = LrvSet(omega2=rng.uniform(0.5, 2.0, size=n),
                      delta=0.1 * rng.standard_normal(n), gamma0=np.ones(n))
        lam = rng.standard_normal((n, 2))
        fast = ump_statistics(d, precision_matrix(lrvs, lam), lrvs)
        slow = ump_statistics_naive(d, lrvs, lam)
        worst_sum = max(worst_sum,
                        abs(fast.delta_hat - slow.delta_hat) / max(1.0, abs(slow.delta_hat)),
                        abs(fast.j_hat - slow.j_hat) / max(1.0, abs(slow.j_hat)))

    k = 2
    sigma_f = [innovation_covariance("ma1", 0.4, 6, target_lrv=float(v))
               for v in rng.uniform(0.5, 2.0, size=k)]
    sigma_eta = [float(c) * innovation_covariance("ma1", 0.4, 6)
                 for c in rng.uniform(0.5, 2.0, size=50)]
    nu = OracleNuisance.from_covariances(sigma_eta, sigma_f,
                                         rng.normal(1.0, 1.0, size=(50, k)))
    smw_err = np.abs(psi_epsilon_inverse(nu, "smw")
                     - psi_epsilon_inverse(nu, "direct")).max()

    n, t = 2, 4
    nu2 = OracleNuisance.from_covariances(
        [float(c) * innovation_covariance("ar1", 0.4, t)
         for c in rng.uniform(0.5, 2.0, size=n)], [], np.zeros((n, 0)))
    de = DiffPanel(rng.standard_normal((n, t)))
    delta, info = delta_panic_exact(de, nu2)
    big_a = np.kron(np.eye(n), cumsum_matrix(t))
    inv = np.linalg.inv(block_diag(*nu2.sigma_eta))
    x = de.values.reshape(-1)
    kron_delta = x @ big_a.T @ inv @ x / (math.sqrt(n) * t)
    kron_info = x @ big_a.T @ inv @ big_a @ x / (n * t * t)
    kron_err = max(abs(delta - kron_delta), abs(info - kron_info))

    _report(7, worst_sum < 1e-10 and smw_err < 1e-9 and kron_err < 1e-10,
            f"running-sum vs naive rel err {worst_sum:.2e} (tol 1e-10), "
            f"SMW vs direct inverse err {smw_err:.2e} at n=50 (tol 1e-9), "
            f"blockwise vs Kronecker err {kron_err:.2e} (tol 1e-10)")


def test_criterion_8_lan_diagnostics():
    sizes = [(25, 100), (50, 400), (100, 1600)]
    rows = lan_convergence_report(sizes, seeds=200, base_seed=0)
    by_key = {(r["n"], r["T"], r["quantity"]): r for r in rows}
    var_largest = by_key[(100, 1600, "delta_simplified")]["variance"]
    gap_names = ("gap_panic_vs_simplified", "gap_mp_vs_smw", "gap_smw_vs_star",
                 "gap_star_vs_simplified")
    monotone = True
    gap_text = []
    for gap in gap_names:
        seq = [by_key[(n, t, gap)]["median_abs_diff"] for (n, t) in sizes]
        monotone &= seq[0] > seq[1] > seq[2]
        gap_text.append(f"{gap}: " + " > ".join(f"{v:.4f}" for v in seq))
    ok = 0.4 <= var_largest <= 0.6 and monotone
    _report(8, ok,
            f"var(delta) at (100,1600) = {var_largest:.4f} (band [0.4, 0.6]); "
            + "; ".join(gap_text))


def test_criterion_9_null_calibration():
    n, t = 50, 200
    stats = np.empty(2000)
    for rep in range(2000):
        sim = simulate(DgpConfig(framework="PANIC", n=n, T=t, h=0.0, K=1,
                                 lrv_ratio=0.8, seed=90_000 + rep))
        d = difference(sim.panel)
        lrvs = LrvSet(omega2=sim.true_lrvs, delta=np.zeros(n), gamma0=sim.true_lrvs)
        psi = precision_matrix(lrvs, sim.true_loadings)
        stats[rep] = t_ump(ump_statistics(d, psi, lrvs)).statistic
    mean, var = float(stats.mean()), float(stats.var())
    ok = -0.1 <= mean <= 0.1 and 0.85 <= var <= 1.15
    _report(9, ok,
            f"known-nuisance t_ump over 2000 reps: mean {mean:+.4f} (band [-0.1, 0.1]), "
            f"variance {var:.4f} (band [0.85, 1.15])")
