"""Data-generating process: scaling identities, seeding, and distributional checks."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest

from panelur import (DataError, DgpConfig, DiffPanel, InnovationSpec, LrvConfig,
                     estimate_lrv_set, innovation_scale, local_rho,
                     lognormal_heterogeneity_params, simulate)
from panelur import dgp
from panelur.dgp import simulate_many


class TestLocalRho:
    def test_paper_grid_values(self):
        assert local_rho(25, 25, -5.0) == pytest.approx(0.96, abs=1e-15)
        assert local_rho(100, 400, -10.0) == pytest.approx(0.9975, abs=1e-15)

    @pytest.mark.parametrize("n,t", [(1, 1), (25, 100), (7, 13)])
    def test_null_gives_unity(self, n, t):
        assert local_rho(n, t, 0.0) == 1.0


class TestLognormalHeterogeneity:
    def test_degenerate_at_one(self):
        assert lognormal_heterogeneity_params(1.0) == (0.0, 0.0)

    @pytest.mark.parametrize("ratio,mu,sigma2", [
        (0.8, -0.22314, 0.44629),
        (0.6, -0.51083, 1.02165),
    ])
    def test_closed_form(self, ratio, mu, sigma2):
        got_mu, got_sigma2 = lognormal_heterogeneity_params(ratio)
        assert got_mu == pytest.approx(mu, abs=1e-5)
        assert got_sigma2 == pytest.approx(sigma2, abs=1e-5)

    @pytest.mark.parametrize("ratio", [0.6, 0.8])
    def test_sampling_oracle(self, ratio):
        mu, sigma2 = lognormal_heterogeneity_params(ratio)
        draws = np.random.default_rng(5).lognormal(mu, math.sqrt(sigma2), size=1_000_000)
        assert np.mean(draws) == pytest.approx(1.0, abs=0.005)
        moment_ratio = np.mean(draws) / math.sqrt(np.mean(draws ** 2))
        assert moment_ratio == pytest.approx(ratio, abs=0.005)

    @pytest.mark.parametrize("ratio", [0.0, -0.3, 1.2])
    def test_domain(self, ratio):
        with pytest.raises(DataError):
            lognormal_heterogeneity_params(ratio)


class TestInnovationScale:
    def test_iid_unit(self):
        assert innovation_scale(InnovationSpec(kind="iid", target_lrv=1.0)) == 1.0

    def test_ma1_closed_form(self):
        spec = InnovationSpec(kind="ma1", parameter=0.4, target_lrv=1.0)
        sigma = innovation_scale(spec)
        assert sigma == pytest.approx(1.0 / 1.4, abs=1e-12)
        # the autocovariance sum gives back the long-run variance
        gamma0 = sigma ** 2 * (1.0 + 0.4 ** 2)
        gamma1 = sigma ** 2 * 0.4
        assert gamma0 == pytest.approx(0.591837, abs=1e-6)
        assert gamma0 + 2.0 * gamma1 == pytest.approx(1.0, abs=1e-12)

    def test_ar1_closed_form(self):
        spec = InnovationSpec(kind="ar1", parameter=0.4, target_lrv=2.0)
        sigma = innovation_scale(spec)
        assert sigma == pytest.approx(math.sqrt(2.0) * 0.6, abs=1e-12)
        # geometric autocovariance sum: sigma^2 / (1 - phi)^2
        assert sigma ** 2 / 0.6 ** 2 == pytest.approx(2.0, abs=1e-12)

    def test_spec_validation(self):
        with pytest.raises(DataError):
            InnovationSpec(kind="ar1", parameter=1.0)
        with pytest.raises(DataError):
            InnovationSpec(kind="iid", target_lrv=0.0)
        with pytest.raises(DataError):
            InnovationSpec(kind="arma")
        for target in (math.inf, math.nan):
            with pytest.raises(DataError, match="target_lrv must be positive and finite"):
                InnovationSpec(target_lrv=target)


def _config(**kw):
    base = dict(framework="PANIC", n=10, T=40, h=0.0, K=1, seed=123)
    base.update(kw)
    return DgpConfig(**base)


class TestSimulate:
    def test_seeded_determinism(self):
        a = simulate(_config(h=-4.0, lrv_ratio=0.7, seed=99))
        b = simulate(_config(h=-4.0, lrv_ratio=0.7, seed=99))
        assert np.array_equal(a.panel.values, b.panel.values)
        assert np.array_equal(a.true_loadings, b.true_loadings)

    def test_null_equivalence_of_frameworks(self):
        base = dict(n=15, T=60, h=0.0, K=2, lrv_ratio=0.8, seed=77)
        mp = simulate(DgpConfig(framework="MP", **base))
        panic = simulate(DgpConfig(framework="PANIC", **base))
        assert np.array_equal(mp.panel.values, panic.panel.values)

    def test_null_equivalence_with_heterogeneity_flag(self):
        base = dict(n=15, T=60, h=0.0, K=1, seed=3, heterogeneous_alternatives=True)
        mp = simulate(DgpConfig(framework="MP", **base))
        panic = simulate(DgpConfig(framework="PANIC", **base))
        assert np.array_equal(mp.panel.values, panic.panel.values)

    def test_no_factor_unit_variance(self):
        sim = simulate(_config(n=50, T=2000, K=0, seed=2024))
        dz = np.diff(sim.panel.values, axis=1)
        assert 0.97 <= dz.var() <= 1.03

    def test_dimensions_and_truth(self):
        sim = simulate(_config(n=12, T=30, K=3, h=-2.0, lrv_ratio=0.6))
        assert sim.panel.values.shape == (12, 30)
        assert sim.true_loadings.shape == (12, 3)
        assert sim.true_lrvs.shape == (12,)
        assert np.all(sim.true_lrvs > 0.0)
        assert np.allclose(sim.rho_used, local_rho(12, 30, -2.0))

    def test_heterogeneous_alternative_rhos(self):
        sim = simulate(_config(n=200, T=10, h=-5.0, heterogeneous_alternatives=True, seed=8))
        u = (sim.rho_used - 1.0) * math.sqrt(200) * 10 / -5.0
        assert u.min() >= 0.2 and u.max() <= 1.8
        assert np.unique(u).size > 100

    def test_config_validation(self):
        with pytest.raises(DataError):
            _config(h=0.5)
        with pytest.raises(DataError):
            _config(lrv_ratio=0.0)
        with pytest.raises(DataError, match="local parameter h must be <= 0, got nan"):
            _config(h=math.nan)
        with pytest.raises(DataError):
            DgpConfig(framework="MP", n=5, T=20, panic_stationary_factors=True)

    @pytest.mark.parametrize("n, T, het, bound", [
        (1, 300, True, -2.0 * 300 / 1.8),   # -333.3
        (4, 300, False, -1200.0),
        (25, 100, True, -2.0 * 5 * 100 / 1.8),
    ])
    def test_explosive_design_rejected(self, n, T, het, bound):
        # The smallest root 1 + h u_max / (sqrt(n) T) reaches -1 at the bound.
        at_bound = _config(n=n, T=T, h=bound, heterogeneous_alternatives=het)
        assert (1.0 + bound * (1.8 if het else 1.0) / (math.sqrt(n) * T)
                == pytest.approx(-1.0, abs=1e-12))
        assert np.isfinite(simulate(at_bound).panel.values).all()
        past = math.nextafter(bound, -math.inf)
        with pytest.raises(DataError, match=f"h = {past!r} makes the design explosive: "
                                            f"need h >= {bound:.6g}"):
            _config(n=n, T=T, h=past, heterogeneous_alternatives=het)
        with pytest.raises(DataError, match="explosive"):
            _config(n=n, T=T, h=-math.inf, heterogeneous_alternatives=het)

    @pytest.mark.parametrize("field", ["n", "T", "K", "seed"])
    @pytest.mark.parametrize("value", [20.5, 20.0, True, "20"])
    def test_integer_fields_must_be_integers(self, field, value):
        with pytest.raises(DataError, match=f"{field} must be an integer, got {value!r}"):
            _config(**{field: value})

    def test_numpy_integers_accepted(self):
        assert _config(n=np.int64(10), seed=np.uint64(2 ** 63)).n == 10

    @pytest.mark.parametrize("seed", [-1, -2 ** 63])
    def test_negative_seed_rejected(self, seed):
        with pytest.raises(DataError, match=f"seed must be non-negative, got {seed}"):
            _config(seed=seed)

    def test_stationary_factors_do_not_wander(self):
        # Shrink the idiosyncratic scale so the panel is dominated by the
        # common component, then compare integrated vs over-differenced factors.
        cfg = _config(n=4, T=4000, K=1, panic_stationary_factors=True, seed=5,
                      idio_spec=InnovationSpec(kind="iid", target_lrv=1e-8))
        walk = simulate(dataclasses.replace(cfg, panic_stationary_factors=False))
        flat = simulate(cfg)
        assert flat.panel.values.var() < 0.05 * walk.panel.values.var()


# sha256 of simulate(cfg).panel.values (little-endian float64 bytes) for one
# 7x33 config per row: framework, innovation kind, h, heterogeneous
# alternatives, K, PANIC stationary factors, innovation distribution. The
# digests pin the generator bit for bit, so a refactor of the recursions or
# of the sub-stream plumbing cannot drift unnoticed.
PINNED_PANELS = [
    ("MP", "iid", 0.0, False, 0, False, "gaussian",
     "7454a9bff4152638cbb88a3a9a69d04aa3a056b00750d3bd18a59a2e67ebdfde"),
    ("PANIC", "iid", 0.0, False, 2, False, "gaussian",
     "954172c7816858cb9fcbc885c381254e0421d306ada5bac2b084a391f65526f1"),
    ("MP", "iid", -10.0, True, 2, False, "gaussian",
     "4ea3b3f5cf55f368e2bb65e41003fef91ca4aa34ae548ddb44fec6595ee54cd6"),
    ("PANIC", "iid", -10.0, False, 0, False, "student_t5",
     "709481d71ee465badf70bb5a01b6d8f08cf8018c408367ccf4436e20944afec9"),
    ("MP", "ar1", 0.0, True, 2, False, "gaussian",
     "3a97f96b2ec1cc5a36ad63bf0d4f744b2a59f64f0f1f802a107541c040c4aece"),
    ("PANIC", "ar1", -10.0, True, 2, False, "gaussian",
     "6d19c3156d3894185fb88eafa0eba43c53efa2513c89ed2a4d1082c0aaf24236"),
    ("MP", "ar1", -10.0, False, 0, False, "student_t5",
     "3a7691a2450024c62debae258d4260bc630b9d949fe5b6747d3577bbd32dd408"),
    ("PANIC", "ar1", 0.0, False, 0, False, "gaussian",
     "bef91366fe6686c2b57599f76ef62b93ed97c8637836697980d0b18597dcad85"),
    ("MP", "ma1", -10.0, False, 2, False, "gaussian",
     "60d241847991fce32e883def7741fa04d0176ab33a864fc93b2745cc9de6ef4b"),
    ("PANIC", "ma1", -10.0, True, 0, False, "gaussian",
     "7f6864642aa218393694dc799f314e7a9f7290a869b204ac1a1c812e2abcfad6"),
    ("MP", "ma1", 0.0, False, 2, False, "student_t5",
     "7a8139ef51850b79a19a50ee61ef4b0e80d43f5d2d3adc9b8ea5b06d31f71901"),
    ("PANIC", "ma1", 0.0, True, 2, False, "gaussian",
     "53a8cf1239045cf5b4e12a3a436cdf412716e7243641c571093afc855e131dd9"),
    ("PANIC", "iid", -10.0, True, 2, True, "gaussian",
     "d80e8f4d76442079d25b9b2fb7ac708c5f5a0370a793e82035c94770019a59b8"),
    ("PANIC", "ar1", -10.0, False, 2, True, "student_t5",
     "99a4ab34ff84c284e307e577fa719a2d1bdc31e762d8cdcbd9c47125319172c9"),
    ("PANIC", "ma1", 0.0, True, 2, True, "gaussian",
     "3beae5bb5da52219d8df73bd446b73c556e9865fcbe86a5b20e2eaea57f4b05f"),
]


@pytest.mark.parametrize("framework,kind,h,het,k,stationary,distribution,digest", PINNED_PANELS)
def test_simulate_is_pinned_bit_for_bit(framework, kind, h, het, k, stationary,
                                        distribution, digest):
    cfg = DgpConfig(framework=framework, n=7, T=33, h=h, K=k, lrv_ratio=0.8,
                    factor_spec=InnovationSpec(kind=kind, parameter=0.5,
                                               distribution=distribution),
                    idio_spec=InnovationSpec(kind=kind, parameter=-0.3,
                                             distribution=distribution, target_lrv=2.0),
                    heterogeneous_alternatives=het, panic_stationary_factors=stationary,
                    seed=2024)
    values = np.ascontiguousarray(simulate(cfg).panel.values, dtype="<f8")
    assert hashlib.sha256(values.tobytes()).hexdigest() == digest


class TestSimulateMany:
    def test_equals_each_config_alone(self):
        # One batch per n, each over both frameworks, all innovation kinds (the
        # factor kind differing from the unit kind), K in {0, 2} and both laws.
        kinds = ("iid", "ar1", "ma1")
        configs = [
            DgpConfig(framework=fw, n=4 + i % 5, T=37, h=-6.0, K=k, lrv_ratio=0.7,
                      factor_spec=InnovationSpec(kind=kind, parameter=0.5,
                                                 distribution=dist),
                      idio_spec=InnovationSpec(kind=kinds[i % 3], parameter=-0.3,
                                               distribution=dist, target_lrv=2.0),
                      heterogeneous_alternatives=bool(i % 2),
                      panic_stationary_factors=fw == "PANIC" and k > 0 and i % 4 == 0,
                      seed=300 + i)
            for i, (fw, kind, k, dist) in enumerate(
                (fw, kind, k, dist) for fw in ("MP", "PANIC") for kind in kinds
                for k in (0, 2) for dist in ("gaussian", "student_t5"))
        ]
        by_shape = {}
        for cfg in configs:
            by_shape.setdefault(cfg.n, []).append(cfg)
        assert len(by_shape) == 5
        for stack in by_shape.values():
            batch = simulate_many(stack)
            levels, parts = dgp._simulate(stack)
            assert batch.shape == (len(stack), stack[0].n, 37)
            assert np.array_equal(levels, batch)
            for cfg, got, (loadings, lrvs, rho, *_) in zip(stack, batch, parts):
                want = simulate(cfg)
                assert np.array_equal(got, want.panel.values)
                assert np.array_equal(loadings, want.true_loadings)
                assert np.array_equal(lrvs, want.true_lrvs)
                assert np.array_equal(rho, want.rho_used)

    def test_one_length_required(self):
        with pytest.raises(DataError, match=r"one shape \(n, T\), got \[\(10, 30\), \(10, 31\)\]"):
            simulate_many([_config(T=30), _config(T=31)])
        with pytest.raises(DataError, match=r"one shape \(n, T\), got \[\(10, 30\), \(11, 30\)\]"):
            simulate_many([_config(n=11, T=30), _config(T=30), _config(T=30, seed=1)])


class TestLrvTargeting:
    @pytest.mark.parametrize("kind,param", [("iid", 0.0), ("ar1", 0.4), ("ma1", 0.4)])
    @pytest.mark.parametrize("distribution", ["gaussian", "student_t5"])
    def test_bartlett_estimates_near_target(self, kind, param, distribution):
        import zlib

        target = 2.0
        cfg = _config(
            n=40, T=5000, K=0, seed=zlib.crc32(f"{kind}|{distribution}".encode()),
            idio_spec=InnovationSpec(kind=kind, parameter=param,
                                     distribution=distribution, target_lrv=target),
        )
        dz = DiffPanel(np.diff(simulate(cfg).panel.values, axis=1))
        est = estimate_lrv_set(dz, LrvConfig(kernel="bartlett", bandwidth="andrews",
                                             prewhiten=False))
        assert abs(np.median(est.omega2) - target) <= 0.1 * target


class TestLoadingConcentration:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_moments(self, k):
        n = 20000
        sim = simulate(_config(n=n, T=2, K=k, seed=k))
        lam = sim.true_loadings
        assert np.allclose(lam.mean(axis=0), k ** -0.5, atol=3.0 / math.sqrt(n) * 1.5)
        assert np.allclose(lam.var(axis=0), 1.0 / k, atol=0.05 / k + 3.0 / math.sqrt(n))
