"""Simulation of panels from the MP and PANIC data-generating processes.

Both setups share the same component structure: K common factors with
loadings drawn N(K^{-1/2}, K^{-1} I_K), an idiosyncratic near-unit-root
AR per unit, and stationary innovations (iid, AR(1), or MA(1)) scaled to
target long-run variances. Under the unit root the two setups coincide,
and the generator preserves that equality bit-for-bit: all random draws
come from fixed, documented sub-streams of the seed, so two configs that
differ only in the framework flag consume identical randomness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DataError
from .panel import Panel, ar_recursion

__all__ = [
    "InnovationSpec",
    "DgpConfig",
    "SimulatedPanel",
    "local_rho",
    "lognormal_heterogeneity_params",
    "innovation_scale",
    "simulate",
]

_KINDS = ("iid", "ar1", "ma1")
_DISTRIBUTIONS = ("gaussian", "student_t5")
# Unit-variance normalization for Student-t(5) draws (raw variance 5/3).
_T5_SCALE = math.sqrt(3.0 / 5.0)


@dataclass(frozen=True)
class InnovationSpec:
    """Law of a stationary innovation series and the long-run variance it must attain."""

    kind: str = "iid"
    parameter: float = 0.4
    distribution: str = "gaussian"
    target_lrv: float = 1.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise DataError(f"unknown innovation kind {self.kind!r}")
        if self.distribution not in _DISTRIBUTIONS:
            raise DataError(f"unknown innovation distribution {self.distribution!r}")
        if self.kind in ("ar1", "ma1") and not -1.0 < self.parameter < 1.0:
            raise DataError(f"{self.kind} parameter must lie in (-1, 1)")
        if not self.target_lrv > 0.0:
            raise DataError("target long-run variance must be positive")


@dataclass(frozen=True)
class DgpConfig:
    """Full specification of one simulated panel experiment."""

    framework: str
    n: int
    T: int
    h: float = 0.0
    K: int = 1
    factor_spec: InnovationSpec = InnovationSpec()
    idio_spec: InnovationSpec = InnovationSpec()
    lrv_ratio: float = 1.0
    heterogeneous_alternatives: bool = False
    panic_stationary_factors: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.framework not in ("MP", "PANIC"):
            raise DataError(f"framework must be 'MP' or 'PANIC', got {self.framework!r}")
        if self.n < 1 or self.T < 2:
            raise DataError("need n >= 1 and T >= 2")
        if self.h > 0.0:
            raise DataError("local parameter h must be <= 0")
        if self.K < 0:
            raise DataError("number of factors must be >= 0")
        if not 0.0 < self.lrv_ratio <= 1.0:
            raise DataError("lrv_ratio must lie in (0, 1]")
        if self.panic_stationary_factors and self.framework != "PANIC":
            raise DataError("stationary factors are only meaningful under PANIC")
        if self.seed < 0:
            raise DataError(f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class SimulatedPanel:
    """A simulated panel together with the ground truth used to generate it."""

    panel: Panel
    true_loadings: np.ndarray
    true_lrvs: np.ndarray
    rho_used: np.ndarray


def local_rho(n: int, T: int, h: float) -> float:
    """Autoregressive root under the local parameterization, 1 + h / (sqrt(n) T)."""
    return 1.0 + h / (math.sqrt(n) * T)


def lognormal_heterogeneity_params(ratio: float) -> tuple[float, float]:
    """(mu, sigma^2) of the mean-one lognormal matching a heterogeneity ratio.

    The draws X have E[X] = 1 and sqrt(E[X]^2 / E[X^2]) = ratio, so ratio 1
    degenerates to homogeneous unit long-run variances.
    """
    if not 0.0 < ratio <= 1.0:
        raise DataError("heterogeneity ratio must lie in (0, 1]")
    mu = math.log(ratio)
    return mu, -2.0 * mu


def innovation_scale(spec: InnovationSpec) -> float:
    """Innovation standard deviation delivering the spec's target long-run variance.

    Long-run variances: iid sigma^2, AR(1) sigma^2/(1-phi)^2, MA(1) sigma^2 (1+theta)^2.
    """
    root = math.sqrt(spec.target_lrv)
    if spec.kind == "iid":
        return root
    if spec.kind == "ar1":
        return root * (1.0 - spec.parameter)
    return root / (1.0 + spec.parameter)


def _draw(rng: np.random.Generator, distribution: str, out: np.ndarray) -> None:
    """Fill `out` with unit-variance innovation draws."""
    if distribution == "gaussian":
        rng.standard_normal(out=out)
    else:
        np.multiply(rng.standard_t(5, out.shape), _T5_SCALE, out=out)


def _components(config: DgpConfig):
    """(loadings, per-unit lrvs, rho_i, factor and idiosyncratic innovation rngs).

    Sub-stream order is fixed: loadings, idiosyncratic LRV draws,
    heterogeneous-alternative multipliers, factor innovations, idiosyncratic
    innovations. The framework flag never shifts the draws, which keeps MP
    and PANIC panels identical under the null for a common seed.
    """
    n, T, K = config.n, config.T, config.K
    streams = np.random.SeedSequence(config.seed).spawn(5)
    rng_load, rng_lrv, rng_het, rng_f, rng_eta = (np.random.default_rng(s) for s in streams)

    if K > 0:
        loadings = rng_load.normal(loc=1.0 / math.sqrt(K), scale=1.0 / math.sqrt(K), size=(n, K))
    else:
        loadings = np.zeros((n, 0))

    mu, sigma2 = lognormal_heterogeneity_params(config.lrv_ratio)
    if sigma2 > 0.0:
        lrv_draws = rng_lrv.lognormal(mean=mu, sigma=math.sqrt(sigma2), size=n)
    else:
        lrv_draws = np.ones(n)
    unit_lrvs = config.idio_spec.target_lrv * lrv_draws

    if config.heterogeneous_alternatives:
        u = rng_het.uniform(0.2, 1.8, size=n)
    else:
        u = np.ones(n)
    rho_units = 1.0 + config.h * u / (math.sqrt(n) * T)
    return loadings, unit_lrvs, rho_units, rng_f, rng_eta


def simulate_many(configs) -> list[SimulatedPanel]:
    """Simulate panels of one length T; entry i equals `simulate(configs[i])` bit for bit.

    Every row (K factors, then n units, config after config) draws T + 1
    unit-variance values into one buffer. The stationary innovations start
    in their stationary law: an AR(1) row starts from a draw scaled to the
    stationary standard deviation, an MA(1) row uses one pre-sample draw.
    The AR(1) innovation filter and the level recursion each run as one
    `ar_recursion` call over all rows. Rows are independent and every step
    is elementwise, so stacking changes no bit; a row of another kind takes
    coefficient 0 (MA or AR part), which adds exact zeros.
    """
    configs = list(configs)
    T = configs[0].T
    if any(c.T != T for c in configs):
        raise DataError("simulate_many needs configs of one length T")
    parts = [_components(c) for c in configs]
    rows = sum(c.K + c.n for c in configs)
    raw = np.empty((rows, T + 1))
    sig, theta, phi, rho = (np.zeros(rows) for _ in range(4))
    top = 0
    for c, (_, unit_lrvs, rho_units, rng_f, rng_eta) in zip(configs, parts):
        unit_scale = innovation_scale(replace(c.idio_spec, target_lrv=1.0))
        rho_k = local_rho(c.n, T, c.h) if c.framework == "MP" else 1.0
        for count, spec, rng, scales, coefs in (
                (c.K, c.factor_spec, rng_f, innovation_scale(c.factor_spec), rho_k),
                (c.n, c.idio_spec, rng_eta, unit_scale * np.sqrt(unit_lrvs), rho_units)):
            block = slice(top, top + count)
            top = block.stop
            _draw(rng, spec.distribution, raw[block])
            sig[block], rho[block] = scales, coefs
            if spec.kind == "ma1":
                theta[block] = spec.parameter
            elif spec.kind == "ar1":
                phi[block] = spec.parameter

    innov = raw[:, 1:]
    if theta.any():
        innov = innov + theta[:, None] * raw[:, :-1]
    if phi.any():
        innov = ar_recursion(innov, phi, start=raw[:, 0] / np.sqrt(1.0 - phi * phi))
    innov = sig[:, None] * innov
    del raw
    levels = ar_recursion(innov, rho)

    sims = []
    top = 0
    for c, (loadings, unit_lrvs, rho_units, _, _) in zip(configs, parts):
        f_rows = slice(top, top + c.K)
        top = f_rows.stop + c.n
        factors = innov[f_rows] if c.panic_stationary_factors else levels[f_rows]
        z = loadings @ factors + levels[f_rows.stop:top]
        sims.append(SimulatedPanel(panel=Panel(z), true_loadings=loadings,
                                   true_lrvs=unit_lrvs, rho_used=rho_units))
    return sims


def simulate(config: DgpConfig) -> SimulatedPanel:
    """Simulate a panel; fully deterministic given the config (seed included)."""
    return simulate_many([config])[0]
