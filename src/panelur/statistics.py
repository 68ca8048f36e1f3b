"""Panel unit-root test statistics: the optimal tests and the BN / MP competitors.

All feasible statistics use the differenced sample length T' = T - 1 as
their time dimension, exclude the first difference column from the pooled
index sets, and reject in the left tail of the standard normal. Those three
conventions are applied consistently across the optimal statistics and the
pooled-autoregression tests, which is what makes the homogeneous-variance
reduction of the optimal test to P_b exact in finite samples. `analyze`
runs the whole recipe on a level panel and returns all six outcomes;
`analyze_many` runs it over a batch of panels with one stacked LRV pass,
and `analyze` is its one-panel case.

Every test removes the factor space with one operator, `PrecisionMatrix`:
Omega^{-1} - W (P + L'W)^{-1} W' with W = Omega^{-1} L. The optimal tests
use it with the estimated LRVs and P = 0, the MP tests with unit weights
(the projection I - L (L'L)^{-1} L'). It is kept as a diagonal plus a
rank-K factor and applied in O(nTK); no statistic forms an n x n matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import DataError, DimensionError, NumericalError
from .factors import FactorFit, estimate_factors, select_num_factors
from .lrv import LrvConfig, LrvSet, estimate_lrv_set
from .panel import DiffPanel, Panel, difference, lagged_cumsum

__all__ = [
    "Analysis",
    "PrecisionMatrix",
    "TestOutcome",
    "UmpIntermediates",
    "analyze",
    "precision_matrix",
    "ump_statistics",
    "t_ump",
    "t_ump_emp",
    "bn_statistics",
    "bn_tests",
    "mp_tests",
]

TEST_NAMES = ("t_ump", "t_ump_emp", "p_a", "p_b", "t_a", "t_b")


class PrecisionMatrix:
    """Omega^{-1} - W (P + L'W)^{-1} W' with W = Omega^{-1} L, held in factored form.

    Built from the inverse weights Omega^{-1} (an n-vector), loadings L
    (n x K, or None for K = 0) and an optional K-vector P. With P absent it
    annihilates L and is invariant to L -> L R for invertible R; with unit
    weights it is the projection I - L (L'L)^{-1} L'. With
    P = 1 / omega_f^2 it is the Sherman-Morrison-Woodbury inverse of
    L diag(omega_f^2) L' + Omega.
    """

    def __init__(self, inv_weights: np.ndarray, loadings: np.ndarray | None = None,
                 prior: np.ndarray | None = None):
        inv = np.asarray(inv_weights, dtype=float)
        n = inv.size
        lam = np.zeros((n, 0)) if loadings is None else np.asarray(loadings, dtype=float)
        if lam.ndim != 2 or lam.shape[0] != n:
            raise DimensionError(f"loadings must be n x K with n = {n} units, got {lam.shape}")
        k = lam.shape[1]
        weighted = inv[:, None] * lam
        inner = lam.T @ weighted
        if prior is not None:
            inner += np.diag(prior)
        try:
            solved = np.linalg.solve(inner, weighted.T)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"singular {k} x {k} loading Gram matrix over {n} units") from exc
        self.inv_weights = inv
        self.weighted = weighted
        self.solved = solved

    @property
    def k(self) -> int:
        return self.weighted.shape[1]

    def apply(self, x: np.ndarray) -> np.ndarray:
        """The operator times an n x T array, in O(nTK)."""
        return self.inv_weights[:, None] * x - self.weighted @ (self.solved @ x)

    @property
    def matrix(self) -> np.ndarray:
        """The dense n x n matrix; the statistics never form it."""
        return self.apply(np.eye(self.inv_weights.size))


@dataclass(frozen=True)
class TestOutcome:
    """A one-sided (left-tail) test decision."""

    name: str
    statistic: float
    p_value: float
    reject: bool
    alpha: float


@dataclass(frozen=True)
class UmpIntermediates:
    """Central-sequence value, empirical information, and the bias-correction term."""

    delta_hat: float
    j_hat: float
    correction: float


def check_alpha(alpha: float) -> None:
    """Reject a significance level outside (0, 1) with a DataError."""
    if not 0.0 < alpha < 1.0:
        raise DataError(f"alpha must lie in (0, 1), got {alpha!r}")


def _outcome(name: str, statistic: float, alpha: float) -> TestOutcome:
    check_alpha(alpha)
    return TestOutcome(
        name=name,
        statistic=float(statistic),
        p_value=float(ndtr(statistic)),
        reject=bool(statistic <= ndtri(alpha)),
        alpha=alpha,
    )


def precision_matrix(lrvs: LrvSet, loadings: np.ndarray | None) -> PrecisionMatrix:
    """Inverse of the long-run covariance proxy, with the factor space projected out.

    With loadings L and Omega = diag(omega_i^2), this is
    Omega^{-1} - Omega^{-1} L (L' Omega^{-1} L)^{-1} L' Omega^{-1};
    with no factors, just Omega^{-1}.
    """
    return PrecisionMatrix(1.0 / lrvs.omega2, loadings)


def _used_columns(values: np.ndarray) -> np.ndarray:
    tp = values.shape[1]
    if tp < 2:
        raise DimensionError("need at least two difference columns")
    return values[:, 1:]


def ump_statistics(d: DiffPanel, psi: PrecisionMatrix, lrvs: LrvSet) -> UmpIntermediates:
    """Central sequence and empirical information from a differenced panel.

    Running partial sums and the factored precision give O(nTK); the first
    difference column is excluded from both pooled sums and the normalizers
    use the number of difference columns T'.
    """
    x = d.values
    n, tp = x.shape
    used = _used_columns(x)
    lagged = lagged_cumsum(used)
    quad = float(np.sum(lagged * psi.apply(used)))
    jquad = float(np.sum(lagged * psi.apply(lagged)))
    correction = float(np.sum(lrvs.delta / lrvs.omega2)) / math.sqrt(n)
    delta_hat = quad / (math.sqrt(n) * tp) - correction
    j_hat = jquad / (n * tp * tp)
    return UmpIntermediates(delta_hat=delta_hat, j_hat=j_hat, correction=correction)


def t_ump(inter: UmpIntermediates, alpha: float = 0.05) -> TestOutcome:
    """The optimal test: sqrt(2) times the central sequence, compared to N(0, 1)."""
    return _outcome("t_ump", math.sqrt(2.0) * inter.delta_hat, alpha)


def t_ump_emp(inter: UmpIntermediates, alpha: float = 0.05) -> TestOutcome:
    """The studentized variant: central sequence over the root of the empirical information."""
    if inter.j_hat <= 0.0:
        raise NumericalError("empirical information is zero; data too short or degenerate")
    return _outcome("t_ump_emp", inter.delta_hat / math.sqrt(inter.j_hat), alpha)


def bn_statistics(e_lag: np.ndarray, e_cur: np.ndarray, lrvs: LrvSet,
                  t_dim: int, alpha: float = 0.05) -> tuple[TestOutcome, TestOutcome]:
    """Pooled bias-corrected autoregression tests on given idiosyncratic paths.

    t_dim is the time dimension entering the bias correction and the
    sqrt(n) T prefactor.
    """
    n = e_lag.shape[0]
    cross = float(np.sum(e_lag * e_cur))
    denom = float(np.sum(e_lag * e_lag))
    if denom <= 0.0:
        raise NumericalError("degenerate idiosyncratic paths: zero lagged sum of squares")
    pooled_delta = lrvs.pooled_delta
    omega2 = lrvs.pooled_omega2
    phi4 = lrvs.pooled_phi4
    if phi4 <= 0.0:
        raise NumericalError("nonpositive pooled fourth moment")
    rho_plus = (cross - n * t_dim * pooled_delta) / denom
    scale = math.sqrt(n) * t_dim * (rho_plus - 1.0)
    p_a = scale / math.sqrt(2.0 * phi4 / omega2 ** 2)
    p_b = scale * math.sqrt(denom / (n * t_dim * t_dim) * omega2 / phi4)
    return _outcome("p_a", p_a, alpha), _outcome("p_b", p_b, alpha)


def bn_tests(fit: FactorFit, lrvs: LrvSet, alpha: float = 0.05) -> tuple[TestOutcome, TestOutcome]:
    """BN tests from a factor fit: cumulate residuals, pool, bias-correct.

    The first residual column is dropped before cumulating, matching the
    index set of the optimal statistics, and the time dimension in the
    formulas is the number of difference columns T'.
    """
    resid = fit.residuals.values
    tp = resid.shape[1]
    used = _used_columns(resid)
    lagged = lagged_cumsum(used)
    current = lagged + used
    return bn_statistics(lagged, current, lrvs, t_dim=tp, alpha=alpha)


def mp_tests(p: Panel, loadings: np.ndarray | None, lrvs: LrvSet,
             alpha: float = 0.05) -> tuple[TestOutcome, TestOutcome]:
    """MP tests: pooled autoregression on levels projected off the factor space.

    The level panel is used as given (zero pre-sample values); the time
    dimension in the bias correction and prefactor is T' = T - 1.
    """
    y = p.values
    n, t_obs = y.shape
    t_dim = t_obs - 1
    y_lag = np.zeros_like(y)
    y_lag[:, 1:] = y[:, :-1]
    qy_lag = PrecisionMatrix(np.ones(n), loadings).apply(y_lag)
    cross = float(np.sum(y * qy_lag))
    denom = float(np.sum(y_lag * qy_lag))
    if denom <= 0.0:
        raise NumericalError("degenerate level panel: zero projected lagged sum of squares")
    omega2 = lrvs.pooled_omega2
    phi4 = lrvs.pooled_phi4
    if phi4 <= 0.0:
        raise NumericalError("nonpositive pooled fourth moment")
    rho_pool = (cross - n * t_dim * lrvs.pooled_delta) / denom
    scale = math.sqrt(n) * t_dim * (rho_pool - 1.0)
    t_a = scale / math.sqrt(2.0 * phi4 / omega2 ** 2)
    t_b = scale * math.sqrt(denom / (n * t_dim * t_dim) * omega2 / phi4)
    return _outcome("t_a", t_a, alpha), _outcome("t_b", t_b, alpha)


@dataclass(frozen=True)
class Analysis:
    """One pass of the testing recipe: the fit, the LRVs and all six outcomes.

    outcomes is keyed by test name in TEST_NAMES order.
    """

    k: int
    fit: FactorFit
    lrvs: LrvSet
    ump: UmpIntermediates
    outcomes: dict[str, TestOutcome]


def analyze(panel: Panel, k: int | None = None, k_max: int = 6,
            lrv_cfg: LrvConfig = LrvConfig(), alpha: float = 0.05) -> Analysis:
    """Difference, fit factors, estimate LRVs and compute the six tests.

    With k None the factor count is selected by IC_p2 over
    0..min(k_max, m // 2), m = min(n, T'). IC_p2 is built for a small fixed
    k_max: near m its penalty no longer offsets the fit, and it picks k_max.
    A unit whose differences are all zero is rejected up front: its
    long-run variance would be zero. So is a unit whose factor residuals
    are all zero (NumericalError). An alpha outside (0, 1) is rejected
    before any work.
    """
    result, = analyze_many([panel], k=k, k_max=k_max, lrv_cfg=lrv_cfg, alpha=alpha)
    if isinstance(result, Exception):
        raise result
    return result


# What a degenerate panel raises; anything else is a bug.
ANALYSIS_ERRORS = (DataError, NumericalError, np.linalg.LinAlgError)


def analyze_many(panels, k: int | None = None, k_max: int = 6,
                 lrv_cfg: LrvConfig = LrvConfig(), alpha: float = 0.05) -> list:
    """`analyze` over panels of one length T, with one LRV pass over all of them.

    Entry i is panel i's Analysis, or the DataError, NumericalError or
    LinAlgError that `analyze(panels[i], ...)` raises; any other exception
    propagates. Factor selection, the fit and the statistics run panel by
    panel. The residuals of all fitted panels are stacked for one
    `estimate_lrv_set` call; its results are row-local (see `lrv`), so each
    panel's Analysis is bit-identical to its own `analyze`. When the stacked
    call raises, each panel's LRVs are estimated alone, so only the faulty
    panel fails and its error names its own units.
    """
    check_alpha(alpha)
    results: list = [None] * len(panels)
    fitted = []
    for i, panel in enumerate(panels):
        try:
            fitted.append((i, *_fit(panel, k, k_max)))
        except ANALYSIS_ERRORS as exc:
            results[i] = exc
    lrv_sets = _lrv_sets([fit.residuals for _, _, fit in fitted], lrv_cfg)
    for (i, d, fit), lrvs in zip(fitted, lrv_sets):
        if isinstance(lrvs, Exception):
            results[i] = lrvs
            continue
        try:
            results[i] = _tests(panels[i], d, fit, lrvs, alpha)
        except ANALYSIS_ERRORS as exc:
            results[i] = exc
    return results


def _fit(panel: Panel, k: int | None, k_max: int) -> tuple[DiffPanel, FactorFit]:
    d = difference(panel)
    constant = np.flatnonzero(~d.values.any(axis=1))
    if constant.size:
        units = ", ".join(repr(panel.unit_ids[i]) for i in constant)
        raise DataError(f"constant unit(s) {units}: all first differences are zero, "
                        "so the long-run variance is zero")
    if k is None:
        k = select_num_factors(d, k_bound(*d.values.shape, k_max))
    return d, estimate_factors(d, k)


def k_bound(n: int, tp: int, k_max: int) -> int:
    """The largest factor count `analyze` selects on n units with T' = T - 1 differences."""
    return min(k_max, min(n, tp) // 2)


def _lrv_sets(residuals: list[DiffPanel], cfg: LrvConfig) -> list:
    """Each residual panel's LrvSet, or the error its own estimate raises.

    Two or more panels share one stacked call; if that raises, each panel
    is estimated alone.
    """
    if len(residuals) == 1:
        try:
            return [estimate_lrv_set(residuals[0], cfg)]
        except ANALYSIS_ERRORS as exc:
            return [exc]
    if not residuals:
        return []
    try:
        lrvs = estimate_lrv_set(DiffPanel(np.concatenate([r.values for r in residuals])), cfg)
    except ANALYSIS_ERRORS:
        return [_lrv_sets([r], cfg)[0] for r in residuals]
    bounds = np.cumsum([0] + [r.n_units for r in residuals]).tolist()
    return [LrvSet(omega2=lrvs.omega2[a:b], delta=lrvs.delta[a:b], gamma0=lrvs.gamma0[a:b])
            for a, b in zip(bounds, bounds[1:])]


def _tests(panel: Panel, d: DiffPanel, fit: FactorFit, lrvs: LrvSet, alpha: float) -> Analysis:
    zero = np.flatnonzero(lrvs.gamma0 == 0.0)
    if zero.size:
        units = ", ".join(repr(panel.unit_ids[i]) for i in zero)
        raise NumericalError(f"LRV: unit(s) {units} have all-zero factor residuals, so "
                             "gamma(0) and the long-run variance are zero")
    ump = ump_statistics(d, precision_matrix(lrvs, fit.loadings_hat), lrvs)
    ordered = (t_ump(ump, alpha), t_ump_emp(ump, alpha), *bn_tests(fit, lrvs, alpha),
               *mp_tests(panel, fit.loadings_hat, lrvs, alpha))
    return Analysis(k=fit.k, fit=fit, lrvs=lrvs, ump=ump,
                    outcomes={o.name: o for o in ordered})
