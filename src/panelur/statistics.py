"""Panel unit-root test statistics: the optimal tests and the BN / MP competitors.

All feasible statistics use the differenced sample length T' = T - 1 as
their time dimension, exclude the first difference column from the pooled
index sets, and reject in the left tail of the standard normal. Those three
conventions are applied consistently across the optimal statistics and the
pooled-autoregression tests, which is what makes the homogeneous-variance
reduction of the optimal test to P_b exact in finite samples.

Every test removes the factor space with one operator, `PrecisionMatrix`:
Omega^{-1} - W (P + L'W)^{-1} W' with W = Omega^{-1} L. The optimal tests
use it with the estimated LRVs and P = 0, the MP tests with unit weights
(the projection I - L (L'L)^{-1} L'). It is kept as a diagonal plus a
rank-K factor, and no statistic forms an n x n matrix or even the operator
applied to the panel: a pooled sum over a Psi b is
sum_i Omega_ii^{-1} <a_i, b_i> - sum (W'a) o ((P + L'W)^{-1} W'b),
per-unit row dots plus K x T' projections.

The operator and the statistics take optional leading axes: a stack of R
panels of one shape (R x n x T) is one set of batched matmuls, row dots and
per-panel reductions, and every step is per panel, so a panel's statistics
have the same bits in any stack. A batch is one R x n x T levels array:
`analyze_many` differences and fits it as one stack (with batched numpy
eigensolves, see `factors`), makes one LRV pass over its residual rows in
batch order, and runs the six statistics once per selected factor count. It
returns one record of arrays with leading axis R, `_Batch`. `analyze` runs a
one-panel batch, and `_Batch.analysis` builds that panel's Analysis and its
outcomes: no other code builds them. A faulty panel makes the whole batch
raise; an LRV error numbers the units of the batch in batch order.
`analyze_many` runs at one thread per OpenBLAS and restores the caller's
counts (see `_blas`). The normal distribution function and quantile come
from the standard library (`math.erfc`, `statistics.NormalDist`), so panelur
imports no scipy; `asymptotics` shares them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from ._blas import _one_blas_thread
from .errors import DataError, DimensionError, NumericalError
from .factors import FactorFit, fit_stack
from .lrv import LrvConfig, LrvSet, estimate_lrv_set
from .panel import DiffPanel, Panel, _diff_view, lagged_cumsum

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
    "bn_tests",
    "mp_tests",
]

TEST_NAMES = ("t_ump", "t_ump_emp", "p_a", "p_b", "t_a", "t_b")


def _ndtr(x) -> np.ndarray:
    """Phi(x) = erfc(-x / sqrt(2)) / 2, the standard normal distribution function,
    elementwise over an array of any shape."""
    x = np.asarray(x, dtype=float)
    root2 = math.sqrt(2.0)
    return np.array([0.5 * math.erfc(-v / root2) for v in x.ravel().tolist()],
                    dtype=float).reshape(x.shape)


def _ndtri(p: float) -> float:
    """Phi^{-1}(p), the standard normal quantile, for p in (0, 1)."""
    return NormalDist().inv_cdf(p)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row dots: the sum of a * b along the last axis."""
    return np.einsum("...t,...t->...", a, b)


def _dot2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The sum of a * b over the last two axes, K x T' projections of one panel."""
    return np.einsum("...kt,...kt->...", a, b)


class PrecisionMatrix:
    """Omega^{-1} - W (P + L'W)^{-1} W' with W = Omega^{-1} L, held in factored form.

    Built from the inverse weights Omega^{-1} (an n-vector), loadings L
    (n x K, or None for K = 0) and an optional K-vector P, each with the same
    optional leading axes for a stack of panels. With P absent it
    annihilates L and is invariant to L -> L R for invertible R; with unit
    weights it is the projection I - L (L'L)^{-1} L'. With
    P = 1 / omega_f^2 it is the Sherman-Morrison-Woodbury inverse of
    L diag(omega_f^2) L' + Omega.
    """

    def __init__(self, inv_weights: np.ndarray, loadings: np.ndarray | None = None,
                 prior: np.ndarray | None = None):
        inv = np.asarray(inv_weights, dtype=float)
        n = inv.shape[-1]
        lam = (np.zeros(inv.shape + (0,)) if loadings is None
               else np.asarray(loadings, dtype=float))
        if lam.shape[:-1] != inv.shape:
            raise DimensionError(f"loadings must be n x K with n = {n} units, got {lam.shape}")
        k = lam.shape[-1]
        weighted = inv[..., None] * lam
        inner = np.swapaxes(lam, -1, -2) @ weighted
        if prior is not None:
            diag = np.arange(k)
            inner[..., diag, diag] += prior
        try:
            solved = np.linalg.solve(inner, np.swapaxes(weighted, -1, -2))
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"singular {k} x {k} loading Gram matrix over {n} units") from exc
        self.inv_weights = inv
        self.weighted = weighted
        self.solved = solved

    def apply(self, x: np.ndarray) -> np.ndarray:
        """The operator times an n x T array, in O(nTK)."""
        return self.inv_weights[..., None] * x - self.weighted @ (self.solved @ x)

    def scores(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(W'x, (P + L'W)^{-1} W'x), the K x T projections of an n x T array."""
        return np.swapaxes(self.weighted, -1, -2) @ x, self.solved @ x

    def pooled(self, a: np.ndarray, b: np.ndarray, wa: np.ndarray,
               sb: np.ndarray) -> np.ndarray:
        """sum(a * (Psi b)) per panel, given the scores wa of a and sb of b."""
        return _dot(self.inv_weights, _dot(a, b)) - _dot2(wa, sb)


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
    """Central-sequence value, empirical information, and the bias-correction term.

    Floats for one panel; arrays over the leading axes of a stack of panels.
    """

    delta_hat: float
    j_hat: float
    correction: float


def check_alpha(alpha: float) -> None:
    """Reject a significance level outside (0, 1) with a DataError."""
    if not 0.0 < alpha < 1.0:
        raise DataError(f"alpha must lie in (0, 1), got {alpha!r}")


def _outcomes(names: tuple, statistics, alpha: float) -> tuple[TestOutcome, ...]:
    """One panel's TestOutcomes in names order, from its len(names) statistics."""
    check_alpha(alpha)
    stats = np.asarray(statistics, dtype=float)
    if stats.shape != (len(names),):
        raise DimensionError(f"need one panel's {len(names)} statistics, got shape {stats.shape}")
    return tuple(TestOutcome(name=name, statistic=s, p_value=p, reject=r, alpha=alpha)
                 for name, s, p, r in zip(names, stats.tolist(), _ndtr(stats).tolist(),
                                          (stats <= _ndtri(alpha)).tolist()))


def precision_matrix(lrvs: LrvSet, loadings: np.ndarray | None) -> PrecisionMatrix:
    """Inverse of the long-run covariance proxy, with the factor space projected out.

    With loadings L and Omega = diag(omega_i^2), this is
    Omega^{-1} - Omega^{-1} L (L' Omega^{-1} L)^{-1} L' Omega^{-1};
    with no factors, just Omega^{-1}.
    """
    return PrecisionMatrix(1.0 / lrvs.omega2, loadings)


def _used_columns(values: np.ndarray) -> np.ndarray:
    if values.shape[-1] < 2:
        raise DimensionError("need at least two difference columns")
    return values[..., 1:]


def ump_statistics(d: DiffPanel | np.ndarray, psi: PrecisionMatrix,
                   lrvs: LrvSet) -> UmpIntermediates:
    """Central sequence and empirical information from a differenced panel.

    Running partial sums L of the differences U and the factored precision
    give O(nTK): sum L o Psi U and sum L o Psi L are row dots less the K x T'
    projections, and W'L, (P + L'W)^{-1} W'L are the running sums of the
    projections of U. The first difference column is excluded from both
    pooled sums and the normalizers use the number of difference columns T'.
    d may be a stack of panels (R x n x T') with psi and lrvs stacked alike.
    """
    x = getattr(d, "values", d)
    n, tp = x.shape[-2:]
    used = _used_columns(x)
    lagged = lagged_cumsum(used)
    w_used, s_used = psi.scores(used)
    w_lagged = lagged_cumsum(w_used)
    quad = psi.pooled(lagged, used, w_lagged, s_used)
    jquad = psi.pooled(lagged, lagged, w_lagged, lagged_cumsum(s_used))
    correction = np.sum(lrvs.delta / lrvs.omega2, axis=-1) / math.sqrt(n)
    return UmpIntermediates(delta_hat=quad / (math.sqrt(n) * tp) - correction,
                            j_hat=jquad / (n * tp * tp), correction=correction)


def _t_ump(inter: UmpIntermediates):
    return math.sqrt(2.0) * inter.delta_hat


def _t_ump_emp(inter: UmpIntermediates):
    if not np.all(inter.j_hat > 0.0):
        raise NumericalError("empirical information is zero; data too short or degenerate")
    return inter.delta_hat / np.sqrt(inter.j_hat)


def t_ump(inter: UmpIntermediates, alpha: float = 0.05) -> TestOutcome:
    """The optimal test: sqrt(2) times the central sequence, compared to N(0, 1)."""
    return _outcomes(("t_ump",), [_t_ump(inter)], alpha)[0]


def t_ump_emp(inter: UmpIntermediates, alpha: float = 0.05) -> TestOutcome:
    """The studentized variant: central sequence over the root of the empirical information."""
    return _outcomes(("t_ump_emp",), [_t_ump_emp(inter)], alpha)[0]


def _pooled_ar(cross, denom, lrvs: LrvSet, n: int, t_dim: int, degenerate: str) -> np.ndarray:
    """The a and b statistics (..., 2) of a pooled autoregression with pooled sums
    cross and denom, bias-corrected with the pooled one-sided LRV."""
    if np.any(denom <= 0.0):
        raise NumericalError(degenerate)
    omega2 = lrvs.pooled_omega2
    phi4 = lrvs.pooled_phi4
    if np.any(phi4 <= 0.0):
        raise NumericalError("pooled fourth moment underflowed to zero; "
                             "rescale the panel if its values are very small")
    rho = (cross - n * t_dim * lrvs.pooled_delta) / denom
    scale = math.sqrt(n) * t_dim * (rho - 1.0)
    return np.stack([scale / np.sqrt(2.0 * phi4 / omega2 ** 2),
                     scale * np.sqrt(denom / (n * t_dim * t_dim) * omega2 / phi4)], axis=-1)


def _bn(e_lag: np.ndarray, e_cur: np.ndarray, lrvs: LrvSet, t_dim: int) -> np.ndarray:
    return _pooled_ar(np.sum(_dot(e_lag, e_cur), axis=-1), np.sum(_dot(e_lag, e_lag), axis=-1),
                      lrvs, e_lag.shape[-2], t_dim,
                      "degenerate idiosyncratic paths: zero lagged sum of squares")


def _bn_from_residuals(resid: np.ndarray, lrvs: LrvSet) -> np.ndarray:
    used = _used_columns(resid)
    lagged = lagged_cumsum(used)
    return _bn(lagged, lagged + used, lrvs, resid.shape[-1])


def bn_tests(fit: FactorFit, lrvs: LrvSet, alpha: float = 0.05) -> tuple[TestOutcome, TestOutcome]:
    """BN tests from a factor fit: cumulate residuals, pool, bias-correct.

    The first residual column is dropped before cumulating, matching the
    index set of the optimal statistics, and the time dimension in the
    formulas is the number of difference columns T'.
    """
    return _outcomes(("p_a", "p_b"), _bn_from_residuals(fit.residuals.values, lrvs), alpha)


def _mp(y: np.ndarray, loadings: np.ndarray | None, lrvs: LrvSet) -> np.ndarray:
    # With y_lag the levels shifted one period (zero pre-sample value), the pooled
    # sums over y o Q y_lag and y_lag o Q y_lag read the scores of y at shifted times.
    n, t_obs = y.shape[-2:]
    q = PrecisionMatrix(np.ones(y.shape[:-1]), loadings)
    w_y, s_y = q.scores(y)
    head, tail = y[..., :-1], y[..., 1:]
    cross = q.pooled(tail, head, w_y[..., 1:], s_y[..., :-1])
    denom = q.pooled(head, head, w_y[..., :-1], s_y[..., :-1])
    return _pooled_ar(cross, denom, lrvs, n, t_obs - 1,
                      "degenerate level panel: zero projected lagged sum of squares")


def mp_tests(p: Panel | np.ndarray, loadings: np.ndarray | None, lrvs: LrvSet,
             alpha: float = 0.05):
    """MP tests: pooled autoregression on levels projected off the factor space.

    The level panel is used as given (zero pre-sample values); the time
    dimension in the bias correction and prefactor is T' = T - 1.
    """
    return _outcomes(("t_a", "t_b"), _mp(getattr(p, "values", p), loadings, lrvs), alpha)


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


@dataclass(frozen=True)
class _Batch:
    """`analyze_many`'s result for R panels: k (R,), statistics (R, 6) in TEST_NAMES
    order, ump (3 x R: delta_hat, j_hat, correction), lrvs with (R, n) arrays, and
    fits as `factors.fit_stack` returns them, by factor count, residuals read-only."""

    k: np.ndarray
    statistics: np.ndarray
    ump: np.ndarray
    lrvs: LrvSet
    fits: dict

    def analysis(self, r: int, alpha: float) -> Analysis:
        """Panel r's Analysis, with its outcomes at level alpha; its arrays are views."""
        k = int(self.k[r])
        rows, loadings_bar, loadings_hat, factor_diffs, resid = self.fits[k]
        i = rows.index(r)
        fit = FactorFit(loadings_bar=loadings_bar[i], loadings_hat=loadings_hat[i],
                        factor_diffs=factor_diffs[i], residuals=_diff_view(resid[i]), k=k)
        outcomes = _outcomes(TEST_NAMES, self.statistics[r], alpha)
        return Analysis(k=k, fit=fit,
                        lrvs=LrvSet(self.lrvs.omega2[r], self.lrvs.delta[r], self.lrvs.gamma0[r]),
                        ump=UmpIntermediates(*map(float, self.ump[:, r])),
                        outcomes=dict(zip(TEST_NAMES, outcomes)))


def analyze(panel: Panel, k: int | None = None, k_max: int = 6,
            lrv_cfg: LrvConfig = LrvConfig(), alpha: float = 0.05) -> Analysis:
    """Difference, fit factors, estimate LRVs and compute the six tests.

    With k None the factor count is selected by IC_p2 over
    0..min(k_max, m // 2), m = min(n, T'). IC_p2 is built for a small fixed
    k_max: near m its penalty no longer offsets the fit, and it picks k_max.
    A unit whose differences are all zero is rejected up front: its
    long-run variance would be zero. So is a unit whose factor residuals
    are all zero (NumericalError), and a panel with a statistic that is not
    finite, such as one so large in scale that its pooled sums overflow. An
    alpha outside (0, 1) is rejected before any work.
    """
    check_alpha(alpha)
    batch = analyze_many(panel.values[None], panel.unit_ids, k=k, k_max=k_max, lrv_cfg=lrv_cfg)
    return batch.analysis(0, alpha)


# What a degenerate panel raises; anything else is a bug.
ANALYSIS_ERRORS = (DataError, NumericalError, np.linalg.LinAlgError)


def analyze_many(levels: np.ndarray, unit_ids, k: int | None = None, k_max: int = 6,
                 lrv_cfg: LrvConfig = LrvConfig()) -> _Batch:
    """`analyze` over a batch of R panels of one shape, levels R x n x T.

    Returns a `_Batch` whose row r is panel r; unit_ids label the n units in
    error messages. The batch is fitted as one stack (`factors.fit_stack`) and
    makes one `estimate_lrv_set` call over its residual rows in batch order;
    the panels of one factor count share one pass over the six statistics.
    Every step is per panel (see `lrv`), so `_Batch.analysis(r, alpha)` is
    bit-identical to panel r's own `analyze`. If a panel is faulty, the call
    raises the DataError, NumericalError or LinAlgError its own `analyze`
    raises, except that an LRV error numbers the units of the batch in batch
    order: unit u of panel r is number r n + u.
    """
    n, t = levels.shape[1:]
    diffs = np.diff(levels, axis=-1)
    if not np.isfinite(diffs).all():  # every level enters a difference
        raise DataError("difference values contains non-finite entries")
    constant = ~diffs.any(axis=-1)
    if constant.any():
        raise DataError(f"constant unit(s) {_units(unit_ids, constant)}: all first "
                        "differences are zero, so the long-run variance is zero")
    with _one_blas_thread():
        fits = fit_stack(diffs, k, k_bound(n, t - 1, k_max))
        # The residuals in batch order are a temporary, freed before the statistics run.
        ordered = np.empty_like(diffs)
        for rows, *_, resid in fits.values():
            ordered[rows] = resid
        lrvs = estimate_lrv_set(ordered.reshape(-1, t - 1), lrv_cfg)
        del ordered
        lrvs = LrvSet(*(a.reshape(-1, n) for a in (lrvs.omega2, lrvs.delta, lrvs.gamma0)))
        zero = lrvs.gamma0 == 0.0
        if zero.any():
            raise NumericalError(f"LRV: unit(s) {_units(unit_ids, zero)} have all-zero factor "
                                 "residuals, so gamma(0) and the long-run variance are zero")
        factor_counts = np.empty(len(levels), dtype=int)
        stats = np.empty((len(levels), len(TEST_NAMES)))
        ump = np.empty((3, len(levels)))
        for kr, (rows, _, loadings_hat, _, resid) in fits.items():
            resid.flags.writeable = False   # each panel's FactorFit holds a view
            part = LrvSet(lrvs.omega2[rows], lrvs.delta[rows], lrvs.gamma0[rows])
            inter = ump_statistics(diffs[rows], precision_matrix(part, loadings_hat), part)
            group = np.concatenate([np.stack([_t_ump(inter), _t_ump_emp(inter)], axis=-1),
                                    _bn_from_residuals(resid, part),
                                    _mp(levels[rows], loadings_hat, part)], axis=-1)
            finite = np.isfinite(group)
            if not finite.all():
                r, c = np.argwhere(~finite)[0]
                raise NumericalError(f"{TEST_NAMES[c]} statistic is {group[r, c]}, not finite; "
                                     "rescale the panel if its values are very large or very small")
            factor_counts[rows] = kr
            stats[rows] = group
            ump[:, rows] = inter.delta_hat, inter.j_hat, inter.correction
    return _Batch(k=factor_counts, statistics=stats, ump=ump, lrvs=lrvs, fits=fits)


def _units(unit_ids, mask: np.ndarray) -> str:
    """For an error message: the ids of the units set in the first row of mask (R x n) with any."""
    first = mask[np.flatnonzero(mask.any(axis=-1))[0]]
    return ", ".join(repr(unit_ids[u]) for u in np.flatnonzero(first))


def k_bound(n: int, tp: int, k_max: int) -> int:
    """The largest factor count `analyze` selects on n units with T' = T - 1 differences."""
    return min(k_max, min(n, tp) // 2)
