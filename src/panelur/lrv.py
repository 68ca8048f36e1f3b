"""Kernel estimation of per-unit long-run and one-sided long-run variances.

The estimators follow the usual HAC recipe: optional ARMA prewhitening
selected by BIC, a data-driven bandwidth (Andrews AR(1) plug-in or the
deterministic Newey-West truncation), a Bartlett or quadratic spectral
kernel on the sample autocovariances, then recoloring. One-sided variances
use the identity 2 delta = omega^2 - gamma(0) with gamma(0) taken from the
original (unfiltered) series.

All internals are vectorized across units, and every result is row-local:
a unit's estimates depend on its own residual row only, bit for bit, not on
the rows stacked beside it. The Monte Carlo harness relies on this. It
stacks the residuals of a batch of replications into one (R n) x T' array
and makes one call per batch, and a replication's results must not depend on
its batch-mates, or on the worker count that set the batch. Each step is
elementwise, a reduction along one row, or a per-row matmul or solve. The
one place where rows meet is the kernel sum: the truncation lag is the
largest over the rows. Zero weights pad the shorter rows, and the weighted
lags are added one lag at a time, so a padded zero changes no bit.

The floor on omega^2 is relative to the unit's gamma(0), so rescaling a panel
rescales every variance and leaves every statistic unchanged.

Python-level steps per call: one per autocovariance lag, a fixed handful
for the batched Hannan-Rissanen regression (O(n T p^2) flops in matmuls
over a strided view, p <= 12), and T steps of `panel.ar_recursion` for
each group of units prewhitened with an MA part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DataError, NumericalError
from .panel import DiffPanel, ar_recursion

__all__ = ["LrvConfig", "LrvSet", "estimate_lrv_set"]

_KERNELS = ("bartlett", "quadratic_spectral")
_BANDWIDTH_RULES = ("andrews", "newey_west", "fixed")
_MIN_LENGTH = 8
_OMEGA_FLOOR = 1e-8  # relative to gamma(0)
_TINY = np.finfo(float).tiny
# Prewhitening candidates, in tie-break order.
_WN, _AR1, _MA1, _ARMA11 = 0, 1, 2, 3
_STABILITY_BOUND = 0.999


@dataclass(frozen=True)
class LrvConfig:
    """Kernel, bandwidth rule, and prewhitening switch for LRV estimation."""

    kernel: str = "bartlett"
    bandwidth: str = "andrews"
    fixed_bandwidth: float | None = None
    prewhiten: bool = True

    def __post_init__(self):
        if self.kernel not in _KERNELS:
            raise DataError(f"unknown kernel {self.kernel!r}")
        if self.bandwidth not in _BANDWIDTH_RULES:
            raise DataError(f"unknown bandwidth rule {self.bandwidth!r}")
        if self.bandwidth == "fixed":
            if self.fixed_bandwidth is None or not self.fixed_bandwidth >= 1.0:
                raise DataError("fixed bandwidth must be >= 1")
        elif self.fixed_bandwidth is not None:
            raise DataError("fixed_bandwidth only applies with bandwidth='fixed'")


@dataclass(frozen=True)
class LrvSet:
    """Per-unit LRV estimates and their pooled aggregates."""

    omega2: np.ndarray
    delta: np.ndarray
    gamma0: np.ndarray

    @property
    def n_units(self) -> int:
        return self.omega2.size

    @property
    def pooled_omega2(self) -> float:
        return float(np.mean(self.omega2))

    @property
    def pooled_phi4(self) -> float:
        return float(np.mean(self.omega2 ** 2))

    @property
    def pooled_delta(self) -> float:
        return float(np.mean(self.delta))


def _autocov(x: np.ndarray, m: int) -> np.ndarray:
    """Lag-m sample autocovariance of each row (no mean removal)."""
    length = x.shape[1]
    return np.einsum("ij,ij->i", x[:, : length - m], x[:, m:]) / length


def _kernel_weights(kernel: str, lags: np.ndarray, bandwidth: np.ndarray) -> np.ndarray:
    """k(m / B) for a row-vector of lags against per-row bandwidths."""
    with np.errstate(divide="ignore", invalid="ignore"):
        x = lags[None, :] / bandwidth[:, None]
    if kernel == "bartlett":
        return np.clip(1.0 - x, 0.0, 1.0)
    z = 6.0 * math.pi * x / 5.0
    with np.errstate(divide="ignore", invalid="ignore"):
        w = 25.0 / (12.0 * math.pi ** 2 * x ** 2) * (np.sin(z) / z - np.cos(z))
    return np.where(x < 1e-8, 1.0, w)


def _andrews_bandwidth(kernel: str, x: np.ndarray) -> np.ndarray:
    """AR(1) plug-in bandwidths per row of x."""
    length = x.shape[1]
    num = np.einsum("ij,ij->i", x[:, 1:], x[:, :-1])
    den = np.einsum("ij,ij->i", x[:, :-1], x[:, :-1])
    rho = np.divide(num, den, out=np.zeros_like(num), where=den > 0.0)
    rho = np.clip(rho, -0.97, 0.97)
    if kernel == "bartlett":
        alpha = 4.0 * rho ** 2 / ((1.0 - rho) ** 2 * (1.0 + rho) ** 2)
        return 1.1447 * np.cbrt(alpha * length)
    alpha = 4.0 * rho ** 2 / (1.0 - rho) ** 4
    return 1.3221 * (alpha * length) ** 0.2


def _bandwidths(cfg: LrvConfig, x: np.ndarray) -> np.ndarray:
    rows, length = x.shape
    if cfg.bandwidth == "fixed":
        return np.full(rows, float(cfg.fixed_bandwidth))
    if cfg.bandwidth == "newey_west":
        return np.full(rows, float(math.floor(4.0 * (length / 100.0) ** (2.0 / 9.0))))
    return _andrews_bandwidth(cfg.kernel, x)


def _kernel_sum(cfg: LrvConfig, x: np.ndarray) -> np.ndarray:
    """Kernel-weighted autocovariance sums per row (the raw two-sided LRV).

    Lags run to the largest truncation lag over the rows; a row's weights
    beyond its own lag are zero. The weighted lags are added one lag at a
    time, so each zero adds nothing and a row's bits do not depend on the
    other rows (a single reduction over zero-padded weights would: its SIMD
    blocking changes with the padded length).
    """
    length = x.shape[1]
    bw = _bandwidths(cfg, x)
    max_lags = np.maximum(np.minimum(np.floor(bw).astype(int), length - 1), 0)
    lags = np.arange(1, int(max_lags.max()) + 1, dtype=float)
    weights = _kernel_weights(cfg.kernel, lags, bw)
    weights[lags[None, :] > max_lags[:, None]] = 0.0
    acc = np.zeros(x.shape[0])
    for m in range(1, lags.size + 1):
        acc += weights[:, m - 1] * _autocov(x, m)
    return _autocov(x, 0) + 2.0 * acc


def _hannan_rissanen_residuals(x: np.ndarray) -> tuple[np.ndarray, int]:
    """Residuals of a long autoregression, used as innovation proxies.

    Row i regresses x_t on x_{t-1}, ..., x_{t-p}. The lagged design is a
    strided view of x (no copy); the normal equations, the solve and the
    fitted values are batched matmuls over rows.
    """
    rows, length = x.shape
    p = max(4, min(12, length // 10))
    y = x[:, p:]
    design = sliding_window_view(x[:, : length - 1], p, axis=1)[:, :, ::-1]
    design_t = design.transpose(0, 2, 1)
    gram = design_t @ design
    gram += 1e-10 * np.eye(p)[None, :, :] * np.trace(gram, axis1=1, axis2=2)[:, None, None] / p
    try:
        coef = np.linalg.solve(gram, design_t @ y[..., None])
    except np.linalg.LinAlgError:
        # LAPACK stops at an exactly zero pivot, which makes the determinant 0.
        units = np.flatnonzero(np.linalg.det(gram) == 0.0).tolist()
        raise NumericalError(
            f"LRV prewhitening: singular Hannan-Rissanen long-autoregression design "
            f"for unit(s) {units}") from None
    resid = y - (design @ coef)[..., 0]
    return resid, p


def _mean_square(resid: np.ndarray) -> np.ndarray:
    """Mean square per row; the residuals die with the call, which keeps the
    stacked batch's peak memory down."""
    return np.mean(resid * resid, axis=1)


def _fit_prewhitening(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Select per row among white noise, AR(1), MA(1), ARMA(1,1) by BIC.

    Returns (model index, phi, theta); non-invertible or explosive fits are
    discarded, which leaves white noise as the fallback.
    """
    rows, length = x.shape
    log_t = math.log(length)
    bic = np.full((rows, 4), np.inf)
    phis = np.zeros((rows, 4))
    thetas = np.zeros((rows, 4))

    sigma2 = _mean_square(x)
    bic[:, _WN] = length * np.log(np.maximum(sigma2, 1e-300))

    num = np.einsum("ij,ij->i", x[:, 1:], x[:, :-1])
    den = np.einsum("ij,ij->i", x[:, :-1], x[:, :-1])
    phi = np.divide(num, den, out=np.zeros_like(num), where=den > 0.0)
    sigma2 = _mean_square(x[:, 1:] - phi[:, None] * x[:, :-1])
    ok = np.abs(phi) < _STABILITY_BOUND
    bic[ok, _AR1] = length * np.log(np.maximum(sigma2[ok], 1e-300)) + log_t
    phis[:, _AR1] = phi

    ehat, p = _hannan_rissanen_residuals(x)
    y = x[:, p + 1 :]
    elag = ehat[:, :-1]
    xlag = x[:, p:-1]

    den = np.einsum("ij,ij->i", elag, elag)
    theta = np.divide(np.einsum("ij,ij->i", y, elag), den,
                      out=np.zeros_like(den), where=den > 0.0)
    sigma2 = _mean_square(y - theta[:, None] * elag)
    ok = np.abs(theta) < _STABILITY_BOUND
    bic[ok, _MA1] = length * np.log(np.maximum(sigma2[ok], 1e-300)) + log_t
    thetas[:, _MA1] = theta

    g11 = np.einsum("ij,ij->i", xlag, xlag)
    g12 = np.einsum("ij,ij->i", xlag, elag)
    g22 = den
    b1 = np.einsum("ij,ij->i", y, xlag)
    b2 = np.einsum("ij,ij->i", y, elag)
    det = g11 * g22 - g12 * g12
    safe = np.abs(det) > 1e-12 * np.maximum(g11 * g22, 1e-300)
    phi2 = np.zeros(rows)
    theta2 = np.zeros(rows)
    np.divide(g22 * b1 - g12 * b2, det, out=phi2, where=safe)
    np.divide(g11 * b2 - g12 * b1, det, out=theta2, where=safe)
    sigma2 = _mean_square(y - phi2[:, None] * xlag - theta2[:, None] * elag)
    ok = safe & (np.abs(phi2) < _STABILITY_BOUND) & (np.abs(theta2) < _STABILITY_BOUND)
    bic[ok, _ARMA11] = length * np.log(np.maximum(sigma2[ok], 1e-300)) + 2.0 * log_t
    phis[:, _ARMA11] = phi2
    thetas[:, _ARMA11] = theta2

    model = np.argmin(bic, axis=1)
    rows_idx = np.arange(rows)
    return model, phis[rows_idx, model], thetas[rows_idx, model]


def _filter_series(x: np.ndarray, model: int, phi: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Apply the inverse ARMA filter of a fitted prewhitening model."""
    if model == _WN:
        return x
    if model == _AR1:
        return x[:, 1:] - phi[:, None] * x[:, :-1]
    if model == _MA1:
        return ar_recursion(x, -theta)
    return ar_recursion(x[:, 1:] - phi[:, None] * x[:, :-1], -theta)


def _batch_kernel_lrv(x: np.ndarray, cfg: LrvConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    rows, length = x.shape
    if length < _MIN_LENGTH:
        raise DataError(f"series of length {length} too short for LRV estimation (need >= {_MIN_LENGTH})")
    gamma0 = _mean_square(x)
    if cfg.prewhiten:
        model, phi, theta = _fit_prewhitening(x)
        recolor = ((1.0 + theta) / (1.0 - phi)) ** 2
        omega2 = np.empty(rows)
        for m in (_WN, _AR1, _MA1, _ARMA11):
            idx = np.nonzero(model == m)[0]
            if idx.size == 0:
                continue
            filtered = _filter_series(x[idx], m, phi[idx], theta[idx])
            omega2[idx] = recolor[idx] * _kernel_sum(cfg, filtered)
    else:
        omega2 = _kernel_sum(cfg, x)
    # Relative to the row's own gamma(0), so a rescaled series gets a rescaled
    # variance; `tiny` keeps an all-zero row positive (analyze rejects it).
    omega2 = np.maximum(omega2, _OMEGA_FLOOR * gamma0 + _TINY)
    delta = 0.5 * (omega2 - gamma0)
    return omega2, delta, gamma0


def estimate_lrv_set(residuals: DiffPanel, cfg: LrvConfig) -> LrvSet:
    """Per-unit LRV estimation over a residual panel, with pooled aggregates."""
    omega2, delta, gamma0 = _batch_kernel_lrv(residuals.values, cfg)
    return LrvSet(omega2=omega2, delta=delta, gamma0=gamma0)
