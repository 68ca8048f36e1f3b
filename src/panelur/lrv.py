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

Python-level steps per call: one per autocovariance lag; for the
Hannan-Rissanen regression (p <= 12), p+1 lag sums and p recurrence steps
that build its normal equations from lag products, one step per pivot and
per back-substitution row of their solve, and one batched matmul for the
residuals, whose dots give every model's BIC; and T steps of one
`panel.ar_recursion` over the units prewhitened with an MA part.
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
            if self.fixed_bandwidth is None or not 1.0 <= self.fixed_bandwidth < math.inf:
                raise DataError(f"fixed bandwidth must be finite and >= 1, "
                                f"got {self.fixed_bandwidth}")
        elif self.fixed_bandwidth is not None:
            raise DataError("fixed_bandwidth only applies with bandwidth='fixed'")


@dataclass(frozen=True)
class LrvSet:
    """Per-unit LRV estimates and their pooled aggregates."""

    omega2: np.ndarray
    delta: np.ndarray
    gamma0: np.ndarray

    # Pooled over the units of each panel: a float for one panel, else an array
    # over the leading axes of a stack of panels.

    @property
    def pooled_omega2(self):
        return np.mean(self.omega2, axis=-1)

    @property
    def pooled_phi4(self):
        return np.mean(self.omega2 ** 2, axis=-1)

    @property
    def pooled_delta(self):
        return np.mean(self.delta, axis=-1)


def _autocov(x: np.ndarray, m: int, length) -> np.ndarray:
    """Lag-m sample autocovariance of each row (no mean removal), over each row's length."""
    width = x.shape[1]
    return np.einsum("ij,ij->i", x[:, : width - m], x[:, m:]) / length


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


def _ar1(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per row of x: num = sum x_t x_{t-1}, den = sum x_{t-1}^2 and the AR(1)
    slope num / den, 0 where den is 0."""
    num = np.einsum("ij,ij->i", x[:, 1:], x[:, :-1])
    den = np.einsum("ij,ij->i", x[:, :-1], x[:, :-1])
    return num, den, np.divide(num, den, out=np.zeros_like(num), where=den > 0.0)


def _andrews_bandwidth(kernel: str, x: np.ndarray, length) -> np.ndarray:
    """AR(1) plug-in bandwidths per row of x."""
    rho = np.clip(_ar1(x)[2], -0.97, 0.97)
    if kernel == "bartlett":
        alpha = 4.0 * rho ** 2 / ((1.0 - rho) ** 2 * (1.0 + rho) ** 2)
        return 1.1447 * np.cbrt(alpha * length)
    alpha = 4.0 * rho ** 2 / (1.0 - rho) ** 4
    return 1.3221 * (alpha * length) ** 0.2


def _bandwidths(cfg: LrvConfig, x: np.ndarray, length) -> np.ndarray:
    rows = x.shape[0]
    if cfg.bandwidth == "fixed":
        return np.full(rows, float(cfg.fixed_bandwidth))
    if cfg.bandwidth == "newey_west":
        return np.broadcast_to(np.floor(4.0 * (length / 100.0) ** (2.0 / 9.0)), rows)
    return _andrews_bandwidth(cfg.kernel, x, length)


def _kernel_sum(cfg: LrvConfig, x: np.ndarray, length) -> np.ndarray:
    """Kernel-weighted autocovariance sums per row (the raw two-sided LRV).

    length is the series length, one for all rows or one per row; a row
    shorter than x's width starts with zeros, which add nothing to its sums.
    Lags run to the largest truncation lag over the rows; a row's weights
    beyond its own lag are zero. The weighted lags are added one lag at a
    time, so each zero adds nothing and a row's bits do not depend on the
    other rows (a single reduction over zero-padded weights would: its SIMD
    blocking changes with the padded length).
    """
    bw = _bandwidths(cfg, x, length)
    max_lags = np.maximum(np.minimum(np.floor(bw).astype(int), length - 1), 0)
    lags = np.arange(1, int(max_lags.max()) + 1, dtype=float)
    weights = _kernel_weights(cfg.kernel, lags, bw)
    weights[lags[None, :] > max_lags[:, None]] = 0.0
    acc = np.zeros(x.shape[0])
    for m in range(1, lags.size + 1):
        acc += weights[:, m - 1] * _autocov(x, m, length)
    return _autocov(x, 0, length) + 2.0 * acc


def _solve_rows(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve gram[:, :, r] c = rhs[:, r] for every row r in place; returns rhs.

    Elimination without pivoting, which suits the SPD ridged Gram, in steps
    elementwise over the rows, so each row's bits are its own. An exactly zero
    pivot, where LAPACK stops, raises naming the rows; inf and nan propagate
    silently, as through LAPACK.
    """
    with np.errstate(all="ignore"):
        for k in range(len(rhs)):
            factor = gram[k + 1 :, k] / gram[k, k]
            gram[k + 1 :, k + 1 :] -= factor[:, None] * gram[k, k + 1 :]
            rhs[k + 1 :] -= factor * rhs[k]
        singular = np.flatnonzero((np.diagonal(gram) == 0.0).any(axis=1))  # the pivots
        if singular.size:
            raise NumericalError(
                f"LRV prewhitening: singular Hannan-Rissanen long-autoregression design "
                f"for unit(s) {singular.tolist()}")
        for k in reversed(range(len(rhs))):
            rhs[k] /= gram[k, k]
            rhs[:k] -= gram[:k, k] * rhs[k]
    return rhs


def _mean_square(x: np.ndarray) -> np.ndarray:
    """gamma(0) of each row: the mean square, without mean removal."""
    return np.mean(x * x, axis=1)


def _fit_prewhitening(x: np.ndarray,
                      gamma0: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Select per row among white noise, AR(1), MA(1), ARMA(1,1) by BIC.

    gamma0 is the mean square of each row of x. The MA parts regress on the
    residuals e of a long autoregression (Hannan-Rissanen) of x_t on x_{t-1},
    ..., x_{t-p}, t = p..L-1, whose normal equations are blocks of the window
    Gram G[a, b] = sum_t x_{t-a} x_{t-b}, a, b = 0..p, laid out (p+1, p+1, rows):
    row 0 is p+1 lag sums, and G[a+1, b+1] = G[a, b] + x_{p-1-a} x_{p-1-b} -
    x_{L-1-a} x_{L-1-b}. Each residual sum of squares is expanded in row sums.
    Returns (model index, phi, theta); non-invertible or explosive fits are
    discarded, which leaves white noise as the fallback.
    """
    rows, length = x.shape
    p = max(4, min(12, length // 10))
    window = np.empty((p + 1, p + 1, rows))
    for b in range(p + 1):
        window[0, b] = np.einsum("ij,ij->i", x[:, p:], x[:, p - b : length - b])
    window[1:, 0] = window[0, 1:]
    head = x[:, p - 1 :: -1].T.copy()            # x_{p-1-a}, a = 0..p-1
    tail = x[:, length - p :][:, ::-1].T.copy()  # x_{L-1-a}
    for a in range(p):
        edge = head[a] * head
        edge -= tail[a] * tail
        np.add(window[a, :p], edge, out=window[a + 1, 1:])
    # Sums over t = p+1..L-1 of y = x_t and z = x_{t-1}, for the MA and ARMA fits.
    yy = window[0, 0] - x[:, p] ** 2
    yz = window[0, 1] - x[:, p] * x[:, p - 1]
    zz = window[0, 0] - x[:, -1] ** 2
    diag = np.arange(1, p + 1)
    window[diag, diag] += 1e-10 * np.trace(window[1:, 1:]) / p
    coef = np.ascontiguousarray(_solve_rows(window[1:, 1:], window[0, 1:]).T)
    del window  # before the fitted values, the call's largest array
    design = sliding_window_view(x[:, : length - 2], p, axis=1)[:, :, ::-1]
    elag = (design @ coef[:, :, None])[..., 0]  # e_t for t = p..L-2
    np.subtract(x[:, p:-1], elag, out=elag)
    ee = np.einsum("ij,ij->i", elag, elag)
    ye = np.einsum("ij,ij->i", x[:, p + 1 :], elag)
    ze = np.einsum("ij,ij->i", x[:, p:-1], elag)

    num, den, phi = _ar1(x)
    theta = np.divide(ye, ee, out=np.zeros_like(ee), where=ee > 0.0)
    det = zz * ee - ze * ze
    safe = np.abs(det) > 1e-12 * np.maximum(zz * ee, 1e-300)
    phi2 = np.divide(ee * yz - ze * ye, det, out=np.zeros(rows), where=safe)
    theta2 = np.divide(zz * ye - ze * yz, det, out=np.zeros(rows), where=safe)
    zero = np.zeros(rows)
    phis = np.stack([zero, phi, zero, phi2])  # _WN, _AR1, _MA1, _ARMA11
    thetas = np.stack([zero, zero, theta, theta2])
    # Each least-squares fit's residual sum of squares: y'y less coef'X'y.
    sigma2 = np.stack([gamma0,
                       (den - x[:, 0] ** 2 + x[:, -1] ** 2 - phi * num) / (length - 1),
                       (yy - theta * ye) / (length - p - 1),
                       (yy - phi2 * yz - theta2 * ye) / (length - p - 1)])
    stable = (np.abs(phis) < _STABILITY_BOUND) & (np.abs(thetas) < _STABILITY_BOUND)
    stable[_ARMA11] &= safe
    penalty = math.log(length) * np.array([0.0, 1.0, 1.0, 2.0])[:, None]
    bic = np.where(stable, length * np.log(np.maximum(sigma2, 1e-300)) + penalty, np.inf)
    model = np.argmin(bic, axis=0)
    return model, np.choose(model, phis), np.choose(model, thetas)


def _batch_kernel_lrv(x: np.ndarray, cfg: LrvConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    length = x.shape[1]
    if length < _MIN_LENGTH:
        raise DataError(f"series of length {length} too short for LRV estimation (need >= {_MIN_LENGTH})")
    gamma0 = _mean_square(x)
    if cfg.prewhiten:
        model, phi, theta = _fit_prewhitening(x, gamma0)
        # Every row's inverse ARMA filter in one pass: a row with an AR part
        # gets a leading zero for its first value and keeps its own length
        # L - 1. Only rows with an MA part run the recursion; over all rows it
        # cost 4-5x more on a Monte Carlo batch, where most rows have theta = 0.
        ar_part = (model == _AR1) | (model == _ARMA11)
        filtered = np.empty_like(x)
        filtered[:, 0] = np.where(ar_part, 0.0, x[:, 0])
        np.multiply(phi[:, None], x[:, :-1], out=filtered[:, 1:])
        np.subtract(x[:, 1:], filtered[:, 1:], out=filtered[:, 1:])
        ma_part = np.flatnonzero(theta)
        if ma_part.size:
            filtered[ma_part] = ar_recursion(filtered[ma_part], -theta[ma_part])
        recolor = ((1.0 + theta) / (1.0 - phi)) ** 2
        omega2 = recolor * _kernel_sum(cfg, filtered, length - ar_part)
    else:
        omega2 = _kernel_sum(cfg, x, length)
    # Relative to the row's own gamma(0), so a rescaled series gets a rescaled
    # variance; `tiny` keeps an all-zero row positive (analyze rejects it).
    omega2 = np.maximum(omega2, _OMEGA_FLOOR * gamma0 + _TINY)
    delta = 0.5 * (omega2 - gamma0)
    return omega2, delta, gamma0


def estimate_lrv_set(residuals: DiffPanel | np.ndarray, cfg: LrvConfig) -> LrvSet:
    """Per-unit LRV estimation over a residual panel, with pooled aggregates.

    residuals may also be an array of residual rows with leading axes, such as
    a stack of R panels (R x n x T'); the LrvSet's arrays then keep those axes.
    """
    x = residuals.values if isinstance(residuals, DiffPanel) else residuals
    estimates = _batch_kernel_lrv(x.reshape(-1, x.shape[-1]), cfg)
    omega2, delta, gamma0 = (a.reshape(x.shape[:-1]) for a in estimates)
    return LrvSet(omega2=omega2, delta=delta, gamma0=gamma0)
