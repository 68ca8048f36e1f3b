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
that build its normal equations from lag products, then one batched solve
and one batched matmul for the fitted values; and T steps of one
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

    @property
    def n_units(self) -> int:
        return self.omega2.shape[-1]

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


def _andrews_bandwidth(kernel: str, x: np.ndarray, length) -> np.ndarray:
    """AR(1) plug-in bandwidths per row of x."""
    num = np.einsum("ij,ij->i", x[:, 1:], x[:, :-1])
    den = np.einsum("ij,ij->i", x[:, :-1], x[:, :-1])
    rho = np.divide(num, den, out=np.zeros_like(num), where=den > 0.0)
    rho = np.clip(rho, -0.97, 0.97)
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


def _hannan_rissanen_residuals(x: np.ndarray) -> np.ndarray:
    """Residuals of a long autoregression, used as innovation proxies.

    Row i regresses x_t on x_{t-1}, ..., x_{t-p}, t = p..L-1. Its normal
    equations are blocks of the window Gram G[a, b] = sum_t x_{t-a} x_{t-b},
    a, b = 0..p, laid out (p+1, p+1, rows): row 0 is p+1 lag sums, and
    G[a+1, b+1] = G[a, b] + x_{p-1-a} x_{p-1-b} - x_{L-1-a} x_{L-1-b}.
    The solve and the fitted values (over a strided view) are batched.
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
    diag = np.arange(1, p + 1)
    window[diag, diag] += 1e-10 * np.trace(window[1:, 1:]) / p
    gram = window[1:, 1:].transpose(2, 0, 1)
    try:
        coef = np.linalg.solve(gram, window[0, 1:].T[..., None])
    except np.linalg.LinAlgError:
        # LAPACK stops at an exactly zero pivot, which makes the determinant 0.
        units = np.flatnonzero(np.linalg.det(gram) == 0.0).tolist()
        raise NumericalError(
            f"LRV prewhitening: singular Hannan-Rissanen long-autoregression design "
            f"for unit(s) {units}") from None
    del window, gram  # before the fitted values, the call's largest array
    design = sliding_window_view(x[:, : length - 1], p, axis=1)[:, :, ::-1]
    resid = (design @ coef)[..., 0]
    return np.subtract(x[:, p:], resid, out=resid)


def _mean_square(resid: np.ndarray) -> np.ndarray:
    """Mean square per row; the residuals die with the call, which keeps the
    stacked batch's peak memory down."""
    return np.mean(resid * resid, axis=1)


def _fit_prewhitening(x: np.ndarray, gamma0: np.ndarray,
                      ehat: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Select per row among white noise, AR(1), MA(1), ARMA(1,1) by BIC.

    gamma0 is the mean square of each row of x, and ehat the long
    autoregression's residuals, the innovation proxies for the MA parts.
    Returns (model index, phi, theta); non-invertible or explosive fits are
    discarded, which leaves white noise as the fallback.
    """
    rows, length = x.shape
    log_t = math.log(length)
    bic = np.full((rows, 4), np.inf)
    phis = np.zeros((rows, 4))
    thetas = np.zeros((rows, 4))

    bic[:, _WN] = length * np.log(np.maximum(gamma0, 1e-300))

    num = np.einsum("ij,ij->i", x[:, 1:], x[:, :-1])
    den = np.einsum("ij,ij->i", x[:, :-1], x[:, :-1])
    phi = np.divide(num, den, out=np.zeros_like(num), where=den > 0.0)
    sigma2 = _mean_square(x[:, 1:] - phi[:, None] * x[:, :-1])
    ok = np.abs(phi) < _STABILITY_BOUND
    bic[ok, _AR1] = length * np.log(np.maximum(sigma2[ok], 1e-300)) + log_t
    phis[:, _AR1] = phi

    p = length - ehat.shape[1]
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


def _batch_kernel_lrv(x: np.ndarray, cfg: LrvConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    length = x.shape[1]
    if length < _MIN_LENGTH:
        raise DataError(f"series of length {length} too short for LRV estimation (need >= {_MIN_LENGTH})")
    gamma0 = _mean_square(x)
    if cfg.prewhiten:
        model, phi, theta = _fit_prewhitening(x, gamma0, _hannan_rissanen_residuals(x))
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
