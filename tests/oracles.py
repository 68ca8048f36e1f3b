"""Reference implementations the tests compare the package against.

Among them are the exact central sequences under known nuisance parameters
(`OracleNuisance`) and their simplifications. Dense exact operations are
guarded at n*T <= 4000; the report's structured solver is checked against them.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from panelur import lrv
from panelur.errors import DataError, DimensionError, NumericalError
from panelur.factors import FactorFit
from panelur.lrv import LrvSet
from panelur.oracle import _approx_lrv, _approx_oslrv, _correction, _simplified_delta
from panelur.panel import DiffPanel, ar_recursion, lagged_cumsum
from panelur.statistics import PrecisionMatrix, UmpIntermediates, _bn, _outcomes

_DENSE_GUARD = 4000


class ResourceError(RuntimeError):
    """Problem size exceeds the guard for exact dense computations."""


def cumsum_matrix(t: int) -> np.ndarray:
    """The T x T strictly lower-triangular matrix of ones.

    Premultiplying a difference vector by it produces lagged partial sums
    (zero starting values). Satisfies A + A' = ones - I.
    """
    if t < 1:
        raise DimensionError("cumsum_matrix needs T >= 1")
    return np.tril(np.ones((t, t)), k=-1)


def factor_fit_dense(d: DiffPanel, k: int) -> FactorFit:
    """Principal components from the literal n x n second-moment matrix S = X'X / (n T')
    (X time-major), whatever the shape; reference for the dual fit when n > T'."""
    x = d.values.T
    tp, n = x.shape
    s = x.T @ x / (n * tp)
    eigvals, eigvecs = np.linalg.eigh(s)
    vecs = eigvecs[:, np.argsort(eigvals)[::-1][:k]]
    anchor = np.argmax(np.abs(vecs), axis=0)
    vecs = vecs * np.where(vecs[anchor, np.arange(k)] < 0, -1.0, 1.0)
    loadings_bar = np.sqrt(n) * vecs
    factor_diffs = x @ loadings_bar / n
    return FactorFit(loadings_bar=loadings_bar, loadings_hat=s @ loadings_bar,
                     factor_diffs=factor_diffs,
                     residuals=DiffPanel((x - factor_diffs @ loadings_bar.T).T), k=k)


def dense_precision(inv_weights, loadings, prior=None) -> np.ndarray:
    """The literal n x n matrix Omega^{-1} - W (P + L'W)^{-1} W' with W = Omega^{-1} L."""
    inv = np.asarray(inv_weights, dtype=float)
    lam = np.asarray(loadings, dtype=float).reshape(inv.size, -1)
    weighted = np.diag(inv) @ lam
    inner = lam.T @ weighted
    if prior is not None:
        inner = inner + np.diag(prior)
    return np.diag(inv) - weighted @ np.linalg.solve(inner, weighted.T)


def ump_statistics_naive(d: DiffPanel, lrvs: LrvSet, loadings) -> UmpIntermediates:
    """Literal double-loop evaluation of the pooled sums with the dense precision matrix;
    oracle for the fast path."""
    x = d.values
    n, tp = x.shape
    if tp < 2:
        raise DimensionError("need at least two difference columns")
    psi_m = dense_precision(1.0 / lrvs.omega2, loadings)
    quad = 0.0
    jquad = 0.0
    for t in range(1, tp):
        inner = np.zeros(n)
        for s in range(1, t):
            inner += x[:, s]
            quad += float(x[:, s] @ psi_m @ x[:, t])
        jquad += float(inner @ psi_m @ inner)
    correction = float(np.sum(lrvs.delta / lrvs.omega2)) / math.sqrt(n)
    return UmpIntermediates(
        delta_hat=quad / (math.sqrt(n) * tp) - correction,
        j_hat=jquad / (n * tp * tp),
        correction=correction,
    )


def mp_statistics_dense(y: np.ndarray, loadings, lrvs: LrvSet) -> tuple[float, float]:
    """(t_a, t_b) of Moon and Perron with the literal projection
    Q = I - L (L'L)^{-1} L', a zero pre-sample level and T' = T - 1."""
    n, t_obs = y.shape
    t_dim = t_obs - 1
    q = dense_precision(np.ones(n), loadings)
    y_lag = np.zeros_like(y)
    y_lag[:, 1:] = y[:, :-1]
    cross = float(np.sum(y * (q @ y_lag)))
    denom = float(np.sum(y_lag * (q @ y_lag)))
    omega2, phi4 = lrvs.pooled_omega2, lrvs.pooled_phi4
    scale = math.sqrt(n) * t_dim * ((cross - n * t_dim * lrvs.pooled_delta) / denom - 1.0)
    return (scale / math.sqrt(2.0 * phi4 / omega2 ** 2),
            scale * math.sqrt(denom / (n * t_dim * t_dim) * omega2 / phi4))


def bn_statistics(e_lag: np.ndarray, e_cur: np.ndarray, lrvs: LrvSet, t_dim: int,
                  alpha: float = 0.05):
    """(p_a, p_b) of one panel's pooled bias-corrected autoregression on given
    idiosyncratic paths, by the package's own pooled sums; t_dim is the time
    dimension in the bias correction and the sqrt(n) T prefactor."""
    return _outcomes(("p_a", "p_b"), _bn(e_lag, e_cur, lrvs, t_dim), alpha)


@dataclass(frozen=True)
class OracleNuisance:
    """Known nuisance parameters: innovation covariances, loadings, approximate LRVs."""

    sigma_eta: tuple
    sigma_f: tuple
    loadings: np.ndarray
    lrv_eta: np.ndarray
    oslrv_eta: np.ndarray
    lrv_f: np.ndarray

    @classmethod
    def from_covariances(cls, sigma_eta, sigma_f, loadings) -> "OracleNuisance":
        sigma_eta = tuple(np.asarray(s, dtype=float) for s in sigma_eta)
        sigma_f = tuple(np.asarray(s, dtype=float) for s in sigma_f)
        lam = np.asarray(loadings, dtype=float)
        if lam.ndim != 2 or lam.shape[0] != len(sigma_eta) or lam.shape[1] != len(sigma_f):
            raise DimensionError("loadings must be n x K matching the covariance lists")
        t = sigma_eta[0].shape[0]
        for s in (*sigma_eta, *sigma_f):
            if s.shape != (t, t):
                raise DimensionError("all covariance matrices must share one T x T shape")
            if not np.allclose(s, s.T, atol=1e-10):
                raise DataError("covariance matrix is not symmetric")
            try:
                np.linalg.cholesky(s)
            except np.linalg.LinAlgError as exc:
                raise DataError("covariance matrix is not positive definite") from exc
        return cls(
            sigma_eta=sigma_eta,
            sigma_f=sigma_f,
            loadings=lam,
            lrv_eta=np.array([_approx_lrv(s) for s in sigma_eta]),
            oslrv_eta=np.array([_approx_oslrv(s) for s in sigma_eta]),
            lrv_f=np.array([_approx_lrv(s) for s in sigma_f]),
        )

    @property
    def n_units(self) -> int:
        return len(self.sigma_eta)

    @property
    def k(self) -> int:
        return len(self.sigma_f)

    @property
    def t_dim(self) -> int:
        return self.sigma_eta[0].shape[0]


def _check_dims(d: DiffPanel, nu: OracleNuisance) -> tuple[int, int]:
    n, t = d.values.shape
    if n != nu.n_units or t != nu.t_dim:
        raise DimensionError(
            f"panel is {n} x {t} but nuisance describes {nu.n_units} units over {nu.t_dim} periods"
        )
    return n, t


def delta_panic_exact(d: DiffPanel, nu: OracleNuisance) -> tuple[float, float]:
    """Exact central sequence and information with the true innovation covariances."""
    n, t = _check_dims(d, nu)
    w = lagged_cumsum(d.values)
    delta = 0.0
    info = 0.0
    for i in range(n):
        try:
            solved = np.linalg.solve(nu.sigma_eta[i], np.column_stack([d.values[i], w[i]]))
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"singular innovation covariance for unit {i}") from exc
        delta += float(w[i] @ solved[:, 0])
        info += float(w[i] @ solved[:, 1])
    return delta / (math.sqrt(n) * t), info / (n * t * t)


def _sigma_epsilon_dense(nu: OracleNuisance) -> np.ndarray:
    n, t, k = nu.n_units, nu.t_dim, nu.k
    out = np.zeros((n * t, n * t))
    for i in range(n):
        out[i * t : (i + 1) * t, i * t : (i + 1) * t] = nu.sigma_eta[i]
    for j in range(k):
        lam = nu.loadings[:, j]
        out += np.kron(np.outer(lam, lam), nu.sigma_f[j])
    return out


def delta_mp_exact(d: DiffPanel, nu: OracleNuisance) -> tuple[float, float]:
    """Exact central sequence and information with the full innovation covariance.

    Builds the dense nT x nT covariance, so it is guarded at nT <= 4000.
    """
    n, t = _check_dims(d, nu)
    if n * t > _DENSE_GUARD:
        raise ResourceError(f"nT = {n * t} exceeds the dense guard {_DENSE_GUARD}")
    sigma = _sigma_epsilon_dense(nu)
    x = d.values.reshape(-1)
    w = lagged_cumsum(d.values).reshape(-1)
    try:
        solved = np.linalg.solve(sigma, np.column_stack([x, w]))
    except np.linalg.LinAlgError as exc:
        raise NumericalError("singular full innovation covariance") from exc
    delta = float(w @ solved[:, 0]) / (math.sqrt(n) * t)
    info = float(w @ solved[:, 1]) / (n * t * t)
    return delta, info


def _precision(nu: OracleNuisance, form: str) -> PrecisionMatrix:
    """Inverse LRVs ('diag'), minus the factor space as the SMW inverse ('smw') or
    the full projection ('star')."""
    if np.any(nu.lrv_eta <= 0.0):
        raise NumericalError("nonpositive approximate long-run variance")
    if form == "diag":
        return PrecisionMatrix(1.0 / nu.lrv_eta)
    prior = None
    if form == "smw":
        if np.any(nu.lrv_f <= 0.0):
            raise NumericalError("nonpositive factor long-run variance in the SMW form")
        prior = 1.0 / nu.lrv_f
    return PrecisionMatrix(1.0 / nu.lrv_eta, nu.loadings, prior)


def _oracle_delta(d: DiffPanel, nu: OracleNuisance, form: str) -> float:
    _check_dims(d, nu)
    return _simplified_delta(d.values, _precision(nu, form),
                             _correction(nu.oslrv_eta, nu.lrv_eta))


def delta_simplified(d: DiffPanel, nu: OracleNuisance) -> float:
    """Central sequence with covariances replaced by approximate long-run variances."""
    return _oracle_delta(d, nu, "diag")


def delta_mp_smw(d: DiffPanel, nu: OracleNuisance) -> float:
    """Simplified central sequence with the SMW inverse of the long-run proxy."""
    return _oracle_delta(d, nu, "smw")


def delta_star(d: DiffPanel, nu: OracleNuisance) -> float:
    """Central sequence with the factor directions projected out entirely."""
    return _oracle_delta(d, nu, "star")


def psi_epsilon_inverse(nu: OracleNuisance, method: str = "smw") -> np.ndarray:
    """Inverse of the cross-sectional long-run covariance proxy.

    'smw' evaluates the rank-K Sherman-Morrison-Woodbury form, 'direct'
    inverts the n x n matrix explicitly; both describe the Kronecker factor
    acting on the unit dimension.
    """
    if method == "smw":
        return _precision(nu, "smw").matrix
    if method != "direct":
        raise ValueError(f"unknown method {method!r}")
    if np.any(nu.lrv_eta <= 0.0):
        raise NumericalError("nonpositive approximate long-run variance")
    lam = nu.loadings
    return np.linalg.inv(lam @ np.diag(nu.lrv_f) @ lam.T + np.diag(nu.lrv_eta))


def hannan_rissanen_strided(x: np.ndarray) -> np.ndarray:
    """Long-autoregression residuals with the normal equations as batched matmuls
    over the strided lagged design; reference for the lag-product Gram."""
    rows, length = x.shape
    p = max(4, min(12, length // 10))
    design = sliding_window_view(x[:, : length - 1], p, axis=1)[:, :, ::-1]
    design_t = design.transpose(0, 2, 1)
    gram = design_t @ design
    gram += 1e-10 * np.eye(p)[None, :, :] * np.trace(gram, axis1=1, axis2=2)[:, None, None] / p
    coef = np.linalg.solve(gram, design_t @ x[:, p:, None])
    return x[:, p:] - (design @ coef)[..., 0]


def _mean_square(resid: np.ndarray) -> np.ndarray:
    return np.mean(resid * resid, axis=1)


def fit_prewhitening_residuals(x: np.ndarray, gamma0: np.ndarray,
                               ehat: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(model, phi, theta) per row by BIC among white noise, AR(1), MA(1) and
    ARMA(1,1), each sigma^2 the mean square of its residual array; reference for
    the selection from row sums. ehat are the long-autoregression residuals."""
    rows, length = x.shape
    log_t = math.log(length)
    bic = np.full((rows, 4), np.inf)
    phis = np.zeros((rows, 4))
    thetas = np.zeros((rows, 4))

    bic[:, lrv._WN] = length * np.log(np.maximum(gamma0, 1e-300))

    num = np.einsum("ij,ij->i", x[:, 1:], x[:, :-1])
    den = np.einsum("ij,ij->i", x[:, :-1], x[:, :-1])
    phi = np.divide(num, den, out=np.zeros_like(num), where=den > 0.0)
    sigma2 = _mean_square(x[:, 1:] - phi[:, None] * x[:, :-1])
    ok = np.abs(phi) < lrv._STABILITY_BOUND
    bic[ok, lrv._AR1] = length * np.log(np.maximum(sigma2[ok], 1e-300)) + log_t
    phis[:, lrv._AR1] = phi

    p = length - ehat.shape[1]
    y = x[:, p + 1 :]
    elag = ehat[:, :-1]
    xlag = x[:, p:-1]

    den = np.einsum("ij,ij->i", elag, elag)
    theta = np.divide(np.einsum("ij,ij->i", y, elag), den,
                      out=np.zeros_like(den), where=den > 0.0)
    sigma2 = _mean_square(y - theta[:, None] * elag)
    ok = np.abs(theta) < lrv._STABILITY_BOUND
    bic[ok, lrv._MA1] = length * np.log(np.maximum(sigma2[ok], 1e-300)) + log_t
    thetas[:, lrv._MA1] = theta

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
    ok = (safe & (np.abs(phi2) < lrv._STABILITY_BOUND)
          & (np.abs(theta2) < lrv._STABILITY_BOUND))
    bic[ok, lrv._ARMA11] = length * np.log(np.maximum(sigma2[ok], 1e-300)) + 2.0 * log_t
    phis[:, lrv._ARMA11] = phi2
    thetas[:, lrv._ARMA11] = theta2

    model = np.argmin(bic, axis=1)
    rows_idx = np.arange(rows)
    return model, phis[rows_idx, model], thetas[rows_idx, model]


def _filter_series(x: np.ndarray, model: int, phi: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """The inverse ARMA filter of one prewhitening model, on rows that all chose it."""
    if model == lrv._WN:
        return x
    if model == lrv._AR1:
        return x[:, 1:] - phi[:, None] * x[:, :-1]
    if model == lrv._MA1:
        return ar_recursion(x, -theta)
    return ar_recursion(x[:, 1:] - phi[:, None] * x[:, :-1], -theta)


def prewhitened_lrv_by_group(x: np.ndarray, cfg: lrv.LrvConfig):
    """(model, omega2, delta) per row, with the strided-design Hannan-Rissanen fit,
    the selection from residual arrays, and the filter and the kernel sum run per
    model group on the filtered rows at their own length; reference for the
    one-pass prewhitened estimator."""
    gamma0 = _mean_square(x)
    model, phi, theta = fit_prewhitening_residuals(x, gamma0, hannan_rissanen_strided(x))
    recolor = ((1.0 + theta) / (1.0 - phi)) ** 2
    omega2 = np.empty(x.shape[0])
    for m in (lrv._WN, lrv._AR1, lrv._MA1, lrv._ARMA11):
        idx = np.flatnonzero(model == m)
        if idx.size:
            filtered = _filter_series(x[idx], m, phi[idx], theta[idx])
            omega2[idx] = recolor[idx] * lrv._kernel_sum(cfg, filtered, filtered.shape[1])
    omega2 = np.maximum(omega2, lrv._OMEGA_FLOOR * gamma0 + lrv._TINY)
    return model, omega2, 0.5 * (omega2 - gamma0)
