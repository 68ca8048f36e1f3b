"""Exact central sequences under known nuisance parameters, for numerical verification.

These are the infeasible score-like statistics of the likelihood expansions,
computed with the true innovation covariance matrices. They exist to verify,
at desk scale, that the implemented feasible statistics approximate the
right objects: the exact forms, their long-run variance simplifications,
the factor-projection variant, and the cross-framework agreement.

Dense exact operations are guarded at n*T <= 4000. The convergence report
runs at larger sizes through a structured solver that exploits the scaled
covariance layout of the simulated designs (one base covariance per cell);
the two paths agree to rounding and are cross-checked in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, toeplitz

from .dgp import InnovationSpec, innovation_scale, lognormal_heterogeneity_params
from .errors import DataError, DimensionError, NumericalError, ResourceError
from .panel import DiffPanel, lagged_cumsum
from .statistics import PrecisionMatrix

__all__ = [
    "OracleNuisance",
    "innovation_covariance",
    "delta_panic_exact",
    "delta_simplified",
    "delta_mp_exact",
    "delta_mp_smw",
    "delta_star",
    "psi_epsilon_inverse",
    "lan_convergence_report",
    "REPORT_COLUMNS",
]

_DENSE_GUARD = 4000


def innovation_covariance(kind: str, parameter: float, t: int, target_lrv: float = 1.0) -> np.ndarray:
    """T x T covariance of a stationary innovation series with the given long-run variance."""
    spec = InnovationSpec(kind=kind, parameter=parameter, target_lrv=target_lrv)
    sigma = innovation_scale(spec)
    if kind == "iid":
        gamma = np.zeros(t)
        gamma[0] = sigma ** 2
    elif kind == "ma1":
        gamma = np.zeros(t)
        gamma[0] = sigma ** 2 * (1.0 + parameter ** 2)
        if t > 1:
            gamma[1] = sigma ** 2 * parameter
    else:
        lags = np.arange(t)
        gamma = sigma ** 2 * parameter ** lags / (1.0 - parameter ** 2)
    return toeplitz(gamma)


def _approx_lrv(sigma: np.ndarray) -> float:
    t = sigma.shape[0]
    return float(np.sum(sigma)) / t


def _approx_oslrv(sigma: np.ndarray) -> float:
    t = sigma.shape[0]
    return float(np.sum(np.tril(sigma, k=-1))) / t


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


def _correction(nu: OracleNuisance) -> float:
    return float(np.sum(nu.oslrv_eta / nu.lrv_eta)) / math.sqrt(nu.n_units)


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


def delta_simplified(d: DiffPanel, nu: OracleNuisance) -> float:
    """Central sequence with covariances replaced by approximate long-run variances."""
    n, t = _check_dims(d, nu)
    if np.any(nu.lrv_eta <= 0.0):
        raise NumericalError("nonpositive approximate long-run variance")
    w = lagged_cumsum(d.values)
    quad = float(np.sum(w * d.values / nu.lrv_eta[:, None]))
    return quad / (math.sqrt(n) * t) - _correction(nu)


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


def _precision(nu: OracleNuisance, smw: bool) -> PrecisionMatrix:
    """Inverse LRVs minus the factor space: the SMW inverse, or the full projection."""
    if np.any(nu.lrv_eta <= 0.0):
        raise NumericalError("nonpositive approximate long-run variance")
    prior = None
    if smw:
        if np.any(nu.lrv_f <= 0.0):
            raise NumericalError("nonpositive factor long-run variance in the SMW form")
        prior = 1.0 / nu.lrv_f
    return PrecisionMatrix(1.0 / nu.lrv_eta, nu.loadings, prior)


def psi_epsilon_inverse(nu: OracleNuisance, method: str = "smw") -> np.ndarray:
    """Inverse of the cross-sectional long-run covariance proxy.

    'smw' evaluates the rank-K Sherman-Morrison-Woodbury form, 'direct'
    inverts the n x n matrix explicitly; both describe the Kronecker factor
    acting on the unit dimension.
    """
    if method == "smw":
        return _precision(nu, smw=True).matrix
    if method != "direct":
        raise ValueError(f"unknown method {method!r}")
    if np.any(nu.lrv_eta <= 0.0):
        raise NumericalError("nonpositive approximate long-run variance")
    lam = nu.loadings
    return np.linalg.inv(lam @ np.diag(nu.lrv_f) @ lam.T + np.diag(nu.lrv_eta))


def _projected_delta(d: DiffPanel, nu: OracleNuisance, smw: bool) -> float:
    """Simplified central sequence sum_{i,j} m_ij (A x_i)' x_j for the factor-space precision m."""
    n, t = _check_dims(d, nu)
    psi = _precision(nu, smw)
    quad = float(np.sum(lagged_cumsum(d.values) * psi.apply(d.values)))
    return quad / (math.sqrt(n) * t) - _correction(nu)


def delta_mp_smw(d: DiffPanel, nu: OracleNuisance) -> float:
    """Simplified central sequence with the SMW inverse of the long-run proxy."""
    return _projected_delta(d, nu, smw=True)


def delta_star(d: DiffPanel, nu: OracleNuisance) -> float:
    """Central sequence with the factor directions projected out entirely."""
    return _projected_delta(d, nu, smw=False)


# ---------------------------------------------------------------------------
# Convergence report over a ladder of panel sizes.
# ---------------------------------------------------------------------------

REPORT_COLUMNS = ("n", "T", "quantity", "median_abs_diff", "mean", "variance",
                  "skew", "kurtosis", "seeds")

_REPORT_STATS = ("delta_panic", "delta_simplified", "delta_mp", "delta_mp_smw",
                 "delta_star", "j_panic", "j_mp")
_REPORT_GAPS = (
    ("gap_panic_vs_simplified", "delta_panic", "delta_simplified"),
    ("gap_mp_vs_smw", "delta_mp", "delta_mp_smw"),
    ("gap_smw_vs_star", "delta_mp_smw", "delta_star"),
    ("gap_star_vs_simplified", "delta_star", "delta_simplified"),
)


class _ScaledCellSolver:
    """Exact oracle computations for a cell whose unit covariances share one base.

    The simulated designs use Sigma_eta_i = c_i * Sigma0, which lets the
    exact full-covariance solve run through one Cholesky factorization of
    Sigma0 plus a rank-K Woodbury step whose KT x KT inner matrix is also
    factored once per cell.
    """

    def __init__(self, sigma0: np.ndarray, scales: np.ndarray,
                 loadings: np.ndarray, sigma_f: np.ndarray):
        self.t = sigma0.shape[0]
        self.scales = scales
        self.loadings = loadings
        self.n, self.k = loadings.shape
        self.sigma_f = sigma_f
        self.chol0 = cho_factor(sigma0, lower=True)
        self.lrv0 = _approx_lrv(sigma0)
        self.oslrv0 = _approx_oslrv(sigma0)
        self.lrv_eta = scales * self.lrv0
        self.oslrv_eta = scales * self.oslrv0
        self.lrv_f = np.full(self.k, _approx_lrv(sigma_f))
        if self.k > 0:
            inv0 = cho_solve(self.chol0, np.eye(self.t))
            inv_f = np.linalg.inv(sigma_f)
            a = (loadings.T / scales) @ loadings  # K x K of sum_i l_ki l_li / c_i
            inner = np.kron(np.eye(self.k), inv_f) + np.kron(a, inv0)
            self.chol_inner = cho_factor(inner, lower=True)

    def _d_inv(self, x_mat: np.ndarray) -> np.ndarray:
        """blockdiag(c_i Sigma0)^{-1} applied to a T x n arrangement."""
        return cho_solve(self.chol0, x_mat) / self.scales[None, :]

    def sigma_eps_inv(self, x_mat: np.ndarray) -> np.ndarray:
        """Full-covariance inverse applied to a T x n arrangement."""
        base = self._d_inv(x_mat)
        if self.k == 0:
            return base
        u_proj = (base @ self.loadings).T.reshape(-1)  # stacked K blocks of length T
        mid = cho_solve(self.chol_inner, u_proj).reshape(self.k, self.t)
        return base - self._d_inv(mid.T @ self.loadings.T)

    def quad_pair(self, w_mat: np.ndarray, x_mat: np.ndarray) -> tuple[float, float]:
        """(w' Sigma^{-1} x, w' Sigma^{-1} w) in the T x n arrangement."""
        sx = self.sigma_eps_inv(x_mat)
        sw = self.sigma_eps_inv(w_mat)
        return float(np.sum(w_mat * sx)), float(np.sum(w_mat * sw))


def _moments(values: np.ndarray) -> tuple[float, float, float, float]:
    mean = float(np.mean(values))
    centered = values - mean
    var = float(np.mean(centered ** 2))
    if var <= 0.0:
        return mean, var, 0.0, 0.0
    skew = float(np.mean(centered ** 3)) / var ** 1.5
    kurt = float(np.mean(centered ** 4)) / var ** 2
    return mean, var, skew, kurt


def lan_convergence_report(sizes, seeds: int, base_seed: int = 0, ratio: float = 0.8,
                           k: int = 1, innovation_parameter: float = 0.4) -> list[dict]:
    """Simulate null panels over a size ladder and summarize the central sequences.

    Per size: draw loadings and lognormal variance scales once, then for each
    seed generate MA(1) factor and idiosyncratic innovations, evaluate every
    central-sequence variant exactly, and report moments plus the median
    absolute gaps between consecutive simplification steps.
    """
    rows: list[dict] = []
    if seeds <= 0:
        return rows
    for size_index, (n, t) in enumerate(sizes):
        cell_ss = np.random.SeedSequence((base_seed, size_index, 0xC0FFEE))
        rng = np.random.default_rng(cell_ss)
        if k > 0:
            loadings = rng.normal(1.0 / math.sqrt(k), 1.0 / math.sqrt(k), size=(n, k))
        else:
            loadings = np.zeros((n, 0))
        mu, sigma2 = lognormal_heterogeneity_params(ratio)
        scales = (rng.lognormal(mu, math.sqrt(sigma2), size=n)
                  if sigma2 > 0.0 else np.ones(n))

        theta = innovation_parameter
        sig_eta = innovation_scale(InnovationSpec(kind="ma1", parameter=theta))
        sigma0 = innovation_covariance("ma1", theta, t, target_lrv=1.0)
        sigma_f = innovation_covariance("ma1", theta, t, target_lrv=1.0)
        solver = _ScaledCellSolver(sigma0, scales, loadings, sigma_f)

        inv_omega = 1.0 / solver.lrv_eta
        correction = float(np.sum(solver.oslrv_eta * inv_omega)) / math.sqrt(n)
        psi_smw = PrecisionMatrix(inv_omega, loadings, 1.0 / solver.lrv_f)
        psi_star = PrecisionMatrix(inv_omega, loadings)

        samples = {name: np.empty(seeds) for name in _REPORT_STATS}
        for rep in range(seeds):
            rep_rng = np.random.default_rng(
                np.random.SeedSequence((base_seed, size_index, 1, rep)))
            raw_f = rep_rng.standard_normal((k, t + 1))
            raw_e = rep_rng.standard_normal((n, t + 1))
            f_innov = sig_eta * (raw_f[:, 1:] + theta * raw_f[:, :-1])
            eta = (sig_eta * np.sqrt(scales))[:, None] * (raw_e[:, 1:] + theta * raw_e[:, :-1])
            de = eta  # under the null the idiosyncratic differences are the innovations
            dy = loadings @ f_innov + eta

            w_e = lagged_cumsum(de)
            solved = cho_solve(solver.chol0, de.T) / scales[None, :]
            samples["delta_panic"][rep] = float(np.sum(w_e.T * solved)) / (math.sqrt(n) * t)
            solved_w = cho_solve(solver.chol0, w_e.T) / scales[None, :]
            samples["j_panic"][rep] = float(np.sum(w_e.T * solved_w)) / (n * t * t)
            samples["delta_simplified"][rep] = (
                float(np.sum(w_e * de * inv_omega[:, None])) / (math.sqrt(n) * t) - correction)

            w_y = lagged_cumsum(dy)
            quad, info = solver.quad_pair(w_y.T, dy.T)
            samples["delta_mp"][rep] = quad / (math.sqrt(n) * t)
            samples["j_mp"][rep] = info / (n * t * t)
            samples["delta_mp_smw"][rep] = (
                float(np.sum(w_y * psi_smw.apply(dy))) / (math.sqrt(n) * t) - correction)
            samples["delta_star"][rep] = (
                float(np.sum(w_y * psi_star.apply(dy))) / (math.sqrt(n) * t) - correction)

        for name in _REPORT_STATS:
            mean, var, skew, kurt = _moments(samples[name])
            rows.append({"n": n, "T": t, "quantity": name, "median_abs_diff": float("nan"),
                         "mean": mean, "variance": var, "skew": skew, "kurtosis": kurt,
                         "seeds": seeds})
        for gap_name, left, right in _REPORT_GAPS:
            gap = float(np.median(np.abs(samples[left] - samples[right])))
            rows.append({"n": n, "T": t, "quantity": gap_name, "median_abs_diff": gap,
                         "mean": float("nan"), "variance": float("nan"), "skew": float("nan"),
                         "kurtosis": float("nan"), "seeds": seeds})
    return rows
