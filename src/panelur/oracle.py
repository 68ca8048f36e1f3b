"""LAN convergence report: the central sequences of both experiments on simulated nulls.

Under Gaussian innovations the PANIC and Moon-Perron experiments are LAN
with the same central sequence. The report checks this at desk scale: it
simulates null panels over a ladder of sizes, evaluates the exact central
sequences with the true innovation covariances and their long-run variance
simplifications, and summarizes each quantity and the gaps between
consecutive simplification steps. `panelur selftest` runs it.

The exact solves run through a structured solver that exploits the scaled
covariance layout of the simulated design (one base covariance per size).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import cho_factor, cho_solve, toeplitz

from .dgp import InnovationSpec, innovation_scale, lognormal_heterogeneity_params
from .panel import lagged_cumsum
from .statistics import PrecisionMatrix

__all__ = ["innovation_covariance", "lan_convergence_report", "REPORT_COLUMNS"]

# The simulated design: LRV heterogeneity ratio, factor count, MA(1) coefficient.
_RATIO = 0.8
_K = 1
_THETA = 0.4


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
    return float(np.sum(sigma)) / sigma.shape[0]


def _approx_oslrv(sigma: np.ndarray) -> float:
    return float(np.sum(np.tril(sigma, k=-1))) / sigma.shape[0]


def _correction(oslrv: np.ndarray, lrv: np.ndarray) -> float:
    """The bias correction sum_i oslrv_i / lrv_i / sqrt(n)."""
    return float(np.sum(oslrv / lrv)) / math.sqrt(oslrv.size)


def _simplified_delta(x: np.ndarray, psi: PrecisionMatrix, correction: float) -> float:
    """Simplified central sequence sum_{i,j} m_ij (A x_i)' x_j / (sqrt(n) T) - correction
    of an n x T panel x, for the precision m and the lagged partial sums A x."""
    n, t = x.shape
    return float(np.sum(lagged_cumsum(x) * psi.apply(x))) / (math.sqrt(n) * t) - correction


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
    """Exact central sequences for a cell whose unit covariances share one base.

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
        self.k = loadings.shape[1]
        self.chol0 = cho_factor(sigma0, lower=True)
        self.lrv_eta = scales * _approx_lrv(sigma0)
        self.oslrv_eta = scales * _approx_oslrv(sigma0)
        self.lrv_f = np.full(self.k, _approx_lrv(sigma_f))
        inv0 = cho_solve(self.chol0, np.eye(self.t))
        inv_f = np.linalg.inv(sigma_f)
        a = (loadings.T / scales) @ loadings  # K x K of sum_i l_ki l_li / c_i
        inner = np.kron(np.eye(self.k), inv_f) + np.kron(a, inv0)
        self.chol_inner = cho_factor(inner, lower=True)

    def _d_inv(self, x_mat: np.ndarray) -> np.ndarray:
        """blockdiag(c_i Sigma0)^{-1} applied to a T x n arrangement."""
        return cho_solve(self.chol0, x_mat) / self.scales[None, :]

    def _full_inv(self, x_mat: np.ndarray) -> np.ndarray:
        """Full-covariance inverse applied to a T x n arrangement."""
        base = self._d_inv(x_mat)
        u_proj = (base @ self.loadings).T.reshape(-1)  # stacked K blocks of length T
        mid = cho_solve(self.chol_inner, u_proj).reshape(self.k, self.t)
        return base - self._d_inv(mid.T @ self.loadings.T)

    def exact_pair(self, x: np.ndarray, full: bool) -> tuple[float, float]:
        """(w' S^{-1} x / (sqrt(n) T), w' S^{-1} w / (n T^2)) for an n x T panel x with
        lagged partial sums w: S is the full covariance, or with full=False its
        block-diagonal idiosyncratic part."""
        n, t = x.shape
        solve = self._full_inv if full else self._d_inv
        w_mat = lagged_cumsum(x).T
        quad = float(np.sum(w_mat * solve(x.T)))
        info = float(np.sum(w_mat * solve(w_mat)))
        return quad / (math.sqrt(n) * t), info / (n * t * t)


def _moments(values: np.ndarray) -> tuple[float, float, float, float]:
    mean = float(np.mean(values))
    centered = values - mean
    var = float(np.mean(centered ** 2))
    if var <= 0.0:
        return mean, var, 0.0, 0.0
    skew = float(np.mean(centered ** 3)) / var ** 1.5
    kurt = float(np.mean(centered ** 4)) / var ** 2
    return mean, var, skew, kurt


def lan_convergence_report(sizes, seeds: int, base_seed: int = 0) -> list[dict]:
    """Simulate null panels over a size ladder and summarize the central sequences.

    Per size: draw loadings and lognormal variance scales once, then for each
    seed generate MA(1) factor and idiosyncratic innovations, evaluate every
    central-sequence variant exactly, and report moments plus the median
    absolute gaps between consecutive simplification steps.
    """
    rows: list[dict] = []
    if seeds <= 0:
        return rows
    mu, sigma2 = lognormal_heterogeneity_params(_RATIO)
    sig = innovation_scale(InnovationSpec(kind="ma1", parameter=_THETA))
    for size_index, (n, t) in enumerate(sizes):
        rng = np.random.default_rng(np.random.SeedSequence((base_seed, size_index, 0xC0FFEE)))
        loadings = rng.normal(1.0 / math.sqrt(_K), 1.0 / math.sqrt(_K), size=(n, _K))
        scales = rng.lognormal(mu, math.sqrt(sigma2), size=n)
        sigma0 = innovation_covariance("ma1", _THETA, t)  # factors share the unit base
        solver = _ScaledCellSolver(sigma0, scales, loadings, sigma0)

        correction = _correction(solver.oslrv_eta, solver.lrv_eta)
        inv_omega = 1.0 / solver.lrv_eta
        psi_eta = PrecisionMatrix(inv_omega)
        psi_smw = PrecisionMatrix(inv_omega, loadings, 1.0 / solver.lrv_f)
        psi_star = PrecisionMatrix(inv_omega, loadings)

        samples = {name: np.empty(seeds) for name in _REPORT_STATS}
        for rep in range(seeds):
            rep_rng = np.random.default_rng(
                np.random.SeedSequence((base_seed, size_index, 1, rep)))
            raw_f = rep_rng.standard_normal((_K, t + 1))
            raw_e = rep_rng.standard_normal((n, t + 1))
            f_innov = sig * (raw_f[:, 1:] + _THETA * raw_f[:, :-1])
            # under the null the idiosyncratic differences are the innovations
            de = (sig * np.sqrt(scales))[:, None] * (raw_e[:, 1:] + _THETA * raw_e[:, :-1])
            dy = loadings @ f_innov + de

            samples["delta_panic"][rep], samples["j_panic"][rep] = solver.exact_pair(de, full=False)
            samples["delta_mp"][rep], samples["j_mp"][rep] = solver.exact_pair(dy, full=True)
            samples["delta_simplified"][rep] = _simplified_delta(de, psi_eta, correction)
            samples["delta_mp_smw"][rep] = _simplified_delta(dy, psi_smw, correction)
            samples["delta_star"][rep] = _simplified_delta(dy, psi_star, correction)

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
