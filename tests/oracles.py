"""Reference implementations the tests compare the package against."""

import math

import numpy as np

from panelur.errors import DimensionError
from panelur.factors import FactorFit
from panelur.lrv import LrvSet
from panelur.panel import DiffPanel
from panelur.statistics import UmpIntermediates


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
