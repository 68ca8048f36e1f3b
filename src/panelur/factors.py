"""Principal-components estimation of loadings, factor-score differences, and residuals.

Everything operates on the differenced panel, arranged time-major as the
T' x n matrix X. Loadings are the leading eigenvectors of S = X'X / (n T'),
taken from whichever Gram matrix is smaller: S itself when n <= T', else
XX' / (n T') (the dual principal components of Bai and Ng), whose
eigenvectors u map back to X'u / |X'u|. Forming the Gram matrix costs
O(n T' min(n, T')), and no n x n array is formed when n > T'. Its reduction
to tridiagonal form costs O(m^3), m = min(n, T'); the fit then computes only
its k leading eigenpairs and back-transforms only those k vectors, where a
full eigendecomposition would take all m. Selection needs eigenvalues only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .errors import DataError, DimensionError, NumericalError
from .panel import DiffPanel

__all__ = ["FactorFit", "estimate_factors", "select_num_factors"]


@dataclass(frozen=True)
class FactorFit:
    """Result of a principal-components fit at a fixed number of factors.

    loadings_bar holds sqrt(n)-scaled orthonormal eigenvectors, loadings_hat
    the second-moment matrix S times loadings_bar; residuals are the
    idiosyncratic difference residuals (unit-major).
    """

    loadings_bar: np.ndarray
    loadings_hat: np.ndarray
    factor_diffs: np.ndarray
    residuals: DiffPanel
    k: int


def estimate_factors(d: DiffPanel, k: int) -> FactorFit:
    """Fit k factors to a differenced panel by principal components.

    The k leading eigenvectors of S = X'X / (n (T-1)), with X the time-major
    (T-1) x n arrangement, are scaled by sqrt(n); residuals are the
    projection of X onto their orthogonal complement. Each eigenvector is
    sign-normalized so its largest-magnitude entry is positive.

    k = 0 is the degenerate no-factor fit: empty loadings, residuals equal
    to the input differences. A k above the rank of the differenced panel
    raises NumericalError.
    """
    n, tp = d.values.shape
    if k < 0 or k > min(n, tp):
        raise DimensionError(f"k={k} outside 0..min(n={n}, T'={tp})")
    if k == 0:
        return FactorFit(
            loadings_bar=np.zeros((n, 0)),
            loadings_hat=np.zeros((n, 0)),
            factor_diffs=np.zeros((tp, 0)),
            residuals=d,
            k=0,
        )
    x = d.values.T  # (T-1) x n, time-major
    loadings_bar = np.sqrt(n) * _principal_components(x, k)[1]
    factor_diffs = x @ loadings_bar / n
    loadings_hat = x.T @ factor_diffs / tp  # = S @ loadings_bar
    resid = x - factor_diffs @ loadings_bar.T
    return FactorFit(
        loadings_bar=loadings_bar,
        loadings_hat=loadings_hat,
        factor_diffs=factor_diffs,
        residuals=DiffPanel(resid.T),
        k=k,
    )


def select_num_factors(d: DiffPanel, k_max: int) -> int:
    """Select the factor count in 0..k_max by the IC_p2 information criterion.

    IC(k) = log V(k) + k ((n + T') / (n T')) log(min(n, T')), with V(k) the
    mean squared residual at k factors and V(0) the raw mean square of the
    differences. Ties break toward fewer factors. The search stops at the rank that
    `estimate_factors` guards: beyond it V(k) is rounding noise, whose log would win.
    """
    n, tp = d.values.shape
    if k_max < 0 or k_max > min(n, tp):
        raise DimensionError(f"k_max={k_max} outside 0..min(n={n}, T'={tp})")
    x = d.values.T
    total = float(np.mean(x * x))
    if total <= 0.0:
        raise DataError("differenced panel is identically zero")
    penalty = (n + tp) / (n * tp) * np.log(min(n, tp))
    best_k, best_ic = 0, np.log(total)
    if k_max == 0:
        return best_k
    # V(k) = V(0) - sum of the k largest eigenvalues of X'X / (n T').
    eigvals = _principal_components(x, k_max, vectors=False)[0]
    rank = int(np.count_nonzero(eigvals > _rank_tolerance(n, tp, eigvals[0])))
    running = total
    for k in range(1, rank + 1):
        running -= eigvals[k - 1]
        vk = max(running, 1e-300)
        ic = np.log(vk) + k * penalty
        if ic < best_ic - 1e-12:
            best_k, best_ic = k, ic
    return best_k


def _principal_components(x: np.ndarray, k: int, vectors: bool = True):
    """The k largest eigenvalues of S = X'X / (n T') in descending order and, with
    vectors, its k leading unit eigenvectors (n x k, largest-magnitude entry of each
    positive), else None.

    X is the time-major T' x n difference matrix. The eigenproblem is solved on the
    smaller of S and XX' / (n T'); the two share their nonzero eigenvalues. With
    vectors, LAPACK's ?syevr computes only the k leading eigenpairs, and a k above
    the rank raises NumericalError. Without, it computes the whole spectrum without
    vectors: for the k_max = 6 that selection uses, bisection for the k largest
    eigenvalues alone takes longer than the root-free QR for all of them.
    """
    tp, n = x.shape
    primal = n <= tp
    gram = (x.T @ x if primal else x @ x.T) / (n * tp)
    m = gram.shape[0]
    if vectors:
        eigvals, eigvecs, _, _, info = lapack.dsyevr(gram, range="I", lower=1,
                                                     il=m - k + 1, iu=m)
    else:
        eigvals, eigvecs, _, _, info = lapack.dsyevr(gram, compute_v=0, lower=1)
    if info != 0:
        raise NumericalError(f"factor fit: the eigensolver failed on the {m} x {m} "
                             f"second-moment matrix (LAPACK ?syevr info={info})")
    if not vectors:
        return eigvals[::-1][:k], None
    eigvals = eigvals[k - 1::-1]
    if eigvals[k - 1] <= _rank_tolerance(n, tp, eigvals[0]):
        raise NumericalError(
            f"factor fit: k={k} exceeds the rank of the differenced panel "
            f"(eigenvalue {k} is zero to working precision)"
        )
    vecs = eigvecs[:, ::-1]
    if not primal:
        vecs = x.T @ vecs
        vecs /= np.linalg.norm(vecs, axis=0)
    # Sign convention: largest-magnitude entry of each eigenvector positive.
    anchor = np.argmax(np.abs(vecs), axis=0)
    signs = np.sign(vecs[anchor, np.arange(k)])
    signs[signs == 0] = 1.0
    return eigvals, vecs * signs


def _rank_tolerance(n: int, tp: int, largest: float) -> float:
    """Eigenvalues of S at or below this are zero to working precision."""
    return max(n, tp) * np.finfo(float).eps * largest
