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

`fit_stack` fits a stack of panels of one shape, R x n x T' unit-major: the
Gram products, the back-transform and the residuals are batched matmuls
over the stack, and only the eigensolves run panel by panel. Selection
reads the eigenvalues of the Gram matrix the fit then solves for vectors.
`estimate_factors` and `select_num_factors` are its one-panel case (R = 1),
and every step is per panel, so a panel's fit has the same bits in any stack.
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
    (_, loadings_bar, loadings_hat, factor_diffs, resid), = fit_stack(d.values[None], k).values()
    return FactorFit(
        loadings_bar=loadings_bar[0],
        loadings_hat=loadings_hat[0],
        factor_diffs=factor_diffs[0],
        residuals=d if k == 0 else DiffPanel(resid[0]),
        k=k,
    )


def select_num_factors(d: DiffPanel, k_max: int) -> int:
    """Select the factor count in 0..k_max by the IC_p2 information criterion.

    IC(k) = log V(k) + k ((n + T') / (n T')) log(min(n, T')), with V(k) the
    mean squared residual at k factors and V(0) the raw mean square of the
    differences. Ties break toward fewer factors. The search stops at the rank that
    `estimate_factors` guards: beyond it V(k) is rounding noise, whose log would win.
    """
    x = d.values[None]
    return _select(_second_moments(x)[0], _mean_squares(x)[0], *x.shape[1:], k_max)


def fit_stack(x: np.ndarray, k: int | None, k_max: int = 0) -> dict:
    """Principal-components fits to a stack of R differenced n x T' panels (R x n x T').

    With k None each panel's factor count is selected by IC_p2 over
    0..k_max. Returns {k: (rows, loadings_bar, loadings_hat, factor_diffs,
    residuals)}: the panels fitted with k factors, by their rows in x, with
    their results stacked in that order. Raises the DataError or
    NumericalError of the first panel whose selection or fit fails, and a
    DataError when a fit's residuals are not finite (an overflowing fit).
    """
    n, tp = x.shape[1:]
    grams = _second_moments(x)
    totals = _mean_squares(x) if k is None else None
    chosen: dict = {}
    for r, gram in enumerate(grams):
        kr = k if k is not None else _select(gram, totals[r], n, tp, k_max)
        if kr < 0 or kr > min(n, tp):
            raise DimensionError(f"k={kr} outside 0..min(n={n}, T'={tp})")
        chosen.setdefault(kr, []).append((r, _eigen(gram, n, tp, kr)[1] if kr else None))
    fits = {}
    for kr, picked in chosen.items():
        rows = [r for r, _ in picked]
        if kr == 0:
            empty = np.zeros((len(rows), n, 0))
            fit = (empty, empty, np.zeros((len(rows), tp, 0)), x[rows])
        else:
            fit = _fit_arrays(x[rows], np.stack([v for _, v in picked]))
        if not np.isfinite(fit[3]).all():
            raise DataError("difference values contains non-finite entries")
        fits[kr] = (rows, *fit)
    return fits


def _second_moments(x: np.ndarray) -> np.ndarray:
    """The smaller Gram matrix of each unit-major n x T' panel in the stack x, over n T':
    S = X'X / (n T') when n <= T', else XX' / (n T') (X time-major)."""
    n, tp = x.shape[-2:]
    xt = np.swapaxes(x, -1, -2)
    return (x @ xt if n <= tp else xt @ x) / (n * tp)


def _mean_squares(x: np.ndarray) -> np.ndarray:
    """V(0), the mean square of each panel in the stack x."""
    return np.mean(x * x, axis=(-2, -1))


def _select(gram: np.ndarray, total: float, n: int, tp: int, k_max: int) -> int:
    """IC_p2's factor count for one panel from its Gram matrix and V(0) = total."""
    if k_max < 0 or k_max > min(n, tp):
        raise DimensionError(f"k_max={k_max} outside 0..min(n={n}, T'={tp})")
    if total <= 0.0:
        raise DataError("differenced panel is identically zero")
    penalty = (n + tp) / (n * tp) * np.log(min(n, tp))
    best_k, best_ic = 0, np.log(total)
    if k_max == 0:
        return best_k
    # V(k) = V(0) - sum of the k largest eigenvalues of X'X / (n T').
    eigvals = _eigen(gram, n, tp)[0][:k_max]
    rank = int(np.count_nonzero(eigvals > _rank_tolerance(n, tp, eigvals[0])))
    running = float(total)
    for k in range(1, rank + 1):
        running -= eigvals[k - 1]
        vk = max(running, 1e-300)
        ic = np.log(vk) + k * penalty
        if ic < best_ic - 1e-12:
            best_k, best_ic = k, ic
    return best_k


def _eigen(gram: np.ndarray, n: int, tp: int, k: int | None = None):
    """Eigenvalues of one panel's Gram matrix in descending order: all of them when k
    is None, else the k largest with their unit eigenvectors (m x k, C-ordered).

    LAPACK's ?syevr computes only the k leading eigenpairs, and a k above the rank
    raises NumericalError. For the eigenvalues alone it computes the whole spectrum
    without vectors: for the k_max = 6 that selection uses, bisection for the k
    largest eigenvalues alone takes longer than the root-free QR for all of them.
    """
    m = gram.shape[0]
    if k is None:
        eigvals, eigvecs, _, _, info = lapack.dsyevr(gram, compute_v=0, lower=1)
    else:
        eigvals, eigvecs, _, _, info = lapack.dsyevr(gram, range="I", lower=1,
                                                     il=m - k + 1, iu=m)
    if info != 0:
        raise NumericalError(f"factor fit: the eigensolver failed on the {m} x {m} "
                             f"second-moment matrix (LAPACK ?syevr info={info})")
    if k is None:
        return eigvals[::-1], None
    eigvals = eigvals[k - 1::-1]
    if eigvals[k - 1] <= _rank_tolerance(n, tp, eigvals[0]):
        raise NumericalError(
            f"factor fit: k={k} exceeds the rank of the differenced panel "
            f"(eigenvalue {k} is zero to working precision)"
        )
    return eigvals, np.ascontiguousarray(eigvecs[:, ::-1])


def _fit_arrays(x: np.ndarray, vecs: np.ndarray) -> tuple:
    """(loadings_bar, loadings_hat, factor_diffs, residuals) of a stack of panels x from
    the k leading unit eigenvectors of their Gram matrices (R x m x k).

    A dual vector u maps to X'u / |X'u|; each vector's largest-magnitude entry is
    made positive.
    """
    n, tp = x.shape[-2:]
    xt = np.swapaxes(x, -1, -2)
    if n > tp:
        vecs = x @ vecs
        vecs /= np.linalg.norm(vecs, axis=-2, keepdims=True)
    anchor = np.argmax(np.abs(vecs), axis=-2)[..., None, :]
    signs = np.sign(np.take_along_axis(vecs, anchor, axis=-2))
    signs[signs == 0] = 1.0
    loadings_bar = np.sqrt(n) * (vecs * signs)
    factor_diffs = xt @ loadings_bar / n
    loadings_hat = x @ factor_diffs / tp  # = S @ loadings_bar
    resid = x - loadings_bar @ np.swapaxes(factor_diffs, -1, -2)
    return loadings_bar, loadings_hat, factor_diffs, resid


def _rank_tolerance(n: int, tp: int, largest: float) -> float:
    """Eigenvalues of S at or below this are zero to working precision."""
    return max(n, tp) * np.finfo(float).eps * largest
