"""Principal-components estimation of loadings, factor-score differences, and residuals.

Everything operates on the differenced panel, arranged time-major as the
T' x n matrix X. Loadings are the leading eigenvectors of S = X'X / (n T'),
taken from whichever Gram matrix is smaller: S itself when n <= T', else
XX' / (n T') (the dual principal components of Bai and Ng), whose
eigenvectors u map back to X'u / |X'u|. Forming the Gram matrix costs
O(n T' min(n, T')), and no n x n array is formed when n > T'. With one factor
known, the leading eigenpair comes from power iteration, O(m^2) a step for
m = min(n, T'), and only the panels it leaves unresolved pay for a full
eigendecomposition, O(m^3). Any other known k takes its pairs from a full
eigendecomposition, and so does selection: its eigenvalues give IC_p2, its
leading vectors the fit. `select_num_factors` computes the eigenvalues alone.

`fit_stack` fits a stack of panels of one shape, R x n x T' unit-major: the
Gram products, the eigensolves, the back-transform and the residuals are
batched over the stack, and only IC_p2 loops over panels. `estimate_factors`
and `select_num_factors` are its one-panel case (R = 1), and every step is
per panel, so a panel's fit has the same bits in any stack. Every solve is
numpy's, so the analysis loads no scipy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    eigvals = _eigh(_second_moments(x), vectors=False)[0][0] if k_max > 0 else None
    return _select(eigvals, _mean_squares(x)[0], *x.shape[1:], k_max)


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
    if k is None:
        eigvals, eigvecs = _eigh(grams) if k_max > 0 else ([None] * len(x), None)
        picks = [_select(vals, total, n, tp, k_max)
                 for vals, total in zip(eigvals, _mean_squares(x))]
    else:
        if k < 0 or k > min(n, tp):
            raise DimensionError(f"k={k} outside 0..min(n={n}, T'={tp})")
        eigvecs = _eigen(grams, n, tp, k)[1] if k else None
        picks = [k] * len(x)
    chosen: dict = {}
    for r, kr in enumerate(picks):
        chosen.setdefault(kr, []).append(r)
    fits = {}
    for kr, rows in chosen.items():
        if kr == 0:
            empty = np.zeros((len(rows), n, 0))
            fit = (empty, empty, np.zeros((len(rows), tp, 0)), x[rows])
        else:
            fit = _fit_arrays(x[rows], np.ascontiguousarray(eigvecs[rows, :, :kr]))
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


def _select(eigvals: np.ndarray | None, total: float, n: int, tp: int, k_max: int) -> int:
    """IC_p2's factor count for one panel from its Gram matrix's eigenvalues in
    descending order (None when k_max is 0) and V(0) = total."""
    if k_max < 0 or k_max > min(n, tp):
        raise DimensionError(f"k_max={k_max} outside 0..min(n={n}, T'={tp})")
    if total <= 0.0:
        raise DataError("differenced panel is identically zero")
    penalty = (n + tp) / (n * tp) * np.log(min(n, tp))
    best_k, best_ic = 0, np.log(total)
    if k_max == 0:
        return best_k
    # V(k) = V(0) - sum of the k largest eigenvalues of X'X / (n T').
    eigvals = eigvals[:k_max]
    rank = int(np.count_nonzero(eigvals > _rank_tolerance(n, tp, eigvals[0])))
    running = float(total)
    for k in range(1, rank + 1):
        running -= eigvals[k - 1]
        vk = max(running, 1e-300)
        ic = np.log(vk) + k * penalty
        if ic < best_ic - 1e-12:
            best_k, best_ic = k, ic
    return best_k


# Power iteration takes a fixed number of steps, so that a panel's vector does not
# depend on its batch-mates. In the acceptance cell (lambda_2 / lambda_1 <= 0.09) 14
# steps pass the residual test, with residuals of about 0.02 m eps lambda_1.
_STEPS = 20


def _eigen(grams: np.ndarray, n: int, tp: int, k: int | None = None):
    """Eigenpairs of each Gram matrix in the stack grams (..., m, m), in descending
    order: all of them when k is None, else the k largest, (..., k) values and
    (..., m, k) unit vectors. A k above a panel's rank raises NumericalError.

    The pairs come from one batched `np.linalg.eigh`, but for k = 1, where power
    iteration (Golub and Van Loan, Matrix Computations, 4th ed., 8.2.1) gives the
    leading pair: _STEPS products with each Gram from one fixed start, a Rayleigh
    quotient, and `np.linalg.eigh` for the panels whose pair misses
    |G v - lambda v| <= m eps lambda. Each Gram is first scaled by the power of two
    that brings its largest diagonal entry into [1/2, 1), an exact step that keeps
    the products from overflowing or underflowing. The iteration converges as
    (lambda_2 / lambda_1)^_STEPS.
    """
    if k != 1:
        eigvals, eigvecs = _eigh(grams, k)
    else:
        m = grams.shape[-1]
        exponent = np.frexp(np.max(np.diagonal(grams, axis1=-2, axis2=-1), axis=-1))[1]
        scaled = np.ldexp(grams, -exponent[..., None, None])
        # A Gaussian start: no eigenvector is orthogonal to it but by chance, where
        # an all-ones start would miss loadings that sum to zero.
        v = np.random.default_rng(0).standard_normal((m, 1))
        with np.errstate(all="ignore"):  # a non-finite Gram fails the test below
            for _ in range(_STEPS):
                # Scaling keeps lambda_1 in [1/2, m], so no step needs normalizing.
                v = scaled @ v
            v = v / np.linalg.norm(v, axis=-2, keepdims=True)
            gv = scaled @ v
            rayleigh = (np.swapaxes(v, -1, -2) @ gv)[..., 0]
            residual = np.linalg.norm(gv - v * rayleigh[..., None, :], axis=-2)
            failed = ~(residual <= m * np.finfo(float).eps * rayleigh)[..., 0]
        eigvals, eigvecs = np.ldexp(rayleigh, exponent[..., None]), v
        if failed.any():
            eigvals[failed], eigvecs[failed] = _eigh(grams[failed], 1)
    if k is not None and np.any(eigvals[..., k - 1] <= _rank_tolerance(n, tp, eigvals[..., 0])):
        raise NumericalError(
            f"factor fit: k={k} exceeds the rank of the differenced panel "
            f"(eigenvalue {k} is zero to working precision)"
        )
    return eigvals, eigvecs


def _eigh(grams: np.ndarray, k: int | None = None, vectors: bool = True):
    """The k largest eigenvalues of each Gram matrix in the stack grams (all of them
    when k is None), descending, and their unit vectors (None when not vectors), from
    `np.linalg.eigh`, or `np.linalg.eigvalsh` for the values alone. A failure, or a
    value that is not finite, raises NumericalError."""
    m = grams.shape[-1]
    failure = NumericalError(f"factor fit: the eigensolver failed on the {m} x {m} "
                             "second-moment matrix")
    try:
        eigvals, eigvecs = np.linalg.eigh(grams) if vectors else (np.linalg.eigvalsh(grams), None)
    except np.linalg.LinAlgError as exc:
        raise failure from exc
    if not np.isfinite(eigvals).all():
        raise failure
    top = slice(None, None if k is None else -k - 1, -1)
    return eigvals[..., top], None if eigvecs is None else eigvecs[..., top]


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
