"""Reference implementations the tests compare the package against."""

import math

import numpy as np

from panelur.errors import DimensionError
from panelur.lrv import LrvSet
from panelur.panel import DiffPanel
from panelur.statistics import PrecisionMatrix, UmpIntermediates


def cumsum_matrix(t: int) -> np.ndarray:
    """The T x T strictly lower-triangular matrix of ones.

    Premultiplying a difference vector by it produces lagged partial sums
    (zero starting values). Satisfies A + A' = ones - I.
    """
    if t < 1:
        raise DimensionError("cumsum_matrix needs T >= 1")
    return np.tril(np.ones((t, t)), k=-1)


def ump_statistics_naive(d: DiffPanel, psi: PrecisionMatrix, lrvs: LrvSet) -> UmpIntermediates:
    """Literal double-loop evaluation of the pooled sums; oracle for the fast path."""
    x = d.values
    n, tp = x.shape
    if tp < 2:
        raise DimensionError("need at least two difference columns")
    psi_m = psi.matrix
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
