"""Closed-form asymptotic local power functions and the power envelope.

The envelope for the one-sided unit-root problem is
Phi(Phi^{-1}(alpha) + |h| / sqrt(2)); the pooled-autoregression tests reach
Phi(Phi^{-1}(alpha) + ratio |h| / sqrt(2)) where ratio = sqrt(omega^4/phi^4)
measures long-run variance homogeneity (1 = homogeneous, optimal).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .statistics import check_alpha

__all__ = [
    "FISHER_INFORMATION",
    "PowerCurve",
    "power_envelope",
    "local_power_mp_bn",
    "emit_power_curve",
]

# Limiting variance scale of the central sequence in either framework.
FISHER_INFORMATION = 0.5


@dataclass(frozen=True)
class PowerCurve:
    """Envelope and MP/BN local power over a grid of |h| values."""

    alpha: float
    h_grid: np.ndarray
    envelope: np.ndarray
    local_power: np.ndarray
    ratio: float


def _power(alpha: float, h_abs, ratio: float):
    """Phi(Phi^{-1}(alpha) + ratio |h| / sqrt(2)), elementwise over h_abs, after
    the domain checks; ratio 1 gives the envelope."""
    check_alpha(alpha)
    if not 0.0 < ratio <= 1.0:
        raise ValueError(f"ratio must lie in (0, 1], got {ratio}")
    if np.any(np.asarray(h_abs) < 0.0):
        raise ValueError("h_abs must be nonnegative")
    return ndtr(ndtri(alpha) + ratio * h_abs / math.sqrt(2.0))


def power_envelope(alpha: float, h_abs: float) -> float:
    """Maximal attainable asymptotic local power at deviation |h|."""
    return float(_power(alpha, h_abs, 1.0))


def local_power_mp_bn(alpha: float, h_abs: float, ratio: float) -> float:
    """Asymptotic local power of the pooled MP and BN tests at deviation |h|."""
    return float(_power(alpha, h_abs, ratio))


def emit_power_curve(alpha: float, h_grid, ratio: float) -> PowerCurve:
    """Evaluate both power series over a sorted, nonnegative grid of |h|."""
    grid = np.asarray(h_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("h grid must be a nonempty 1-d sequence")
    if np.any(np.diff(grid) < 0.0):
        raise ValueError("h grid must be sorted ascending")
    return PowerCurve(alpha=alpha, h_grid=grid, envelope=_power(alpha, grid, 1.0),
                      local_power=_power(alpha, grid, ratio), ratio=ratio)
