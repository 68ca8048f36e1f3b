"""Core panel containers and the deterministic series transforms shared by all modules.

Panels are stored unit-major (one row per unit): every statistic downstream
iterates over units first, then time. All values are float64 and immutable
after construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, DimensionError

__all__ = ["Panel", "DiffPanel", "difference", "lagged_cumsum", "ar_recursion"]


def _as_float_matrix(values, what: str) -> np.ndarray:
    arr = np.array(values, dtype=float)  # copy: the container freezes its buffer
    if arr.ndim != 2:
        raise DimensionError(f"{what} must be a 2-d array, got ndim={arr.ndim}")
    if not np.all(np.isfinite(arr)):
        raise DataError(f"{what} contains non-finite entries")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Panel:
    """A balanced n x T panel of observations with unit and time labels."""

    values: np.ndarray
    unit_ids: tuple = field(default=None)  # type: ignore[assignment]
    time_ids: tuple = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        arr = _as_float_matrix(self.values, "panel values")
        n, t = arr.shape
        if n < 1 or t < 2:
            raise DimensionError(f"panel needs n >= 1 and T >= 2, got {n} x {t}")
        units = tuple(range(n)) if self.unit_ids is None else tuple(self.unit_ids)
        times = tuple(range(t)) if self.time_ids is None else tuple(self.time_ids)
        if len(units) != n:
            raise DimensionError(f"{len(units)} unit labels for {n} rows")
        if len(times) != t:
            raise DimensionError(f"{len(times)} time labels for {t} columns")
        if len(set(units)) != n:
            raise DataError("duplicate unit labels")
        if len(set(times)) != t:
            raise DataError("duplicate time labels")
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "unit_ids", units)
        object.__setattr__(self, "time_ids", times)

    @property
    def n_units(self) -> int:
        return self.values.shape[0]

    @property
    def n_periods(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class DiffPanel:
    """First differences of a Panel: n rows, T-1 columns."""

    values: np.ndarray

    def __post_init__(self):
        arr = _as_float_matrix(self.values, "difference values")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise DimensionError(f"difference panel must be nonempty, got {arr.shape}")
        object.__setattr__(self, "values", arr)

    @property
    def n_units(self) -> int:
        return self.values.shape[0]

    @property
    def n_periods(self) -> int:
        return self.values.shape[1]


def _diff_view(values: np.ndarray) -> DiffPanel:
    """A DiffPanel over values, a read-only finite float array made inside the package:
    no copy and no check, for the per-panel views of a stacked array."""
    panel = object.__new__(DiffPanel)
    object.__setattr__(panel, "values", values)
    return panel


def difference(p: Panel) -> DiffPanel:
    """First-difference a panel along time: out[i, t] = p[i, t+1] - p[i, t]."""
    if p.n_periods < 2:
        raise DimensionError("differencing needs at least two periods")
    return DiffPanel(np.diff(p.values, axis=1))


def lagged_cumsum(x: np.ndarray) -> np.ndarray:
    """Lagged partial sums along the last axis: out[..., t] = sum_{s < t} x[..., s].

    The first column is zero (zero starting value). Row by row this is the
    strictly lower-triangular matrix of ones applied to the row.
    """
    out = np.zeros_like(x)
    np.cumsum(x[..., :-1], axis=-1, out=out[..., 1:])
    return out


def ar_recursion(u: np.ndarray, coef, start=0.0) -> np.ndarray:
    """x_t = coef * x_{t-1} + u_t along the last axis of an n x T array.

    coef is a scalar or one coefficient per row; start is x_{-1}, zero by
    default. Returns a new C-ordered n x T array; u is never written.

    The recursion is sequential in t, so its cost is T Python-level steps
    (about 0.5 us each for small n on a 2 vCPU x86_64 VM) plus two n x T
    transposed copies. The steps run on a time-major copy: each is two
    in-place ufuncs over one contiguous row of n values, with no new buffer,
    and gives the same bits as coef * x_{t-1} + u_t column by column.
    """
    levels = np.array(u.T, dtype=float, order="C")  # a copy even for Fortran-ordered u
    scaled = np.empty(levels.shape[1:])
    coef = np.broadcast_to(coef, scaled.shape)
    multiply, add = np.multiply, np.add  # the loop body is all call overhead
    prev = start
    for row in levels:
        multiply(coef, prev, scaled)
        add(scaled, row, row)
        prev = row
    return np.ascontiguousarray(levels.T)
