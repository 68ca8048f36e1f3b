"""Exception types shared across the package.

The CLI maps these onto exit codes: usage errors are handled by argparse,
DataError (and plain ValueError, and an OSError on a path) exit with 2,
NumericalError (and numpy's LinAlgError) with 3.
"""


class DataError(ValueError):
    """Malformed, inconsistent, or out-of-domain input data."""


class DimensionError(DataError):
    """Array shapes incompatible with the requested operation."""


class NumericalError(RuntimeError):
    """A numerically degenerate situation (singular matrix, zero denominator)."""
