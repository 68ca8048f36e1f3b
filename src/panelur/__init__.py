"""Panel unit-root testing under cross-sectional dependence via unobserved factors.

The package provides the optimal pooled tests and the classical pooled
autoregression tests, principal-components factor estimation, kernel
long-run variance estimation, a two-framework panel simulator, a Monte
Carlo harness, and the LAN convergence report that checks the two
frameworks share one central sequence. `__all__` lists what a user calls;
the exact per-panel oracles the tests compare against live in the test
suite.
"""

__version__ = "0.1.0"

from .asymptotics import (FISHER_INFORMATION, PowerCurve, emit_power_curve,
                          local_power_mp_bn, power_envelope)
from .dgp import (DgpConfig, InnovationSpec, SimulatedPanel, innovation_scale,
                  local_rho, lognormal_heterogeneity_params, simulate)
from .errors import DataError, DimensionError, NumericalError
from .factors import FactorFit, estimate_factors, select_num_factors
from .harness import Experiment, ResultRow, power_figure_data, replication_seed, run
from .lrv import LrvConfig, LrvSet, estimate_lrv_set
from .oracle import innovation_covariance, lan_convergence_report
from .panel import DiffPanel, Panel, difference, lagged_cumsum
from .statistics import (Analysis, PrecisionMatrix, TestOutcome, UmpIntermediates, analyze,
                         bn_tests, mp_tests, precision_matrix, t_ump, t_ump_emp, ump_statistics)

__all__ = [
    "FISHER_INFORMATION", "PowerCurve", "emit_power_curve", "local_power_mp_bn",
    "power_envelope",
    "DgpConfig", "InnovationSpec", "SimulatedPanel", "innovation_scale", "local_rho",
    "lognormal_heterogeneity_params", "simulate",
    "DataError", "DimensionError", "NumericalError",
    "FactorFit", "estimate_factors", "select_num_factors",
    "Experiment", "ResultRow", "power_figure_data", "replication_seed", "run",
    "LrvConfig", "LrvSet", "estimate_lrv_set",
    "innovation_covariance", "lan_convergence_report",
    "DiffPanel", "Panel", "difference", "lagged_cumsum",
    "Analysis", "PrecisionMatrix", "TestOutcome", "UmpIntermediates", "analyze",
    "bn_tests", "mp_tests", "precision_matrix", "t_ump", "t_ump_emp", "ump_statistics",
]
