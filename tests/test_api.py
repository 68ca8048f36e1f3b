"""The public API holds exactly the names a user calls; test-only oracles stay out."""

import importlib
import importlib.util
import sys
from pathlib import Path

import panelur

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"

PUBLIC = """
FISHER_INFORMATION PowerCurve emit_power_curve local_power_mp_bn power_envelope
DgpConfig InnovationSpec SimulatedPanel innovation_scale local_rho
lognormal_heterogeneity_params simulate DataError DimensionError NumericalError
FactorFit estimate_factors select_num_factors
Experiment ResultRow power_figure_data replication_seed run LrvConfig LrvSet estimate_lrv_set
innovation_covariance lan_convergence_report DiffPanel Panel difference lagged_cumsum
Analysis PrecisionMatrix TestOutcome UmpIntermediates analyze bn_tests mp_tests
precision_matrix t_ump t_ump_emp ump_statistics
""".split()


def test_public_names_pinned_and_resolve():
    assert sorted(panelur.__all__) == sorted(PUBLIC)
    for name in PUBLIC:
        assert getattr(panelur, name) is not None, name


def test_traced_names_resolve(monkeypatch):
    # The benchmark's tracer looks up each "<module>.<function>" it traces; a
    # removed or renamed one would stop `bench/run.py --trace 1` with an
    # AttributeError. The tracer module is loaded without writing bytecode.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TRACED
    for name in spans.TRACED:
        module, attr = name.split(".")
        assert callable(getattr(importlib.import_module(f"panelur.{module}"), attr, None)), name
