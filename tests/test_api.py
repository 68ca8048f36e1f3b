"""The public API holds exactly the names a user calls; test-only oracles stay out."""

import panelur

PUBLIC = """
FISHER_INFORMATION PowerCurve emit_power_curve local_power_mp_bn power_envelope
DgpConfig InnovationSpec SimulatedPanel innovation_scale local_rho
lognormal_heterogeneity_params simulate DataError DimensionError NumericalError
FactorFit estimate_factors select_num_factors
Experiment ResultRow power_figure_data replication_seed run LrvConfig LrvSet estimate_lrv_set
innovation_covariance lan_convergence_report DiffPanel Panel difference lagged_cumsum
Analysis PrecisionMatrix TestOutcome UmpIntermediates analyze bn_statistics bn_tests mp_tests
precision_matrix t_ump t_ump_emp ump_statistics
""".split()


def test_public_names_pinned_and_resolve():
    assert sorted(panelur.__all__) == sorted(PUBLIC)
    for name in PUBLIC:
        assert getattr(panelur, name) is not None, name
