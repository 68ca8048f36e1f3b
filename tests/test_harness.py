"""Monte Carlo harness: determinism, seeding, parallel equivalence, aggregation."""

import dataclasses
import os
import resource
import subprocess
import sys
from concurrent.futures import Future

import numpy as np
import pytest

from panelur import (DataError, Experiment, LrvConfig, NumericalError, Panel, analyze, harness,
                     power_figure_data, replication_seed, run, simulate, statistics)
from panelur.harness import RESULT_COLUMNS, WORKERS_ENV_VAR, _cell_config, run_single
from panelur.statistics import TEST_NAMES

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
needs_openblas = pytest.mark.skipif(not harness._openblas_controls(),
                                    reason="no OpenBLAS library loaded")
needs_glibc = pytest.mark.skipif(not os.confstr("CS_GNU_LIBC_VERSION"), reason="not glibc")


def _experiment(**kw):
    base = dict(frameworks=("PANIC",), sizes=((15, 30),), ratios=(0.8,),
                innovations=("iid",), h_values=(0.0,), k=1, k_known=True,
                replications=20, base_seed=11,
                lrv_cfg=LrvConfig(prewhiten=False),
                tests=("t_ump", "t_ump_emp", "p_b"))
    base.update(kw)
    return Experiment(**base)


def _rates(rows):
    return {(r.framework, r.h, r.test): r.rejection_rate for r in rows}


def _must_not_run(*args):
    raise AssertionError("a replication ran")


def _openblas_threads():
    return max(get_threads() for _, get_threads in harness._openblas_controls())


class _FakeOpenblas:
    """A thread-count setter and getter pair that records the setter's calls."""

    def __init__(self, threads):
        self.threads = threads
        self.calls = []

    def set(self, threads):
        self.calls.append(threads)
        self.threads = threads

    def get(self):
        return self.threads


def _one_thread_chunk(exp, cell, start, stop):
    """Stands in for `_run_chunk` in pool workers: one success that rejects every
    test exactly when the worker runs OpenBLAS at one thread and has no OpenBLAS
    pool threads, that is, the process has a single OS thread."""
    single = _openblas_threads() == 1 and len(os.listdir("/proc/self/task")) == 1
    return cell, {name: int(single) for name in exp.tests}, 1, 0


class TestSeeding:
    def test_framework_free_and_stable(self):
        a = replication_seed(1, 50, 100, 0.8, "iid", "gaussian", 0.0, 7)
        b = replication_seed(1, 50, 100, 0.8, "iid", "gaussian", 0.0, 7)
        assert a == b
        assert 0 <= a < 2 ** 64
        # any coordinate change moves the seed
        assert a != replication_seed(1, 50, 100, 0.8, "iid", "gaussian", 0.0, 8)
        assert a != replication_seed(2, 50, 100, 0.8, "iid", "gaussian", 0.0, 7)
        assert a != replication_seed(1, 50, 100, 0.6, "iid", "gaussian", 0.0, 7)
        assert a != replication_seed(1, 50, 100, 0.8, "ma1", "gaussian", 0.0, 7)


class TestRun:
    def test_deterministic_rerun(self):
        exp = _experiment(replications=10)
        assert _rates(run(exp, workers=1)) == _rates(run(exp, workers=1))

    def test_worker_count_independence(self):
        exp = _experiment(replications=24)
        assert _rates(run(exp, workers=1)) == _rates(run(exp, workers=2))

    def test_worker_count_independence_with_prewhitening_qs_and_k_selected(self):
        exp = _experiment(replications=24, innovations=("ar1",), h_values=(0.0, -5.0),
                          k_known=False, tests=TEST_NAMES,
                          lrv_cfg=LrvConfig(kernel="quadratic_spectral", prewhiten=True))
        assert _rates(run(exp, workers=1)) == _rates(run(exp, workers=2))

    def test_batch_results_do_not_depend_on_batch_mates(self):
        exp = _experiment(innovations=("ma1",), k_known=False, tests=TEST_NAMES,
                          lrv_cfg=LrvConfig(kernel="quadratic_spectral", prewhiten=True))
        cell = exp.cells()[0]
        whole = harness._replications(exp, cell, range(6))
        assert whole == [run_single(exp, cell, rep) for rep in range(6)]
        assert whole[2:5] == harness._replications(exp, cell, range(2, 5))

    def test_one_singular_replication_is_one_error(self, monkeypatch):
        # Replication 1 gets a unit that moves only in its last period: its
        # Hannan-Rissanen design is singular, which fails the stacked LRV pass.
        exp = _experiment(replications=5, k=0, tests=TEST_NAMES,
                          lrv_cfg=LrvConfig(prewhiten=True))
        cell = exp.cells()[0]
        faulty_seed = _cell_config(exp, cell, 1).seed
        original = harness.simulate_many

        def breaking(configs):
            sims = original(configs)
            for i, cfg in enumerate(configs):
                if cfg.seed == faulty_seed:
                    values = sims[i].panel.values.copy()
                    values[3] = 0.0
                    values[3, -1] = 1.0
                    sims[i] = dataclasses.replace(sims[i], panel=Panel(values))
            return sims

        monkeypatch.setattr(harness, "simulate_many", breaking)
        assert harness._plan(exp, 1)[1][0] == (cell, 0, 2)   # replications 0 and 1 share a batch
        with pytest.raises(NumericalError, match=r"LRV prewhitening.*unit\(s\) \[3\]"):
            run_single(exp, cell, 1)
        others = [run_single(exp, cell, rep) for rep in (0, 2, 3, 4)]
        rows = run(exp, workers=1)
        for row in rows:
            assert row.errors == 1 and row.replications == 4
            assert round(row.rejection_rate * 4) == sum(f[row.test] for f in others)

    def test_framework_equivalence_under_null(self):
        exp = _experiment(frameworks=("MP", "PANIC"), replications=40)
        rates = _rates(run(exp, workers=2))
        for test in exp.tests:
            assert rates[("MP", 0.0, test)] == rates[("PANIC", 0.0, test)]

    def test_row_fields_match_schema(self):
        rows = run(_experiment(replications=3), workers=1)
        for row in rows:
            rec = row.as_dict()
            assert tuple(rec.keys()) == RESULT_COLUMNS
            assert rec["errors"] == 0
            assert rec["replications"] == 3

    def test_mc_std_err_formula(self):
        rows = run(_experiment(replications=25), workers=1)
        for row in rows:
            r = row.rejection_rate
            assert row.mc_std_err == pytest.approx(np.sqrt(r * (1 - r) / 25), abs=1e-12)

    def test_errors_counted_not_fatal(self):
        # T = 3 leaves a single usable difference column: the studentized
        # statistic degenerates and must be recorded as an error.
        exp = _experiment(sizes=((5, 3),), replications=4, tests=("t_ump_emp",))
        rows = run(exp, workers=1)
        assert rows[0].errors == 4
        assert rows[0].replications == 0
        assert np.isnan(rows[0].rejection_rate)

    @pytest.mark.parametrize("error", [DataError, NumericalError, np.linalg.LinAlgError])
    def test_numerical_failures_counted(self, monkeypatch, error):
        def degenerate(*args, **kwargs):
            raise error("degenerate replication")

        monkeypatch.setattr(harness, "analyze_many", degenerate)
        rows = run(_experiment(replications=3), workers=1)
        assert all(r.errors == 3 and r.replications == 0 for r in rows)

    @pytest.mark.parametrize("error", [ValueError, RecursionError, ZeroDivisionError])
    def test_programming_bug_stops_run(self, monkeypatch, error):
        def broken(*args, **kwargs):
            raise error("operands could not be broadcast together")

        monkeypatch.setattr(harness, "analyze_many", broken)
        with pytest.raises(error, match="broadcast"):
            run(_experiment(replications=3), workers=1)

    def test_never_more_workers_than_tasks(self, monkeypatch):
        sizes = []

        class InlinePool:
            def __init__(self, max_workers, initializer):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(harness, "ProcessPoolExecutor", InlinePool)
        exp = _experiment(replications=2)   # one cell: 2 tasks at any worker count
        serial = _rates(run(exp, workers=1))
        assert _rates(run(exp, workers=16)) == serial
        monkeypatch.setenv(WORKERS_ENV_VAR, "64")
        assert _rates(run(exp)) == serial
        assert sizes == [2, 2]
        assert harness.worker_count(exp, 16) == 2
        run(_experiment(replications=1), workers=16)   # a single task runs in-process
        assert sizes == [2, 2]

    @pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5"])
    def test_workers_env_must_be_positive_integer(self, monkeypatch, value):
        monkeypatch.setenv(WORKERS_ENV_VAR, value)
        with pytest.raises(DataError, match=f"{WORKERS_ENV_VAR} must be a positive integer, "
                                            f"got '{value}'"):
            harness.worker_count(_experiment())

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_argument_must_be_positive(self, monkeypatch, workers):
        monkeypatch.setattr(harness, "_run_chunk", _must_not_run)
        with pytest.raises(DataError, match=f"workers must be a positive integer, got {workers}"):
            run(_experiment(), workers=workers)
        with pytest.raises(DataError, match="workers must be a positive integer"):
            harness.worker_count(_experiment(), workers)

    def test_workers_env_positive_integer_taken(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "3")
        assert harness.worker_count(_experiment(replications=100)) == 3

    def test_grid_validation(self):
        with pytest.raises(DataError):
            _experiment(tests=("nope",))
        with pytest.raises(DataError):
            _experiment(h_values=())
        with pytest.raises(DataError):
            _experiment(replications=0)
        for alpha in (0.0, 1.0, 1.5):
            with pytest.raises(DataError):
                _experiment(alpha=alpha)


class TestBlasThreads:
    @pytest.fixture(autouse=True)
    def no_user_setting(self, monkeypatch):
        for name in BLAS_ENV:
            monkeypatch.delenv(name, raising=False)

    @needs_openblas
    def test_pool_workers_run_one_thread(self, monkeypatch):
        monkeypatch.setattr(harness, "_run_chunk", _one_thread_chunk)
        rows = run(_experiment(replications=8), workers=2)
        assert {r.rejection_rate for r in rows} == {1.0}

    @needs_openblas
    def test_caller_threads_restored(self, monkeypatch):
        controls = harness._openblas_controls()
        saved = [get_threads() for _, get_threads in controls]
        seen = []

        def recording(exp, cell, reps):
            seen.extend(_openblas_threads() for _ in reps)
            return [{name: False for name in exp.tests} for _ in reps]

        monkeypatch.setattr(harness, "_replications", recording)
        try:
            for set_threads, _ in controls:
                set_threads(2)
            run(_experiment(replications=3), workers=1)
            assert [get_threads() for _, get_threads in controls] == [2] * len(controls)
        finally:
            for (set_threads, _), count in zip(controls, saved):
                set_threads(count)
        assert seen == [1, 1, 1]
        assert harness.blas_threads() == 1

    @pytest.mark.parametrize("variable", BLAS_ENV)
    def test_user_variable_respected(self, monkeypatch, variable):
        blas = _FakeOpenblas(threads=4)
        monkeypatch.setattr(harness, "_openblas_controls", lambda: ((blas.set, blas.get),))
        exp = _experiment(replications=2)
        run(exp, workers=1)
        assert blas.calls == [1, 4]
        blas.calls.clear()
        monkeypatch.setenv(variable, "4")
        run(exp, workers=1)
        assert blas.calls == []
        assert harness.blas_threads() == 4

    def test_libraries_at_one_thread_left_alone(self, monkeypatch):
        blas = _FakeOpenblas(threads=1)
        monkeypatch.setattr(harness, "_openblas_controls", lambda: ((blas.set, blas.get),))
        run(_experiment(replications=2), workers=1)
        assert blas.calls == []

    def test_no_openblas(self, monkeypatch):
        monkeypatch.setattr(harness, "_openblas_controls", lambda: ())
        assert harness.blas_threads() is None
        assert len(run(_experiment(replications=2), workers=1)) == 3


class TestFreedHeapKept:
    @needs_glibc
    def test_repeat_run_faults_no_pages(self):
        # 8-replication batches of 50x100 panels: stacked arrays of about
        # 300 KiB, above glibc's default mmap threshold. With the default
        # thresholds the second run faults in about 800 pages.
        exp = _experiment(sizes=((50, 100),), replications=28, lrv_cfg=LrvConfig())
        run(exp, workers=1)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        run(dataclasses.replace(exp, base_seed=12), workers=1)
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 100

    def test_other_libc_left_alone(self, monkeypatch):
        opened = []
        monkeypatch.setattr(harness.os, "confstr", lambda name: None)
        monkeypatch.setattr(harness.ctypes, "CDLL", opened.append)
        harness._keep_freed_heap.cache_clear()
        try:
            harness._keep_freed_heap()
        finally:
            harness._keep_freed_heap.cache_clear()
        assert opened == []


class TestRunSingle:
    def test_matches_analyze(self):
        exp = _experiment(h_values=(-5.0,), k_known=False, tests=("t_ump_emp", "t_b"))
        cell = exp.cells()[0]
        for rep in range(3):
            sim = simulate(_cell_config(exp, cell, rep))
            result = analyze(sim.panel, k_max=exp.k_max, lrv_cfg=exp.lrv_cfg)
            assert run_single(exp, cell, rep) == {
                name: result.outcomes[name].reject for name in exp.tests}

    def test_one_ump_statistics_call(self, monkeypatch):
        calls = []
        original = statistics.ump_statistics

        def counted(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(statistics, "ump_statistics", counted)
        exp = _experiment()
        run_single(exp, exp.cells()[0], 0)
        assert len(calls) == 1


class TestPowerFigureData:
    def test_requires_null_row(self):
        with pytest.raises(DataError):
            power_figure_data(_experiment(h_values=(-2.0,)), workers=1)

    def test_envelope_columns(self):
        exp = _experiment(h_values=(0.0, -2.0), replications=5)
        rows = power_figure_data(exp, workers=1)
        for rec in rows:
            assert rec["envelope"] >= rec["mp_bn_asymptote"] - 1e-12
            assert rec["h_abs"] == abs(rec["h"])
        null_rows = [r for r in rows if r["h"] == 0.0]
        assert null_rows and all(r["envelope"] == pytest.approx(0.05) for r in null_rows)

    def test_power_monotone_and_below_envelope(self):
        exp = _experiment(sizes=((30, 60),), h_values=(0.0, -2.0, -4.0),
                          replications=400, tests=("t_ump_emp", "p_b"))
        rows = power_figure_data(exp)
        by_test = {}
        for rec in rows:
            by_test.setdefault(rec["test"], []).append(rec)
        for test, recs in by_test.items():
            recs.sort(key=lambda r: r["h_abs"])
            rates = [r["rejection_rate"] for r in recs]
            errs = [r["mc_std_err"] for r in recs]
            for lo, hi, e1, e2 in zip(rates, rates[1:], errs, errs[1:]):
                assert hi >= lo - 2.0 * (e1 + e2)
            for rec in recs:
                assert rec["rejection_rate"] <= rec["envelope"] + 3.0 * rec["mc_std_err"]


def test_replication_does_not_import_scipy_signal():
    # Importing scipy.signal after panelur adds about 43 MiB of resident
    # memory and over half a second to every process (2 vCPU x86_64 VM,
    # scipy 1.17); the recursions stay in numpy.
    code = "\n".join([
        "import sys",
        "import panelur",
        "from panelur import Experiment, LrvConfig, harness",
        "exp = Experiment(frameworks=('MP',), sizes=((10, 60),), ratios=(0.8,),",
        "                 innovations=('ar1', 'ma1'), h_values=(-10.0,), k=1,",
        "                 k_known=False, heterogeneous_alternatives=True,",
        "                 lrv_cfg=LrvConfig(kernel='quadratic_spectral'))",
        "for cell in exp.cells():",
        "    harness.run_single(exp, cell, 0)",
        "print('scipy.signal' in sys.modules)",
    ])
    src = os.path.dirname(os.path.dirname(os.path.abspath(harness.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "False"
