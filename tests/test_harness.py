"""Monte Carlo harness: determinism, seeding, parallel equivalence, aggregation."""

import multiprocessing
import multiprocessing.connection
import os
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from panelur import (DataError, DgpConfig, Experiment, LrvConfig, NumericalError, Panel, analyze,
                     harness, power_figure_data, replication_seed, run, simulate, statistics)
from panelur import _blas
from panelur.cli import write_panel_csv
from panelur.harness import RESULT_COLUMNS, WORKERS_ENV_VAR, _cell_config, run_single
from panelur.statistics import TEST_NAMES

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
needs_openblas = pytest.mark.skipif(not _blas._openblas_controls(),
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


@pytest.fixture
def own_pool():
    """Drops the kept pool before and after the test. A test that patches a
    harness function and then forks pool workers leaves the patch in them."""
    harness._drop_pool()
    yield
    harness._drop_pool()


def _worker_pids():
    return {p.pid for p in multiprocessing.active_children()}


def _running(pid):
    """Whether pid is a live process; an exited one that is not reaped yet is not."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def _openblas_threads():
    return max(get_threads() for _, get_threads in _blas._openblas_controls())


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
    pool threads, that is, every OS thread of the process is a Python thread
    (the main thread and the worker's parent watch)."""
    single = (_openblas_threads() == 1
              and len(os.listdir("/proc/self/task")) == threading.active_count() == 2)
    return cell, {name: int(single) for name in exp.tests}, 1, 0


def _last_period_unit(values):
    # Unit 3 moves only in its last period: its Hannan-Rissanen design is singular.
    values[3] = 0.0
    values[3, -1] = 1.0
    return values


def _constant_unit(values):
    values[2] = 1.5
    return values


def _zero_information(values):
    # Every unit moves only in its first and last period: the running sums of
    # the used differences vanish, and with them the empirical information.
    levels = np.zeros_like(values)
    levels[:, 1:] = np.arange(1.0, len(values) + 1.0)[:, None]
    levels[:, -1] += 1.0
    return levels


def _overflowing(values):
    return 1e153 * values


def _overflowing_levels(values):
    # The last period's levels overflow to inf, as an explosive design's did.
    values[:, -1] *= 1e200
    values[:, -1] *= 1e200
    return values


def _break_replication(monkeypatch, exp, cell, rep, edit):
    """Patches the simulator so that replication rep's levels are edit(its levels)."""
    faulty_seed = _cell_config(exp, cell, rep).seed
    original = harness.simulate_many

    def breaking(configs):
        levels = original(configs)
        for i, cfg in enumerate(configs):
            if cfg.seed == faulty_seed:
                levels[i] = edit(levels[i].copy())
        return levels

    monkeypatch.setattr(harness, "simulate_many", breaking)


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

    @pytest.mark.parametrize("edit, error, message", [
        (_last_period_unit, NumericalError, r"LRV prewhitening.*unit\(s\) \[3\]"),
        (_constant_unit, DataError, r"constant unit\(s\) 2"),
        (_zero_information, NumericalError, "empirical information is zero"),
        (_overflowing, NumericalError, "statistic is nan, not finite"),
    ], ids=["hannan-rissanen", "constant-unit", "zero-information", "overflow"])
    def test_one_singular_replication_is_one_error(self, monkeypatch, edit, error, message):
        exp = _experiment(replications=5, k=0, tests=TEST_NAMES,
                          lrv_cfg=LrvConfig(prewhiten=True))
        cell = exp.cells()[0]
        _break_replication(monkeypatch, exp, cell, 1, edit)
        assert any({0, 1} <= set(batch) for task in harness._plan(exp, 1)[1]
                   for batch in harness._batches(*task))   # 0 and 1 share a batch
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(error, match=message):
                run_single(exp, cell, 1)
            others = [run_single(exp, cell, rep) for rep in (0, 2, 3, 4)]
            batch = harness._replications(exp, cell, range(5))
            rows = run(exp, workers=1)
        assert isinstance(batch[1], error) and batch[:1] + batch[2:] == others
        for row in rows:
            assert row.errors == 1 and row.replications == 4
            assert round(row.rejection_rate * 4) == sum(f[row.test] for f in others)

    @pytest.mark.usefixtures("own_pool")
    def test_overflowing_simulation_is_one_error(self, monkeypatch):
        # Replication 17's levels overflow in the simulator (DgpConfig rejects the
        # explosive designs that did so). It fails alone, so the counts do not
        # depend on the batches that the worker count sets. The pool forks after
        # the patch, so its workers run the patched simulator too.
        exp = _experiment(replications=30, k=0, tests=TEST_NAMES)
        cell = exp.cells()[0]
        _break_replication(monkeypatch, exp, cell, 17, _overflowing_levels)
        alone = []
        with np.errstate(over="ignore", invalid="ignore"):
            for rep in range(30):
                try:
                    alone.append(run_single(exp, cell, rep))
                except statistics.ANALYSIS_ERRORS as exc:
                    alone.append(type(exc))
            batch = harness._replications(exp, cell, range(30))
            counts = {workers: {(row.errors, row.replications) for row in run(exp, workers)}
                      for workers in (1, 2)}
        assert alone[17] is DataError
        assert [r if isinstance(r, dict) else type(r) for r in batch] == alone
        assert counts == {1: {(1, 29)}, 2: {(1, 29)}}

    def test_batch_constructs_no_panel(self, monkeypatch):
        # A batch is one R x n x T levels array from the simulator to the statistics.
        shapes = []
        original = Panel.__post_init__

        def counting(panel):
            shapes.append(panel.values.shape)
            original(panel)

        monkeypatch.setattr(Panel, "__post_init__", counting)
        exp = _experiment(sizes=((50, 100),), replications=13, lrv_cfg=LrvConfig())
        cell = exp.cells()[0]
        harness._replications(exp, cell, range(13))
        assert shapes == []
        simulate(_cell_config(exp, cell, 0))   # the counter sees the public path's Panel
        assert shapes == [(50, 100)]

    def test_only_a_failing_batch_is_rerun(self, monkeypatch):
        exp = _experiment(replications=5, k=0, lrv_cfg=LrvConfig(prewhiten=True))
        cell = exp.cells()[0]
        calls = []
        original = harness.analyze_many

        def counting(panels, **kwargs):
            calls.append(len(panels))
            return original(panels, **kwargs)

        monkeypatch.setattr(harness, "analyze_many", counting)
        harness._replications(exp, cell, range(5))
        assert calls == [5]
        _break_replication(monkeypatch, exp, cell, 1, _constant_unit)
        calls.clear()
        harness._replications(exp, cell, range(5))
        assert calls == [5, 1, 1, 1, 1, 1]

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
        calls = []

        def broken(*args, **kwargs):
            calls.append(args)
            raise error("operands could not be broadcast together")

        monkeypatch.setattr(harness, "analyze_many", broken)
        with pytest.raises(error, match="broadcast"):
            run(_experiment(replications=3), workers=1)
        assert len(calls) == 1   # not rerun one replication at a time

    def test_never_more_workers_than_tasks(self, monkeypatch):
        sizes = []
        monkeypatch.setattr(InlinePool, "sizes", sizes)
        monkeypatch.setattr(harness, "_pool", InlinePool)
        exp = _experiment(replications=2)   # one cell: 2 tasks at two or more workers
        serial = _rates(run(exp, workers=1))
        assert _rates(run(exp, workers=16)) == serial
        monkeypatch.setenv(WORKERS_ENV_VAR, "64")
        assert _rates(run(exp)) == serial
        assert sizes == [2, 2]
        assert harness.plan_summary(exp, 16)["workers"] == 2
        run(_experiment(replications=1), workers=16)   # a single task runs in-process
        assert sizes == [2, 2]

    @pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5"])
    def test_workers_env_must_be_positive_integer(self, monkeypatch, value):
        monkeypatch.setenv(WORKERS_ENV_VAR, value)
        with pytest.raises(DataError, match=f"{WORKERS_ENV_VAR} must be a positive integer, "
                                            f"got '{value}'"):
            harness.plan_summary(_experiment())

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_argument_must_be_positive(self, monkeypatch, workers):
        monkeypatch.setattr(harness, "_run_chunk", _must_not_run)
        with pytest.raises(DataError, match=f"workers must be a positive integer, got {workers}"):
            run(_experiment(), workers=workers)
        with pytest.raises(DataError, match="workers must be a positive integer"):
            harness.plan_summary(_experiment(), workers)

    def test_workers_env_positive_integer_taken(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "3")
        assert harness.plan_summary(_experiment(replications=100))["workers"] == 3

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

    @pytest.mark.parametrize("grid, message", [
        (dict(sizes=((20.5, 40),)), "n must be an integer, got 20.5"),
        (dict(frameworks="PANIC"), "framework must be 'MP' or 'PANIC', got 'P'"),
        (dict(innovations=("arl",)), "unknown innovation kind 'arl'"),
        (dict(ratios=(float("nan"),)), r"lrv_ratio must lie in \(0, 1\], got nan"),
        (dict(h_values=(0.0, float("nan"))), "h must be <= 0, got nan"),
        (dict(k=-1), "number of factors K must be >= 0, got -1"),
        (dict(k_max=-1, k_known=False), "k_max must be non-negative, got -1"),
        (dict(replications=2.9), "replications must be an integer, got 2.9"),
        (dict(replications=True), "replications must be an integer, got True"),
        (dict(k_max=2.5, k_known=False), "k_max must be an integer, got 2.5"),
        (dict(base_seed=1.5), "base_seed must be an integer, got 1.5"),
        # A repeated value would make two equal cells that count into the same rows.
        (dict(frameworks=("MP", "PANIC", "MP")), "grid 'frameworks' repeats 'MP'"),
        (dict(sizes=((15, 30), [15, 30])), r"grid 'sizes' repeats \(15, 30\)"),
        (dict(ratios=(0.8, 1, 1.0)), "grid 'ratios' repeats 1.0"),
        (dict(innovations=("iid", "iid")), "grid 'innovations' repeats 'iid'"),
        (dict(distributions=("gaussian",) * 2), "grid 'distributions' repeats 'gaussian'"),
        (dict(h_values=(0.0, 0.0)), "grid 'h_values' repeats 0.0"),
        (dict(h_values=(0.0, -0.0)), "grid 'h_values' repeats -0.0"),
        (dict(tests=("p_b", "t_ump", "p_b")), "grid 'tests' repeats 'p_b'"),
        (dict(sizes=((1, 300),), h_values=(0.0, -2100.0), heterogeneous_alternatives=True),
         r"h = -2100.0 makes the design explosive: need h >= -333.333"),
    ])
    def test_invalid_cell_fails_at_construction(self, grid, message):
        with pytest.raises(DataError, match=message):
            _experiment(**grid)


class InlinePool:
    """Stands in for `harness._pool`: runs each submitted task in-process."""

    sizes = None   # the worker count of each pool asked for, when a list

    def __init__(self, n_workers):
        if self.sizes is not None:
            self.sizes.append(n_workers)

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


def _record_batches(monkeypatch) -> list:
    """Stubs `_replications` with a no-op that records each batch's cell and reps."""
    batches = []

    def recording(exp, cell, reps):
        batches.append((cell, list(reps)))
        return [{name: False for name in exp.tests} for _ in reps]

    monkeypatch.setattr(harness, "_replications", recording)
    monkeypatch.setattr(harness, "_pool", InlinePool)
    return batches


def _acceptance():
    return _experiment(sizes=((50, 100),), h_values=(0.0, -5.0), replications=25)


def _serial_long():
    return _experiment(frameworks=("MP",), sizes=((25, 400),), innovations=("ar1", "ma1"),
                       replications=10)


class TestPlan:
    @pytest.mark.parametrize("exp, sizes", [(_acceptance(), [13, 12]),
                                            (_serial_long(), [5, 5])])
    def test_one_worker_runs_a_cell_as_fewest_equal_batches(self, monkeypatch, exp, sizes):
        batches = _record_batches(monkeypatch)
        run(exp, workers=1)
        assert [len(reps) for _, reps in batches] == sizes * len(exp.cells())
        assert len(harness._plan(exp, 1)[1]) == len(exp.cells())

    @pytest.mark.parametrize("exp", [_acceptance(), _serial_long()])
    def test_two_workers_give_two_tasks_per_cell(self, monkeypatch, exp):
        batches = _record_batches(monkeypatch)
        workers, tasks = harness._plan(exp, 2)
        assert workers == 2
        assert [cell for cell, *_ in tasks] == [cell for cell in exp.cells() for _ in range(2)]
        run(exp, workers=2)
        # Each task is small enough to be one batch.
        assert batches == [(cell, list(range(start, stop))) for cell, start, stop in tasks]

    @settings(max_examples=60, deadline=None)
    @given(replications=st.integers(1, 1300), workers=st.integers(1, 9),
           cap=st.integers(1, 40))
    def test_every_replication_runs_once(self, replications, workers, cap):
        exp = _experiment(h_values=(0.0, -5.0), replications=replications)
        with pytest.MonkeyPatch.context() as mp:
            # A cap of `cap` replications of the 15 x 30 panels per batch.
            mp.setattr(harness, "_STACKED_CELLS", cap * 15 * 30)
            batches = _record_batches(mp)
            n_workers, tasks = harness._plan(exp, workers)
            planned = [(cell, list(b)) for cell, start, stop in tasks
                       for b in harness._batches(cell, start, stop)]
            run(exp, workers=workers)
        assert batches == planned
        assert n_workers == min(workers, len(tasks))
        for cell in exp.cells():
            sizes = [stop - start for c, start, stop in tasks if c == cell]
            assert len(sizes) <= max(workers, -(-replications // 500))
            assert max(sizes) - min(sizes) <= 1
            assert [rep for c, reps in batches if c == cell for rep in reps] == list(
                range(replications))
        for _, start, stop in tasks:
            sizes = [len(reps) for reps in harness._split(start, stop, cap)]
            assert len(sizes) == -(-(stop - start) // cap)
            assert max(sizes) <= cap and max(sizes) - min(sizes) <= 1


# Library `analyze` calls on the 1000x200 panel of the cli_test_large benchmark,
# each followed by a sleep.
_CPU_AFTER_LIBRARY_ANALYSES = """
import resource, time
from panelur import DgpConfig, analyze, simulate
panel = simulate(DgpConfig(framework="PANIC", n=1000, T=200, K=2, lrv_ratio=0.8, seed=21)).panel
for _ in range(3):
    analyze(panel)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    before = usage.ru_utime + usage.ru_stime
    time.sleep(0.4)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    print(usage.ru_utime + usage.ru_stime - before)
"""


class TestBlasThreads:
    @pytest.fixture(autouse=True)
    def no_user_setting(self, monkeypatch):
        for name in BLAS_ENV:
            monkeypatch.delenv(name, raising=False)

    @needs_openblas
    def test_pool_workers_run_one_thread(self, monkeypatch, own_pool):
        monkeypatch.setattr(harness, "_run_chunk", _one_thread_chunk)
        rows = run(_experiment(replications=8), workers=2)
        assert {r.rejection_rate for r in rows} == {1.0}

    @needs_openblas
    def test_caller_threads_restored(self, monkeypatch, own_pool):
        controls = _blas._openblas_controls()
        saved = [get_threads() for _, get_threads in controls]
        seen = []

        def recording(exp, cell, reps):
            seen.extend(_openblas_threads() for _ in reps)
            return [{name: False for name in exp.tests} for _ in reps]

        monkeypatch.setattr(harness, "_replications", recording)
        try:
            for set_threads, _ in controls:
                set_threads(2)
            for workers in (1, 2):
                run(_experiment(replications=3), workers=workers)
                assert [get_threads() for _, get_threads in controls] == [2] * len(controls)
        finally:
            for (set_threads, _), count in zip(controls, saved):
                set_threads(count)
        assert seen == [1, 1, 1]   # at workers=1; pool workers record into their own copy
        assert _blas.blas_threads() == 1

    @pytest.mark.parametrize("variable", BLAS_ENV)
    def test_user_variable_respected(self, monkeypatch, variable):
        blas = _FakeOpenblas(threads=4)
        monkeypatch.setattr(_blas, "_openblas_controls", lambda: ((blas.set, blas.get),))
        exp = _experiment(replications=2)
        run(exp, workers=1)
        assert blas.calls == [1, 4]
        blas.calls.clear()
        monkeypatch.setenv(variable, "4")
        run(exp, workers=1)
        assert blas.calls == []
        assert _blas.blas_threads() == 4

    @pytest.mark.parametrize("variable", (None,) + BLAS_ENV)
    def test_library_analysis_runs_at_one_thread(self, monkeypatch, variable):
        blas = _FakeOpenblas(threads=4)
        monkeypatch.setattr(_blas, "_openblas_controls", lambda: ((blas.set, blas.get),))
        if variable:
            monkeypatch.setenv(variable, "4")
        exp = _experiment()
        analyze(simulate(_cell_config(exp, exp.cells()[0], 0)).panel, k=1)
        assert blas.calls == ([] if variable else [1, 4])

    @needs_openblas
    def test_library_analysis_leaves_no_busy_threads(self):
        # At the default thread counts both OpenBLAS pools spin after the call,
        # 0.1-0.2 s of CPU over this sleep, unless the analysis pins them.
        cpu = [float(line) for line in _in_fresh_python(_CPU_AFTER_LIBRARY_ANALYSES).split()]
        assert len(cpu) == 3 and max(cpu) < 0.05

    def test_count_read_without_setting(self, monkeypatch):
        blas = _FakeOpenblas(threads=4)
        monkeypatch.setattr(_blas, "_openblas_controls", lambda: ((blas.set, blas.get),))
        assert _blas.blas_threads() == 1
        assert blas.calls == []

    def test_libraries_at_one_thread_left_alone(self, monkeypatch):
        blas = _FakeOpenblas(threads=1)
        monkeypatch.setattr(_blas, "_openblas_controls", lambda: ((blas.set, blas.get),))
        run(_experiment(replications=2), workers=1)
        assert blas.calls == []

    def test_no_openblas(self, monkeypatch):
        monkeypatch.setattr(_blas, "_openblas_controls", lambda: ())
        assert _blas.blas_threads() is None
        assert len(run(_experiment(replications=2), workers=1)) == 3


def _in_fresh_python(script: str, *args: str) -> str:
    """Standard output of `script` run by a fresh interpreter on this checkout."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(harness.__file__)))
    done = subprocess.run([sys.executable, "-c", script, *args],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                          text=True, check=True, timeout=120)
    return done.stdout


_REPEAT_RUN_FAULTS = """
import dataclasses, resource
from panelur import Experiment, LrvConfig, run
exp = Experiment(sizes=((50, 100),), ratios=(0.8,), k=1, replications=50, base_seed=11,
                 lrv_cfg=LrvConfig(), tests=("t_ump", "t_ump_emp", "p_b"))
run(exp, workers=1)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
run(dataclasses.replace(exp, base_seed=12), workers=1)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


class TestFreedHeapKept:
    @needs_glibc
    def test_repeat_run_faults_no_pages(self):
        # Batches of 12 and 13 replications of 50x100 panels: stacked arrays of about
        # 500 KiB, above glibc's default mmap threshold. With the default
        # thresholds the second run faults in about 1600 pages. A fresh process
        # keeps the heap the rest of the suite leaves behind out of the count.
        assert int(_in_fresh_python(_REPEAT_RUN_FAULTS)) < 100

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


def _failing_chunk(exp, cell, start, stop):
    """Stands in for `_run_chunk`: the first task is a bug, every other one sleeps."""
    if cell == exp.cells()[0] and start == 0:
        raise ZeroDivisionError("a bug in the first task")
    time.sleep(0.5)
    return cell, {name: 0 for name in exp.tests}, stop - start, 0


def _dying_chunk(exp, cell, start, stop):
    os._exit(1)


# A fresh interpreter's set-up for the scripts below: a 4-replication run.
_SMALL_RUN = """
import multiprocessing, os, resource, time
from panelur import Experiment, LrvConfig, harness, run
exp = Experiment(sizes=((15, 30),), ratios=(0.8,), replications=4,
                 lrv_cfg=LrvConfig(prewhiten=False), tests=("p_b",))
"""

_WORKERS_AT_EXIT = _SMALL_RUN + """
run(exp, workers=2)
print(*[p.pid for p in multiprocessing.active_children()])
"""

_WORKERS_THEN_SLEEP = _SMALL_RUN + """
run(exp, workers=2)
print(*[p.pid for p in multiprocessing.active_children()], flush=True)
time.sleep(120)
"""

_RUN_IN_FORKED_CHILD = _SMALL_RUN + """
rows = run(exp, workers=2)
pid = os.fork()
if pid == 0:
    same = run(exp, workers=2) == rows
    harness._drop_pool()   # os._exit skips the exit hook that would shut it down
    os._exit(0 if same else 1)
print(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
"""

_CPU_AFTER_POOLED_RUNS = _SMALL_RUN + """
run(exp, workers=2)
time.sleep(0.5)   # the first run forks: its restore spins, and that must die down
run(exp, workers=2)
usage = resource.getrusage(resource.RUSAGE_SELF)
before = usage.ru_utime + usage.ru_stime
time.sleep(0.3)
usage = resource.getrusage(resource.RUSAGE_SELF)
print(usage.ru_utime + usage.ru_stime - before)
"""

# `panelur mc` makes one pooled run, which forks, and then writes its files.
_CPU_AFTER_MC_COMMAND = """
import contextlib, io, resource, time
from panelur import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["mc", {config!r}, {out!r}, "--workers", "2"]) == 0
usage = resource.getrusage(resource.RUSAGE_SELF)
before = usage.ru_utime + usage.ru_stime
time.sleep(0.4)
usage = resource.getrusage(resource.RUSAGE_SELF)
print(usage.ru_utime + usage.ru_stime - before)
"""


class TestKeptPool:
    def test_consecutive_runs_reuse_the_workers(self, own_pool):
        exp = _experiment(replications=6)
        serial = _rates(run(exp, workers=1))
        assert _rates(run(exp, workers=2)) == serial
        first = _worker_pids()
        assert len(first) == 2
        assert _rates(run(exp, workers=2)) == serial
        assert _worker_pids() == first
        assert _rates(run(exp, workers=3)) == serial
        third = _worker_pids()
        assert len(third) == 3 and not third & first

    # The two tests below fork the pool before patching `_run_chunk`, so the
    # kept workers hold the real one and run the patch only where it is sent.

    def test_bug_stops_pooled_run_at_once(self, monkeypatch, own_pool):
        small = _experiment(replications=6)
        serial = _rates(run(small, workers=1))
        assert _rates(run(small, workers=2)) == serial
        workers = _worker_pids()
        # 8 cells of 2 replications at 2 workers: 16 tasks, 15 of which sleep
        # 0.5 s, so running them all would take at least 3.75 s.
        exp = _experiment(h_values=tuple(-float(h) for h in range(8)), replications=2)
        assert len(harness._plan(exp, 2)[1]) == 16
        monkeypatch.setattr(harness, "_run_chunk", _failing_chunk)
        start = time.perf_counter()
        with pytest.raises(ZeroDivisionError, match="first task"):
            run(exp, workers=2)
        assert time.perf_counter() - start < 2.0
        monkeypatch.undo()
        # The next run on the same workers waits only for the few tasks that
        # had already left the queue, not for the 15 the bug cancelled.
        assert _rates(run(small, workers=2)) == serial
        assert time.perf_counter() - start < 3.0
        assert _worker_pids() == workers

    def test_dead_worker_breaks_run_and_next_run_recovers(self, monkeypatch, own_pool):
        exp = _experiment(replications=6)
        serial = _rates(run(exp, workers=1))
        assert _rates(run(exp, workers=2)) == serial
        workers = _worker_pids()
        monkeypatch.setattr(harness, "_run_chunk", _dying_chunk)
        with pytest.raises(BrokenProcessPool):   # on the kept pool, then on fresh workers
            run(exp, workers=2)
        monkeypatch.undo()
        assert _rates(run(exp, workers=2)) == serial
        assert len(_worker_pids()) == 2 and not _worker_pids() & workers

    def test_worker_killed_between_runs_is_replaced(self, own_pool):
        exp = _experiment(replications=6)
        serial = _rates(run(exp, workers=2))
        workers = multiprocessing.active_children()
        assert len(workers) == 2
        os.kill(workers[0].pid, signal.SIGKILL)
        assert multiprocessing.connection.wait([workers[0].sentinel], timeout=30)
        assert _rates(run(exp, workers=2)) == serial
        assert len(_worker_pids()) == 2 and not _worker_pids() & {p.pid for p in workers}
        assert _rates(run(exp, workers=1)) == serial

    def test_workers_exit_with_the_interpreter(self):
        pids = [int(pid) for pid in _in_fresh_python(_WORKERS_AT_EXIT).split()]
        assert len(pids) == 2
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_workers_exit_with_a_killed_parent(self):
        # SIGTERM with no handler runs no exit hook, so the pool is not shut down.
        src = os.path.dirname(os.path.dirname(os.path.abspath(harness.__file__)))
        parent = subprocess.Popen([sys.executable, "-c", _WORKERS_THEN_SLEEP],
                                  env=dict(os.environ, PYTHONPATH=src),
                                  stdout=subprocess.PIPE, text=True)
        pids = []
        try:
            pids = [int(pid) for pid in parent.stdout.readline().split()]
            assert len(pids) == 2
            parent.send_signal(signal.SIGTERM)
            parent.wait(timeout=30)
            deadline = time.monotonic() + 5.0
            while any(map(_running, pids)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not any(map(_running, pids))
        finally:
            parent.kill()
            parent.wait(timeout=30)
            parent.stdout.close()
            for pid in filter(_running, pids):
                os.kill(pid, signal.SIGKILL)

    def test_forked_child_makes_its_own_pool(self):
        # The parent's pool cannot serve a forked child: using it would hang.
        assert _in_fresh_python(_RUN_IN_FORKED_CHILD).strip() == "0"

    @needs_openblas
    def test_no_busy_wait_after_a_second_pooled_run(self):
        # Each fork shuts down the caller's OpenBLAS threads, and restoring the
        # caller's thread count restarts them busy-waiting, about 0.25 s of CPU
        # over this sleep. Only the first pooled run forks.
        assert float(_in_fresh_python(_CPU_AFTER_POOLED_RUNS)) < 0.05

    @needs_openblas
    def test_mc_command_leaves_no_busy_threads(self, tmp_path):
        # The command pins OpenBLAS to one thread for good before its run, so
        # the restore after the fork restarts no pool threads.
        root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(harness.__file__))))
        script = _CPU_AFTER_MC_COMMAND.format(
            config=os.path.join(root, "sample_data", "mc_smoke.json"),
            out=str(tmp_path / "mc.csv"))
        assert float(_in_fresh_python(script)) < 0.05


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
        # The stacked kernel computes one central sequence per replication: one
        # call per batch, over a stack with one panel per replication.
        stacks = []
        original = statistics.ump_statistics

        def counted(d, *args):
            stacks.append(d.shape[0])
            return original(d, *args)

        monkeypatch.setattr(statistics, "ump_statistics", counted)
        exp = _experiment()
        run_single(exp, exp.cells()[0], 0)
        assert stacks == [1]
        stacks.clear()
        harness._replications(exp, exp.cells()[0], range(7))
        assert stacks == [7]


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


def test_replication_does_not_import_scipy_signal(tmp_path):
    # Importing scipy.signal after panelur adds about 43 MiB of resident
    # memory and over half a second to every process (2 vCPU x86_64 VM,
    # scipy 1.17); the recursions stay in numpy. scipy.linalg and scipy.special
    # add 26 MiB and 0.2-0.3 s: the analysis paths import neither, and only
    # the LAN report (`panelur selftest`) loads scipy.
    csv_path = tmp_path / "panel.csv"
    write_panel_csv(csv_path, simulate(DgpConfig(framework="PANIC", n=12, T=40, K=1,
                                                 seed=3)).panel)
    code = "\n".join([
        "import sys",
        "import panelur",
        "from panelur import Experiment, LrvConfig, Panel, analyze, cli, harness",
        "exp = Experiment(frameworks=('MP',), sizes=((10, 60),), ratios=(0.8,),",
        "                 innovations=('ar1', 'ma1'), h_values=(-10.0,), k=1,",
        "                 k_known=False, heterogeneous_alternatives=True,",
        "                 lrv_cfg=LrvConfig(kernel='quadratic_spectral'))",
        "for cell in exp.cells():",
        "    harness.run_single(exp, cell, 0)",
        "harness.run(Experiment(sizes=((20, 50),), k=1, replications=1), workers=1)",
        "analyze(cli.load_panel_csv(sys.argv[1]), k=2)",
        "assert cli.main(['test', sys.argv[1], '--json']) == 0",
        "print(sorted(name for name in ('scipy.signal', 'scipy.linalg', 'scipy.special')",
        "             if name in sys.modules))",
    ])
    assert _in_fresh_python(code, str(csv_path)).splitlines()[-1] == "[]"
