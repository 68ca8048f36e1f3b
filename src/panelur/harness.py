"""Seeded, parallel Monte Carlo experiments over grids of data-generating designs.

Every replication seed is derived by hashing the base seed together with the
cell coordinates and the replication index, so results are identical for any
worker count and any grid composition. The framework coordinate is excluded
from the hash: MP and PANIC cells that agree otherwise consume identical
draws, which makes the two setups literally coincide under the null and
keeps their power comparison free of simulation noise.

`_plan` cuts each cell's replications into at most one task per worker, a
contiguous range of at most 500, and each task runs as the fewest batches
that stack at most _STACKED_CELLS panel cells each (replications times n T,
at least one replication), so large cells fall back to small batches and
bounded memory. Both cuts make sizes as equal as possible: at one worker a
25-replication 50 x 100 cell is one task and two batches, 13 + 12. A batch
has a fixed cost of a few milliseconds, so the fewest batches that fit the
cap run fastest, and equal sizes keep the largest batch, and with it peak
memory, small.

A batch is one R x n x T levels array from simulation to analysis. One
`dgp.simulate_many` call (one stacked set of recursions) writes it, and one
`statistics.analyze_many` call analyzes it: the differencing, the factor fit
and the six statistics run over the whole stack (per factor count when k is
selected), with one LRV pass over all its residuals; only the factor selection's
IC_p2 loop runs replication by replication. Every step
is row-local, so a replication's result is bit-identical to running it
alone: the batches, and the worker count that sets the tasks, change no
result. Errors stay per replication: a batch that raises a DataError,
NumericalError or LinAlgError is rerun one replication at a time, so a
failing replication counts as one error in every stage, simulation
included. Any other exception is a bug and stops the run: the tasks not yet
started are cancelled, and the error is raised at once.

The pool workers persist across `run` calls: the first pooled run forks them,
later runs at the same worker count reuse them, a run at another count
replaces them, and they exit with the interpreter, or about a second after a
parent that ran no exit hook (SIGTERM). This saves the fork, the first-task
warm-up and the OpenBLAS restart below for every pooled run after the first,
which pays off in a process that makes many pooled runs; a process that makes
one, as `panelur mc` does, still pays them once. A worker that dies during a
run breaks the pool, and the run raises BrokenProcessPool; a worker that died
while idle is found when the next run gets no result back, and that run
starts a fresh pool and runs its tasks there (see `_pooled`). Idle workers
keep their heap (see below). Each task carries its Experiment, so a kept
worker runs exactly the experiment it is given, but with the code and module
state it was forked with: after reloading or patching panelur, a pooled run
still runs the old code until the worker count changes or the interpreter
restarts. The pool, like the BLAS thread counts below, belongs to the
process: `run` is not meant to be called from several threads at once.

`run` holds one OpenBLAS thread per process (see `_blas`) around the whole
run, so that forked workers inherit one thread, and restores the caller's
counts when it returns. A fork shuts down the caller's OpenBLAS threads, and
the restore after it restarts them, which busy-waits for a few tenths of a
second of CPU; a kept pool forks only once, so only the first pooled run
pays that.

A batch's stacked arrays are a few hundred KiB each, above glibc malloc's
default mmap threshold, and a batch's working set rises and falls by a few
MiB. Left at its defaults, glibc returns that memory to the kernel after
each batch and faults it in again for the next: thousands of page faults
per benchmark call, whose cost follows the host's memory pressure (see
BENCH_9.json). So `run` fixes glibc's mmap and trim thresholds
(_MMAP_THRESHOLD, _TRIM_THRESHOLD) in its own process and in every pool
worker: freed batch memory stays in the heap for the next batch. The
setting is not undone when `run` returns; glibc has no way to read it
back. Under another C library nothing is changed.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import threading
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, fields, asdict

import numpy as np

from ._blas import _one_blas_thread, _pin_blas
from .asymptotics import local_power_mp_bn, power_envelope
from .dgp import DgpConfig, InnovationSpec, _check_integers, simulate_many
from .errors import DataError
from .lrv import LrvConfig
from .statistics import ANALYSIS_ERRORS, TEST_NAMES, analyze_many, check_alpha

__all__ = ["Experiment", "ResultRow", "run", "power_figure_data", "replication_seed",
           "plan_summary", "WORKERS_ENV_VAR", "RESULT_COLUMNS"]

WORKERS_ENV_VAR = "PANELUR_WORKERS"

# Cap on the panel cells (n T) one batch of replications stacks: it bounds
# the memory of a batch, so large cells fall back to small batches.
_STACKED_CELLS = 2 ** 16

# glibc malloc settings `run` applies (see the module docstring): blocks
# below _MMAP_THRESHOLD come from the heap, and the heap keeps up to
# _TRIM_THRESHOLD of free memory at its top instead of returning it.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # mallopt parameters, <malloc.h>
_MMAP_THRESHOLD = 2 ** 22
_TRIM_THRESHOLD = 2 ** 25

@dataclass(frozen=True)
class Experiment:
    """A grid of simulation designs plus the estimation configuration."""

    frameworks: tuple[str, ...] = ("PANIC",)
    sizes: tuple[tuple[int, int], ...] = ((50, 100),)
    ratios: tuple[float, ...] = (1.0,)
    innovations: tuple[str, ...] = ("iid",)
    distributions: tuple[str, ...] = ("gaussian",)
    h_values: tuple[float, ...] = (0.0,)
    k: int = 1
    k_known: bool = True
    k_max: int = 6
    innovation_parameter: float = 0.4
    heterogeneous_alternatives: bool = False
    panic_stationary_factors: bool = False
    lrv_cfg: LrvConfig = field(default_factory=LrvConfig)
    tests: tuple[str, ...] = TEST_NAMES
    alpha: float = 0.05
    replications: int = 100
    base_seed: int = 0

    def __post_init__(self):
        _check_integers(self, ("replications", "k_max", "base_seed"))
        if self.replications < 1:
            raise DataError("need at least one replication")
        check_alpha(self.alpha)
        for grid in ("frameworks", "sizes", "ratios", "innovations",
                     "distributions", "h_values", "tests"):
            values = getattr(self, grid)
            values = tuple(map(tuple, values) if grid == "sizes" else values)
            object.__setattr__(self, grid, values)
            if not values:
                raise DataError(f"experiment grid {grid!r} is empty")
            # Compared by ==, so 0.0 and -0.0 repeat: equal cells would merge.
            repeated = [v for i, v in enumerate(values) if v in values[:i]]
            if repeated:
                raise DataError(f"experiment grid {grid!r} repeats {repeated[0]!r}")
        unknown = set(self.tests) - set(TEST_NAMES)
        if unknown:
            raise DataError(f"unknown test names: {sorted(unknown)}")
        if self.k_max < 0:
            raise DataError(f"k_max must be non-negative, got {self.k_max}")
        for cell in self.cells():  # DgpConfig's checks, before any replication runs
            _cell_config(self, cell, 0)

    def cells(self) -> list[tuple]:
        return [
            (fw, n, t, ratio, innov, dist, h)
            for fw in self.frameworks
            for (n, t) in self.sizes
            for ratio in self.ratios
            for innov in self.innovations
            for dist in self.distributions
            for h in self.h_values
        ]


@dataclass(frozen=True)
class ResultRow:
    """Rejection frequency of one test in one grid cell."""

    framework: str
    n: int
    T: int
    ratio: float
    innovation: str
    distribution: str
    bandwidth: str
    kernel: str
    prewhiten: bool
    h: float
    test: str
    rejection_rate: float
    mc_std_err: float
    replications: int
    errors: int

    def as_dict(self) -> dict:
        return asdict(self)


RESULT_COLUMNS = tuple(f.name for f in fields(ResultRow))


def replication_seed(base_seed: int, n: int, t: int, ratio: float, innovation: str,
                     distribution: str, h: float, rep: int) -> int:
    """Stable 64-bit replication seed; independent of framework and scheduling."""
    key = f"{base_seed}|{n}|{t}|{ratio!r}|{innovation}|{distribution}|{h!r}|{rep}"
    return int.from_bytes(hashlib.sha256(key.encode()).digest()[:8], "little")


def _cell_config(exp: Experiment, cell: tuple, rep: int) -> DgpConfig:
    fw, n, t, ratio, innov, dist, h = cell
    seed = replication_seed(exp.base_seed, n, t, ratio, innov, dist, h, rep)
    return DgpConfig(
        framework=fw,
        n=n,
        T=t,
        h=h,
        K=exp.k,
        factor_spec=InnovationSpec(kind=innov, parameter=exp.innovation_parameter,
                                   distribution=dist, target_lrv=1.0),
        idio_spec=InnovationSpec(kind=innov, parameter=exp.innovation_parameter,
                                 distribution=dist, target_lrv=1.0),
        lrv_ratio=ratio,
        heterogeneous_alternatives=exp.heterogeneous_alternatives,
        panic_stationary_factors=exp.panic_stationary_factors,
        seed=seed,
    )


def _replications(exp: Experiment, cell: tuple, reps) -> list:
    """Rejection flags per requested test for each replication in `reps`, run as one batch.

    A failed replication's entry is its DataError, NumericalError or
    LinAlgError instead: a batch that raises one is rerun one replication at a
    time, so that only the faulty replications fail.
    """
    try:
        levels = simulate_many([_cell_config(exp, cell, rep) for rep in reps])
        results = analyze_many(levels, unit_ids=range(levels.shape[1]),
                               k=exp.k if exp.k_known else None, k_max=exp.k_max,
                               lrv_cfg=exp.lrv_cfg, alpha=exp.alpha)
    except ANALYSIS_ERRORS as exc:
        if len(reps) == 1:
            return [exc]
        return [flags for rep in reps for flags in _replications(exp, cell, [rep])]
    return [{name: result.outcomes[name].reject for name in exp.tests} for result in results]


def run_single(exp: Experiment, cell: tuple, rep: int) -> dict[str, bool]:
    """One full pipeline pass: simulate, then analyze.

    All six statistics are computed; returns rejection flags per requested test.
    """
    flags, = _replications(exp, cell, [rep])
    if isinstance(flags, Exception):
        raise flags
    return flags


def _split(start: int, stop: int, cap: int) -> list[range]:
    """start..stop cut into the fewest ranges of at most cap, sizes as equal as
    possible, the larger first: 25 at a cap of 13 gives 13 + 12."""
    total = stop - start
    count = -(-total // cap)
    bounds = [start + -(-i * total // count) for i in range(count + 1)]
    return [range(a, b) for a, b in zip(bounds, bounds[1:])]


def _batches(cell: tuple, start: int, stop: int) -> list[range]:
    """The batches a task runs: the fewest that stack at most _STACKED_CELLS
    panel cells each (at least one replication), sizes as equal as possible."""
    _, n, t, *_ = cell
    return _split(start, stop, max(1, _STACKED_CELLS // (n * t)))


def _run_chunk(exp: Experiment, cell: tuple, rep_start: int, rep_stop: int):
    """(cell, rejections per test, successes, errors) over a contiguous
    replication range, run as `_batches` of it."""
    outcomes = [flags for batch in _batches(cell, rep_start, rep_stop)
                for flags in _replications(exp, cell, batch)]
    done = [flags for flags in outcomes if not isinstance(flags, Exception)]
    counts = {name: sum(flags[name] for flags in done) for name in exp.tests}
    return cell, counts, len(done), len(outcomes) - len(done)


def _requested_workers(workers: int | None) -> int:
    if workers is not None:
        if workers < 1:
            raise DataError(f"workers must be a positive integer, got {workers}")
        return workers
    env = os.environ.get(WORKERS_ENV_VAR)
    if env:
        if not env.strip().isdecimal() or int(env) < 1:
            raise DataError(f"{WORKERS_ENV_VAR} must be a positive integer, got {env!r}")
        return int(env)
    return max(1, os.cpu_count() or 1)


def _plan(exp: Experiment, workers: int | None) -> tuple[int, list[tuple]]:
    """Worker processes, never more than tasks, and the (cell, start, stop) tasks.

    Each cell's R replications are cut into the fewest tasks of at most
    min(500, ceil(R / workers)), sizes as equal as possible: at most one task
    per requested worker, so at one worker a cell of up to 500 replications
    is one task. The cap of 500 cuts a long cell finer, so that pool workers
    that finish early take up the rest.
    """
    requested = _requested_workers(workers)
    chunk = min(500, -(-exp.replications // requested))
    tasks = [(cell, task.start, task.stop)
             for cell in exp.cells() for task in _split(0, exp.replications, chunk)]
    return min(requested, len(tasks)), tasks


def plan_summary(exp: Experiment, workers: int | None = None) -> dict:
    """The processes `run(exp, workers)` runs replications in, its tasks and its
    largest batch, from the plan the run follows."""
    n_workers, tasks = _plan(exp, workers)
    return {"workers": n_workers, "tasks": len(tasks),
            "largest_batch": max(len(b) for task in tasks for b in _batches(*task))}


@functools.cache
def _keep_freed_heap() -> None:
    """Fix glibc's mmap and trim thresholds for this process, once; no-op elsewhere."""
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, ValueError, OSError):
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


def _init_worker() -> None:
    """Pool worker initializer: the malloc thresholds, one OpenBLAS thread, and an
    exit when the parent is gone (PR_SET_PDEATHSIG fires when the forking thread ends)."""
    _keep_freed_heap()
    _pin_blas()
    threading.Thread(target=_exit_with_parent, args=(os.getppid(),), daemon=True).start()


def _exit_with_parent(parent: int) -> None:
    while os.getppid() == parent:
        time.sleep(1.0)
    os._exit(1)


# The one worker pool `run` keeps, as (worker count, pool); see `_pool`.
_kept_pool: tuple[int, ProcessPoolExecutor] | None = None


def _pool(n_workers: int) -> ProcessPoolExecutor:
    """The process pool of n_workers workers, kept across `run` calls.

    A pool at another worker count is shut down before the new one is made,
    so at most one exists. The last one is shut down by concurrent.futures'
    own hook at interpreter exit.
    """
    global _kept_pool
    if _kept_pool is not None and _kept_pool[0] != n_workers:
        _drop_pool()
    if _kept_pool is None:
        _kept_pool = (n_workers,
                      ProcessPoolExecutor(max_workers=n_workers, initializer=_init_worker))
    return _kept_pool[1]


def _drop_pool() -> None:
    """Shut down the kept pool, if any, cancelling the tasks not yet started."""
    global _kept_pool
    if _kept_pool is not None:
        _, pool = _kept_pool
        _kept_pool = None
        pool.shutdown(cancel_futures=True)


def _forget_pool() -> None:
    """In a forked child: the parent's pool is not this process's to use."""
    global _kept_pool
    _kept_pool = None


os.register_at_fork(after_in_child=_forget_pool)


def _pooled(exp: Experiment, tasks: list[tuple], n_workers: int) -> list[tuple]:
    """The `_run_chunk` results of the tasks, in task order, from the kept pool.

    A kept worker can die while idle, between runs: the OOM killer, a
    signal, or Ctrl-C sent to the terminal's whole process group. That
    breaks the pool before this run gives it any work. So a reused pool
    that breaks before any result has come back is replaced, and the tasks
    run again on fresh workers; they are seeded, so the results are the
    same. A fresh pool that breaks, or one that breaks after a result has
    come back, raises BrokenProcessPool.
    """
    reused = _kept_pool is not None and _kept_pool[0] == n_workers
    pool = _pool(n_workers)
    futures, results = [], []
    try:
        futures.extend(pool.submit(_run_chunk, exp, cell, start, stop)
                       for cell, start, stop in tasks)
        for fut in futures:
            results.append(fut.result())
    except BaseException as exc:
        # A bug, a dead worker or an interrupt: queued tasks must not run on,
        # and a broken pool must not be handed to the next run.
        for fut in futures:
            fut.cancel()
        if not isinstance(exc, BrokenProcessPool):
            raise
        _drop_pool()
        if results or not reused:
            raise
        return _pooled(exp, tasks, n_workers)
    return results


def run(exp: Experiment, workers: int | None = None) -> list[ResultRow]:
    """Execute the full grid; deterministic for a fixed experiment, any worker count.

    Replications run with one OpenBLAS thread per process and fixed glibc
    malloc thresholds (see the module docstring), in the serial path and in
    every pool worker alike.
    """
    n_workers, tasks = _plan(exp, workers)
    # Set before the pool forks, so forked workers inherit both settings; the
    # initializer covers the spawn and forkserver start methods.
    _keep_freed_heap()
    with _one_blas_thread():
        chunks = ([_run_chunk(exp, *task) for task in tasks] if n_workers == 1
                  else _pooled(exp, tasks, n_workers))
    # The grids repeat no value, so the cells are distinct and keep exp.cells() order.
    totals = {cell: (Counter(), Counter()) for cell in exp.cells()}
    for cell, counts, successes, errors in chunks:
        rejections, runs = totals[cell]
        rejections.update(counts)
        runs.update(successes=successes, errors=errors)

    rows: list[ResultRow] = []
    for (fw, n, t, ratio, innov, dist, h), (rejections, runs) in totals.items():
        successes = runs["successes"]
        for name in exp.tests:
            rate = rejections[name] / successes if successes else float("nan")
            se = (np.sqrt(rate * (1.0 - rate) / successes) if successes else float("nan"))
            rows.append(ResultRow(
                framework=fw, n=n, T=t, ratio=ratio, innovation=innov,
                distribution=dist, bandwidth=exp.lrv_cfg.bandwidth,
                kernel=exp.lrv_cfg.kernel, prewhiten=exp.lrv_cfg.prewhiten,
                h=h, test=name, rejection_rate=float(rate), mc_std_err=float(se),
                replications=successes, errors=runs["errors"],
            ))
    return rows


def power_figure_data(exp: Experiment, workers: int | None = None) -> list[dict]:
    """Empirical power rows joined with the analytic envelope and MP/BN asymptote."""
    if 0.0 not in exp.h_values:
        raise DataError("power figure experiments must include h = 0")
    rows = run(exp, workers=workers)
    out = []
    for row in rows:
        rec = row.as_dict()
        h_abs = abs(row.h)
        rec["h_abs"] = h_abs
        rec["envelope"] = power_envelope(exp.alpha, h_abs)
        rec["mp_bn_asymptote"] = local_power_mp_bn(exp.alpha, h_abs, row.ratio)
        out.append(rec)
    return out
