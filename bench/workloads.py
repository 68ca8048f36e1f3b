"""Workload inputs, the calls that drive panelur, and their correctness checks.

Each workload draws its inputs from a fixed pool whose expected outputs were
recorded by ``record_reference.py`` into ``reference.json``: Monte Carlo
batches keyed by the experiment's base seed, and simulated panels keyed by
the simulation seed. The benchmark's ``--seed`` chooses the order in which a
run walks its pool, so the same seed always gives the same inputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import time
from dataclasses import dataclass

from panelur import cli, harness
from panelur.dgp import DgpConfig, simulate
from panelur.lrv import LrvConfig

# Replications per cell in one harness.run call, and the number of recorded
# base seeds. mc_acceptance and mc_acceptance_par share the same batches, so
# their shared reference is the worker-count exactness check.
ACCEPTANCE_REPS = 25
SERIAL_LONG_REPS = 10
MC_POOL = 256
PANEL_POOL = 32
STAT_REL_TOL = 1e-8


def acceptance_experiment(base_seed: int, replications: int = ACCEPTANCE_REPS):
    """The paper's acceptance cell: PANIC 50x100, ratio 0.8, iid, k=1 known."""
    return harness.Experiment(
        frameworks=("PANIC",), sizes=((50, 100),), ratios=(0.8,),
        innovations=("iid",), distributions=("gaussian",), h_values=(0.0, -5.0),
        k=1, k_known=True,
        lrv_cfg=LrvConfig(kernel="bartlett", bandwidth="andrews", prewhiten=True),
        replications=replications, base_seed=base_seed,
    )


def serial_long_experiment(base_seed: int, replications: int = SERIAL_LONG_REPS):
    """MP 25x400, AR(1)/MA(1) Student-t innovations, K=2 selected, QS kernel."""
    return harness.Experiment(
        frameworks=("MP",), sizes=((25, 400),), ratios=(0.8,),
        innovations=("ar1", "ma1"), distributions=("student_t5",),
        h_values=(0.0, -10.0), k=2, k_known=False, k_max=6,
        heterogeneous_alternatives=True,
        lrv_cfg=LrvConfig(kernel="quadratic_spectral", bandwidth="andrews",
                          prewhiten=True),
        replications=replications, base_seed=base_seed,
    )


def large_panel_config(seed: int) -> DgpConfig:
    """1000x200 PANIC panel with two factors and LRV ratio 0.8, under the null."""
    return DgpConfig(framework="PANIC", n=1000, T=200, K=2, lrv_ratio=0.8, seed=seed)


def pool_order(seed: int, size: int) -> list[int]:
    """The run's walk through a reference pool, fixed by the benchmark seed."""
    return random.Random(seed).sample(range(size), size)


def mc_counts(rows) -> list[list[int]]:
    """[rejections, completed replications, errors] per result row."""
    return [[round(r.rejection_rate * r.replications), r.replications, r.errors]
            for r in rows]


def write_panel(path: str, seed: int) -> None:
    cli.write_panel_csv(path, simulate(large_panel_config(seed)).panel)


def panelur_test(path: str) -> tuple[int, dict | None]:
    """One ``panelur test <csv> --json`` through the public entry point."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["test", path, "--json"])
    return code, (json.loads(out.getvalue()) if code == 0 else None)


def summarize_test(payload: dict) -> dict:
    return {"k": payload["k"],
            "statistics": {name: t["statistic"] for name, t in payload["tests"].items()}}


def matches_reference(summary: dict, reference: dict) -> bool:
    """Chosen k equal, all six statistics equal within STAT_REL_TOL relative."""
    if summary["k"] != reference["k"]:
        return False
    got, want = summary["statistics"], reference["statistics"]
    return got.keys() == want.keys() and all(
        math.isclose(got[name], want[name], rel_tol=STAT_REL_TOL, abs_tol=0.0)
        for name in want)


@dataclass(frozen=True)
class Call:
    """One timed call into panelur's public entry point."""

    seconds: float
    passes: int      # pipeline passes completed: replications, or 1 per test call
    attempted: int   # replications attempted, or 1 per test call
    failed: int      # the harness's errors column, or 1 per nonzero exit code
    correct: bool


class McWorkload:
    """Fixed-size harness.run batches walked from the recorded pool."""

    def __init__(self, make, reference: dict, workers: int, seed: int):
        self.make = make
        self.workers = workers
        self.expected = reference["batches"]
        self.order = pool_order(seed, len(self.expected))
        self.warmup_seed = len(self.expected) + seed
        self.calls = 0

    def setup_round(self) -> None:
        harness.run(self.make(self.warmup_seed, replications=2), workers=self.workers)

    def call(self, workers: int) -> Call:
        base_seed = self.order[self.calls % len(self.order)]
        self.calls += 1
        exp = self.make(base_seed)
        start = time.perf_counter()
        rows = harness.run(exp, workers=workers)
        elapsed = time.perf_counter() - start
        per_cell = rows[::len(exp.tests)]
        return Call(seconds=elapsed,
                    passes=sum(r.replications for r in per_cell),
                    attempted=len(per_cell) * exp.replications,
                    failed=sum(r.errors for r in per_cell),
                    correct=mc_counts(rows) == self.expected[str(base_seed)])

    def close(self) -> None:
        pass


class CliWorkload:
    """Repeated ``panelur test --json`` on one pooled panel written in set-up."""

    workers = 1

    def __init__(self, reference: dict, seed: int, path: str):
        self.panel_seed = pool_order(seed, len(reference["panels"]))[0]
        self.expected = reference["panels"][str(self.panel_seed)]
        self.path = path

    def setup_round(self) -> None:
        write_panel(self.path, self.panel_seed)
        panelur_test(self.path)

    def call(self, workers: int) -> Call:
        start = time.perf_counter()
        code, payload = panelur_test(self.path)
        elapsed = time.perf_counter() - start
        correct = code == 0 and matches_reference(summarize_test(payload), self.expected)
        return Call(seconds=elapsed, passes=int(code == 0), attempted=1,
                    failed=int(code != 0), correct=correct)

    def close(self) -> None:
        if os.path.exists(self.path):
            os.remove(self.path)


def make_workload(name: str, reference: dict, seed: int, nproc: int, scratch_dir):
    if name == "cli_test_large":
        return CliWorkload(reference["cli_test_large"], seed,
                           os.path.join(scratch_dir, f"panel-{os.getpid()}.csv"))
    if name == "mc_serial_long":
        return McWorkload(serial_long_experiment, reference["mc_serial_long"], 1, seed)
    workers = nproc if name == "mc_acceptance_par" else 1
    return McWorkload(acceptance_experiment, reference["mc_acceptance"], workers, seed)
