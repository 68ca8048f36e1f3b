"""panelur benchmark: Monte Carlo throughput and ``panelur test`` latency.

Run from the repository root:

    python3 bench/run.py --workload mc_acceptance --seed 1 --seconds 25 --trace 0

Workloads (closed loop, one caller; no more processes than available cores):

  mc_acceptance      harness.run on the paper's acceptance cell, workers=1
  mc_acceptance_par  the same batches at workers=nproc (process pool)
  mc_serial_long     harness.run, MP 25x400 AR(1)/MA(1) t(5), k selected, workers=1
  cli_test_large     cli.main(["test", <1000x200 csv>, "--json"])

The package is imported from ``src/`` of the checkout this file sits in. One
call is one ``harness.run`` of a fixed batch (mc_*) or one ``panelur test``
(cli_test_large); every call's output is checked against reference.json.

End-to-end metrics: call_tail_ms, the highest percentile of call time with
ten calls beyond it; peak_rss_mb; setup_s, the median of several set-ups
(fresh import, input generation, warm-up). Printed beside them, with their
sample counts, but not result metrics: reps_per_s, pipeline passes
(replications, or test calls) per second of call wall time with pool
start-up included; the median call; the failure fraction. On a shared
machine whose speed switches between a fast and a slow state for seconds to
minutes, the mean and the median call move with the share of each state in
a run, while the tail stays in the slow state. The failure fraction is 0
when nothing fails; the result carries failures as its ``attempted`` and
``failed`` counts. Per-layer metrics: mean inclusive microseconds per call
of each traced function, self time per pass of each layer, exception counts
per layer, and harness ratios.

With ``--trace 0`` the run reports end-to-end metrics. With ``--trace 1`` it
takes turns, call by call, between the workload untraced, untraced at
workers=1 (parallel workload only) and traced at workers=1 with spans around
each layer's public functions, and reports per-layer metrics. The last line
of standard output is one JSON object; earlier lines give the environment
manifest and each metric with its unit and sample count. Details and spans
are written under ``.bench_out/`` in the checkout. BLAS thread variables are
recorded as found and never set here: mc_acceptance_par exists to measure
their effect.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy
import scipy

from spans import LAYERS, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("mc_acceptance", "mc_acceptance_par", "mc_serial_long", "cli_test_large")
# At least this many calls per mode, so a tail percentile with ten samples
# beyond it always exists.
MIN_CALLS = 11
SETUP_ROUNDS = 5
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

END_TO_END_UNITS = {"call_tail_ms": "ms", "peak_rss_mb": "MiB", "setup_s": "s"}
PER_CALL_US = ("dgp.simulate", "panel.difference", "factors.select_num_factors",
               "factors.estimate_factors", "lrv.estimate_lrv_set",
               "statistics.precision_matrix", "statistics.t_ump", "statistics.t_ump_emp",
               "statistics.bn_tests", "statistics.mp_tests", "cli.load_panel_csv",
               "harness.run_single")

IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import panelur.cli, panelur.harness; "
                "print(time.perf_counter() - t)")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def import_seconds() -> float:
    """Import time of the entry-point modules in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                          capture_output=True, text=True, check=True, timeout=120)
    return float(proc.stdout)


def set_up(workload) -> list[float]:
    """Seconds per set-up round: fresh import, input generation and warm-up."""
    rounds = []
    for _ in range(SETUP_ROUNDS):
        imported = import_seconds()
        start = time.perf_counter()
        workload.setup_round()
        rounds.append(imported + time.perf_counter() - start)
    return rounds


def measure(workload, modes: dict, seconds: float, tracer=None) -> dict:
    """Calls per mode (workers, traced), the modes taking turns call by call.

    Taking turns spreads slow spells of a shared machine over every mode, so
    comparisons between modes, such as the tracing overhead, stay fair.
    """
    calls = {name: [] for name in modes}
    start = time.perf_counter()
    while (min(len(c) for c in calls.values()) < MIN_CALLS
           or time.perf_counter() - start < seconds):
        for name, (workers, traced) in modes.items():
            if traced:
                tracer.install()
            try:
                calls[name].append(workload.call(workers))
            finally:
                if traced:
                    tracer.uninstall()
    return calls


def rate(calls: list) -> float:
    return sum(c.passes for c in calls) / sum(c.seconds for c in calls)


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond it."""
    ordered = sorted(values)
    index = len(ordered) - 11
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def peak_rss_mb(workers: int) -> float:
    """Peak RSS of this process plus `workers` times the largest pool worker's.

    At workers=1 the harness runs in-process and no child is counted.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if workers > 1 else 0
    return (own + workers * child) / 1024.0


def manifest(args, workers: int) -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "workers": workers, "nproc": nproc(),
        "cpu_count": os.cpu_count(), "platform": platform.platform(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "env": {name: os.environ.get(name) for name in BLAS_ENV},
    }


def end_to_end(calls: list, setup: list[float], workers: int) -> tuple[dict, list[str]]:
    seconds = [c.seconds for c in calls]
    tail_s, tail_pct = tail(seconds)
    passes = sum(c.passes for c in calls)
    attempted = sum(c.attempted for c in calls)
    failed = sum(c.failed for c in calls)
    values = {
        "call_tail_ms": 1e3 * tail_s,
        "peak_rss_mb": peak_rss_mb(workers),
        "setup_s": statistics.median(setup),
    }
    notes = {
        "call_tail_ms": f"p{tail_pct:.1f} of {len(calls)} calls, 10 beyond it",
        "peak_rss_mb": f"this process + {workers if workers > 1 else 0} x largest pool worker",
        "setup_s": f"median of {len(setup)} set-ups: "
                   + ", ".join(f"{s:.3f}" for s in setup),
    }
    lines = [f"{name:<14} {values[name]:>12.4f} {END_TO_END_UNITS[name]:<4} ({notes[name]})"
             for name in END_TO_END_UNITS]
    lines.append(f"{'reps_per_s':<14} {rate(calls):>12.4f} {'1/s':<4} "
                 f"({passes} pipeline passes in {sum(seconds):.3f} s of calls; printed only)")
    lines.append(f"{'call_p50_ms':<14} {1e3 * statistics.median(seconds):>12.4f} {'ms':<4} "
                 f"(median of {len(calls)} calls; printed only)")
    lines.append(f"{'error_frac':<14} {failed / attempted:>12.4f} {'':<4} "
                 f"({failed} failed of {attempted} attempted)")
    return values, lines


def per_layer(summary: dict, untraced: list, untraced_w1: list,
              traced: list, workers: int) -> dict:
    calls, total_ns = summary["calls"], summary["total_ns"]
    passes = sum(c.attempted for c in traced)

    def mean_us(name):
        return total_ns[name] / calls[name] / 1e3 if calls[name] else 0.0

    values = {f"{name}_us": mean_us(name) for name in PER_CALL_US}
    values["statistics.ump_statistics_calls_per_rep"] = (
        calls["statistics.ump_statistics"] / passes)
    run_ns = total_ns["harness.run"]
    values["harness.overhead_frac"] = (1.0 - total_ns["harness.run_single"] / run_ns
                                       if run_ns else 0.0)
    single_us = mean_us("harness.run_single")
    values["harness.parallel_eff"] = (rate(untraced) / (workers * 1e6 / single_us)
                                      if single_us else 0.0)
    for layer in LAYERS:
        values[f"{layer}.errors"] = summary["errors"][layer]
        values[f"{layer}.self_us_per_rep"] = summary["layer_self_ns"][layer] / passes / 1e3
    values["trace_overhead_frac"] = (
        statistics.median(c.seconds for c in traced)
        / statistics.median(c.seconds for c in untraced_w1) - 1.0)
    return values


def per_layer_unit(name: str) -> str:
    if name.endswith("_us") or name.endswith("_us_per_rep"):
        return "us"
    if name.endswith(".errors") or name.endswith("_calls_per_rep"):
        return "count"
    return "ratio"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "panelur" / "__init__.py").is_file():
        print(f"error: no panelur sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import panelur
    if Path(panelur.__file__).resolve().parent != (SRC / "panelur").resolve():
        print(f"error: panelur imported from {panelur.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads as wl

    with open(BENCH / "reference.json") as fh:
        reference = json.load(fh)
    OUT.mkdir(exist_ok=True)
    workload = wl.make_workload(args.workload, reference, args.seed, nproc(), OUT)

    info = manifest(args, workload.workers)
    print("manifest " + json.dumps(info, sort_keys=True))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    try:
        setup = set_up(workload)
        if not args.trace:
            phases = measure(workload, {"untraced": (workload.workers, False)}, args.seconds)
            values, lines = end_to_end(phases["untraced"], setup, workload.workers)
            units = END_TO_END_UNITS
        else:
            modes = {"untraced": (workload.workers, False), "untraced_w1": (1, False),
                     "traced": (1, True)}
            if workload.workers == 1:
                del modes["untraced_w1"]
            tracer = Tracer()
            phases = measure(workload, modes, args.seconds, tracer)
            tracer.write(OUT / f"spans-{tag}.json")
            values = per_layer(tracer.summary(), phases["untraced"],
                               phases.get("untraced_w1", phases["untraced"]),
                               phases["traced"], workload.workers)
            units = {name: per_layer_unit(name) for name in values}
            lines = [f"{name:<42} {value:>14.4f} {units[name]}"
                     for name, value in values.items()]
    finally:
        workload.close()

    measured = [c for calls in phases.values() for c in calls]
    result = {
        "correct": all(c.correct for c in measured),
        "attempted": sum(c.attempted for c in measured),
        "failed": sum(c.failed for c in measured),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }
    with open(OUT / f"result-{tag}.json", "w") as fh:
        json.dump({"manifest": info, "result": result,
                   "call_seconds": {name: [c.seconds for c in calls]
                                    for name, calls in phases.items()}}, fh, indent=1)
    for line in lines:
        print(line)
    wrong = sum(not c.correct for c in measured)
    print(f"correct: {result['correct']} ({wrong} of {len(measured)} calls differ "
          f"from reference.json)")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
