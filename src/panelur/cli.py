"""Command-line front-end: panel testing, simulation, Monte Carlo runs, power curves.

Panel files are long CSVs with header ``unit,time,value`` describing a
balanced panel. Exit codes: 0 success, 1 usage, 2 data problems,
3 numerical degeneracy.
"""

from __future__ import annotations

import argparse
import csv
import json
import platform
import sys
import time
from dataclasses import asdict, fields

import numpy as np
import scipy

from . import __version__
from .asymptotics import emit_power_curve
from .dgp import DgpConfig, InnovationSpec, simulate
from .errors import DataError, NumericalError
from .harness import (Experiment, RESULT_COLUMNS, WORKERS_ENV_VAR, blas_threads, run,
                      worker_count)
from .lrv import LrvConfig
from .oracle import REPORT_COLUMNS, lan_convergence_report
from .panel import Panel
from .statistics import TEST_NAMES, analyze

__all__ = ["main", "load_panel_csv", "write_panel_csv"]


def load_panel_csv(path: str) -> Panel:
    """Read a long-format panel CSV and pivot it into a balanced Panel.

    Blank rows are skipped and fields stripped. Units keep the order of their
    first row; times are sorted, numerically where the labels are numbers. A
    faulty file raises DataError naming the physical line on which its first
    faulty record starts.
    """
    units: list = []
    times: list = []
    values: list = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [c.strip().lower() for c in header[:3]] != ["unit", "time", "value"]:
            raise DataError(f"{path}: expected header 'unit,time,value'")
        add_unit, add_time, add_value = units.append, times.append, values.append
        for row in reader:
            if len(row) != 3:
                if _is_blank(row):
                    continue
                _raise_at(path, f"expected 3 fields, got {len(row)}", units, times)
            unit, time_label, value = row
            try:
                add_value(float(value))
            except ValueError:
                try:  # str.strip() removes a few characters that float() rejects
                    add_value(float(value.strip()))
                except ValueError:
                    _raise_at(path, f"non-numeric value {value.strip()!r}", units, times)
            add_unit(unit)
            add_time(time_label)
    unit_ids, time_ids, rows = _index_rows(path, units, times)
    if not values:
        raise DataError(f"{path}: no observations")
    if len(values) != len(unit_ids) * len(time_ids):
        raise DataError(
            f"{path}: unbalanced panel: {len(values)} rows for "
            f"{len(unit_ids)} units x {len(time_ids)} times"
        )
    grid = np.empty((len(unit_ids), len(time_ids)))
    grid[rows] = values
    return Panel(grid, unit_ids=unit_ids, time_ids=time_ids)


def _is_blank(row: list) -> bool:
    return not row or (len(row) == 1 and not row[0].strip())


def _record_line(path: str, row: int) -> int:
    """The physical line on which the row-th (from 0) non-blank record after the header
    starts. Called only on a fault, so the loader's loop keeps no line numbers."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        start = reader.line_num + 1
        for record in reader:
            if not _is_blank(record):
                if row == 0:
                    break
                row -= 1
            start = reader.line_num + 1
    return start


def _raise_at(path: str, fault: str, units: list, times: list):
    """Raise the fault of the record after the rows read so far, unless an earlier row
    repeats a cell."""
    _index_rows(path, units, times)
    raise DataError(f"{path}:{_record_line(path, len(units))}: {fault}")


def _index_rows(path: str, units: list, times: list):
    """Unit labels (first-seen order), time labels (sorted) and each row's (unit, time)
    index arrays. Raises DataError at the first row, in file order, that repeats a cell."""
    unit_ids, unit_idx = _label_codes(units)
    time_ids, time_idx = _label_codes(times, key=_label_key)
    cells = unit_idx * len(time_ids) + time_idx
    order = np.argsort(cells, kind="stable")
    repeats = order[1:][cells[order[1:]] == cells[order[:-1]]]
    if repeats.size:
        row = int(repeats.min())
        key = (unit_ids[unit_idx[row]], time_ids[time_idx[row]])
        raise DataError(f"{path}:{_record_line(path, row)}: duplicate observation for {key}")
    return unit_ids, time_ids, (unit_idx, time_idx)


def _label_codes(raw: list, key=None) -> tuple[tuple, np.ndarray]:
    """The distinct stripped labels (first-seen order, or sorted by key) and the
    index of each raw label among them."""
    distinct = dict.fromkeys(raw)
    labels = list(dict.fromkeys(label.strip() for label in distinct))
    if key is not None:
        labels.sort(key=key)
    position = {label: i for i, label in enumerate(labels)}
    code = {label: position[label.strip()] for label in distinct}
    return tuple(labels), np.fromiter(map(code.__getitem__, raw), dtype=np.intp, count=len(raw))


def _label_key(label: str):
    try:
        return (0, float(label), "")
    except ValueError:
        return (1, 0.0, label)


def write_panel_csv(path: str, panel: Panel) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["unit", "time", "value"])
        for i, unit in enumerate(panel.unit_ids):
            for j, time_label in enumerate(panel.time_ids):
                writer.writerow([unit, time_label, repr(float(panel.values[i, j]))])


def _lrv_config(args) -> LrvConfig:
    bandwidth = args.bandwidth
    fixed = None
    if bandwidth.startswith("fixed="):
        fixed = float(bandwidth.split("=", 1)[1])
        bandwidth = "fixed"
    elif bandwidth == "newey-west":
        bandwidth = "newey_west"
    return LrvConfig(kernel=args.kernel, bandwidth=bandwidth,
                     fixed_bandwidth=fixed, prewhiten=args.prewhiten)


def _cmd_test(args) -> int:
    panel = load_panel_csv(args.panel)
    cfg = _lrv_config(args)
    result = analyze(panel, k=args.k, k_max=args.kmax, lrv_cfg=cfg, alpha=args.alpha)
    lrvs = result.lrvs
    payload = {
        "n": panel.n_units,
        "T": panel.n_periods,
        "k": result.k,
        "alpha": args.alpha,
        "kernel": cfg.kernel,
        "bandwidth": args.bandwidth,
        "prewhiten": cfg.prewhiten,
        "omega2": [float(v) for v in lrvs.omega2],
        "delta": [float(v) for v in lrvs.delta],
        "pooled": {"omega2": lrvs.pooled_omega2, "phi4": lrvs.pooled_phi4,
                   "delta": lrvs.pooled_delta},
        "tests": {
            name: {"statistic": o.statistic, "p_value": o.p_value, "reject": o.reject}
            for name, o in result.outcomes.items()
        },
    }
    if args.json:
        print(json.dumps(payload, indent=2))
        return 0
    print(f"panel: n={payload['n']} T={payload['T']}  factors: {result.k}")
    print(f"lrv: kernel={cfg.kernel} bandwidth={args.bandwidth} prewhiten={cfg.prewhiten}")
    print(f"pooled omega^2={payload['pooled']['omega2']:.6g} "
          f"phi^4={payload['pooled']['phi4']:.6g} delta={payload['pooled']['delta']:.6g}")
    print(f"{'test':<10} {'statistic':>12} {'p-value':>10}  reject at {args.alpha:g}")
    for o in result.outcomes.values():
        print(f"{o.name:<10} {o.statistic:>12.6f} {o.p_value:>10.6f}  {'yes' if o.reject else 'no'}")
    return 0


def _reject_unknown(cfg: dict, known: set, what: str) -> None:
    unknown = sorted(set(cfg) - known)
    if unknown:
        raise DataError(f"unknown {what} field(s): {', '.join(map(repr, unknown))}")


def _dgp_from_json(cfg: dict) -> DgpConfig:
    _reject_unknown(cfg, {f.name for f in fields(DgpConfig)}, "simulation config")

    def spec(entry, default_target=1.0):
        entry = dict(entry or {})
        entry.setdefault("target_lrv", default_target)
        return InnovationSpec(**entry)

    try:
        return DgpConfig(
            framework=cfg["framework"],
            n=int(cfg["n"]),
            T=int(cfg["T"]),
            h=float(cfg.get("h", 0.0)),
            K=int(cfg.get("K", 1)),
            factor_spec=spec(cfg.get("factor_spec")),
            idio_spec=spec(cfg.get("idio_spec")),
            lrv_ratio=float(cfg.get("lrv_ratio", 1.0)),
            heterogeneous_alternatives=bool(cfg.get("heterogeneous_alternatives", False)),
            panic_stationary_factors=bool(cfg.get("panic_stationary_factors", False)),
            seed=int(cfg.get("seed", 0)),
        )
    except KeyError as exc:
        raise DataError(f"simulation config is missing required field {exc.args[0]!r}") from exc
    except TypeError as exc:
        raise DataError(f"invalid simulation config field: {exc}") from exc


def _cmd_simulate(args) -> int:
    with open(args.config) as fh:
        cfg = json.load(fh)
    if args.seed is not None:
        if args.seed < 0:
            raise DataError(f"--seed must be non-negative, got {args.seed}")
        cfg["seed"] = args.seed
    sim = simulate(_dgp_from_json(cfg))
    write_panel_csv(args.out, sim.panel)
    sidecar = {
        "loadings": [[float(v) for v in row] for row in sim.true_loadings],
        "true_lrvs": [float(v) for v in sim.true_lrvs],
        "rho_used": [float(v) for v in sim.rho_used],
    }
    with open(args.out + ".truth.json", "w") as fh:
        json.dump(sidecar, fh, indent=2)
    print(f"wrote {args.out} and {args.out}.truth.json")
    return 0


def _experiment_from_json(cfg: dict) -> Experiment:
    known = {f.name for f in fields(Experiment)} - {"lrv_cfg"} | {"lrv"}
    _reject_unknown(cfg, known, "experiment config")
    lrv = dict(cfg.get("lrv", {}))
    _reject_unknown(lrv, {f.name for f in fields(LrvConfig)}, "lrv config")
    lrv_cfg = LrvConfig(
        kernel=lrv.get("kernel", "bartlett"),
        bandwidth=lrv.get("bandwidth", "andrews"),
        fixed_bandwidth=lrv.get("fixed_bandwidth"),
        prewhiten=bool(lrv.get("prewhiten", True)),
    )
    try:
        return Experiment(
            frameworks=tuple(cfg.get("frameworks", ["PANIC"])),
            sizes=tuple(tuple(s) for s in cfg.get("sizes", [[50, 100]])),
            ratios=tuple(cfg.get("ratios", [1.0])),
            innovations=tuple(cfg.get("innovations", ["iid"])),
            distributions=tuple(cfg.get("distributions", ["gaussian"])),
            h_values=tuple(cfg.get("h_values", [0.0])),
            k=int(cfg.get("k", 1)),
            k_known=bool(cfg.get("k_known", True)),
            k_max=int(cfg.get("k_max", 6)),
            innovation_parameter=float(cfg.get("innovation_parameter", 0.4)),
            heterogeneous_alternatives=bool(cfg.get("heterogeneous_alternatives", False)),
            panic_stationary_factors=bool(cfg.get("panic_stationary_factors", False)),
            lrv_cfg=lrv_cfg,
            tests=tuple(cfg.get("tests", list(TEST_NAMES))),
            alpha=float(cfg.get("alpha", 0.05)),
            replications=int(cfg.get("replications", 100)),
            base_seed=int(cfg.get("base_seed", 0)),
        )
    except TypeError as exc:
        raise DataError(f"invalid experiment config: {exc}") from exc


def _cmd_mc(args) -> int:
    with open(args.config) as fh:
        cfg = json.load(fh)
    if args.seed is not None:
        cfg["base_seed"] = args.seed
    exp = _experiment_from_json(cfg)
    start = time.perf_counter()
    rows = run(exp, workers=args.workers)
    wall_s = time.perf_counter() - start
    with open(args.out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=RESULT_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow(row.as_dict())
    manifest = {
        "experiment": asdict(exp),
        "versions": {"panelur": __version__, "python": platform.python_version(),
                     "numpy": np.__version__, "scipy": scipy.__version__},
        "workers": worker_count(exp, args.workers),
        "blas_threads_per_process": blas_threads(),
        "wall_s": wall_s,
    }
    with open(args.out + ".manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2)
    print(f"wrote {len(rows)} rows to {args.out} and {args.out}.manifest.json")
    return 0


def _cmd_envelope(args) -> int:
    grid = np.arange(0.0, args.h_max + args.step / 2.0, args.step)
    curve = emit_power_curve(args.alpha, grid, args.ratio)
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["h_abs", "envelope", "mp_bn_power"])
        for h, env, loc in zip(curve.h_grid, curve.envelope, curve.local_power):
            writer.writerow([f"{h:g}", repr(float(env)), repr(float(loc))])
    print(f"wrote {curve.h_grid.size} rows to {args.out}")
    return 0


def _cmd_selftest(args) -> int:
    if args.seeds < 2:  # every check rests on a sample variance
        raise DataError(f"--seeds must be at least 2, got {args.seeds}")
    if args.seed < 0:  # numpy's SeedSequence would reject it mid-report
        raise DataError(f"--seed must be non-negative, got {args.seed}")
    failures = []

    def check(label: str, ok: bool):
        print(f"{'ok  ' if ok else 'FAIL'} {label}")
        if not ok:
            failures.append(label)

    rows = lan_convergence_report(sizes=[(10, 50), (20, 100)], seeds=args.seeds,
                                  base_seed=args.seed)
    by_size = {}
    for row in rows:
        by_size.setdefault((row["n"], row["T"]), {})[row["quantity"]] = row
    for size, quantities in sorted(by_size.items()):
        var = quantities["delta_simplified"]["variance"]
        check(f"central sequence variance near 1/2 at {size}: {var:.3f}", 0.2 < var < 0.9)
    small, large = (by_size[s] for s in sorted(by_size))
    for gap in ("gap_panic_vs_simplified", "gap_mp_vs_smw", "gap_smw_vs_star",
                "gap_star_vs_simplified"):
        shrunk = large[gap]["median_abs_diff"] <= small[gap]["median_abs_diff"] * 1.5
        check(f"{gap} does not grow with size", shrunk)
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=REPORT_COLUMNS)
            writer.writeheader()
            for row in rows:
                writer.writerow(row)
        print(f"wrote report to {args.csv}")
    if failures:
        print(f"{len(failures)} selftest checks failed", file=sys.stderr)
        return 3
    print("selftest passed")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="panelur",
        description="Panel unit-root tests under cross-sectional dependence",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_test = sub.add_parser("test", help="run all tests on a panel CSV")
    p_test.add_argument("panel", help="long CSV with header unit,time,value")
    p_test.add_argument("--k", type=int, default=None, help="number of factors (default: select)")
    p_test.add_argument("--kmax", type=int, default=6, help="max factors for selection")
    p_test.add_argument("--kernel", choices=["bartlett", "quadratic_spectral"],
                        default="bartlett")
    p_test.add_argument("--bandwidth", default="andrews",
                        help="andrews | newey-west | fixed=B")
    p_test.add_argument("--prewhiten", dest="prewhiten", action="store_true", default=True)
    p_test.add_argument("--no-prewhiten", dest="prewhiten", action="store_false")
    p_test.add_argument("--alpha", type=float, default=0.05)
    p_test.add_argument("--json", action="store_true", help="machine-readable output")
    p_test.set_defaults(func=_cmd_test)

    p_sim = sub.add_parser("simulate", help="simulate a panel from a JSON config")
    p_sim.add_argument("config", help="JSON file with DGP fields")
    p_sim.add_argument("out", help="output panel CSV (truth sidecar written next to it)")
    p_sim.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_sim.set_defaults(func=_cmd_simulate)

    p_mc = sub.add_parser("mc", help="run a Monte Carlo experiment grid")
    p_mc.add_argument("config", help="JSON file with experiment fields")
    p_mc.add_argument("out", help="output CSV of rejection rates")
    p_mc.add_argument("--seed", type=int, default=None, help="override the base seed")
    p_mc.add_argument("--workers", type=int, default=None,
                      help=f"worker processes (default: ${WORKERS_ENV_VAR} or all cores)")
    p_mc.set_defaults(func=_cmd_mc)

    p_env = sub.add_parser("envelope", help="emit power envelope and MP/BN asymptote CSV")
    p_env.add_argument("out", help="output CSV")
    p_env.add_argument("--alpha", type=float, default=0.05)
    p_env.add_argument("--ratio", type=float, default=1.0)
    p_env.add_argument("--h-max", type=float, default=10.0)
    p_env.add_argument("--step", type=float, default=0.5)
    p_env.set_defaults(func=_cmd_envelope)

    p_self = sub.add_parser("selftest", help="run the numerical verification suite")
    p_self.add_argument("--seeds", type=int, default=100)
    p_self.add_argument("--seed", type=int, default=0)
    p_self.add_argument("--csv", default=None, help="also write the report CSV here")
    p_self.set_defaults(func=_cmd_selftest)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: invalid JSON: {exc}", file=sys.stderr)
        return 2
    # LinAlgError subclasses ValueError, so it must be caught first.
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except (DataError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
