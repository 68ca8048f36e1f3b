"""Command-line front-end: panel testing, simulation, Monte Carlo runs, power curves.

Panel files are long CSVs with header ``unit,time,value`` describing a
balanced panel. Exit codes: 0 success, 1 usage, 2 data problems,
3 numerical degeneracy.
"""

from __future__ import annotations

import argparse
import codecs
import csv
import io
import json
import platform
import sys
import time
from array import array
from collections import defaultdict
from dataclasses import MISSING, asdict, astuple, fields, is_dataclass, replace
from functools import partial
from math import isfinite
from types import NoneType, UnionType
from typing import NoReturn, get_args, get_origin, get_type_hints

import numpy as np

from . import __version__
from ._blas import _pin_blas, blas_threads
from .asymptotics import emit_power_curve
from .dgp import DgpConfig, simulate
from .errors import DataError, NumericalError
from .harness import Experiment, RESULT_COLUMNS, WORKERS_ENV_VAR, plan_summary, run
from .lrv import LrvConfig
from .oracle import REPORT_COLUMNS, lan_convergence_report
from .panel import Panel
from .statistics import analyze, k_bound

__all__ = ["main", "load_panel_csv", "write_panel_csv"]


def load_panel_csv(path: str) -> Panel:
    """Read a long-format panel CSV and pivot it into a balanced Panel.

    The file is UTF-8, with or without a byte-order mark. Blank rows are skipped
    and fields stripped. Units keep the order of their first row; times are sorted,
    finite numbers first and numerically, any other label after them as text. A
    faulty file, including one with a value that parses to nan or inf, raises
    DataError naming the physical line on which its first faulty record starts,
    when that record is read; a byte that is not UTF-8 is named at its own line.
    A plain file (see _load_plain) is read in blocks; any other file, and any
    fault but a repeated cell or an unbalanced panel, goes through the csv module.
    """
    panel = _load_plain(path)
    return panel if panel is not None else _load_any(path)


# A block holds some 26k field strings at a time. Splitting a whole 1000x200 file at
# once raised peak RSS by about 45 MiB; smaller blocks only add per-block calls.
_BLOCK_BYTES = 1 << 18
_NL, _CR, _COMMA, _QUOTE = (ord(c) for c in '\n\r,"')


def _load_plain(path: str) -> Panel | None:
    """load_panel_csv for a plain file, without the csv module's per-row loop.

    A plain file is ASCII without quotes or lone carriage returns, with a matching
    header and two commas on every later line, and every value a finite float.
    Returns None for any other file, whose faults only _load_any locates. A plain
    file's remaining faults, a repeated cell or an unbalanced panel, raise here
    through _pivot, as they would there.
    """
    units, times = defaultdict(), defaultdict()  # raw label -> first-seen position
    units.default_factory, times.default_factory = units.__len__, times.__len__
    unit_codes, time_codes, values = [], [], []
    with open(path, "rb") as fh:
        header = fh.readline()
        if not (_plain(np.frombuffer(header, np.uint8))
                and _is_header(header.decode("ascii").split(","))):
            return None
        for block in _line_blocks(fh):
            rows = _plain_rows(block)
            if rows is None:
                return None
            unit_labels, time_labels, observed = rows
            unit_codes.append(_codes_in(units, unit_labels))
            time_codes.append(_codes_in(times, time_labels))
            values.append(observed)
    if not values:
        return None
    unit_ids, unit_of = _label_codes(list(units))
    time_ids, time_of = _time_codes(path, list(times))
    # A plain file has no blank lines and no record spanning lines.
    return _pivot(path, unit_ids, unit_of[np.concatenate(unit_codes)], time_ids,
                  time_of[np.concatenate(time_codes)], np.concatenate(values),
                  lambda row: row + 2)


def _line_blocks(fh):
    """The rest of a binary file in blocks of whole lines of about _BLOCK_BYTES; the
    last block may lack its final newline."""
    tail = b""
    for chunk in iter(partial(fh.read, _BLOCK_BYTES), b""):
        block = tail + chunk
        cut = block.rfind(b"\n") + 1
        if cut:
            yield block[:cut]
        tail = block[cut:]
    if tail:
        yield tail


def _text_lines(fh):
    """The rest of a binary file as lines of UTF-8 text, split as in text mode with
    newline="": at LF, CR LF or a lone CR. A block that is not UTF-8 is decoded line by
    line, so its UnicodeDecodeError comes when the faulty line is read."""
    for block in _line_blocks(fh):
        try:
            lines = io.StringIO(block.decode(), newline="")
        except UnicodeDecodeError:
            lines = (line.decode() for line in block.splitlines(True))
        yield from lines


def _plain(raw: np.ndarray) -> bool:
    """Whether the bytes are ASCII without a quote or a carriage return outside CR LF."""
    cr = np.flatnonzero(raw == _CR)
    return bool(raw.max(initial=0) < 0x80 and not (raw == _QUOTE).any() and (
        not cr.size or (cr[-1] + 1 < raw.size and (raw[cr + 1] == _NL).all())))


def _plain_rows(block: bytes) -> tuple[list, list, np.ndarray] | None:
    """The unit labels, time labels and finite values of a block of whole lines, or
    None unless the block is plain with two commas on every line."""
    raw = np.frombuffer(block, np.uint8)
    if not _plain(raw):
        return None
    if block.endswith(b"\n"):  # so the split below makes no empty last record
        block, raw = block[:-1], raw[:-1]
    ends = np.append(np.flatnonzero(raw == _NL), raw.size)
    commas_before = np.searchsorted(np.flatnonzero(raw == _COMMA), ends)
    if (commas_before != 2 * np.arange(1, ends.size + 1)).any():
        return None
    fields = block.decode("ascii").replace("\n", ",").split(",")
    try:
        observed = np.array(fields[2::3], dtype=float)
    except ValueError:
        return None
    if not np.isfinite(observed).all():
        return None
    return fields[0::3], fields[1::3], observed


def _codes_in(seen: defaultdict, labels: list) -> np.ndarray:
    """Each label's value in seen, whose default_factory codes a new label."""
    return np.fromiter(map(seen.__getitem__, labels), dtype=np.intp, count=len(labels))


def _is_header(fields: list) -> bool:
    return [c.strip().lower() for c in fields[:3]] == ["unit", "time", "value"]


def _load_any(path: str) -> Panel:
    """load_panel_csv through the csv module: quoted fields, non-ASCII text and faults.

    The loop keeps the line on which each record starts. A faulty record raises
    DataError at its start line as soon as it is read, after the rows before it
    are checked for a repeated cell; the file is not read again.
    """
    units: list = []
    times: list = []
    values: list = []
    lines = array("q")  # the start line of each row kept
    with open(path, "rb") as fh:
        if fh.read(3) != codecs.BOM_UTF8:
            fh.seek(0)
        reader = csv.reader(_text_lines(fh))
        try:
            header = next(reader, None)
        except csv.Error as exc:  # such as a field above csv.field_size_limit()
            raise DataError(f"{path}:1: {exc}") from None
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}:{reader.line_num + 1}: {_not_utf8(exc)}") from None
        if header is None or not _is_header(header):
            raise DataError(f"{path}: expected header 'unit,time,value'")
        add_unit, add_time, add_value, add_line = (
            units.append, times.append, values.append, lines.append)
        fail = partial(_raise_at, path, units, times, lines)
        start = reader.line_num + 1
        try:
            for row in reader:
                if len(row) == 3:
                    unit, time_label, value = row
                    try:
                        number = float(value)
                    except ValueError:
                        try:  # str.strip() removes a few characters that float() rejects
                            number = float(value.strip())
                        except ValueError:
                            fail(start, f"non-numeric value {value.strip()!r}")
                    if not isfinite(number):
                        fail(start, f"non-finite value {value.strip()!r}")
                    add_unit(unit)
                    add_time(time_label)
                    add_value(number)
                    add_line(start)
                elif not _is_blank(row):
                    fail(start, f"expected 3 fields, got {len(row)}")
                start = reader.line_num + 1
        except csv.Error as exc:
            fail(start, str(exc))
        except UnicodeDecodeError as exc:
            fail(reader.line_num + 1, _not_utf8(exc))
    return _pivot(path, *_label_codes(units), *_time_codes(path, times), np.array(values),
                  lines.__getitem__)


def _not_utf8(exc: UnicodeDecodeError) -> str:
    return f"not UTF-8: byte 0x{exc.object[exc.start]:02x}: {exc.reason}"


def _pivot(path: str, unit_ids: tuple, unit_idx: np.ndarray, time_ids: tuple,
           time_idx: np.ndarray, values: np.ndarray, line_of) -> Panel:
    """The Panel with values[r] in row (unit_idx[r], time_idx[r]). Raises DataError at
    line_of(r) for the first row r, in file order, that repeats a cell, then if the
    panel is empty or not balanced."""
    _check_repeats(path, unit_ids, unit_idx, time_ids, time_idx, line_of)
    if not values.size:
        raise DataError(f"{path}: no observations")
    if values.size != len(unit_ids) * len(time_ids):
        raise DataError(
            f"{path}: unbalanced panel: {values.size} rows for "
            f"{len(unit_ids)} units x {len(time_ids)} times"
        )
    grid = np.empty((len(unit_ids), len(time_ids)))
    grid[unit_idx, time_idx] = values
    return Panel(grid, unit_ids=unit_ids, time_ids=time_ids)


def _is_blank(row: list) -> bool:
    return not row or (len(row) == 1 and not row[0].strip())


def _raise_at(path: str, units: list, times: list, lines, line: int, fault: str) -> NoReturn:
    """Raise fault for the record that starts at line, unless a row read before it,
    starting at lines[row], repeats a cell: that fault comes first in file order."""
    _check_repeats(path, *_label_codes(units), *_label_codes(times), lines.__getitem__)
    raise DataError(f"{path}:{line}: {fault}")


def _check_repeats(path: str, unit_ids: tuple, unit_idx: np.ndarray, time_ids: tuple,
                   time_idx: np.ndarray, line_of) -> None:
    """Raise DataError at line_of(row) for the first row, in file order, that repeats
    a (unit, time) cell."""
    cells = unit_idx * len(time_ids) + time_idx
    order = np.argsort(cells, kind="stable")
    repeats = order[1:][cells[order[1:]] == cells[order[:-1]]]
    if repeats.size:
        row = int(repeats.min())
        key = (unit_ids[unit_idx[row]], time_ids[time_idx[row]])
        raise DataError(f"{path}:{line_of(row)}: duplicate observation for {key}")


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


def _time_codes(path: str, raw: list) -> tuple[tuple, np.ndarray]:
    """_label_codes of the time labels in _label_key order. Two distinct labels that
    rank equal, such as '2' and '02', raise DataError: they would be two periods."""
    labels, codes = _label_codes(raw, key=_label_key)
    for a, b in zip(labels, labels[1:]):
        if _label_key(a) == _label_key(b):
            raise DataError(f"{path}: time labels {a!r} and {b!r} name the same period")
    return labels, codes


def _label_key(label: str):
    """Finite numbers first, in numeric order, then other labels (nan, inf) as text."""
    try:
        number = float(label)
    except ValueError:
        return (1, 0.0, label)
    return (0, number, "") if isfinite(number) else (1, 0.0, label)


def write_panel_csv(path: str, panel: Panel) -> None:
    # Python floats one unit at a time: the whole panel at once raised the peak RSS.
    _write_csv(path, ["unit", "time", "value"],
               ([unit, time_label, value] for unit, row in zip(panel.unit_ids, panel.values)
                for time_label, value in zip(panel.time_ids, row.tolist())))


def _write_csv(path: str, header, rows) -> None:
    """The header and rows as CSV: CRLF line ends, str() of each field, so repr floats."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _lrv_config(args) -> LrvConfig:
    bandwidth = args.bandwidth
    fixed = None
    if bandwidth.startswith("fixed="):
        try:
            fixed = float(bandwidth.split("=", 1)[1])
        except ValueError:
            raise DataError(f"--bandwidth {bandwidth}: B must be a number") from None
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
    bound = None if args.k is not None else k_bound(panel.n_units, panel.n_periods - 1,
                                                    args.kmax)
    payload = {
        "n": panel.n_units,
        "T": panel.n_periods,
        "k": result.k,
        "k_bound": bound,
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
    if bound and result.k == bound:
        print(f"note: k={bound} is the selection bound min(kmax, min(n, T-1) // 2); "
              "IC_p2 may overfit on small panels")
    print(f"lrv: kernel={cfg.kernel} bandwidth={args.bandwidth} prewhiten={cfg.prewhiten}")
    print(f"pooled omega^2={payload['pooled']['omega2']:.6g} "
          f"phi^4={payload['pooled']['phi4']:.6g} delta={payload['pooled']['delta']:.6g}")
    print(f"{'test':<10} {'statistic':>12} {'p-value':>10}  reject at {args.alpha:g}")
    for o in result.outcomes.values():
        print(f"{o.name:<10} {o.statistic:>12.6f} {o.p_value:>10.6f}  {'yes' if o.reject else 'no'}")
    return 0


def _from_json(cls, cfg, what: str, keys: dict | None = None):
    """Build the dataclass `cls` from the JSON object `cfg`, called `what` in errors.

    A field is read from the key of its name, or from keys[name]. An absent key
    leaves the field's default. A bool field takes only true or false, an int field
    only an integer, a float field any number (stored as a float), a tuple field a
    list and a dataclass field an object, read the same way.
    """
    if not isinstance(cfg, dict):
        raise DataError(f"{what} must be a JSON object, got {json.dumps(cfg)}")
    names = {(keys or {}).get(f.name, f.name): f for f in fields(cls)}
    unknown = sorted(set(cfg) - set(names))
    if unknown:
        raise DataError(f"unknown {what} field(s): {', '.join(map(repr, unknown))}")
    for key, f in names.items():
        if key not in cfg and f.default is MISSING and f.default_factory is MISSING:
            raise DataError(f"{what} is missing required field {key!r}")
    hints = get_type_hints(cls)
    return cls(**{names[key].name: _typed(value, hints[names[key].name], what, key)
                  for key, value in cfg.items()})


_JSON_TYPES = {bool: "true or false", int: "an integer", float: "a number", str: "a string"}


def _typed(value, hint, what: str, key: str):
    """The JSON value of the field `key` of a `what` as an instance of the type `hint`."""
    if is_dataclass(hint):
        return _from_json(hint, value, f"{key} config")
    if get_origin(hint) is UnionType:
        if value is None and NoneType in get_args(hint):
            return None
        hint, = (arg for arg in get_args(hint) if arg is not NoneType)
    if get_origin(hint) is tuple:
        args = get_args(hint)
        if isinstance(value, list):
            items = [args[0]] * len(value) if args[-1] is Ellipsis else args
            if len(items) == len(value):
                return tuple(_typed(v, item, what, key) for v, item in zip(value, items))
        expected = "a list" if args[-1] is Ellipsis else f"a list of {len(args)} items"
    elif hint is float and type(value) in (int, float):
        return float(value)
    elif type(value) is hint:  # so a bool is no int, nor an int a bool
        return value
    else:
        expected = _JSON_TYPES[hint]
    raise DataError(f"invalid {what} field {key!r}: expected {expected}, "
                    f"got {json.dumps(value)}")


def _cmd_simulate(args) -> int:
    with open(args.config) as fh:
        config = _from_json(DgpConfig, json.load(fh), "simulation config")
    if args.seed is not None:
        if args.seed < 0:
            raise DataError(f"--seed must be non-negative, got {args.seed}")
        config = replace(config, seed=args.seed)
    sim = simulate(config)
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


def _cmd_mc(args) -> int:
    with open(args.config) as fh:
        exp = _from_json(Experiment, json.load(fh), "experiment config", {"lrv_cfg": "lrv"})
    if args.seed is not None:
        exp = replace(exp, base_seed=args.seed)
    # One thread from here to exit: `run` would otherwise restore the default
    # count after its pool forks, restarting OpenBLAS threads that busy-wait
    # while this process writes its files and exits.
    _pin_blas()
    start = time.perf_counter()
    rows = run(exp, workers=args.workers)
    wall_s = time.perf_counter() - start
    _write_csv(args.out, RESULT_COLUMNS, map(astuple, rows))
    manifest = {
        "experiment": asdict(exp),
        "versions": {"panelur": __version__, "python": platform.python_version(),
                     "numpy": np.__version__},
        **plan_summary(exp, args.workers),
        "blas_threads_per_process": blas_threads(),
        "wall_s": wall_s,
    }
    with open(args.out + ".manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2)
    print(f"wrote {len(rows)} rows to {args.out} and {args.out}.manifest.json")
    return 0


def _cmd_envelope(args) -> int:
    if not 0.0 < args.step < np.inf:
        raise DataError(f"--step must be finite and positive, got {args.step}")
    if not 0.0 <= args.h_max < np.inf:
        raise DataError(f"--h-max must be finite and non-negative, got {args.h_max}")
    grid = np.arange(0.0, args.h_max + args.step / 2.0, args.step)
    curve = emit_power_curve(args.alpha, grid, args.ratio)
    _write_csv(args.out, ["h_abs", "envelope", "mp_bn_power"],
               ([f"{h:g}", env, loc] for h, env, loc in zip(
                   curve.h_grid, curve.envelope.tolist(), curve.local_power.tolist())))
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
        _write_csv(args.csv, REPORT_COLUMNS, ([row[c] for c in REPORT_COLUMNS] for row in rows))
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
    p_test.add_argument("--prewhiten", action=argparse.BooleanOptionalAction, default=True)
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
    except OSError as exc:  # a missing, unreadable or unwritable path
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
