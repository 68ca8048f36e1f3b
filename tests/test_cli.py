"""Command-line interface: file formats, subcommands, exit codes."""

import argparse
import codecs
import csv
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from panelur import DgpConfig, analyze, cli, harness, simulate, statistics
from panelur._blas import _blas_controls, blas_threads
from panelur.cli import load_panel_csv, main, write_panel_csv
from panelur.errors import DataError
from panelur.factors import fit_stack
from panelur.panel import Panel

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.fixture()
def sim_config(tmp_path):
    cfg = {"framework": "PANIC", "n": 25, "T": 100, "h": 0.0, "K": 1,
           "lrv_ratio": 0.8, "seed": 42}
    path = tmp_path / "dgp.json"
    path.write_text(json.dumps(cfg))
    return path


def _must_not_run(*args):
    raise AssertionError("a replication ran")


def _run_test_json(panel_path, *extra):
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(["test", str(panel_path), "--json", *extra])
    assert code == 0
    return json.loads(buf.getvalue())


def _outcome(load, path):
    """A comparable summary of load(path): the Panel's labels and values, or the error."""
    try:
        panel = load(path)
    except Exception as exc:
        return type(exc), str(exc)
    if panel is None:
        return None
    return panel.unit_ids, panel.time_ids, panel.values.tolist()


# Labels and value spellings on which float(), str.strip(), the csv module and a plain
# split could disagree: padding, numeric-looking labels, underscores, nan/inf spellings,
# overflow, a separator that float() rejects but strip() removes, non-ASCII and quotes.
# A file may also begin with a UTF-8 byte-order mark.
_LABELS = ["a", " a", "a ", "b", "1", "01", "1.0", "10", "x\x1c", "nan", "NaN"]
_ODD_LABELS = ["\u00e9", '"c"', '"d,e"']
_ODD_VALUES = ["1_0", " 3.25 ", "\t-2\t", "nan", "inf", "-Infinity", "1e400", "\x1c1.5",
               "\u0663", '"4.0"', "oops", "", "0x10", "+.5"]


@st.composite
def _panel_files(draw):
    """Bytes of a long panel CSV: a clean balanced grid, then a few faults drawn in."""
    labels = st.sampled_from(_LABELS + (_ODD_LABELS if draw(st.booleans()) else []))
    units = draw(st.lists(labels, min_size=1, max_size=3))
    times = draw(st.lists(labels, min_size=1, max_size=3))
    cells = draw(st.permutations([(u, t) for u in units for t in times]))
    cells = cells[:len(cells) - draw(st.integers(0, 1))]
    cells += draw(st.lists(st.sampled_from(cells), max_size=1)) if cells else []
    lines = [f"{u},{t},{v!r}" for (u, t), v in
             zip(cells, draw(st.lists(st.floats(-1e6, 1e6), min_size=len(cells),
                                      max_size=len(cells))))]
    index = st.integers(0, max(len(lines) - 1, 0))
    for i, value in draw(st.lists(st.tuples(index, st.sampled_from(_ODD_VALUES)), max_size=2)):
        if lines:
            lines[i] = lines[i].rsplit(",", 1)[0] + "," + value
    if lines and draw(st.booleans()):  # a field too many, a lone CR, or a blank line
        i = draw(index)
        lines[i:i + 1] = draw(st.sampled_from([[lines[i] + ","], [lines[i].replace(",", "\r,", 1)],
                                               ["", lines[i]], ["  ", lines[i]]]))
    header = draw(st.sampled_from(["unit,time,value", " Unit ,TIME, value ",
                                   "unit,time,value,note", "unit,time"]))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = end.join([header, *lines]) + (end if draw(st.booleans()) else "")
    return (codecs.BOM_UTF8 if draw(st.booleans()) else b"") + text.encode("utf-8")


class TestPanelCsv:
    def test_roundtrip(self, tmp_path):
        panel = Panel(np.random.default_rng(0).normal(size=(3, 4)),
                      unit_ids=("a", "b", "c"), time_ids=(1, 2, 3, 4))
        path = tmp_path / "panel.csv"
        write_panel_csv(path, panel)
        back = load_panel_csv(str(path))
        assert np.array_equal(back.values, panel.values)
        assert back.unit_ids == ("a", "b", "c")

    def test_unbalanced_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("unit,time,value\nA,1,1.0\nA,2,2.0\nB,1,3.0\n")
        with pytest.raises(DataError, match="unbalanced"):
            load_panel_csv(str(path))

    def test_parse_error_reports_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("unit,time,value\nA,1,1.0\nA,2,oops\n")
        with pytest.raises(DataError, match=":3:"):
            load_panel_csv(str(path))

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(DataError, match="header"):
            load_panel_csv(str(path))

    def test_time_labels_sorted_numerically(self, tmp_path):
        path = tmp_path / "p.csv"
        rows = ["unit,time,value"]
        for t in (10, 2, 1):
            rows.append(f"u,{t},{float(t)}")
        path.write_text("\n".join(rows) + "\n")
        panel = load_panel_csv(str(path))
        assert panel.time_ids == ("1", "2", "10")
        assert list(panel.values[0]) == [1.0, 2.0, 10.0]

    def test_duplicate_row_reports_line_and_key(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("unit,time,value\nA,1,1.0\nA,2,2.0\nA,1,3.0\n")
        with pytest.raises(DataError, match=r":4: duplicate observation for \('A', '1'\)"):
            load_panel_csv(str(path))

    def test_wrong_field_count_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("unit,time,value\nA,1,1.0\nA,2\n")
        with pytest.raises(DataError, match=":3: expected 3 fields, got 2"):
            load_panel_csv(str(path))

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("unit,time,value\n\nA,1,1.0\n   \nA,2,2.0\n\n")
        panel = load_panel_csv(str(path))
        assert panel.values.tolist() == [[1.0, 2.0]]

    def test_whitespace_around_fields_stripped(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("unit,time,value\n A , 1 , 1.5 \nA,2,2.5\n")
        panel = load_panel_csv(str(path))
        assert panel.unit_ids == ("A",)
        assert panel.time_ids == ("1", "2")
        assert panel.values.tolist() == [[1.5, 2.5]]

    def test_quoted_label_with_comma(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text('unit,time,value\n"Smith, J",1,1.0\n"Smith, J",2,2.0\n')
        panel = load_panel_csv(str(path))
        assert panel.unit_ids == ("Smith, J",)

    def test_unit_order_by_first_appearance(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("unit,time,value\nz,2,1.0\na,1,2.0\nm,2,3.0\n"
                        "a,2,4.0\nz,1,5.0\nm,1,6.0\n")
        panel = load_panel_csv(str(path))
        assert panel.unit_ids == ("z", "a", "m")
        assert panel.values.tolist() == [[5.0, 1.0], [2.0, 4.0], [6.0, 3.0]]

    def test_first_error_in_file_order_wins(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("unit,time,value\nA,1,1.0\nA,2,oops\nA,1,3.0\n")
        with pytest.raises(DataError, match=":3: non-numeric value 'oops'"):
            load_panel_csv(str(path))

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity", "1e400"])
    def test_non_finite_value_reports_line(self, tmp_path, value):
        path = tmp_path / "bad.csv"
        path.write_text(f"unit,time,value\nA,1,1.0\n\nA,2, {value} \nB,1,nan\nB,2,2.0\n")
        with pytest.raises(DataError, match=f":4: non-finite value '{value}'$"):
            load_panel_csv(str(path))

    def test_non_finite_value_in_file_order(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("unit,time,value\nA,1,1.0\nA,2,nan\nA,3,oops\n")
        with pytest.raises(DataError, match=":3: non-finite value 'nan'"):
            load_panel_csv(str(path))
        path.write_text("unit,time,value\nA,1,1.0\nA,1,2.0\nA,2,nan\n")
        with pytest.raises(DataError, match=":3: duplicate observation"):
            load_panel_csv(str(path))

    def test_duplicate_line_counts_blank_rows(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("unit,time,value\nA,1,1.0\n\n  \nA,2,2.0\n\nA,2,3.0\nB,1,4.0\n")
        with pytest.raises(DataError, match=r":7: duplicate observation for \('A', '2'\)"):
            load_panel_csv(str(path))

    def test_earlier_duplicate_beats_later_parse_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("unit,time,value\nA,1,1.0\n A ,1,2.0\nA,2,oops\nA,3\n")
        with pytest.raises(DataError, match=r":3: duplicate observation for \('A', '1'\)"):
            load_panel_csv(str(path))

    def test_parse_error_line_counts_multiline_records(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text('unit,time,value\n"a\nb",1,1.0\n"a\nb",2,1.0\nc,1,oops\n')
        with pytest.raises(DataError, match=":6: non-numeric value 'oops'"):
            load_panel_csv(str(path))

    def test_duplicate_line_counts_multiline_records(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text('unit,time,value\n"a\nb",1,1.0\n"a\nb",2,1.0\nc,1,1.0\nc,1,2.0\n')
        with pytest.raises(DataError, match=r":7: duplicate observation for \('c', '1'\)"):
            load_panel_csv(str(path))

    def test_header_only_has_no_observations(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("unit,time,value\n")
        with pytest.raises(DataError, match="no observations"):
            load_panel_csv(str(path))

    def test_oversized_field_reports_line(self, tmp_path, capsys):
        # A quoted field above csv.field_size_limit() (131072 characters by default).
        path = tmp_path / "long.csv"
        path.write_text('unit,time,value\nA,1,1.0\n"' + "x" * 200_000 + '",1,2.0\n')
        with pytest.raises(DataError, match=r":3: field larger than field limit"):
            load_panel_csv(str(path))
        assert main(["test", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}:3: field larger")

    def test_oversized_header_field_reports_line(self, tmp_path):
        path = tmp_path / "long.csv"
        path.write_text('"' + "u" * 200_000 + '",time,value\nA,1,1.0\n')
        with pytest.raises(DataError, match=r":1: field larger than field limit"):
            load_panel_csv(str(path))

    @pytest.mark.parametrize("quote", ["", '"'], ids=["block_path", "csv_path"])
    def test_equal_ranked_time_labels_rejected(self, tmp_path, quote):
        path = tmp_path / "times.csv"
        path.write_text("unit,time,value\n" + "".join(
            f"{quote}{u}{quote},{t},1.5\n" for u in "AB" for t in ("1", "02", "2")))
        if quote:  # the block path declines a quoted file; the csv path reads it
            assert cli._load_plain(str(path)) is None
        for load in (load_panel_csv, cli._load_any) + (() if quote else (cli._load_plain,)):
            with pytest.raises(DataError, match="time labels '02' and '2' name the same period"):
                load(str(path))

    @pytest.mark.parametrize("times", [("2", "nan", "1"), ("nan", "1", "2")])
    def test_nan_time_label_sorts_as_text(self, tmp_path, times):
        path = tmp_path / "p.csv"
        path.write_text("unit,time,value\n" + "".join(f"u,{t},{i}\n" for i, t in enumerate(times)))
        panel = load_panel_csv(str(path))
        assert panel.time_ids == ("1", "2", "nan")
        assert panel.values[0].tolist() == [float(times.index(t)) for t in panel.time_ids]

    def test_byte_order_mark_skipped(self, tmp_path):
        text = b"unit,time,value\nA,1,1.0\nA,2,2.0\nB,1,3.0\nB,2,4.0\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_bytes(text)
        marked.write_bytes(codecs.BOM_UTF8 + text)
        panel = load_panel_csv(str(marked))
        assert panel.unit_ids == ("A", "B")
        assert _outcome(load_panel_csv, str(marked)) == _outcome(load_panel_csv, str(plain))

    def test_byte_not_utf8_reports_line(self, tmp_path, capsys):
        # A Latin-1 label: 0xE9 is "\u00e9" there, and no UTF-8 sequence starts so.
        path = tmp_path / "latin.csv"
        path.write_bytes("unit,time,value\nA,1,1.0\ncaf\u00e9,1,2.0\n".encode("latin-1"))
        with pytest.raises(DataError, match=":3: not UTF-8: byte 0xe9: invalid continuation"):
            load_panel_csv(str(path))
        assert main(["test", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}:3: not UTF-8: byte 0xe9: invalid continuation byte\n")

    @pytest.mark.parametrize("rows, line, fault", [
        (["A,2,oops", "caf\xe9,1,2.0"], 3, "non-numeric value 'oops'"),
        (["A,1,2.0", "caf\xe9,1,2.0"], 3, "duplicate observation"),
        (["caf\xe9,1,2.0", "A,2,oops"], 3, "not UTF-8: byte 0xe9"),
        (['"a', 'caf\xe9",1,2.0'], 4, "not UTF-8: byte 0xe9"),
    ], ids=["fault_first", "duplicate_first", "byte_first", "byte_in_multiline_record"])
    @pytest.mark.parametrize("block_bytes", [None, 8])
    def test_byte_not_utf8_in_file_order(self, tmp_path, monkeypatch, rows, line, fault,
                                         block_bytes):
        # The byte's line is read only after the lines before it, in any block size.
        if block_bytes is not None:
            monkeypatch.setattr(cli, "_BLOCK_BYTES", block_bytes)
        path = tmp_path / "bad.csv"
        path.write_bytes("\n".join(["unit,time,value", "A,1,1.0", *rows, ""]).encode("latin-1"))
        with pytest.raises(DataError, match=f":{line}: {fault}"):
            load_panel_csv(str(path))

    @given(_panel_files(), st.sampled_from([cli._BLOCK_BYTES, 1, 7, 32]))
    @settings(max_examples=100, deadline=None)
    def test_text_lines_split_as_text_mode(self, content, block_bytes):
        # The csv path decodes blocks itself; its lines are those of open(newline="").
        with mock.patch.object(cli, "_BLOCK_BYTES", block_bytes):
            lines = list(cli._text_lines(io.BytesIO(content)))
        assert lines == list(io.TextIOWrapper(io.BytesIO(content), "utf-8", newline=""))

    @pytest.mark.parametrize("text, opens", [
        ('unit,time,value\n"A",1,1.0\n"A",2,oops\n', 2),  # the plain attempt, the csv read
        ("unit,time,value\nA,1,1.0\nA,1,2.0\n", 1),  # a plain file with a repeated cell
    ], ids=["quoted_fault", "plain_duplicate"])
    def test_faulty_file_not_read_again(self, tmp_path, monkeypatch, text, opens):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        opened = []

        def counting_open(*args, **kwargs):
            opened.append(args[0])
            return open(*args, **kwargs)

        monkeypatch.setattr(cli, "open", counting_open, raising=False)
        with pytest.raises(DataError, match=":3: "):
            load_panel_csv(str(path))
        assert opened == [str(path)] * opens

    @given(st.integers(1, 5), st.integers(2, 6), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_shuffled_rows_roundtrip(self, n, t, seed):
        rng = np.random.default_rng(seed)
        panel = Panel(rng.normal(size=(n, t)) * 10.0 ** rng.integers(-8, 8, size=(n, t)),
                      unit_ids=tuple(f"u{i}" for i in range(n)),
                      time_ids=tuple(str(j) for j in range(1, t + 1)))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "panel.csv")
            write_panel_csv(path, panel)
            with open(path) as fh:
                header, *rows = fh.read().splitlines()
            rows = [rows[k] for k in rng.permutation(len(rows))]
            with open(path, "w") as fh:
                fh.write("\n".join([header, *rows]) + "\n")
            back = load_panel_csv(path)
        # Units come back in order of first appearance, times in label order.
        first_seen = tuple(dict.fromkeys(row.split(",")[0] for row in rows))
        order = [panel.unit_ids.index(unit) for unit in first_seen]
        assert back.unit_ids == first_seen
        assert back.time_ids == panel.time_ids
        assert np.array_equal(back.values, panel.values[order])

    @pytest.mark.parametrize("block_bytes", [None, 16])
    def test_plain_file_read_without_csv_module(self, tmp_path, monkeypatch, block_bytes):
        rng = np.random.default_rng(5)
        panel = Panel(rng.normal(size=(60, 200)), unit_ids=tuple(f"u{i}" for i in range(60)),
                      time_ids=tuple(range(1, 201)))
        path = tmp_path / "panel.csv"
        write_panel_csv(path, panel)
        if block_bytes is not None:  # shorter than a line: every block ends mid-line
            monkeypatch.setattr(cli, "_BLOCK_BYTES", block_bytes)
        assert b"\r\n" in path.read_bytes()[:20]
        assert path.stat().st_size > cli._BLOCK_BYTES

        def no_reader(*args, **kwargs):
            raise AssertionError("csv.reader called on a plain file")

        monkeypatch.setattr(csv, "reader", no_reader)
        back = load_panel_csv(str(path))
        assert np.array_equal(back.values, panel.values)
        assert back.unit_ids == panel.unit_ids
        assert back.time_ids == tuple(str(t) for t in panel.time_ids)

    @given(_panel_files(), st.sampled_from([cli._BLOCK_BYTES, 1, 7, 32]))
    @settings(max_examples=300, deadline=None)
    @example(b"unit,time,value\nA,1\r,1.0\nA,2,2.0\n", cli._BLOCK_BYTES)  # a lone CR
    def test_block_and_csv_paths_agree(self, content, block_bytes):
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(cli, "_BLOCK_BYTES", block_bytes):
            path = os.path.join(tmp, "panel.csv")
            with open(path, "wb") as fh:
                fh.write(content)
            event("block path" if _outcome(cli._load_plain, path) is not None else "csv path")
            assert _outcome(load_panel_csv, path) == _outcome(cli._load_any, path)


class TestSimulateAndTest:
    def test_simulate_then_test(self, tmp_path, sim_config):
        out = tmp_path / "panel.csv"
        assert main(["simulate", str(sim_config), str(out)]) == 0
        sidecar = json.loads((tmp_path / "panel.csv.truth.json").read_text())
        assert len(sidecar["loadings"]) == 25
        assert len(sidecar["loadings"][0]) == 1
        payload = _run_test_json(out)
        assert set(payload["tests"]) == {"t_ump", "t_ump_emp", "p_a", "p_b", "t_a", "t_b"}
        for rec in payload["tests"].values():
            assert np.isfinite(rec["statistic"])
            assert 0.0 <= rec["p_value"] <= 1.0

    def test_k_at_selection_bound_flagged(self, tmp_path, capsys):
        # IC_p2 overfits 12 x 40 panels: with one true factor it selects the bound.
        path = tmp_path / "small.csv"
        write_panel_csv(path, simulate(DgpConfig(framework="PANIC", n=12, T=40, K=1,
                                                 lrv_ratio=0.8, seed=0)).panel)
        for extra in [(), ("--kmax", "1000")]:
            payload = _run_test_json(path, *extra)
            assert (payload["k"], payload["k_bound"]) == (6, 6)
        assert main(["test", str(path)]) == 0
        notes = [line for line in capsys.readouterr().out.splitlines() if "note" in line]
        assert notes == ["note: k=6 is the selection bound min(kmax, min(n, T-1) // 2); "
                         "IC_p2 may overfit on small panels"]

    def test_k_below_selection_bound_not_flagged(self, tmp_path, sim_config, capsys):
        out = tmp_path / "panel.csv"
        main(["simulate", str(sim_config), str(out)])
        assert _run_test_json(out)["k_bound"] == 6
        assert _run_test_json(out, "--kmax", "0")["k_bound"] == 0
        fixed = _run_test_json(out, "--k", "1")
        assert (fixed["k"], fixed["k_bound"]) == (1, None)
        for extra in [(), ("--kmax", "0"), ("--k", "1")]:
            capsys.readouterr()
            assert main(["test", str(out), *extra]) == 0
            assert "note" not in capsys.readouterr().out

    def test_analysis_runs_at_one_blas_thread(self, tmp_path, sim_config, monkeypatch):
        controls = _blas_controls()
        if not controls:
            pytest.skip("no OpenBLAS whose thread count panelur may set")

        def counts():
            return [get_threads() for _, get_threads in controls]

        before, seen = counts(), []

        def spy(*args, **kwargs):
            seen.append(counts())
            return fit_stack(*args, **kwargs)

        out = tmp_path / "panel.csv"
        main(["simulate", str(sim_config), str(out)])
        monkeypatch.setattr(statistics, "fit_stack", spy)
        _run_test_json(out, "--k", "1")
        assert seen == [[1] * len(controls)]
        assert counts() == before

    def test_simulate_deterministic(self, tmp_path, sim_config):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["simulate", str(sim_config), str(out1)])
        main(["simulate", str(sim_config), str(out2)])
        assert out1.read_text() == out2.read_text()

    def test_three_factor_sidecar(self, tmp_path):
        cfg = tmp_path / "k3.json"
        cfg.write_text(json.dumps({"framework": "PANIC", "n": 10, "T": 30, "K": 3,
                                   "panic_stationary_factors": True, "seed": 1}))
        out = tmp_path / "k3.csv"
        assert main(["simulate", str(cfg), str(out)]) == 0
        sidecar = json.loads((tmp_path / "k3.csv.truth.json").read_text())
        assert len(sidecar["loadings"][0]) == 3
        payload = _run_test_json(out, "--k", "3")
        assert payload["k"] == 3

    def test_k_zero_path(self, tmp_path):
        cfg = tmp_path / "k0.json"
        cfg.write_text(json.dumps({"framework": "PANIC", "n": 8, "T": 60, "K": 0, "seed": 5}))
        out = tmp_path / "k0.csv"
        main(["simulate", str(cfg), str(out)])
        payload = _run_test_json(out, "--k", "0")
        assert payload["k"] == 0
        assert np.isfinite(payload["tests"]["t_ump"]["statistic"])

    def test_quadratic_spectral_fixed_bandwidth_flags(self, tmp_path, sim_config):
        out = tmp_path / "panel.csv"
        main(["simulate", str(sim_config), str(out)])
        payload = _run_test_json(out, "--k", "1", "--kernel", "quadratic_spectral",
                                 "--bandwidth", "fixed=4", "--no-prewhiten")
        assert payload["kernel"] == "quadratic_spectral"
        assert payload["prewhiten"] is False
        assert np.isfinite(payload["tests"]["t_ump_emp"]["statistic"])

    def test_intercept_shift_regression(self, tmp_path, sim_config):
        out = tmp_path / "panel.csv"
        main(["simulate", str(sim_config), str(out)])
        base = _run_test_json(out, "--k", "1")
        panel = load_panel_csv(str(out))
        shifts = np.random.default_rng(3).uniform(-50, 50, size=(panel.n_units, 1))
        shifted = Panel(panel.values + shifts, panel.unit_ids, panel.time_ids)
        out2 = tmp_path / "shifted.csv"
        write_panel_csv(out2, shifted)
        moved = _run_test_json(out2, "--k", "1")
        for name in ("t_ump", "t_ump_emp", "p_a", "p_b"):
            assert moved["tests"][name]["statistic"] == pytest.approx(
                base["tests"][name]["statistic"], abs=1e-8)

    def test_reports_the_statistics_of_analyze(self, tmp_path):
        panel = simulate(DgpConfig(framework="PANIC", n=20, T=60, K=1, lrv_ratio=0.8,
                                   seed=9)).panel
        out = tmp_path / "panel.csv"
        write_panel_csv(out, panel)
        payload = _run_test_json(out, "--k", "1")
        expected = analyze(panel, k=1).outcomes
        assert list(payload["tests"]) == list(expected)
        for name, rec in payload["tests"].items():
            assert rec["statistic"] == expected[name].statistic
            assert rec["p_value"] == expected[name].p_value
            assert rec["reject"] == expected[name].reject

    def test_human_output_matches_json(self, tmp_path, sim_config, capsys):
        out = tmp_path / "panel.csv"
        main(["simulate", str(sim_config), str(out)])
        payload = _run_test_json(out, "--k", "1")
        assert main(["test", str(out), "--k", "1"]) == 0
        text = capsys.readouterr().out
        for name, rec in payload["tests"].items():
            assert f"{rec['statistic']:.6f}" in text
            assert name in text


class TestShippedSample:
    def test_sample_panel_reports_all_tests_stably(self):
        from pathlib import Path

        panel = Path(__file__).resolve().parent.parent / "sample_data" / "panel.csv"
        first = _run_test_json(panel)
        second = _run_test_json(panel)
        assert first == second
        assert set(first["tests"]) == {"t_ump", "t_ump_emp", "p_a", "p_b", "t_a", "t_b"}
        assert all(0.0 <= rec["p_value"] <= 1.0 for rec in first["tests"].values())

    def test_sample_mc_config_is_valid(self):
        from pathlib import Path

        from panelur.cli import _from_json

        cfg = Path(__file__).resolve().parent.parent / "sample_data" / "mc_smoke.json"
        exp = _from_json(harness.Experiment, json.loads(cfg.read_text()), "experiment config",
                         {"lrv_cfg": "lrv"})
        assert exp.replications == 200
        assert exp.h_values == (0.0, -5.0)


class TestEnvelopeCommand:
    def test_matches_reference_series(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert main(["envelope", str(out), "--alpha", "0.05", "--ratio", "0.8"]) == 0
        with open(out, newline="") as fh:
            rows = {float(r["h_abs"]): r for r in csv.DictReader(fh)}
        assert len(rows) == 21
        assert float(rows[1.0]["envelope"]) == pytest.approx(0.174187, abs=1e-5)
        assert float(rows[2.0]["envelope"]) == pytest.approx(0.408797, abs=1e-5)
        assert float(rows[1.0]["mp_bn_power"]) == pytest.approx(0.140256, abs=1e-5)
        assert float(rows[2.0]["mp_bn_power"]) == pytest.approx(0.303807, abs=1e-5)

    @pytest.mark.parametrize("ratio", ["2", "0", "-0.5"])
    def test_ratio_outside_unit_interval_rejected(self, tmp_path, capsys, ratio):
        # A ratio above 1 would put the pooled tests' power above the envelope.
        out = tmp_path / "curve.csv"
        assert main(["envelope", str(out), "--ratio", ratio]) == 2
        assert capsys.readouterr().err.startswith("error: ratio must lie in (0, 1]")
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--step", "0", "--step must be finite and positive, got 0.0"),
        ("--step", "-1", "--step must be finite and positive, got -1.0"),
        ("--step", "nan", "--step must be finite and positive, got nan"),
        ("--step", "inf", "--step must be finite and positive, got inf"),
        ("--h-max", "-1", "--h-max must be finite and non-negative, got -1.0"),
        ("--h-max", "nan", "--h-max must be finite and non-negative, got nan"),
        ("--h-max", "inf", "--h-max must be finite and non-negative, got inf"),
    ])
    def test_grid_flags_out_of_range_rejected(self, tmp_path, capsys, flag, value, message):
        out = tmp_path / "curve.csv"
        assert main(["envelope", str(out), flag, value]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


class TestMcCommand:
    def test_explosive_grid_rejected(self, tmp_path, capsys):
        # At n = 1, T = 300 with heterogeneous alternatives h must be >= -333.3.
        cfg = tmp_path / "mc.json"
        cfg.write_text(json.dumps({"sizes": [[1, 300]], "h_values": [0.0, -2100.0], "k": 0,
                                   "heterogeneous_alternatives": True, "replications": 4}))
        out = tmp_path / "mc.csv"
        assert main(["mc", str(cfg), str(out), "--workers", "1"]) == 2
        captured = capsys.readouterr()
        assert "h = -2100.0 makes the design explosive: need h >= -333.333" in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == [cfg]

    def test_smoke_grid(self, tmp_path):
        cfg = tmp_path / "mc.json"
        cfg.write_text(json.dumps({
            "frameworks": ["PANIC"], "sizes": [[10, 25]], "ratios": [0.8],
            "innovations": ["iid"], "h_values": [0.0], "replications": 10,
            "base_seed": 3, "tests": ["t_ump_emp", "p_b"],
            "lrv": {"prewhiten": False},
        }))
        out = tmp_path / "mc.csv"
        assert main(["mc", str(cfg), str(out), "--workers", "1"]) == 0
        with open(out, newline="") as fh:
            header = fh.readline().rstrip("\r\n")
            fh.seek(0)
            rows = list(csv.DictReader(fh))
        documented = README.read_text().split("as CSV with columns\n\n```\n", 1)[1]
        assert header == "".join(documented.split("```", 1)[0].split())
        assert len(rows) == 2
        assert {r["test"] for r in rows} == {"t_ump_emp", "p_b"}
        for r in rows:
            assert 0.0 <= float(r["rejection_rate"]) <= 1.0
            assert r["errors"] == "0"
        with open(f"{out}.manifest.json") as fh:
            manifest = json.load(fh)
        assert manifest["experiment"]["base_seed"] == 3
        assert manifest["experiment"]["replications"] == 10
        assert manifest["experiment"]["lrv_cfg"]["prewhiten"] is False
        assert set(manifest["versions"]) == {"panelur", "python", "numpy"}
        assert manifest["workers"] == 1
        assert manifest["blas_threads_per_process"] == blas_threads()
        assert manifest["wall_s"] > 0.0

    def test_integer_written_floats_read_as_floats(self, tmp_path):
        rows = []
        for h_values, ratio in (([0, -5], 1), ([0.0, -5.0], 1.0)):
            cfg = tmp_path / "mc.json"
            cfg.write_text(json.dumps({"sizes": [[10, 25]], "ratios": [ratio],
                                       "h_values": h_values, "replications": 4,
                                       "lrv": {"prewhiten": False}}))
            out = tmp_path / "mc.csv"
            assert main(["mc", str(cfg), str(out), "--workers", "1"]) == 0
            rows.append(out.read_text())
            with open(f"{out}.manifest.json") as fh:
                assert json.load(fh)["experiment"]["h_values"] == [0.0, -5.0]
        assert rows[0] == rows[1]

    def test_manifest_workers_capped_at_tasks(self, tmp_path):
        cfg = tmp_path / "mc.json"
        cfg.write_text(json.dumps({"sizes": [[10, 25]], "replications": 1,
                                   "lrv": {"prewhiten": False}}))
        out = tmp_path / "mc.csv"
        assert main(["mc", str(cfg), str(out), "--workers", "8"]) == 0
        with open(f"{out}.manifest.json") as fh:
            assert json.load(fh)["workers"] == 1

    def test_manifest_reports_the_plan_the_run_used(self, tmp_path, monkeypatch):
        # A batch cap of 4 replications of 10 x 25 panels: each 10-replication
        # cell is one task at one worker, run as batches of 4, 3 and 3.
        monkeypatch.setattr(harness, "_STACKED_CELLS", 4 * 10 * 25)
        tasks, batches = [], []
        run_chunk, replications = harness._run_chunk, harness._replications

        def recording_chunk(exp, cell, start, stop):
            tasks.append((start, stop))
            return run_chunk(exp, cell, start, stop)

        def recording_batch(exp, cell, reps):
            batches.append(len(reps))
            return replications(exp, cell, reps)

        monkeypatch.setattr(harness, "_run_chunk", recording_chunk)
        monkeypatch.setattr(harness, "_replications", recording_batch)
        cfg = tmp_path / "mc.json"
        cfg.write_text(json.dumps({"sizes": [[10, 25]], "h_values": [0.0, -5.0],
                                   "replications": 10, "lrv": {"prewhiten": False}}))
        out = tmp_path / "mc.csv"
        assert main(["mc", str(cfg), str(out), "--workers", "1"]) == 0
        with open(f"{out}.manifest.json") as fh:
            manifest = json.load(fh)
        assert tasks == [(0, 10), (0, 10)] and batches == [4, 3, 3] * 2
        assert manifest["workers"] == 1
        assert manifest["tasks"] == len(tasks)
        assert manifest["largest_batch"] == max(batches)


def test_readme_documents_every_long_option():
    """Each subcommand's `###` README section names every long option its parser
    defines, as a whole option name: `--seeds` does not document `--seed`."""
    parts = README.read_text().split("\n### `panelur ")[1:]
    sections = dict(part.split("\n## ", 1)[0].split(" ", 1) for part in parts)
    subcommands, = (action.choices for action in cli._build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    missing = [(name, option) for name, parser in subcommands.items()
               for action in parser._actions for option in action.option_strings
               if option.startswith("--") and option != "--help"
               and not re.search(rf"(?<![\w-]){option}(?![\w-])", sections[name])]
    assert missing == []


def test_readme_layout_lists_every_module():
    """The README's Layout block has a line for each module of the package."""
    layout = README.read_text().split("\n## Layout\n", 1)[1].split("\n## ", 1)[0]
    listed = set(re.findall(r"^  (\w+\.py) ", layout, re.M))
    modules = {path.name for path in Path(cli.__file__).parent.glob("*.py")}
    assert sorted(modules - listed - {"__init__.py"}) == []


def test_report_csvs_pin_their_bytes(tmp_path):
    """CRLF line ends, repr floats, True/False flags and %g grid points."""
    def first_lines(path):
        header, line, *_ = path.read_bytes().split(b"\r\n")
        return header.decode(), line.decode().split(",")

    def repr_float(text):
        return repr(float(text)) == text

    cfg = tmp_path / "mc.json"
    cfg.write_text(json.dumps({"sizes": [[10, 25]], "ratios": [0.8], "h_values": [0.0],
                               "replications": 4, "tests": ["p_b"],
                               "lrv": {"prewhiten": False}}))
    mc, env, report = (tmp_path / name for name in ("mc.csv", "env.csv", "report.csv"))
    assert main(["mc", str(cfg), str(mc), "--workers", "1"]) == 0
    assert main(["envelope", str(env), "--h-max", "1"]) == 0
    # Three seeds may fail the selftest's checks (exit 3); the report is written either way.
    assert main(["selftest", "--seeds", "3", "--csv", str(report)]) in (0, 3)

    header, line = first_lines(mc)
    assert header == ",".join(harness.RESULT_COLUMNS)
    assert line[:11] == ["PANIC", "10", "25", "0.8", "iid", "gaussian", "andrews", "bartlett",
                         "False", "0.0", "p_b"]
    assert repr_float(line[11]) and repr_float(line[12]) and line[13:] == ["4", "0"]

    rows = [row.split(",") for row in env.read_bytes().decode().split("\r\n")]
    assert rows[0] == ["h_abs", "envelope", "mp_bn_power"]
    assert [row[0] for row in rows] == ["h_abs", "0", "0.5", "1", ""]
    assert all(repr_float(value) for row in rows[1:-1] for value in row[1:])

    header, line = first_lines(report)
    assert header == "n,T,quantity,median_abs_diff,mean,variance,skew,kurtosis,seeds"
    assert line[:3] == ["10", "50", "delta_panic"] and line[-1] == "3"
    assert all(map(repr_float, line[3:-1]))


class TestSelftestCommand:
    def test_exits_zero(self, tmp_path):
        out = tmp_path / "report.csv"
        assert main(["selftest", "--seeds", "40", "--csv", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["quantity"] for r in rows} >= {"delta_simplified", "gap_mp_vs_smw"}

    @pytest.mark.parametrize("seeds", ["0", "-3", "1"])
    def test_fewer_than_two_seeds_rejected(self, capsys, seeds):
        assert main(["selftest", "--seeds", seeds]) == 2
        captured = capsys.readouterr()
        assert "--seeds must be at least 2" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("seed", ["-1", "-12345"])
    def test_negative_seed_rejected_before_simulating(self, capsys, monkeypatch, seed):
        def report(*args, **kwargs):
            raise AssertionError("the report ran")

        monkeypatch.setattr(cli, "lan_convergence_report", report)
        assert main(["selftest", "--seed", seed, "--seeds", "2"]) == 2
        captured = capsys.readouterr()
        assert f"--seed must be non-negative, got {seed}" in captured.err
        assert captured.out == ""


class TestExitCodes:
    @pytest.fixture()
    def constant_unit_csv(self, tmp_path):
        values = np.random.default_rng(8).standard_normal((10, 60)).cumsum(axis=1)
        values[3] = 2.5
        path = tmp_path / "constant.csv"
        write_panel_csv(path, Panel(values, unit_ids=tuple(f"u{i}" for i in range(10))))
        return path

    @pytest.mark.parametrize("extra", [(), ("--k", "1")], ids=["k_selected", "k_fixed"])
    def test_constant_unit_named(self, constant_unit_csv, capsys, extra):
        assert main(["test", str(constant_unit_csv), *extra]) == 2
        assert "'u3'" in capsys.readouterr().err

    def test_linalg_error_is_numerical(self, tmp_path, sim_config, monkeypatch):
        out = tmp_path / "panel.csv"
        main(["simulate", str(sim_config), str(out)])

        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(statistics, "estimate_lrv_set", singular)
        assert main(["test", str(out), "--k", "1"]) == 3

    def test_alpha_out_of_range(self, tmp_path, sim_config, capsys):
        out = tmp_path / "panel.csv"
        main(["simulate", str(sim_config), str(out)])
        assert main(["test", str(out), "--alpha", "1.5"]) == 2
        assert "alpha must lie in (0, 1)" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["test", "/nonexistent/panel.csv"]) == 2

    @pytest.mark.parametrize("argv", [["test", "{dir}"], ["mc", "{dir}", "{dir}/mc.csv"],
                                      ["envelope", "{dir}"]], ids=["test", "mc", "envelope"])
    def test_directory_path_is_a_data_error(self, tmp_path, argv):
        # A path that is a directory cannot be read or written: exit 2, no traceback.
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        done = subprocess.run(
            [sys.executable, "-c", "import sys; from panelur.cli import main; "
                                   "sys.exit(main(sys.argv[1:]))",
             *(arg.format(dir=tmp_path) for arg in argv)],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120)
        assert done.returncode == 2
        assert done.stderr.startswith("error: ") and "Traceback" not in done.stderr
        assert list(tmp_path.iterdir()) == []

    def test_malformed_csv(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("unit,time,value\nA,1,xyz\n")
        assert main(["test", str(path)]) == 2

    def test_non_finite_csv_value(self, tmp_path, capsys):
        path = tmp_path / "x.csv"
        path.write_text("unit,time,value\nA,1,1.0\nA,2,nan\nB,1,3.0\nB,2,4.0\n")
        assert main(["test", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}:3: non-finite value 'nan'\n"

    def test_bad_json(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        assert main(["simulate", str(cfg), str(tmp_path / "o.csv")]) == 2

    @pytest.mark.parametrize("seed", ["-1", "-12345"])
    def test_negative_simulate_seed_rejected(self, tmp_path, capsys, sim_config, seed):
        out = tmp_path / "o.csv"
        assert main(["simulate", str(sim_config), str(out), "--seed", seed]) == 2
        captured = capsys.readouterr()
        assert f"--seed must be non-negative, got {seed}" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_negative_config_seed_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "neg.json"
        cfg.write_text(json.dumps({"framework": "PANIC", "n": 10, "T": 30, "seed": -1}))
        assert main(["simulate", str(cfg), str(tmp_path / "o.csv")]) == 2
        assert "seed must be non-negative, got -1" in capsys.readouterr().err

    def test_kmax_beyond_panel_clamped(self, tmp_path):
        path = tmp_path / "small.csv"
        write_panel_csv(path, simulate(DgpConfig(framework="PANIC", n=12, T=40, K=1,
                                                 lrv_ratio=0.8, seed=0)).panel)
        assert main(["test", str(path), "--kmax", "1000"]) == 0

    @pytest.mark.parametrize("kmax", ["-1", "-1000"])
    def test_negative_kmax_rejected(self, tmp_path, capsys, kmax):
        path = tmp_path / "small.csv"
        write_panel_csv(path, simulate(DgpConfig(framework="PANIC", n=12, T=40, K=1,
                                                 lrv_ratio=0.8, seed=0)).panel)
        assert main(["test", str(path), "--kmax", kmax]) == 2
        captured = capsys.readouterr()
        assert f"k_max={kmax} outside 0..min(n=12, T'=39)" in captured.err
        assert captured.out == ""

    def test_bad_config_field(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"framework": "PANIC", "n": 10, "T": 30, "h": 2.0}))
        assert main(["simulate", str(cfg), str(tmp_path / "o.csv")]) == 2

    def test_misspelled_mc_field_rejected(self, tmp_path, capsys):
        from pathlib import Path

        sample = Path(__file__).resolve().parent.parent / "sample_data" / "mc_smoke.json"
        cfg = json.loads(sample.read_text())
        cfg["replication"] = cfg.pop("replications")
        path = tmp_path / "mc.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "mc.csv"
        assert main(["mc", str(path), str(out), "--workers", "1"]) == 2
        assert "unknown experiment config field(s): 'replication'" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_lrv_field_rejected(self, tmp_path, capsys):
        path = tmp_path / "mc.json"
        path.write_text(json.dumps({"replications": 1,
                                    "lrv": {"prewhiten": False, "kernal": "bartlett"}}))
        assert main(["mc", str(path), str(tmp_path / "mc.csv"), "--workers", "1"]) == 2
        assert "unknown lrv config field(s): 'kernal'" in capsys.readouterr().err

    def test_unknown_simulation_fields_rejected(self, tmp_path, capsys):
        path = tmp_path / "dgp.json"
        path.write_text(json.dumps({"framework": "PANIC", "n": 10, "T": 30,
                                    "k": 1, "seeed": 3}))
        out = tmp_path / "o.csv"
        assert main(["simulate", str(path), str(out)]) == 2
        assert "unknown simulation config field(s): 'k', 'seeed'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("field, message", [
        ({"lrv": {"prewhiten": "false"}},
         "invalid lrv config field 'prewhiten': expected true or false, got \"false\""),
        ({"k_known": "false"},
         "invalid experiment config field 'k_known': expected true or false, got \"false\""),
        ({"replications": 2.9},
         "invalid experiment config field 'replications': expected an integer, got 2.9"),
        ({"replications": True},
         "invalid experiment config field 'replications': expected an integer, got true"),
        ({"sizes": [[20.5, 40]]},
         "invalid experiment config field 'sizes': expected an integer, got 20.5"),
        ({"sizes": [[20, 40, 60]]},
         "invalid experiment config field 'sizes': expected a list of 2 items"),
        ({"ratios": ["0.8"]},
         "invalid experiment config field 'ratios': expected a number, got \"0.8\""),
        ({"frameworks": "PANIC"},
         "invalid experiment config field 'frameworks': expected a list, got \"PANIC\""),
        ({"h_values": [0, True]},
         "invalid experiment config field 'h_values': expected a number, got true"),
        ({"lrv": None}, "lrv config must be a JSON object, got null"),
        ({"innovations": ["arl"]}, "unknown innovation kind 'arl'"),
        ({"k": -1}, "number of factors K must be >= 0, got -1"),
        ({"k_max": -1, "k_known": False}, "k_max must be non-negative, got -1"),
        ({"ratios": [float("nan")]}, "lrv_ratio must lie in (0, 1], got nan"),
        ({"h_values": [float("nan")]}, "local parameter h must be <= 0, got nan"),
        ({"lrv": {"bandwidth": "fixed", "fixed_bandwidth": float("inf")}},
         "fixed bandwidth must be finite and >= 1, got inf"),
    ])
    def test_invalid_mc_config_runs_nothing(self, tmp_path, capsys, monkeypatch, field,
                                             message):
        monkeypatch.setattr(harness, "_run_chunk", _must_not_run)
        path = tmp_path / "mc.json"
        path.write_text(json.dumps({"sizes": [[10, 25]], "replications": 1, **field}))
        assert main(["mc", str(path), str(tmp_path / "mc.csv"), "--workers", "1"]) == 2
        assert message in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["mc.json"]

    @pytest.mark.parametrize("field, message", [
        ({"n": 10.7}, "invalid simulation config field 'n': expected an integer, got 10.7"),
        ({"T": True}, "invalid simulation config field 'T': expected an integer, got true"),
        ({"heterogeneous_alternatives": 1},
         "invalid simulation config field 'heterogeneous_alternatives': "
         "expected true or false, got 1"),
        ({"framework": None},
         "invalid simulation config field 'framework': expected a string, got null"),
        ({"h": float("nan")}, "local parameter h must be <= 0, got nan"),
        ({"idio_spec": {"target_lrv": float("inf")}},
         "target_lrv must be positive and finite, got inf"),
        ({"factor_spec": {"kind": "ar1", "paramter": 0.5}},
         "unknown factor_spec config field(s): 'paramter'"),
    ])
    def test_invalid_simulation_config_writes_nothing(self, tmp_path, capsys, field, message):
        path = tmp_path / "dgp.json"
        path.write_text(json.dumps({"framework": "PANIC", "n": 10, "T": 30, **field}))
        assert main(["simulate", str(path), str(tmp_path / "o.csv")]) == 2
        assert message in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["dgp.json"]

    def test_missing_simulation_field_named(self, tmp_path, capsys):
        path = tmp_path / "dgp.json"
        path.write_text(json.dumps({"framework": "PANIC", "T": 30}))
        assert main(["simulate", str(path), str(tmp_path / "o.csv")]) == 2
        assert "simulation config is missing required field 'n'" in capsys.readouterr().err

    @pytest.mark.parametrize("bandwidth, message", [
        ("fixed=abc", "--bandwidth fixed=abc: B must be a number"),
        ("fixed=inf", "fixed bandwidth must be finite and >= 1, got inf"),
    ])
    def test_bad_fixed_bandwidth_flag(self, tmp_path, sim_config, capsys, bandwidth, message):
        out = tmp_path / "panel.csv"
        main(["simulate", str(sim_config), str(out)])
        assert main(["test", str(out), "--bandwidth", bandwidth]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_invalid_workers_argument(self, tmp_path, capsys, workers):
        path = tmp_path / "mc.json"
        path.write_text(json.dumps({"sizes": [[10, 25]], "replications": 1,
                                    "lrv": {"prewhiten": False}}))
        out = tmp_path / "mc.csv"
        assert main(["mc", str(path), str(out), "--workers", workers]) == 2
        assert f"workers must be a positive integer, got {workers}" in capsys.readouterr().err
        assert not out.exists()

    def test_invalid_workers_env(self, tmp_path, monkeypatch, capsys):
        from panelur.harness import WORKERS_ENV_VAR

        path = tmp_path / "mc.json"
        path.write_text(json.dumps({"sizes": [[10, 25]], "replications": 1,
                                    "lrv": {"prewhiten": False}}))
        monkeypatch.setenv(WORKERS_ENV_VAR, "abc")
        assert main(["mc", str(path), str(tmp_path / "mc.csv")]) == 2
        assert f"{WORKERS_ENV_VAR} must be a positive integer" in capsys.readouterr().err
