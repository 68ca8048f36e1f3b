"""Command-line interface: file formats, subcommands, exit codes."""

import csv
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from panelur import DgpConfig, analyze, cli, simulate, statistics
from panelur.cli import load_panel_csv, main, write_panel_csv
from panelur.errors import DataError
from panelur.harness import blas_threads
from panelur.panel import Panel


@pytest.fixture()
def sim_config(tmp_path):
    cfg = {"framework": "PANIC", "n": 25, "T": 100, "h": 0.0, "K": 1,
           "lrv_ratio": 0.8, "seed": 42}
    path = tmp_path / "dgp.json"
    path.write_text(json.dumps(cfg))
    return path


def _run_test_json(panel_path, *extra):
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(["test", str(panel_path), "--json", *extra])
    assert code == 0
    return json.loads(buf.getvalue())


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

        from panelur.cli import _experiment_from_json

        cfg = Path(__file__).resolve().parent.parent / "sample_data" / "mc_smoke.json"
        exp = _experiment_from_json(json.loads(cfg.read_text()))
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


class TestMcCommand:
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
            rows = list(csv.DictReader(fh))
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
        assert set(manifest["versions"]) == {"panelur", "python", "numpy", "scipy"}
        assert manifest["workers"] == 1
        assert manifest["blas_threads_per_process"] == blas_threads()
        assert manifest["wall_s"] > 0.0

    def test_manifest_workers_capped_at_tasks(self, tmp_path):
        cfg = tmp_path / "mc.json"
        cfg.write_text(json.dumps({"sizes": [[10, 25]], "replications": 1,
                                   "lrv": {"prewhiten": False}}))
        out = tmp_path / "mc.csv"
        assert main(["mc", str(cfg), str(out), "--workers", "8"]) == 0
        with open(f"{out}.manifest.json") as fh:
            assert json.load(fh)["workers"] == 1


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

    def test_malformed_csv(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("unit,time,value\nA,1,xyz\n")
        assert main(["test", str(path)]) == 2

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
