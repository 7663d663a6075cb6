import json
from pathlib import Path

import numpy as np
import pytest

from cavityprobe.cli import (
    CSV_COLUMNS,
    ConfigError,
    PRESETS,
    config_warnings,
    figure_grid_configs,
    main,
    parse_config,
    plot,
    run,
    sweep,
)
from cavityprobe.fock import TruncationMode
from cavityprobe.instrument import Preparation


def make_config(tmp_path, **overrides):
    base = {
        "preset": "weak",
        "d": 3,
        "initial_state": "mixed",
        "prep": "g",
        "t_max": 1.0,
        "dt": 0.01,
        "stride": 10,
        "csv_out": str(tmp_path / "out.csv"),
    }
    base.update(overrides)
    return {k: v for k, v in base.items() if v is not None}


def write_config(tmp_path, **overrides):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(make_config(tmp_path, **overrides)))
    return path


def read_rows(path):
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    return header, [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestParseConfig:
    def test_presets_fill_rates(self):
        for name, rates in PRESETS.items():
            cfg = parse_config(json.dumps(make_config(Path("/tmp"), preset=name)))
            for key, value in rates.items():
                assert getattr(cfg, key) == value
        assert PRESETS["strong"] == {"gamma_ge": 0.1, "gamma_eg": 1.0, "gamma_big": 2.0,
                                     "delta": 0.5, "omega": 0.7}
        assert PRESETS["weak"] == {"gamma_ge": 0.0, "gamma_eg": 0.01, "gamma_big": 2.0,
                                   "delta": 0.5, "omega": 0.7}

    def test_defaults_applied(self):
        raw = make_config(Path("/tmp"))
        del raw["dt"], raw["stride"]
        cfg = parse_config(json.dumps(raw))
        assert cfg.dt == 0.01
        assert cfg.stride == 10
        assert cfg.truncation is TruncationMode.ALGEBRAIC_CLOSURE
        assert cfg.log_base == 2.0

    def test_prep_aliases(self):
        for alias, prep in (("g", Preparation.GROUND), ("excited", Preparation.EXCITED)):
            cfg = parse_config(json.dumps(make_config(Path("/tmp"), prep=alias)))
            assert cfg.prep is prep

    @pytest.mark.parametrize(
        "overrides",
        [
            {"bogus": 1},
            {"preset": "unknown"},
            {"preset": "weak", "omega": 0.5},
            {"initial_state": "fock", "n": 3, "d": 2},
            {"initial_state": "fock"},
            {"initial_state": "coherent"},
            {"n": 1},
            {"dt": 0.0},
            {"dt": 2.0, "t_max": 1.0},
            {"stride": 0},
            {"prep": "x"},
            {"log_base": 10},
            {"truncation": "loose"},
            {"csv_out": ""},
            {"t_max": 0.015, "dt": 0.01},
            {"t_max": float("inf")},
            {"preset": None, "omega": 0.1, "delta": 0.0, "gamma_big": 1e-200, "gamma_ge": 0.0, "gamma_eg": 0.0},
            {"d": True},
            {"stride": True},
            {"initial_state": "fock", "n": False},
        ],
    )
    def test_invalid_configs_rejected(self, overrides, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(json.dumps(make_config(tmp_path, **overrides)))

    def test_missing_rates_without_preset(self, tmp_path):
        raw = make_config(tmp_path, preset=None)
        with pytest.raises(ConfigError, match="missing rate keys"):
            parse_config(json.dumps(raw))

    def test_model_invariant_enforced(self, tmp_path):
        raw = make_config(tmp_path, preset=None, omega=0.1, delta=0.5,
                          gamma_big=0.1, gamma_ge=0.5, gamma_eg=0.5)
        with pytest.raises(ConfigError, match="gamma_big"):
            parse_config(json.dumps(raw))

    def test_not_json(self):
        with pytest.raises(ConfigError, match="valid JSON"):
            parse_config("d: 3")

    def test_secular_warning(self, tmp_path):
        cfg = parse_config(json.dumps(make_config(tmp_path, preset="strong")))
        assert any("secular" in w for w in config_warnings(cfg))
        quiet = parse_config(json.dumps(make_config(
            tmp_path, preset=None, omega=0.1, delta=0.5, gamma_big=2.0,
            gamma_ge=0.0, gamma_eg=0.01)))
        assert config_warnings(quiet) == []


class TestRun:
    def test_csv_schema_and_first_row(self, tmp_path):
        cfg = parse_config(write_config(tmp_path).read_text())
        run(cfg)
        header, rows = read_rows(cfg.csv_out)
        assert header == CSV_COLUMNS
        first = rows[0]
        assert float(first["t"]) == 0.0
        assert float(first["P_g"]) == 1.0
        assert float(first["I_g"]) == 0.0
        assert float(first["F_g"]) == 1.0
        assert first["defined_g"] == "true"
        assert first["defined_e"] == "false"
        assert first["I_e"] == "" and first["F_e"] == "" and first["S_e"] == ""

    def test_d1_ground_probability_pinned(self, tmp_path):
        path = write_config(tmp_path, preset=None, omega=0.7, delta=0.5, gamma_big=2.0,
                            gamma_ge=0.0, gamma_eg=1.0, d=1, t_max=2.0)
        cfg = parse_config(path.read_text())
        run(cfg)
        _, rows = read_rows(cfg.csv_out)
        assert all(float(r["P_g"]) == pytest.approx(1.0, abs=1e-12) for r in rows)

    def test_weak_probabilities_sum_to_one(self, tmp_path):
        path = write_config(tmp_path, d=4, t_max=5.0)
        cfg = parse_config(path.read_text())
        run(cfg)
        _, rows = read_rows(cfg.csv_out)
        assert len(rows) == 51
        for r in rows:
            assert abs(float(r["P_g"]) + float(r["P_e"]) - 1.0) < 1e-9

    def test_byte_identical_reruns(self, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        svg_a = tmp_path / "a.svg"
        svg_b = tmp_path / "b.svg"
        for csv_path, svg_path in ((out_a, svg_a), (out_b, svg_b)):
            cfg = parse_config(json.dumps(make_config(
                tmp_path, csv_out=str(csv_path), svg_out=str(svg_path), t_max=2.0)))
            run(cfg)
        assert out_a.read_bytes() == out_b.read_bytes()
        assert svg_a.read_bytes() == svg_b.read_bytes()
        assert b"\r" not in out_a.read_bytes()

    def test_floats_round_trip(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, t_max=0.5).read_text())
        run(cfg)
        _, rows = read_rows(cfg.csv_out)
        for r in rows:
            value = float(r["P_g"])
            assert repr(value) == r["P_g"]


class TestPlot:
    CSV = (
        "t,P_g,P_e\n"
        "0.0,1.0,0.0\n"
        "1.0,0.9,0.1\n"
        "2.0,0.8,0.2\n"
    )

    def test_single_polyline(self):
        svg = plot(self.CSV, ["P_g"])
        assert svg.count("<polyline") == 1
        assert "P_g" in svg

    def test_six_polylines(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, t_max=2.0, prep="e", d=2).read_text())
        text = run(cfg)
        svg = plot(text, ["P_g", "P_e", "I_g", "I_e", "F_g", "F_e"])
        assert svg.count("<polyline") == 6

    def test_missing_column(self):
        with pytest.raises(ConfigError, match="Q"):
            plot(self.CSV, ["Q"])

    def test_too_few_rows(self):
        short = "t,P_g\n0.0,1.0\n"
        with pytest.raises(ConfigError, match="2 data rows"):
            plot(short, ["P_g"])

    @pytest.mark.parametrize("text, column, message", [
        ("t,P_g,defined_g\n0.0,1.0,true\n1.0,0.9,true\n", "defined_g", "'defined_g', data row 1: need a finite number, found 'true'"),
        ("t,P_g,P_e\n0.0,1.0,0.0\n1.0,0.9\n", "P_e", "'P_e', data row 2: need a finite number, found no cell"),
        ("t,P_g\n0.0,1.0\n1.0,nan\n", "P_g", "'P_g', data row 2: need a finite number, found 'nan'"),
        ("t,P_g\n0.0,1.0\n,0.9\n", "P_g", "'t', data row 2: need a finite number, found ''"),
    ], ids=["text-cell", "short-row", "nan-cell", "empty-t"])
    def test_bad_cells_exit_2(self, tmp_path, capsys, text, column, message):
        csv_path = tmp_path / "in.csv"
        csv_path.write_text(text)
        rc = main(["plot", "--csv", str(csv_path), "--out", str(tmp_path / "fig.svg"), "--columns", column])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "fig.svg").exists()


class TestSweep:
    def test_figure_grid_files_and_manifest(self, tmp_path):
        configs = figure_grid_configs(tmp_path, presets=("strong",), t_max=0.5, dt=0.01, stride=25)
        assert len(configs) == 6
        manifest = sweep(configs, tmp_path / "manifest.json")
        assert len(manifest["runs"]) == 6
        assert manifest["failures"] == []
        for cfg in configs:
            assert Path(cfg.csv_out).exists()
            assert Path(cfg.svg_out).exists()
        loaded = json.loads((tmp_path / "manifest.json").read_text())
        assert {r["initial_state"] for r in loaded["runs"]} == {"mixed", "fock"}
        assert sorted(r["d"] for r in loaded["runs"]) == [2, 4, 6, 6, 6, 6]

    def test_figure_grid_validates_time_grid(self, tmp_path):
        with pytest.raises(ConfigError, match="whole number"):
            figure_grid_configs(tmp_path, t_max=0.015, dt=0.01)

    def test_empty_sweep_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            sweep([], tmp_path / "manifest.json")


class TestMainExitCodes:
    def test_run_ok(self, tmp_path, capsys):
        assert main(["run", "--config", str(write_config(tmp_path))]) == 0

    def test_validate_ok(self, tmp_path, capsys):
        assert main(["validate", "--config", str(write_config(tmp_path))]) == 0
        assert "config ok" in capsys.readouterr().out

    def test_config_error_is_2(self, tmp_path, capsys):
        path = write_config(tmp_path, d="three")
        assert main(["run", "--config", str(path)]) == 2

    def test_solver_error_is_3(self, tmp_path, capsys):
        path = write_config(tmp_path, preset="strong", d=6, dt=2.0, t_max=4000.0, stride=100)
        with np.errstate(all="ignore"):
            assert main(["run", "--config", str(path)]) == 3
        # RK4 is unstable at this dt; the metrics reject a non-PSD conditional state
        path = write_config(tmp_path, preset=None, omega=12, delta=0.5, gamma_big=10, gamma_ge=0.1,
                            gamma_eg=1.0, d=6, initial_state="fock", n=3, t_max=0.2, dt=0.01, stride=1)
        assert main(["run", "--config", str(path)]) == 3
        assert "solver error" in capsys.readouterr().err

    def test_io_error_is_4(self, tmp_path, capsys):
        path = write_config(tmp_path, csv_out=str(tmp_path / "missing" / "out.csv"))
        assert main(["run", "--config", str(path)]) == 4

    def test_oracle_flag_reports_residual(self, tmp_path, capsys):
        path = write_config(tmp_path, preset=None, omega=0.05, delta=0.5, gamma_big=1.0,
                            gamma_ge=0.0, gamma_eg=0.05, d=2, t_max=1.0)
        assert main(["run", "--config", str(path), "--oracle"]) == 0
        out = capsys.readouterr().out
        assert "secular residual" in out
        assert "outcome g" in out

    @pytest.mark.parametrize("flags", [["--dt", "0"], ["--stride", "0"], ["--t-max", "0.015"]])
    def test_sweep_bad_grid_is_2(self, tmp_path, capsys, flags):
        out_dir = tmp_path / "grid"
        assert main(["sweep", "--out-dir", str(out_dir), *flags]) == 2
        assert not out_dir.exists()

    def test_sweep_and_plot_verbs(self, tmp_path, capsys):
        out_dir = tmp_path / "grid"
        rc = main(["sweep", "--out-dir", str(out_dir), "--preset", "strong",
                   "--t-max", "0.5", "--stride", "25"])
        assert rc == 0
        csv_path = out_dir / "strong-mixed-d2.csv"
        rc = main(["plot", "--csv", str(csv_path), "--out", str(tmp_path / "fig.svg"),
                   "--columns", "P_g,P_e"])
        assert rc == 0
        assert (tmp_path / "fig.svg").read_text().count("<polyline") == 2
