import dataclasses
import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cavityprobe import cli
from cavityprobe.cli import (
    CSV_COLUMNS,
    ConfigError,
    PRESETS,
    RunConfig,
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
from cavityprobe.metrics import MetricsRecord


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


CONFIG_KEYS = sorted(f.name for f in dataclasses.fields(RunConfig))
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(10**400), 10**400),
    st.floats(),
    st.sampled_from(["g", "excited", "weak", "strong", "mixed", "fock", "strict", "out.csv"]),
    st.text(max_size=8),
)
CONFIG_VALUES = st.one_of(
    SCALARS, st.lists(SCALARS, max_size=3), st.dictionaries(st.text(max_size=4), SCALARS, max_size=3)
)


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
            {"t_max": 1e300, "dt": 1e-10},
            # not strings, and not hashable either
            {"prep": ["g"]},
            {"preset": ["weak"]},
            # integers too large for a float
            {"preset": None, "omega": 10**400, "delta": 0.0, "gamma_big": 1.0, "gamma_ge": 0.0, "gamma_eg": 0.0},
            {"t_max": 10**400},
            {"dt": 10**400},
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
        # too deep for the decoder's recursion, and an integer past Python's digit limit
        for document in ("[" * 100_000 + "]" * 100_000, '{"d": 1' + "0" * 5000 + "}"):
            with pytest.raises(ConfigError, match="valid JSON"):
                parse_config(document)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        st.dictionaries(st.sampled_from(CONFIG_KEYS), CONFIG_VALUES),
        st.sets(st.sampled_from(CONFIG_KEYS)),
    )
    def test_any_flat_document_gives_a_config_or_config_error(self, overrides, dropped):
        """A flat object over the config keys, starting from a valid one with
        keys replaced or dropped, parses to a RunConfig or raises ConfigError."""
        raw = {k: v for k, v in {**make_config(Path("/tmp")), **overrides}.items() if k not in dropped}
        try:
            config = parse_config(json.dumps(raw))
        except ConfigError:
            return
        assert isinstance(config, RunConfig)

    def test_secular_warning(self, tmp_path):
        cfg = parse_config(json.dumps(make_config(tmp_path, preset="strong")))
        assert any("secular" in w for w in config_warnings(cfg))
        quiet = parse_config(json.dumps(make_config(
            tmp_path, preset=None, omega=0.1, delta=0.5, gamma_big=2.0,
            gamma_ge=0.0, gamma_eg=0.01)))
        assert config_warnings(quiet) == []


class TestRun:
    def test_record_fields_follow_csv_columns(self):
        assert [c.lower() for c in CSV_COLUMNS] == [f.name for f in dataclasses.fields(MetricsRecord)]

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

    @pytest.mark.parametrize("overrides, defined_i_g", [
        ({"preset": "strong", "d": 4}, 11),
        ({"preset": "strong", "initial_state": "fock", "n": 1, "prep": "e", "t_max": 0.1}, 1),
        ({"preset": None, "omega": 0, "delta": 0, "gamma_big": 1, "gamma_ge": 0, "gamma_eg": 0, "prep": "e"}, 0),
        ({"d": 1}, 11),
    ], ids=["strong-mixed-d4", "fock-one-point", "never-defined", "d1"])
    def test_run_svg_is_plot_of_its_csv(self, tmp_path, monkeypatch, overrides, defined_i_g):
        """run draws from the values it computed, without parsing its CSV, and plot of that CSV gives the same bytes."""
        def refuse(*args, **kwargs):
            raise AssertionError("run parsed CSV text")

        cfg = parse_config(write_config(tmp_path, svg_out=str(tmp_path / "out.svg"), **overrides).read_text())
        with monkeypatch.context() as patch:
            patch.setattr(cli.csv, "reader", refuse)
            text = run(cfg)
        _, rows = read_rows(cfg.csv_out)
        assert sum(row["I_g"] != "" for row in rows) == defined_i_g
        assert Path(cfg.svg_out).read_bytes() == plot(text, ["P_g", "I_g", "F_g"]).encode()

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
        ("t,P_g,I_g\n0.0,1.0,\n1.0,0.9,\n", "I_g", "no defined values to plot in columns: I_g"),
    ], ids=["text-cell", "short-row", "nan-cell", "empty-t", "no-defined-values"])
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

    # sha256 of each file that `sweep --preset strong --t-max 1.0` writes.
    STRONG_SWEEP_DIGESTS = {
        "strong-fock-n1.csv": "d86f34f6cf1e51c39caf77c14631cd11fd3a279fb65010a6de6ad9cac934bac3",
        "strong-fock-n3.csv": "881e735a39d3de01cb8c51947644d0b061263b293a0e6e813f38851e4821ec02",
        "strong-fock-n5.csv": "a1a6a281004112fd5e52d1acfd888d0013c2e4b793f3235b0e011eb39cf5e841",
        "strong-mixed-d2.csv": "0f027aff5baa731075f6e14f757b7e81acb16aa810ab7f5982610b974975c85d",
        "strong-mixed-d4.csv": "15e68e8a706c28dd3f5ceb525ed34b5030c8f2bcfb1613d2f780ab2f1ccd5c4e",
        "strong-mixed-d6.csv": "a35efe0883337b5f9caf17b48e6b203cd8bf76e45bbdd8e32f4bdaa81b212d95",
        "strong-fock-n1.svg": "320a40d68897f54c2b7acc92baa35152b0468a69dfd533e5b301ca9e12d27b10",
        "strong-fock-n3.svg": "1fa4b2e70cae508ef3f767d574f53582a7faabd99a2c3392a6ab09585c10265a",
        "strong-fock-n5.svg": "563188aa125c062bb7441a15f37c5c546e511040af79f34468b08634d126c325",
        "strong-mixed-d2.svg": "bc8c47293d53de7194eaf29e41d98dd52b7c051efa54ce13f3fa356de5d35e26",
        "strong-mixed-d4.svg": "9a7388814f5e10edcb49237a008bf555b3eddefd5eb4f9c48b68c62d322b3bd9",
        "strong-mixed-d6.svg": "5dcfe60abdccbf41546e925274cbcf18cbe2324e436f8e58c21924258b2db19d",
    }

    def test_strong_sweep_bytes_pinned(self, tmp_path):
        """The CSV and SVG bytes of a short strong sweep do not drift.

        Rewrites of the output path (scatter, metrics, CSV rendering) must
        leave every byte as it was.  A change that moves the last digits on
        purpose updates these digests and reports the largest change per
        CSV column in CHANGES.md.  The digests hold for one floating-point
        environment; a different BLAS build may round the last digits
        differently.
        """
        assert main(["sweep", "--out-dir", str(tmp_path), "--preset", "strong", "--t-max", "1.0"]) == 0
        digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                   for path in tmp_path.iterdir() if path.suffix in (".csv", ".svg")}
        assert digests == self.STRONG_SWEEP_DIGESTS

    def test_empty_sweep_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            sweep([], tmp_path / "manifest.json")


class TestMainExitCodes:
    def test_run_ok(self, tmp_path, capsys):
        assert main(["run", "--config", str(write_config(tmp_path))]) == 0

    @pytest.mark.parametrize("overrides, one_point", [
        # P_g stays 0, so I_g is never defined
        ({"preset": None, "omega": 0, "delta": 0, "gamma_big": 1, "gamma_ge": 0, "gamma_eg": 0, "prep": "e"}, 0),
        # two samples, and I_g and F_g are undefined at the first
        ({"preset": "strong", "prep": "e", "t_max": 0.1}, 2),
    ], ids=["never-defined", "defined-once"])
    def test_run_plots_columns_with_few_defined_values(self, tmp_path, capsys, overrides, one_point):
        path = write_config(tmp_path, svg_out=str(tmp_path / "out.svg"), **overrides)
        assert main(["run", "--config", str(path)]) == 0
        _, rows = read_rows(tmp_path / "out.csv")
        defined = [sum(row[name] != "" for row in rows) for name in ("P_g", "I_g", "F_g")]
        assert defined.count(1) == one_point
        svg = (tmp_path / "out.svg").read_text()
        assert svg.count("<polyline") == 3
        assert svg.count("<circle") == one_point

    def test_validate_ok(self, tmp_path, capsys):
        assert main(["validate", "--config", str(write_config(tmp_path))]) == 0
        assert "config ok" in capsys.readouterr().out

    def test_config_error_is_2(self, tmp_path, capsys):
        path = write_config(tmp_path, d="three")
        assert main(["run", "--config", str(path)]) == 2

    def test_solver_error_is_3(self, tmp_path, capsys):
        path = write_config(tmp_path, preset="strong", d=6, dt=2.0, t_max=4000.0, stride=100)
        assert main(["run", "--config", str(path)]) == 3
        # the config's own warnings aside, the divergence is reported once, without numpy warnings
        lines = [line for line in capsys.readouterr().err.splitlines() if not line.startswith("warning: ")]
        assert len(lines) == 1 and lines[0].startswith("solver error: integration diverged at t=")
        # RK4 is unstable at this dt; the metrics reject a non-PSD conditional state
        path = write_config(tmp_path, preset=None, omega=12, delta=0.5, gamma_big=10, gamma_ge=0.1,
                            gamma_eg=1.0, d=6, initial_state="fock", n=3, t_max=0.2, dt=0.01, stride=1)
        assert main(["run", "--config", str(path)]) == 3
        assert "solver error" in capsys.readouterr().err

    def test_io_error_is_4(self, tmp_path, capsys):
        path = write_config(tmp_path, csv_out=str(tmp_path / "missing" / "out.csv"))
        assert main(["run", "--config", str(path)]) == 4

    def test_memory_error_is_2(self, tmp_path, capsys, monkeypatch):
        # A real allocation failure depends on the machine's overcommit policy, so fake it.
        def out_of_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr("cavityprobe.cli.conditional_trajectories", out_of_memory)
        assert main(["run", "--config", str(write_config(tmp_path))]) == 2
        err = capsys.readouterr().err
        # the sample buffer grows with t_max/(dt*stride) as much as with d, so both are named
        assert "lower d" in err and "t_max/(dt*stride)" in err

    HUGE = 10**400

    @pytest.mark.parametrize("verb", ["validate", "run"])
    @pytest.mark.parametrize("overrides, named", [
        ({"prep": ["g"]}, "prep"),
        ({"preset": ["weak"]}, "preset"),
        ({"preset": None, "omega": HUGE, "delta": 0.0, "gamma_big": 1.0, "gamma_ge": 0.0, "gamma_eg": 0.0}, "omega"),
        ({"t_max": HUGE}, "t_max"),
        ({"dt": HUGE}, "dt"),
        # too large for any numpy array: counted, never allocated
        ({"d": 10**10}, "lower d"),
        ({"d": HUGE}, "lower d"),
        ({"d": 2, "t_max": 9e18, "dt": 1.0}, "t_max/(dt*stride)"),
    ], ids=["prep-list", "preset-list", "omega-1e400", "t_max-1e400", "dt-1e400", "d-1e10", "d-1e400", "samples-9e17"])
    def test_bad_values_are_2_with_one_error_line(self, tmp_path, capsys, verb, overrides, named):
        assert main([verb, "--config", str(write_config(tmp_path, **overrides))]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and named in lines[0]

    def test_validate_does_not_allocate_the_samples(self, tmp_path, capsys):
        # 1e15 samples could never be stored, but validating the grid needs only the step count
        path = write_config(tmp_path, preset="weak", d=2, t_max=1e15, dt=1.0, stride=1)
        assert main(["validate", "--config", str(path)]) == 0

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
