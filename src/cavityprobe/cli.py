"""Command-line front end: single runs, figure-grid sweeps, SVG plots.

Config files are flat JSON objects; see README for the key list.  CSV and
SVG outputs are byte-deterministic for a fixed config: floats are written
in Python's shortest round-trip representation and rows follow the sampling
order of the integrator.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .fock import InvalidStateError, TruncationMode, _check_level, fock_state, maximally_mixed
from .instrument import DivergenceError, ModelParams, Preparation, _sample_steps, conditional_trajectories
from .instrument import integrate_instrument  # noqa: F401  perfbench's figure-grid trace rebinds this name
from .metrics import MetricsRecord, PositivityError, metrics_series
from .oracle import dt_limit, secular_residual

__all__ = [
    "ConfigError",
    "SweepError",
    "RunConfig",
    "PRESETS",
    "CSV_COLUMNS",
    "parse_config",
    "config_warnings",
    "render_csv",
    "run",
    "figure_grid_configs",
    "sweep",
    "plot",
    "main",
]


class ConfigError(ValueError):
    """Bad configuration document or command arguments."""


class SweepError(RuntimeError):
    """One or more sweep runs failed."""


PRESETS = {
    "strong": {"gamma_ge": 0.1, "gamma_eg": 1.0, "gamma_big": 2.0, "delta": 0.5, "omega": 0.7},
    "weak": {"gamma_ge": 0.0, "gamma_eg": 0.01, "gamma_big": 2.0, "delta": 0.5, "omega": 0.7},
}

CSV_COLUMNS = ["t", "P_g", "P_e", "I_g", "I_e", "F_g", "F_e", "S_g", "S_e", "defined_g", "defined_e"]

_SOLVER_ERRORS = (DivergenceError, PositivityError, InvalidStateError)  # a run failed; exit 3
_PLOT_COLUMNS = ("P_g", "I_g", "F_g")  # what `run` plots, and `plot`'s default
_SWEEP_T_MAX = 10.0  # horizon of the figure grid
_PREPARATIONS = {"g": Preparation.GROUND, "ground": Preparation.GROUND,
                 "e": Preparation.EXCITED, "excited": Preparation.EXCITED}
_TRUNCATIONS = [mode.value for mode in TruncationMode]


@dataclass(frozen=True)
class RunConfig:
    omega: float
    delta: float
    gamma_big: float
    gamma_ge: float
    gamma_eg: float
    d: int
    initial_state: str
    prep: Preparation
    t_max: float
    csv_out: str
    n: int | None = None
    dt: float = 0.01
    stride: int = 10
    truncation: TruncationMode = TruncationMode.ALGEBRAIC_CLOSURE
    log_base: float = 2.0
    svg_out: str | None = None
    preset: str | None = None

    def model_params(self) -> ModelParams:
        return ModelParams(**{key: getattr(self, key) for key in _RATE_KEYS})

    def initial_density(self) -> np.ndarray:
        if self.initial_state == "mixed":
            return maximally_mixed(self.d)
        return fock_state(self.d, self.n)


_RATE_KEYS = tuple(f.name for f in fields(ModelParams))
_ALL_KEYS = {f.name for f in fields(RunConfig)}


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _is_path(value) -> bool:
    """Whether value is a nonempty string that open() takes as a path: no NUL, and encodable for the file system."""
    try:
        return isinstance(value, str) and value != "" and b"\0" not in os.fsencode(value)
    except UnicodeEncodeError:  # a lone surrogate, which JSON's \ud800 escapes can produce
        return False


def _require_apart(out_key: str, out: str | None, in_key: str, path: str) -> None:
    """Refuse an output path that reaches the file at `path`: the same path once links are resolved, or, where
    both exist, the same file (a hard link); no output (None) passes."""
    same = out is not None and (os.path.realpath(out) == os.path.realpath(path)
                                or os.path.exists(out) and os.path.exists(path) and os.path.samefile(out, path))
    _require(not same, f"{out_key} and {in_key} name the same file {path!r}")


def parse_config(document: str) -> RunConfig:
    """Parse and validate a flat JSON config document."""
    try:
        raw = json.loads(document)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, or an integer too long or nesting too deep to decode
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return _config_from(raw)


def _config_from(raw: dict) -> RunConfig:
    """Validate a decoded config document; the one place a RunConfig is built.

    The document's own rules (keys, presets, strings, aliases, paths) are
    checked here.  The rates, d, n and the time grid follow the library's
    rules, whose ValueError becomes a ConfigError.
    """
    _require(isinstance(raw, dict), "config must be a single flat JSON object")
    unknown = sorted(set(raw) - _ALL_KEYS)
    _require(not unknown, f"unknown config keys: {', '.join(unknown)}")

    preset = raw.get("preset")
    if preset is not None:
        _require(isinstance(preset, str) and preset in PRESETS,
                 f"unknown preset {preset!r}; choose from {sorted(PRESETS)}")
        clash = sorted(set(raw) & set(_RATE_KEYS))
        _require(not clash, f"preset {preset!r} conflicts with explicit keys: {', '.join(clash)}")
        rates = PRESETS[preset]
    else:
        missing = sorted(set(_RATE_KEYS) - set(raw))
        _require(not missing, f"missing rate keys (or use a preset): {', '.join(missing)}")
        rates = {k: raw[k] for k in _RATE_KEYS}

    for key in ("d", "initial_state", "prep", "t_max", "csv_out"):
        _require(key in raw, f"missing required key {key!r}")

    initial_state = raw["initial_state"]
    _require(initial_state in ("mixed", "fock"), f"initial_state must be 'mixed' or 'fock', got {initial_state!r}")
    n = raw.get("n")
    _require(initial_state == "fock" or n is None, "key 'n' is only meaningful with initial_state 'fock'")

    prep_raw = raw["prep"]
    _require(isinstance(prep_raw, str) and prep_raw in _PREPARATIONS,
             f"prep must be one of {sorted(_PREPARATIONS)}, got {prep_raw!r}")

    truncation = raw.get("truncation", RunConfig.truncation.value)
    _require(truncation in _TRUNCATIONS, f"truncation must be one of {_TRUNCATIONS}, got {truncation!r}")

    log_base_raw = raw.get("log_base", RunConfig.log_base)
    if log_base_raw in (2, 2.0):
        log_base = 2.0
    elif log_base_raw == "e":
        log_base = math.e
    else:
        raise ConfigError(f"log_base must be 2 or 'e', got {log_base_raw!r}")

    csv_out = raw["csv_out"]
    _require(_is_path(csv_out), "csv_out must be a nonempty path string without NUL characters or lone surrogates")
    svg_out = raw.get("svg_out")
    _require(svg_out is None or _is_path(svg_out),
             "svg_out must be a nonempty path string without NUL characters or lone surrogates when given")
    _require_apart("svg_out", svg_out, "csv_out", csv_out)

    d, t_max, dt, stride = raw["d"], raw["t_max"], raw.get("dt", RunConfig.dt), raw.get("stride", RunConfig.stride)
    try:
        _sample_steps(d, t_max, dt, stride)
        if initial_state == "fock":
            _check_level(d, n)
        params = ModelParams(**rates)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    return RunConfig(
        **vars(params), d=d, initial_state=initial_state, n=n,
        prep=_PREPARATIONS[prep_raw], t_max=float(t_max), dt=float(dt), stride=stride,
        truncation=TruncationMode(truncation), log_base=log_base, csv_out=csv_out, svg_out=svg_out,
        preset=preset,
    )


def config_warnings(config: RunConfig) -> list[str]:
    ratio = config.gamma_big / config.omega if config.omega > 0 else math.inf
    return [f"secular approximation questionable: gamma_big/omega = {ratio:.3g} < 5"] if ratio < 5 else []


def _column_cells(values: tuple) -> list[str]:
    """CSV cells of one column: true/false for a flag column, and repr of each number with None as ""."""
    if isinstance(values[0], bool):
        return ["true" if value else "false" for value in values]
    return ["" if value is None else repr(float(value)) for value in values]


def render_csv(records: list[MetricsRecord]) -> str:
    """One row per record; a MetricsRecord is a tuple in CSV_COLUMNS order."""
    columns = map(_column_cells, zip(*records))
    return "\n".join([",".join(CSV_COLUMNS), *map(",".join, zip(*columns))]) + "\n"


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


def run(config: RunConfig) -> str:
    """Execute one configured run; writes the CSV (and SVG) and returns the CSV text."""
    rho_f = config.initial_density()
    branch = conditional_trajectories(
        config.model_params(), config.d, config.prep, rho_f, config.t_max, config.dt, config.truncation, config.stride
    )
    records = metrics_series(branch, rho_f, base=config.log_base)
    text = render_csv(records)
    _write_text(config.csv_out, text)
    if config.svg_out:
        _write_text(config.svg_out, _draw(dict(zip(CSV_COLUMNS, zip(*records))), _PLOT_COLUMNS))
    return text


def figure_grid_configs(
    out_dir: str | Path,
    presets: tuple[str, ...] = tuple(PRESETS),
    t_max: float = _SWEEP_T_MAX,
    dt: float = RunConfig.dt,
    stride: int = RunConfig.stride,
) -> list[RunConfig]:
    """The 2 x 6 figure grid (mixed at d = 2, 4, 6; Fock 1, 3, 5 at d = 6), validated like a config file."""
    out_dir = Path(out_dir)
    configs = []
    for preset in presets:
        states = [(f"{preset}-mixed-d{d}", {"d": d, "initial_state": "mixed"}) for d in (2, 4, 6)]
        states += [(f"{preset}-fock-n{n}", {"d": 6, "initial_state": "fock", "n": n}) for n in (1, 3, 5)]
        for name, state in states:
            configs.append(_config_from({
                "preset": preset, "prep": "g", **state, "t_max": t_max, "dt": dt, "stride": stride,
                "csv_out": str(out_dir / f"{name}.csv"), "svg_out": str(out_dir / f"{name}.svg"),
            }))
    return configs


def sweep(configs: list[RunConfig], manifest_path: str | Path) -> dict:
    """Run every config, write a manifest, and fail if any run failed."""
    if not configs:
        raise ConfigError("sweep requires at least one run configuration")
    entries = []
    failures = []
    for config in configs:
        entry = {
            "csv": config.csv_out,
            "svg": config.svg_out,
            "preset": config.preset,
            "params": {key: getattr(config, key) for key in _RATE_KEYS},
            "d": config.d,
            "initial_state": config.initial_state,
            "n": config.n,
            "prep": config.prep.value,
            "t_max": config.t_max,
            "dt": config.dt,
            "stride": config.stride,
        }
        try:
            run(config)
            entries.append(entry)
        except (*_SOLVER_ERRORS, ConfigError, OSError) as exc:
            failures.append(f"{config.csv_out}: {exc}")
    manifest = {"runs": entries, "failures": failures}
    _write_text(str(manifest_path), json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    if failures:
        raise SweepError("sweep had failing runs:\n  " + "\n  ".join(failures))
    return manifest


_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f"]
_SVG_W, _SVG_H = 640, 400
_ML, _MR, _MT, _MB = 62, 140, 16, 42


def plot(csv_text: str, columns: list[str]) -> str:
    """Render selected CSV columns against t as a deterministic SVG."""
    reader = csv.DictReader(io.StringIO(csv_text))  # skips blank rows; a short row's missing cells are None
    try:
        header, rows = reader.fieldnames, list(reader)
    except csv.Error as exc:  # such as a cell longer than csv.field_size_limit()
        raise ConfigError(f"CSV document is malformed: {exc}") from None
    if header is None:
        raise ConfigError("CSV document is empty")
    if "t" not in header:
        raise ConfigError("CSV has no 't' column")
    missing = [c for c in columns if c not in header]
    if missing:
        raise ConfigError(f"columns not present in CSV: {', '.join(missing)}")
    if not columns:
        raise ConfigError("no columns selected")
    if len(rows) < 2:
        raise ConfigError(f"need at least 2 data rows to plot, got {len(rows)}")

    def number(k: int, text: str | None, name: str) -> float | None:
        """Cell `text` of column `name` in data row k as a finite float; None when empty, except in 't'."""
        if text == "" and name != "t":
            return None
        try:
            value = float(text)
        except (TypeError, ValueError):
            value = math.nan
        if not math.isfinite(value):
            found = "no cell" if text is None else repr(text)
            raise ConfigError(f"column {name!r}, data row {k}: need a finite number, found {found}")
        return value

    return _draw({name: [number(k, row[name], name) for k, row in enumerate(rows, 1)] for name in ("t", *columns)},
                 columns)


def _draw(table: dict, names) -> str:
    """SVG of the columns `names` of `table` against its column 't'; values are finite floats, or None if undefined."""
    t = np.array(table["t"], dtype=float)
    ys = [np.array(table[name], dtype=float) for name in names]  # None becomes nan
    points = [(name, t[~np.isnan(y)], y[~np.isnan(y)]) for name, y in zip(names, ys)]
    y_defined = [y for _, _, y in points if y.size]
    if not y_defined:
        raise ConfigError(f"no defined values to plot in columns: {', '.join(names)}")

    # builtins keep the first of equal extremes, such as 0.0 before -0.0
    x_lo, x_hi = x_data = min(table["t"]), max(table["t"])
    y_lo, y_hi = y_data = min(float(y.min()) for y in y_defined), max(float(y.max()) for y in y_defined)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    for label, (lo, hi), span in (("t", x_data, x_hi - x_lo), (", ".join(names), y_data, y_hi - y_lo)):
        _require(0.0 < span < math.inf, f"cannot scale an axis to {label} values from {lo!r} to {hi!r}")

    # Both maps act elementwise, on a float or on an array, with the same rounding.
    def sx(x):
        return _ML + (x - x_lo) / (x_hi - x_lo) * (_SVG_W - _ML - _MR)

    def sy(y):
        return _SVG_H - _MB - (y - y_lo) / (y_hi - y_lo) * (_SVG_H - _MT - _MB)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect x="0" y="0" width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<line x1="{_ML}" y1="{_SVG_H - _MB}" x2="{_SVG_W - _MR}" y2="{_SVG_H - _MB}" stroke="black"/>',
        f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_SVG_H - _MB}" stroke="black"/>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        xv = x_lo + frac * (x_hi - x_lo)
        px = sx(xv)
        parts.append(f'<line x1="{px:.2f}" y1="{_SVG_H - _MB}" x2="{px:.2f}" y2="{_SVG_H - _MB + 5}" stroke="black"/>')
        parts.append(
            f'<text x="{px:.2f}" y="{_SVG_H - _MB + 18}" font-size="11" text-anchor="middle">{xv:.4g}</text>'
        )
        yv = y_lo + frac * (y_hi - y_lo)
        py = sy(yv)
        parts.append(f'<line x1="{_ML - 5}" y1="{py:.2f}" x2="{_ML}" y2="{py:.2f}" stroke="black"/>')
        parts.append(f'<text x="{_ML - 8}" y="{py + 4:.2f}" font-size="11" text-anchor="end">{yv:.4g}</text>')
    parts.append(
        f'<text x="{(_ML + _SVG_W - _MR) / 2:.2f}" y="{_SVG_H - 8}" font-size="12" text-anchor="middle">t</text>'
    )
    for k, (name, x, y) in enumerate(points):
        color = _PALETTE[k % len(_PALETTE)]
        px, py = sx(x).tolist(), sy(y).tolist()
        pts = " ".join(map("{:.2f},{:.2f}".format, px, py))
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{pts}"/>')
        if len(px) == 1:  # a one-point polyline draws nothing, so mark the point
            parts.append(f'<circle cx="{px[0]:.2f}" cy="{py[0]:.2f}" r="3" fill="{color}"/>')
        ly = _MT + 16 + 18 * k
        lx = _SVG_W - _MR + 12
        parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" stroke="{color}" stroke-width="1.5"/>')
        legend = name.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")  # the SVG's only input text
        parts.append(f'<text x="{lx + 28}" y="{ly}" font-size="12">{legend}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _read_document(path: str) -> str:
    """The UTF-8 text of a config or CSV file; a file that is not UTF-8 is a ConfigError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text: {exc}") from None


def _load_config(path: str) -> RunConfig:
    config = parse_config(_read_document(path))
    for key in ("csv_out", "svg_out"):
        _require_apart(key, getattr(config, key), "--config", path)
    for warning in config_warnings(config):
        print(f"warning: {warning}", file=sys.stderr)
    return config


def _cmd_run(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    run(config)
    if args.oracle:
        params = config.model_params()
        refine = max(1, math.ceil(config.dt / dt_limit(params) - 1e-12))
        residual = secular_residual(
            params, config.d, config.prep, config.t_max, config.dt / refine,
            stride=config.stride * refine, mode=config.truncation,
        )
        print(f"secular residual vs joint model (dt={config.dt / refine:g}):")
        for outcome in ("g", "e"):
            print(f"  outcome {outcome}: {residual[outcome]:.6e}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    print(f"config ok: d={config.d}, prep={config.prep.value}, t_max={config.t_max}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    presets = tuple(PRESETS) if args.preset == "both" else (args.preset,)
    configs = figure_grid_configs(args.out_dir, presets, args.t_max, args.dt, args.stride)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = sweep(configs, out_dir / "manifest.json")
    print(f"wrote {len(manifest['runs'])} runs to {out_dir}")
    return 0


def _cmd_plot(args: argparse.Namespace) -> int:
    _require_apart("--out", args.out, "--csv", args.csv)
    columns = [c for c in args.columns.split(",") if c]
    svg = plot(_read_document(args.csv), columns)
    _write_text(args.out, svg)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cavityprobe", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate one configured run and write CSV/SVG")
    p_run.add_argument("--config", required=True, help="path to a JSON config")
    p_run.add_argument("--oracle", action="store_true",
                       help="also compare against the joint-model solver and report the residual")
    p_run.set_defaults(func=_cmd_run)

    p_val = sub.add_parser("validate", help="parse a config and check its invariants")
    p_val.add_argument("--config", required=True)
    p_val.set_defaults(func=_cmd_validate)

    p_sweep = sub.add_parser("sweep", help="run the figure grid over presets and states")
    p_sweep.add_argument("--out-dir", required=True)
    p_sweep.add_argument("--preset", choices=[*PRESETS, "both"], default="both")
    p_sweep.add_argument("--t-max", type=float, default=_SWEEP_T_MAX)
    p_sweep.add_argument("--dt", type=float, default=RunConfig.dt)
    p_sweep.add_argument("--stride", type=int, default=RunConfig.stride)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_plot = sub.add_parser("plot", help="render selected CSV columns as an SVG")
    p_plot.add_argument("--csv", required=True)
    p_plot.add_argument("--out", required=True)
    p_plot.add_argument("--columns", default=",".join(_PLOT_COLUMNS), help="comma-separated column names")
    p_plot.set_defaults(func=_cmd_plot)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory; lower d or the sample count t_max/(dt*stride)", file=sys.stderr)
        return 2
    except (*_SOLVER_ERRORS, SweepError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
