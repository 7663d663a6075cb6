"""One workload of the cavityprobe benchmark, run in a fresh process.

``run.py`` starts this script with one BLAS thread and ``src`` on the path.
With ``--setup-only`` it imports the package, builds the workload's inputs,
prints the two set-up times and exits.  Otherwise it also runs passes of
the workload until ``--seconds`` have been measured, checks every output,
and prints one JSON object as its last line of standard output.

A pass is a fixed list of timed calls into the package; outputs are checked
between calls, outside the timed region.  With ``--trace 1`` untraced and
traced passes alternate; the traced ones rebind the public functions the
workload reaches (see ``tracing.py``) and give the per-layer numbers.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

from tracing import Patch, Tracer

ROOT = Path(__file__).resolve().parents[1]
REFERENCE = Path(__file__).with_name("reference.json")

# A checked output may move this far from its reference before the operation
# counts as failed.  References are stored to DECIMALS places, so an exact
# reproduction reads about 5e-11 and round-off from a reordered algorithm
# (around 1e-13) stays far inside the tolerance.
TOL = 1e-8
DECIMALS = 10

# Workload sizes.  "full" is the benchmark; "tiny" exercises the same code
# paths in well under a second per pass for the harness self-test.
SIZES = {
    "full": {
        "t_max": 10.0, "dt": 0.01, "stride": 10,
        "ladder_d": (4, 6, 8, 10),
        # --seed picks the Fock index; seed 0 gives the default n = 10.
        "fock_d": 20, "fock_n": (10, 11, 12, 13, 14, 6, 7, 8, 9),
        "oracle_d": 3, "oracle_t_max": 5.0, "oracle_dt": 0.002, "oracle_stride": 125,
    },
    "tiny": {
        "t_max": 0.5, "dt": 0.01, "stride": 10,
        "ladder_d": (2, 4),
        "fock_d": 4, "fock_n": (2, 3, 0, 1),
        "oracle_d": 2, "oracle_t_max": 0.5, "oracle_dt": 0.002, "oracle_stride": 25,
    },
}
# Criterion 5's ladder: kappa fixed, gamma_big / omega stepping through these.
ORACLE_KAPPA = 0.002
ORACLE_RATIOS = (5, 10, 20)
LADDER_DS = (4, 6, 8, 10)
# Per-layer values that only some workloads produce read 0 on the others.
WORKLOAD_LAYER_DEFAULTS = {"cli.bytes_written": 0, **{f"oracle.residual_g.r{r}": 0.0 for r in ORACLE_RATIOS}}
MIN_PASSES = 3


def load_package():
    """Import the package from this checkout's ``src`` and nothing else."""
    import cavityprobe
    import cavityprobe.cli

    src = (ROOT / "src").resolve()
    if src not in Path(cavityprobe.__file__).resolve().parents:
        raise SystemExit(f"cavityprobe imported from {cavityprobe.__file__}, not from {src}")
    return cavityprobe


def rk4_counts(d: int, t_max: float, dt: float, stride: int, columns: int) -> dict:
    """Computed cost of the reduced model's RK4 loop; ignores cache misses.

    The state is a 2d^2 x columns complex array (columns = d^2 for full maps,
    1 for one propagated state).  Per step: four generator products, then
    13 elementwise scale/add operations.  Bytes count every operand read
    once and every result written once per numpy operation.
    """
    n = 2 * d * d
    m = n * columns
    steps = int(round(t_max / dt))
    samples = 1 + steps // stride + (1 if steps % stride else 0)
    flops = steps * (4 * 8 * n * n * columns + 13 * 2 * m)
    moved = steps * (4 * 16 * (n * n + 2 * m) + 33 * 16 * m) + samples * 2 * 16 * m
    return {"rk4_steps": steps, "samples": samples, "flops": flops, "bytes": moved}


def _generator_counts(args, result):
    d = args["d"]
    return {"generator_bytes": 16 * (2 * d * d) ** 2}


def _integrate_counts(args, result):
    return rk4_counts(args["d"], args["t_max"], args["dt"], args["stride"], args["d"] ** 2)


def _trajectory_counts(args, result):
    return rk4_counts(args["d"], args["t_max"], args["dt"], args["stride"], 1)


def _oracle_counts(args, result):
    return {"joint_steps": int(round(args["t_max"] / args["dt"])), "columns": args["d"] ** 2}


def _series_counts(args, result):
    return {"records": len(result), "defined": sum(r.defined_g + r.defined_e for r in result)}


class Workload:
    """Inputs, timed calls and output checks of one workload.

    ``calls`` lists (label, thunk) pairs; each thunk looks the package
    function up at call time so that tracing can rebind it.  ``observe``
    turns one call's result into checked operations: name -> (values,
    errors), where values are reference-compared series and errors are
    failed invariants.
    """

    name = ""

    def trace_targets(self, pkg) -> list:
        return [(pkg.instrument, "build_block_generator", "superop.generator_build", _generator_counts)]

    def before_pass(self) -> None:
        pass

    def finish_pass(self, ops: dict) -> None:
        pass

    def layer_values(self, ops: dict) -> dict:
        return {}


class FigureGrid(Workload):
    """cavityprobe sweep over both presets: 12 runs, CSV + SVG each."""

    name = "figure-grid"

    def __init__(self, pkg, size, seed, work):
        self.pkg = pkg
        self.out_dir = work / "figure-grid"
        self.configs = pkg.cli.figure_grid_configs(self.out_dir, ("strong", "weak"), size["t_max"], size["dt"], size["stride"])
        # Built as a user's script would before calling the CLI; cli.main
        # rebuilds them internally, so they only count towards set-up time.
        self.inputs = [(c.model_params(), c.initial_density()) for c in self.configs]
        self.argv = [
            "sweep", "--out-dir", str(self.out_dir), "--preset", "both",
            "--t-max", repr(size["t_max"]), "--dt", repr(size["dt"]), "--stride", str(size["stride"]),
        ]
        self.digests: dict[str, str] = {}
        self.bytes_written = 0

    def before_pass(self):
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def calls(self):
        return [("sweep", lambda: self.pkg.cli.main(self.argv))]

    def trace_targets(self, pkg):
        cli = pkg.cli
        return super().trace_targets(pkg) + [
            (cli, "main", "cli.main", None),
            (cli, "run", "cli.run", None),
            (cli, "integrate_instrument", "instrument.integrate", _integrate_counts),
            (cli, "metrics_series", "metrics.series", _series_counts),
            (cli, "render_csv", "cli.render_csv", None),
            (cli, "plot", "cli.plot", None),
        ]

    def observe(self, label, rc):
        ops = {}
        for config in self.configs:
            name = Path(config.csv_out).stem
            errors = [] if rc == 0 else [f"sweep exited {rc}"]
            values = {}
            try:
                raw = Path(config.csv_out).read_bytes()
            except OSError as exc:
                ops[name] = ({}, errors + [f"csv missing: {exc}"])
                continue
            digest = hashlib.sha256(raw).hexdigest()
            if self.digests.setdefault(name, digest) != digest:
                errors.append("csv bytes differ from the first pass")
            rows = list(csv.DictReader(raw.decode("utf-8").splitlines()))
            values["P_g"] = [float(r["P_g"]) for r in rows]
            values["I_g"] = [float(r["I_g"]) if r["I_g"] else None for r in rows]
            if not values["P_g"] or abs(values["P_g"][0] - 1.0) > 1e-12:
                errors.append("P_g(0) is not 1")
            ops[name] = (values, errors)
        self.bytes_written = sum(f.stat().st_size for f in self.out_dir.iterdir()) if self.out_dir.is_dir() else 0
        return ops

    def layer_values(self, ops):
        return {"cli.bytes_written": self.bytes_written}


class MapsLadder(Workload):
    """Full outcome maps, strong preset, ground preparation, at each d of the ladder."""

    name = "maps-ladder"

    def __init__(self, pkg, size, seed, work):
        import numpy as np

        self.np = np
        self.pkg = pkg
        self.size = size
        self.params = pkg.instrument.ModelParams(**pkg.cli.PRESETS["strong"])
        # The fixed input of the P_g check: the uniform superposition, which
        # has coherences of every order, so every sector of the maps is read.
        self.probe = {d: np.full((d, d), 1.0 / d, dtype=complex) for d in size["ladder_d"]}

    def calls(self):
        s, prep = self.size, self.pkg.instrument.Preparation.GROUND
        return [
            (str(d), lambda d=d: self.pkg.instrument.integrate_instrument(
                self.params, d, prep, s["t_max"], s["dt"], stride=s["stride"]))
            for d in s["ladder_d"]
        ]

    def trace_targets(self, pkg):
        return super().trace_targets(pkg) + [
            (pkg.instrument, "integrate_instrument", "instrument.integrate", _integrate_counts),
        ]

    def observe(self, label, branch):
        np = self.np
        d = int(label)
        errors = []
        if not np.array_equal(branch.m_g[0], np.eye(d * d)):
            errors.append("M_g(0) is not the identity")
        if np.any(branch.m_e[0]):
            errors.append("M_e(0) is not zero")
        # Tr(M rho) = vec(I)^T M vec(rho) in the column-stacking convention.
        tr_row = np.eye(d).reshape(-1, order="F")
        p_g = (np.einsum("i,tij,j->t", tr_row, branch.m_g, self.probe[d].reshape(-1, order="F"))).real
        values = {
            "norm_g": [np.linalg.norm(branch.m_g[-1])],
            "norm_e": [np.linalg.norm(branch.m_e[-1])],
            "P_g": list(p_g),
        }
        return {label: (values, errors)}


class FockD20(Workload):
    """One Fock state propagated at d = 20 (the matrix-vector path)."""

    name = "fock-d20"

    def __init__(self, pkg, size, seed, work):
        import numpy as np

        self.np = np
        self.pkg = pkg
        self.size = size
        self.n = size["fock_n"][seed % len(size["fock_n"])]
        self.params = pkg.instrument.ModelParams(**pkg.cli.PRESETS["strong"])
        self.rho = pkg.fock.fock_state(size["fock_d"], self.n)

    def calls(self):
        s, prep = self.size, self.pkg.instrument.Preparation.GROUND
        return [(f"n{self.n}", lambda: self.pkg.instrument.conditional_trajectories(
            self.params, s["fock_d"], prep, self.rho, s["t_max"], s["dt"], stride=s["stride"]))]

    def trace_targets(self, pkg):
        return super().trace_targets(pkg) + [
            (pkg.instrument, "conditional_trajectories", "instrument.trajectories", _trajectory_counts),
        ]

    def observe(self, label, result):
        np = self.np
        times, y_g, y_e = result
        errors = []
        if not np.array_equal(y_g[0], self.rho):
            errors.append("y_g(0) is not the input state")
        for tag, y in (("g", y_g), ("e", y_e)):
            herm = np.max(np.abs(y - y.conj().transpose(0, 2, 1)))
            if herm > 1e-12:
                errors.append(f"y_{tag} not Hermitian (deviation {herm:.3e})")
            tr = np.trace(y, axis1=1, axis2=2)
            if np.max(np.abs(tr.imag)) > 1e-12 or tr.real.min() < -1e-12 or tr.real.max() > 1 + 1e-12:
                errors.append(f"trace of y_{tag} leaves [0, 1]")
        values = {"P_g": list(np.trace(y_g, axis1=1, axis2=2).real)}
        return {label: (values, errors)}


class OracleLadder(Workload):
    """secular_residual on criterion 5's ladder of gamma_big / omega."""

    name = "oracle-ladder"

    def __init__(self, pkg, size, seed, work):
        self.pkg = pkg
        self.size = size
        gamma_big = 1.0
        self.params = {}
        for ratio in ORACLE_RATIOS:
            omega = gamma_big / ratio
            delta = gamma_big * math.sqrt(1.0 / (ORACLE_KAPPA * ratio**2) - 1.0)
            self.params[ratio] = pkg.instrument.ModelParams(
                omega=omega, delta=delta, gamma_big=gamma_big, gamma_ge=0.0, gamma_eg=0.05)
        self.residuals: dict[str, float] = {}

    def calls(self):
        s, prep = self.size, self.pkg.instrument.Preparation.GROUND
        return [
            (f"r{ratio}", lambda p=p: self.pkg.oracle.secular_residual(
                p, s["oracle_d"], prep, s["oracle_t_max"], s["oracle_dt"], stride=s["oracle_stride"]))
            for ratio, p in self.params.items()
        ]

    def trace_targets(self, pkg):
        return super().trace_targets(pkg) + [
            (pkg.oracle, "extract_instrument_oracle", "oracle.extract", _oracle_counts),
            (pkg.oracle, "integrate_instrument", "oracle.reduced", None),
        ]

    def observe(self, label, residual):
        self.residuals[label] = residual["g"]
        return {label: ({"residual_g": [residual["g"]]}, [])}

    def finish_pass(self, ops):
        labels = [f"r{r}" for r in ORACLE_RATIOS]
        for before, after in zip(labels, labels[1:]):
            if before in ops and after in ops:
                if not ops[before][0]["residual_g"][0] > ops[after][0]["residual_g"][0]:
                    ops[after][1].append(f"residual at {after} does not drop below {before}")

    def layer_values(self, ops):
        return {f"oracle.residual_g.{label}": value for label, value in self.residuals.items()}


WORKLOADS = {w.name: w for w in (FigureGrid, MapsLadder, FockD20, OracleLadder)}


def compare(ops: dict, reference: dict) -> tuple[int, float, list[str]]:
    """Failed-operation count, largest deviation and failure messages."""
    failed, worst, messages = 0, 0.0, []
    for op, (values, errors) in ops.items():
        errors = list(errors)
        ref = reference.get(op)
        if ref is None:
            errors.append("no reference recorded")
        else:
            for key, series in values.items():
                want = ref.get(key)
                if want is None or len(want) != len(series):
                    errors.append(f"{key}: reference has another length")
                    continue
                for got, exp in zip(series, want):
                    if (got is None) != (exp is None):
                        errors.append(f"{key}: defined where the reference is not, or the reverse")
                        break
                    if got is not None:
                        worst = max(worst, abs(got - exp))
                        if not abs(got - exp) <= TOL:
                            errors.append(f"{key}: {got!r} differs from reference {exp!r}")
                            break
        if errors:
            failed += 1
            messages.extend(f"{op}: {e}" for e in errors)
    return failed, worst, messages


def run_pass(workload, tracer: Tracer | None):
    """Time each call of one pass; returns (wall, cpu, checked operations)."""
    workload.before_pass()
    wall = cpu = 0.0
    ops = {}
    for label, call in workload.calls():
        root = tracer.begin("call") if tracer else None
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            result, error = call(), None
        except Exception as exc:  # a failing call is a failed operation, not a crash
            result, error = None, f"{type(exc).__name__}: {exc}"
        t1, c1 = time.perf_counter(), time.process_time()
        if tracer:
            tracer.end(root)
        wall += t1 - t0
        cpu += c1 - c0
        if error is None:
            ops.update(workload.observe(label, result))
        else:
            ops[label] = ({}, [error])
    workload.finish_pass(ops)
    return wall, cpu, ops


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer numbers of one traced pass, from its spans."""
    selfs = tracer.self_times()
    time_by = defaultdict(float)
    count_by = defaultdict(float)
    gen_bytes = 0
    for span, own in zip(tracer.spans, selfs):
        time_by[span.name] += own
        if span.name == "instrument.integrate":
            time_by[f"instrument.integrate.d{span.attrs['d']}"] += own
        for key, value in span.attrs.items():
            if key == "generator_bytes":
                gen_bytes = max(gen_bytes, value)
            elif key != "d":
                count_by[key] += value
    m = {
        "superop.generator_build_s": time_by["superop.generator_build"],
        "superop.generator_bytes": gen_bytes,
        "instrument.integrate_s": time_by["instrument.integrate"],
        "instrument.trajectories_s": time_by["instrument.trajectories"],
        "instrument.rk4_steps": count_by["rk4_steps"],
        "instrument.samples": count_by["samples"],
        "instrument.flops": count_by["flops"],
        "instrument.bytes": count_by["bytes"],
        "oracle.extract_s": time_by["oracle.extract"],
        "oracle.reduced_s": time_by["oracle.reduced"],
        "oracle.joint_steps": count_by["joint_steps"],
        "oracle.columns": count_by["columns"],
        "metrics.series_s": time_by["metrics.series"],
        "metrics.records": count_by["records"],
        "metrics.defined_share": count_by["defined"] / (2 * count_by["records"]) if count_by["records"] else 0.0,
        "cli.run_self_s": time_by["cli.main"] + time_by["cli.run"],
        "cli.render_csv_s": time_by["cli.render_csv"],
        "cli.plot_s": time_by["cli.plot"],
        "trace.unaccounted_s": time_by["call"],
    }
    for d in LADDER_DS:
        m[f"instrument.integrate_s.d{d}"] = time_by[f"instrument.integrate.d{d}"]
    return m


def d_exponent(per_d: dict[int, float]) -> float:
    """Least-squares slope of log(time) against log(d) over d = 6..10; 0 with fewer than two points."""
    pts = [(math.log(d), math.log(t)) for d, t in per_d.items() if 6 <= d <= 10 and t > 0]
    if len(pts) < 2:
        return 0.0
    mx = statistics.fmean(x for x, _ in pts)
    my = statistics.fmean(y for _, y in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sum((x - mx) ** 2 for x, _ in pts)


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
    }


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None when it cannot be asked."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as handle:
        paths = {line.split()[-1] for line in handle if len(line.split()) == 6}
    libs = [p for p in paths if "openblas" in Path(p).name.lower() and ".so" in Path(p).name]
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument("--reference", type=Path, default=REFERENCE)
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    pkg = load_package()
    t1 = time.perf_counter()
    workload = WORKLOADS[args.workload](pkg, SIZES[args.size], args.seed, args.work_dir)
    t2 = time.perf_counter()
    if args.setup_only:
        print(json.dumps({"import_s": t1 - t0, "inputs_s": t2 - t1}))
        return 0

    # One unmeasured pass at the tiny size runs every code path once, so
    # first-call costs (BLAS start-up, lazy imports) stay out of the samples.
    run_pass(WORKLOADS[args.workload](pkg, SIZES["tiny"], args.seed, args.work_dir), None)

    reference = json.loads(args.reference.read_text(encoding="utf-8"))[args.size][args.workload]
    traced_targets = workload.trace_targets(pkg)
    untraced, traced, cpus, layer_rows = [], [], [], []
    attempted = failed = 0
    worst = 0.0
    messages: list[str] = []
    tracer_all = Tracer()
    deadline = time.perf_counter() + args.seconds
    k = 0
    min_passes = 2 * MIN_PASSES if args.trace else MIN_PASSES
    while k < min_passes or time.perf_counter() < deadline:
        if args.trace and k % 2:
            tracer = Tracer()
            with Patch(tracer, traced_targets):
                wall, cpu, ops = run_pass(workload, tracer)
            traced.append(wall)
            layer_rows.append({**WORKLOAD_LAYER_DEFAULTS, **layer_metrics(tracer), **workload.layer_values(ops)})
            tracer_all.spans.extend(tracer.spans)
        else:
            wall, cpu, ops = run_pass(workload, None)
            untraced.append(wall)
            cpus.append(cpu)
        n_failed, dev, msgs = compare(ops, reference)
        attempted += len(ops)
        failed += n_failed
        worst = max(worst, dev)
        messages.extend(msgs)
        k += 1

    out = {
        "attempted": attempted,
        "failed": failed,
        "failures": messages[:20],
        "environment": environment(),
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "wall_s": statistics.median(untraced),
        "wall_samples": untraced,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "max_err": worst,
    }
    if args.trace:
        layers = {key: statistics.median(row[key] for row in layer_rows) for key in layer_rows[0]}
        layers["instrument.d_exponent"] = d_exponent(
            {d: layers[f"instrument.integrate_s.d{d}"] for d in LADDER_DS})
        busy = layers["instrument.integrate_s"] + layers["instrument.trajectories_s"]
        layers["instrument.gflops_per_s"] = layers["instrument.flops"] / busy / 1e9 if busy else 0.0
        layers["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        layers["proc.cpu_s"] = statistics.median(cpus)
        layers["proc.wait_s"] = statistics.median(w - c for w, c in zip(untraced, cpus))
        out["layers"] = layers
        out["traced_wall_s"] = statistics.median(traced)
        out["spans"] = tracer_all.summary()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
