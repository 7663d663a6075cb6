"""Benchmark of cavityprobe: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src`` directory, never from an installed copy.  Workloads (see
``BENCHMARK.json`` for why each was chosen):

  figure-grid    ``cavityprobe sweep --preset both`` (12 runs, CSV and SVG)
  maps-ladder    full outcome maps at d = 4, 6, 8, 10
  fock-d20       one Fock state propagated at d = 20; --seed picks n
  oracle-ladder  secular_residual on criterion 5's gamma_big/omega ladder

Each run starts fresh interpreters with one BLAS thread: several set-up
probes (import plus input construction, median reported as ``setup_s``)
and one workload process that measures passes for ``--seconds`` and checks
every output against ``reference.json``.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` alternates untraced and traced passes and
prints the per-layer metrics.  Every metric is printed by name with its
unit; the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.

``--size tiny`` and ``--reference`` exist for ``selftest.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("figure-grid", "maps-ladder", "fock-d20", "oracle-ladder")
SETUP_PROBES = 9
RUN_LIMIT_S = 170.0


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": str(ROOT / "src"),
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    })
    return env


def run_worker(args: list[str], deadline: float) -> dict:
    """Run worker.py to completion and return the JSON of its last output line."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def metric_specs() -> tuple[dict, dict]:
    """Name -> unit of the end-to-end and the per-layer metrics BENCHMARK.json lists."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return tuple({row["name"]: row["unit"] for row in spec[key]} for key in ("end_to_end", "per_layer"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--reference", type=Path, default=HERE / "reference.json")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cavityprobe" / "__init__.py").is_file():
        print(f"error: no cavityprobe source tree under {ROOT / 'src'}", file=sys.stderr)
        return 1
    if not 0 < args.seconds <= 120:
        parser.error("--seconds must lie in (0, 120]")
    end_to_end, per_layer = metric_specs()

    deadline = time.monotonic() + RUN_LIMIT_S
    work_root = ROOT / ".perfbench-work"
    work = work_root / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--size", args.size,
              "--work-dir", str(work)]
    try:
        # The first import after checkout compiles bytecode; users pay that
        # once, so one discarded probe comes first.
        probes = [run_worker(common + ["--seconds", "0", "--setup-only"], deadline)
                  for _ in range(SETUP_PROBES + 1)][1:]
        result = run_worker(common + ["--seconds", str(args.seconds), "--trace", str(args.trace),
                                      "--reference", str(args.reference.resolve())], deadline)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass

    import_s = statistics.median(p["import_s"] for p in probes)
    inputs_s = statistics.median(p["inputs_s"] for p in probes)
    if args.trace:
        values = dict(result["layers"])
        values["setup.import_s"] = import_s
        values["setup.inputs_s"] = inputs_s
        units = per_layer
    else:
        values = {
            "wall_s": result["wall_s"],
            "setup_s": statistics.median(p["import_s"] + p["inputs_s"] for p in probes),
            "peak_rss_mb": result["peak_rss_mb"],
            "max_err": result["max_err"],
        }
        units = end_to_end
    missing = sorted(set(units) - set(values))
    if missing:
        print(f"error: metrics not produced: {', '.join(missing)}", file=sys.stderr)
        return 1

    print("environment " + json.dumps(result["environment"], sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} size {args.size}: "
          f"{result['passes']['untraced']} untraced and {result['passes']['traced']} traced passes, "
          f"{SETUP_PROBES} set-up probes")
    print("wall_s samples " + json.dumps(result["wall_samples"]))
    for name, row in sorted(result.get("spans", {}).items()):
        print(f"span {name:28s} calls {row['calls']:6d}  total {row['total_s']:10.4f} s  self {row['self_s']:10.4f} s")
    for message in result["failures"]:
        print(f"FAILED {message}")
    for name, unit in units.items():
        print(f"{name:36s} {values[name]!r:>24} {unit}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
