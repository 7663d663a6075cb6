"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record_reference.py

Runs one pass of every workload at both sizes (every Fock index for
fock-d20) with one BLAS thread and writes ``reference.json``.  Values are
stored to ``worker.DECIMALS`` places; the oracle residuals are stored to the
seven significant digits criterion 5 quotes.  Re-record only when an
output is meant to change, and say so where the change is described.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import worker  # noqa: E402


def rounded(values):
    return [None if v is None else round(float(v), worker.DECIMALS) for v in values]


def record(pkg, size_name: str, name: str, work: Path) -> dict:
    size = worker.SIZES[size_name]
    seeds = range(len(size["fock_n"])) if name == "fock-d20" else [0]
    out = {}
    for seed in seeds:
        workload = worker.WORKLOADS[name](pkg, size, seed, work)
        _, _, ops = worker.run_pass(workload, None)
        for op, (values, errors) in ops.items():
            if errors:
                raise SystemExit(f"{size_name} {name} {op}: {errors}")
            if name == "oracle-ladder":
                out[op] = {k: [float(f"{v:.6e}") for v in vs] for k, vs in values.items()}
            else:
                out[op] = {k: rounded(vs) for k, vs in values.items()}
    return out


def main() -> int:
    pkg = worker.load_package()
    reference = {}
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        for size_name in ("full", "tiny"):
            reference[size_name] = {name: record(pkg, size_name, name, Path(tmp)) for name in worker.WORKLOADS}
    (HERE / "reference.json").write_text(json.dumps(reference, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
