"""Fast self-test of the benchmark harness on tiny workload sizes.

    python3 perfbench/selftest.py

For every workload it checks that an untraced and a traced run each print
exactly the metrics BENCHMARK.json names, with their units, and pass their
output checks; that a deliberately wrong reference value turns into failed
operations; and that the benchmark refuses to run, printing no result, when
the package source is absent.  It takes about a minute and is not part of
the test suite.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, str]:
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)
    return proc.returncode, proc.stdout


def result(stdout: str) -> dict:
    out = json.loads(stdout.strip().splitlines()[-1])
    if set(out) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"result keys {sorted(out)}")
    return out


def check_metrics(out: dict, spec: list[dict], label: str) -> None:
    want = {row["name"]: row["unit"] for row in spec}
    got = {name: m["unit"] for name, m in out["metrics"].items()}
    if got != want:
        raise AssertionError(f"{label}: metrics {sorted(set(got) ^ set(want))} differ from BENCHMARK.json")
    for name, m in out["metrics"].items():
        if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            raise AssertionError(f"{label}: {name} = {m['value']!r}")


def wrong_reference(path: Path) -> None:
    """Shift one checked value of every tiny operation well past the tolerance."""
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    for ops in reference["tiny"].values():
        for values in ops.values():
            series = values.get("P_g") or values["residual_g"]
            series[-1] += 1e-6
    path.write_text(json.dumps(reference), encoding="utf-8")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    work = ROOT / ".perfbench-work" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        wrong = work / "wrong-reference.json"
        wrong_reference(wrong)
        for workload in (row["name"] for row in spec["workloads"]):
            common = ["--workload", workload, "--seed", "1", "--seconds", "1", "--size", "tiny"]
            for trace, rows in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
                label = f"{workload} --trace {trace}"
                rc, stdout = bench(*common, "--trace", trace)
                out = result(stdout)
                if rc != 0 or not out["correct"] or out["failed"] or out["attempted"] < 1:
                    raise AssertionError(f"{label}: rc {rc}, {out['attempted']} attempted, {out['failed']} failed")
                check_metrics(out, rows, label)
            rc, stdout = bench(*common, "--trace", "0", "--reference", str(wrong))
            out = result(stdout)
            if rc != 0 or out["correct"] or out["failed"] < 1:
                raise AssertionError(f"{workload}: wrong reference gave {out['failed']} failed operations")
            print(f"ok {workload}")

        stripped = work / "stripped"
        shutil.copytree(HERE, stripped / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", stripped)
        rc, stdout = bench("--workload", "fock-d20", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=stripped)
        if rc == 0 or '"correct"' in stdout:
            raise AssertionError(f"without the package source: rc {rc}, output {stdout!r}")
        print("ok refuses to run without the package source")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    print("selftest ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
