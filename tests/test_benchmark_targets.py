"""Every function the benchmark's traced runs rebind must exist under the name it uses.

`perfbench/worker.py` times each layer by rebinding module attributes such as
`cavityprobe.cli.integrate_instrument`.  A rename or removal in the package
would otherwise only show when someone runs `perfbench/run.py --trace 1`.
"""

import importlib
from pathlib import Path

import pytest

import cavityprobe
import cavityprobe.cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.parametrize("name", ["figure-grid", "maps-ladder", "fock-d20", "oracle-ladder"])
def test_trace_targets_resolve(name, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    worker = importlib.import_module("worker")
    workload = worker.WORKLOADS[name](cavityprobe, worker.SIZES["tiny"], 0, tmp_path)
    targets = workload.trace_targets(cavityprobe)
    assert targets
    for module, attribute, _, _ in targets:
        assert callable(getattr(module, attribute, None)), f"{module.__name__}.{attribute} is gone"
