"""The benchmark's workloads must keep running against the package.

`perfbench/worker.py` times each layer by rebinding module attributes such as
`cavityprobe.cli.integrate_instrument`, and checks every output against
`perfbench/reference.json`.  A rename or removal in the package, output
drift beyond the benchmark's tolerance, or a broken count function would
otherwise only show when someone runs `perfbench/run.py --trace 1`.
"""

import importlib
import json
from pathlib import Path

import pytest

import cavityprobe
import cavityprobe.cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


WORKLOADS = ["figure-grid", "maps-ladder", "fock-d20", "oracle-ladder"]


@pytest.mark.parametrize("name", WORKLOADS)
def test_trace_targets_resolve(name, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    worker = importlib.import_module("worker")
    workload = worker.WORKLOADS[name](cavityprobe, worker.SIZES["tiny"], 0, tmp_path)
    targets = workload.trace_targets(cavityprobe)
    assert targets
    for module, attribute, _, _ in targets:
        assert callable(getattr(module, attribute, None)), f"{module.__name__}.{attribute} is gone"


def traced_tiny_pass(name, tmp_path, monkeypatch):
    """(worker module, tracer, checked operations) of one traced pass of workload `name` at the tiny size."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    worker = importlib.import_module("worker")
    tracing = importlib.import_module("tracing")
    workload = worker.WORKLOADS[name](cavityprobe, worker.SIZES["tiny"], 0, tmp_path)
    tracer = tracing.Tracer()
    with tracing.Patch(tracer, workload.trace_targets(cavityprobe)):
        _, _, ops = worker.run_pass(workload, tracer)
    return worker, tracer, ops


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_tiny_pass_matches_reference(name, tmp_path, monkeypatch):
    worker, tracer, ops = traced_tiny_pass(name, tmp_path, monkeypatch)
    reference = json.loads(worker.REFERENCE.read_text(encoding="utf-8"))["tiny"][name]
    failed, _, messages = worker.compare(ops, reference)
    assert failed == 0, messages
    worker.layer_metrics(tracer)


@pytest.mark.parametrize("name", WORKLOADS)
def test_generator_build_is_traced(name, tmp_path, monkeypatch):
    """The integrators reach the block generator through the name the benchmark rebinds."""
    _, tracer, _ = traced_tiny_pass(name, tmp_path, monkeypatch)
    builds = [span for span in tracer.spans if span.name == "superop.generator_build"]
    assert builds and all(span.end > span.start for span in builds)
