"""Every run of the suite holds the same local modules when its first test runs.

Hypothesis seeds part of its draws with constants it reads from the local
modules in sys.modules, even under derandomize=True.  A run of one test file
would otherwise hold fewer of them than the full suite, and could try
examples the full suite never tries.
"""

import importlib
import pkgutil
import sys
from pathlib import Path

import pytest

import cavityprobe

HERE = Path(__file__).resolve().parent
PERFBENCH = HERE.parent / "perfbench"


def pytest_collection_finish(session):
    """Import all of cavityprobe, every test module with dense_ops (tests/ is on the pytest pythonpath), and the
    perfbench modules test_benchmark_targets loads.  This runs after the Hypothesis plugin has applied its command
    line options, which settings made at a test module's import take.  A test module that fails to import is
    left to its own collection to report."""
    for info in pkgutil.iter_modules(cavityprobe.__path__):
        importlib.import_module(f"cavityprobe.{info.name}")
    for path in sorted(HERE.glob("test_*.py")):
        try:
            importlib.import_module(path.stem)
        except (Exception, pytest.skip.Exception):
            pass
    sys.path.insert(0, str(PERFBENCH))
    try:
        importlib.import_module("worker")  # imports tracing
    finally:
        sys.path.remove(str(PERFBENCH))
