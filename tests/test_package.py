"""The package's import surface: what `import cavityprobe` offers, and README's use of it."""

import os
import re
import subprocess
import sys
import types
import warnings
from pathlib import Path

import pytest

import cavityprobe
from cavityprobe import fock, instrument, metrics, oracle

ROOT = Path(__file__).resolve().parents[1]


def test_package_exports_exactly_the_modules_all():
    exported = {name for name, value in vars(cavityprobe).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert exported == {name for module in (fock, instrument, metrics, oracle) for name in module.__all__}
    assert "dt_limit" in exported
    assert not exported & {"superop_dim", "pure_dephasing_rate", "P_FLOOR", "sandwich_superop",
                           "vec", "unvec", "apply_superop", "choi_matrix"}


def test_readme_library_example_runs(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Library\n\n```python\n(.*?)^```$", readme, re.MULTILINE | re.DOTALL)
    assert block, "README has no python block under '## Library'"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", block.group(1)], capture_output=True, text=True, env=env,
                          cwd=tmp_path)
    assert done.returncode == 0, done.stderr


def test_version_is_stated_once():
    """pyproject.toml reads the version from cavityprobe.__version__ instead of restating it."""
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    with warnings.catch_warnings():
        # setuptools marks its [tool.setuptools] support as beta with a warning
        warnings.simplefilter("ignore", pyprojecttoml._BetaConfiguration)
        project = pyprojecttoml.read_configuration(ROOT / "pyproject.toml", expand=True)["project"]
    assert "version" in project["dynamic"] and project["version"] == cavityprobe.__version__
