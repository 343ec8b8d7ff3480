"""Packaging metadata: ``repro.__version__`` is the one version number."""

from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

PYPROJECT = Path(__file__).resolve().parents[2] / "pyproject.toml"


def test_pyproject_takes_version_from_package():
    project = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))
    assert "version" not in project["project"], "static version in pyproject"
    assert "version" in project["project"]["dynamic"]
    dynamic = project["tool"]["setuptools"]["dynamic"]
    assert dynamic["version"] == {"attr": "repro.__version__"}
