"""Smoke test: every example script imports against the current API.

Each example keeps its work behind an ``if __name__ == "__main__"``
guard, so importing one runs nothing; a public name an example uses
that no longer exists fails here instead of in a user's hands.
"""

import importlib.util
from pathlib import Path

import pytest

EXAMPLES = sorted(
    (Path(__file__).resolve().parents[2] / "examples").glob("*.py")
)


def test_examples_directory_is_not_empty():
    assert EXAMPLES


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_imports(path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
