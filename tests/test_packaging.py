import importlib
from pathlib import Path

import pytest

import vectx

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_every_exported_name_resolves():
    missing = [name for name in vectx.__all__ if not hasattr(vectx, name)]
    assert missing == []


def test_console_scripts_import():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with PYPROJECT.open("rb") as f:
        scripts = tomllib.load(f).get("project", {}).get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"console script {name} -> {target} is not callable"
