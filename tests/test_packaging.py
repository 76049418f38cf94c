import ast
import importlib
from pathlib import Path

import pytest

import vectx
from vectx import errors

ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = ROOT / "pyproject.toml"


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


def unused_top_level_imports(path: Path) -> list[str]:
    """Names a module imports at top level and never reads, leaving out
    ``from __future__`` imports and the names in ``__all__``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported, exported = set(), set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            exported |= set(ast.literal_eval(node.value))
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted(imported - read - exported)


def test_no_unused_top_level_imports():
    modules = sorted((ROOT / "src" / "vectx").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    unused = {
        str(path.relative_to(ROOT)): names
        for path in modules
        if (names := unused_top_level_imports(path))
    }
    assert unused == {}


def defined_names(node: ast.stmt) -> set[str]:
    """The names a module-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {node.name}
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return {n.id for t in targets if t for n in ast.walk(t) if isinstance(n, ast.Name)}


def read_names(node: ast.stmt) -> set[str]:
    """The names a statement reads, as a name or as an attribute."""
    names = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
    return names


def test_no_unused_private_helpers():
    # A module-level ``_name`` counts as read only outside the statement
    # that defines it, so a recursive helper with no caller is caught too.
    statements = [
        (str(path.relative_to(ROOT)), node)
        for path in sorted((ROOT / "src" / "vectx").glob("*.py"))
        for node in ast.parse(path.read_text(), filename=str(path)).body
    ]
    reads = [read_names(node) for _, node in statements]
    unused = [
        f"{module}: {name}"
        for i, (module, node) in enumerate(statements)
        for name in sorted(defined_names(node))
        if name.startswith("_")
        and not name.startswith("__")
        and not any(name in r for j, r in enumerate(reads) if j != i)
    ]
    assert unused == []


def test_every_error_class_is_raised():
    # An error class counts as raised where a module in src/vectx calls it,
    # passes it to a call (a helper that raises it) or subclasses it.
    classes = {
        name
        for name, obj in vars(errors).items()
        if isinstance(obj, type) and issubclass(obj, errors.VectxError)
    }
    used = set()
    for path in (ROOT / "src" / "vectx").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                names = [node.func, *node.args]
            elif isinstance(node, ast.ClassDef):
                names = node.bases
            else:
                continue
            used |= {n.id for n in names if isinstance(n, ast.Name)}
    assert sorted(classes - used) == []
