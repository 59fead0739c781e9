"""The package's public names, ``hexcount.__all__``, and the layering between its modules."""

import ast
from pathlib import Path

import hexcount


def test_every_exported_name_resolves():
    missing = [name for name in hexcount.__all__ if not hasattr(hexcount, name)]
    assert missing == []


def test_every_exported_name_appears_once():
    assert len(set(hexcount.__all__)) == len(hexcount.__all__)


def test_exports_are_sorted():
    assert hexcount.__all__ == sorted(hexcount.__all__)


def _trees():
    """Module file name -> parsed source, for every module of the package."""
    package = Path(hexcount.__file__).parent
    return {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(package.glob("*.py"))}


def test_records_are_built_only_in_checks():
    builders = {
        name
        for name, tree in _trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == "CheckRecord"
    }
    assert builders == {"checks.py"}


def test_cli_imports_no_factorcheck_or_bruteforce():
    imported = set()
    for node in ast.walk(_trees()["cli.py"]):
        if isinstance(node, ast.Import):
            imported.update(part for alias in node.names for part in alias.name.split("."))
        elif isinstance(node, ast.ImportFrom):
            imported.update((node.module or "").split("."))
            imported.update(alias.name for alias in node.names)
    assert imported & {"factorcheck", "bruteforce"} == set()
