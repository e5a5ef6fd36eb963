"""Every name the package defines has a caller outside the tests.

A top-level function or class of src/altpaths must be named (an ast.Name
or ast.Attribute) somewhere in the package's modules, in scripts/ or in
perfbench/; a method other than a dunder must be named by an
ast.Attribute there.  Code that only the tests call belongs in the tests.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "altpaths"

# name -> the ROADMAP item that gives it a production caller
ALLOWED = {
    "has_alt_path_k": "ROADMAP item 3: the frontier search rejects moves with its want_k exit",
}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _definitions() -> tuple[set[str], set[str]]:
    """(top-level function and class names, non-dunder method names) of the package."""
    top, methods = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _parse(path).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                top.add(node.name)
            if isinstance(node, ast.ClassDef):
                methods.update(
                    item.name
                    for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not (item.name.startswith("__") and item.name.endswith("__"))
                )
    return top, methods


def _references() -> tuple[set[str], set[str]]:
    """(ast.Name ids, ast.Attribute attrs) in the package, scripts/ and perfbench/."""
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    files += sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    names, attrs = set(), set()
    for path in files:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
    return names, attrs


def _uncalled() -> set[str]:
    top, methods = _definitions()
    names, attrs = _references()
    return {name for name in top if name not in names | attrs} | (methods - attrs)


def test_no_definition_only_tests_call():
    uncalled = _uncalled()
    only_tests = sorted(uncalled - ALLOWED.keys())
    assert not only_tests, f"move into the tests or give a caller: {only_tests}"
    # an allowed name that gained a caller leaves the list
    assert ALLOWED.keys() <= uncalled, f"drop from ALLOWED: {sorted(ALLOWED.keys() - uncalled)}"
