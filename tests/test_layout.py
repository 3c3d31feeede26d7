"""Dead-code guard for src/apnkit, with ast instead of a linter: every
module-level import of a module is used in it, no function imports from
the package, and every private module-level function, class or constant
is referenced somewhere in the package. Dunder names and the re-exports of
__init__.py are exempt. Every Python file of the repo also parses with the
grammar of the oldest supported Python, 3.10."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "apnkit"
MODULES = sorted(PACKAGE.glob("*.py"))
SOURCES = sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))
OLDEST_PYTHON = (3, 10)     # requires-python in pyproject.toml


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _read_names(tree):
    return {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def _imported_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def _private_definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        yield from (t for t in targets if t.startswith("_") and not _is_dunder(t))


def _references(tree):
    """Names read, attributes taken and names imported anywhere in a module."""
    out = _read_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out |= {alias.name for alias in node.names}
    return out


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_module_level_imports_are_used(path):
    tree = _tree(path)
    used = _read_names(tree)
    assert sorted(set(_imported_names(tree)) - used) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_package_imports_are_at_module_level(path):
    """No function imports from the package: none of its modules imports
    another back, so every such import can sit at the top."""
    local = [f"{fn.name}:{node.lineno}"
             for fn in ast.walk(_tree(path))
             if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(fn)
             if isinstance(node, ast.ImportFrom) and node.level > 0]
    assert local == []


def test_private_definitions_are_referenced():
    trees = {p.name: _tree(p) for p in MODULES}
    referenced = set().union(*(_references(t) for t in trees.values()))
    unreferenced = [f"{name}:{d}" for name, tree in trees.items()
                    for d in _private_definitions(tree) if d not in referenced]
    assert unreferenced == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_sources_parse_with_the_oldest_supported_grammar(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
              feature_version=OLDEST_PYTHON)


def test_oldest_grammar_rejects_newer_syntax():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n",
                  feature_version=OLDEST_PYTHON)
