import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fillperm"
PYPROJECT = ROOT / "pyproject.toml"


def absolute_imports(path):
    """Top-level module of every absolute import in a source file."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_library_imports_only_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) >= 10
    foreign = {
        (path.name, top)
        for path in sources
        for top in absolute_imports(path)
        if top != "fillperm" and top not in sys.stdlib_module_names
    }
    assert not foreign


def test_pyproject_declares_no_dependencies():
    text = PYPROJECT.read_text()
    assert re.search(r"^dependencies = \[\]$", text, re.MULTILINE)


# Imports the benchmark's tracer wraps (bench/spans.py TARGETS) in a
# module that does not call them itself.
TRACER_HELD = {
    "cli.py": {"classify_solutions", "enumerate_filling"},
    "zpiece.py": {"enumerate_filling"},
}


def unreferenced_imports(path):
    """Names a source file imports but never mentions again."""
    tree = ast.parse(path.read_text(), str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def test_library_modules_import_only_names_they_use():
    sources = [path for path in sorted(PACKAGE.glob("*.py"))
               if path.name != "__init__.py"]
    assert len(sources) >= 10
    unused = {path.name: names for path in sources
              if (names := unreferenced_imports(path))}
    assert unused == TRACER_HELD
