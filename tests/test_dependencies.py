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
