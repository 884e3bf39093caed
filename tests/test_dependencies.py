import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import fillperm

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


# os's interface to the environment variables
ENVIRONMENT = {"environ", "environb", "getenv", "putenv"}


def environment_uses(path):
    """Names of ENVIRONMENT that a source file reads as an attribute
    (os.environ) or imports (from os import getenv)."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT:
            yield node.attr
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            yield from (a.name for a in node.names if a.name in ENVIRONMENT)


def test_library_reads_no_environment_variable():
    # a setting the library takes from the environment is an input no
    # argument shows; adding one is a deliberate change to this test
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) >= 10
    uses = {(path.name, name) for path in sources
            for name in environment_uses(path)}
    assert not uses


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


BENCH = ROOT / "bench"


def referenced_names(node):
    """Names an ast node mentions: names, attributes and import aliases."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.asname or sub.name.split(".")[-1]


def bench_words():
    """Every name and every word of a string constant in the benchmark
    sources, its own tests left out."""
    words = set()
    for path in sorted(BENCH.glob("*.py")):
        if path.name == "test_bench.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        words.update(referenced_names(tree))
        words.update(word for node in ast.walk(tree)
                     if isinstance(node, ast.Constant) and isinstance(node.value, str)
                     for word in re.findall(r"\w+", node.value))
    return words


def test_every_library_definition_has_a_caller():
    """Each top-level def and class is exported, used by library code
    outside its own body, or named by the benchmark."""
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert len(trees) >= 10
    callers = set(fillperm.__all__) | bench_words()
    uncalled = []
    for name, tree in trees.items():
        if name in ("__init__.py", "__main__.py"):
            continue
        elsewhere = {ref for other, t in trees.items() if other != name
                     for ref in referenced_names(t)}
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            in_module = {ref for top in tree.body if top is not node
                         for ref in referenced_names(top)}
            if node.name not in callers | elsewhere | in_module:
                uncalled.append(f"{name[:-3]}.{node.name}")
    assert uncalled == []


def enclosing_defs(tree, matches):
    """The innermost enclosing def of every node that matches (None at
    module level)."""
    found = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if matches(child):
                found.add(owner)
            inner = child.name if isinstance(child, ast.FunctionDef) else owner
            visit(child, inner)

    visit(tree, None)
    return found


def defs_mentioning(tree, attr):
    """The innermost enclosing def of every mention of attr as an
    attribute (None at module level)."""
    return enclosing_defs(
        tree, lambda node: isinstance(node, ast.Attribute) and node.attr == attr)


def unwrapped_unchecked(tree):
    """Line numbers of the mentions of `_unchecked` that are not the
    callee of the perm argument of a FillingPermutation(...) call."""
    wrapped = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "FillingPermutation"):
            perms = [*node.args[1:2], *(k.value for k in node.keywords if k.arg == "perm")]
            wrapped.update(id(p.func) for p in perms if isinstance(p, ast.Call))
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "_unchecked"
            and id(node) not in wrapped]


def test_only_filling_construction_skips_permutation_checks():
    # a Permutation built without its per-symbol checks is sound only
    # where its table is proved a bijection otherwise: once the bounded
    # is_filling walk of FillingPermutation accepts it, or as an element
    # of perms.closure, a product of checked generators.  So each
    # Permutation._unchecked(...) must be the perm argument of a
    # FillingPermutation(...) call or sit in closure, and no other code
    # may skip __init__ but the two trusted constructors pinned below
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert len(trees) >= 10
    unwrapped = set()
    for name, tree in trees.items():
        lines = set(unwrapped_unchecked(tree))
        mention = lambda node: (isinstance(node, ast.Attribute)
                                and node.attr == "_unchecked" and node.lineno in lines)
        unwrapped.update((name, owner) for owner in enclosing_defs(tree, mention))
    assert unwrapped == {("perms.py", "closure")}
    new = {(name, owner) for name, tree in trees.items()
           for owner in defs_mentioning(tree, "__new__")}
    assert new == {("perms.py", "_unchecked"), ("filling.py", "_trusted_conjugate"),
                   ("diagram.py", "_trusted_diagram")}
    # the one exception, a conjugate of a walked solution by a checked
    # twisting element, built only by the listing after twisting_closure
    named = lambda node: isinstance(node, ast.Name) and node.id == "_trusted_conjugate"
    callers = {(name, owner) for name, tree in trees.items()
               for owner in enclosing_defs(tree, named)}
    assert callers == {("enumeration.py", "enumerate_filling")}
    # and a diagram skips PairDiagram's checks only where diagram_of has
    # read it off a pair, whose round trip then checks it
    named = lambda node: isinstance(node, ast.Name) and node.id == "_trusted_diagram"
    callers = {(name, owner) for name, tree in trees.items()
               for owner in enclosing_defs(tree, named)}
    assert callers == {("diagram.py", "diagram_of")}
    # the tables the library builds: search bytes and diagram successors
    users = {name for name, tree in trees.items()
             if "_unchecked" in {n.attr for n in ast.walk(tree)
                                 if isinstance(n, ast.Attribute)}}
    assert users == {"cli.py", "diagram.py", "enumeration.py", "perms.py"}


def test_only_cut_patterns_carry_a_polygon_table():
    # t1 and euler_genus trust the polygon table a pattern carries, which
    # is sound only for the patterns cut from a valid pair, diagram or
    # search leaf; the check itself must never trust it
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert len(trees) >= 10
    # the table is written as object.__setattr__(pat, "_polygon", ...)
    named = lambda node: isinstance(node, ast.Constant) and node.value == "_polygon"
    writes = {(name, owner) for name, tree in trees.items()
              for owner in enclosing_defs(tree, named)}
    assert writes == {("gluing.py", "from_filling"), ("gluing.py", "_cut")}
    reads = {(name, owner) for name, tree in trees.items()
             for owner in defs_mentioning(tree, "_polygon")}
    # one reader, for t1 and euler_genus; not _check or validate
    assert reads == {("gluing.py", "_valid_polygon")}


def test_only_diagram_reads_keep_a_diagram_on_a_pair():
    # diagram_of hands back the diagram a pair keeps without its round
    # trip, which is sound only for the diagram the pair was made from
    # or the one diagram_of read off it and checked
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert len(trees) >= 10
    # the diagram is written as object.__setattr__(fp, "_diagram", ...)
    named = lambda node: isinstance(node, ast.Constant) and node.value == "_diagram"
    writes = {(name, owner) for name, tree in trees.items()
              for owner in enclosing_defs(tree, named)}
    assert writes == {("diagram.py", "to_filling_permutation"),
                      ("diagram.py", "diagram_of")}
    reads = {(name, owner) for name, tree in trees.items()
             for owner in defs_mentioning(tree, "_diagram")}
    assert reads == {("diagram.py", "diagram_of")}


def test_one_relabelling_action():
    # relabelling acts on tables in one place, the enumeration's
    # conjugates, which classify filling pairs and gluing patterns alike
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert len(trees) >= 10
    mentions = {name for name, tree in trees.items()
                if "relabeling_group" in set(referenced_names(tree))}
    assert mentions == {"filling.py", "enumeration.py"}
    # the pattern search takes its class test from the enumeration: the
    # one orderly search, its choice table and the admitting index
    taken = {alias.name for node in ast.walk(trees["gluing.py"])
             if isinstance(node, ast.ImportFrom) and node.module == "enumeration"
             for alias in node.names}
    assert taken == {"_admitting", "_choice_table", "_orderly"}
    # and no leaf test is left beside it: the streaming least-member
    # test lives on in the tests only, as an oracle
    defined = {node.name for tree in trees.values() for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert "_orderly" in defined
    assert not defined & {"_least_members", "_is_least"}


CACHES_AFTER_IMPORT = """
import fillperm, fillperm.cli
from fillperm import enumeration, filling
caches = (filling.relabeling_group, enumeration._admitting, enumeration._symbol_choices)
print(*(cache.cache_info().currsize for cache in caches))
"""


def test_importing_builds_no_search_table():
    # the group, the admitting index and the choice table are built on
    # first use, so a command that needs none pays for none, and no
    # count moves its work into the import
    src = os.path.dirname(os.path.dirname(os.path.abspath(fillperm.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", CACHES_AFTER_IMPORT],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0", "0", "0"]
