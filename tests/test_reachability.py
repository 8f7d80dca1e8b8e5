"""Every top-level name in src/weylkit is reached, or KEPT says why not.

A name is reached when a reached definition or a module-level statement
(other than a definition or an import) of src/weylkit references it, or
when a perfbench/*.py file does.  References are resolved through the
imports of the file that makes them, so `linalg.mat_mul` and
`laurent.mat_mul` are different names.  The walk starts from the
module-level statements (`cli`'s `__main__` block calls `main`, the
console script) and the benchmark, and repeats until nothing more is
reached, so a helper called only by unreached code is unreached too.
Tests are not callers.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "weylkit"
BENCH = ROOT / "perfbench"

_LAYERTRACE = ("perfbench/layertrace.py wraps it by name: LayerTrace.install"
               " raises KeyError when a target is missing")
_OMEGA = ("the extended group Omega; ROADMAP item 5 makes it a registry"
          " row, and no src/ module imports omega yet")

# Unreached names, each with the reason it stays.
KEPT = {
    "__init__.__version__": "the package version",
    "linalg.snf_diag": _LAYERTRACE,
    "lattices.enumerate_isotropic": _LAYERTRACE,
    "lattices.enumerate_self_dual": _LAYERTRACE,
    "pgl2.conjugate_levels": "test seam: the fault gate and the pgl2 walk"
                             " tests compare the walk with it",
    "pgl2._tau_conjugate": "test seam: conjugate_levels' one step",
    "pgl2._children": "builds every matrix of a level, for"
                      " conjugate_levels only",
    "weyl.from_word": "test seam: builds elements from words in tests",
    "witt.witt_zero": "test seam: the additive identity in tests",
}
KEPT_MODULES = {"omega": _OMEGA}


def _bindings(tree, this_module, local_names):
    """Names bound by the file's `from` imports of weylkit (anywhere in
    it) and its own top-level definitions: name -> ("module", m) or
    ("name", m, attr)."""
    bound = {name: ("name", this_module, name) for name in local_names}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 1:
            source = node.module
        elif (node.module or "").partition(".")[0] == "weylkit":
            source = node.module.partition(".")[2] or None
        else:
            continue
        for alias in node.names:
            bound[alias.asname or alias.name] = (
                ("module", alias.name) if source is None
                else ("name", source, alias.name))
    return bound


def _references(node, bound):
    """(module, name) pairs the subtree references, as a bare name or as
    an attribute of an imported module."""
    refs = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            target = bound.get(sub.id)
        elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
            owner = bound.get(sub.value.id)
            if not owner or owner[0] != "module":
                continue
            target = ("name", owner[1], sub.attr)
        else:
            continue
        if target and target[0] == "name":
            refs.add(target[1:])
    return refs


def _defined_names(stmt):
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        return [stmt.name]
    targets = []
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    names = []
    for target in targets:
        for sub in ast.walk(target):
            if isinstance(sub, ast.Name):
                names.append(sub.id)
    return names


def unreached():
    """(all top-level names, unreached names) as "module.name" strings."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    edges = {}   # (module, name) -> referenced (module, name) pairs
    roots = set()
    for module, tree in trees.items():
        defined = {name: stmt for stmt in tree.body
                   for name in _defined_names(stmt)}
        bound = _bindings(tree, module, defined)
        for stmt in tree.body:
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                continue
            refs = _references(stmt, bound)
            names = _defined_names(stmt)
            if not names:
                roots |= refs
            for name in names:
                edges.setdefault((module, name), set()).update(refs)
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        roots |= _references(tree, _bindings(tree, None, ()))
    reached = set()
    frontier = roots & set(edges)
    while frontier:
        reached |= frontier
        frontier = {ref for key in frontier for ref in edges[key]
                    if ref in edges} - reached
    names = {f"{m}.{n}" for m, n in edges}
    return names, {f"{m}.{n}" for m, n in set(edges) - reached}


def test_the_unreached_names_are_exactly_the_kept_ones():
    names, gaps = unreached()
    modules = {n.partition(".")[0] for n in names}
    assert set(KEPT_MODULES) <= modules, "KEPT modules that no longer exist"
    kept = set(KEPT) | {n for n in names
                        if n.partition(".")[0] in KEPT_MODULES}
    assert gaps - kept == set(), "unreached and not KEPT"
    assert set(KEPT) - names == set(), "KEPT names that no longer exist"
    assert kept - gaps == set(), "KEPT names that are now reached"


def test_the_walk_starts_at_the_cli_and_follows_calls():
    names, gaps = unreached()
    # cli.main is reached from the __main__ block, the commands from
    # build_parser, and linalg.solve only through costandard's layers.
    assert {"cli.main", "cli._cmd_fourier", "linalg.solve"} <= names - gaps


def test_references_resolve_through_the_imports():
    tree = ast.parse("from . import laurent\n"
                     "from .linalg import rank as r\n"
                     "x = laurent.mat_mul(r, mat_mul, y)\n")
    bound = _bindings(tree, "m", {"x", "y"})
    assert _references(tree, bound) == {
        ("laurent", "mat_mul"), ("linalg", "rank"), ("m", "x"), ("m", "y")}
