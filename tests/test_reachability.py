"""Every top-level name in src/weylkit is reached, or KEPT says why not;
every module has a reached name; every class member is read, or
KEPT_MEMBERS says why not.

A name is reached when a reached definition or a module-level statement
(other than a definition or an import) of src/weylkit references it, or
when a perfbench/*.py file does.  References are resolved through the
imports of the file that makes them, so `linalg.mat_mul` and
`laurent.mat_mul` are different names.  The walk starts from the
module-level statements (`cli`'s `__main__` block calls `main`, the
console script) and the benchmark, and repeats until nothing more is
reached, so a helper called only by unreached code is unreached too.
Tests are not callers.

The members of a class are its methods and properties, the names its
body assigns (dataclass fields among them) and the `self.x` attributes
its methods assign.  A member is read when a src/weylkit or
perfbench/*.py file loads `.name`, or passes "name" to `getattr`.  Reads
are matched by name alone, since the owner of `x.name` is not known
without running the code, so a member is counted as read when any
object's attribute of that name is.  Dunders are left out: Python calls
them implicitly.  Tests are not readers.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "weylkit"
BENCH = ROOT / "perfbench"

_LAYERTRACE = ("perfbench/layertrace.py wraps it by name: LayerTrace.install"
               " raises KeyError when a target is missing")

# Unreached names, each with the reason it stays.  mat_inv and
# row_reduce lost their last src/ caller when the coset geometry's
# lattice basis became an integer forward substitution; tests still use
# mat_inv as a reference.  laurent.mat_mul lost its last one when C7
# began conjugating by each generator as it is drawn; the reference
# routes still multiply with it.  lattices.is_lie_closed lost its one when
# the isotropic route stopped testing a trilinear form that vanishes by
# construction (see the lattices docstring); tests still call it.
KEPT = {
    "__init__.__version__": "the package version",
    "laurent.mat_mul": _LAYERTRACE,
    "linalg.mat_inv": _LAYERTRACE,
    "linalg.row_reduce": _LAYERTRACE,
    "linalg.snf_diag": _LAYERTRACE,
    "lattices.enumerate_isotropic": _LAYERTRACE,
    "lattices.enumerate_self_dual": _LAYERTRACE,
    "lattices.is_lie_closed": _LAYERTRACE,
}

# Unread class members, "module.Class.member", each with the reason it
# stays.
KEPT_MEMBERS = {}


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


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def class_members(tree, module):
    """"module.Class.member" for every member of every class in tree."""
    members = set()
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        names = {name for stmt in cls.body for name in _defined_names(stmt)}
        for sub in ast.walk(cls):
            if (isinstance(sub, ast.Attribute)
                    and isinstance(sub.ctx, ast.Store)
                    and isinstance(sub.value, ast.Name)
                    and sub.value.id == "self"):
                names.add(sub.attr)
        members |= {f"{module}.{cls.name}.{name}" for name in names
                    if not _is_dunder(name)}
    return members


def member_reads(tree):
    """Names the tree loads as `.name` or passes as "name" to getattr."""
    reads = set()
    for sub in ast.walk(tree):
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            reads.add(sub.attr)
        elif (isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
              and sub.func.id == "getattr" and len(sub.args) >= 2
              and isinstance(sub.args[1], ast.Constant)
              and isinstance(sub.args[1].value, str)):
            reads.add(sub.args[1].value)
    return reads


def unread_members(trees, readers=()):
    """(all class members, unread members) as "module.Class.member" for
    the classes of trees, {module: tree}, read by trees and readers."""
    members = set()
    reads = set()
    for module, tree in trees.items():
        members |= class_members(tree, module)
        reads |= member_reads(tree)
    for tree in readers:
        reads |= member_reads(tree)
    return members, {m for m in members if m.rpartition(".")[2] not in reads}


def package_members():
    """unread_members of src/weylkit, read by it and perfbench/*.py."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    bench = [ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(BENCH.glob("*.py"))]
    return unread_members(trees, bench)


def test_the_unreached_names_are_exactly_the_kept_ones():
    names, gaps = unreached()
    assert gaps - set(KEPT) == set(), "unreached and not KEPT"
    assert set(KEPT) - names == set(), "KEPT names that no longer exist"
    assert set(KEPT) - gaps == set(), "KEPT names that are now reached"
    # every module has a reached name; __init__ runs on every import of
    # the package, and its one name is KEPT
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules - {n.partition(".")[0] for n in names - gaps} == set(), \
        "modules that nothing reaches"


def test_the_walk_starts_at_the_cli_and_follows_calls():
    names, gaps = unreached()
    # cli.main is reached from the __main__ block, the commands through
    # build_parser's table of subparser builders, and linalg.in_span only
    # through costandard's layers.
    assert {"cli.main", "cli._add_fourier", "cli._cmd_fourier",
            "linalg.in_span"} <= names - gaps


def test_references_resolve_through_the_imports():
    tree = ast.parse("from . import laurent\n"
                     "from .linalg import rank as r\n"
                     "x = laurent.mat_mul(r, mat_mul, y)\n")
    bound = _bindings(tree, "m", {"x", "y"})
    assert _references(tree, bound) == {
        ("laurent", "mat_mul"), ("linalg", "rank"), ("m", "x"), ("m", "y")}


def test_the_unread_members_are_exactly_the_kept_ones():
    members, gaps = package_members()
    assert gaps - set(KEPT_MEMBERS) == set(), "unread and not KEPT_MEMBERS"
    assert set(KEPT_MEMBERS) - members == set(), \
        "KEPT_MEMBERS that no longer exist"
    assert set(KEPT_MEMBERS) - gaps == set(), "KEPT_MEMBERS that are now read"


def test_the_member_walk_sees_every_kind_of_member():
    members, gaps = package_members()
    # a method, a property, a dataclass field and a self.x attribute
    assert {"weyl.WeylElement.word", "cyclotomic.Cyc.m",
            "alcove.TorusPoint.order", "alcove.CellLabel.S",
            "alcove.CosetGeometry.quotient_left"} <= members - gaps
    assert not any(_is_dunder(m.rpartition(".")[2]) for m in members)


def test_members_are_read_through_attributes_and_getattr():
    module = ast.parse(
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class Point:\n"
        "    x: int\n"
        "    y: int\n"
        "    def __init__(self):\n"
        "        self.cache = {}\n"
        "    def norm(self):\n"
        "        return self.x\n"
        "    def unused(self):\n"
        "        return getattr(self, 'y')\n"
        "    def __repr__(self):\n"
        "        return 'Point'\n"
        "def f(p):\n"
        "    p.cache = 1\n"
        "    return p.norm()\n")
    members, gaps = unread_members({"m": module})
    assert members == {"m.Point.x", "m.Point.y", "m.Point.cache",
                       "m.Point.norm", "m.Point.unused"}
    # x, norm and y are read through `.x`, `.norm` and getattr(self,
    # "y"); `p.cache = 1` stores, and nothing reads unused
    assert gaps == {"m.Point.cache", "m.Point.unused"}
    # a reader outside the package counts, as perfbench does
    reader = ast.parse("def g(p):\n    return p.unused()\n")
    assert unread_members({"m": module}, [reader])[1] == {"m.Point.cache"}
