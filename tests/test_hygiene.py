"""Static hygiene of the package source, checked with the stdlib ``ast``.

Three kinds of dead code are refused anywhere in ``src/latshape``: an
import whose bound name is never read in its module, a module-level private
name (``_x``, not a dunder) that no module of the package ever reads, and a
method or property of a package class (dunders aside) that no module of the
package or of the tests ever reads as an attribute (``x.name``); a bare name
of the same spelling, such as a local variable, does not count.  Caches
must be bounded: no ``lru_cache(maxsize=None)`` and no ``functools.cache``.
No package function calls ``hnf`` or ``snf`` only to throw every
transformation away: the transformation is paid for, so a caller that
needs none calls ``hnf_basis`` or ``invariant_factors``.  No module reads
another module's private name (``kernel._x`` or ``from .kernel import
_x``): what a second module needs is public.  Every module but ``__init__``
and the ``cli`` entry point is imported by another module of the package:
a module nothing imports is a script or dead code.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "latshape"


def _modules():
    return {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def _reads(tree):
    """Every name read in the tree, bare or as an attribute."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
    return out


def _attribute_reads(tree):
    """Every attribute name read in the tree: a method is reached as ``x.name``."""
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def _private_globals(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name


def test_no_unused_imports():
    unused = []
    for mod, tree in _modules().items():
        reads = _reads(tree)
        unused += ["%s: %s" % (mod, name) for name in _imported_names(tree) if name not in reads]
    assert unused == []


def test_no_unread_private_globals():
    modules = _modules()
    read = set().union(*(_reads(tree) for tree in modules.values()))
    unread = [
        "%s.%s" % (mod, name)
        for mod, tree in modules.items()
        for name in _private_globals(tree)
        if name not in read
    ]
    assert unread == []


def test_no_unread_methods():
    modules = _modules()
    tests = [ast.parse(path.read_text()) for path in sorted(TESTS.glob("*.py"))]
    read = set().union(*(_attribute_reads(tree) for tree in list(modules.values()) + tests))
    unread = [
        "%s.%s.%s" % (mod, cls.name, node.name)
        for mod, tree in modules.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
        and not node.name.startswith("__")
        and node.name not in read
    ]
    assert unread == []


def _unbounded_caches(tree):
    """Functions decorated by ``cache`` or by ``lru_cache`` with maxsize None."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for dec in node.decorator_list:
            target, sizes = dec, []
            if isinstance(dec, ast.Call):
                target = dec.func
                sizes = dec.args[:1] + [kw.value for kw in dec.keywords if kw.arg == "maxsize"]
            name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
            unbounded = any(isinstance(v, ast.Constant) and v.value is None for v in sizes)
            if name == "cache" or (name == "lru_cache" and unbounded):
                yield node.name


def test_caches_are_bounded():
    unbounded = [
        "%s.%s" % (mod, name)
        for mod, tree in _modules().items()
        for name in _unbounded_caches(tree)
    ]
    assert unbounded == []


def _discards_transforms(node):
    """``h, _ = hnf(...)``, ``d, _, _ = snf(...)`` or ``hnf(...)[0]``."""
    if isinstance(node, ast.Assign):
        call, targets = node.value, node.targets
        discarded = any(
            isinstance(t, ast.Tuple)
            and all(isinstance(e, ast.Name) and e.id == "_" for e in t.elts[1:])
            for t in targets
        )
    elif isinstance(node, ast.Subscript):
        call = node.value
        discarded = isinstance(node.slice, ast.Constant) and node.slice.value == 0
    else:
        return False
    if not (discarded and isinstance(call, ast.Call)):
        return False
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    return name in ("hnf", "snf")


def test_no_discarded_transforms():
    wasteful = sorted(
        "%s.%s" % (mod, func.name)
        for mod, tree in _modules().items()
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef)
        and any(_discards_transforms(node) for node in ast.walk(func))
    )
    assert wasteful == []


def _is_private(name):
    return name.startswith("_") and not name.startswith("__")


def _foreign_private_reads(mod, tree):
    """``module:line sibling._name`` for each private name read across modules."""
    siblings = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                siblings.update(alias.asname or alias.name for alias in node.names)
            else:
                for alias in node.names:
                    if _is_private(alias.name):
                        yield "%s:%d %s.%s" % (mod, node.lineno, node.module, alias.name)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in siblings
            and _is_private(node.attr)
        ):
            yield "%s:%d %s.%s" % (mod, node.lineno, node.value.id, node.attr)


def test_no_foreign_private_reads():
    foreign = [
        hit for mod, tree in _modules().items() for hit in _foreign_private_reads(mod, tree)
    ]
    assert foreign == []


def _imported_modules(tree):
    """The sibling modules a module imports (``from . import x``, ``from .x
    import y``); the package imports its own modules only relatively."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                yield from (alias.name for alias in node.names)
            else:
                yield node.module.split(".")[0]


def test_no_orphan_modules():
    modules = _modules()
    imported = {
        name
        for mod, tree in modules.items()
        for name in _imported_modules(tree)
        if name != mod
    }
    orphans = sorted(set(modules) - imported - {"__init__", "cli"})
    assert orphans == []
