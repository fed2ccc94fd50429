"""No dead code and no unused import in the package.

Every public module-level function and class of the package, and every public
method of its public classes, is used by the package or the benchmark.  A
function, class or method that only the tests use belongs in
``tests/helpers.py``.  A use of a function or class is a name or an attribute
access in a ``.py`` file under ``src/`` or ``bench/``; a use of a method is an
attribute access, since a method is only reached through its object or class.
The own ``def`` or ``class`` statement, strings and comments do not count.
Dunder methods are called by the language, not by name, and are not checked.
The scan goes by name only, so an attribute of the same name on another type
still hides an unused method: numpy's ``Generator.normal`` hid an unused
``Rng.normal``, and ``cfg.seed``, ``params.seed`` and the like hid an unused
``Rng.seed``.  Both were deleted by hand.

Every name a package module imports at module level is used in that module.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ddimine"


def _public_defs(body):
    """The public functions of a module body, and the public methods of its public classes."""
    for node in body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            yield from (f"{node.name}.{name}" for name in _public_defs(node.body) if "." not in name)


def _uses() -> tuple[Counter, Counter]:
    """Names and attribute accesses (what a function or class is used by), and attribute accesses alone (what a
    method is used by), over the package and the benchmark."""
    names: Counter = Counter()
    attributes: Counter = Counter()
    for path in [*(ROOT / "src").rglob("*.py"), *(ROOT / "bench").rglob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names[node.id] += 1
            elif isinstance(node, ast.Attribute):
                names[node.attr] += 1
                attributes[node.attr] += 1
    return names, attributes


def test_every_public_function_is_used_outside_its_def():
    names, attributes = _uses()
    public = [
        f"{path.stem}.{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in _public_defs(ast.parse(path.read_text(encoding="utf-8")).body)
    ]
    assert len(public) > 90  # the scan sees the package, methods included
    # a method is named module.Class.method, a function module.function
    unused = [name for name in public if not (attributes if name.count(".") == 2 else names)[name.split(".")[-1]]]
    assert unused == []


def test_every_public_class_is_named_outside_its_class_statement():
    names, _ = _uses()
    public = [
        f"{path.stem}.{node.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_")
    ]
    assert len(public) > 20  # the scan sees the package's classes
    assert [name for name in public if not names[name.split(".")[-1]]] == []


def _imported(body):
    """(the name bound, its line) for each import statement of a module body."""
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno


def test_every_module_level_import_is_used():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line}: {name}" for name, line in _imported(tree.body) if name not in used]
    assert unused == []
