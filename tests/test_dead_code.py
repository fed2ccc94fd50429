"""No dead code: every public module-level function of the package, and every
public method of its public classes, is used by the package or the benchmark.

A function or method that only the tests call belongs in ``tests/helpers.py``.
A use is a name or an attribute access in a ``.py`` file under ``src/`` or
``bench/``; the function's own ``def``, strings and comments do not count.
Dunder methods are called by the language, not by name, and are not checked.
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


def test_every_public_function_is_used_outside_its_def():
    used: Counter = Counter()
    for path in [*(ROOT / "src").rglob("*.py"), *(ROOT / "bench").rglob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used[node.id] += 1
            elif isinstance(node, ast.Attribute):
                used[node.attr] += 1
    public = [
        f"{path.stem}.{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in _public_defs(ast.parse(path.read_text(encoding="utf-8")).body)
    ]
    assert len(public) > 90  # the scan sees the package, methods included
    assert [name for name in public if not used[name.rsplit(".", 1)[-1]]] == []
