"""No dead code: every public module-level function of the package is used by the package or the benchmark.

A function that only the tests call belongs in ``tests/helpers.py``.  A use is
a name or an attribute access in a ``.py`` file under ``src/`` or ``bench/``;
the function's own ``def``, strings and comments do not count.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ddimine"


def test_every_public_function_is_used_outside_its_def():
    used: Counter = Counter()
    for path in [*(ROOT / "src").rglob("*.py"), *(ROOT / "bench").rglob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used[node.id] += 1
            elif isinstance(node, ast.Attribute):
                used[node.attr] += 1
    public = [
        (path.stem, node.name)
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    ]
    assert len(public) > 50  # the scan sees the package
    assert [f"{module}.{name}" for module, name in public if not used[name]] == []
