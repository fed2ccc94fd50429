"""scipy is the solver's: importing a module of the package imports no scipy.

``import scipy.sparse`` adds about 24 MiB and 0.12 s to every process, and only
the hinge solver (and the benchmark's ``FeatureMatrix.X``) uses scipy, so the
package imports it inside the functions that do.  A statement runs at import
unless it is in a function's body or under ``if TYPE_CHECKING:``, which only
type checkers read.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ddimine"


def _run_at_import(nodes):
    """The nodes among ``nodes`` and within them that run when their module is imported."""
    for node in nodes:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.If) and ast.unparse(node.test) in ("TYPE_CHECKING", "typing.TYPE_CHECKING"):
            yield from _run_at_import(node.orelse)
            continue
        yield node
        yield from _run_at_import(ast.iter_child_nodes(node))


def _imports_scipy(node) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name.partition(".")[0] == "scipy" for alias in node.names)
    return isinstance(node, ast.ImportFrom) and not node.level and node.module.partition(".")[0] == "scipy"


def test_no_module_imports_scipy_when_imported():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in _run_at_import(ast.parse(path.read_text(encoding="utf-8")).body)
        if _imports_scipy(node)
    ]
    assert found == []


def test_the_scan_sees_an_import_at_any_depth_but_not_in_a_function_or_for_type_checkers():
    source = (
        "import scipy\nfrom scipy import sparse\nimport numpy, scipy.sparse as sp\ntry:\n    import scipy.stats\n"
        "except ImportError:\n    from scipy import optimize\nclass C:\n    import scipy.linalg\n"
        "if TYPE_CHECKING:\n    import scipy\nelse:\n    import scipy.io\n"
        "def f():\n    import scipy.sparse\nfrom . import scipy_like\nimport scipyx\n"
    )
    lines = [node.lineno for node in _run_at_import(ast.parse(source).body) if _imports_scipy(node)]
    assert lines == [1, 2, 3, 5, 7, 9, 13]
