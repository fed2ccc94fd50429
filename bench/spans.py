"""Run-time tracing of the ddimine modules, from outside the package.

``Tracer.install()`` wraps every public function of each traced module, plus
the ``load`` classmethods of its public classes, and rebinds the wrapper in
every ``ddimine`` namespace that holds the original: ``learn`` imports
``roc_curve`` straight from ``metrics``, and ``pipeline.STAGE_FUNCS`` holds the
stage functions in a dict.  Each call records a span; spans nest on one stack
(the chain is single-threaded), so a span's self time is its duration minus
the time its child spans cover.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

TRACED_MODULES = (
    "pipeline", "corpus", "labeling", "splitting", "features", "learn", "metrics",
    "mar_alerts", "synth",
)
# private names worth a span: every solver fit goes through learn._fit
EXTRA_NAMES = {"learn": ("_fit",)}


def _counts_of(name: str, args: tuple, result) -> dict[str, float]:
    """Work counts read off a call's arguments and result, at the layer boundary."""
    if name == "corpus.load_corpus":
        return {"corpus.abstracts": len(result[0])}
    if name == "corpus.tokenize_abstracts":
        return {"corpus.tokens": sum(len(ab.tokens) for ab in result)}
    if name == "labeling.extract_templates":
        return {"labeling.catalog_pairs": len(args[0])}
    if name == "labeling.enumerate_samples":
        return {"labeling.samples": len(result)}
    if name in ("features.build_count_matrix", "features.build_embedding_matrix"):
        matrix = result[0] if isinstance(result, tuple) else result
        X = matrix.X
        if hasattr(X, "nnz"):
            nnz, nbytes = X.nnz, X.data.nbytes + X.indices.nbytes + X.indptr.nbytes
        else:
            nnz, nbytes = int((X != 0).sum()), X.nbytes
        return {"features.rows_built": matrix.n_rows, "features.nnz": nnz,
                "features.matrix_mb": nbytes / 1e6}
    if name == "features.undersample":
        return {"features.undersample_rows_in": args[0].n_rows,
                "features.undersample_rows_out": result.n_rows}
    if name == "learn._fit":
        return {"learn.fits": 1, "learn.iterations_total": result[2]}
    if name == "mar_alerts.detect_overlaps":
        return {"mar_alerts.alerts": len(result)}
    return {}


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack: list[list] = []  # [name, start, child_seconds]
        self.stats: dict[str, list] = {}  # name -> [calls, inclusive_s, self_s]
        self.counts: dict[str, float] = {}
        self.spans = 0

    # -- recording -----------------------------------------------------------
    def enter(self, name: str) -> None:
        self.stack.append([name, self.clock(), 0.0])

    def exit(self, args: tuple = (), result=None, ok: bool = True) -> None:
        name, start, child = self.stack.pop()
        duration = self.clock() - start
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stat[0] += 1
        if not any(frame[0] == name for frame in self.stack):  # outermost of a recursion
            stat[1] += duration
        stat[2] += duration - child
        if self.stack:
            self.stack[-1][2] += duration
        self.spans += 1
        if ok:
            for key, val in _counts_of(name, args, result).items():
                self.counts[key] = self.counts.get(key, 0) + val

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.exit(ok=False)
                raise
            self.exit(args, result)
            return result

        return traced

    # -- installation ----------------------------------------------------------
    def install(self, modules=TRACED_MODULES) -> None:
        """Wrap the modules' public functions and rebind them everywhere."""
        import importlib

        loaded = [importlib.import_module(f"ddimine.{m}") for m in modules]
        replacements: dict[int, tuple] = {}  # id(original) -> (original, wrapper)
        for mod in loaded:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and (
                    not attr.startswith("_") or attr in EXTRA_NAMES.get(short, ())
                ):
                    replacements[id(obj)] = (obj, self.wrap(f"{short}.{attr}", obj))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    loader = obj.__dict__.get("load")
                    if isinstance(loader, classmethod):
                        fn = self.wrap(f"{short}.{attr}.load", loader.__func__)
                        setattr(obj, "load", classmethod(fn))
        namespaces = [m for n, m in sys.modules.items() if n == "ddimine" or n.startswith("ddimine.")]
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                hit = replacements.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(ns, attr, hit[1])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        hit = replacements.get(id(val))
                        if hit is not None and hit[0] is val:
                            obj[key] = hit[1]

    # -- summary -----------------------------------------------------------------
    def summary(self) -> dict:
        return {
            "spans": self.spans,
            "stats": {name: {"calls": s[0], "total_s": s[1], "self_s": s[2]}
                      for name, s in sorted(self.stats.items())},
            "counts": dict(sorted(self.counts.items())),
        }
