"""Child-process side of the benchmark: set up inputs, run the chain, verify outputs.

Each subcommand runs in a fresh interpreter started by ``run.py``, so the
chain's peak RSS is its own and nothing ``run.py`` imported is counted:

    chain.py setup  --workload W --seed N --dir D [--smoke] [--report F]
    chain.py run    --config C --output O --stages a,b,... --report F [--trace]
    chain.py verify --workload W --dir D --output O --report F [--smoke] [--matvec]

``--report`` names a JSON file the subcommand writes its measurements to.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

from spans import Tracer
from workloads import WORKLOADS, merge, smoke


def _workload(args):
    wl = WORKLOADS[args.workload]
    return smoke(wl) if args.smoke else wl


def _write(path: str, record: dict) -> None:
    Path(path).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# setup: synthetic inputs plus the workload's config
# ---------------------------------------------------------------------------

def cmd_setup(args) -> None:
    wl = _workload(args)
    tracer = None
    if args.report:
        tracer = Tracer()
        tracer.install(("synth",))
    from ddimine import synth

    truth: dict = {}
    generate = synth.generate_dataset

    def capture(params):
        ds = generate(params)
        truth["interactors"] = sorted(ds.high_drugs)
        truth["signal_words"] = list(ds.signal_words)
        return ds

    synth.generate_dataset = capture  # ground truth for the label oracle, at no extra cost
    params = synth.SynthParams(seed=args.seed, **wl.params)
    paths = synth.write_dataset(params, Path(args.dir).resolve())
    config = merge(json.loads(paths["config"].read_text(encoding="utf-8")), wl.config)
    _write(paths["config"], config)
    _write(Path(args.dir) / "truth.json", truth)
    if tracer is not None:
        _write(args.report, tracer.summary())


# ---------------------------------------------------------------------------
# run: the chain itself, traced or not
# ---------------------------------------------------------------------------

def cmd_run(args) -> None:
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    from ddimine import pipeline
    from ddimine.config import load_config

    started = time.perf_counter()
    cfg = load_config(args.config, {"output": args.output})
    for stage in args.stages.split(","):
        pipeline.run_stage(cfg, stage)
    record = {"wall_s": time.perf_counter() - started}
    if tracer is not None:
        record["trace"] = tracer.summary()
    _write(args.report, record)


# ---------------------------------------------------------------------------
# verify: output checks against oracles, answer quality, matvec micro-layer
# ---------------------------------------------------------------------------

def _data_rows(path: Path) -> list[list[str]]:
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line and not line.startswith("#"):
                rows.append(line.split("\t"))
    return rows


def check_labels(out: Path, interactors: set[str]) -> tuple[bool, str]:
    """A pair is positive iff either drug is a planted interactor (synth ground truth)."""
    rows = _data_rows(out / "samples.tsv")
    wrong = sum(1 for c, o, label, *_ in rows if int(label) != int(c in interactors or o in interactors))
    positives = sum(int(r[2]) for r in rows)
    ok = wrong == 0 and 0 < positives < len(rows)
    return ok, f"{wrong} of {len(rows)} labels differ from the ground truth; {positives} positive"


def check_leakage(out: Path) -> tuple[bool, str]:
    """Every abstract attached to a sample lies in that sample's split.

    Counted here from ``assignment.tsv`` and ``assigned_samples.tsv``; the
    cross-split section of ``leakage_report.txt`` must agree that it is zero.
    """
    split_of: dict[tuple[str, str], str] = {}
    for kind, key, split in _data_rows(out / "assignment.tsv"):
        split_of[(kind, key)] = split
    crossing = 0
    attached = 0
    for c, o, _label, _tid, ids in _data_rows(out / "assigned_samples.tsv"):
        sample_split = split_of[("sample", f"{c}|{o}")]
        for aid in ids.split(",") if ids != "-" else ():
            attached += 1
            crossing += split_of[("abstract", aid)] != sample_split
    reported = 0
    in_section = False
    for line in (out / "leakage_report.txt").read_text(encoding="utf-8").splitlines():
        if not line.startswith(" "):
            in_section = line.startswith("cross-split shared")
        elif in_section:
            reported += int(line.split("\t")[1])
    ok = crossing == 0 and reported == 0 and attached > 0
    return ok, f"{crossing} of {attached} attached abstracts cross splits; the report says {reported}"


def check_alerts(out: Path, catalog_path: Path) -> tuple[bool, str]:
    """Every alert names a catalog pair."""
    pairs = {frozenset(r[:2]) for r in _data_rows(catalog_path)}
    rows = _data_rows(out / "alerts.tsv")[1:]  # first row is the column header
    stray = sum(1 for r in rows if frozenset(r[1:3]) not in pairs)
    return stray == 0, f"{stray} of {len(rows)} alerts name a pair outside the catalog"


def auc_oracle(scores, labels) -> float:
    """Mann-Whitney AUC with ties counted one half, from average ranks."""
    import numpy as np
    from scipy.stats import rankdata

    labels = np.asarray(labels)
    n_pos = int((labels == 1).sum())
    n_neg = len(labels) - n_pos
    ranks = rankdata(scores)
    return float((ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def objective(loss: str, X, y, w, b: float, lam: float) -> float:
    """The trained objective, written out independently of ``ddimine.learn``."""
    import numpy as np

    s = np.asarray(X @ w).ravel() + b
    if loss == "logistic":
        data = np.logaddexp(0.0, s) - y * s
    else:
        data = np.maximum(0.0, 1.0 - (2.0 * y - 1.0) * s)
    return float(data.mean() + lam * np.abs(w).sum())


def kkt_rel(X, y, w, b: float, lam: float, gradient) -> float:
    """Largest violation of the L1-logistic optimality conditions, over lambda.

    ``gradient(X, y, s)`` gives the mean-loss gradient (d/dw, d/db) at scores s.
    """
    import numpy as np

    gw, gb = gradient(X, y, np.asarray(X @ w).ravel() + b)
    gw = np.asarray(gw).ravel()
    viol = np.where(w != 0, np.abs(gw + lam * np.sign(w)), np.maximum(np.abs(gw) - lam, 0.0))
    return float(max(viol.max(), abs(gb)) / lam)


def logistic_optimum(X, y, lam: float, w0, b0: float, tol: float = 1e-5) -> tuple[float, float]:
    """L1 logistic optimum by L-BFGS-B on the split w = u - v, u, v >= 0.

    Started from the model under test, so the result never exceeds its
    objective.  L-BFGS-B can stop early on its relative-reduction test, so it
    restarts from where it stopped until its own KKT residual over lambda, the
    certificate of optimality, is below ``tol``.  Returns the optimum and that
    residual.
    """
    import numpy as np
    from scipy.optimize import minimize

    n, d = X.shape
    Xt = X.T.tocsr() if hasattr(X, "tocsr") else X.T

    def gradient(X, y, s):
        r = (0.5 * (1.0 + np.tanh(0.5 * s)) - y) / n
        return np.asarray(Xt @ r).ravel(), float(r.sum())

    def f(z):
        u, v, b = z[:d], z[d : 2 * d], z[-1]
        s = np.asarray(X @ (u - v)).ravel() + b
        g, gb = gradient(X, y, s)
        val = (np.logaddexp(0.0, s) - y * s).mean() + lam * (u.sum() + v.sum())
        return val, np.concatenate([g + lam, lam - g, [gb]])

    z = np.concatenate([np.maximum(w0, 0.0), np.maximum(-w0, 0.0), [b0]])
    bounds = [(0.0, None)] * (2 * d) + [(None, None)]
    for _ in range(10):
        res = minimize(f, z, jac=True, method="L-BFGS-B", bounds=bounds,
                       options={"maxiter": 20000, "maxfun": 40000, "ftol": 1e-15, "gtol": 1e-12})
        z = res.x
        residual = kkt_rel(X, y, z[:d] - z[d : 2 * d], float(z[-1]), lam, gradient)
        if residual <= tol:
            break
    return float(res.fun), residual


def hinge_optimum(X, y, lam: float) -> tuple[float, bool]:
    """Exact L1-SVM optimum as a linear program (Zhu et al. 2003), solved by HiGHS."""
    import numpy as np
    import scipy.sparse as sp
    from scipy.optimize import linprog

    n, d = X.shape
    ysign = 2.0 * y - 1.0
    YX = sp.csr_matrix(sp.diags(ysign) @ sp.csr_matrix(X))
    # variables [u (d), v (d), b, xi (n)]: min lam*1'(u+v) + mean(xi)
    # s.t. xi_i >= 1 - y_i (x_i.(u - v) + b), u, v, xi >= 0
    A = sp.hstack([-YX, YX, -ysign[:, None], -sp.identity(n)], format="csr")
    c = np.concatenate([np.full(2 * d, lam), [0.0], np.full(n, 1.0 / n)])
    bounds = [(0, None)] * (2 * d) + [(None, None)] + [(0, None)] * n
    res = linprog(c, A_ub=A, b_ub=-np.ones(n), bounds=bounds, method="highs")
    return float(res.fun) if res.status == 0 else float("nan"), res.status == 0


def _median_call_us(fn, min_seconds: float = 0.3, min_calls: int = 20) -> float:
    import statistics

    times = []
    started = time.perf_counter()
    while len(times) < min_calls or time.perf_counter() - started < min_seconds:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e6


def matvec_micro(out: Path) -> dict:
    """X.w through learn.predict_scores and X'.r through learn.loss_gradient."""
    import numpy as np
    from ddimine import features, learn

    matrix, _ = features.load_matrix(out / "features_train.txt")
    X, y = matrix.X, matrix.y.astype(float)
    n, d = X.shape
    model = learn.LinearModel(np.ones(d) / d, 0.0, "logistic", 0.0, learn.TrainingMeta(0, 0.0, 0))
    s = learn.predict_scores(model, matrix)
    if hasattr(X, "nnz"):
        x_bytes = X.data.nbytes + X.indices.nbytes + X.indptr.nbytes
    else:
        x_bytes = X.nbytes
    return {
        "learn.matvec_us": _median_call_us(lambda: learn.predict_scores(model, matrix)),
        "learn.rmatvec_us": _median_call_us(lambda: learn.loss_gradient("logistic", X, y, s)),
        # computed, not measured: X once, r in, X'r out
        "learn.rmatvec_bytes": float(x_bytes + 8 * n + 8 * d),
    }


def cmd_verify(args) -> None:
    import numpy
    import scipy

    wl = _workload(args)
    data, out = Path(args.dir), Path(args.output)
    truth = json.loads((data / "truth.json").read_text(encoding="utf-8"))
    checks: dict[str, tuple[bool, str]] = {
        "labels": check_labels(out, set(truth["interactors"])),
        "leakage": check_leakage(out),
    }
    if "alerts" in wl.stages:
        checks["alerts"] = check_alerts(out, data / "catalog.tsv")
    quality: dict[str, float] = {"objective_ratio": 1.0}  # no fitted model: no excess
    if "train" in wl.stages:
        quality.update(_model_quality(wl, out, truth, checks))
    record = {
        "checks": {name: {"ok": ok, "detail": detail} for name, (ok, detail) in checks.items()},
        "quality": quality,
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    if args.matvec:
        record["matvec"] = matvec_micro(out)
    _write(args.report, record)


def _model_quality(wl, out: Path, truth: dict, checks: dict) -> dict:
    import numpy as np
    from ddimine import features, learn

    model, _ = learn.load_model(out / "model.txt")
    train, _ = features.load_matrix(out / "features_train.txt")
    test, _ = features.load_matrix(out / "features_test.txt")
    X, y, lam = train.X, train.y.astype(float), model.l1_lambda
    quality: dict[str, float] = {"learn.iterations": model.meta.iterations}

    reported = None
    for row in _data_rows(out / "metrics_test.txt"):
        if row[0] == "auc":
            reported = row[1]
    try:
        test_auc = float(reported)
    except (TypeError, ValueError):
        test_auc = float("nan")
    oracle = auc_oracle(np.asarray(test.X @ model.weights).ravel() + model.bias, test.y)
    quality["test_auc"] = test_auc
    floor = wl.auc_floor
    checks["test_auc"] = (
        abs(test_auc - oracle) <= 1e-9 and (floor is None or test_auc >= floor),
        f"reported {reported}, oracle {oracle!r}, floor {floor}",
    )
    if wl.signal_floor is not None:
        words = [row[0] for row in _data_rows(out / "vocab.tsv")]
        top = [int(j) for j in np.argsort(-model.weights, kind="stable")[:20] if model.weights[j] > 0]
        hits = sum(words[j] in truth["signal_words"] for j in top)
        quality["signal_in_top20"] = hits
        checks["signal_words"] = (hits >= wl.signal_floor, f"{hits} of the top 20 weights, floor {wl.signal_floor}")

    value = objective(model.loss_kind, X, y, model.weights, model.bias, lam)
    if model.loss_kind == "logistic":
        quality["learn.kkt_rel"] = kkt_rel(
            X, y, model.weights, model.bias, lam, lambda X, y, s: learn.loss_gradient("logistic", X, y, s)
        )
        best, best_kkt = logistic_optimum(X, y, lam, model.weights, model.bias)
        solved = best_kkt <= 1e-4
        quality["learn.optimum_kkt_rel"] = best_kkt
    else:
        best, solved = hinge_optimum(X, y, lam)
        quality["learn.lp_gap_rel"] = (value - best) / best
    checks["optimum"] = (
        bool(solved) and best <= value * (1 + 1e-9),
        f"model objective {value!r}, exact optimum {best!r}",
    )
    quality["learn.objective"] = value
    quality["learn.optimum"] = best
    quality["objective_ratio"] = value / best
    return quality


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    setup = sub.add_parser("setup")
    run = sub.add_parser("run")
    verify = sub.add_parser("verify")
    for p in (setup, verify):
        p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
        p.add_argument("--dir", required=True)
        p.add_argument("--smoke", action="store_true")
    setup.add_argument("--seed", type=int, required=True)
    setup.add_argument("--report")
    run.add_argument("--config", required=True)
    run.add_argument("--output", required=True)
    run.add_argument("--stages", required=True)
    run.add_argument("--trace", action="store_true")
    run.add_argument("--report", required=True)
    verify.add_argument("--output", required=True)
    verify.add_argument("--matvec", action="store_true")
    verify.add_argument("--report", required=True)
    args = parser.parse_args()
    {"setup": cmd_setup, "run": cmd_run, "verify": cmd_verify}[args.command](args)


if __name__ == "__main__":
    main()
