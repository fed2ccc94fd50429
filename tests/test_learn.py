import ast
import os
import random
import re
import subprocess
import sys
from dataclasses import replace
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from ddimine import features, learn, pipeline
from ddimine.config import ModelSection, load_config
from ddimine.errors import ConfigError, ValidationError
from ddimine.features import FeatureMatrix, load_matrix
from ddimine.learn import (
    LinearModel,
    TrainingMeta,
    _logistic_change,
    cross_validate,
    default_lambda_grid,
    design,
    encode_model,
    lambda_max,
    load_model,
    loss_gradient,
    loss_value,
    train,
)
from ddimine.metrics import roc_curve
from ddimine.rng import Rng
from ddimine.synth import SynthParams, write_dataset
from helpers import (
    csr_of,
    dense_matrix,
    full_rows,
    gradient_check,
    l1_kkt_residual,
    l1_logistic_reference,
    l1_objective,
    l1_svm_reference,
    random_dense_matrix,
    save,
)

ROOT = Path(__file__).resolve().parents[1]


def count_matrix(seed: int, n: int = 120, d: int = 40) -> FeatureMatrix:
    """Sparse word counts whose first columns carry the label, with one duplicated column."""
    rng = np.random.default_rng(seed)
    y = (rng.random(n) < 0.5).astype(np.int64)
    counts = rng.poisson(0.4, size=(n, d)).astype(float)
    counts[:, :3] += rng.poisson(1.5, size=(n, 3)) * y[:, None]
    counts[:, 5] = counts[:, 4]  # identical columns: a singular Newton block if both enter
    keys = [f"s{i:04d}" for i in range(n)]
    return full_rows(keys, sp.csr_matrix(counts), y)


MATRICES = {
    "counts": lambda: count_matrix(3),
    "dense": lambda: random_dense_matrix(random.Random(5), 90, 15),
}


@pytest.mark.parametrize("kind", sorted(MATRICES))
@pytest.mark.parametrize("fraction", [0.5, 0.1, 0.01, 0.001])
def test_logistic_kkt_and_objective_match_reference(kind, fraction):
    matrix = MATRICES[kind]()
    d = design(matrix, False)
    lam = fraction * lambda_max(d)
    model = train(d, ModelSection(l1_lambda=lam, tolerance=1e-8), seed=0)
    assert model.meta.converged
    assert model.meta.kkt_rel <= 1e-8
    assert l1_kkt_residual(matrix.X, matrix.y, model.weights, model.bias, lam) <= 1e-8 * lam
    _, _, best = l1_logistic_reference(matrix.X, matrix.y, lam)
    value = l1_objective("logistic", matrix.X, matrix.y, model.weights, model.bias, lam)
    assert value == pytest.approx(model.meta.objective, rel=1e-12)
    assert value == pytest.approx(best, rel=1e-9)


def test_factorisation_failure_falls_back_to_least_squares(monkeypatch):
    matrix = count_matrix(3)  # both duplicate columns enter the model at this lambda
    d = design(matrix, False)
    lam = 0.01 * lambda_max(d)
    _, _, best = l1_logistic_reference(matrix.X, matrix.y, lam)
    calls = []

    def singular(H, rhs):
        calls.append(len(rhs))
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    config = ModelSection(l1_lambda=lam, tolerance=1e-8)
    model = train(d, config, seed=0)
    monkeypatch.undo()
    assert len(calls) >= model.meta.iterations > 0  # at least one solve per Newton step tried
    assert model.weights[4] != 0 and model.weights[5] != 0
    assert model.meta.converged and model.meta.kkt_rel <= config.tolerance
    value = l1_objective("logistic", matrix.X, matrix.y, model.weights, model.bias, lam)
    assert value == pytest.approx(best, rel=1e-9)


def pooled_counts(seed: int, n: int = 120, d: int = 40, k: int = 5) -> FeatureMatrix:
    """Rows pool the word counts of 5 to 40 abstracts; the first k words also come with the positives.

    At seed 1 the classes are nearly separable: CV AUC reaches 1.0 at small lambda.
    """
    rng = np.random.default_rng(seed)
    y = (rng.random(n) < 0.5).astype(np.int64)
    pooled = rng.integers(5, 40, size=n)[:, None]  # abstracts per row
    counts = rng.poisson(pooled * 2.0 / np.arange(1, d + 1) ** 0.8).astype(float)
    counts[:, :k] += rng.poisson(pooled, size=(n, k)) * y[:, None]
    return full_rows([f"s{i}" for i in range(n)], sp.csr_matrix(counts), y)


def test_newton_steps_rarely_need_halving(monkeypatch):
    # a step that moves a zero weight along its pseudo-gradient is re-solved
    # without it, not cut short: the step is a Newton step on the face it keeps
    d = design(pooled_counts(1), False)
    evaluations, steps = [], []
    change, fit = learn._logistic_change, learn._fit

    def counting_change(*args):
        evaluations.append(1)
        return change(*args)

    def counting_fit(*args, **kwargs):
        result = fit(*args, **kwargs)
        steps.append(result.iterations)
        return result

    monkeypatch.setattr(learn, "_logistic_change", counting_change)
    monkeypatch.setattr(learn, "_fit", counting_fit)
    cv = cross_validate(d, default_lambda_grid(d), 3, ModelSection(), seed=0)
    assert cv.mean_auc[-1] == 1.0  # nearly separable
    assert len(steps) == 21 and sum(steps) > 0
    assert len(evaluations) <= 1.5 * sum(steps)


@pytest.mark.parametrize("standardize", [False, True])
def test_warm_start_from_cv_fits_reaches_the_cold_optimum(standardize):
    d = design(pooled_counts(1), standardize)
    config = ModelSection(tolerance=1e-8, standardize=standardize)
    cv = cross_validate(d, default_lambda_grid(d), 3, config, seed=0)
    config = replace(config, l1_lambda=cv.best_lambda)
    cold = train(d, config, seed=0)
    warm = train(d, config, seed=0, w0=cv.w_start, b0=cv.b_start)
    assert cold.meta.converged and warm.meta.converged
    assert warm.meta.kkt_rel <= config.tolerance
    assert warm.meta.objective == pytest.approx(cold.meta.objective, rel=1e-12)
    assert warm.meta.iterations < cold.meta.iterations


@pytest.fixture(scope="module")
def featurized(tmp_path_factory):
    """The ``mini`` preset run up to the train stage."""
    paths = write_dataset(SynthParams(seed=7), tmp_path_factory.mktemp("mini"))
    cfg = load_config(paths["config"])
    for stage in pipeline.STAGE_ORDER[: pipeline.STAGE_ORDER.index("train")]:
        pipeline.run_stage(cfg, stage)
    return cfg


def test_train_stage_starts_from_the_cv_fits_and_reruns_identically(featurized):
    cfg = featurized
    pipeline.run_stage(cfg, "train")
    first = (cfg.output / "model.txt").read_bytes()
    pipeline.run_stage(cfg, "train")
    assert (cfg.output / "model.txt").read_bytes() == first
    model, _ = load_model(cfg.output / "model.txt")
    d = design(load_matrix(cfg.output / "features_train.txt")[0], cfg.model.standardize)
    cold = train(d, replace(cfg.model, l1_lambda=model.l1_lambda), cfg.seed)
    assert model.meta.converged and cold.meta.converged
    assert model.meta.iterations < cold.meta.iterations


def test_train_stage_without_cv_starts_cold(featurized):
    matrix = load_matrix(featurized.output / "features_train.txt")[0]
    d = design(matrix, featurized.model.standardize)
    model = replace(featurized.model, l1_lambda=0.05 * lambda_max(d))
    cfg = replace(featurized, cv=replace(featurized.cv, enabled=False), model=model)
    outputs = pipeline.STAGES["train"].run(cfg, matrix)
    assert outputs["model.txt"] == encode_model(train(d, model, cfg.seed))


def test_standardized_train_stage_scales_the_columns_once(featurized, monkeypatch):
    calls = []
    column_scale = learn._column_scale
    monkeypatch.setattr(learn, "_column_scale", lambda A, P: calls.append(A.shape) or column_scale(A, P))
    cfg = replace(featurized, model=replace(featurized.model, standardize=True))
    assert cfg.cv_enabled()  # the grid, the CV folds and the final fit all read the design
    pipeline.run_stage(cfg, "train")
    assert len(calls) == 1
    assert load_model(cfg.output / "model.txt")[0].meta.standardized


@pytest.mark.parametrize("model", [{}, {"standardize": True}, {"loss": "hinge"}], ids=["logistic", "standardized",
                                                                                      "hinge"])
def test_train_and_evaluate_never_form_x(featurized, monkeypatch, model):
    # X = A @ P holds far more values than its factors: 21.5M at paper shape, 42% dense
    loaded = []
    load = features.load_matrix
    monkeypatch.setattr(features, "load_matrix", lambda path: loaded.append(load(path)) or loaded[-1])
    cfg = replace(featurized, model=replace(featurized.model, **model))
    for stage in ("train", "evaluate"):
        pipeline.run_stage(cfg, stage)
    assert len(loaded) == 3  # the train, dev and test matrices
    assert all("X" not in vars(matrix) for matrix, _ in loaded)


# runs the chain stage by stage in a fresh process, with the loss of argv[2], and prints the scipy modules loaded:
# after the package's import, after the stages before train (then alerts and diagnose-split), after train and evaluate
IMPORT_GUARD = """
import sys
from dataclasses import replace
import ddimine.cli
from ddimine import pipeline
from ddimine.config import load_config
from ddimine.synth import SynthParams, write_dataset

def scipy_modules():
    return sorted(name for name in sys.modules if name.partition(".")[0] == "scipy")

print(scipy_modules())
cfg = load_config(write_dataset(SynthParams(seed=7), sys.argv[1])["config"])
cfg = replace(cfg, model=replace(cfg.model, loss=sys.argv[2]))
for stage in ("ingest", "filter", "label", "split", "featurize", "alerts", "diagnose-split"):
    pipeline.run_stage(cfg, stage)
print(scipy_modules())
for stage in ("train", "evaluate"):
    pipeline.run_stage(cfg, stage)
print(scipy_modules())
"""


def loaded_modules(*args) -> list[list[str]]:
    """Each list of module names a child process prints, run as ``python -c *args``."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    child = subprocess.run([sys.executable, "-c", *map(str, args)], capture_output=True, text=True, env=env,
                           timeout=300)
    assert child.returncode == 0, child.stderr
    return [ast.literal_eval(line) for line in child.stdout.splitlines() if line.startswith("[")]


def test_a_logistic_chain_imports_no_scipy(tmp_path):
    """scipy is the hinge solver's, and train's over factors past ``learn._SCIPY_CELLS``: the chain's peak RSS starts
    from its imports, and ``import scipy.sparse`` alone adds about 24 MiB to the 30 MiB of the package's own, and
    0.12 s, more than a small train stage's products take.  So importing the CLI and running every stage of a small
    logistic chain, alerts and diagnose-split included, loads no scipy module."""
    assert loaded_modules(IMPORT_GUARD, tmp_path, "logistic") == [[], [], []]


def test_a_hinge_chain_fits_with_scipy_loaded_by_train_alone(tmp_path):
    after_import, before_train, after_evaluate = loaded_modules(IMPORT_GUARD, tmp_path, "hinge")
    assert after_import == before_train == []
    assert {"scipy.sparse", "scipy.optimize"} <= set(after_evaluate)  # HiGHS solves the linear program
    model = load_model(tmp_path / "out" / "model.txt")[0]
    assert model.loss_kind == "hinge" and model.meta.converged and (tmp_path / "out" / "metrics_test.txt").exists()


def change_oracle(s: float, h: float, y: int) -> float:
    """Logistic loss log(1 + e^z) - y*z at s + h minus that at s, to 50 digits."""
    def loss(z: Decimal) -> Decimal:
        return (1 + z.exp()).ln() - y * z

    with localcontext() as ctx:
        ctx.prec = 50
        return float(loss(Decimal(s) + Decimal(h)) - loss(Decimal(s)))


@pytest.mark.parametrize("y", [0, 1])
@pytest.mark.parametrize("s", [0.0, 1e-3, -1e-3, 5.0, -5.0, 30.0, -30.0])
def test_logistic_change_keeps_relative_precision(s, y):
    q = np.exp(-abs(s)) / (1.0 + np.exp(-abs(s)))
    for h in (1e-12, 1e-9, 1e-6, 1e-3, 0.5, 3.0):
        for signed in (h, -h):
            got = _logistic_change(np.array([s]), np.array([signed]), np.array([float(y)]), np.array([q]))
            want = change_oracle(s, signed, y)
            assert abs(got - want) <= 1e-12 * abs(want), (s, signed, y, got, want)


@pytest.mark.parametrize("standardize", [False, True])
def test_lambda_max_gives_zero_weights(standardize):
    d = design(count_matrix(4), standardize)
    lmax = lambda_max(d)
    for lam in (lmax, 2.0 * lmax):
        model = train(d, ModelSection(l1_lambda=lam, standardize=standardize), seed=0)
        assert np.count_nonzero(model.weights) == 0
        assert model.meta.converged
    below = train(d, ModelSection(l1_lambda=0.9 * lmax, standardize=standardize), seed=0)
    assert np.count_nonzero(below.weights) > 0


def shifted_counts(seed: int = 35) -> FeatureMatrix:
    """Counts shifted up for positives; at seed 35 HiGHS leaves 1e-14 in a weight it prices out."""
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(20, 150)), int(rng.integers(3, 50))
    y = (rng.random(n) < 0.5).astype(np.int64)
    y[:2] = (0, 1)
    X = rng.poisson(0.5, size=(n, d)) + y[:, None] * rng.poisson(0.3, size=(n, d))
    return full_rows([f"s{i}" for i in range(n)], sp.csr_matrix(X.astype(float)), y)


@pytest.mark.parametrize("kind,fraction", [("counts", 0.3), ("counts", 0.05), ("shifted", 0.3)])
def test_hinge_objective_equals_linear_program(kind, fraction):
    matrix = count_matrix(6, n=80, d=25) if kind == "counts" else shifted_counts()
    d = design(matrix, False)
    lam = fraction * lambda_max(d)
    model = train(d, ModelSection(loss="hinge", l1_lambda=lam), seed=0)
    assert model.meta.converged
    value = l1_objective("hinge", matrix.X, matrix.y, model.weights, model.bias, lam)
    assert value == pytest.approx(model.meta.objective, rel=1e-12)
    assert value == pytest.approx(l1_svm_reference(matrix.X, matrix.y, lam), rel=1e-7, abs=1e-9)


@pytest.mark.parametrize("loss", ["logistic", "hinge"])
def test_refits_bit_identical(loss):
    d = design(count_matrix(7), False)
    config = ModelSection(loss=loss, l1_lambda=0.05 * lambda_max(d))
    first, second = train(d, config, seed=0), train(d, config, seed=0)
    assert first.weights.tobytes() == second.weights.tobytes()
    assert first.bias == second.bias and first.meta == second.meta
    grid = default_lambda_grid(d, n_points=4)
    cv1 = cross_validate(d, grid, 3, config, seed=2)
    cv2 = cross_validate(d, grid, 3, config, seed=2)
    assert cv1.fold_auc.tobytes() == cv2.fold_auc.tobytes()


@pytest.mark.parametrize("loss", ["logistic"])
def test_gradient_check_on_random_dense(loss):
    rng = random.Random(11)
    matrix = random_dense_matrix(rng, 40, 6)
    w = np.array([rng.gauss(0.0, 0.3) for _ in range(6)])
    assert gradient_check(loss, matrix.X, matrix.y, w, 0.1) < 1e-6


def test_max_iters_cut_reports_not_converged():
    d = design(count_matrix(8), False)
    config = ModelSection(l1_lambda=0.01 * lambda_max(d), max_iters=1)
    model = train(d, config, seed=0)
    assert model.meta.iterations == 1
    assert not model.meta.converged
    assert model.meta.kkt_rel > config.tolerance
    full = train(d, replace(config, max_iters=10_000), seed=0)
    assert full.meta.converged and full.meta.iterations > 1
    cv = cross_validate(d, [config.l1_lambda], 3, config, seed=0)
    assert len(cv.warnings) == 3 and all("not converged" in w for w in cv.warnings)


def test_cv_and_grid_see_the_standardized_design():
    matrix = count_matrix(9)
    X = matrix.X.toarray()
    std = X.std(axis=0)
    std[std == 0] = 1.0
    scaled = full_rows(matrix.keys, sp.csr_matrix(X / std), matrix.y, matrix.kind)
    d, d_scaled = design(matrix, True), design(scaled, False)
    grid = default_lambda_grid(d, n_points=5)
    assert grid == pytest.approx(default_lambda_grid(d_scaled, n_points=5), rel=1e-12)
    config = ModelSection(tolerance=1e-8)
    on_scaled = cross_validate(d_scaled, grid, 3, config, seed=1)
    standardized = cross_validate(d, grid, 3, replace(config, standardize=True), seed=1)
    np.testing.assert_allclose(standardized.fold_auc, on_scaled.fold_auc, rtol=0, atol=1e-12)
    assert standardized.best_lambda == on_scaled.best_lambda
    assert standardized.warnings == on_scaled.warnings == []
    model = train(d, replace(config, l1_lambda=standardized.best_lambda, standardize=True), seed=0)
    reference = train(d_scaled, replace(config, l1_lambda=standardized.best_lambda), seed=0)
    np.testing.assert_allclose(model.weights * std, reference.weights, rtol=1e-6, atol=1e-9)


def random_factors(seed: int) -> FeatureMatrix:
    """Random factors with empty rows, parts no row uses, and P's cells drawn more than once (summed, as the
    package holds P)."""
    rng = np.random.default_rng(seed)
    n, m, d, cells = 40, 30, 12, 200
    A = (rng.random((n, m)) < 0.15).astype(float)
    A[:4] = 0.0  # empty rows
    A[:, -5:] = 0.0  # unused parts
    rows = np.sort(rng.integers(0, m, cells))
    indptr = np.searchsorted(rows, np.arange(m + 1))
    P = sp.csr_matrix((rng.normal(size=cells), rng.integers(0, d, cells), indptr), shape=(m, d))
    assert not P.has_canonical_format  # cells repeat within a row
    y = np.arange(n) % 2
    return FeatureMatrix([f"s{i}" for i in range(n)], csr_of(P), y, "counts", csr_of(A))


@pytest.fixture(params=[False, True], ids=["bincount", "scipy"])
def through_scipy(request, monkeypatch):
    """Each design multiplies through numpy's bincount, then through scipy, as a design over large factors does."""
    if request.param:
        monkeypatch.setattr(learn, "_SCIPY_CELLS", -1)
    return request.param


@pytest.mark.parametrize("standardize", [False, True])
@pytest.mark.parametrize("seed", range(4))
def test_factored_products_equal_the_formed_x_to_rounding(seed, standardize, through_scipy, monkeypatch):
    monkeypatch.setattr(learn, "_SCALE_ROWS", 7)  # the scale summed over several blocks of rows
    matrix = random_factors(seed)
    d = design(matrix, standardize)
    assert "X" not in vars(matrix)
    X = matrix.X.toarray()
    std = X.std(axis=0)
    std[std == 0.0] = 1.0
    if standardize:
        np.testing.assert_allclose(d.scale, std, rtol=1e-12)
        X = X / std
    else:
        assert d.scale is None
    rng = np.random.default_rng(seed)
    w, r = rng.normal(size=d.shape[1]), rng.normal(size=d.shape[0])
    np.testing.assert_allclose(d.matvec(w), X @ w, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(d.rmatvec(r), X.T @ r, rtol=1e-12, atol=1e-12)
    rows = np.flatnonzero(rng.random(d.shape[0]) < 0.6)
    fold = d.rows(rows)
    assert fold.P is d.P and fold.shape == (len(rows), d.shape[1])
    np.testing.assert_allclose(fold.matvec(w), X[rows] @ w, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(fold.rmatvec(r[rows]), X[rows].T @ r[rows], rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("standardize", [False, True])
def test_block_computes_each_column_once_and_as_the_formed_x_holds_it(standardize, through_scipy):
    matrix = random_factors(9)
    d = design(matrix, standardize)
    X = matrix.X.toarray()
    if standardize:
        X = X * (1.0 / d.scale)  # the standardized design's values, bit for bit
    for columns, cached in (([2, 5], 2), ([0, 2, 5, 9], 4), ([5], 4), ([1, 3, 4, 6, 7, 8, 10, 11], 12)):
        block = d.block(np.array(columns))
        assert block.tobytes() == np.ascontiguousarray(X[:, columns].T).tobytes()
        assert len(d._cache) == cached  # a column already computed is not computed again
    fold = d.rows(np.arange(10, 30))
    assert len(fold._cache) == 0  # a fold computes its own columns, over its own rows
    assert fold.block(np.array([3])).tobytes() == np.ascontiguousarray(X[10:30, [3]].T).tobytes()


@pytest.mark.parametrize("standardize", [False, True])
def test_logistic_cv_and_train_make_no_format_conversion(standardize, through_scipy, monkeypatch):
    d = design(count_matrix(5), standardize)
    assert (d._scipy is not None) == through_scipy
    conversions = []

    def counted(cls, name):
        method = getattr(cls, name)

        def wrapper(self, *args, **kwargs):
            if self.format != name[2:]:  # toarray calls tocsr on a CSR matrix, which returns it as is
                conversions.append((self.format, name))
            return method(self, *args, **kwargs)

        monkeypatch.setattr(cls, name, wrapper)

    for cls in (sp.csr_matrix, sp.csc_matrix):
        for name in ("tocsr", "tocsc", "tocoo"):
            counted(cls, name)
    config = ModelSection(standardize=standardize)
    cv = cross_validate(d, default_lambda_grid(d, n_points=4), 3, config, seed=1)
    train(d, replace(config, l1_lambda=cv.best_lambda), seed=0, w0=cv.w_start, b0=cv.b_start)
    assert conversions == []
    train(d, replace(config, loss="hinge", l1_lambda=cv.best_lambda), seed=0)
    assert conversions  # the hinge LP builds its own CSR constraint matrix, and the wrapper sees it


@pytest.mark.parametrize("standardize", [False, True])
def test_scipy_and_bincount_products_train_the_same_bits(standardize, monkeypatch):
    """Large factors multiply through scipy and small ones through bincount: the CV and the model do not tell."""
    fits = []
    for cells in (learn._SCIPY_CELLS, -1):
        monkeypatch.setattr(learn, "_SCIPY_CELLS", cells)
        d = design(count_matrix(5), standardize)
        assert (d._scipy is not None) == (cells < 0)
        config = ModelSection(standardize=standardize)
        cv = cross_validate(d, default_lambda_grid(d, n_points=4), 3, config, seed=1)
        model = train(d, replace(config, l1_lambda=cv.best_lambda), seed=0, w0=cv.w_start, b0=cv.b_start)
        fits.append((cv.mean_auc.tobytes(), cv.w_start.tobytes(), model.weights.tobytes(), model.bias))
    assert fits[0] == fits[1]


def test_cv_deals_the_shuffled_classes_round_robin_and_scores_held_out_rows_alone():
    matrix, k, seed = count_matrix(6), 3, 4
    d = design(matrix, False)
    grid = default_lambda_grid(d, n_points=3)
    config = ModelSection()
    cv = cross_validate(d, grid, k, config, seed)
    rng = Rng(seed).derive(learn._CV_STREAM)
    folds: list[list[int]] = [[] for _ in range(k)]
    for label in (1, 0):  # positives first, each class dealt out in shuffled order
        members = np.flatnonzero(matrix.y == label).tolist()
        rng.shuffle(members)
        for i, row in enumerate(members):
            folds[i % k].append(row)
    X = matrix.X.tocsr()
    losses = np.zeros((len(grid), k))
    for f, held in enumerate(map(sorted, folds)):
        rest = [i for i in range(matrix.n_rows) if i not in held]
        fold = design(full_rows([matrix.keys[i] for i in rest], X[rest], matrix.y[rest]), False)
        w = b = None
        for gi, lam in enumerate(grid):  # warm started down the path, as CV fits
            model = train(fold, replace(config, l1_lambda=lam), 0, w, b)
            w, b = model.weights, model.bias
            scores = X[held] @ w + b  # the held-out rows on their own
            assert cv.fold_auc[gi, f] == roc_curve(scores, d.y[held]).auc
            losses[gi, f] = loss_value("logistic", scores, d.y[held])
    assert cv.mean_loss.tobytes() == losses.mean(axis=1).tobytes()


def test_bad_config_rejected():
    matrix = count_matrix(1)
    with pytest.raises(ConfigError) as info:  # where the section is built, before any fit
        ModelSection(loss="squared", l1_lambda=-1.0)
    assert info.value.violations == [
        "loss must be 'logistic' or 'hinge', got 'squared'",
        "l1_lambda must be a finite nonnegative number, got -1.0",
    ]
    with pytest.raises(ConfigError):
        replace(ModelSection(), max_iters=0)
    with pytest.raises(ValidationError, match="logistic"):
        loss_gradient("hinge", matrix.X, matrix.y, np.zeros(matrix.n_rows))


MODEL_FILE = (
    "# linear-model\nloss hinge\nlambda 0.5\ndims 3\nbias -0.25\nseed 7\nobjective 0.75\n"
    "iterations 40\nstandardized 0\nkkt_rel 3e-07\nconverged 1\nw 1 0.5\n"
)


class TestModelFile:
    def test_roundtrip_with_numpy_scalars(self, tmp_path):
        meta = TrainingMeta(12, np.float64(0.25), 3, False, np.float64(2.5e-9), True)
        model = LinearModel(np.array([0.0, -1.5, 0.0, 2.0]), np.float64(0.3125), "logistic",
                            np.float64(0.01), meta)
        path = tmp_path / "model.txt"
        save(path, encode_model(model), {"digest": "abc"})
        assert "np.float64" not in path.read_text(encoding="utf-8")
        loaded, header = load_model(path)
        assert header == {"digest": "abc"}
        assert loaded.weights.tolist() == model.weights.tolist()
        assert (loaded.bias, loaded.l1_lambda, loaded.loss_kind) == (0.3125, 0.01, "logistic")
        assert loaded.meta == TrainingMeta(12, 0.25, 3, False, 2.5e-9, True)

    def test_trained_model_roundtrip(self, tmp_path):
        d = design(count_matrix(2), False)
        model = train(d, ModelSection(l1_lambda=0.1 * lambda_max(d)), seed=0)
        save(tmp_path / "model.txt", encode_model(model))
        loaded, _ = load_model(tmp_path / "model.txt")
        assert loaded.weights.tobytes() == model.weights.tobytes()
        assert loaded.bias == model.bias and loaded.meta == model.meta

    @pytest.mark.parametrize("missing", ["standardized", "kkt_rel", "converged"])
    def test_file_without_certificate_lines_refused(self, tmp_path, missing):
        path = tmp_path / "model.txt"
        path.write_text(
            "\n".join(line for line in MODEL_FILE.splitlines() if not line.startswith(missing)) + "\n",
            encoding="utf-8",
        )
        with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: .* {missing} line.*rerun train$"):
            load_model(path)

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("# linear-model\nloss logistic\nlambda np.float64(0.5)\ndims 3\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="malformed model file"):
            load_model(path)

    @pytest.mark.parametrize("old,new", [
        ("bias -0.25\n", ""), ("w 1 0.5", "w 1"), ("w 1 0.5", "w 3 0.5"), ("w 1 0.5", "w -1 0.5"),
    ])
    def test_missing_field_or_bad_weight_line_rejected(self, tmp_path, old, new):
        path = tmp_path / "model.txt"
        path.write_text(MODEL_FILE.replace(old, new), encoding="utf-8")
        with pytest.raises(ValidationError, match="malformed model file"):
            load_model(path)


def test_single_class_rejected():
    with pytest.raises(ValidationError, match="single class"):
        design(dense_matrix([[1.0], [2.0]], [1, 1]), False)


@pytest.mark.parametrize("X,message", [
    (np.zeros((2, 0)), "no columns"), ([[1.0], [np.nan]], "non-finite"), ([[np.inf], [1.0]], "non-finite"),
])
def test_design_refuses_a_matrix_without_columns_or_with_non_finite_values(X, message):
    with pytest.raises(ValidationError, match=message):
        design(dense_matrix(X, [0, 1]), True)


def test_cv_auc_ties_broken_by_held_out_loss():
    # separable classes: every lambda below the top ranks each held-out fold perfectly
    rng = np.random.default_rng(12)
    y = np.repeat([0, 1], 30)
    X = rng.normal(size=(60, 4)) + 3.0 * y[:, None]
    d = design(dense_matrix(X, y), False)
    cv = cross_validate(d, default_lambda_grid(d, n_points=5), 3, ModelSection(), seed=0)
    tied = np.flatnonzero(cv.mean_auc == 1.0)
    assert len(tied) >= 2
    best = tied[np.argmin(cv.mean_loss[tied])]
    assert cv.best_lambda == cv.lambda_grid[best] != cv.lambda_grid[tied[0]]
    assert np.all(np.diff(cv.mean_loss[tied]) < 0)  # a looser penalty fits held-out rows better here
    assert cv.best_lambda == cv.lambda_grid[-1]
    assert cv.warnings == [
        f"best lambda {cv.best_lambda!r} is the smallest grid point; the optimum may lie beyond the grid"
    ]


def test_cv_warns_when_the_largest_lambda_wins():
    d = design(count_matrix(10), False)
    lmax = lambda_max(d)
    # every weight is zero at both points, so AUC and loss tie and the larger lambda wins
    cv = cross_validate(d, [2.0 * lmax, 4.0 * lmax], 3, ModelSection(), seed=0)
    assert cv.best_lambda == 4.0 * lmax
    assert cv.warnings == [
        f"best lambda {4.0 * lmax!r} is the largest grid point; the optimum may lie beyond the grid"
    ]
