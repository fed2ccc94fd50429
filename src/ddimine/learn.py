"""Linear classifiers: logistic and hinge loss with an L1 penalty.

The trained objective is

    (1/n) * sum_i loss(y_i, w.x_i + b) + lambda * ||w||_1

with the bias unpenalized.  Both losses are solved to a certified optimum.
The certificate is the KKT residual: the largest violation of the optimality
conditions over the weights and the bias, divided by lambda (absolute at
lambda = 0).  A fit is ``converged`` when that residual is at most
``ModelSection.tolerance``; both figures are kept in ``TrainingMeta``.

A train stage builds its design once (:func:`design`): the matrix is checked,
and its column scale computed when standardizing, there and nowhere else.
The design is an operator over the matrix's factors, the sample x part
incidence A and the part rows P (:class:`ddimine.features.FeatureMatrix`):
X @ w is A @ (P @ w) and X' @ r is P' @ (A' @ r), with w divided by the scale
when standardizing, so no stage forms X.  The lambda grid, every CV fold and
the final fit read that one design; a fold is A's rows with the same P, and
its held-out scores come from the held-out rows of A.  The factors are plain
arrays (:class:`ddimine.csr.CSR`).  Small factors multiply through numpy's
``bincount`` (:func:`ddimine.csr.matvec`), which adds in scipy's order, so
the models are scipy's bit for bit: there ``import scipy.sparse`` would take
longer than all of a train stage's products, and a logistic train and
evaluate import no scipy module.  Large factors multiply through scipy,
whose compiled products are several times faster.

* Logistic loss uses a working-set solver.  Each outer step computes the full
  gradient and stops once the residual meets the tolerance.  Otherwise the
  working set becomes the support plus the worst violators, at most
  max(10, 2 * |support|) columns, and a projected (orthant-wise) Newton method
  with an Armijo line search on the true objective solves the problem
  restricted to those columns, held as a dense block, plus the bias.  A
  column of X is computed as A @ P[:, j] when it first enters a working set,
  and kept for the rest of the design's lambda path (:meth:`Design.block`).
  The outer loop reads its scores off the Newton solve, so each outer step
  makes one product through the factors, the gradient's.  A Newton
  step takes one exponential of the scores and solves its damped system by LU,
  with least squares as the fallback.  A zero weight that the step would move
  along its pseudo-gradient is dropped and the system solved again without it
  (the reduced free set of projected Newton methods, Bertsekas 1982), so each
  step is the Newton step on the face it keeps and the line search seldom
  halves it.  After CV the final fit starts from the mean of the fold fits at
  the chosen lambda, a few steps from its optimum.
* Hinge loss is the exact L1-SVM linear program (Zhu et al. 2003), solved by
  HiGHS; the residual is read off the program's duals.  The program needs X's
  cells, so the hinge fit forms X from the factors for itself.

``max_iters`` caps the Newton steps or the LP iterations; a logistic fit cut
off by it reports ``converged = False``.  Training uses no randomness and a
fixed column order, so the same data and config give the same model bit for
bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from . import artifacts, csr
from .config import LOSS_KINDS, ModelSection
from .errors import ValidationError
from .features import FeatureMatrix
from .metrics import roc_curve
from .rng import Rng

_CV_STREAM = 31
_MIN_WORKING_SET = 10
_ARMIJO = 1e-4  # fraction of the predicted decrease a line-search step must achieve
_MAX_HALVINGS = 60  # a step shorter than 2**-60 of the Newton step is no descent
_RCOND = 1e-12  # least-squares fallback: Hessian directions below this share of the largest are flat
# Levenberg-Marquardt damping, as a multiple of the absolute KKT residual: it
# shortens steps along nearly flat directions far from the optimum (nearly
# separable data at small lambda) and vanishes at the optimum, where the
# steps become Newton steps again.
_DAMPING = 0.1


@dataclass
class TrainingMeta:
    iterations: int
    objective: float
    seed: int
    standardized: bool = False
    kkt_rel: float = float("nan")  # KKT residual over lambda (absolute at lambda = 0)
    converged: bool = False  # kkt_rel is within the tolerance


@dataclass
class LinearModel:
    weights: np.ndarray
    bias: float
    loss_kind: str
    l1_lambda: float
    meta: TrainingMeta


class _Fit(NamedTuple):
    w: np.ndarray
    b: float
    iterations: int
    objective: float
    kkt_rel: float
    converged: bool


def _sigmoids(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sigmoid(s), sigmoid(-|s|) <= 1/2), both to full relative precision, from one exp."""
    e = np.exp(-np.abs(s))
    q = e / (1.0 + e)
    return np.where(s < 0, q, 1.0 / (1.0 + e)), q


def _logistic_value(s: np.ndarray, y: np.ndarray) -> float:
    # log(1 + e^s) - y*s, computed stably
    return float(np.mean(np.maximum(s, 0.0) - y * s + np.log1p(np.exp(-np.abs(s)))))


def _logistic_change(s: np.ndarray, h: np.ndarray, y: np.ndarray, q: np.ndarray) -> float:
    """Mean logistic loss at scores ``s + h`` minus that at ``s``.

    A row's loss is log(1 + e^z) on its signed score z = (1 - 2y) * s, so its
    change is log1p(q * expm1(k)) for z < 0 and k + log1p(q * expm1(-k)) for
    z >= 0, with k = (1 - 2y) * h and q = sigmoid(-|s|) <= 1/2, computed once per
    Newton step.  No term cancels another, so the change keeps its relative
    precision when it is far below the rounding error of the loss itself.
    That lets the line search tell descent steps apart down to the tightest
    KKT tolerance.  Overflow gives inf or nan, which no Armijo test accepts.
    """
    sign = 1.0 - 2.0 * y
    k = sign * h
    up = sign * s >= 0
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.mean(np.where(up, k, 0.0) + np.log1p(q * np.expm1(np.where(up, -k, k)))))


def _hinge_value(s: np.ndarray, y: np.ndarray) -> float:
    margins = (2.0 * y - 1.0) * s
    return float(np.mean(np.maximum(0.0, 1.0 - margins)))


def loss_value(loss: str, s: np.ndarray, y: np.ndarray) -> float:
    """Mean unpenalized loss at scores ``s``; ``loss`` is ``"logistic"`` or ``"hinge"``."""
    return _logistic_value(s, y) if loss == "logistic" else _hinge_value(s, y)


def loss_gradient(loss: str, X, y: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, float]:
    """(d/dw, d/db) of the mean unpenalized logistic loss at scores ``s = Xw + b``.

    Logistic loss only: hinge fits read their optimality from the LP duals.
    """
    if loss != "logistic":
        raise ValidationError(f"loss_gradient needs logistic loss, got {loss!r}")
    r = (_sigmoids(s)[0] - y) / len(y)
    return X.T @ r, float(r.sum())


def _pseudo_gradient(w: np.ndarray, g: np.ndarray, lam: float) -> np.ndarray:
    """Minimum-norm subgradient of the penalized objective over the weights.

    Its magnitude is each weight's KKT violation: |g + lam*sign(w)| off zero
    and max(|g| - lam, 0) at zero.
    """
    pg = g + lam * np.sign(w)
    at_zero = w == 0
    pg[at_zero] = np.sign(g[at_zero]) * np.maximum(np.abs(g[at_zero]) - lam, 0.0)
    return pg


def _kkt_rel(pg: np.ndarray, gb: float, lam: float) -> float:
    worst = max(float(np.max(np.abs(pg), initial=0.0)), abs(gb))
    return worst / lam if lam > 0 else worst


def _one_class(y: np.ndarray) -> bool:
    """Whether ``y`` holds fewer than two labels.  ``np.unique`` would import ``numpy.ma`` on first use."""
    return bool((y == y[:1]).all())


def _initial_bias(y: np.ndarray) -> float:
    """logit(mean(y)): the logistic bias that is optimal while every weight is zero."""
    ybar = float(y.mean())
    return float(np.log(ybar) - np.log1p(-ybar))


class Design:
    """The training design X = A @ P, each column j divided by ``scale[j]`` when standardizing, as an operator.

    ``A`` is the binary sample x part incidence, ``P`` the part rows, each
    row's columns ascending and distinct, and ``y`` the labels as float.  X
    is never formed: its products go through the factors, and the Newton
    blocks come from a cache of its columns (:meth:`block`).  Each design has
    its own cache, so a CV fold's columns go with the fold; the folds share P
    and the row and column of each of its cells.  The products run through
    scipy when ``through_scipy`` (large factors, :data:`_SCIPY_CELLS`), else
    through :mod:`ddimine.csr`'s kernels, with the same bits.
    """

    def __init__(self, A: csr.CSR, P: csr.CSR, y: np.ndarray, scale: np.ndarray | None, through_scipy: bool,
                 p_cells: tuple[np.ndarray, np.ndarray] | None = None):
        self.A, self.P, self.y, self.scale = A, P, y, scale
        self.shape = A.shape[0], P.shape[1]
        self._scipy = (A.scipy(), P.scipy()) if through_scipy else None  # else each cell's row and column, for bincount
        self._a_cells = None if through_scipy else csr.cells(A)
        self._p_cells = None if through_scipy else csr.cells(P) if p_cells is None else p_cells
        self._inverse = None if scale is None else 1.0 / scale
        self._slot = np.full(P.shape[1], -1)  # column j's row in the cache, or -1 before it is computed
        self._cache = np.empty((0, A.shape[0]))

    def matvec(self, w: np.ndarray) -> np.ndarray:
        """X @ w, as A @ (P @ w)."""
        v = w if self._inverse is None else w * self._inverse
        if self._scipy is not None:
            return self._scipy[0] @ (self._scipy[1] @ v)
        return csr.matvec(self.A, csr.matvec(self.P, v, self._p_cells), self._a_cells)

    def rmatvec(self, r: np.ndarray) -> np.ndarray:
        """X' @ r, as P' @ (A' @ r)."""
        if self._scipy is not None:
            g = self._scipy[1].T @ (self._scipy[0].T @ r)
        else:
            g = csr.rmatvec(self.P, csr.rmatvec(self.A, r, self._a_cells), self._p_cells)
        return g if self._inverse is None else g * self._inverse

    def rows(self, index: np.ndarray) -> Design:
        """The design of these rows: A's rows, with the same P and scale, and an empty cache."""
        return Design(csr.rows(self.A, index), self.P, self.y[index], self.scale, self._scipy is not None,
                      self._p_cells)

    def block(self, columns: np.ndarray) -> np.ndarray:
        """X's ``columns`` as the rows of a dense array.

        A column is computed as A @ P[:, j], scaled as X's, the first time it
        is asked for, and kept: the working sets change little down a lambda
        path, so each column is computed once per design.  Without scipy, A
        times P's new columns as a dense array adds each sample's parts in
        stored order from 0.0, as scipy's A @ P[:, new].toarray() adds them.
        """
        new = columns[self._slot[columns] < 0]
        if new.size:
            if self._scipy is not None:
                values = (self._scipy[0] @ self._scipy[1][:, new].toarray()).T
            else:
                place = np.full(self.P.shape[1], -1)
                place[new] = np.arange(new.size)
                place = place[self.P.indices]  # each cell's column among the new ones, or -1
                cells = np.flatnonzero(place >= 0)
                dense = np.zeros((self.P.shape[0], new.size))
                dense[self._p_cells[0][cells], place[cells]] = self.P.data[cells]
                values = csr.dense_product(self.A, dense).T
            if self._inverse is not None:
                values = values * self._inverse[new, None]
            self._slot[new] = np.arange(len(self._cache), len(self._cache) + new.size)
            self._cache = np.concatenate([self._cache, values])
        return self._cache[self._slot[columns]]


# rows of X formed at a time while the column scale is summed
_SCALE_ROWS = 4096
# Factors (A and P) with more cells than this multiply through scipy: its compiled products save more than its
# import costs (0.12 s and 18 MiB).  Below it, numpy's bincount saves the import; both give the same bits.  A train
# stage with 3-fold CV over 7 lambdas broke even between 2.2e5 and 4.0e5 cells (CHANGES.md).
_SCIPY_CELLS = 1 << 18


def design(matrix: FeatureMatrix, standardize: bool) -> Design:
    """Check the training matrix and build its design, once per train stage.

    A matrix with no columns, a single class or a non-finite part value is
    refused.  The scale comes from the whole matrix, so the lambda grid, every
    CV fold and the final fit all see the same columns.
    """
    A, P = matrix.A, matrix.parts
    if matrix.dims < 1:
        raise ValidationError("feature matrix has no columns")
    if _one_class(matrix.y):
        raise ValidationError("training data contains a single class")
    if not np.all(np.isfinite(P.data)):
        raise ValidationError("feature matrix contains non-finite values")
    scale = _column_scale(A, P) if standardize else None
    return Design(A, P, np.asarray(matrix.y, dtype=float), scale, A.nnz + P.nnz > _SCIPY_CELLS)


def _column_scale(A: csr.CSR, P: csr.CSR) -> np.ndarray:
    """Each column's standard deviation over the rows of X = A @ P, 1 where it is 0.

    The sums run over blocks of ``_SCALE_ROWS`` rows of X, so X is never held whole.
    """
    n, d = A.shape[0], P.shape[1]
    sums = np.zeros((2, d))
    for start in range(0, n, _SCALE_ROWS):
        rows = csr.rows(A, np.arange(start, min(start + _SCALE_ROWS, n)))
        X = rows.scipy() @ P.scipy() if A.nnz + P.nnz > _SCIPY_CELLS else csr.product(rows, P)
        sums += np.bincount(X.indices, X.data, d), np.bincount(X.indices, X.data * X.data, d)
    mean, mean_sq = sums / n
    std = np.sqrt(np.maximum(mean_sq - mean * mean, 0.0))
    std[std == 0.0] = 1.0
    return std


def lambda_max(d: Design) -> float:
    """Smallest L1 penalty at which the all-zero weight vector is optimal.

    For logistic loss with the bias at its zero-weights optimum logit(mean(y)),
    this is max_j |(1/n) sum_i x_ij (y_i - mean(y))| on the design's columns.
    Training at ``lam >= lambda_max`` yields exactly zero weights.
    """
    s = np.full(len(d.y), _initial_bias(d.y))
    return float(np.max(np.abs(d.rmatvec((_sigmoids(s)[0] - d.y) / len(d.y)))))


def train(
    d: Design, config: ModelSection, seed: int, w0: np.ndarray | None = None, b0: float | None = None
) -> LinearModel:
    """Fit a linear model on the design, to a certified optimum (module docstring); ``seed`` is only recorded.

    A logistic fit starts from (w0, b0) when given, with w0 on the design's
    columns, as ``CvResult.w_start`` is.  The weights are returned on the
    matrix's own columns.
    """
    fit = _fit(d, config, w0, b0)
    w = fit.w if d.scale is None else fit.w / d.scale
    meta = TrainingMeta(fit.iterations, fit.objective, seed, d.scale is not None, fit.kkt_rel, fit.converged)
    return LinearModel(w, fit.b, config.loss, config.l1_lambda, meta)


def _fit(d: Design, config: ModelSection, w0: np.ndarray | None = None, b0: float | None = None) -> _Fit:
    """Solve at ``config.l1_lambda`` on the design; logistic fits start from (w0, b0) when given."""
    if config.loss == "hinge":
        fit = _fit_hinge(d, config)
    else:
        fit = _fit_logistic(d, config, w0, b0)
    if not np.isfinite(fit.objective):
        raise ValidationError("training diverged to a non-finite objective")
    return fit


def _fit_logistic(X: Design, config: ModelSection, w0, b0) -> _Fit:
    """Working-set outer loop: full gradient and KKT stop, then Newton on the set, which returns the scores."""
    lam, y = config.l1_lambda, X.y
    n, d = X.shape
    w = np.zeros(d) if w0 is None else np.array(w0, dtype=float)
    b = _initial_bias(y) if b0 is None else float(b0)
    s = np.full(n, b) if w0 is None else X.matvec(w) + b
    iterations = 0
    while True:
        r = (_sigmoids(s)[0] - y) / n
        pg = _pseudo_gradient(w, X.rmatvec(r), lam)
        kkt_rel = _kkt_rel(pg, float(r.sum()), lam)
        if kkt_rel <= config.tolerance or iterations >= config.max_iters:
            break
        support = np.flatnonzero(w)
        priority = np.abs(pg)
        priority[support] = np.inf
        ranked = np.argsort(-priority, kind="stable")[: max(_MIN_WORKING_SET, 2 * len(support))]
        ws = np.sort(ranked[priority[ranked] > 0])
        w_ws, b, s, steps = _newton(X.block(ws), y, lam, w[ws], b, config.tolerance, config.max_iters - iterations)
        iterations += steps
        w = np.zeros(d)
        w[ws] = w_ws
        if steps == 0:  # the line search found no descent from here: report this point
            break
    objective = _logistic_value(s, y) + lam * float(np.abs(w).sum())
    return _Fit(w, b, iterations, objective, kkt_rel, kkt_rel <= config.tolerance)


def _newton(
    A: np.ndarray, y: np.ndarray, lam: float, w: np.ndarray, b: float, tolerance: float, budget: int
) -> tuple[np.ndarray, float, int]:
    """Orthant-wise Newton on the columns held as the rows of ``A``, plus the bias.

    Each step takes one exponential of the scores s: p = sigmoid(s), the
    mirrored q = sigmoid(-|s|) and the Hessian weights q(1 - q) = p(1 - p) all
    come from it, and every line-search evaluation reuses q.  The step solves the damped
    Newton system on the free weights (off zero, or at zero with a nonzero
    pseudo-gradient) by ``_solve_damped``: a factorisation, with least squares
    as the fallback.  A weight at zero may only leave it against its
    pseudo-gradient: those the step would push the other way are dropped, and
    the system is solved again on the sub-block of the damped H that is left,
    until no such weight remains.  That block is positive definite, so the step
    is a descent direction; most steps drop nothing and solve once.  No weight
    may cross zero within a step: the step is projected onto the orthant it
    starts in.  The step is halved until the objective falls by the Armijo
    fraction of the predicted decrease.  Returns (w, b, the scores w @ A + b, steps taken).
    """
    n = len(y)
    s = w @ A + b
    steps = 0
    while steps < budget:
        p, q = _sigmoids(s)
        r = (p - y) / n
        pg = _pseudo_gradient(w, A @ r, lam)
        gb = float(r.sum())
        kkt_rel = _kkt_rel(pg, gb, lam)
        if kkt_rel <= tolerance:
            break
        free = np.flatnonzero((w != 0) | (pg != 0))
        F = A[free]
        curvature = q * (1.0 - q) / n  # p(1 - p), from the side where it keeps its precision
        Fc = F * curvature
        m = len(free)
        H = np.empty((m + 1, m + 1))
        H[:m, :m] = Fc @ F.T
        H[:m, m] = H[m, :m] = Fc.sum(axis=1)
        H[m, m] = float(np.sum(curvature))
        H[np.diag_indices(m + 1)] += _DAMPING * kkt_rel * (lam if lam > 0 else 1.0)
        rhs = -np.append(pg[free], gb)
        step = _solve_damped(H, rhs)
        # re-solve without the zero weights the step would move along their pseudo-gradient
        wrong = (w[free] == 0) & (step[:-1] * pg[free] > 0)
        while wrong.any():
            keep = np.append(~wrong, True)
            free, H, rhs = free[~wrong], H[np.ix_(keep, keep)], rhs[keep]
            step = _solve_damped(H, rhs)
            wrong = (w[free] == 0) & (step[:-1] * pg[free] > 0)
        dw = np.zeros_like(w)
        dw[free] = step[:-1]
        db = float(step[-1])
        if not float(pg @ dw) + gb * db < 0:  # rounding, or the least-squares fallback, left no descent
            dw, db = -pg, -gb
        orthant = np.where(w != 0, np.sign(w), -np.sign(pg))
        t = 1.0
        for _ in range(_MAX_HALVINGS):
            w_new = w + t * dw
            w_new[np.sign(w_new) != orthant] = 0.0
            moved = w_new - w
            h = moved @ A + t * db
            # per-weight differences: the difference of two sums of |w| would drown tiny changes
            change = _logistic_change(s, h, y, q) + lam * float(np.sum(np.abs(w_new) - np.abs(w)))
            if change <= _ARMIJO * (float(pg @ moved) + gb * t * db):
                break
            t *= 0.5
        else:
            return w, b, s, steps
        w, b, s = w_new, b + t * db, s + h
        steps += 1
    return w, b, s, steps


def _solve_damped(H: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """The Newton step H^-1 rhs, by an LU factorisation.

    The damping keeps H positive definite while a fit runs, but duplicate
    columns leave it singular up to the damping.  Should rounding make the
    solve raise or return non-finite values, least squares drops directions
    below ``_RCOND`` of the largest, along which the gradient has no component.
    """
    try:
        step = np.linalg.solve(H, rhs)
        if np.all(np.isfinite(step)):
            return step
    except np.linalg.LinAlgError:
        pass
    return np.linalg.lstsq(H, rhs, rcond=_RCOND)[0]


def _fit_hinge(factors: Design, config: ModelSection) -> _Fit:
    """The exact L1-SVM as a linear program (Zhu et al. 2003), solved by HiGHS.

    Variables [u, v, b, xi] with w = u - v: minimise lam * sum(u + v) + mean(xi)
    subject to xi_i >= 1 - y_i (x_i.w + b) and u, v, xi >= 0.  The duals of the
    margin constraints are the hinge subgradient weights at the optimum, which
    give the KKT residual.  X is formed from the factors here, as scipy's CSR,
    for the program.
    """
    import scipy.sparse as sp  # deferred, as scipy.optimize: `import ddimine` stays free of scipy
    from scipy.optimize import linprog

    lam, y = config.l1_lambda, factors.y
    X = factors.A.scipy() @ factors.P.scipy()
    X.sort_indices()
    if factors.scale is not None:
        X.data *= (1.0 / factors.scale)[X.indices]
    n, d = X.shape
    ysign = 2.0 * y - 1.0
    YX = sp.csr_matrix(sp.diags(ysign) @ X)
    A = sp.hstack([-YX, YX, sp.csr_matrix(-ysign[:, None]), -sp.identity(n)], format="csr")
    c = np.concatenate([np.full(2 * d, lam), [0.0], np.full(n, 1.0 / n)])
    bounds = [(0.0, None)] * (2 * d) + [(None, None)] + [(0.0, None)] * n
    res = linprog(c, A_ub=A, b_ub=-np.ones(n), bounds=bounds, method="highs",
                  options={"maxiter": config.max_iters})
    if res.x is None:
        raise ValidationError(f"hinge linear program found no solution: {res.message}")
    w = res.x[:d] - res.x[d : 2 * d]
    b = float(res.x[2 * d])
    alpha = -res.ineqlin.marginals
    g = -np.asarray(X.T @ (alpha * ysign)).ravel()
    # HiGHS can leave round-off (~1e-14) in a weight its duals price out, one
    # whose gradient does not sit at -lam*sign(w): such a weight is zero
    w[(w != 0) & (np.abs(g + lam * np.sign(w)) > config.tolerance * (lam if lam > 0 else 1.0))] = 0.0
    kkt_rel = _kkt_rel(_pseudo_gradient(w, g, lam), -float(alpha @ ysign), lam)
    s = np.asarray(X @ w).ravel() + b
    objective = _hinge_value(s, y) + lam * float(np.abs(w).sum())
    return _Fit(w, b, int(res.nit), objective, kkt_rel, kkt_rel <= config.tolerance)


def predict_scores(model: LinearModel, matrix: FeatureMatrix) -> np.ndarray:
    """Raw margins w.x + b, one per row, through the matrix's factors: A @ (P @ w) + b."""
    if matrix.dims != len(model.weights):
        raise ValidationError(
            f"model has {len(model.weights)} weights but matrix has {matrix.dims} columns"
        )
    return csr.matvec(matrix.A, csr.matvec(matrix.parts, model.weights)) + model.bias


@dataclass
class CvResult:
    lambda_grid: tuple[float, ...]  # descending
    fold_auc: np.ndarray  # shape (len(grid), k); nan where undefined
    mean_auc: np.ndarray
    mean_loss: np.ndarray  # held-out mean loss over the folds with a defined AUC
    best_lambda: float
    w_start: np.ndarray  # mean of the fold fits at best_lambda, on the design's columns
    b_start: float  # and of their biases: where the final fit starts
    warnings: list[str] = field(default_factory=list)


def cross_validate(
    d: Design,
    grid: Sequence[float],
    k: int,
    config: ModelSection,
    seed: int,
) -> CvResult:
    """Stratified k-fold AUC sweep over an L1 grid; folds cut within the design's rows.

    ``grid`` and ``k`` are as :class:`~ddimine.config.CvSection` checks them:
    positive lambdas, and at least 2 folds.  Fold f holds out every k-th of the
    shuffled positives and of the shuffled negatives, from the f-th on.

    A held-out fold with a single class has no AUC; it is excluded from every
    lambda's mean with a warning.  A fit that stops short of the tolerance is
    scored all the same, with a warning.  Ties in mean AUC resolve toward the
    lower mean held-out loss: on well-separated data several lambdas rank
    every held-out fold perfectly, and the loss still tells them apart.  Remaining ties go to the larger
    lambda (the sparser model).  A choice at either end of a grid of two or
    more points is kept with a warning: the grid does not bracket it.

    The fold fits at the chosen lambda are averaged into ``w_start`` and
    ``b_start``, on the design's columns: a start near the full-data optimum
    for the final fit on the same design.
    """
    y = d.y
    if len(y) < k:
        raise ValidationError(f"cannot cut {k} folds from {len(y)} rows")
    grid = tuple(sorted(set(float(g) for g in grid), reverse=True))

    rng = Rng(seed).derive(_CV_STREAM)
    pos = [int(i) for i in np.flatnonzero(y == 1)]
    neg = [int(i) for i in np.flatnonzero(y == 0)]
    rng.shuffle(pos)
    rng.shuffle(neg)
    fold_auc = np.full((len(grid), k), np.nan)
    fold_loss = np.full((len(grid), k), np.nan)
    warnings: list[str] = []
    w_sum, b_sum, fitted = np.zeros((len(grid), d.shape[1])), np.zeros(len(grid)), 0
    for fold_i in range(k):
        held_arr = np.sort(np.array(pos[fold_i::k] + neg[fold_i::k], dtype=np.int64))
        trained = np.ones(len(y), dtype=bool)
        trained[held_arr] = False
        train_arr = np.flatnonzero(trained)
        y_tr, y_ho = y[train_arr], y[held_arr]
        if _one_class(y_ho):
            warnings.append(f"fold {fold_i}: held-out part has a single class; AUC undefined")
            continue
        if _one_class(y_tr):
            warnings.append(f"fold {fold_i}: training part has a single class; fold skipped")
            continue
        fold, held = d.rows(train_arr), d.rows(held_arr)
        fitted += 1
        w_prev: np.ndarray | None = None
        b_prev: float | None = None
        for gi, lam in enumerate(grid):
            cfg = replace(config, l1_lambda=lam)
            fit = _fit(fold, cfg, w_prev, b_prev)
            w_prev, b_prev = fit.w, fit.b  # warm start down the path
            w_sum[gi] += fit.w
            b_sum[gi] += fit.b
            if not fit.converged:
                warnings.append(
                    f"fold {fold_i}, lambda {lam!r}: fit stopped after {fit.iterations} "
                    f"iterations with KKT residual {fit.kkt_rel!r} (not converged)"
                )
            scores = held.matvec(fit.w) + fit.b
            fold_auc[gi, fold_i] = roc_curve(scores, y_ho).auc
            fold_loss[gi, fold_i] = loss_value(config.loss, scores, y_ho)
        del fold, held  # free this fold's rows and column cache before the next fold builds its own
    mean_auc, mean_loss = (
        np.array([np.nan if np.all(np.isnan(row)) else float(np.nanmean(row)) for row in table])
        for table in (fold_auc, fold_loss)
    )
    if np.all(np.isnan(mean_auc)):
        raise ValidationError("no fold produced a defined AUC; cannot select lambda")
    tied = np.flatnonzero(mean_auc == np.nanmax(mean_auc))
    best_idx = int(tied[np.argmin(mean_loss[tied])])  # first min in descending grid = larger lambda
    if len(grid) >= 2 and best_idx in (0, len(grid) - 1):
        edge = "largest" if best_idx == 0 else "smallest"
        warnings.append(
            f"best lambda {grid[best_idx]!r} is the {edge} grid point; the optimum may lie beyond the grid"
        )
    return CvResult(
        grid, fold_auc, mean_auc, mean_loss, float(grid[best_idx]),
        w_sum[best_idx] / fitted, float(b_sum[best_idx]) / fitted, warnings,
    )


def default_lambda_grid(d: Design, n_points: int = 7, decades: float = 3.0) -> list[float]:
    """Log-spaced grid from lambda_max down, the usual L1 path."""
    lmax = lambda_max(d)
    if lmax <= 0:
        raise ValidationError("lambda_max is zero; features carry no label signal")
    return [float(lmax * 10 ** (-decades * i / (n_points - 1))) for i in range(n_points)]


def encode_model(model: LinearModel) -> artifacts.Encoded:
    """Solver settings and certificate, then one record per nonzero weight."""
    lines = [
        f"loss {model.loss_kind}",
        f"lambda {float(model.l1_lambda)!r}",
        f"dims {len(model.weights)}",
        f"bias {float(model.bias)!r}",
        f"seed {model.meta.seed}",
        f"objective {float(model.meta.objective)!r}",
        f"iterations {model.meta.iterations}",
        f"standardized {int(model.meta.standardized)}",
        f"kkt_rel {float(model.meta.kkt_rel)!r}",
        f"converged {int(model.meta.converged)}",
    ]
    for col in np.flatnonzero(model.weights):
        lines.append(f"w {int(col)} {float(model.weights[col])!r}")
    return "linear-model", {}, "\n".join(lines) + "\n"


def _finite(text: str) -> float:
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


def _count(text: str) -> int:
    if not (text.isascii() and text.isdecimal()):
        raise ValueError(f"{text!r} is not a count")
    return int(text)


def _flag(text: str) -> bool:
    if text not in ("0", "1"):
        raise ValueError(f"{text!r} is not 0 or 1")
    return text == "1"


def _loss(text: str) -> str:
    if text not in LOSS_KINDS:
        raise ValueError(f"unknown loss {text!r}")
    return text


# a model file's settings lines, as encode_model writes them, and how each value is read
_SETTINGS = {"loss": _loss, "lambda": _finite, "dims": _count, "bias": _finite, "seed": int, "objective": _finite,
             "iterations": _count, "standardized": _flag, "kkt_rel": _finite, "converged": _flag}
_CERTIFICATE = ("standardized", "kkt_rel", "converged")  # the lines an older version did not write


def load_model(path: Path | str) -> tuple[LinearModel, dict[str, str]]:
    """Read a model file; a damaged one is refused, not completed.

    A line is refused as ``path:line`` unless it is a setting, ``key value``,
    its value read as :data:`_SETTINGS` says (a finite number, a count, a 0 or
    1 flag, a known loss), or a weight, ``w column value``, its column below
    ``dims`` and its value finite; so is a setting or a weight column given
    twice.  A missing setting is refused with the path, and a missing
    certificate line as a file from an older version.
    """
    settings: dict[str, object] = {}
    weights: dict[int, float] = {}
    with artifacts.body_lines(path) as (lines, header):
        for line in filter(None, lines):
            key, *values = line.split(" ")
            try:
                if key == "w" and len(values) == 2:
                    col = _count(values[0])
                    if col in weights:
                        raise ValueError(f"weight column {col} repeated")
                    if col >= settings.get("dims", 0):
                        raise ValueError(f"weight column {col} is not below dims, or comes before the dims line")
                    weights[col] = _finite(values[1])
                elif key in settings:
                    raise ValueError(f"{key} repeated")
                elif key in _SETTINGS and len(values) == 1:
                    settings[key] = _SETTINGS[key](values[0])
                else:
                    raise ValueError(f"{line!r} is no setting or weight line")
            except ValueError as exc:
                raise ValidationError(f"malformed model file: {exc}") from None
    missing = [key for key in _SETTINGS if key not in settings]
    if missing and set(missing) <= set(_CERTIFICATE):
        raise ValidationError(f"{path}: model file without a {missing[0]} line, from an older version; rerun train")
    if missing:
        raise ValidationError(f"{path}: malformed model file: no {missing[0]} line")
    w = np.zeros(settings["dims"])
    w[list(weights)] = list(weights.values())
    meta = TrainingMeta(settings["iterations"], settings["objective"], settings["seed"], settings["standardized"],
                        settings["kkt_rel"], settings["converged"])
    return LinearModel(w, settings["bias"], settings["loss"], settings["lambda"], meta), header
