"""Sample spatial u-quantiles on truncated bases.

The sample spatial u-quantile minimizes

    g(Q) = (1/n) sum_i { ||Q - X_i|| - ||X_i|| } - <u, Q>

over a d-dimensional working subspace, for a direction u in the open unit
ball (u = 0 gives the spatial median). Everything here happens in
coefficient space: curves are projected onto an orthonormal basis, where
the weighted function-space norm becomes the plain Euclidean norm.

The solver is damped Newton with backtracking on g, falling back to the
Weiszfeld step -grad n / sum 1/r_i over the data it does not sit on (on a
datum, the step of Vardi & Zhang 2000 off it). Backtracking compares the
exact decrease g(q + s) - g(q), resolved below the rounding level of g, at
any step length and data scale. One optimality test ends it:
||mean sign - u|| <= m/n, m being the number of data that coincide with the
iterate (m = 0 off the data, where the test is ||grad|| <= tol). An iterate
close to a datum moves onto it when that does not raise g, so a non-optimal
datum is stepped off rather than approached forever. The usual workflow
centers the sample at its mean curve, solves, and adds the mean back.

The solver reaches its data through one _MatrixSource: the (n, d) matrix,
its row norms, the objective, and the sample evaluated at the median start
(differences, distances, coincident count, mean sign) with the Hessian
there, formed once. working_sample does everything else that depends on the
sample alone (basis, projection, centering, rank-1 test) once; many
directions u then share that WorkingSample and its source, as quantile_fan
and the command line's quantile fan do. Within a solve, the line search
evaluates the sample at each trial point, and an accepted trial's
differences and distances seed the next iterate, so each forms them once.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConditioningError, ConvergenceError
from .funcspace import (
    Basis,
    ByValue,
    Coefficients,
    Curve,
    FunctionalSample,
    mean_curve,
    pca,
    project_sample,
    reconstruct,
)
from .spatialdist import coincident

log = logging.getLogger(__name__)

GRAD_TOL = 1e-8
STEP_TOL = 1e-12
MAX_ITER = 500
CONDITION_LIMIT = 1e12


@dataclass(frozen=True, eq=False)
class DirectionU(ByValue):
    """Direction u in the open unit ball of the working coefficient space."""

    coefficients: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        if self.coefficients.ndim != 1:
            raise ValueError("direction coefficients must be a 1-d array")
        if not np.linalg.norm(self.coefficients) < 1.0:
            raise ValueError("direction must have ||u|| < 1 strictly")

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.coefficients))

    @property
    def dimension(self) -> int:
        return self.coefficients.size

    @staticmethod
    def zero(d: int) -> "DirectionU":
        return DirectionU(np.zeros(d))

    @staticmethod
    def along(k: int, c: float, d: int) -> "DirectionU":
        """u = c * e_k for the k-th basis function (k is 1-based)."""
        if not 1 <= k <= d:
            raise ValueError(f"k must be in [1, {d}]")
        coeff = np.zeros(d)
        coeff[k - 1] = c
        return DirectionU(coeff)


@dataclass(frozen=True)
class QuantileSolution:
    coefficients: Coefficients
    curve: Curve
    iterations: int
    grad_norm: float
    objective: float
    converged: bool
    anchored_at_datum: int | None = None
    degenerate: bool = False
    objective_trace: tuple[float, ...] | None = None


# ---------------------------------------------------------------------------
# Coefficient-space kernels over a _MatrixSource; b is the direction.


class _MatrixSource:
    """The (n, d) matrix C whose rows the solver works on, and what it needs of them.

    norms holds the row norms of C, computed once here for every coincidence
    test and objective; start is the evaluation at the coordinatewise median
    of C, the solver's first iterate, formed on first use and shared, with
    its Hessian, by every solve on this source.
    """

    def __init__(self, C):
        self.C = C
        self.norms = np.linalg.norm(C, axis=1)

    def objective(self, ev, b):
        """g at the evaluated point q: mean ||q - C_i|| - mean ||C_i|| - <b, q>."""
        return float(np.mean(ev.r) - float(self.norms.mean()) - b @ ev.q)

    @cached_property
    def start(self):
        return _Evaluation(np.median(self.C, axis=0), self)


class _Evaluation:
    """The rows C_i of a _MatrixSource evaluated at a point q; no array of it is ever written.

    diff holds the differences q - C_i, r their norms and inv_r the inverses
    1/r_i, with m the number of C_i that coincide with q (coincident(r_i,
    ||q||, ||C_i||)). A coincident C_i gets inverse 0, so it drops out of
    every sum built on inv_r: the mean sign (1/n) sum_i inv_r_i diff_i and,
    where m is 0, the Hessian of the objective, both computed on first use.
    """

    def __init__(self, q, sample):
        self.q = q
        self.diff = q - sample.C
        self.r = np.sqrt(np.einsum("ij,ij->i", self.diff, self.diff))
        coin = coincident(self.r, float(np.linalg.norm(q)), sample.norms)
        self.inv_r = np.zeros_like(self.r)
        np.divide(1.0, self.r, out=self.inv_r, where=~coin)
        self.m = int(coin.sum())

    @cached_property
    def sign_mean(self):
        return self.inv_r @ self.diff / self.diff.shape[0]

    @cached_property
    def hessian(self):
        """(1/n) sum_i [ I/r_i - d_i d_i^T / r_i^3 ]."""
        n, d = self.diff.shape
        w = self.diff * (self.inv_r ** 1.5)[:, None]
        return (np.sum(self.inv_r) * np.eye(d) - w.T @ w) / n


def floored_inverse(mat: np.ndarray, what: str) -> np.ndarray:
    """Inverse of a symmetric matrix, its eigenvalues floored at 1e-10 of the largest.

    Raises ConditioningError, naming ``what``, when the largest eigenvalue is
    not positive or the condition number exceeds CONDITION_LIMIT.
    """
    evals, evecs = np.linalg.eigh(mat)
    lam_max = float(evals[-1])
    if lam_max <= 0:
        raise ConditioningError(f"{what} is not positive definite")
    if lam_max / max(float(evals[0]), 1e-300) > CONDITION_LIMIT:
        raise ConditioningError(
            f"{what} condition number exceeds {CONDITION_LIMIT:.0e}; "
            f"use a smaller dimension or more draws"
        )
    floor = 1e-10 * lam_max
    n_floored = int(np.sum(evals < floor))
    if n_floored:
        log.info("floored %d eigenvalue(s) of %s at %.3e", n_floored, what, floor)
    return (evecs / np.maximum(evals, floor)) @ evecs.T


@dataclass
class _RawSolution:
    q: np.ndarray
    iterations: int
    grad_norm: float
    objective: float
    converged: bool
    anchored_at_datum: int | None
    trace: tuple[float, ...] | None


def _decrease(at, trial, b, s):
    """g(q + s) - g(q) from the sample evaluated at q and at the trial point
    q + s, without cancellation: with d_i = q - C_i,
    ||d_i + s|| - ||d_i|| = (2<d_i, s> + ||s||^2) / (||d_i + s|| + ||d_i||).

    The trial point is formed as the next iterate is, so the evaluation of an
    accepted trial serves as the next iterate's, bit for bit.
    """
    num = 2.0 * (at.diff @ s) + float(s @ s)
    return float(np.mean(num / (trial.r + at.r)) - b @ s)


def _solve_coeffs(sample, b, tol=GRAD_TOL, step_tol=STEP_TOL, max_iter=MAX_ITER, track=False):
    """Minimize g over R^d for the rows C_i of the _MatrixSource sample.

    The first iterate is sample.start, the evaluation at the median that
    every solve on the sample shares; in 1-D with b != 0 the solver starts
    at an order statistic instead. Every exit is decided by one optimality
    test on the current iterate q at the top of the loop: ||grad|| <= tol off
    the data, and, when q coincides with m data, ||reduced grad|| <= m/n, the
    reduced gradient leaving those m out (then C[j] itself is returned). An
    iterate within 1e-3 of the median distance from its nearest datum C[j]
    first moves onto C[j] when that does not raise g. The step is the
    Weiszfeld step over the non-coincident data (Vardi & Zhang 2000 on a
    datum), or a Newton step off the data when the Hessian has a Cholesky
    factor whose squared pivots span at most CONDITION_LIMIT and the step
    gives descent. Backtracking and the move onto a datum test the exact
    decrease of g (_decrease) against the sample evaluated at the trial
    point itself, C[j] for the move; the accepted trial's evaluation is the
    next iterate's, so each iterate's differences and distances are formed
    once, and a failed line search keeps the current one. Every value of g
    is sample.objective's: the trace is g at the start plus the running sum
    of accepted decreases, and a solution's objective is g at its point. A
    failed line search, a stalled step and the max_iter-th step only record
    why the loop must stop; the iterate is tested once more and, failing,
    raises ConvergenceError with the iteration that stopped.
    """
    b = np.asarray(b, dtype=float)
    n = sample.C.shape[0]
    if b.size == 1 and b[0] != 0.0:
        # In 1-D the Hessian is zero, so Newton never applies, but the
        # minimizer is this order statistic: the first optimality test takes it.
        k = min(math.floor(n * (1.0 + float(b[0])) / 2.0), n - 1)
        at = _Evaluation(np.partition(sample.C[:, 0], k)[k : k + 1], sample)
    else:
        at = sample.start
    trace = [sample.objective(at, b)] if track else None
    stop = None  # (reason, iteration) once the loop must end after one more test

    def solution(ev, its, gn, converged, anchored=None):
        # off the data, from the last distances; on a datum, at that datum
        if anchored is not None:
            ev = _Evaluation(sample.C[anchored].copy(), sample)
        fv = sample.objective(ev, b)
        return _RawSolution(ev.q, its, gn, fv, converged, anchored, tuple(trace) if track else None)

    for it in range(1, max_iter + 2):
        j = int(np.argmin(at.r))
        # the median is at most the max, so it is taken only when it can decide
        near = at.m == 0 and at.r[j] <= 1e-3 * float(at.r.max())
        if near and at.r[j] <= 1e-3 * float(np.median(at.r)):
            on_datum = _Evaluation(sample.C[j].copy(), sample)
            dg = _decrease(at, on_datum, b, -at.diff[j])
            if dg <= 0:
                at = on_datum
                if track:
                    trace.append(trace[-1] + dg)
        m = at.m
        grad = at.sign_mean - b
        gn = float(np.linalg.norm(grad))
        its = it if stop is None else stop[1]
        if gn <= (m / n + 1e-15 if m else tol):
            return solution(at, its, gn, True, j if m else None)
        if stop is not None:
            last = solution(at, its, gn, False)
            raise ConvergenceError(f"{stop[0]} (grad norm {gn:.3e})", last=last)

        step = grad * (-n / float(np.sum(at.inv_r)))
        if m == 0:
            hess = at.hessian
            try:
                # the squared pivots of a Cholesky factor bound the condition
                # number from below; no factor means not positive definite
                pivots = np.diag(np.linalg.cholesky(hess)) ** 2
                if pivots.max() <= CONDITION_LIMIT * pivots.min():
                    cand = np.linalg.solve(hess, -grad)
                    if grad @ cand < 0:
                        step = cand
            except np.linalg.LinAlgError:
                pass

        # Backtracking on g; the directional slope uses the smooth part only.
        slope = float(grad @ step)
        t = 1.0
        for _ in range(60):
            trial = _Evaluation(at.q + t * step, sample)
            dg = _decrease(at, trial, b, t * step)
            if dg <= 1e-4 * t * slope:
                break
            t *= 0.5
        else:
            stop = (f"no decrease found at iteration {it}", it)
            continue
        at = trial
        if track:
            trace.append(trace[-1] + dg)
        # relative to the data scale, like every test here: scale equivariant
        scale = float(sample.norms.max()) + float(np.linalg.norm(at.q))
        if t * float(np.linalg.norm(step)) <= step_tol * scale:
            stop = (f"step stalled below tolerance at iteration {it}", it)
        elif it >= max_iter:
            stop = (f"no convergence in {max_iter} iterations", it)


# ---------------------------------------------------------------------------
# Public operations on curves, samples and bases.


def objective(Q: Coefficients, sample: FunctionalSample, u: DirectionU) -> float:
    """Value of the quantile objective at Q, with the sample projected to Q's basis."""
    if u.dimension != Q.basis.dimension:
        raise ValueError("direction and coefficients have different dimensions")
    data = _MatrixSource(project_sample(sample, Q.basis))
    return data.objective(_Evaluation(Q.values, data), u.coefficients)


def gradient(Q: Coefficients, sample: FunctionalSample, u: DirectionU) -> Coefficients:
    """Gradient of the objective at Q; Q must not coincide with a datum."""
    if u.dimension != Q.basis.dimension:
        raise ValueError("direction and coefficients have different dimensions")
    at = _Evaluation(Q.values, _MatrixSource(project_sample(sample, Q.basis)))
    if at.m > 0:
        raise ValueError(
            "gradient undefined at a data point; the solver handles this case "
            "through its anchored branch"
        )
    return Coefficients(at.sign_mean - u.coefficients, Q.basis)


def hessian(Q: Coefficients, sample: FunctionalSample) -> np.ndarray:
    """Hessian matrix of the objective at Q (independent of u)."""
    at = _Evaluation(Q.values, _MatrixSource(project_sample(sample, Q.basis)))
    if at.m > 0:
        raise ValueError("hessian undefined at a data point")
    return at.hessian


@dataclass(frozen=True, eq=False)
class WorkingSample:
    """A sample prepared once for any number of quantile solves; see working_sample.

    data is the (n, d) matrix the solver works on: the coefficients centered
    at their mean ``offset`` when ``center``, the raw coefficients otherwise,
    and the (n, 1) coordinates along the principal ``line`` when the sample
    is collinear; mean is the sample's mean curve. The solver reaches data
    through one data object, built by the first solve, that holds its row
    norms and its evaluation at the coordinatewise median, the solver's
    first iterate, with the Hessian there when no datum coincides with that
    start; every later solve shares them.
    """

    basis: Basis
    center: bool
    offset: np.ndarray
    data: np.ndarray
    line: np.ndarray | None
    mean: Curve

    @property
    def dimension(self) -> int:
        return self.basis.dimension

    @property
    def degenerate(self) -> bool:
        return self.line is not None

    @cached_property
    def _source(self) -> _MatrixSource:
        return _MatrixSource(self.data)


def default_dimension(n: int) -> int:
    """The default working dimension d = max(1, floor(sqrt(n))) of n curves."""
    return max(1, math.isqrt(n))


def working_sample(
    sample: FunctionalSample,
    basis: Basis | None = None,
    d: int | None = None,
    center: bool = True,
) -> WorkingSample:
    """Project, center and rank-check a sample once, for many solve_quantile calls.

    basis and d resolve as in solve_quantile (PCA of dimension floor(sqrt(n))
    by default, capped at the sample's numerical rank). A sample whose
    centered coefficients have rank 1 (second singular value at most 1e-10
    of the first) keeps its principal line; its quantiles are solved along
    that line whatever ``center`` says.
    """
    if basis is None:
        if d is None:
            basis = pca(sample, default_dimension(len(sample)), cap_at_rank=True)
        else:
            basis = pca(sample, d)
    elif d is not None and basis.dimension != d:
        basis = basis.truncated(d)
    d = basis.dimension
    C = project_sample(sample, basis)
    offset = C.mean(axis=0)
    centered = C - offset
    line = None
    if d > 1:
        svals = np.linalg.svd(centered, compute_uv=False)
        if svals[1] <= 1e-10 * max(svals[0], 1e-300):
            line = np.linalg.svd(centered, full_matrices=False)[2][0]
    if line is not None:
        data = (centered @ line)[:, None]
    else:
        data = centered if center else C
    for a in (offset, data, line):
        if a is not None:
            a.flags.writeable = False
    return WorkingSample(basis, center, offset, data, line, mean_curve(sample))


def solve_quantile(
    sample: FunctionalSample | WorkingSample,
    u: DirectionU | None = None,
    basis: Basis | None = None,
    d: int | None = None,
    center: bool | None = None,
    tol: float = GRAD_TOL,
    step_tol: float = STEP_TOL,
    max_iter: int = MAX_ITER,
    track_objective: bool = False,
) -> QuantileSolution:
    """Sample spatial u-quantile over a d-dimensional working subspace.

    Defaults: u = 0 (the spatial median), d = floor(sqrt(n)) capped at the
    centered sample's numerical rank (pca's rule), basis from sample PCA; an
    explicit d above that rank raises RankDeficiencyError. With center=True
    (the default, the standard workflow) the sample is centered at its mean
    curve before solving and the mean is added back, so the returned curve
    includes mean components outside the basis span.

    Collinear samples (centered coefficient rank 1) are solved along their
    principal line, ignoring any direction component off that line, and
    flagged degenerate.

    ``sample`` may also be a WorkingSample, which fixes basis, d and center
    (passing any of them as well raises ValueError). A FunctionalSample is
    turned into one first, so to solve many directions of one sample, build
    the working sample once and pass it to every call: the results are
    bitwise the same.
    """
    if isinstance(sample, WorkingSample):
        if basis is not None or d is not None or center is not None:
            raise ValueError("basis, d and center are fixed by the working sample")
        work = sample
    else:
        work = working_sample(sample, basis, d, True if center is None else center)
    d = work.dimension
    if u is None:
        u = DirectionU.zero(d)
    if u.dimension != d:
        raise ValueError(f"direction has dimension {u.dimension}, expected {d}")
    b = u.coefficients if work.line is None else np.array([float(u.coefficients @ work.line)])
    try:
        raw = _solve_coeffs(work._source, b, tol, step_tol, max_iter, track_objective)
    except ConvergenceError as err:
        err.last = _solution(work, err.last)  # the last iterate, in the caller's basis
        raise
    return _solution(work, raw)


def _solution(work: WorkingSample, raw: _RawSolution) -> QuantileSolution:
    """The solver's result in the basis of the working sample, its offset and mean added back."""
    if work.center or work.degenerate:
        q_centered = raw.q if work.line is None else raw.q[0] * work.line
        coeffs = Coefficients(q_centered + work.offset, work.basis)
        curve = work.mean + reconstruct(Coefficients(q_centered, work.basis))
    else:  # solved on the coefficients themselves: the solver's point, bit for bit
        coeffs = Coefficients(raw.q, work.basis)
        curve = reconstruct(coeffs)
    return QuantileSolution(
        coefficients=coeffs,
        curve=curve,
        iterations=raw.iterations,
        grad_norm=raw.grad_norm,
        objective=raw.objective,
        converged=raw.converged,
        anchored_at_datum=raw.anchored_at_datum,
        degenerate=work.degenerate,
        objective_trace=raw.trace,
    )


@dataclass(frozen=True)
class FanEntry:
    k: int
    c: float  # signed multiple of the k-th basis direction
    solution: QuantileSolution


@dataclass(frozen=True)
class QuantileFan:
    median: QuantileSolution
    entries: tuple[FanEntry, ...]


def quantile_fan(
    sample: FunctionalSample,
    ks,
    cs,
    basis: Basis | None = None,
    d: int | None = None,
    center: bool = True,
    **solve_opts,
) -> QuantileFan:
    """Quantiles along +-c phi_k for all requested k and c, plus the median.

    All solves share one WorkingSample (PCA basis by default), built once;
    entries come back ordered by (k, then c, then sign).
    """
    work = working_sample(sample, basis, d, center)
    d = work.dimension
    jobs = [(None, 0.0)]  # the median
    for k in ks:
        for c in cs:
            if c == 0.0:
                jobs.append((k, 0.0))
            else:
                jobs.append((k, +abs(c)))
                jobs.append((k, -abs(c)))

    def run(job):
        k, c = job
        u = DirectionU.zero(d) if k is None or c == 0.0 else DirectionU.along(k, c, d)
        return solve_quantile(work, u, **solve_opts)

    solutions = [run(job) for job in jobs]
    entries = tuple(
        FanEntry(k, c, sol) for (k, c), sol in zip(jobs[1:], solutions[1:], strict=True)
    )
    return QuantileFan(median=solutions[0], entries=entries)


def linearization(C_ref: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reference u-quantile q_ref of the rows of C_ref and the inverse Hessian there.

    b holds the direction coefficients. J at q_ref is inverted by
    floored_inverse; q_ref and J^{-1} are the fixed centre and slope of
    every bahadur_split against this reference.
    """
    ref = _MatrixSource(C_ref)
    q_ref = _solve_coeffs(ref, b).q
    return q_ref, floored_inverse(_Evaluation(q_ref, ref).hessian, "reference Hessian")


def bahadur_split(
    C: np.ndarray, b: np.ndarray, q_ref: np.ndarray, J_inv: np.ndarray
) -> tuple[float, float]:
    """Norms of the remainder and of the linear term for the sample C.

    The linear term is J^{-1} mean_i(score_i), score_i being the unit
    vector from C_i to q_ref minus b (zero for a C_i at q_ref): the mean
    score is the gradient of the objective of C at q_ref. The remainder is
    (Qhat - q_ref) + linear term, Qhat the u-quantile of C.
    """
    data = _MatrixSource(C)
    q_hat = _solve_coeffs(data, b).q
    linear = J_inv @ (_Evaluation(q_ref, data).sign_mean - b)
    residual = (q_hat - q_ref) + linear
    return float(np.linalg.norm(residual)), float(np.linalg.norm(linear))
