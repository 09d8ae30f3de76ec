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

Everything that depends on the sample alone (the basis, the projection, the
centering, the rank-1 test, the start point and the row norms) is done once
by working_sample; many directions u then share that one WorkingSample, as
quantile_fan and the command line's quantile fan do.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

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
# Coefficient-space kernels. C is the (n, d) data matrix, b the direction.


def _row_norms(a):
    return np.sqrt(np.einsum("ij,ij->i", a, a))


def _objective_raw(q, C, b, c_norm_mean):
    r = _row_norms(C - q)
    return float(np.mean(r) - c_norm_mean - b @ q)


def _inverse_distances(q, C, c_norms=None):
    """Differences q - C_i, distances r_i, inverses 1/r_i and the coincident count.

    C_i coincides with q when coincident(r_i, ||q||, ||C_i||), c_norms being
    the row norms of C (computed when not given); its inverse is 0, so
    coincident points drop out of every sum built on inv_r.
    """
    if c_norms is None:
        c_norms = _row_norms(C)
    diff = q - C
    r = _row_norms(diff)
    coin = coincident(r, float(np.linalg.norm(q)), c_norms)
    inv_r = np.zeros_like(r)
    np.divide(1.0, r, out=inv_r, where=~coin)
    return diff, r, inv_r, int(coin.sum())


def _gradient_raw(q, C, b, c_norms=None):
    """Gradient over non-coincident terms, the coincident count, diff, r and inv_r."""
    diff, r, inv_r, m = _inverse_distances(q, C, c_norms)
    grad = inv_r @ diff / C.shape[0] - b
    return grad, m, diff, r, inv_r


def _hessian_raw(inv_r, diff):
    """(1/n) sum_i [ I/r_i - d_i d_i^T / r_i^3 ], precomputed pieces."""
    n, d = diff.shape
    m = diff * (inv_r ** 1.5)[:, None]
    return (np.sum(inv_r) * np.eye(d) - m.T @ m) / n


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


def _decrease(diff, r, b, s):
    """g(q + s) - g(q) from diff = q - C and r = ||diff||, without cancellation:
    ||d + s|| - ||d|| = (2<d, s> + ||s||^2) / (||d + s|| + ||d||)."""
    num = 2.0 * (diff @ s) + float(s @ s)
    return float(np.mean(num / (_row_norms(diff + s) + r)) - b @ s)


def _solve_coeffs(
    C, b, c_norms, start=None, tol=GRAD_TOL, step_tol=STEP_TOL, max_iter=MAX_ITER, track=False
):
    """Minimize g over R^d from start (by default C's median), c_norms the row norms of C.

    Every exit is decided by one optimality test on the current iterate q at
    the top of the loop: ||grad|| <= tol off the data, and, when q coincides
    with m data, ||reduced grad|| <= m/n, the reduced gradient leaving those m
    out (then C[j] itself is returned). An iterate within 1e-3 of the median
    distance from its nearest datum C[j] first moves onto C[j] when that does
    not raise g. The step is the Weiszfeld step over the non-coincident data
    (Vardi & Zhang 2000 on a datum), or a Newton step off the data when the
    Hessian has a Cholesky factor whose squared pivots span at most
    CONDITION_LIMIT and the step gives descent. Backtracking and the move
    onto a datum test the exact decrease of g (_decrease); the trace is
    g(start) plus the running sum of accepted decreases. A failed line search,
    a stalled step and the max_iter-th step only record why the loop must stop;
    the iterate is tested once more and, failing, raises ConvergenceError with
    the iteration that stopped.
    """
    C = np.asarray(C, dtype=float)
    b = np.asarray(b, dtype=float)
    n = C.shape[0]
    if b.size == 1 and b[0] != 0.0:
        # In 1-D the Hessian is zero, so Newton never applies, but the
        # minimizer is this order statistic: the first optimality test takes it.
        k = min(math.floor(n * (1.0 + float(b[0])) / 2.0), n - 1)
        start = np.partition(C[:, 0], k)[k : k + 1]
    elif start is None:
        start = np.median(C, axis=0)
    cmax = float(c_norms.max())
    c_norm_mean = float(c_norms.mean())
    q = np.array(start, dtype=float)
    trace = [_objective_raw(q, C, b, c_norm_mean)] if track else None
    stop = None  # (reason, iteration) once the loop must end after one more test

    def solution(qv, its, gn, converged, anchored=None):
        fv = _objective_raw(qv, C, b, c_norm_mean)
        return _RawSolution(qv, its, gn, fv, converged, anchored, tuple(trace) if track else None)

    for it in range(1, max_iter + 2):
        grad, m, diff, r, inv_r = _gradient_raw(q, C, b, c_norms)
        j = int(np.argmin(r))
        if m == 0 and r[j] <= 1e-3 * float(np.median(r)):
            dg = _decrease(diff, r, b, -diff[j])
            if dg <= 0:
                q = C[j].copy()
                if track:
                    trace.append(trace[-1] + dg)
                grad, m, diff, r, inv_r = _gradient_raw(q, C, b, c_norms)
        gn = float(np.linalg.norm(grad))
        its = it if stop is None else stop[1]
        if gn <= (m / n + 1e-15 if m else tol):
            return solution(C[j].copy() if m else q, its, gn, True, j if m else None)
        if stop is not None:
            last = solution(q, its, gn, False)
            raise ConvergenceError(f"{stop[0]} (grad norm {gn:.3e})", last=last)

        step = grad * (-n / float(np.sum(inv_r)))
        if m == 0:
            hess = _hessian_raw(inv_r, diff)
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
            dg = _decrease(diff, r, b, t * step)
            if dg <= 1e-4 * t * slope:
                break
            t *= 0.5
        else:
            stop = (f"no decrease found at iteration {it}", it)
            continue
        q = q + t * step
        if track:
            trace.append(trace[-1] + dg)
        # relative to the data scale, like every test here: scale equivariant
        if t * float(np.linalg.norm(step)) <= step_tol * (cmax + float(np.linalg.norm(q))):
            stop = (f"step stalled below tolerance at iteration {it}", it)
        elif it >= max_iter:
            stop = (f"no convergence in {max_iter} iterations", it)


# ---------------------------------------------------------------------------
# Public operations on curves, samples and bases.


def objective(Q: Coefficients, sample: FunctionalSample, u: DirectionU) -> float:
    """Value of the quantile objective at Q, with the sample projected to Q's basis."""
    if u.dimension != Q.basis.dimension:
        raise ValueError("direction and coefficients have different dimensions")
    C = project_sample(sample, Q.basis)
    c_norms = np.linalg.norm(C, axis=1)
    return _objective_raw(Q.values, C, u.coefficients, float(c_norms.mean()))


def gradient(Q: Coefficients, sample: FunctionalSample, u: DirectionU) -> Coefficients:
    """Gradient of the objective at Q; Q must not coincide with a datum."""
    if u.dimension != Q.basis.dimension:
        raise ValueError("direction and coefficients have different dimensions")
    grad, m, *_ = _gradient_raw(Q.values, project_sample(sample, Q.basis), u.coefficients)
    if m > 0:
        raise ValueError(
            "gradient undefined at a data point; the solver handles this case "
            "through its anchored branch"
        )
    return Coefficients(grad, Q.basis)


def hessian(Q: Coefficients, sample: FunctionalSample) -> np.ndarray:
    """Hessian matrix of the objective at Q (independent of u)."""
    diff, _, inv_r, m = _inverse_distances(Q.values, project_sample(sample, Q.basis))
    if m > 0:
        raise ValueError("hessian undefined at a data point")
    return _hessian_raw(inv_r, diff)


@dataclass(frozen=True, eq=False)
class WorkingSample:
    """A sample prepared once for any number of quantile solves; see working_sample.

    data is the (n, d) matrix the solver works on: the coefficients centered
    at their mean ``offset`` when ``center``, the raw coefficients otherwise,
    and the (n, 1) coordinates along the principal ``line`` when the sample
    is collinear. start is its coordinatewise median (the solver's first
    iterate) and norms its row norms; mean is the sample's mean curve.
    """

    basis: Basis
    center: bool
    offset: np.ndarray
    data: np.ndarray
    start: np.ndarray
    norms: np.ndarray
    line: np.ndarray | None
    mean: Curve

    @property
    def dimension(self) -> int:
        return self.basis.dimension

    @property
    def degenerate(self) -> bool:
        return self.line is not None


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
    by default). A sample whose centered coefficients have rank 1 (second
    singular value at most 1e-10 of the first) keeps its principal line; its
    quantiles are solved along that line whatever ``center`` says.
    """
    if d is None:
        d = basis.dimension if basis is not None else default_dimension(len(sample))
    if basis is None:
        basis = pca(sample, d)
    elif basis.dimension != d:
        basis = basis.truncated(d)
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
    arrays = (offset, data, np.median(data, axis=0), np.linalg.norm(data, axis=1), line)
    for a in arrays:
        if a is not None:
            a.flags.writeable = False
    return WorkingSample(basis, center, *arrays, mean_curve(sample))


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

    Defaults: u = 0 (the spatial median), d = floor(sqrt(n)), basis from
    sample PCA. With center=True (the default, the standard workflow) the
    sample is centered at its mean curve before solving and the mean is
    added back, so the returned curve includes mean components outside the
    basis span.

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
        raw = _solve_coeffs(
            work.data, b, work.norms, work.start, tol, step_tol, max_iter, track_objective
        )
    except ConvergenceError as err:
        err.last = _solution(work, err.last)  # the last iterate, in the caller's basis
        raise
    return _solution(work, raw)


def _solution(work: WorkingSample, raw: _RawSolution) -> QuantileSolution:
    """The solver's result in the basis of the working sample, its offset and mean added back."""
    if work.line is not None:
        q_centered = raw.q[0] * work.line
    else:
        q_centered = raw.q if work.center else raw.q - work.offset

    coeffs = Coefficients(q_centered + work.offset, work.basis)
    if work.center or work.degenerate:
        curve = work.mean + reconstruct(Coefficients(q_centered, work.basis))
    else:
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
    c_norms = np.linalg.norm(C_ref, axis=1)
    q_ref = _solve_coeffs(C_ref, b, c_norms).q
    diff, _, inv_r, _ = _inverse_distances(q_ref, C_ref, c_norms)
    return q_ref, floored_inverse(_hessian_raw(inv_r, diff), "reference Hessian")


def bahadur_split(
    C: np.ndarray, b: np.ndarray, q_ref: np.ndarray, J_inv: np.ndarray
) -> tuple[float, float]:
    """Norms of the remainder and of the linear term for the sample C.

    The linear term is J^{-1} mean_i(score_i), score_i being the unit
    vector from C_i to q_ref minus b (zero for a C_i at q_ref): the mean
    score is the gradient of the objective of C at q_ref. The remainder is
    (Qhat - q_ref) + linear term, Qhat the u-quantile of C.
    """
    c_norms = np.linalg.norm(C, axis=1)
    q_hat = _solve_coeffs(C, b, c_norms).q
    linear = J_inv @ _gradient_raw(q_ref, C, b, c_norms)[0]
    residual = (q_hat - q_ref) + linear
    return float(np.linalg.norm(residual)), float(np.linalg.norm(linear))
