"""Sample spatial u-quantiles on truncated bases.

The sample spatial u-quantile minimizes

    g(Q) = (1/n) sum_i { ||Q - X_i|| - ||X_i|| } - <u, Q>

over a d-dimensional working subspace, for a direction u in the open unit
ball (u = 0 gives the spatial median). Everything here happens in
coefficient space: curves are projected onto an orthonormal basis, where
the weighted function-space norm becomes the plain Euclidean norm.

The solver is damped Newton with backtracking on g, falling back to a
Weiszfeld-style fixed-point step when the Hessian is unusable, plus an
exact optimality test for solutions that sit on a data point (where g is
not differentiable). The usual workflow centers the sample at its mean
curve, solves, and adds the mean back.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConditioningError, ConvergenceError
from .funcspace import (
    Basis,
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


@dataclass(frozen=True)
class DirectionU:
    """Direction u in the open unit ball of the working coefficient space."""

    coefficients: np.ndarray

    def __post_init__(self):
        c = np.array(self.coefficients, dtype=float, copy=True)
        if c.ndim != 1:
            raise ValueError("direction coefficients must be a 1-d array")
        if not np.linalg.norm(c) < 1.0:
            raise ValueError("direction must be finite with ||u|| < 1 strictly")
        c.flags.writeable = False
        object.__setattr__(self, "coefficients", c)

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


@dataclass(frozen=True)
class BahadurReport:
    """Norms of the linearization residual and the linear term itself."""

    residual_norm: float
    linear_term_norm: float
    n: int
    d: int
    reference_n: int


# ---------------------------------------------------------------------------
# Coefficient-space kernels. C is the (n, d) data matrix, b the direction.


def _objective_raw(q, C, b, c_norm_mean):
    r = np.linalg.norm(C - q, axis=1)
    return float(np.mean(r) - c_norm_mean - b @ q)


def _inverse_distances(q, C, c_norms=None):
    """Differences q - C_i, distances r_i, inverses 1/r_i and the coincident count.

    C_i coincides with q when coincident(r_i, ||q||, ||C_i||), c_norms being
    the row norms of C (computed when not given); its inverse is 0, so
    coincident points drop out of every sum built on inv_r.
    """
    if c_norms is None:
        c_norms = np.linalg.norm(C, axis=1)
    diff = q - C
    r = np.linalg.norm(diff, axis=1)
    coin = coincident(r, float(np.linalg.norm(q)), c_norms)
    inv_r = np.zeros_like(r)
    np.divide(1.0, r, out=inv_r, where=~coin)
    return diff, r, inv_r, int(coin.sum())


def _gradient_raw(q, C, b, c_norms=None):
    """Gradient over non-coincident terms, the coincident count, diff, r and inv_r."""
    diff, r, inv_r, m = _inverse_distances(q, C, c_norms)
    grad = (diff * inv_r[:, None]).sum(axis=0) / C.shape[0] - b
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


def _datum_test(C, b, j, c_norms):
    """Exact optimality certificate for the datum C[j].

    C[j] minimizes g iff the mean sign vector over data distinct from C[j],
    minus b, has norm at most m/n where m is the multiplicity of C[j].
    """
    n = C.shape[0]
    grad, m, *_ = _gradient_raw(C[j], C, b, c_norms)
    gn = float(np.linalg.norm(grad))
    return gn <= m / n + 1e-15, gn


@dataclass
class _RawSolution:
    q: np.ndarray
    iterations: int
    grad_norm: float
    objective: float
    converged: bool
    anchored_at_datum: int | None
    trace: tuple[float, ...] | None


def _solve_coeffs(C, b, tol=GRAD_TOL, step_tol=STEP_TOL, max_iter=MAX_ITER, track=False):
    """Minimize g over R^d. Objective decreases monotonically along iterates."""
    C = np.asarray(C, dtype=float)
    b = np.asarray(b, dtype=float)
    n = C.shape[0]
    c_norms = np.linalg.norm(C, axis=1)
    cmax = float(c_norms.max())
    c_norm_mean = float(c_norms.mean())
    q = np.median(C, axis=0)
    fq = _objective_raw(q, C, b, c_norm_mean)
    trace = [fq] if track else None

    def finish(qv, its, gn, anchored):
        fv = _objective_raw(qv, C, b, c_norm_mean)
        return _RawSolution(qv, its, gn, fv, True, anchored, tuple(trace) if track else None)

    def fail(message, its, gn):
        # the error carries the current iterate q and its objective fq
        last = _RawSolution(q, its, gn, fq, False, None, tuple(trace) if track else None)
        return ConvergenceError(message, last=last)

    for it in range(1, max_iter + 1):
        grad, m, diff, r, inv_r = _gradient_raw(q, C, b, c_norms)
        gn = float(np.linalg.norm(grad))
        j = int(np.argmin(r))

        if m > 0:
            if gn <= m / n + 1e-15:
                return finish(C[j].copy(), it, gn, j)
            # Not optimal at the datum: the reduced negative gradient is a
            # strict descent direction since ||grad|| > m/n.
            step = -grad
        else:
            if gn <= tol:
                return finish(q, it, gn, None)
            if r[j] <= 1e-3 * float(np.median(r)):
                # Close to a datum; an exact certificate may end things now.
                ok, red = _datum_test(C, b, j, c_norms)
                if ok:
                    return finish(C[j].copy(), it, red, j)
            step = None
            hess = _hessian_raw(inv_r, diff)
            cond = np.linalg.cond(hess)
            if np.isfinite(cond) and cond <= CONDITION_LIMIT:
                try:
                    cand = np.linalg.solve(hess, -grad)
                    if grad @ cand < 0:
                        step = cand
                except np.linalg.LinAlgError:
                    step = None
            if step is None:
                # Weiszfeld fixed point of the smooth majorant.
                denom = float(np.sum(inv_r))
                target = ((C * inv_r[:, None]).sum(axis=0) + n * b) / denom
                step = target - q

        # Backtracking on g; the directional slope uses the smooth part only.
        slope = float(grad @ step)
        t = 1.0
        accepted = False
        for _ in range(60):
            q_new = q + t * step
            f_new = _objective_raw(q_new, C, b, c_norm_mean)
            if f_new <= fq + 1e-4 * t * slope:
                accepted = True
                break
            t *= 0.5
        if not accepted:
            ok, red = _datum_test(C, b, j, c_norms)
            if ok:
                return finish(C[j].copy(), it, red, j)
            raise fail(f"no decrease found at iteration {it} (grad norm {gn:.3e})", it, gn)
        moved = t * float(np.linalg.norm(step))
        q = q_new
        fq = f_new
        if track:
            trace.append(fq)
        # relative to the data scale, like every test here: scale equivariant
        if moved <= step_tol * (cmax + float(np.linalg.norm(q))):
            grad, m, _, r, _ = _gradient_raw(q, C, b, c_norms)
            j = int(np.argmin(r))
            ok, red = _datum_test(C, b, j, c_norms)
            if ok:
                return finish(C[j].copy(), it, red, j)
            gn = float(np.linalg.norm(grad))
            if gn <= tol or (m > 0 and gn <= m / n + 1e-15):
                return finish(q, it, gn, None if m == 0 else j)
            raise fail(
                f"step stalled below tolerance at iteration {it} (grad norm {gn:.3e})", it, gn
            )

    gn = float(np.linalg.norm(_gradient_raw(q, C, b, c_norms)[0]))
    raise fail(f"no convergence in {max_iter} iterations (grad norm {gn:.3e})", max_iter, gn)


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


def _resolve_basis(sample, basis, d):
    n = len(sample)
    if d is None:
        d = basis.dimension if basis is not None else max(1, math.isqrt(n))
    if basis is None:
        basis = pca(sample, d)
    elif basis.dimension != d:
        basis = basis.truncated(d)
    return basis, d


def solve_quantile(
    sample: FunctionalSample,
    u: DirectionU | None = None,
    basis: Basis | None = None,
    d: int | None = None,
    center: bool = True,
    tol: float = GRAD_TOL,
    step_tol: float = STEP_TOL,
    max_iter: int = MAX_ITER,
    track_objective: bool = False,
) -> QuantileSolution:
    """Sample spatial u-quantile over a d-dimensional working subspace.

    Defaults: u = 0 (the spatial median), d = floor(sqrt(n)), basis from
    sample PCA. With center=True (the standard workflow) the sample is
    centered at its mean curve before solving and the mean is added back,
    so the returned curve includes mean components outside the basis span.

    Collinear samples (centered coefficient rank 1) are solved along their
    principal line, ignoring any direction component off that line, and
    flagged degenerate.
    """
    basis, d = _resolve_basis(sample, basis, d)
    if u is None:
        u = DirectionU.zero(d)
    if u.dimension != d:
        raise ValueError(f"direction has dimension {u.dimension}, expected {d}")
    C = project_sample(sample, basis)
    mb = C.mean(axis=0)
    centered = C - mb
    degenerate = False
    if d > 1:
        svals = np.linalg.svd(centered, compute_uv=False)
        degenerate = bool(svals[1] <= 1e-10 * max(svals[0], 1e-300))
    if degenerate:
        v1 = np.linalg.svd(centered, full_matrices=False)[2][0]
        z = centered @ v1
        b1 = float(u.coefficients @ v1)
        raw = _solve_coeffs(
            z[:, None], np.array([b1]), tol, step_tol, max_iter, track_objective
        )
        q_centered = raw.q[0] * v1
    else:
        data = centered if center else C
        raw = _solve_coeffs(data, u.coefficients, tol, step_tol, max_iter, track_objective)
        q_centered = raw.q if center else raw.q - mb

    coeffs = Coefficients(q_centered + mb, basis)
    if center or degenerate:
        curve = mean_curve(sample) + reconstruct(Coefficients(q_centered, basis))
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
        degenerate=degenerate,
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
    **solve_opts,
) -> QuantileFan:
    """Quantiles along +-c phi_k for all requested k and c, plus the median.

    All solves share one working basis (PCA by default); entries come back
    ordered by (k, then c, then sign).
    """
    basis, d = _resolve_basis(sample, basis, d)
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
        return solve_quantile(sample, u, basis=basis, d=d, **solve_opts)

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
    q_ref = _solve_coeffs(C_ref, b).q
    diff, _, inv_r, _ = _inverse_distances(q_ref, C_ref)
    return q_ref, floored_inverse(_hessian_raw(inv_r, diff), "reference Hessian")


def bahadur_split(
    C: np.ndarray, b: np.ndarray, q_ref: np.ndarray, J_inv: np.ndarray
) -> tuple[float, float]:
    """Norms of the remainder and of the linear term for the sample C.

    The linear term is J^{-1} mean_i(score_i), score_i being the unit
    vector from C_i to q_ref minus b (zero for a C_i at q_ref), and the
    remainder is (Qhat - q_ref) + linear term, Qhat the u-quantile of C.
    """
    q_hat = _solve_coeffs(C, b).q
    diff, _, inv_r, _ = _inverse_distances(q_ref, C)
    scores = diff * inv_r[:, None] - b[None, :]
    linear = J_inv @ scores.mean(axis=0)
    residual = (q_hat - q_ref) + linear
    return float(np.linalg.norm(residual)), float(np.linalg.norm(linear))


def bahadur_residual(
    sample: FunctionalSample,
    u: DirectionU,
    basis: Basis,
    d: int,
    reference: FunctionalSample,
) -> BahadurReport:
    """Residual of the linear representation of the u-quantile.

    The population quantile and Hessian on the working subspace are
    replaced by estimates from the (much larger) reference sample; the
    report records the reference size. The residual is

        (Qhat - Q_ref) + J_ref^{-1} * mean_i(score_i)

    with score_i the unit vector from the i-th sample point to Q_ref minus
    u; its norm shrinks faster than the linear term's 1/sqrt(n).
    """
    if u.dimension != d:
        raise ValueError(f"direction has dimension {u.dimension}, expected {d}")
    work = basis.truncated(d) if basis.dimension != d else basis
    b = u.coefficients
    q_ref, J_inv = linearization(project_sample(reference, work), b)
    residual, linear = bahadur_split(project_sample(sample, work), b, q_ref, J_inv)
    return BahadurReport(
        residual_norm=residual,
        linear_term_norm=linear,
        n=len(sample),
        d=d,
        reference_n=len(reference),
    )
