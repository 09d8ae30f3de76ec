"""Discretized function spaces.

Curves are represented by their values on a fixed grid of D points, and the
L2 inner product is approximated by a quadrature rule attached to the grid:

    <a, b> = sum_i w_i a(t_i) b(t_i)

Uniform grids on an interval carry trapezoid weights (summing to b - a);
grids of points drawn from a probability measure carry equal weights 1/D
(summing to 1). Everything downstream (signs, quantiles, depth, efficiency)
is expressed through this weighted geometry, so the grid and its weights
travel together as one object.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .errors import GridMismatchError, RankDeficiencyError


class ByValue:
    """A frozen dataclass that holds its arrays by one rule and compares by value.

    __post_init__, which subclasses call first, takes in each field annotated
    as an ndarray: as bool where the annotation says bool, else as float64.
    An array that owns its data (base is None) and is already read-only and
    C-contiguous in that dtype is adopted, so the library's freshly drawn or
    read arrays are never copied. Anything else, such as a caller's
    writeable array or a view of one, is copied row-major, so later writes
    cannot reach the value and its layout cannot reach the numbers. Float
    arrays must be finite. None, or a by-value object, is left as given.

    Arrays compare by np.array_equal (-0.0 is 0.0) and hash by shape and sum,
    in place, so equal values reduce in the same order and keep their hash."""

    def __post_init__(self):
        for f in fields(self):
            a = getattr(self, f.name)
            ann = str(f.type)
            if "ndarray" not in ann.lower() or a is None or isinstance(a, ByValue):
                continue
            dtype = bool if "bool" in ann else float
            owned = type(a) is np.ndarray and a.base is None and not a.flags.writeable
            if not (owned and a.flags.c_contiguous and a.dtype == dtype):
                a = np.array(a, dtype=dtype, order="C", copy=True)
                a.flags.writeable = False
                object.__setattr__(self, f.name, a)
            # min and max propagate NaN, so no temporary of the array's size is needed
            if dtype is float and a.size and not (np.isfinite(a.min()) and np.isfinite(a.max())):
                raise ValueError(f"{type(self).__name__} {f.name} must be finite")

    def _fields(self):
        return [getattr(self, f.name) for f in fields(self) if f.compare]

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(
            np.array_equal(a, b) if np.ndarray in (type(a), type(b)) else a == b
            for a, b in zip(self._fields(), other._fields())
        )

    def __hash__(self):
        parts = ((v.shape, v.sum()) if isinstance(v, np.ndarray) else v for v in self._fields())
        return hash((type(self), *parts))


@dataclass(frozen=True, eq=False)
class Grid(ByValue):
    """Evaluation points plus quadrature weights; grids compare and hash by value.

    Parameters
    ----------
    points : array of shape (D,)
        Strictly increasing finite evaluation points, D >= 2.
    weights : array of shape (D,)
        Positive finite quadrature weights.
    """

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        if self.points.ndim != 1 or self.weights.ndim != 1:
            raise ValueError("grid points and weights must be 1-d arrays")
        if self.points.size < 2:
            raise ValueError("degenerate grid: need at least 2 points")
        if self.points.size != self.weights.size:
            raise GridMismatchError(
                f"{self.points.size} points but {self.weights.size} weights"
            )
        if not np.all(np.diff(self.points) > 0):
            raise ValueError("grid points must be strictly increasing")
        if not np.all(self.weights > 0):
            raise ValueError("grid weights must be positive")

    @property
    def size(self) -> int:
        return self.points.size

    @staticmethod
    def uniform(a: float, b: float, num: int) -> "Grid":
        """Equispaced grid on [a, b] with trapezoid weights (sum = b - a); num >= 2."""
        if not b > a:
            raise ValueError("need b > a")
        if num < 2:
            raise ValueError("degenerate grid: need at least 2 points")
        pts = np.linspace(a, b, num)
        h = (b - a) / (num - 1)
        w = np.full(num, h)
        w[0] = w[-1] = h / 2.0
        return Grid(pts, w)

    @staticmethod
    def gaussian(num: int, seed: int, mean: float = 0.0, var: float = 0.5) -> "Grid":
        """Grid of points drawn once from N(mean, var), sorted, weights 1/D.

        This realizes quadrature against the Gaussian base measure itself:
        integrals against N(mean, var) become plain averages over the drawn
        points. The draw is deterministic in ``seed``.
        """
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
        pts = np.sort(rng.normal(mean, np.sqrt(var), size=num))
        # A repeated point would break strict monotonicity; nudge would be
        # dishonest, so just redraw extras until distinct (astronomically rare).
        while np.any(np.diff(pts) <= 0):
            pts = np.sort(rng.normal(mean, np.sqrt(var), size=num))
        w = np.full(num, 1.0 / num)
        return Grid(pts, w)

    @staticmethod
    def custom(points, weights) -> "Grid":
        return Grid(points, weights)


def check_same_grid(a: Grid, b: Grid, what: str = "objects live on different grids") -> None:
    """Raise GridMismatchError(what) unless the grids a and b are equal."""
    if a != b:
        raise GridMismatchError(what)


@dataclass(frozen=True, eq=False)
class Curve(ByValue):
    """One function sampled on a grid; curves compare and hash by value."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        if self.values.shape != (self.grid.size,):
            raise GridMismatchError(
                f"curve has {self.values.shape} values on a grid of size {self.grid.size}"
            )

    def __add__(self, other: "Curve") -> "Curve":
        check_same_grid(self.grid, other.grid)
        return Curve(self.grid, self.values + other.values)

    def __sub__(self, other: "Curve") -> "Curve":
        check_same_grid(self.grid, other.grid)
        return Curve(self.grid, self.values - other.values)

    def __mul__(self, c: float) -> "Curve":
        return Curve(self.grid, self.values * float(c))

    __rmul__ = __mul__

    def __neg__(self) -> "Curve":
        return Curve(self.grid, -self.values)


@dataclass(frozen=True, eq=False)
class FunctionalSample(ByValue):
    """n curves on a shared grid, stored as one read-only (n, D) matrix; see ByValue."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        vals = self.values
        if vals.ndim != 2:
            raise ValueError("sample values must be a 2-d array (n, D)")
        if vals.shape[1] != self.grid.size:
            raise GridMismatchError(
                f"sample has {vals.shape[1]} columns on a grid of size {self.grid.size}"
            )
        if vals.shape[0] < 1:
            raise ValueError("empty sample")

    def __len__(self) -> int:
        return self.values.shape[0]

    def curve(self, i: int) -> Curve:
        return Curve(self.grid, self.values[i])

    def __iter__(self):
        for i in range(len(self)):
            yield self.curve(i)


@dataclass(frozen=True, eq=False)
class Basis(ByValue):
    """d orthonormal functions on a grid, optionally with eigenvalues.

    Orthonormality is with respect to the grid's weighted inner product and
    is validated at construction: the Gram matrix must match the identity
    within ``tol`` (default 1e-8).
    """

    grid: Grid
    functions: np.ndarray  # (d, D), row k is the k-th basis function
    eigenvalues: np.ndarray | None = None
    tol: float = field(default=1e-8, compare=False)

    def __post_init__(self):
        super().__post_init__()
        if self.functions.ndim != 2 or self.functions.shape[1] != self.grid.size:
            raise GridMismatchError("basis functions do not match the grid")
        if self.functions.shape[0] > self.grid.size:
            raise RankDeficiencyError(
                f"{self.functions.shape[0]} basis functions on a grid of size "
                f"{self.grid.size}"
            )
        ev = self.eigenvalues
        if ev is not None:
            if ev.shape != (self.functions.shape[0],):
                raise ValueError("one eigenvalue per basis function expected")
            if ev.size and ev[-1] < 0:
                raise ValueError("basis eigenvalues must be nonnegative")
            if np.any(np.diff(ev) > 1e-12 * max(1.0, float(ev[0]))):
                raise ValueError("basis eigenvalues must be nonincreasing")
        gram = (self.functions * self.grid.weights) @ self.functions.T
        err = np.max(np.abs(gram - np.eye(self.functions.shape[0])))
        if err > self.tol:
            raise ValueError(
                f"basis is not orthonormal under the grid inner product "
                f"(max Gram deviation {err:.3e} > tol {self.tol:.1e})"
            )

    @property
    def dimension(self) -> int:
        return self.functions.shape[0]

    def truncated(self, d: int) -> "Basis":
        """First d functions as a new Basis."""
        if d < 1 or d > self.dimension:
            raise RankDeficiencyError(f"cannot truncate basis of dimension {self.dimension} to {d}")
        ev = None if self.eigenvalues is None else self.eigenvalues[:d]
        return Basis(self.grid, self.functions[:d], ev, self.tol)


@dataclass(frozen=True, eq=False)
class Coefficients(ByValue):
    """Coordinates of a curve in a Basis."""

    values: np.ndarray  # (d,)
    basis: Basis

    def __post_init__(self):
        super().__post_init__()
        if self.values.shape != (self.basis.dimension,):
            raise ValueError("coefficient length must equal the basis dimension")

    def norm(self) -> float:
        """Euclidean norm; equals the function-space norm of the reconstruction."""
        return float(np.linalg.norm(self.values))


def inner_product(a: Curve, b: Curve) -> float:
    """Weighted inner product <a, b> = sum_i w_i a_i b_i."""
    check_same_grid(a.grid, b.grid)
    return float(np.sum(a.grid.weights * a.values * b.values))


def norm(a: Curve) -> float:
    """Weighted L2 norm sqrt(<a, a>)."""
    return float(np.sqrt(np.sum(a.grid.weights * a.values * a.values)))


def mean_curve(sample: FunctionalSample) -> Curve:
    """Pointwise sample mean."""
    return Curve(sample.grid, sample.values.mean(axis=0))


def total_variance(sample: FunctionalSample) -> float:
    """Mean squared norm of the centered curves, (1/n) sum ||X_i - Xbar||^2.

    Equals the trace of the sample covariance operator; dividing PCA
    eigenvalues by this gives explained-variance fractions.
    """
    centered = sample.values - sample.values.mean(axis=0)
    return float(np.mean(np.sum(centered * centered * sample.grid.weights, axis=1)))


def project(x: Curve, basis: Basis) -> Coefficients:
    """Coordinates of x in the basis functions.

    The projection is a contraction: the Euclidean norm of the returned
    coefficients never exceeds ||x|| (Parseval inequality), with equality
    when x lies in the span.
    """
    check_same_grid(x.grid, basis.grid)
    c = (basis.functions * basis.grid.weights) @ x.values
    return Coefficients(c, basis)


def project_sample(sample: FunctionalSample, basis: Basis) -> np.ndarray:
    """Coefficient matrix (n, d) of a whole sample. Plumbing for the solvers."""
    check_same_grid(sample.grid, basis.grid)
    return sample.values @ (basis.functions * basis.grid.weights).T


def reconstruct(c: Coefficients) -> Curve:
    """Curve sum_k c_k phi_k."""
    return Curve(c.basis.grid, c.values @ c.basis.functions)


def pca(sample: FunctionalSample, d: int, cap_at_rank: bool = False) -> Basis:
    """Principal components of a sample under the grid inner product.

    Centers the sample, then eigendecomposes the weighted Gram matrix of the
    centered curves (n x n) when n < D, or the weighted covariance (D x D)
    otherwise. Returns a Basis whose rows are the top d eigenfunctions and
    whose ``eigenvalues`` are the corresponding variances (divisor n).
    Each eigenfunction is oriented so that <phi_k, rho>_w >= 0 for the ramp
    rho(t) = 1 + (t - t_1) / (t_D - t_1), in either branch, so the signs,
    and the quantile a direction along phi_k names, do not depend on the
    order of the curves. Negation is exact, so a flipped phi_k is the
    unoriented one times -1 bit for bit.

    The centered sample's numerical rank is the number of eigenvalues above
    max(n, D) * eps times the largest (and above 0), and at most
    min(n - 1, D). With cap_at_rank, a d above that rank is lowered to it
    (but not below 1) instead of raising.

    Raises
    ------
    RankDeficiencyError
        If the centered sample has numerical rank below d (for example all
        curves identical).
    """
    n, D = sample.values.shape
    if d < 1:
        raise ValueError("d must be >= 1")
    if cap_at_rank:
        d = max(1, min(d, n - 1, D))
    if d > min(n - 1, D):
        raise RankDeficiencyError(
            f"requested {d} components from an {n} x {D} sample "
            f"(centered rank is at most min(n - 1, D))"
        )
    sw = np.sqrt(sample.grid.weights)
    A = (sample.values - sample.values.mean(axis=0)) * sw  # whitened, centered
    if n < D:
        evals, evecs = np.linalg.eigh(A @ A.T)  # ascending
    else:
        evals, evecs = np.linalg.eigh((A.T @ A) / n)
    evals, evecs = evals[::-1], evecs[:, ::-1]
    rank_tol = max(n, D) * np.finfo(float).eps * max(evals[0], 0.0)
    if cap_at_rank:
        d = max(1, min(d, int(np.count_nonzero(evals > rank_tol))))  # rank_tol >= 0
    evals, evecs = evals[:d], evecs[:, :d]
    if evals[d - 1] <= rank_tol or evals[d - 1] <= 0.0:
        raise RankDeficiencyError(f"sample has numerical rank below {d} (degenerate directions)")
    if n < D:
        vt = (A.T @ evecs) / np.sqrt(evals)  # (D, d), orthonormal columns in Euclidean
        variances = evals / n
    else:
        vt, variances = evecs, evals
    functions = (vt / sw[:, None]).T  # un-whiten, rows are eigenfunctions
    functions *= ramp_signs(functions, sample.grid)[:, None]
    return Basis(sample.grid, functions, variances)


def ramp_signs(functions: np.ndarray, grid: Grid) -> np.ndarray:
    """-1.0 for each row phi_k of functions (d, D) with <phi_k, rho>_w < 0, else 1.0.

    pca and kernel_eigen multiply each eigenfunction by its sign, so that
    <phi_k, rho>_w >= 0 for the ramp rho(t) = 1 + (t - t_1) / (t_D - t_1).
    """
    t = grid.points
    ramp = grid.weights * (1.0 + (t - t[0]) / (t[-1] - t[0]))
    return np.where(functions @ ramp < 0.0, -1.0, 1.0)


def orthonormalize(functions: np.ndarray, grid: Grid, eigenvalues=None) -> Basis:
    """Build a Basis from nearly-orthonormal rows by QR under the grid metric.

    Useful for closed-form eigenfunctions whose grid quadrature is only
    O(1/D) accurate: the analytic values stay close, but the Gram matrix is
    corrected to the identity so the Basis invariant holds exactly.

    Raises RankDeficiencyError, by pca's rank rule, for more rows than grid
    points or a QR pivot at most max(d, D) * eps times the largest.
    """
    d, D = np.shape(functions)
    sw = np.sqrt(grid.weights)
    q, r = np.linalg.qr((functions * sw).T)  # columns span the same space
    pivots = np.diag(r)
    mags = np.abs(pivots)
    if d > D or mags.min() <= max(d, D) * np.finfo(float).eps * mags.max():
        raise RankDeficiencyError(f"{d} functions have rank below {d} on {D} grid points")
    # Fix signs so each output row correlates positively with its input row.
    q = q * np.sign(pivots)
    return Basis(grid, (q / sw[:, None]).T, eigenvalues)
