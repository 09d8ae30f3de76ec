"""Gaussian and elliptical t process simulation via Karhunen-Loeve expansions.

A process is described by a covariance kernel plus a coefficient law. Paths
are built as

    X(t) = m(t) + sum_k lambda_k Y_k phi_k(t)

where (lambda_k^2, phi_k) are eigenpairs of the covariance operator. For the
Brownian kernel on [0, 1] the eigenpairs are closed form; for every other
kernel they come from the weighted kernel matrix on the grid. Gaussian
coefficients are iid N(0, 1); the student-t law divides all coefficients of
a path by one shared sqrt(W/r) with W ~ chi-square(r), which keeps the
process elliptical rather than making coordinates independently heavy-tailed.
_kl_system alone builds the KL system, whitened singular values included,
and its memo holds one (spec, grid), sized by the traffic: a rate study
draws from one key about 150 times, and each efficiency cell from its own.

Randomness uses the counter-based Philox generator with SeedSequence-spawned
substreams, one per fixed-size chunk of paths, so results are reproducible
bit for bit for a given seed, and the first paths do not change when more
are requested.

Memory. Each Monte Carlo stream allocates one (min(CHUNK, n), k) normals
buffer and draws every chunk into it in place, so a stream's working set
is one chunk however many paths it draws, and the heap is not shrunk and
regrown from chunk to chunk. sample_process writes the paths straight into
the (n, D) array that its FunctionalSample adopts, so every path is held
once; sample_blocks yields CHUNK-row blocks for callers that never hold
all n paths.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NotPSDError
from .funcspace import Basis, ByValue, Curve, FunctionalSample, Grid

GENERATOR_NAME = "numpy.random.Philox"

# Fixed chunk of paths per RNG substream. Changing this changes the stream
# layout, so it is a module constant rather than a call argument.
CHUNK = 4096

BROWNIAN = "brownian"
FRACTIONAL_BROWNIAN = "fractional-brownian"
MIN_KERNEL = "min"
GAUSSIAN_KERNEL = "gaussian"
CUSTOM_KERNEL = "custom"

GAUSSIAN_LAW = "gaussian"
STUDENT_T_LAW = "student-t"


@dataclass(frozen=True, eq=False)
class KernelSpec(ByValue):
    """Covariance kernel description.

    kind is one of "brownian", "fractional-brownian", "min", "gaussian",
    "custom". "brownian" and "min" share the kernel min(t, s); the former
    additionally promises the closed-form eigenpairs on [0, 1], which
    sample_process exploits. hurst is only meaningful for
    "fractional-brownian"; matrix only for "custom".
    """

    kind: str
    hurst: float | None = None
    matrix: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in (
            BROWNIAN,
            FRACTIONAL_BROWNIAN,
            MIN_KERNEL,
            GAUSSIAN_KERNEL,
            CUSTOM_KERNEL,
        ):
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.kind == FRACTIONAL_BROWNIAN:
            if self.hurst is None or not (0.0 < self.hurst < 1.0):
                raise ValueError("fractional-brownian needs hurst in (0, 1)")
        if self.kind == CUSTOM_KERNEL:
            if self.matrix is None:
                raise ValueError("custom kernel needs a matrix")
            m = np.array(self.matrix, dtype=float, copy=True)
            if m.ndim != 2 or m.shape[0] != m.shape[1] or not np.isfinite(m).all():
                raise ValueError("custom kernel matrix must be square and finite")
            scale = max(1.0, float(np.max(np.abs(m))))
            if np.max(np.abs(m - m.T)) > 1e-8 * scale:
                raise NotPSDError("custom kernel matrix is not symmetric")
            m = 0.5 * (m + m.T)
            if np.min(np.linalg.eigvalsh(m)) < -1e-8 * scale:
                raise NotPSDError("custom kernel matrix is not positive semidefinite")
            m.flags.writeable = False
            object.__setattr__(self, "matrix", m)

    @staticmethod
    def brownian() -> "KernelSpec":
        return KernelSpec(BROWNIAN)

    @staticmethod
    def fractional_brownian(hurst: float) -> "KernelSpec":
        return KernelSpec(FRACTIONAL_BROWNIAN, hurst=hurst)

    @staticmethod
    def min_kernel() -> "KernelSpec":
        return KernelSpec(MIN_KERNEL)

    @staticmethod
    def gaussian_kernel() -> "KernelSpec":
        return KernelSpec(GAUSSIAN_KERNEL)

    @staticmethod
    def custom(matrix) -> "KernelSpec":
        return KernelSpec(CUSTOM_KERNEL, matrix=np.asarray(matrix, dtype=float))

    def _formula(self, s: np.ndarray, t: np.ndarray) -> np.ndarray:
        """k(s, t) of a shipped kind, elementwise over broadcast arrays."""
        if self.kind in (BROWNIAN, MIN_KERNEL):
            return np.minimum(s, t)
        if self.kind == FRACTIONAL_BROWNIAN:
            h2 = 2.0 * self.hurst
            return 0.5 * (np.abs(s) ** h2 + np.abs(t) ** h2 - np.abs(s - t) ** h2)
        return np.exp(-((s - t) ** 2))

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Kernel matrix K(t_i, t_j): _formula at (t[:, None], t[None, :]), or the custom one."""
        t = np.asarray(points, dtype=float)
        if self.kind != CUSTOM_KERNEL:
            return self._formula(t[:, None], t[None, :])
        if self.matrix.shape[0] != t.size:
            raise ValueError(
                f"custom kernel matrix is {self.matrix.shape[0]} x "
                f"{self.matrix.shape[0]} but the grid has {t.size} points"
            )
        return np.array(self.matrix)

    def diagonal(self, points: np.ndarray) -> np.ndarray:
        """K(t, t) in O(D): _formula at (t, t), so np.diag(evaluate(t)) bit for bit."""
        t = np.asarray(points, dtype=float)
        if self.kind != CUSTOM_KERNEL:
            return self._formula(t, t)
        return np.diag(self.evaluate(t)).copy()


@dataclass(frozen=True, eq=False)
class ProcessSpec(ByValue):
    """Kernel plus coefficient law plus optional mean and truncation.

    truncation=None means: 100 terms for the closed-form Brownian expansion,
    otherwise all grid eigenpairs. df is required (and must be >= 3) for the
    student-t law so that second moments exist.
    """

    kernel: KernelSpec
    coefficient_law: str = GAUSSIAN_LAW
    df: int | None = None
    mean: Curve | None = None
    truncation: int | None = None

    def __post_init__(self):
        if self.coefficient_law not in (GAUSSIAN_LAW, STUDENT_T_LAW):
            raise ValueError(f"unknown coefficient law {self.coefficient_law!r}")
        if self.coefficient_law == STUDENT_T_LAW:
            if self.df is None or self.df < 3:
                raise ValueError("student-t law needs df >= 3")
        if self.truncation is not None and self.truncation < 1:
            raise ValueError("truncation must be >= 1")

    def coefficient_variance(self) -> float:
        """Var(Y_k): 1 for gaussian, r / (r - 2) for student-t(r)."""
        if self.coefficient_law == GAUSSIAN_LAW:
            return 1.0
        return self.df / (self.df - 2.0)


def _bm_system(ks: np.ndarray, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Brownian scales 1 / ((k - 1/2) pi) (m,) and functions sqrt(2) sin((k - 1/2) pi t) (m, D)."""
    freqs = (ks - 0.5) * math.pi
    return 1.0 / freqs, math.sqrt(2.0) * np.sin(freqs[:, None] * points[None, :])


def bm_eigenpair(k: int, grid: Grid) -> tuple[float, Curve]:
    """Closed-form Brownian eigenpair number k on [0, 1].

    Returns (lambda_k, phi_k) with lambda_k = 1 / ((k - 1/2) pi) and
    phi_k(t) = sqrt(2) sin((k - 1/2) pi t); the covariance operator
    eigenvalue is lambda_k squared. The grid must lie inside [0, 1]. The
    pair is row k of sample_process's Brownian KL system, bit for bit.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    pts = grid.points
    if pts[0] < -1e-12 or pts[-1] > 1.0 + 1e-12:
        raise ValueError("Brownian eigenpairs need a grid inside [0, 1]")
    scales, functions = _bm_system(np.array([k]), pts)
    return float(scales[0]), Curve(grid, functions[0])


def kernel_eigen(kernel: KernelSpec, grid: Grid, d: int) -> Basis:
    """Top d eigenpairs of the covariance operator discretized on the grid.

    Eigendecomposes B = W^{1/2} K W^{1/2} (symmetric), maps eigenvectors v
    back to functions W^{-1/2} v, and stores the eigenvalues of B, which
    approximate the operator eigenvalues lambda_k^2. Tiny negative
    eigenvalues in [-1e-10, 0) are clipped to zero; anything below that
    raises NotPSDError.
    """
    if d < 1 or d > grid.size:
        raise ValueError(f"d must be in [1, {grid.size}]")
    K = kernel.evaluate(grid.points)
    sw = np.sqrt(grid.weights)
    B = sw[:, None] * K * sw[None, :]
    B = 0.5 * (B + B.T)
    evals, evecs = np.linalg.eigh(B)
    if evals[0] < -1e-10:
        raise NotPSDError(
            f"discretized kernel has eigenvalue {evals[0]:.3e} below -1e-10"
        )
    evals = np.where((evals < 0.0) & (evals >= -1e-10), 0.0, evals)
    order = np.argsort(evals)[::-1][:d]
    functions = (evecs[:, order] / sw[:, None]).T
    return Basis(grid, functions, evals[order])


@dataclass(frozen=True, eq=False)
class _KLSystem:
    """Read-only KL scales (k,), functions and loading (k, D), whitened singular values sigma."""

    scales: np.ndarray
    functions: np.ndarray
    loadings: np.ndarray
    sigma: np.ndarray


@functools.lru_cache(maxsize=1)
def _kl_system(spec: ProcessSpec, grid: Grid) -> _KLSystem:
    k = spec.truncation or (100 if spec.kernel.kind == BROWNIAN else grid.size)
    if spec.kernel.kind == BROWNIAN:
        scales, functions = _bm_system(np.arange(1, k + 1), grid.points)
    elif k > grid.size:
        raise ValueError(f"truncation {k} exceeds the {grid.size} eigenpairs on this grid")
    else:
        basis = kernel_eigen(spec.kernel, grid, k)
        scales, functions = np.sqrt(basis.eigenvalues), basis.functions
    loadings = scales[:, None] * functions
    # not the scales: the whitened functions need not be orthonormal (k > D, a grid inside [0, 1])
    sigma = np.linalg.svd(loadings * np.sqrt(grid.weights)[None, :], compute_uv=False)
    for a in (scales, functions, loadings, sigma):
        a.flags.writeable = False
    return _KLSystem(scales, functions, loadings, sigma)


def stream_seed(seed: int, *tags: int) -> int:
    """Integer seed of a named substream of a study seed.

    Entropy is [seed, *tags]; fixed integer tags keep each substream stable
    when unrelated parts of a study add or reorder their own draws.
    """
    entropy = [int(seed), *(int(t) for t in tags)]
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


def coefficient_chunks(spec: ProcessSpec, n: int, k: int, seed: int):
    """Yield (m, k) coefficient blocks Y, m <= CHUNK, totalling n rows.

    Each chunk gets its own Philox substream spawned from the seed; it fills
    the normal block in row order, and a student-t law draws the chi-square
    variate of each path from a child of the chunk's seed, so a chunk's
    first rows do not depend on its length. Every block is a view of one
    (min(CHUNK, n), k) buffer and is overwritten by the next block: a caller
    that keeps a block copies it, and may use it as scratch space.
    """
    n_chunks = max(1, math.ceil(n / CHUNK))
    children = np.random.SeedSequence(seed).spawn(n_chunks)
    buf = np.empty((min(CHUNK, n), k))
    done = 0
    for child in children:
        m = min(CHUNK, n - done)
        y = np.random.Generator(np.random.Philox(child)).standard_normal(out=buf[:m])
        if spec.coefficient_law == STUDENT_T_LAW:
            scales = np.random.Generator(np.random.Philox(child.spawn(1)[0]))
            w = scales.chisquare(spec.df, size=m)
            y /= np.sqrt(w / spec.df)[:, None]
        done += m
        yield y


def _loadings(spec: ProcessSpec, grid: Grid, n: int) -> np.ndarray:
    """Check the sampling arguments; the (k, D) KL loading lambda_k phi_k of the paths."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if spec.mean is not None and not spec.mean.grid.matches(grid):
        raise ValueError("mean curve lives on a different grid")
    return _kl_system(spec, grid).loadings


def _paths(spec: ProcessSpec, loadings: np.ndarray, n: int, seed: int, out=None):
    """The sampling kernel: one (m, D) block of paths per RNG chunk, m <= CHUNK.

    Block b is Y_b @ loadings plus the mean. With out, an (n, D) array, the
    blocks are written into its consecutive rows and yielded as views of
    them; without, each block is a new array.
    """
    row = 0
    for y in coefficient_chunks(spec, n, loadings.shape[0], seed):
        m = y.shape[0]
        block = np.matmul(y, loadings, out=None if out is None else out[row : row + m])
        if spec.mean is not None:
            block += spec.mean.values
        row += m
        yield block


def sample_blocks(spec: ProcessSpec, grid: Grid, n: int, seed: int):
    """The paths of sample_process(spec, grid, n, seed) as (m, D) blocks, m <= CHUNK.

    Checks the arguments and builds the KL system at once, then draws one
    block per RNG chunk on demand, so a caller that consumes the blocks in
    turn holds O(CHUNK * D) floats whatever n is. Each block is a new
    array; concatenated in order, the blocks are sample_process's values
    bit for bit.
    """
    return _paths(spec, _loadings(spec, grid, n), n, seed)


def sample_process(spec: ProcessSpec, grid: Grid, n: int, seed: int) -> FunctionalSample:
    """n independent paths of the process on the grid.

    Deterministic in (spec, grid, n, seed); under every law, the first n
    paths do not change when more are requested. The paths are written
    once, into the array the returned sample holds.
    """
    loadings = _loadings(spec, grid, n)
    values = np.empty((n, grid.size))
    for _ in _paths(spec, loadings, n, seed, out=values):
        pass
    values.flags.writeable = False
    return FunctionalSample(grid, values)
