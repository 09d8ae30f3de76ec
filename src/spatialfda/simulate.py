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

The sampling rule. Let L be the (k, D) loading whose rows are the terms
lambda_k phi_k on the grid, and L diag(sqrt(w)) = U Sigma V' its whitened
SVD, with r = min(k, D) singular values sigma. k iid coefficients y give
the path y L; r iid normals xi give z = xi * sigma and z V' / sqrt(w),
which has the same law, since at most r directions of the k coefficients
reach the grid. Every path of this module is z V' / sqrt(w) plus the mean,
at every (k, D): sample_process draws it as xi times the (r, D) loading
Sigma V' / sqrt(w), and kl_coordinate_runs hands out z itself. Where
K(t, t) = 0, as at t = 0 for the Brownian, fbm and min kernels, the
loading's column is zero, so a path equals its mean there exactly rather
than up to the rounding of V.
SAMPLER_NAME names this rule in every artifact it shapes.

_kl_system alone builds the KL system, and its memo holds one (spec, grid),
sized by the traffic: a bahadur study draws from one key once per sample,
about 150 times, a gc or integrated study a few times (its probes, their
coordinates and its runs), and each efficiency cell its own Gaussian twin's.
sigma and V come from one factorization
per kind. A discretized kernel's whitened KL functions are orthonormal, so
sigma^2 are the top k eigenvalues of B = W^{1/2} K W^{1/2} and V their
eigenvectors, from the solve kernel_eigen shares, oriented by pca's ramp
rule. The Brownian closed form's whitened functions need not be orthonormal
(k > D, or a grid inside [0, 1]), so sigma and V are the SVD of its
whitened loading. A build computes sigma alone, from an eigenvalue-only
solve or a values-only SVD; V follows on first use, so the efficiency
study, which reads sigma alone, solves for no vector.

The whitened KL frame. kl_coordinate_runs draws the z rows themselves, in
blocks, for many (n, seed) runs in turn, and hands each block to a
caller's reduction, such as a sign mean; kl_coordinates maps fixed curves
into the same coordinates, with one extra column for the part of a curve
off the span of V when r < D. Every distance between a curve and a
path is then a Euclidean distance in r or r + 1 coordinates, and no (n, D)
path array is formed; the rate studies run there.

Randomness uses the counter-based Philox generator with SeedSequence-spawned
substreams, one per fixed-size chunk of paths, so results are reproducible
bit for bit for a given seed, and the first paths do not change when more
are requested. Since a chunk's draw depends on nothing but its substream,
any thread may draw it, and every draw of the module takes one route:
coefficient_runs, the draw-and-reduce pipeline, hands each chunk to one of
two worker threads, which draws it and applies the caller's reduction to
it, while the caller takes the reductions in chunk order. sample_process
and sample_blocks reduce a sub-block to its paths, kl_coordinate_runs to
the caller's reduction of its coordinates, the efficiency study to its J,
Lambda and trace sums. Those workers are the package's only threads
besides BLAS's, and no output depends on them; a call that draws a single
chunk draws it on the calling thread.

Memory. coefficient_runs draws a chunk in sub-blocks of about _BLOCK_BYTES
(2048 rows of c = 64 coordinates, 655 rows of 200 normals), each reduced as
soon as it is drawn, into one buffer per worker (plus one normals buffer
when the blocks are wider than the draws, as kl_coordinate_runs' are when
r < D), allocated once per call; so two sub-blocks and their reductions'
workspaces are alive at a time, and what the caller receives is only the
reductions, of at most _AHEAD chunks ahead of it. sample_process's
reduction writes a sub-block's paths straight into its rows of the (n, D)
array that the FunctionalSample adopts, so every path is held once;
sample_blocks' makes each sub-block's paths a new array, for callers that
never hold all n paths.
"""

from __future__ import annotations

import collections
import functools
import math
import queue
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import NotPSDError
from .funcspace import Basis, ByValue, Curve, FunctionalSample, Grid, check_same_grid, ramp_signs

GENERATOR_NAME = "numpy.random.Philox"
# Names the sampling rule of the module notes in CSV metadata and rate reports.
SAMPLER_NAME = "kl-whitened-4"

# Fixed chunk of paths per RNG substream. Changing this changes the stream
# layout, so it is a module constant rather than a call argument.
CHUNK = 4096
# coefficient_runs: bytes per sub-block it draws and reduces, the worker
# threads it runs on, and the chunks submitted ahead of the caller.
_BLOCK_BYTES = 1 << 20
_WORKERS = 2
_AHEAD = 4

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
        super().__post_init__()
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
            m = self.matrix
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise ValueError("custom kernel matrix must be square")
            scale = max(1.0, float(np.max(np.abs(m))))
            if np.max(np.abs(m - m.T)) > 1e-8 * scale:
                raise NotPSDError("custom kernel matrix is not symmetric")
            if np.min(np.linalg.eigvalsh(0.5 * (m + m.T))) < -1e-8 * scale:
                raise NotPSDError("custom kernel matrix is not positive semidefinite")

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
        return KernelSpec(CUSTOM_KERNEL, matrix=matrix)

    def _formula(self, s: np.ndarray, t: np.ndarray) -> np.ndarray:
        """k(s, t) of a shipped kind, elementwise over broadcast arrays."""
        if self.kind in (BROWNIAN, MIN_KERNEL):
            return np.minimum(s, t)
        if self.kind == FRACTIONAL_BROWNIAN:
            h2 = 2.0 * self.hurst
            return 0.5 * (np.abs(s) ** h2 + np.abs(t) ** h2 - np.abs(s - t) ** h2)
        return np.exp(-((s - t) ** 2))

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """K(t_i, t_j): _formula at (t[:, None], t[None, :]), or the custom (m + m.T) / 2."""
        t = np.asarray(points, dtype=float)
        if self.kind != CUSTOM_KERNEL:
            return self._formula(t[:, None], t[None, :])
        if self.matrix.shape[0] != t.size:
            raise ValueError(
                f"custom kernel matrix is {self.matrix.shape[0]} x "
                f"{self.matrix.shape[0]} but the grid has {t.size} points"
            )
        return 0.5 * (self.matrix + self.matrix.T)

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
        super().__post_init__()
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
    pair is row k of the loading whose whitened SVD is sample_process's
    Brownian KL system, bit for bit.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    pts = grid.points
    if pts[0] < -1e-12 or pts[-1] > 1.0 + 1e-12:
        raise ValueError("Brownian eigenpairs need a grid inside [0, 1]")
    scales, functions = _bm_system(np.array([k]), pts)
    return float(scales[0]), Curve(grid, functions[0])


def _bm_whitened(k: int, grid: Grid, root_w: np.ndarray) -> np.ndarray:
    """The whitened (k, D) loading L diag(sqrt(w)) of the first k Brownian terms."""
    scales, functions = _bm_system(np.arange(1, k + 1), grid.points)
    return (scales[:, None] * functions) * root_w[None, :]


def _whitened_kernel(kernel: KernelSpec, grid: Grid, root_w: np.ndarray) -> np.ndarray:
    """B = W^{1/2} K W^{1/2} on the grid, symmetrized; root_w is sqrt(w)."""
    B = root_w[:, None] * kernel.evaluate(grid.points) * root_w[None, :]
    return 0.5 * (B + B.T)


def _clipped(evals: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of B with [-1e-10, 0) clipped to zero; NotPSDError below -1e-10."""
    if evals[0] < -1e-10:
        raise NotPSDError(f"discretized kernel has eigenvalue {evals[0]:.3e} below -1e-10")
    return np.where((evals < 0.0) & (evals >= -1e-10), 0.0, evals)


def _top_eigh(kernel: KernelSpec, grid: Grid, root_w: np.ndarray, d: int):
    """The top d clipped eigenvalues of B and their eigenvectors (D, d), oriented by ramp_signs."""
    evals, evecs = np.linalg.eigh(_whitened_kernel(kernel, grid, root_w))
    evals = _clipped(evals)
    order = np.argsort(evals)[::-1][:d]
    v = evecs[:, order]
    v *= ramp_signs((v / root_w[:, None]).T, grid)
    return evals[order], v


def kernel_eigen(kernel: KernelSpec, grid: Grid, d: int) -> Basis:
    """Top d eigenpairs of the covariance operator discretized on the grid.

    Eigendecomposes B = W^{1/2} K W^{1/2} (symmetric), maps eigenvectors v
    back to functions W^{-1/2} v, and stores the eigenvalues of B, which
    approximate the operator eigenvalues lambda_k^2. Each function is
    oriented by pca's ramp rule (funcspace.ramp_signs); the eigenvectors
    are the frame V of the kernel's KL system. Tiny negative eigenvalues
    in [-1e-10, 0) are clipped to zero; anything below that raises
    NotPSDError.
    """
    if d < 1 or d > grid.size:
        raise ValueError(f"d must be in [1, {grid.size}]")
    sw = np.sqrt(grid.weights)
    evals, v = _top_eigh(kernel, grid, sw, d)
    return Basis(grid, (v / sw[:, None]).T, evals)


def _read_only(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.flags.writeable = False


class _KLSystem:
    """The KL system of k terms of a kernel on a grid (module notes); every array read-only.

    sigma (r,), r = min(k, D), and root_w, sqrt(w) of the grid, are built at
    once, so a build that cannot succeed fails at once; v (D, r), V of the
    whitened SVD, and sampling_loadings, the (r, D) Sigma V' / sqrt(w) with
    its columns zeroed where K(t, t) = 0, on first use.
    """

    def __init__(self, kernel: KernelSpec, grid: Grid, k: int):
        root_w = np.sqrt(grid.weights)
        if kernel.kind == BROWNIAN:
            sigma = np.linalg.svd(_bm_whitened(k, grid, root_w), compute_uv=False)
        elif k > grid.size:
            raise ValueError(f"truncation {k} exceeds the {grid.size} eigenpairs on this grid")
        else:
            evals = _clipped(np.linalg.eigvalsh(_whitened_kernel(kernel, grid, root_w)))
            sigma = np.sqrt(evals[::-1][:k])
        _read_only(sigma, root_w)
        self.sigma, self.root_w = sigma, root_w
        self._kernel, self._grid, self._k = kernel, grid, k

    @functools.cached_property
    def v(self) -> np.ndarray:
        if self._kernel.kind == BROWNIAN:
            whitened = _bm_whitened(self._k, self._grid, self.root_w)
            out = np.linalg.svd(whitened, full_matrices=False)[2].T
        else:
            out = _top_eigh(self._kernel, self._grid, self.root_w, self._k)[1]
        _read_only(out)
        return out

    @functools.cached_property
    def sampling_loadings(self) -> np.ndarray:
        out = self.sigma[:, None] * self.v.T / self.root_w
        # X(t) is its mean where K(t, t) = 0; V keeps its rounding there, so that
        # kl_coordinates of a curve with x(t) != 0 stays exact
        out[:, self._kernel.diagonal(self._grid.points) == 0.0] = 0.0
        _read_only(out)
        return out


@functools.lru_cache(maxsize=1)
def _kl_system(spec: ProcessSpec, grid: Grid) -> _KLSystem:
    k = spec.truncation or (100 if spec.kernel.kind == BROWNIAN else grid.size)
    return _KLSystem(spec.kernel, grid, k)


def stream_seed(seed: int, *tags: int) -> int:
    """Integer seed of a named substream of a study seed.

    Entropy is [seed, *tags]; fixed integer tags keep each substream stable
    when unrelated parts of a study add or reorder their own draws.
    """
    entropy = [int(seed), *(int(t) for t in tags)]
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


def _chunks(n: int, seed: int) -> list:
    """(first row, substream, rows) of each chunk of an n-path stream: CHUNK rows, the last short."""
    children = np.random.SeedSequence(seed).spawn(max(1, math.ceil(n / CHUNK)))
    return [(j * CHUNK, child, min(CHUNK, n - j * CHUNK)) for j, child in enumerate(children)]


def _fill(spec: ProcessSpec, child: np.random.SeedSequence, m: int, out: np.ndarray):
    """Draw one chunk's (m, k) coefficients into out, len(out) rows at a time, yielding each block.

    The chunk's Philox substream fills the normals in row order, so the
    blocks concatenate to the same draws whatever len(out) is. A student-t
    law then divides each row by sqrt(W / df), W the path's chi-square
    variate from a child of the chunk's seed; the chunk's m variates are
    drawn at once and sliced per block.
    """
    normals = np.random.Generator(np.random.Philox(child))
    scale = None
    if spec.coefficient_law == STUDENT_T_LAW:
        w = np.random.Generator(np.random.Philox(child.spawn(1)[0])).chisquare(spec.df, size=m)
        scale = np.sqrt(w / spec.df)
    for lo in range(0, m, out.shape[0]):
        y = normals.standard_normal(out=out[: min(out.shape[0], m - lo)])
        if scale is not None:
            y /= scale[lo : lo + y.shape[0], None]
        yield y


def _system(spec: ProcessSpec, grid: Grid, n: int) -> _KLSystem:
    """Check the sampling arguments; the KL system of the paths."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if spec.mean is not None:
        check_same_grid(spec.mean.grid, grid, "mean curve lives on a different grid")
    return _kl_system(spec, grid)


def _path_blocks(spec: ProcessSpec, loadings: np.ndarray, n: int, seed: int, out=None):
    """The sampling kernel: the n paths as (m, D) blocks, m <= CHUNK, in order.

    Block y @ loadings plus the mean, y a coefficient_runs sub-block of the
    r normals per path, is made on the worker that drew y. With out, an
    (n, D) array, each block is written into out's rows lo:lo + m and
    yielded as a view of them; without, each block is a new array.
    """

    def paths(_, lo, y):
        block = np.matmul(y, loadings, out=None if out is None else out[lo : lo + y.shape[0]])
        if spec.mean is not None:
            block += spec.mean.values
        return block

    return (block for _, block in coefficient_runs(spec, loadings.shape[0], [(n, seed)], paths))


def sample_blocks(spec: ProcessSpec, grid: Grid, n: int, seed: int):
    """The paths of sample_process(spec, grid, n, seed) as (m, D) blocks, m <= CHUNK.

    Checks the arguments and builds the KL system at once. The blocks are
    the pipeline's sub-blocks (coefficient_runs), each a new array made on
    the worker that drew it; concatenated in order, they are sample_process's
    values bit for bit, drawn from r = min(k, D) normals per path (module
    notes). At most _AHEAD chunks of blocks are made ahead of the caller, so
    a caller that consumes the blocks in turn holds O(_AHEAD * CHUNK * D)
    floats whatever n is. A caller that needs only distances between paths
    and fixed curves can skip the grid altogether: kl_coordinate_runs draws
    the same law as (m, c) coordinate blocks and reduces each one where it
    is drawn, and kl_coordinates maps the curves into them.
    """
    return _path_blocks(spec, _system(spec, grid, n).sampling_loadings, n, seed)


def sample_process(spec: ProcessSpec, grid: Grid, n: int, seed: int) -> FunctionalSample:
    """n independent paths of the process on the grid.

    Deterministic in (spec, grid, n, seed); under every law, the first n
    paths do not change when more are requested. The paths are written
    once, by the workers, into the array the returned sample holds.
    """
    loadings = _system(spec, grid, n).sampling_loadings
    values = np.empty((n, grid.size))
    for _ in _path_blocks(spec, loadings, n, seed, out=values):
        pass
    values.flags.writeable = False
    return FunctionalSample(grid, values)


def coefficient_runs(spec: ProcessSpec, k: int, runs, reduce: Callable, width: int | None = None):
    """The coefficients of each (n, seed) of runs, in turn, drawn and reduced on the workers.

    The package's one draw-and-reduce pipeline: sample_process,
    sample_blocks, kl_coordinate_runs and the efficiency study's J, Lambda
    and trace streams run on it. Yields (i, reduce(i, lo, y)) for every (m,
    width) sub-block y of run i, runs and sub-blocks in order, lo the
    sub-block's first row within its run. The first k columns of run i's
    sub-blocks concatenate to the run's chunks (_chunks), each drawn by
    _fill from its own substream, bit for bit, and the other width - k
    columns (width defaults to k) are zero; a chunk's sub-blocks hold about
    _BLOCK_BYTES of y each.

    Each chunk is one task on one of _WORKERS worker threads: it draws the
    chunk sub-block by sub-block into its worker's buffer and applies reduce
    to each sub-block there, so reduce must be safe to call from two threads
    at once. It may use y as scratch space, and must copy what it keeps of
    y, which the next sub-block overwrites. At most _AHEAD tasks are
    submitted ahead of the caller, so the caller holds the reductions of at
    most _AHEAD chunks, and each worker O(_BLOCK_BYTES) bytes of blocks,
    whatever n is. Every chunk has its own substream, and the caller takes
    the reductions in order, so no output depends on the thread. The
    workers are joined when the generator is exhausted or closed, and tasks
    not yet started are cancelled; a single chunk is reduced on the calling
    thread. Arguments are checked at once.
    """
    runs = [(int(n), int(seed)) for n, seed in runs]
    if any(n < 1 for n, _ in runs):
        raise ValueError("n must be >= 1")
    return _draw_runs(spec, k, width or k, runs, reduce)


def _draw_runs(spec: ProcessSpec, k: int, width: int, runs: list, reduce: Callable):
    """coefficient_runs after its checks."""
    plan = [(i, *chunk) for i, (n, seed) in enumerate(runs) for chunk in _chunks(n, seed)]
    rows = min(max((m for *_, m in plan), default=1), max(1, _BLOCK_BYTES // (8 * width)))
    free = queue.SimpleQueue()  # (blocks, normals) buffers of finished tasks

    def task(j):
        i, lo, child, m = plan[j]
        try:
            z, normals = free.get_nowait()
        except queue.Empty:  # a worker's first task
            z = np.zeros((rows, width))
            normals = z if width == k else np.empty((rows, k))
        out = []
        for y in _fill(spec, child, m, normals):
            block = z[: y.shape[0]]
            if width > k:  # reduce may have written into the zero columns
                block[:, :k] = y
                block[:, k:] = 0.0
            out.append((i, reduce(i, lo, block)))
            lo += y.shape[0]
        free.put((z, normals))
        return out

    if len(plan) < 2:  # nothing to share out
        for reductions in map(task, range(len(plan))):
            yield from reductions
        return
    with ThreadPoolExecutor(_WORKERS) as pool:
        for reductions in _in_order(pool, task, len(plan)):
            yield from reductions


def kl_coordinate_runs(spec: ProcessSpec, grid: Grid, runs, reduce: Callable):
    """The paths of each (n, seed) of runs, in turn, as whitened KL coordinates, reduced.

    Yields (i, reduce(z)) for every (m, c) block z of run i, runs and blocks
    in order: coefficient_runs(spec, r, runs, ..., c) with its blocks scaled
    in place, so the blocks of a chunk are its sub-blocks of about
    _BLOCK_BYTES of coordinates, each drawn and reduced on a worker thread,
    and reduce has coefficient_runs' duties. A path's coordinates are z =
    y * sigma, y its r = min(k, D) coefficients, the ones sample_process
    draws for it: the same substreams, rows and chi-square children, bit
    for bit. Its values z V' / sqrt(w) plus the mean are sample_process's
    paths up to rounding. c is r, or r + 1 when r < D: the last column is
    then the frame's off-span column (kl_coordinates), zero for every path.
    Arguments are checked at once.
    """
    sigma = _system(spec, grid, 1).sigma
    r = sigma.size

    def scaled(_, _lo, z):
        np.multiply(z[:, :r], sigma, out=z[:, :r])
        return reduce(z)

    return coefficient_runs(spec, r, runs, scaled, r + (r < grid.size))


def _in_order(pool: ThreadPoolExecutor, fn: Callable, count: int):
    """fn(0), ..., fn(count - 1) run on the pool and yielded in order.

    At most _AHEAD calls are submitted at a time; closing the generator
    cancels those not yet started.
    """
    ahead = collections.deque(pool.submit(fn, j) for j in range(min(_AHEAD, count)))
    try:
        for j in range(_AHEAD, count + _AHEAD):
            result = ahead.popleft().result()
            if j < count:
                ahead.append(pool.submit(fn, j))
            yield result
    finally:
        for future in ahead:
            future.cancel()


def _frame_split(spec: ProcessSpec, grid: Grid, values) -> tuple[_KLSystem, np.ndarray, np.ndarray]:
    """The KL system, and the whitened (x - mean) sqrt(w) of curve rows split as pi V' + perp."""
    system = _system(spec, grid, 1)
    x = np.asarray(values, dtype=float)
    if spec.mean is not None:
        x = x - spec.mean.values
    x = x * system.root_w
    pi = x @ system.v
    return system, pi, x - pi @ system.v.T


def kl_coordinates(spec: ProcessSpec, grid: Grid, values) -> np.ndarray:
    """Curve rows (P, D) in the whitened KL frame of kl_coordinate_runs: (P, c).

    Row i starts with pi_i = (x_i - mean) sqrt(w) V. When r < D, a last
    column holds ||perp_i||, the norm of the part of (x_i - mean) sqrt(w)
    off the span of V. The Euclidean distance from row i to a path's
    coordinates is then the weighted grid distance from x_i to the path,
    for any x_i. Signs and sign means taken in the frame with unit weights
    are the grid's, read in row i's orthonormal frame (V, perp_i /
    ||perp_i||); kl_curves maps them back.
    """
    _, pi, perp = _frame_split(spec, grid, values)
    if pi.shape[1] == grid.size:
        return pi
    return np.column_stack([pi, np.sqrt(np.einsum("pd,pd->p", perp, perp))])


def kl_curves(spec: ProcessSpec, grid: Grid, coords: np.ndarray, values) -> np.ndarray:
    """Grid values (P, D) of frame vectors, row i read in the frame of curve row i of values.

    The inverse of kl_coordinates for vectors such as a sign mean at x_i:
    (coords_i[:r] V' + coords_i[r] perp_i / ||perp_i||) / sqrt(w), where the
    off-span term is zero when r = D or perp_i = 0. No mean is added.
    """
    system, pi, perp = _frame_split(spec, grid, values)
    r = pi.shape[1]
    out = coords[:, :r] @ system.v.T
    if r < grid.size:
        c = np.sqrt(np.einsum("pd,pd->p", perp, perp))[:, None]
        out += coords[:, r:] * np.divide(perp, c, out=np.zeros_like(perp), where=c > 0.0)
    return out / system.root_w
