"""Spatial signs and empirical spatial distributions.

The spatial sign of x is the unit vector x / ||x|| (zero at the origin), and
the empirical spatial distribution at a query point x is the average sign of
x - X_i over the sample. In one dimension this reduces to 2 F(x) - 1, so the
object plays the role of a centered CDF; its norm never exceeds 1, and
1 - ||S_x|| is the spatial depth (see the depth module).

All Hilbert-space geometry is the weighted grid inner product from
funcspace. The l_p pair sgn_lp and empirical_spatial_dist_lp, on plain
unweighted coefficient vectors, is deprecated and will be removed in a later
release; sgn_hilbert and empirical_spatial_dist are the sign and the spatial
distribution on a weighted grid.

Whether two points coincide, and so have the zero sign, is decided in one
place for the whole package: coincident(dist, ||a||, ||b||), true when
dist <= ZERO_RTOL * (||a|| + ||b||). The rule is pairwise and relative, with
no absolute floor, so signs, depths and quantiles are scale equivariant at
any magnitude.

Every batch evaluation goes through one kernel, _sign_mean. It never forms
the differences q - X_i for all pairs. With r = ||q - x||, the Gram identity
r^2 = ||q||^2 + ||x||^2 - 2 <q, x> is one matrix product: the data side
a = [x | 1 | ||x||^2] is built once per call, each block of queries fills
b = [-2 w q | ||q||^2 | 1], and a @ b.T is r^2 with no further pass. The
signs sum to q * sum_i 1/r_i - sum_i X_i / r_i, a second product with the
first D + 1 columns of a. Three details keep this as accurate and as
reproducible as the direct sum:

- Centering. Queries and data are shifted by the data mean first. The sign
  mean is translation invariant, and centering keeps ||q||^2 + ||x||^2 near
  the scale of the distances themselves, so the Gram values keep their
  digits and almost every pair stays on the matrix-product path.
- Cancellation. A pair whose Gram value is small against its norms has lost
  digits to cancellation; it is computed directly from q - x instead, and
  the coincidence rule is applied to that exact distance. The per-query
  bound of this near path covers every pair the rule could call coincident.
- Fixed shape. Queries reach BLAS in tiles of a constant count, and each
  product keeps the tile on its last axis. OpenBLAS does not round a
  product identically at every row count (a 1-row product goes to gemv),
  and for some shapes it rounds rows of the other axis differently by
  position. A fixed shape with the tile on the last axis is what makes a
  query's result independent of the batch it arrives in, and hence of any
  split a caller makes. The last tile is padded with zero queries whose
  rows of b are [0 | 1 | 1], not [0 | 0 | 1]: their r^2 = ||x||^2 + 1 is
  positive even where a datum equals the data mean (a padding of 0 would
  divide by zero there), and their near bound of -1 keeps them off the
  near path, so padding needs no pass of its own.

The workspace is allocated once per call: a, of n * (D + 2) floats, and
two (n, tile) buffers for r^2 (then 1/r) and the near mask, which every
tile reuses; plus the centered queries and the result, m * D floats each.
Each tile then costs the two products, the near test, a square root and a
division; the masked assignment and the near path run only in tiles that
hold a near pair.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .funcspace import ByValue, Curve, FunctionalSample, check_same_grid, norm

# Relative tolerance of the one coincidence rule; see coincident.
ZERO_RTOL = 1e-12


def coincident(dist, norm_a, norm_b):
    """Elementwise dist <= ZERO_RTOL * (||a|| + ||b||): a and b coincide (zero sign)."""
    return dist <= ZERO_RTOL * (norm_a + norm_b)


@dataclass(frozen=True, eq=False)
class SpatialDistValue(ByValue):
    """Value of an (empirical) spatial distribution at one query point.

    representation is a Curve in the Hilbert case, or a plain dual
    coefficient vector from the deprecated empirical_spatial_dist_lp; once
    that is removed it is a Curve only. norm is cached because callers
    (depth, rate studies) use it constantly; it is at most 1 up to
    round-off, being an average of unit and zero vectors.
    """

    representation: Curve | np.ndarray
    norm: float

    def __post_init__(self):
        super().__post_init__()
        if not 0.0 <= self.norm <= 1.0 + 1e-10:
            raise ValueError(f"spatial distribution norm {self.norm} outside [0, 1]")


def sgn_hilbert(x: Curve, ref_scale: float = 0.0) -> Curve:
    """Spatial sign x / ||x||, or the zero curve when x coincides with 0.

    x counts as 0 when coincident(||x||, 0, ref_scale), i.e. when
    ||x|| <= ZERO_RTOL * ref_scale: ref_scale is the norm of the points x
    is a difference of. At the default of 0 only the exact zero curve maps
    to zero, at any scale.
    """
    nx = norm(x)
    if coincident(nx, 0.0, ref_scale):
        return Curve(x.grid, np.zeros(x.grid.size))
    return Curve(x.grid, x.values / nx)


def sgn_lp(x: np.ndarray, p: float) -> np.ndarray:
    """Deprecated: use sgn_hilbert, the spatial sign on a weighted grid.

    Dual vector of the norming functional at x in l_p, p in (1, inf).
    Component i is sign(x_i) |x_i|^(p-1) / ||x||_p^(p-1); the result has
    l_q norm exactly 1 (q conjugate to p), and p = 2 recovers x / ||x||.
    Zero input maps to zero. The map is evaluated on x / max|x_i|, which
    leaves it unchanged and keeps the norm and the powers finite.
    """
    warnings.warn(
        "sgn_lp is deprecated and will be removed in a later release; "
        "use sgn_hilbert, the spatial sign on a weighted grid",
        DeprecationWarning,
        stacklevel=2,
    )
    return _sgn_lp(x, p)


def _sgn_lp(x, p):
    """sgn_lp without its warning, for empirical_spatial_dist_lp."""
    if not np.isfinite(p) or p <= 1.0:
        raise ValueError("p must lie in (1, inf)")
    v = np.asarray(x, dtype=float)
    vmax = float(np.max(np.abs(v), initial=0.0))
    if vmax == 0.0:
        return np.zeros_like(v)
    a = v / vmax
    return np.sign(a) * np.abs(a) ** (p - 1.0) / np.linalg.norm(a, ord=p) ** (p - 1.0)


# Queries go to BLAS in tiles of exactly this many; see the module notes.
_TILE = 32
# A pair with Gram value r^2 <= _CANCEL * (||q||^2 + max ||x||^2) is computed
# directly from q - x: the Gram value keeps only ~12 of its digits there.
_CANCEL = 1e-4


def _sign_mean(queries: np.ndarray, data: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Average spatial sign of (query - X_i) for each query row.

    queries (m, D), data (n, D) -> (m, D). Coincident pairs (see coincident,
    on the raw weighted norms of query and datum) contribute zero.

    In centered coordinates each tile of _TILE queries costs two GEMMs. With
    a = [Xc | 1 | ||xc||^2] built once and b = [-2 w q | ||q||^2 | 1] per
    tile, a @ b.T is r^2 by the Gram identity. The sum of signs is
    q * sum_j 1/r_j - sum_j Xc_j / r_j, both sums from a[:, :D+1].T @ (1/r).
    Padded rows of b are [0 | 1 | 1], so their r^2 = ||xc||^2 + 1 > 0, and
    their near bound is -1, so they never take the near path.

    Pairs with r^2 <= max(_CANCEL * (||qc||^2 + max_j ||xc_j||^2),
    (ZERO_RTOL * (||q|| + max_j ||x_j||))^2), a per-query bound that covers
    the pairwise rule r^2 <= _CANCEL * (||qc||^2 + ||xc_j||^2) and every
    coincident pair, leave the GEMMs; their distance and sign are recomputed
    from q - x, and coincident is applied per pair. A tile without such a
    pair skips that path.

    Every query goes through the same operations at the same shapes, and
    every decision depends on that query and the data alone, so the result
    is bitwise independent of m and of how a caller splits the queries.
    Workspace, allocated once per call: a, of n * (D + 2) floats, the tile
    buffers r^2 and the near mask, of n * _TILE entries each, and the
    centered queries and the result, of m * D floats each.
    """
    m, D = queries.shape
    n = data.shape[0]
    q_norm = np.sqrt(np.einsum("md,d,md->m", queries, weights, queries))
    x_norm = np.sqrt(np.einsum("nd,d,nd->n", data, weights, data))
    x_norm_max = float(x_norm.max(initial=0.0))
    mean = data.mean(axis=0)
    a = np.empty((n, D + 2))
    x = a[:, :D]
    np.subtract(data, mean, out=x)
    a[:, D] = 1.0
    xx = a[:, D + 1]
    np.einsum("nd,d,nd->n", x, weights, x, out=xx)
    xx_max = float(xx.max(initial=0.0))
    xc = a[:, : D + 1]  # [Xc | 1]: the second GEMM also returns sum_j 1/r_j
    # centered queries, zero-padded to whole tiles
    qc = np.zeros((-(-m // _TILE) * _TILE, D))
    np.subtract(queries, mean, out=qc[:m])
    tol = ZERO_RTOL * (q_norm + x_norm_max)  # largest coincident distance
    tol2 = tol * tol
    w2 = -2.0 * weights
    b = np.empty((_TILE, D + 2))
    b[:, D + 1] = 1.0
    qq = np.empty(_TILE)
    bound = np.empty(_TILE)
    r2 = np.empty((n, _TILE))
    near = np.empty((n, _TILE), dtype=bool)
    sums = np.empty((D + 1, _TILE))
    out = np.empty((m, D))
    for start in range(0, m, _TILE):
        stop = min(start + _TILE, m)
        k = stop - start
        tile = qc[start : start + _TILE]
        np.einsum("td,d,td->t", tile, weights, tile, out=qq)
        np.multiply(tile, w2, out=b[:, :D])
        b[:, D] = qq
        b[k:, D] = 1.0
        np.add(qq, xx_max, out=bound)
        bound *= _CANCEL
        np.maximum(bound[:k], tol2[start:stop], out=bound[:k])
        bound[k:] = -1.0
        np.matmul(a, b.T, out=r2)  # r^2 by the Gram identity
        np.less_equal(r2, bound, out=near)
        has_near = near.any()
        if has_near:
            r2[near] = np.inf
        np.sqrt(r2, out=r2)
        np.divide(1.0, r2, out=r2)  # 1/r, and 0 on near pairs
        np.matmul(xc.T, r2, out=sums)  # sum_j x_j / r_j, then sum_j 1/r_j
        s = out[start:stop]
        np.multiply(tile[:k], sums[D, :k, None], out=s)
        s -= sums[:D, :k].T
        if has_near:
            _add_near_signs(s, tile[:k], x, weights, near, q_norm[start:stop], x_norm)
        s /= n
    return out


def _add_near_signs(s, tile, x, weights, near, tile_norm, x_norm) -> None:
    """Add sign(q_i - x_j) to s[i] for the near pairs, from q - x itself.

    s, tile and tile_norm hold the k queries of the tile; near is (n, _TILE),
    False past column k. tile_norm and x_norm are the raw norms that
    coincident judges each pair by. np.add.at adds in pair order, so each query
    receives its terms in increasing j however the pairs are chunked; a
    chunk holds about one tile's worth of floats.
    """
    xj, qi = divmod(np.flatnonzero(near), near.shape[1])  # np.nonzero's pairs, in its order
    step = max(1, near.size // tile.shape[1])
    for lo in range(0, qi.size, step):
        rows, cols = qi[lo : lo + step], xj[lo : lo + step]
        diff = tile[rows] - x[cols]
        r = np.sqrt(np.einsum("kd,d,kd->k", diff, weights, diff))
        keep = ~coincident(r, tile_norm[rows], x_norm[cols])
        np.add.at(s, rows[keep], diff[keep] / r[keep, None])


def empirical_spatial_dist(x: Curve, sample: FunctionalSample) -> SpatialDistValue:
    """Mean spatial sign of x - X_i over the sample.

    Coincident data points contribute zero vectors; the returned norm is
    always in [0, 1].
    """
    check_same_grid(x.grid, sample.grid, "query and sample live on different grids")
    s = _sign_mean(x.values[None, :], sample.values, sample.grid.weights)[0]
    curve = Curve(x.grid, s)
    return SpatialDistValue(curve, min(norm(curve), 1.0))


def empirical_spatial_dist_lp(x: np.ndarray, data: np.ndarray, p: float) -> SpatialDistValue:
    """Deprecated: use empirical_spatial_dist, on a weighted grid.

    l_p analogue on plain coefficient vectors: mean of sgn_lp(x - row).
    """
    warnings.warn(
        "empirical_spatial_dist_lp is deprecated and will be removed in a later "
        "release; use empirical_spatial_dist, on a weighted grid",
        DeprecationWarning,
        stacklevel=2,
    )
    v = np.asarray(x, dtype=float)
    rows = np.atleast_2d(np.asarray(data, dtype=float))
    total = np.zeros_like(v)
    for row in rows:
        total += _sgn_lp(v - row, p)
    rep = total / rows.shape[0]
    q = p / (p - 1.0)
    return SpatialDistValue(rep, min(float(np.linalg.norm(rep, ord=q)), 1.0))


@dataclass(frozen=True, eq=False)
class MonotonicityReport(ByValue):
    """Per-pair values of <S_x - S_y, x - y> and the violation count."""

    values: np.ndarray
    degenerate: NDArray[np.bool_]  # True where x and y coincide (value pinned to 0)
    violations: int

    @property
    def n_pairs(self) -> int:
        return self.values.size


def monotonicity_probe(
    sample: FunctionalSample, pairs: list[tuple[Curve, Curve]]
) -> MonotonicityReport:
    """Check the monotonicity of the empirical spatial distribution.

    For each pair (x, y) computes <S_x - S_y, x - y> under the grid inner
    product. For distinct points of a nonatomic law this is positive in
    population; a nonpositive value for a distinct pair counts as a
    violation. Pairs where x and y are coincident are flagged degenerate
    and not counted; the rule is relative, so the flags do not change when
    the sample and the pairs are scaled together. Empty or off-grid pairs raise.
    """
    if not pairs:
        raise ValueError("monotonicity_probe needs at least one pair")
    for c in [c for pair in pairs for c in pair]:
        check_same_grid(c.grid, sample.grid, "a probe curve and the sample live on different grids")
    w = sample.grid.weights
    xs = np.array([p[0].values for p in pairs])
    ys = np.array([p[1].values for p in pairs])
    sx, sy = np.split(_sign_mean(np.vstack([xs, ys]), sample.values, w), 2)
    dxy = xs - ys
    values = np.sum((sx - sy) * dxy * w, axis=1)
    degenerate = coincident(*(np.sqrt(np.sum(v * v * w, axis=1)) for v in (dxy, xs, ys)))
    values = np.where(degenerate, 0.0, values)
    violations = int(np.sum((values <= 0.0) & ~degenerate))
    return MonotonicityReport(values, degenerate, violations)
