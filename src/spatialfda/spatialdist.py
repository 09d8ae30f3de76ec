"""Spatial signs and empirical spatial distributions.

The spatial sign of x is the unit vector x / ||x|| (zero at the origin), and
the empirical spatial distribution at a query point x is the average sign of
x - X_i over the sample. In one dimension this reduces to 2 F(x) - 1, so the
object plays the role of a centered CDF; its norm never exceeds 1, and
1 - ||S_x|| is the spatial depth (see the depth module).

All Hilbert-space geometry is the weighted grid inner product from
funcspace.

Whether two points coincide, and so have the zero sign, is decided in one
place for the whole package: coincident(dist, ||a||, ||b||), true when
dist <= ZERO_RTOL * (||a|| + ||b||). The rule is pairwise and relative, with
no absolute floor, so signs, depths and quantiles are scale equivariant at
any magnitude.

Every batch evaluation goes through one kernel, SignQueries. It never forms
the differences q - X_i for all pairs. With r = ||q - x||, the Gram identity
r^2 = ||q||^2 + ||x||^2 - 2 <q, x> is one matrix product, with each tile
of queries in b = [-2 w q | ||q||^2 | 1]. The query side is prepared once:
SignQueries(queries, weights, centre, tile) holds the queries shifted by
the centre, their ||q||^2 and their raw norms. Its one evaluation routine,
sums(data), takes the sum of signs over a data block: q * sum_i 1/r_i -
sum_i X_i / r_i, a second product of the block with 1/r. The one-shot
entry _sign_mean is SignQueries at the data mean in tiles of _TILE, then
sums / n; the rate studies prepare their probes once per study and
evaluate every block of the pipeline against them. Three details keep this
as accurate and as reproducible as the direct sum:

- Centering. The sign mean is translation invariant, and shifting queries
  and data by a centre near the data keeps ||q||^2 + ||x||^2 near the scale
  of the distances themselves, so the Gram values keep their digits and
  almost every pair stays on the matrix-product path. One-shot calls centre
  at the data mean: the block is copied centred into a = [x | 1 | ||x||^2],
  and a @ b.T is r^2 with no further pass. The rate studies centre at the
  law's mean, which is the origin of the KL frame: there the block is
  evaluated in place, r^2 = x @ (-2 w q)' plus ||x||^2 and ||q||^2 as two
  broadcasts, with no mean, no copy and no second norm pass, since the raw
  and the centred norms are then the same.
- Cancellation. A pair whose Gram value is small against its norms has lost
  digits to cancellation; it is computed directly from q - x instead, and
  the coincidence rule is applied to that exact distance. The per-query
  bound of this near path covers every pair the rule could call coincident.
- Fixed shape. Queries reach BLAS in tiles of a constant count. OpenBLAS
  does not round a product identically at every row count (a 1-row
  product goes to gemv), and for some shapes it rounds rows of the other
  axis differently by position. One-shot calls use the fixed _TILE, with
  the tile on the last axis of each product, so a query's result is
  independent of the batch it arrives in, and hence of any split a caller
  makes. A probe set that is prepared once and never split takes tiles of
  min(P, _TILE) instead, so 20 probes are one tile with no padding. The
  last tile is padded with zero queries whose rows of b are [0 | 1 | 1],
  not [0 | 0 | 1]: their r^2 = ||x||^2 + 1 is positive even where a datum
  equals the centre (a padding of 0 would divide by zero there), and their
  near bound of -1 keeps them off the near path, so padding needs no pass
  of its own.

Memory. The prepared side holds the centred queries, padded to whole
tiles, and two m-vectors. Each sums call allocates its own workspace, so
threads can share one prepared side: two (n, tile) buffers for r^2 (then
1/r) and the near mask, which every tile reuses, the tile's b and sums of
(D + 2) * tile floats each, and the m * D result, plus, with a centre,
the centred copy a of n * (D + 2) floats. Each tile then costs the two
products, the near test, a square root and a division; the masked
assignment and the near path run only in tiles that hold a near pair.
"""

from __future__ import annotations

import math
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

    representation is the mean sign as a Curve on the sample's grid. norm
    is cached because callers (depth, rate studies) use it constantly; it
    is at most 1 up to round-off, being an average of unit and zero vectors.
    """

    representation: Curve
    norm: float

    def __post_init__(self):
        super().__post_init__()
        if not isinstance(self.representation, Curve):
            raise ValueError("spatial distribution representation must be a Curve")
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


# One-shot queries go to BLAS in tiles of exactly this many; see the module notes.
_TILE = 32
# A pair with Gram value r^2 <= _CANCEL * (||q||^2 + max ||x||^2) is computed
# directly from q - x: the Gram value keeps only ~12 of its digits there.
_CANCEL = 1e-4


class SignQueries:
    """Query rows prepared once for the sign sums of any number of data blocks.

    queries (m, D) and weights (D,); centre (D,) is the point queries and
    data are shifted by, or None for the origin; tile is the number of
    queries per product, or 0 for min(m, _TILE). Holds the centred queries,
    zero-padded to whole tiles, their ||q||^2 (1 on padded rows, see the
    module notes) and the raw query norms that coincident judges by.
    Read-only once built, so two threads may evaluate blocks against it at
    once.
    """

    def __init__(self, queries: np.ndarray, weights: np.ndarray, centre=None, tile: int = 0):
        m, D = queries.shape
        self.tile = tile = tile or max(1, min(m, _TILE))
        self.weights = weights
        self.unit = bool(np.all(weights == 1.0))  # the KL frame's: ||x||^2 needs no weights
        self.centre = centre
        self.norm = np.sqrt(np.einsum("md,d,md->m", queries, weights, queries))
        padded = -(-m // tile) * tile
        self.centred = qc = np.zeros((padded, D))
        np.subtract(queries, 0.0 if centre is None else centre, out=qc[:m])
        self.qq = qq = np.empty(padded)
        for start in range(0, padded, tile):  # tile by tile, at the shape of the products
            block = qc[start : start + tile]
            np.einsum("td,d,td->t", block, weights, block, out=qq[start : start + tile])
        qq[m:] = 1.0
        for arr in (self.norm, qc, qq):
            arr.flags.writeable = False

    def sums(self, data: np.ndarray) -> np.ndarray:
        """Sum over the rows x_j of data (n, D) of sign(q_i - x_j), for each query: (m, D).

        Each tile fills b = [-2 w q | ||q||^2 | 1]. With a centre, the data
        are copied centred into a = [x | 1 | ||x||^2], and each tile costs the
        products a @ b.T (r^2) and a[:, :D+1].T @ (1/r). At the origin the
        block is used in place, with no copy, centring or second norm pass:
        r^2 = x @ b[:, :D].T plus ||x||^2 and ||q||^2 as two broadcasts, and
        the sums are (1/r)' x and (1/r)' 1. There the buffers hold the tile on
        their first axis, so 1/r reaches both products as a row-major (tile,
        n) matrix. Near pairs, r^2 <= max(_CANCEL * (||qc||^2 + max_j
        ||xc_j||^2), (ZERO_RTOL * (||q|| + max_j ||x_j||))^2), a per-query
        bound covering every pair the rule could call coincident, leave the
        products; their sign is recomputed from q - x and coincident is
        applied per pair.
        """
        m = self.norm.size
        n, D = data.shape
        w, tile = self.weights, self.tile
        if self.centre is None:
            a, x = None, data
            xx = np.einsum("nd,nd->n", x, x) if self.unit else np.einsum("nd,d,nd->n", x, w, x)
            xx_max = float(xx.max(initial=0.0))
            x_norm, x_norm_max = None, math.sqrt(xx_max)  # the raw norms are the centred ones
        else:
            x_norm = np.sqrt(np.einsum("nd,d,nd->n", data, w, data))
            x_norm_max = float(x_norm.max(initial=0.0))
            a = np.empty((n, D + 2))
            x = a[:, :D]
            np.subtract(data, self.centre, out=x)
            a[:, D] = 1.0
            xx = a[:, D + 1]
            np.einsum("nd,d,nd->n", x, w, x, out=xx)
            xx_max = float(xx.max(initial=0.0))
        tol = ZERO_RTOL * (self.norm + x_norm_max)  # largest coincident distance
        bound = np.add(self.qq, xx_max)
        bound *= _CANCEL
        np.maximum(bound[:m], tol * tol, out=bound[:m])
        bound[m:] = -1.0  # padded queries never take the near path
        if a is None:  # r^2 and its mask as (n, tile) views of (tile, n) buffers
            r2 = np.empty((tile, n)).T
            ones, sum_x, sum_1 = np.ones(n), np.empty((tile, D)), np.empty(tile)
        else:
            r2 = np.empty((n, tile))
            sums = np.empty((D + 1, tile))
            sum_x, sum_1 = sums[:D].T, sums[D]
        near = np.empty_like(r2, dtype=bool)
        b = np.empty((tile, D + 2))  # the tile's [-2 w q | ||q||^2 | 1]
        b[:, D + 1] = 1.0
        w2 = -2.0 * w
        out = np.empty((m, D))
        for start in range(0, m, tile):
            stop = min(start + tile, m)
            q = self.centred[start : start + tile]
            qq = self.qq[start : start + tile]
            np.multiply(q, w2, out=b[:, :D])
            if a is None:
                np.matmul(b[:, :D], x.T, out=r2.T)
                r2 += xx[:, None]
                r2 += qq
            else:
                b[:, D] = qq
                np.matmul(a, b.T, out=r2)  # r^2 by the Gram identity
            np.less_equal(r2, bound[start : start + tile], out=near)
            has_near = near.any()
            if has_near:
                r2[near] = np.inf
            np.sqrt(r2, out=r2)
            np.divide(1.0, r2, out=r2)  # 1/r, and 0 on near pairs
            if a is None:
                np.matmul(r2.T, x, out=sum_x)  # sum_j x_j / r_j
                np.matmul(r2.T, ones, out=sum_1)  # sum_j 1/r_j
            else:
                np.matmul(a[:, : D + 1].T, r2, out=sums)  # both sums from [x | 1]
            k = stop - start
            s = out[start:stop]
            np.multiply(q[:k], sum_1[:k, None], out=s)
            s -= sum_x[:k]
            if has_near:
                if x_norm is None:
                    x_norm = np.sqrt(xx)
                _add_near_signs(s, q[:k], x, w, near, self.norm[start:stop], x_norm)
        return out


def _sign_mean(queries: np.ndarray, data: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Average spatial sign of (query - X_i) for each query row.

    queries (m, D), data (n, D) -> (m, D). Coincident pairs (see coincident,
    on the raw weighted norms of query and datum) contribute zero. The
    one-shot entry of the kernel: SignQueries prepared at the data mean in
    tiles of _TILE, so every query goes through the same operations at the
    same shapes, every decision depends on that query and the data alone,
    and the result is bitwise independent of m and of how a caller splits
    the queries.
    """
    out = SignQueries(queries, weights, data.mean(axis=0), _TILE).sums(data)
    out /= data.shape[0]
    return out


def _add_near_signs(s, tile, x, weights, near, tile_norm, x_norm) -> None:
    """Add sign(q_i - x_j) to s[i] for the near pairs, from q - x itself.

    s, tile and tile_norm hold the k queries of the tile; near is (n, tile
    width), False past column k. tile_norm and x_norm are the raw norms that
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
