"""Spatial signs and empirical spatial distributions.

The spatial sign of x is the unit vector x / ||x|| (zero at the origin), and
the empirical spatial distribution at a query point x is the average sign of
x - X_i over the sample. In one dimension this reduces to 2 F(x) - 1, so the
object plays the role of a centered CDF; its norm never exceeds 1, and
1 - ||S_x|| is the spatial depth (see the depth module).

All Hilbert-space geometry is the weighted grid inner product from
funcspace. The l_p variant of the sign map is provided for plain coefficient
vectors only.

Every batch evaluation goes through one kernel, _sign_mean. It never forms
the differences q - X_i for all pairs. With r = ||q - x||, the Gram identity
r^2 = ||q||^2 + ||x||^2 - 2 <q, x> gives all distances of a block of queries
from one matrix product, and the signs sum to q * sum_i 1/r_i - sum_i X_i / r_i,
a second product. Three details keep this as accurate and as reproducible as
the direct sum:

- Centering. Queries and data are shifted by the data mean first. The sign
  mean is translation invariant, and centering keeps ||q||^2 + ||x||^2 near
  the scale of the distances themselves, so the Gram values keep their
  digits and almost every pair stays on the matrix-product path.
- Cancellation. A pair whose Gram value is small against its norms has lost
  digits to cancellation; it is computed directly from q - x instead. A
  coincident pair then has distance exactly 0 and contributes the zero sign.
- Fixed shape. Queries reach BLAS in tiles of a constant count, the last
  one zero-padded, and each product keeps the tile on its last axis.
  OpenBLAS does not round a product identically at every row count (a 1-row
  product goes to gemv), and for some shapes it rounds rows of the other
  axis differently by position. A fixed shape with the tile on the last axis
  is what makes a query's result independent of the batch it arrives in,
  and hence of any split a caller makes.

The workspace is O(tile * n) floats plus one centered copy of the data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError
from .funcspace import Curve, FunctionalSample, norm

# Norms at or below 1e-12 * (1 + reference scale) count as zero, realizing
# the SGN_0 = 0 convention for data that coincide numerically.
ZERO_RTOL = 1e-12


def zero_threshold(ref_scale: float) -> float:
    return ZERO_RTOL * (1.0 + ref_scale)


@dataclass(frozen=True)
class SpatialDistValue:
    """Value of an (empirical) spatial distribution at one query point.

    representation is a Curve in the Hilbert case, or a plain dual
    coefficient vector for the l_p case. norm is cached because callers
    (depth, rate studies) use it constantly; it is at most 1 up to
    round-off, being an average of unit and zero vectors.
    """

    representation: Curve | np.ndarray
    norm: float

    def __post_init__(self):
        if not 0.0 <= self.norm <= 1.0 + 1e-10:
            raise ValueError(f"spatial distribution norm {self.norm} outside [0, 1]")


def sgn_hilbert(x: Curve, ref_scale: float = 0.0) -> Curve:
    """Spatial sign x / ||x||, or the zero curve when ||x|| is negligible.

    ref_scale sets the scale against which "negligible" is judged; by
    default only norms at machine-zero level (1e-12) are flattened.
    """
    nx = norm(x)
    if nx <= zero_threshold(ref_scale):
        return Curve(x.grid, np.zeros(x.grid.size))
    return Curve(x.grid, x.values / nx)


def sgn_lp(x: np.ndarray, p: float) -> np.ndarray:
    """Dual vector of the norming functional at x in l_p, p in (1, inf).

    Component i is sign(x_i) |x_i|^(p-1) / ||x||_p^(p-1); the result has
    l_q norm exactly 1 (q conjugate to p), and p = 2 recovers x / ||x||.
    Zero input maps to zero. The map is evaluated on x / max|x_i|, which
    leaves it unchanged and keeps the norm and the powers finite.
    """
    if not np.isfinite(p) or p <= 1.0:
        raise ValueError("p must lie in (1, inf)")
    v = np.asarray(x, dtype=float)
    vmax = float(np.max(np.abs(v), initial=0.0))
    if vmax == 0.0:
        return np.zeros_like(v)
    a = v / vmax
    na = float(np.linalg.norm(a, ord=p))
    if vmax * na <= zero_threshold(0.0):
        return np.zeros_like(v)
    return np.sign(a) * np.abs(a) ** (p - 1.0) / na ** (p - 1.0)


def _max_norm(values: np.ndarray, weights: np.ndarray) -> float:
    return float(np.sqrt(np.max(np.einsum("nd,d,nd->n", values, weights, values), initial=0.0)))


def coincidence_threshold(queries: np.ndarray, data: np.ndarray, weights: np.ndarray) -> float:
    """Distance at or below which a query and a datum count as coincident.

    It is ZERO_RTOL times the largest weighted norms in the batch, with no
    absolute floor, so scaling queries and data together scales it too and
    depth stays scale invariant at any magnitude. A caller that splits a
    batch computes it once for the whole batch, so the split cannot move a
    coincidence decision.
    """
    return ZERO_RTOL * (_max_norm(queries, weights) + _max_norm(data, weights))


# Queries go to BLAS in tiles of exactly this many; see the module notes.
_TILE = 16
# A pair with Gram value r^2 <= _CANCEL * (||q||^2 + max ||x||^2) is computed
# directly from q - x: the Gram value keeps only ~12 of its digits there.
_CANCEL = 1e-4


def _sign_mean(
    queries: np.ndarray,
    data: np.ndarray,
    weights: np.ndarray,
    thresh: float | None = None,
) -> np.ndarray:
    """Average spatial sign of (query - X_i) for each query row.

    queries (m, D), data (n, D) -> (m, D). Pairs at distance <= thresh
    (default: coincidence_threshold of this batch) contribute zero.

    In centered coordinates each tile of _TILE queries costs two GEMMs:
    G = Xc @ (tile * w).T gives r^2 = ||q||^2 + ||x||^2 - 2 G, and the sum
    of signs is tile * sum_j 1/r_j - sum_j Xc_j / r_j, both sums from
    [Xc | 1].T @ (1/r). Pairs with
    r^2 <= max(_CANCEL * (||q||^2 + max_j ||x_j||^2), thresh^2), a per-query
    bound that covers the pairwise rule r^2 <= _CANCEL * (||q||^2 + ||x_j||^2)
    and every coincident pair, leave the GEMMs; their distance and sign are
    recomputed from q - x.

    Every query goes through the same operations at the same shapes, so
    given the same thresh the result is bitwise independent of m and of how
    a caller splits the queries. Workspace: O(_TILE * n) floats plus one
    centered copy of the data.
    """
    m, D = queries.shape
    n = data.shape[0]
    if thresh is None:
        thresh = coincidence_threshold(queries, data, weights)
    mean = data.mean(axis=0)
    # xc = [X - mean | 1]: the ones column makes the second GEMM also
    # return sum_j 1/r_j, in the same position-stable shape
    xc = np.empty((n, D + 1))
    x = xc[:, :D]
    np.subtract(data, mean, out=x)
    xc[:, D] = 1.0
    qc = queries - mean
    xx = np.einsum("nd,d,nd->n", x, weights, x)
    xx_max = float(xx.max(initial=0.0))
    tile = np.zeros((_TILE, D))
    out = np.empty((m, D))
    for start in range(0, m, _TILE):
        k = min(_TILE, m - start)
        tile[:k] = qc[start : start + k]
        tile[k:] = 0.0
        qq = np.einsum("td,d,td->t", tile, weights, tile)
        g = x @ (tile * weights).T  # (n, _TILE) inner products
        inv = g[:, :k]
        inv *= -2.0
        inv += xx[:, None]
        inv += qq[:k]  # r^2 by the Gram identity
        bound = np.maximum(_CANCEL * (qq[:k] + xx_max), thresh * thresh)
        near = inv <= bound
        inv[near] = np.inf
        np.sqrt(inv, out=inv)
        np.divide(1.0, inv, out=inv)  # 1/r, and 0 on near pairs
        g[:, k:] = 0.0
        sums = xc.T @ g  # (D + 1, _TILE): sum_j x_j / r_j, then sum_j 1/r_j
        s = tile * sums[D][:, None] - sums[:D].T
        _add_near_signs(s, tile, x, weights, near, thresh)
        out[start : start + k] = s[:k] / n
    return out


def _add_near_signs(s, tile, x, weights, near, thresh) -> None:
    """Add sign(q_i - x_j) to s[i] for the near pairs, from q - x itself.

    near is (n, k). np.add.at adds in pair order, so each query receives its
    terms in increasing j however the pairs are chunked; a chunk holds about
    one tile's worth of floats.
    """
    xj, qi = np.nonzero(near)
    step = max(1, near.size // tile.shape[1])
    for lo in range(0, qi.size, step):
        rows, cols = qi[lo : lo + step], xj[lo : lo + step]
        diff = tile[rows] - x[cols]
        r = np.sqrt(np.einsum("kd,d,kd->k", diff, weights, diff))
        keep = r > thresh
        np.add.at(s, rows[keep], diff[keep] / r[keep, None])


def empirical_spatial_dist(x: Curve, sample: FunctionalSample) -> SpatialDistValue:
    """Mean spatial sign of x - X_i over the sample.

    Coincident data points contribute zero vectors; the returned norm is
    always in [0, 1].
    """
    if not x.grid.matches(sample.grid):
        raise GridMismatchError("query and sample live on different grids")
    s = _sign_mean(x.values[None, :], sample.values, sample.grid.weights)[0]
    curve = Curve(x.grid, s)
    return SpatialDistValue(curve, min(norm(curve), 1.0))


def empirical_spatial_dist_lp(x: np.ndarray, data: np.ndarray, p: float) -> SpatialDistValue:
    """l_p analogue on plain coefficient vectors: mean of sgn_lp(x - row)."""
    v = np.asarray(x, dtype=float)
    rows = np.atleast_2d(np.asarray(data, dtype=float))
    total = np.zeros_like(v)
    for row in rows:
        total += sgn_lp(v - row, p)
    rep = total / rows.shape[0]
    q = p / (p - 1.0)
    return SpatialDistValue(rep, min(float(np.linalg.norm(rep, ord=q)), 1.0))


@dataclass(frozen=True)
class MonotonicityReport:
    """Per-pair values of <S_x - S_y, x - y> and the violation count."""

    values: np.ndarray
    degenerate: np.ndarray  # True where x and y coincide (value pinned to 0)
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
    violation. Pairs with ||x - y|| <= ZERO_RTOL * (||x|| + ||y||) are
    flagged degenerate and not counted; the test is relative, so the flags
    do not change when the sample and the pairs are scaled together.
    """
    w = sample.grid.weights
    xs = np.array([p[0].values for p in pairs])
    ys = np.array([p[1].values for p in pairs])
    sx = _sign_mean(xs, sample.values, w)
    sy = _sign_mean(ys, sample.values, w)
    dxy = xs - ys
    values = np.sum((sx - sy) * dxy * w, axis=1)
    scale = np.sqrt(np.sum(dxy * dxy * w, axis=1))
    size = np.sqrt(np.sum(xs * xs * w, axis=1)) + np.sqrt(np.sum(ys * ys * w, axis=1))
    degenerate = scale <= ZERO_RTOL * size
    values = np.where(degenerate, 0.0, values)
    violations = int(np.sum((values <= 0.0) & ~degenerate))
    return MonotonicityReport(values, degenerate, violations)
