"""Asymptotic relative efficiency of the sample spatial median vs the mean.

For a symmetric process X with mean m, the sample mean of n paths has
asymptotic covariance trace trace(Sigma)/n, while the sample spatial median
has the sandwich covariance J^{-1} Lambda J^{-1} / n with

    J = E[(I - v v') / ||X - m||],   Lambda = E[v v'],   v = (m - X)/||m - X||.

The efficiency of the median relative to the mean is the trace ratio
trace(Sigma) / trace(J^{-1} Lambda J^{-1}); a value above 1 means the median
needs fewer observations than the mean for the same precision (heavy-tailed
coefficient laws), below 1 the reverse (Gaussian-type processes).

Everything is evaluated in the whitened coordinates sqrt(w) * x of a
D-point grid, where the weighted inner product is Euclidean; the ratio is
invariant under orthonormal changes of that representation. A whitened path
is y @ tilde, tilde the k x D whitened KL loading; with sigma its min(k, D)
singular values, a field of simulate's KL system (built once per (spec,
grid), so once per table cell), it is z = y * sigma in orthonormal
coordinates, in distribution. Every shipped law keeps each coordinate of z
sign-symmetric given the others, so J and Lambda are diagonal there and
trace(V0) = sum_i Lambda_ii / J_ii^2 (directions off the KL span add 0).

The student-t law is elliptical: its path is the Gaussian path divided by
one shared s = sqrt(W/df), W ~ chi-square(df). Signs do not see s and 1/r
scales by it, so J_t = E[s] J_G and Lambda_t = Lambda_G: a t law's V0 is
its Gaussian twin's (one memoized run per grid, mc and seed) over E[s]^2,
E[s] = sqrt(2/df) Gamma((df+1)/2) / Gamma(df/2) (Magyar & Tyler 2011).

J and Lambda use two independent Monte Carlo streams derived from one study
seed through fixed integer tags, so a report is reproducible bit for bit
and does not change when other parts of a study re-seed.
"""

from __future__ import annotations

import functools
import math
import zlib
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConditioningError
from .funcspace import Grid
from .quantile import CONDITION_LIMIT
from .simulate import (
    GAUSSIAN_LAW,
    STUDENT_T_LAW,
    KernelSpec,
    ProcessSpec,
    _kl_system,  # called as module globals, as is coefficient_chunks: perfbench wraps both
    coefficient_chunks,
    stream_seed,
)
from .spatialdist import coincident

DEFAULT_MC = 200_000
DEFAULT_GRID_SIZE = 200
ESTIMATOR = "kl-diagonal-1"  # names the v0 estimator below in every efficiency artifact

# Stream tags. Every named substream of a study seed gets its own fixed tag,
# so adding streams later cannot silently shift existing ones.
_TAG_SIGMA = 0
_TAG_J = 1
_TAG_LAMBDA = 2
_TAG_GRID = 3
_TAG_CELL_BASE = 16


def domain_grid(domain: str, grid_size: int, seed: int) -> Grid:
    """The grid of a table cell's domain at a study seed.

    Equispaced on [0, 1] for "unit-interval". For "real-line", the
    N(0, 1/2) point grid drawn once from the seed's grid substream, so
    every real-line cell of the same study shares it.
    """
    if domain == "unit-interval":
        return Grid.uniform(0.0, 1.0, grid_size)
    if domain == "real-line":
        return Grid.gaussian(grid_size, seed=stream_seed(seed, _TAG_GRID))
    raise ValueError(f"unknown domain {domain!r}")


def _gaussian_twin(spec: ProcessSpec) -> ProcessSpec:
    """The process with the same kernel, mean and truncation under the Gaussian law."""
    return replace(spec, coefficient_law=GAUSSIAN_LAW, df=None)


def _mean_scale(spec: ProcessSpec) -> float:
    """E[s] of the shared scale s = sqrt(W/df) of a t law; 1 for the Gaussian law."""
    if spec.coefficient_law != STUDENT_T_LAW:
        return 1.0
    df = spec.df
    return math.sqrt(2.0 / df) * math.exp(math.lgamma((df + 1) / 2) - math.lgamma(df / 2))


@dataclass(frozen=True)
class EfficiencyReport:
    """trace(Sigma), trace(V0) and their ratio for one process on one grid."""

    trace_sigma: float
    trace_v0: float
    are: float
    process: dict
    D: int
    mc_size: int
    seed: int

    def __post_init__(self):
        for name in ("trace_sigma", "trace_v0"):
            v = getattr(self, name)
            if not math.isfinite(v) or v <= 0.0:
                raise ValueError(f"{name} must be finite and positive, got {v}")
        if abs(self.are - self.trace_sigma / self.trace_v0) > 1e-12 * max(1.0, abs(self.are)):
            raise ValueError("are field disagrees with trace_sigma / trace_v0")


def _spec_summary(spec: ProcessSpec) -> dict:
    return {
        "kernel": spec.kernel.kind,
        "hurst": spec.kernel.hurst,
        "law": spec.coefficient_law,
        "df": spec.df,
        "truncation": spec.truncation,
    }


def sigma_trace(spec: ProcessSpec, grid: Grid, mc: int = 0, seed: int = 0) -> float:
    """Trace of the covariance of X over the grid discretization.

    With mc = 0 (the default) uses the closed form Var(Y) * sum_i w_i K(t_i, t_i),
    which is exact for every kernel this package ships, since the pointwise
    variance of the process is Var(Y) K(t, t). With mc > 0 the trace is
    instead the Monte Carlo average of ||X - m||^2 over mc simulated paths;
    that route exists to cross-check the closed form and to study MC error,
    and it converges slowly for student-t laws with df <= 4 (infinite
    fourth moment).
    """
    if mc < 0:
        raise ValueError("mc must be >= 0")
    if mc == 0:
        diag = spec.kernel.diagonal(grid.points)
        return float(spec.coefficient_variance() * np.sum(grid.weights * diag))
    sigma = _kl_system(spec, grid).sigma
    total = 0.0
    for y in coefficient_chunks(spec, mc, sigma.size, stream_seed(seed, _TAG_SIGMA)):
        z = np.multiply(y, sigma, out=y)
        total += float(np.sum(np.square(z, out=z)))
    return total / mc


def v0_estimate(spec: ProcessSpec, grid: Grid, mc: int = DEFAULT_MC, seed: int = 0) -> float:
    """trace of J^{-1} Lambda J^{-1} on the grid, from mc draws per matrix.

    In the diagonal coordinates z = y * sigma of the module docstring,
    J_ii = mean(1/r - z_i^2/r^3) and Lambda_ii = mean(z_i^2/r^2), r = ||z||,
    summed chunk by chunk in a fixed order over two independent substreams
    of the seed. The draws are the Gaussian twin's normals, the normal block
    a t law draws first; a t law then divides by E[s]^2, so a t law and its
    twin at the same (grid, mc, seed) share one run. Raises ConditioningError
    when J is singular, as for a one-dimensional process.
    """
    if mc < 1:
        raise ValueError("mc must be >= 1")
    return _twin_v0(_gaussian_twin(spec), grid, mc, seed) / _mean_scale(spec) ** 2


@functools.lru_cache(maxsize=1)
def _twin_v0(twin: ProcessSpec, grid: Grid, mc: int, seed: int) -> float:
    """trace(V0) of a Gaussian law from mc draws per matrix; see v0_estimate."""
    sigma = _kl_system(twin, grid).sigma

    def sums(tag: int, power: int):
        # sum of 1/r and of z_i^2 / r^power over the stream; r = 0 adds nothing
        inv_r_sum, weighted = 0.0, np.zeros(sigma.size)
        for y in coefficient_chunks(twin, mc, sigma.size, stream_seed(seed, tag)):
            # z^2 in place in the normals buffer, which the next chunk overwrites
            z2 = np.multiply(y, sigma, out=y)
            np.square(z2, out=z2)
            r = np.sqrt(np.sum(z2, axis=1))
            # z coincides with the mean 0 by the package's one rule (only at r = 0)
            inv_r = np.divide(1.0, r, out=np.zeros_like(r), where=~coincident(r, r, 0.0))
            inv_r_sum += float(np.sum(inv_r))
            weighted += inv_r**power @ z2
        return inv_r_sum, weighted

    inv_r_sum, j_outer = sums(_TAG_J, 3)
    lam_sum = sums(_TAG_LAMBDA, 2)[1]
    J = (inv_r_sum - j_outer) / mc
    if np.min(J) <= inv_r_sum / mc / CONDITION_LIMIT:  # (nearly) one-dimensional process
        raise ConditioningError(f"estimated J condition number exceeds {CONDITION_LIMIT:.0e}")
    return float(np.sum(lam_sum / mc / J**2))


def are(spec: ProcessSpec, grid: Grid, mc: int = DEFAULT_MC, seed: int = 0) -> EfficiencyReport:
    """Efficiency report trace(Sigma) / trace(V0) for one process.

    trace(Sigma) comes from its closed form (exact), so the whole Monte
    Carlo budget goes into the sandwich estimate, which a t law shares with
    its Gaussian twin at the same grid, mc and seed (see v0_estimate).
    """
    ts = sigma_trace(spec, grid)
    tv = v0_estimate(spec, grid, mc, seed)
    return EfficiencyReport(
        trace_sigma=ts,
        trace_v0=tv,
        are=ts / tv,
        process=_spec_summary(spec),
        D=grid.size,
        mc_size=int(mc),
        seed=int(seed),
    )


# ---------------------------------------------------------------------------
# The standard comparison table.


@dataclass(frozen=True)
class TableCell:
    """One configuration of the standard efficiency sweep.

    domain ("unit-interval" or "real-line") picks the grid, see domain_grid.
    reference is the independently reported value for this configuration
    when one exists, used as a cross-check target; None otherwise.
    """

    label: str
    spec: ProcessSpec
    domain: str
    reference: float | None


@dataclass(frozen=True)
class TableRow:
    label: str
    report: EfficiencyReport
    reference: float | None


# Study seed for the shipped table. Frozen after checking that every cell
# with a reference value lands inside its tolerance at mc = 2e5 and that
# the Hurst sweep is monotone; see the reproduction tests.
DEFAULT_TABLE_SEED = 11

HURST_SWEEP = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)

_FBM_REFERENCES = {0.1: 0.923, 0.9: 0.718}


def default_table_cells() -> list[TableCell]:
    cells = [
        TableCell("brownian", ProcessSpec(KernelSpec.brownian(), GAUSSIAN_LAW), "unit-interval", 0.83)
    ]
    for h in HURST_SWEEP:
        cells.append(
            TableCell(
                f"fbm-h{h:.1f}",
                ProcessSpec(KernelSpec.fractional_brownian(h), GAUSSIAN_LAW),
                "unit-interval",
                _FBM_REFERENCES.get(h),
            )
        )
    t, gk = STUDENT_T_LAW, KernelSpec.gaussian_kernel()
    return cells + [
        TableCell("t3-min", ProcessSpec(KernelSpec.min_kernel(), t, df=3), "unit-interval", 2.135),
        TableCell("t9-min", ProcessSpec(KernelSpec.min_kernel(), t, df=9), "unit-interval", 1.006),
        TableCell("gauss-kernel", ProcessSpec(gk, GAUSSIAN_LAW), "real-line", 0.834),
        TableCell("gauss-kernel-t3", ProcessSpec(gk, t, df=3), "real-line", 2.247),
        TableCell("gauss-kernel-t9", ProcessSpec(gk, t, df=9), "real-line", 1.013),
    ]


def efficiency_table(
    seed: int = DEFAULT_TABLE_SEED,
    mc: int = DEFAULT_MC,
    grid_size: int = DEFAULT_GRID_SIZE,
    cells: list[TableCell] | None = None,
) -> list[TableRow]:
    """Run the efficiency sweep; one row per cell, in the order of cells.

    Each cell runs on the domain_grid of its domain at the study seed. A cell
    whose (domain, Gaussian twin) is a default cell's runs under that cell's
    tagged substream, any other under a tag from the crc32 of its label
    (stable across processes, unlike hash()). Cells with one twin and
    substream share one run (see v0_estimate), each over its own E[s]^2:
    t3-min and t9-min share a Gaussian min-kernel run, the gauss-kernel t
    cells the gauss-kernel run. Tags do not depend on the cell list.
    """
    if cells is None:
        cells = default_table_cells()
    twins = [(c.domain, _gaussian_twin(c.spec)) for c in default_table_cells()]
    first_index = {key: i for i, key in reversed(list(enumerate(twins)))}  # the first index wins

    def run(cell: TableCell) -> TableRow:
        grid = domain_grid(cell.domain, grid_size, seed)
        key = (cell.domain, _gaussian_twin(cell.spec))
        tag = first_index.get(key, len(twins) + zlib.crc32(cell.label.encode()))
        rep = are(cell.spec, grid, mc, stream_seed(seed, _TAG_CELL_BASE + tag))
        return TableRow(cell.label, rep, cell.reference)

    return [run(cell) for cell in cells]
