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
singular values, it is z = y * sigma in orthonormal coordinates, in
distribution. Every shipped law keeps each coordinate of z sign-symmetric
given the others, so J and Lambda are diagonal there and
trace(V0) = sum_i Lambda_ii / J_ii^2 (directions off the KL span add 0).
Both traces are of that one law, the truncated KL law that simulate
samples: trace(Sigma) = Var(Y) * sum_i sigma_i^2.

sigma is the one field of simulate's KL system that this module reads
(built once per (Gaussian twin, grid)). For a discretized kernel, whose
whitened KL functions are orthonormal, it is the square roots of the top
eigenvalues of W^{1/2} K W^{1/2}, from an eigenvalue-only solve; for the
Brownian closed form, whose whitened functions need not be, the singular
values of its whitened loading. No eigenvector is computed for the study.

The student-t law is elliptical: its path is the Gaussian path divided by
one shared s = sqrt(W/df), W ~ chi-square(df). Signs do not see s and 1/r
scales by it, so J_t = E[s] J_G and Lambda_t = Lambda_G: a t law's V0 is
its Gaussian twin's over E[s]^2,
E[s] = sqrt(2/df) Gamma((df+1)/2) / Gamma(df/2) (Magyar & Tyler 2011).

J and Lambda use two independent Monte Carlo streams derived from one study
seed through fixed integer tags, so a report is reproducible bit for bit
and does not change when other parts of a study re-seed. The draws are iid
N(0, I_r) rows whatever the law, so every Gaussian twin with r singular
values reads the same pair of streams at the same seed (common random
numbers). One planner, _cells, takes any list of (spec, grid) cases: it
builds each distinct twin once, draws each pair of streams once per
distinct r and runs all twins of that r over it. are and v0_estimate are
one case of it, and efficiency_table all of its cells, so each table row
equals are() of its cell at the table seed bit for bit.

Threads and memory. Every stream, the J and Lambda pair of a rank as one
plan and sigma_trace's, runs on simulate's draw-and-reduce pipeline
(coefficient_runs): each of its two workers draws a chunk in sub-blocks of
about 1 MiB into its own buffer and reduces each sub-block to per-sigma
sums where it is drawn, and the calling thread adds the sums in order. So
one sub-block buffer per worker is alive whatever mc is, no output depends
on the workers, and this module starts no thread itself.
"""

from __future__ import annotations

import math
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
    _kl_system,  # called as a module global: perfbench wraps it
    coefficient_runs,
    stream_seed,
)
from .spatialdist import coincident

DEFAULT_MC = 200_000
DEFAULT_GRID_SIZE = 200
ESTIMATOR = "kl-diagonal-4"  # names the v0 estimator below in every efficiency artifact

# Stream tags. Every named substream of a study seed gets its own fixed tag,
# so adding streams later cannot silently shift existing ones.
_TAG_SIGMA = 0
_TAG_J = 1
_TAG_LAMBDA = 2
_TAG_GRID = 3


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


def _trace(spec: ProcessSpec, sigma: np.ndarray) -> float:
    """trace(Sigma) = Var(Y) * sum sigma^2 of the KL law with whitened scales sigma."""
    return float(spec.coefficient_variance() * np.sum(np.square(sigma)))


def sigma_trace(spec: ProcessSpec, grid: Grid, mc: int = 0, seed: int = 0) -> float:
    """Trace of the covariance of X over the grid discretization.

    The law is the truncated KL law that simulate samples and that V0 is
    estimated under: its whitened scales sigma are those of the Gaussian
    twin's KL system. With mc = 0 (the default) the trace is its closed form
    Var(Y) * sum_i sigma_i^2, exact for that law; with all D grid terms of a
    discretized kernel, it is Var(Y) * sum_i w_i K(t_i, t_i) up to rounding.
    With mc > 0 it is instead the Monte Carlo average of ||X - m||^2 over mc
    simulated paths; that route exists to cross-check the closed form and
    to study MC error, and it converges slowly for student-t laws with
    df <= 4 (infinite fourth moment).
    """
    if mc < 0:
        raise ValueError("mc must be >= 0")
    sigma = _kl_system(_gaussian_twin(spec), grid).sigma
    if mc == 0:
        return _trace(spec, sigma)

    def square_sum(_run, _lo, y):
        z = np.multiply(y, sigma, out=y)
        return float(np.sum(np.square(z, out=z)))

    runs = [(mc, stream_seed(seed, _TAG_SIGMA))]
    return sum(s for _, s in coefficient_runs(spec, sigma.size, runs, square_sum)) / mc


def v0_estimate(spec: ProcessSpec, grid: Grid, mc: int = DEFAULT_MC, seed: int = 0) -> float:
    """trace of J^{-1} Lambda J^{-1} on the grid, from mc draws per matrix.

    In the diagonal coordinates z = y * sigma of the module docstring,
    J_ii = mean(1/r - z_i^2/r^3) and Lambda_ii = mean(z_i^2/r^2), r = ||z||,
    summed chunk by chunk in a fixed order over two independent substreams
    of the seed. The draws are the Gaussian twin's normals, the normal block
    a t law draws first; a t law then divides by E[s]^2, so a t law's value
    is its twin's at the same (grid, mc, seed) over E[s]^2, bit for bit, as
    is every efficiency_table row of that twin at the table seed. Raises
    ConditioningError when J is singular, as for a one-dimensional process.
    """
    return _cells([(spec, grid)], mc, seed)[0][1]


def _cells(cases: list, mc: int, seed: int) -> list[tuple[np.ndarray, float]]:
    """(sigma, trace(V0)) of each (spec, grid) case, in order; the one per-cell path.

    Each distinct (Gaussian twin, grid) gets one KL build, which solves for
    its whitened scales sigma alone, and the twins are grouped by their
    number r = min(k, D) of scales: each group reads one J and one Lambda
    stream of the seed (_v0_runs). A case's trace(V0) is its twin's over
    its own E[s]^2, and does not depend on the other cases. mc is checked
    before any build.
    """
    if mc < 1:
        raise ValueError("mc must be >= 1")
    keys = [(_gaussian_twin(spec), grid) for spec, grid in cases]
    sigmas = {key: _kl_system(*key).sigma for key in dict.fromkeys(keys)}
    groups: dict[int, list] = {}
    for key, sigma in sigmas.items():
        groups.setdefault(sigma.size, []).append(key)
    v0 = {}
    for group in groups.values():
        v0.update(zip(group, _v0_runs(group[0][0], [sigmas[key] for key in group], mc, seed)))
    return [(sigmas[key], v0[key] / _mean_scale(spec) ** 2) for (spec, _), key in zip(cases, keys)]


def _v0_runs(twin: ProcessSpec, sigmas: list[np.ndarray], mc: int, seed: int) -> list[float]:
    """trace(V0) of the Gaussian law twin at each whitened scale vector sigma.

    Every sigma has the same size k, so all of them read the same k normals
    per draw: one plan of two runs of mc rows, the J stream and then the
    Lambda stream, each drawn once, in sub-blocks of about 1 MiB on
    simulate's workers (coefficient_runs). With y^2 squared in place in the
    sub-block, a sigma's r^2 = y^2 @ sigma^2 and its weighted sums sigma^2 *
    (1/r^p @ y^2), p = 3 for J and 2 for Lambda, are two GEMVs per sigma and
    sub-block, and the sums are added in order. A sigma's value does not
    depend on the others in the list, nor on the workers.
    """
    s2 = [np.square(s) for s in sigmas]  # the reduce below reads these alone

    def sums(run: int, _lo: int, y: np.ndarray):
        # per sigma: the sum of 1/r and of y^2 / r^p over the sub-block; r = 0 adds nothing
        y2 = np.square(y, out=y)
        out = []
        for s in s2:
            r = np.sqrt(y2 @ s)
            # z coincides with the mean 0 by the package's one rule (only at r = 0)
            inv_r = np.divide(1.0, r, out=np.zeros_like(r), where=~coincident(r, r, 0.0))
            out.append((float(np.sum(inv_r)), inv_r ** (3 - run) @ y2))
        return out

    runs = [(mc, stream_seed(seed, _TAG_J)), (mc, stream_seed(seed, _TAG_LAMBDA))]
    inv_r_sum, weighted = np.zeros((2, len(s2))), np.zeros((2, len(s2), s2[0].size))
    for run, block in coefficient_runs(twin, s2[0].size, runs, sums):
        for i, (r_sum, w) in enumerate(block):
            inv_r_sum[run, i] += r_sum
            weighted[run, i] += w
    out = []
    for r_sum, j_sum, lam_sum, s in zip(inv_r_sum[0], weighted[0], weighted[1], s2):
        J = (r_sum - j_sum * s) / mc
        if np.min(J) <= r_sum / mc / CONDITION_LIMIT:  # (nearly) one-dimensional process
            raise ConditioningError(f"estimated J condition number exceeds {CONDITION_LIMIT:.0e}")
        out.append(float(np.sum(lam_sum * s / mc / J**2)))
    return out


def are(spec: ProcessSpec, grid: Grid, mc: int = DEFAULT_MC, seed: int = 0) -> EfficiencyReport:
    """Efficiency report trace(Sigma) / trace(V0) for one process.

    Both traces are of the one KL law that simulate samples: trace(Sigma)
    comes from its closed form (exact, see sigma_trace), so the whole Monte
    Carlo budget goes into the sandwich estimate (see v0_estimate).
    """
    return _report(spec, grid, *_cells([(spec, grid)], mc, seed)[0], mc, seed)


def _report(spec: ProcessSpec, grid: Grid, sigma, tv: float, mc: int, seed: int):
    """The EfficiencyReport of a case from its _cells output (sigma, tv)."""
    ts = _trace(spec, sigma)
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

    Each cell runs on the domain_grid of its domain at the study seed, and
    its row is are(cell.spec, grid, mc, seed) bit for bit: the cells go
    through the one per-cell path together (_cells), which builds each
    distinct Gaussian twin's KL system once and reads one J and one Lambda
    stream per rank r = min(k, D). Every row is its twin's V0 over its own
    E[s]^2: t3-min and t9-min share the Gaussian min-kernel value, the
    gauss-kernel t cells the gauss-kernel one.
    """
    if cells is None:
        cells = default_table_cells()
    grids = {d: domain_grid(d, grid_size, seed) for d in dict.fromkeys(c.domain for c in cells)}
    cases = [(c.spec, grids[c.domain]) for c in cells]
    return [
        TableRow(cell.label, _report(*case, *out, mc, seed), cell.reference)
        for cell, case, out in zip(cells, cases, _cells(cases, mc, seed))
    ]
