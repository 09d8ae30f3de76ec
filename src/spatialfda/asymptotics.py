"""Monte Carlo studies of convergence rates for spatial statistics.

Three harnesses, all built on the same pattern: a large reference sample
stands in for the population, fresh samples of increasing size n are scored
against it over replications, and a least-squares line through the log-log
medians estimates the rate exponent.

  * gc_rate_study: worst-case error of the empirical spatial distribution
    over a finite probe set (a stand-in for a compact set of query points,
    such as probe_sample's paths); the expected slope is -1/2.
  * integrated_error_study: squared error integrated against the process
    law itself, approximated by averaging over probe_sample draws; the
    expected slope is -1.
  * bahadur_rate_study: norm of the quantile linearization remainder
    (estimate minus reference quantile plus inverse-Hessian-corrected mean
    score) against the norm of the linear term itself; the remainder decays
    strictly faster than n^{-1/2}, the linear term at n^{-1/2}.

All three score their (sample size, replicate) pairs in one fixed order,
and every pair has its own tagged substream of the study seed, so reports
are reproducible bit for bit.

The gc and integrated studies, and reference_spatial_dist, run in the
whitened KL frame of simulate (kl_coordinates): the probes are mapped into
it once, every reference and replicate path arrives as its r = min(k, D)
coordinates z = xi * sigma, plus a zero off-span column when r < D, and the
sign kernel runs there with unit weights. Distances, sign means and
||S_n - S|| are the grid's exactly, and no path is ever formed on the grid.

Threads. Every draw runs on simulate's one pipeline, coefficient_runs,
whose two worker threads draw chunks of coefficients and reduce each
sub-block where it is drawn. The gc and integrated studies and
reference_spatial_dist hand their runs (the reference first, then every
replicate in order) to kl_coordinate_runs, which reduces each sub-block to
its sum of signs against the probes; the calling thread only adds those
sums in order, so the first replicate's chunks are drawn while the
reference's last ones are reduced. probe_sample and the bahadur study's
reference and replicate draws go through sample_process, on the same
workers; the bahadur study's PCA, quantile solves and Bahadur splits run on
the calling thread. Each chunk's draw depends only on its substream, and
each sub-block's reduction only on its rows, so no output depends on those
threads.

Memory. Those three never hold a sample: the reference and each replicate
arrive as the sign sums of sub-blocks of about 1 MiB of coordinates, each
is added in as soon as it arrives, and each run is scored as soon as its
last one is in. The probes are prepared once per study (SignQueries, at
the frame's origin, in one tile for up to 32 probes) and shared by both
workers; each block is evaluated in place, with no centred copy, so each
worker holds one sub-block and the kernel's per-call workspace of two
(rows, tile) buffers and the probes' sums, O(min(k, D)) in n_ref and n.
Besides that the study holds the probes, the reference sign mean and at
most four chunks' sign sums. The bahadur study still holds all n_ref
reference paths on the grid, since its PCA and reference quantile need
the whole sample at once.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import ConditioningError, RankDeficiencyError
from .funcspace import Curve, FunctionalSample, Grid, norm, pca, project_sample
from .quantile import DirectionU, bahadur_split, default_dimension, linearization
from .simulate import (
    ProcessSpec,
    kl_coordinate_runs,
    kl_coordinates,
    kl_curves,
    sample_process,
    stream_seed,
)
from .spatialdist import SignQueries, SpatialDistValue

DEFAULT_N_REF = 100_000
DEFAULT_GC_PROBES = 20
DEFAULT_INT_PROBES = 200

# Substream tags within a study seed.
_TAG_REF = 0
_TAG_PROBES = 1
_TAG_DATA = 2


@dataclass(frozen=True)
class ReferenceSpatialDist:
    """Large-sample stand-in for the population spatial distribution.

    mc_error is the norm-level standard error sqrt((1 - ||S||^2) / n_ref)
    of the vector average, using that each summand is a unit (or zero)
    vector.
    """

    value: SpatialDistValue
    mc_error: float
    n_ref: int


def _frame_sign_means(spec: ProcessSpec, grid: Grid, coords: np.ndarray, runs):
    """Sign mean of each kl_coordinates row over the paths of each (n, seed) run.

    Yields one mean per run, in order, as soon as the run's last block is
    in. The probes are prepared once, at the frame's origin, which is the
    law's mean, and each block is reduced where kl_coordinate_runs draws it,
    in place, to its sum of signs: run i's mean is sum_b probes.sums(block_b)
    / n_i, and the paths are never held together.
    """
    probes = SignQueries(coords, np.ones(coords.shape[1]))
    blocks = kl_coordinate_runs(spec, grid, runs, probes.sums)
    for i, sums in itertools.groupby(blocks, key=operator.itemgetter(0)):
        yield sum(s for _, s in sums) / runs[i][0]


def probe_sample(spec: ProcessSpec, grid: Grid, n_probes: int, seed: int) -> FunctionalSample:
    """n_probes paths of a seed's probe substream; a larger draw extends a smaller one."""
    return sample_process(spec, grid, n_probes, stream_seed(seed, _TAG_PROBES))


def reference_spatial_dist(
    spec: ProcessSpec, x: Curve, n_ref: int = DEFAULT_N_REF, seed: int = 0
) -> ReferenceSpatialDist:
    """Spatial distribution at x under the spec, from n_ref simulated paths."""
    coords = kl_coordinates(spec, x.grid, x.values[None, :])
    [s] = _frame_sign_means(spec, x.grid, coords, [(n_ref, stream_seed(seed, _TAG_REF))])
    curve = Curve(x.grid, kl_curves(spec, x.grid, s, x.values[None, :])[0])
    val = SpatialDistValue(curve, min(norm(curve), 1.0))
    err = math.sqrt(max(0.0, 1.0 - val.norm**2) / n_ref)
    return ReferenceSpatialDist(val, err, n_ref)


def _check_design(n_values, replications: int) -> None:
    """The rules on a study's sample sizes and replicate count, for RateReport and every study."""
    if len(n_values) < 2:
        raise ValueError("need at least two sample sizes to fit a slope")
    if list(n_values) != sorted(set(n_values)):
        raise ValueError("n_values must be strictly increasing")
    if n_values[0] < 1:
        raise ValueError("sample sizes must be >= 1")
    if replications < 1:
        raise ValueError(f"need at least one replication, got {replications}")


@dataclass(frozen=True)
class RateReport:
    """Medians and fitted log-log slopes of one rate study.

    Only the fields of the study that produced the report are set; the
    others stay None. notes records study-specific context (probe counts,
    working dimension, the finite-probe caveat).
    """

    study: str
    n_values: tuple[int, ...]
    replications: int
    seed: int
    sup_errors: tuple[float, ...] | None = None
    integrated_errors: tuple[float, ...] | None = None
    residual_errors: tuple[float, ...] | None = None
    linear_errors: tuple[float, ...] | None = None
    fitted_slope_sup: float | None = None
    fitted_slope_int: float | None = None
    fitted_slope_residual: float | None = None
    fitted_slope_linear: float | None = None
    n_ref: int | None = None
    notes: str = ""

    def __post_init__(self):
        _check_design(self.n_values, self.replications)
        for name in ("sup_errors", "integrated_errors", "residual_errors", "linear_errors"):
            vals = getattr(self, name)
            if vals is None:
                continue
            if len(vals) != len(self.n_values):
                raise ValueError(f"{name} must have one entry per sample size")
            if any(v < 0.0 for v in vals):
                raise ValueError(f"{name} must be nonnegative")


def _fit_slope(n_values, medians) -> float:
    return float(np.polyfit(np.log(np.asarray(n_values, dtype=float)), np.log(medians), 1)[0])


def _data_runs(n_values, reps: int, seed: int) -> list[tuple[int, int]]:
    """(n, substream seed) of each (sample size, replicate) pair, sizes outermost."""
    return [
        (n, stream_seed(seed, _TAG_DATA, i_n, rep))
        for i_n, n in enumerate(n_values)
        for rep in range(reps)
    ]


def _sign_errors(
    spec: ProcessSpec, probes: FunctionalSample, n_values, reps: int, seed: int, n_ref: int
) -> np.ndarray:
    """Squared sign-mean error at each probe, indexed (size, replicate, probe).

    Reference and replicates are sign means in the KL frame of the probes,
    from one _frame_sign_means pass: the reference over n_ref paths of its
    substream first, then each (size, replicate) substream in order.
    """
    grid = probes.grid
    coords = kl_coordinates(spec, grid, probes.values)
    runs = [(n_ref, stream_seed(seed, _TAG_REF))] + _data_runs(n_values, reps, seed)
    means = _frame_sign_means(spec, grid, coords, runs)
    s_ref = next(means)
    sq = []
    for s in means:
        diff = s - s_ref
        sq.append(np.einsum("pc,pc->p", diff, diff))
    return np.array(sq).reshape(len(n_values), reps, -1)


def gc_rate_study(
    spec: ProcessSpec,
    K: FunctionalSample,
    n_values,
    reps: int,
    seed: int,
    n_ref: int = DEFAULT_N_REF,
) -> RateReport:
    """Worst-case spatial-distribution error over the probe set K.

    For each replicate and sample size n, draws n fresh paths, evaluates
    the empirical spatial distribution at every probe and records the
    largest norm distance to the reference values. Medians over replicates
    feed the slope fit; the expected exponent is -1/2. n_values or reps
    that RateReport would reject raise ValueError before any draw.
    """
    n_values = [int(n) for n in n_values]
    _check_design(n_values, reps)
    sq = _sign_errors(spec, K, n_values, reps, seed, n_ref)
    med = np.median(np.sqrt(sq.max(axis=2)), axis=1)
    return RateReport(
        study="gc",
        n_values=tuple(n_values),
        replications=reps,
        seed=int(seed),
        sup_errors=tuple(float(v) for v in med),
        fitted_slope_sup=_fit_slope(n_values, med),
        n_ref=n_ref,
        notes=f"max over {len(K)} probe curves stands in for a compact-set sup; "
        f"the finite-max vs true-sup gap is not estimated",
    )


def integrated_error_study(
    spec: ProcessSpec,
    grid: Grid,
    n_values,
    reps: int,
    seed: int,
    n_probes: int = DEFAULT_INT_PROBES,
    n_ref: int = DEFAULT_N_REF,
) -> RateReport:
    """Squared spatial-distribution error averaged over draws from the law.

    The integral of ||S_hat - S||^2 against the process law is approximated
    by an average over n_probes fresh probe paths, fixed across replicates.
    The expected log-log slope is -1. n_values or reps that RateReport
    would reject raise ValueError before any draw.
    """
    n_values = [int(n) for n in n_values]
    _check_design(n_values, reps)
    probes = probe_sample(spec, grid, n_probes, seed)
    sq = _sign_errors(spec, probes, n_values, reps, seed, n_ref)
    med = np.median(sq.mean(axis=2), axis=1)
    return RateReport(
        study="integrated",
        n_values=tuple(n_values),
        replications=reps,
        seed=int(seed),
        integrated_errors=tuple(float(v) for v in med),
        fitted_slope_int=_fit_slope(n_values, med),
        n_ref=n_ref,
        notes=f"integral against the process law approximated by {n_probes} fixed probe draws",
    )


def bahadur_rate_study(
    spec: ProcessSpec,
    grid: Grid,
    n_values,
    reps: int,
    seed: int,
    u: DirectionU | None = None,
    d: int | None = None,
    n_ref: int = DEFAULT_N_REF,
) -> RateReport:
    """Decay of the quantile linearization remainder versus its linear term.

    A reference sample of n_ref paths fixes the working basis (its PCA),
    the reference quantile and the inverse Hessian once. For each (n,
    replicate) sample, the quantile is solved in that basis and the
    estimation error is split into the linear score term and the remainder;
    the two norms are tracked on the same draws so their slopes are
    comparable.
    The remainder slope should sit strictly below -1/2, the linear term
    close to -1/2.

    Unlike the gc and integrated studies, this one holds all n_ref reference
    paths at once: the PCA and the reference quantile need the whole sample.
    The default d is default_dimension(max(n_values)), capped at the rank
    bound min(n_ref - 1, D) before the draw and, unless u fixes d, at the
    reference sample's numerical rank (pca's rule) after it. Raises
    ValueError for n_values or reps that RateReport would reject,
    ConditioningError for d = 1 (the default d when max(n_values) < 4) and
    RankDeficiencyError when an explicit d exceeds that bound, all before
    the reference draw.
    """
    n_values = [int(n) for n in n_values]
    _check_design(n_values, reps)
    cap_at_rank = d is None and u is None
    if d is None:
        d = max(1, min(default_dimension(max(n_values)), n_ref - 1, grid.size))
    if d < 2:  # checked before the draw, like the rank bound below
        raise ConditioningError(
            f"a Bahadur study needs working dimension d >= 2, got {d}: off the data "
            f"the one-dimensional Hessian of the quantile objective is zero, so there "
            f"is no J to invert"
        )
    if d > min(n_ref - 1, grid.size):  # pca's rank bound, checked before the draw
        raise RankDeficiencyError(
            f"requested {d} components from an {n_ref} x {grid.size} sample "
            f"(centered rank is at most min(n - 1, D))"
        )
    if u is not None and u.dimension != d:
        raise ValueError(f"direction has dimension {u.dimension}, expected {d}")
    ref_data = sample_process(spec, grid, n_ref, stream_seed(seed, _TAG_REF))
    basis = pca(ref_data, d, cap_at_rank=cap_at_rank)
    d = basis.dimension
    b = (DirectionU.zero(d) if u is None else u).coefficients
    q_ref, J_inv = linearization(project_sample(ref_data, basis), b)

    def score(n, stream):
        data = sample_process(spec, grid, n, stream)
        return bahadur_split(project_sample(data, basis), b, q_ref, J_inv)

    splits = np.array([score(n, stream) for n, stream in _data_runs(n_values, reps, seed)])
    res_med, lin_med = np.median(splits.reshape(len(n_values), reps, 2), axis=1).T
    return RateReport(
        study="bahadur",
        n_values=tuple(n_values),
        replications=reps,
        seed=int(seed),
        residual_errors=tuple(float(v) for v in res_med),
        linear_errors=tuple(float(v) for v in lin_med),
        fitted_slope_residual=_fit_slope(n_values, res_med),
        fitted_slope_linear=_fit_slope(n_values, lin_med),
        n_ref=n_ref,
        notes=f"working dimension {d} fixed across sample sizes; basis, reference "
        f"quantile and Hessian from the reference sample",
    )
