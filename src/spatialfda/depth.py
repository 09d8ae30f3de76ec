"""Spatial depth of curves and DD-plot data for two-sample comparison.

The spatial depth of x with respect to a sample is 1 - ||S_x||, where S_x is
the empirical spatial distribution at x. It lives in [0, 1], is maximal at
the sample spatial median and decays to zero along any ray leaving the data.
A DD-plot scores every observation of a pooled two-sample data set against
both empirical distributions; when the samples share a law the points hug
the 45 degree line, and systematic departures flag location, scale or shape
differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .funcspace import ByValue, Curve, FunctionalSample, check_same_grid
from .spatialdist import _sign_mean


def spatial_depth(x: Curve, sample: FunctionalSample) -> float:
    """Depth 1 - ||S_x|| of the curve x within the sample: a profile of one query."""
    return depth_profile(sample, FunctionalSample(x.grid, x.values[None, :]))[0]


def _batch_depth(queries: np.ndarray, data: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Depth 1 - ||S_q|| of each query row, ||S_q|| capped at 1."""
    signs = _sign_mean(queries, data, weights)
    norms = np.sqrt(np.sum(weights * signs * signs, axis=1))
    return 1.0 - np.minimum(norms, 1.0)


def depth_profile(sample: FunctionalSample, queries: FunctionalSample) -> list[float]:
    """Spatial depth of every query curve, in query order."""
    check_same_grid(queries.grid, sample.grid, "queries and sample live on different grids")
    vals = _batch_depth(queries.values, sample.values, sample.grid.weights)
    return [float(v) for v in vals]


@dataclass(frozen=True, eq=False)
class DDPlotData(ByValue):
    """Depth-vs-depth coordinates for a pooled two-sample data set.

    points has one row per pooled observation: column 0 is the depth with
    respect to the first sample, column 1 with respect to the second.
    source labels each row "sample1" or "sample2" by origin, preserving the
    input order (all of sample1 first).
    """

    points: np.ndarray
    source: tuple[str, ...]
    metadata: dict

    def __post_init__(self):
        super().__post_init__()
        pts = self.points
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError("points must be an (m, 2) array")
        if pts.shape[0] != len(self.source):
            raise ValueError("one source label per point required")
        if np.any(pts < 0.0) or np.any(pts > 1.0):
            raise ValueError("depth coordinates must lie in [0, 1]")
        object.__setattr__(self, "source", tuple(self.source))


def dd_plot(sample1: FunctionalSample, sample2: FunctionalSample) -> DDPlotData:
    """Depth coordinates of the pooled observations under both samples.

    Each pooled observation is scored against both empirical distributions
    as-is: an observation is not removed from its own sample, its own term
    simply contributes a zero sign vector. The metadata records this.
    """
    check_same_grid(sample1.grid, sample2.grid, "samples live on different grids")
    w = sample1.grid.weights
    pooled = np.concatenate([sample1.values, sample2.values], axis=0)
    d1 = _batch_depth(pooled, sample1.values, w)
    d2 = _batch_depth(pooled, sample2.values, w)
    labels = ("sample1",) * len(sample1) + ("sample2",) * len(sample2)
    meta = {
        "n1": len(sample1),
        "n2": len(sample2),
        "grid_size": sample1.grid.size,
        "own_observation": "included; contributes a zero sign term",
    }
    return DDPlotData(np.column_stack([d1, d2]), labels, meta)
