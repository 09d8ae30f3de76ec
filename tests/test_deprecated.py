"""The deprecated public names: one DeprecationWarning per call, naming the
replacement, and otherwise the result they returned before, bit for bit.

Each case returns (what the deprecated call gives, what its replacement
gives). Where the replacement is a general path, the expectation is that
path; the l_p pair has none, so its expectations are the values the pair
returned before it was deprecated, on inputs where every step is exact.
"""

import dataclasses
import pickle
import warnings

import numpy as np
import pytest

from spatialfda import (
    BahadurReport,
    DirectionU,
    Grid,
    KernelSpec,
    ProcessSpec,
    SpatialDistValue,
    bahadur_residual,
    domain_grid,
    empirical_spatial_dist_lp,
    pca,
    project,
    project_sample,
    real_line_grid,
    sample_process,
    sgn_lp,
)
from spatialfda.quantile import bahadur_split, linearization

GRID = Grid.uniform(0.0, 1.0, 16)
BM = ProcessSpec(KernelSpec.brownian())


def _bahadur():
    ref = sample_process(BM, GRID, 600, seed=1)
    s = sample_process(BM, GRID, 80, seed=2)
    basis = pca(ref, 3)
    u = DirectionU.along(1, 0.2, 3)
    got = bahadur_residual(s, u, basis, 3, ref)
    q_ref, J_inv = linearization(project_sample(ref, basis), u.coefficients)
    split = bahadur_split(project_sample(s, basis), u.coefficients, q_ref, J_inv)
    return (type(got), dataclasses.astuple(got)), (BahadurReport, (*split, 80, 3, 600))


def _report():
    got = BahadurReport(0.25, 0.5, 80, 3, 600)
    return (type(got), dataclasses.astuple(got)), (BahadurReport, (0.25, 0.5, 80, 3, 600))


def _project():
    s = sample_process(BM, GRID, 30, seed=3)
    basis = pca(s, 5)
    return project(s.curve(0), basis, 2), project(s.curve(0), basis.truncated(2))


def _project_sample():
    s = sample_process(BM, GRID, 30, seed=3)
    basis = pca(s, 5)
    return project_sample(s, basis, 2), project_sample(s, basis.truncated(2))


CASES = {
    "sgn_lp": (
        lambda: (sgn_lp(np.array([3.0, -4.0]), 2.0), np.array([0.6, -0.8])),
        "use sgn_hilbert",
    ),
    "empirical_spatial_dist_lp": (
        lambda: (
            empirical_spatial_dist_lp(np.zeros(2), np.array([[-3.0, -4.0], [-3.0, 4.0]]), 2.0),
            SpatialDistValue(np.array([0.6, 0.0]), 0.6),
        ),
        "use empirical_spatial_dist,",
    ),
    "bahadur_residual": (_bahadur, "use linearization and bahadur_split"),
    "BahadurReport": (_report, "norms that bahadur_split returns"),
    "real_line_grid": (
        lambda: (real_line_grid(5, 30), domain_grid("real-line", 30, 5)),
        'use domain_grid("real-line", grid_size, seed)',
    ),
    "Grid.matches": (
        lambda: (GRID.matches(Grid.uniform(0.0, 1.0, 16)), GRID == Grid.uniform(0.0, 1.0, 16)),
        "use ==",
    ),
    "project(d=...)": (_project, "pass basis.truncated(d)"),
    "project_sample(d=...)": (_project_sample, "pass basis.truncated(d)"),
}


@pytest.mark.parametrize("name", list(CASES))
def test_deprecated_name_warns_once_and_returns_its_replacement_bitwise(name):
    case, replacement = CASES[name]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got, want = case()
    deprecations = [w for w in caught if issubclass(w.category, DeprecationWarning)]
    assert len(deprecations) == 1, [str(w.message) for w in deprecations]
    assert replacement in str(deprecations[0].message)
    assert deprecations[0].filename == __file__  # attributed to the caller
    assert pickle.dumps(got) == pickle.dumps(want)


def test_project_warns_only_when_d_is_passed():
    s = sample_process(BM, GRID, 30, seed=3)
    basis = pca(s, 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        project(s.curve(0), basis)
        project_sample(s, basis)
