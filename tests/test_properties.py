"""Property tests: invariances of depth, quantiles and the monotonicity probe.

Examples are derandomized and no example database is kept, so every run
of the same suite checks the same cases.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from spatialfda import (
    Curve,
    DirectionU,
    FunctionalSample,
    Grid,
    KernelSpec,
    ProcessSpec,
    depth_profile,
    monotonicity_probe,
    pca,
    sample_process,
    solve_quantile,
)

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=30)
GRID = Grid.uniform(0.0, 1.0, 16)
BM = ProcessSpec(KernelSpec.brownian())

seeds = st.integers(0, 2**16)
sizes = st.integers(5, 40)
scales = st.integers(-20, 20).map(lambda k: 10.0**k)


def sample_and_queries(seed, n):
    """n BM curves, and six queries: three of the curves and three fresh ones."""
    data = sample_process(BM, GRID, n, seed=seed).values
    fresh = sample_process(BM, GRID, 3, seed=seed + 1).values
    return data, np.concatenate([data[:3], fresh])


def depths(data, queries):
    return np.array(depth_profile(FunctionalSample(GRID, data), FunctionalSample(GRID, queries)))


@PROPERTY
@given(seed=seeds, n=sizes, perm_seed=seeds)
def test_depth_invariant_under_permutation_of_the_sample(seed, n, perm_seed):
    data, queries = sample_and_queries(seed, n)
    perm = np.random.default_rng(perm_seed).permutation(n)
    np.testing.assert_allclose(
        depths(data[perm], queries), depths(data, queries), rtol=0.0, atol=1e-12
    )


@PROPERTY
@given(seed=seeds, n=sizes, level=st.floats(-10, 10), tilt=st.floats(-10, 10))
def test_depth_invariant_under_translation(seed, n, level, tilt):
    data, queries = sample_and_queries(seed, n)
    shift = level + tilt * GRID.points
    np.testing.assert_allclose(
        depths(data + shift, queries + shift), depths(data, queries), rtol=0.0, atol=1e-10
    )


@PROPERTY
@given(seed=seeds, n=sizes, scale=scales)
def test_depth_invariant_under_scaling(seed, n, scale):
    data, queries = sample_and_queries(seed, n)
    np.testing.assert_allclose(
        depths(data * scale, queries * scale), depths(data, queries), rtol=0.0, atol=1e-12
    )


@PROPERTY
@given(seed=seeds, n=sizes, scale=scales)
def test_monotonicity_flags_invariant_under_scaling(seed, n, scale):
    data, queries = sample_and_queries(seed, n)

    def probe(c):
        q = queries * c
        pairs = [(Curve(GRID, a), Curve(GRID, b)) for a, b in zip(q[:-1], q[1:])]
        pairs.append((Curve(GRID, q[0]), Curve(GRID, q[0])))
        return monotonicity_probe(FunctionalSample(GRID, data * c), pairs)

    base, scaled = probe(1.0), probe(scale)
    np.testing.assert_array_equal(scaled.degenerate, base.degenerate)
    assert scaled.violations == base.violations


@PROPERTY
@given(seed=seeds, n=sizes, scale=scales, k=st.integers(1, 3), c=st.floats(-0.6, 0.6))
def test_quantile_equivariant_under_scaling(seed, n, scale, k, c):
    data = sample_process(BM, GRID, n, seed=seed).values
    basis = pca(FunctionalSample(GRID, data), 3)
    u = DirectionU.along(k, c, 3)

    def curve(factor):
        return solve_quantile(FunctionalSample(GRID, data * factor), u, basis=basis).curve.values

    # both solves stop at gradient norm 1e-8, so they agree to ~1e-8, not bitwise
    base = curve(1.0)
    np.testing.assert_allclose(
        curve(scale) / scale, base, rtol=0.0, atol=1e-6 * np.max(np.abs(base))
    )
