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
    project,
    project_sample,
    sample_process,
    solve_quantile,
)
from spatialfda.efficiency import domain_grid

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


# laws of the quantile permutation property: BM and fBm on [0, 1], and the
# Gaussian kernel on the real-line grid of the efficiency table
LAWS = {
    "bm": (BM, GRID),
    "fbm": (ProcessSpec(KernelSpec.fractional_brownian(0.7)), GRID),
    "gauss-kernel": (ProcessSpec(KernelSpec.gaussian_kernel()), domain_grid("real-line", 16, 0)),
}


@PROPERTY
@given(
    law=st.sampled_from(sorted(LAWS)),
    seed=seeds,
    n=st.integers(10, 80),
    perm_seed=seeds,
    k=st.integers(1, 3),
    c=st.sampled_from([-0.5, 0.5]),
)
def test_quantile_invariant_under_permutation_of_the_sample(law, seed, n, perm_seed, k, c):
    # pca orients each phi_k by <phi_k, rho>_w > 0, so along(k, c) names the
    # same quantile whatever the order of the curves
    spec, grid = LAWS[law]
    data = sample_process(spec, grid, n, seed=seed).values
    perm = np.random.default_rng(perm_seed).permutation(n)

    def quantile(values):
        u = DirectionU.along(k, c, 3)
        return solve_quantile(FunctionalSample(grid, values), u, d=3).curve.values

    # both solves stop at gradient norm 1e-8, so they agree to ~1e-8, not bitwise
    np.testing.assert_allclose(
        quantile(data[perm]), quantile(data), rtol=0.0, atol=1e-6 * np.max(np.abs(data))
    )


def test_permuted_bm_sample_keeps_its_quantiles():
    # 20 BM samples of 400 curves on 50 points, each against a row
    # permutation of itself, flipped 11 of 100 unoriented eigenfunctions;
    # in this one phi_1 flipped and the along(1, 0.5) quantile moved by 0.879
    grid = Grid.uniform(0.0, 1.0, 50)
    sample = sample_process(BM, grid, 400, seed=11)
    permuted = FunctionalSample(grid, sample.values[np.random.default_rng(11).permutation(400)])
    np.testing.assert_allclose(
        pca(permuted, 5).functions, pca(sample, 5).functions, rtol=0.0, atol=1e-10
    )
    for k in range(1, 6):
        u = DirectionU.along(k, 0.5, 5)
        a = solve_quantile(sample, u, d=5).curve.values
        b = solve_quantile(permuted, u, d=5).curve.values
        assert np.sqrt(np.sum(grid.weights * (a - b) ** 2)) < 1e-10


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


@PROPERTY
@given(seed=seeds, n=sizes, k=st.integers(1, 3), c=st.floats(-0.6, 0.6), move_seed=seeds)
def test_quantile_equivariant_under_rotation_and_shift(seed, n, k, c, move_seed):
    # Q_{OX+c}(Ou) = O Q_X(u) + c for orthogonal O, in the working coefficients
    sample = sample_process(BM, GRID, n, seed=seed)
    basis = pca(sample, 3)
    X = project_sample(sample, basis)
    rng = np.random.default_rng(move_seed)
    O = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    shift = rng.normal(size=3)
    u = DirectionU.along(k, c, 3)

    def quantile(coefs, direction):
        s = FunctionalSample(GRID, coefs @ np.asarray(basis.functions))
        return project(solve_quantile(s, direction, basis=basis).curve, basis).values

    # both solves stop at gradient norm 1e-8, so they agree to ~1e-8, not bitwise
    base = quantile(X, u)
    moved = quantile(X @ O.T + shift, DirectionU(O @ u.coefficients))
    np.testing.assert_allclose(
        moved, O @ base + shift, rtol=0.0, atol=1e-6 * np.max(np.abs(X))
    )
