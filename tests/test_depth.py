import numpy as np
import pytest

from spatialfda import (
    Curve,
    DDPlotData,
    FunctionalSample,
    Grid,
    GridMismatchError,
    KernelSpec,
    ProcessSpec,
    dd_plot,
    depth_profile,
    sample_process,
    solve_quantile,
    spatial_depth,
)


def bm_sample(n, D=20, seed=0):
    g = Grid.uniform(0.0, 1.0, D)
    return sample_process(ProcessSpec(KernelSpec.brownian()), g, n, seed=seed)


def test_depth_range_and_ray_decay():
    s = bm_sample(80, seed=1)
    g = s.grid
    direction = np.sqrt(g.points)  # roughly the scale of the data
    depths = []
    for t in (0.0, 0.5, 1.5, 4.0, 20.0):
        depths.append(spatial_depth(Curve(g, t * direction), s))
    assert all(0.0 <= d <= 1.0 for d in depths)
    # decays along the ray and is essentially zero far away
    assert all(a >= b for a, b in zip(depths[1:], depths[2:]))
    assert depths[-1] < 0.02
    assert depths[0] > depths[-1]


def test_median_maximizes_depth():
    s = bm_sample(120, seed=7)
    med = solve_quantile(s, d=5).curve
    d_med = spatial_depth(med, s)
    rng = np.random.default_rng(3)
    for _ in range(25):
        bump = rng.normal(scale=0.3, size=s.grid.size) * np.sqrt(s.grid.points + 0.02)
        assert spatial_depth(Curve(s.grid, med.values + bump), s) <= d_med + 1e-9
    # and the data points themselves do not beat it either
    profile = depth_profile(s, s)
    assert max(profile) <= d_med + 1e-9


def test_profile_matches_single_query_exactly():
    s = bm_sample(40, seed=11)
    queries = bm_sample(9, seed=12)
    prof = depth_profile(s, queries)
    one = [spatial_depth(Curve(s.grid, q), s) for q in queries.values]
    assert prof == one  # bit-for-bit, independent of internal batching


def test_profile_grid_mismatch():
    s = bm_sample(10, seed=2)
    q = bm_sample(3, D=21, seed=2)
    with pytest.raises(GridMismatchError):
        depth_profile(s, q)


def test_translation_scale_invariance():
    # spatial depth depends only on the geometry of x relative to the
    # sample, so moving or rescaling everything together changes nothing
    s = bm_sample(60, seed=21)
    g = s.grid
    x = Curve(g, 0.4 * np.sqrt(g.points))
    base = spatial_depth(x, s)
    shift = np.cos(2 * np.pi * g.points) + 1.5
    moved = FunctionalSample(g, s.values + shift)
    assert spatial_depth(Curve(g, x.values + shift), moved) == pytest.approx(
        base, abs=1e-10
    )
    scaled = FunctionalSample(g, 7.5 * s.values)
    assert spatial_depth(Curve(g, 7.5 * x.values), scaled) == pytest.approx(
        base, abs=1e-10
    )


def test_orthogonal_invariance():
    # a sign flip of the values is orthogonal for any grid weights
    s = bm_sample(60, seed=22)
    x = Curve(s.grid, 0.3 * np.sqrt(s.grid.points))
    flipped = FunctionalSample(s.grid, -s.values)
    assert spatial_depth(Curve(s.grid, -x.values), flipped) == pytest.approx(
        spatial_depth(x, s), abs=1e-12
    )


def test_dd_plot_self_comparison_is_diagonal():
    s = bm_sample(50, seed=31)
    dd = dd_plot(s, s)
    np.testing.assert_array_equal(dd.points[:, 0], dd.points[:, 1])
    assert dd.metadata["n1"] == dd.metadata["n2"] == 50
    assert dd.source[:50] == ("sample1",) * 50
    assert dd.source[50:] == ("sample2",) * 50


def test_dd_plot_shapes_and_validation():
    s1 = bm_sample(30, seed=41)
    s2 = bm_sample(20, seed=42)
    dd = dd_plot(s1, s2)
    assert dd.points.shape == (50, 2)
    assert not dd.points.flags.writeable
    assert np.all(dd.points >= 0.0) and np.all(dd.points <= 1.0)
    with pytest.raises(ValueError):
        DDPlotData(np.array([[0.5, 1.5]]), ("sample1",), {})
    with pytest.raises(ValueError):
        DDPlotData(np.zeros((2, 2)), ("sample1",), {})
    with pytest.raises(GridMismatchError):
        dd_plot(s1, bm_sample(5, D=21, seed=1))


def test_dd_plot_separates_different_scales():
    # second sample has twice the scale: its curves sit deeper in sample2
    # than in sample1 well away from the common center
    s1 = bm_sample(60, seed=51)
    s2 = FunctionalSample(s1.grid, 2.0 * bm_sample(60, seed=52).values)
    dd = dd_plot(s1, s2)
    pts2 = dd.points[60:]
    outer = pts2[np.argsort(pts2[:, 1])[-20:]]  # deepest in their own sample aside
    # count curves from sample2 that are deeper in sample2 than in sample1
    above = np.mean(pts2[:, 1] > pts2[:, 0])
    assert above > 0.7
    assert outer.shape == (20, 2)


@pytest.mark.parametrize("scale", [1e-20, 1e-14, 1e20])
def test_depth_scale_invariant_at_extreme_scales(scale):
    # the coincidence threshold has no absolute floor, so tiny samples keep
    # their depths instead of collapsing to 1
    s = bm_sample(50, seed=4)
    queries = np.concatenate([s.values[:3], bm_sample(3, seed=5).values])
    base = depth_profile(s, FunctionalSample(s.grid, queries))
    scaled = depth_profile(
        FunctionalSample(s.grid, s.values * scale),
        FunctionalSample(s.grid, queries * scale),
    )
    np.testing.assert_allclose(scaled, base, rtol=0.0, atol=1e-12)
