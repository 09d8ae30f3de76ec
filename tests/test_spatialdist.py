import tracemalloc
import warnings

import numpy as np
import pytest

from spatialfda import (
    Curve,
    FunctionalSample,
    Grid,
    GridMismatchError,
    KernelSpec,
    ProcessSpec,
    empirical_spatial_dist,
    monotonicity_probe,
    sample_process,
    sgn_hilbert,
)


def scalar_embedding(values):
    """Constant curves on a trivial 2-point grid with unit total weight.

    With this embedding the weighted norm of a constant curve equals the
    absolute value of the constant, so functional machinery reduces to the
    1-d case exactly.
    """
    g = Grid.custom(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
    vals = np.repeat(np.asarray(values, float)[:, None], 2, axis=1)
    return g, FunctionalSample(g, vals)


def test_sgn_hilbert_unit_norm_and_zero():
    g = Grid.uniform(0.0, 1.0, 50)
    x = Curve(g, np.sin(2 * np.pi * g.points) + 0.3)
    s = sgn_hilbert(x)
    from spatialfda import norm

    assert norm(s) == pytest.approx(1.0, abs=1e-12)
    zero = Curve(g, np.zeros(50))
    assert np.all(sgn_hilbert(zero).values == 0.0)
    tiny = Curve(g, np.full(50, 1e-14))
    assert np.all(sgn_hilbert(tiny, ref_scale=1.0).values == 0.0)


def test_one_dimensional_reduction_to_cdf():
    # in one dimension the spatial distribution is 2 F_hat(x) - 1
    rng = np.random.default_rng(11)
    data = rng.normal(size=400)
    g, sample = scalar_embedding(data)
    for xq in (-1.0, 0.0, 0.7, 2.0):
        sd = empirical_spatial_dist(Curve(g, np.array([xq, xq])), sample)
        expected = np.mean(np.sign(xq - data))
        assert sd.representation.values[0] == pytest.approx(expected, abs=1e-12)
        assert sd.norm == pytest.approx(abs(expected), abs=1e-12)


def test_coincident_query_contributes_zero():
    g = Grid.uniform(0.0, 1.0, 8)
    vals = np.zeros((3, 8))
    vals[1] = 1.0
    vals[2] = -1.0
    sample = FunctionalSample(g, vals)
    # query equals the first datum: that term drops out, the other two cancel
    sd = empirical_spatial_dist(Curve(g, np.zeros(8)), sample)
    assert sd.norm == pytest.approx(0.0, abs=1e-12)


def test_norm_capped_at_one_far_away():
    g = Grid.uniform(0.0, 1.0, 16)
    s = sample_process(ProcessSpec(KernelSpec.brownian()), g, 60, seed=4)
    far = Curve(g, np.full(16, 50.0))
    sd = empirical_spatial_dist(far, s)
    assert 0.99 < sd.norm <= 1.0


def test_grid_mismatch_raises():
    g1 = Grid.uniform(0.0, 1.0, 10)
    g2 = Grid.uniform(0.0, 1.0, 11)
    s = sample_process(ProcessSpec(KernelSpec.brownian()), g1, 5, seed=0)
    with pytest.raises(GridMismatchError):
        empirical_spatial_dist(Curve(g2, np.zeros(11)), s)


def test_monotonicity_probe_checks_its_pairs():
    g = Grid.uniform(0.0, 1.0, 16)
    s = sample_process(ProcessSpec(KernelSpec.brownian()), g, 30, seed=3)
    on = Curve(g, g.points)
    for off_grid in (Grid.uniform(0.0, 2.0, 16), Grid.uniform(0.0, 1.0, 12)):
        off = Curve(off_grid, off_grid.points)
        for pair in ((off, off), (on, off), (off, on)):
            with pytest.raises(GridMismatchError):
                monotonicity_probe(s, [(on, on), pair])
    with pytest.raises(ValueError, match="at least one pair"):
        monotonicity_probe(s, [])


def test_monotonicity_probe_no_violations_on_gaussian_sample():
    g = Grid.uniform(0.0, 1.0, 24)
    s = sample_process(ProcessSpec(KernelSpec.brownian()), g, 200, seed=21)
    rng = np.random.default_rng(77)
    pairs = []
    for _ in range(40):
        a = Curve(g, rng.normal(scale=0.5, size=24) * np.sqrt(g.points + 0.05))
        b = Curve(g, rng.normal(scale=0.5, size=24) * np.sqrt(g.points + 0.05))
        pairs.append((a, b))
    x = Curve(g, g.points * 0.3)
    pairs.append((x, x))  # degenerate pair
    rep = monotonicity_probe(s, pairs)
    assert rep.n_pairs == 41
    assert rep.violations == 0
    assert rep.degenerate[-1]
    assert rep.values[-1] == 0.0
    assert np.all(rep.values[:-1] > 0.0)


def test_sign_mean_chunk_invariance():
    # the internal chunking over queries must not change results; compare a
    # batched call against one-at-a-time evaluation
    g = Grid.uniform(0.0, 1.0, 12)
    s = sample_process(ProcessSpec(KernelSpec.brownian()), g, 35, seed=6)
    from spatialfda.spatialdist import _sign_mean

    rng = np.random.default_rng(1)
    queries = rng.normal(size=(7, 12))
    w = g.weights
    batch = _sign_mean(queries, s.values, w)
    singles = np.vstack([_sign_mean(q[None, :], s.values, w) for q in queries])
    np.testing.assert_array_equal(batch, singles)


BM = ProcessSpec(KernelSpec.brownian())


def direct_sign_mean(queries, data, w):
    """Per-pair reference: mean of (q - x) / ||q - x|| over the data, x != q."""
    out = np.zeros_like(queries)
    for i, q in enumerate(queries):
        diff = q - data
        r = np.sqrt(np.sum(diff * diff * w, axis=1))
        keep = r > 0.0
        out[i] = (diff[keep] / r[keep, None]).sum(axis=0) / len(data)
    return out


@pytest.mark.parametrize("shift,scale", [(0.0, 1.0), (1e6, 1.0), (0.0, 1e-6), (0.0, 1e6)])
def test_sign_mean_matches_direct_reference(shift, scale):
    from spatialfda.spatialdist import _sign_mean

    g = Grid.uniform(0.0, 1.0, 32)
    data = sample_process(BM, g, 300, seed=8).values * scale + shift
    queries = sample_process(BM, g, 37, seed=9).values * scale + shift
    got = _sign_mean(queries, data, g.weights)
    want = direct_sign_mean(queries, data, g.weights)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)


def test_coincident_and_duplicated_data_contribute_exactly_zero():
    from spatialfda.spatialdist import _sign_mean

    g = Grid.uniform(0.0, 1.0, 16)
    w = g.weights
    base = sample_process(BM, g, 40, seed=10).values
    # every datum coincides with the query: the sign mean is exactly zero
    same = np.repeat(base[:1], 6, axis=0)
    assert np.all(_sign_mean(base[:1], same, w) == 0.0)
    # queries equal to data rows that appear twice: both copies drop out
    data = np.vstack([base, base[:5]])
    got = _sign_mean(base[:3], data, w)
    np.testing.assert_allclose(got, direct_sign_mean(base[:3], data, w), rtol=0.0, atol=1e-12)


def test_near_pair_keeps_a_unit_sign():
    # a query 1e-7 (relative) away from a datum: the Gram identity alone
    # would lose most digits of that distance, so the pair must still give
    # a unit vector through the direct recomputation
    from spatialfda.spatialdist import _sign_mean

    g = Grid.uniform(0.0, 1.0, 16)
    w = g.weights
    data = sample_process(BM, g, 50, seed=12).values
    x = data[7]
    e = np.sin(np.pi * g.points)
    e /= np.sqrt(np.sum(e * e * w))
    q = x + 1e-7 * np.sqrt(np.sum(x * x * w)) * e
    total = _sign_mean(q[None, :], data, w)[0] * len(data)
    others = np.delete(data, 7, axis=0)
    near_term = total - direct_sign_mean(q[None, :], others, w)[0] * len(others)
    assert np.sqrt(np.sum(near_term * near_term * w)) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("scale", [1.0, 1e-20, 1e20])
def test_pair_within_the_relative_tolerance_contributes_zero(scale):
    # a query 1e-14 (relative) away from a datum coincides with it at any scale
    from spatialfda.spatialdist import _sign_mean

    g = Grid.uniform(0.0, 1.0, 16)
    w = g.weights
    data = sample_process(BM, g, 50, seed=12).values * scale
    x = data[7]
    e = np.sin(np.pi * g.points)
    e /= np.sqrt(np.sum(e * e * w))
    q = x + 1e-14 * np.sqrt(np.sum(x * x * w)) * e
    total = _sign_mean(q[None, :], data, w)[0] * len(data)
    others = np.delete(data, 7, axis=0)
    want = direct_sign_mean(q[None, :], others, w)[0] * len(others)
    np.testing.assert_allclose(total, want, rtol=0.0, atol=1e-10)


@pytest.mark.parametrize("offset", [-1, 0, 1, None])
def test_sign_mean_bitwise_independent_of_batch_split(offset):
    from spatialfda.spatialdist import _TILE, _sign_mean

    m = 2 * _TILE + 1 if offset is None else _TILE + offset
    g = Grid.uniform(0.0, 1.0, 32)
    w = g.weights
    data = sample_process(BM, g, 500, seed=13).values
    queries = sample_process(BM, g, m, seed=14).values.copy()
    queries[m // 2] = data[3]  # one coincident pair on the direct path
    batch = _sign_mean(queries, data, w)
    singles = np.vstack([_sign_mean(q[None, :], data, w) for q in queries])
    halves = np.vstack([_sign_mean(p, data, w) for p in np.array_split(queries, 2)])
    np.testing.assert_array_equal(batch, singles)
    np.testing.assert_array_equal(batch, halves)


def test_padded_queries_are_safe_when_a_datum_is_the_data_mean():
    # {x_i, -x_i, 0} on a dyadic lattice: the mean is exactly 0, and the
    # datum 0 sits on it, so a padded query with ||q||^2 = 0 would give
    # r^2 = 0 there and divide by zero
    from spatialfda.spatialdist import _TILE, _sign_mean

    g = Grid.uniform(0.0, 1.0, 16)
    w = g.weights
    half = np.round(sample_process(BM, g, 20, seed=15).values * 1024) / 1024
    data = np.vstack([half, -half, np.zeros((1, 16))])
    assert np.all(data.mean(axis=0) == 0.0)
    queries = sample_process(BM, g, _TILE + 3, seed=16).values  # last tile padded
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = _sign_mean(queries, data, w)
    np.testing.assert_allclose(got, direct_sign_mean(queries, data, w), rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("with_datum,calls", [(False, 0), (True, 1)])
def test_near_path_runs_only_in_tiles_with_a_near_pair(monkeypatch, with_datum, calls):
    from spatialfda import spatialdist
    from spatialfda.spatialdist import _TILE, _sign_mean

    g = Grid.uniform(0.0, 1.0, 32)
    w = g.weights
    data = sample_process(BM, g, 200, seed=17).values
    queries = sample_process(BM, g, 2 * _TILE, seed=18).values.copy()
    if with_datum:
        queries[_TILE + 5] = data[11]
    want = _sign_mean(queries, data, w)
    seen = []
    original = spatialdist._add_near_signs

    def counting(*args):
        seen.append(args)
        original(*args)

    monkeypatch.setattr(spatialdist, "_add_near_signs", counting)
    got = _sign_mean(queries, data, w)
    assert len(seen) == calls
    np.testing.assert_array_equal(got, want)


def test_sign_mean_workspace_is_bounded_by_the_tile():
    # ROADMAP aim 3: the kernel holds the centered data, two (n, _TILE) tile
    # buffers and O(m * D) for the queries and the result; a product over
    # all m queries at once would take 8 * n * m = 16 MB here
    from spatialfda.spatialdist import _TILE, _sign_mean

    g = Grid.uniform(0.0, 1.0, 100)
    data = sample_process(BM, g, 1000, seed=19).values
    queries = np.vstack([data, sample_process(BM, g, 1000, seed=20).values])
    (m, D), n = queries.shape, data.shape[0]
    tracemalloc.start()
    try:
        _sign_mean(queries, data, g.weights)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    slack = 64 * 1024  # index arrays of the near path and small per-call vectors
    assert peak < 8 * (n * (D + 2) + 2 * n * _TILE + 3 * m * D) + slack


@pytest.mark.parametrize("scale", [1.0, 1e-14, 1e-20, 1e20])
def test_monotonicity_probe_is_scale_free(scale):
    # the degeneracy test is relative to the pair's norms, so tiny samples
    # are still probed instead of being flagged degenerate throughout
    g = Grid.uniform(0.0, 1.0, 20)
    base_values = sample_process(BM, g, 50, seed=0).values

    def probe(c):
        v = base_values * c
        pairs = [(Curve(g, v[i]), Curve(g, v[i + 1])) for i in range(10)]
        pairs.append((Curve(g, v[0]), Curve(g, v[0])))
        return monotonicity_probe(FunctionalSample(g, v), pairs)

    base, scaled = probe(1.0), probe(scale)
    np.testing.assert_array_equal(scaled.degenerate, base.degenerate)
    assert list(base.degenerate) == [False] * 10 + [True]
    assert scaled.violations == base.violations
    np.testing.assert_allclose(scaled.values / scale, base.values, rtol=1e-12, atol=0.0)


def test_tiny_nonzero_inputs_keep_a_unit_sign():
    # no absolute floor: only the exact zero maps to the zero sign
    from spatialfda import norm

    g = Grid.uniform(0.0, 1.0, 50)
    assert norm(sgn_hilbert(Curve(g, np.full(50, 1e-14)))) == pytest.approx(1.0, abs=1e-12)


def test_spatial_dist_value_rejects_nan_norm():
    from spatialfda import SpatialDistValue

    with pytest.raises(ValueError):
        SpatialDistValue(Curve(Grid.uniform(0.0, 1.0, 2), np.zeros(2)), float("nan"))


def test_spatial_dist_value_rejects_a_bare_array():
    # a Curve field is left as given by ByValue, so an array would keep the
    # caller's writeable buffer and lose its grid
    from spatialfda import SpatialDistValue

    with pytest.raises(ValueError, match="Curve"):
        SpatialDistValue(np.array([0.25, 0.5]), 0.5)


def frame_blocks(grid, n, seed):
    """The KL-frame blocks that kl_coordinate_runs hands its reduce, copied."""
    from spatialfda.simulate import kl_coordinate_runs

    return [z for _, z in kl_coordinate_runs(BM, grid, [(n, seed)], np.copy)]


def frame_probes(grid, m, seed):
    from spatialfda.simulate import kl_coordinates

    return kl_coordinates(BM, grid, sample_process(BM, grid, m, seed=seed).values)


# at 128 points the frame has an off-span column; the grid's own weights
# take the weighted ||x||^2 instead of the frame's unweighted one
@pytest.mark.parametrize("size,unit", [(48, True), (128, True), (48, False)])
def test_prepared_probes_match_the_one_shot_kernel_on_frame_blocks(size, unit):
    from spatialfda.spatialdist import _CANCEL, SignQueries, _sign_mean

    g = Grid.uniform(0.0, 1.0, size)
    z = frame_blocks(g, 3000, 21)[0]
    w = np.ones(z.shape[1]) if unit else g.weights
    probes = frame_probes(g, 20, 22).copy()
    probes[3] = z[5]  # a coincident pair: its sign is zero
    e = np.zeros(z.shape[1])
    e[0] = 1.0 / np.sqrt(w[0])
    probes[11] = z[9] + 1e-3 * np.sqrt(z[9] @ (w * z[9])) * e  # inside the _CANCEL bound
    assert 1e-6 * (z[9] @ (w * z[9])) < _CANCEL * (probes[11] @ (w * probes[11]))
    got = SignQueries(probes, w).sums(z) / len(z)
    np.testing.assert_allclose(got, _sign_mean(probes, z, w), rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(got, direct_sign_mean(probes, z, w), rtol=0.0, atol=1e-12)


def test_prepared_tiles_agree_across_probe_splits():
    # 40 probes are two tiles of _TILE, the second padded; two sets of 20
    # are one unpadded tile each
    from spatialfda.spatialdist import _TILE, SignQueries

    g = Grid.uniform(0.0, 1.0, 64)
    z = frame_blocks(g, 2000, 23)[0]
    ones = np.ones(z.shape[1])
    probes = frame_probes(g, 40, 24)
    whole = SignQueries(probes, ones)
    halves = [SignQueries(p, ones) for p in np.split(probes, 2)]
    assert whole.tile == _TILE and whole.centred.shape[0] == 2 * _TILE
    assert [h.tile for h in halves] == [20, 20] and [h.centred.shape[0] for h in halves] == [20, 20]
    np.testing.assert_allclose(
        whole.sums(z), np.vstack([h.sums(z) for h in halves]), rtol=0.0, atol=1e-12 * len(z)
    )


@pytest.mark.parametrize("scale", [1e150, 1e-150])
def test_prepared_sign_means_are_scale_free(scale):
    from spatialfda.spatialdist import SignQueries

    g = Grid.uniform(0.0, 1.0, 64)
    z = frame_blocks(g, 2000, 25)[0]
    ones = np.ones(z.shape[1])
    probes = frame_probes(g, 20, 26).copy()
    probes[7] = z[13]  # the coincident pair stays coincident at any scale
    base = SignQueries(probes, ones).sums(z) / len(z)
    scaled = SignQueries(probes * scale, ones).sums(z * scale) / len(z)
    np.testing.assert_allclose(scaled, base, rtol=1e-12, atol=1e-12 * np.abs(base).max())


def test_prepared_block_is_evaluated_in_place():
    # at the origin a block is neither copied nor centred: the workspace is
    # the two (n, tile) buffers, a few n-vectors and the (m, D) sums
    from spatialfda.spatialdist import SignQueries

    g = Grid.uniform(0.0, 1.0, 128)
    z = frame_blocks(g, 4000, 27)[0]
    (n, D), probes = z.shape, frame_probes(g, 20, 28)
    prepared = SignQueries(probes, np.ones(D))
    z.flags.writeable = False
    tracemalloc.start()
    try:
        prepared.sums(z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    m, tile = len(probes), prepared.tile
    slack = 96 * 1024  # the broadcasts' iterator buffers and small per-call vectors
    assert peak < 8 * n * tile + n * tile + 8 * (3 * n + (D + 1) * tile + m * D) + slack
    assert peak < 8 * n * D / 2  # a copy of the block alone would exceed this
