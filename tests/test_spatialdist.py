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
    empirical_spatial_dist_lp,
    monotonicity_probe,
    sample_process,
    sgn_hilbert,
    sgn_lp,
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


def test_sgn_lp_dual_norm_one():
    rng = np.random.default_rng(3)
    x = rng.normal(size=12)
    with pytest.deprecated_call():
        for p in (1.5, 2.0, 3.0, 7.0):
            s = sgn_lp(x, p)
            q = p / (p - 1.0)
            assert np.linalg.norm(s, ord=q) == pytest.approx(1.0, rel=1e-12)
            # the defining property: <s, x> = ||x||_p
            assert float(s @ x) == pytest.approx(np.linalg.norm(x, ord=p), rel=1e-12)
        # p = 2 recovers the Euclidean unit vector
        np.testing.assert_allclose(sgn_lp(x, 2.0), x / np.linalg.norm(x), atol=1e-14)
        assert np.all(sgn_lp(np.zeros(4), 2.5) == 0.0)
        with pytest.raises(ValueError):
            sgn_lp(x, 1.0)
        with pytest.raises(ValueError):
            sgn_lp(x, np.inf)


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


def test_lp_variant_matches_hilbert_for_p2_on_uniform_weights():
    rng = np.random.default_rng(9)
    data = rng.normal(size=(30, 6))
    x = rng.normal(size=6)
    with pytest.deprecated_call():
        sd = empirical_spatial_dist_lp(x, data, 2.0)
    signs = np.array([(x - row) / np.linalg.norm(x - row) for row in data])
    np.testing.assert_allclose(sd.representation, signs.mean(axis=0), atol=1e-12)
    assert sd.norm == pytest.approx(np.linalg.norm(signs.mean(axis=0)), abs=1e-12)


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
    with pytest.deprecated_call():
        assert np.linalg.norm(sgn_lp(np.array([1e-14, 0.0]), 3.0), ord=1.5) == pytest.approx(1.0)
    from spatialfda import norm

    g = Grid.uniform(0.0, 1.0, 50)
    assert norm(sgn_hilbert(Curve(g, np.full(50, 1e-14)))) == pytest.approx(1.0, abs=1e-12)


def test_sgn_lp_stays_finite_for_huge_inputs():
    x = np.array([10.0, 1.0])
    with pytest.deprecated_call():
        np.testing.assert_allclose(sgn_lp(1e200 * x, 3.0), sgn_lp(x, 3.0), rtol=0.0, atol=1e-14)


def test_spatial_dist_value_rejects_nan_norm():
    from spatialfda import SpatialDistValue

    with pytest.raises(ValueError):
        SpatialDistValue(np.zeros(2), float("nan"))
