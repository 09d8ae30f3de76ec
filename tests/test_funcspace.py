import dataclasses
import tracemalloc

import numpy as np
import pytest

from spatialfda import (
    Basis,
    Coefficients,
    Curve,
    DDPlotData,
    DirectionU,
    FunctionalSample,
    Grid,
    GridMismatchError,
    KernelSpec,
    MonotonicityReport,
    ProcessSpec,
    QuantileSolution,
    RankDeficiencyError,
    SpatialDistValue,
    inner_product,
    mean_curve,
    norm,
    orthonormalize,
    pca,
    project,
    project_sample,
    reconstruct,
    total_variance,
)
from spatialfda.funcspace import ByValue


def test_uniform_grid_weights_sum_to_length():
    g = Grid.uniform(0.0, 1.0, 11)
    assert g.size == 11
    assert np.isclose(g.weights.sum(), 1.0)
    assert g.weights[0] == g.weights[-1] == g.weights[1] / 2


def test_uniform_grid_integrates_linear_exactly():
    # trapezoid rule is exact on degree-1 polynomials
    g = Grid.uniform(0.0, 2.0, 17)
    f = Curve(g, 3.0 * g.points + 1.0)
    one = Curve(g, np.ones(g.size))
    assert inner_product(f, one) == pytest.approx(8.0, abs=1e-12)


def test_gaussian_grid_is_deterministic_and_normalized():
    g1 = Grid.gaussian(50, seed=7)
    g2 = Grid.gaussian(50, seed=7)
    assert np.array_equal(g1.points, g2.points)
    assert np.allclose(g1.weights, 1.0 / 50)
    assert np.all(np.diff(g1.points) > 0)
    # different seed, different draw
    assert not np.array_equal(g1.points, Grid.gaussian(50, seed=8).points)


def test_gaussian_grid_moments_match_measure():
    # equal weights realize integration against N(0, 1/2)
    g = Grid.gaussian(4000, seed=1)
    assert float(np.sum(g.weights * g.points)) == pytest.approx(0.0, abs=0.05)
    assert float(np.sum(g.weights * g.points**2)) == pytest.approx(0.5, abs=0.05)


@pytest.mark.parametrize(
    "points,weights",
    [
        ([0.0], [1.0]),  # too short
        ([0.0, 0.0], [0.5, 0.5]),  # not increasing
        ([0.0, 1.0], [0.5, 0.0]),  # nonpositive weight
        ([0.0, 1.0], [1.0]),  # length mismatch
    ],
)
def test_grid_validation(points, weights):
    with pytest.raises((ValueError, GridMismatchError)):
        Grid.custom(np.array(points), np.array(weights))


@pytest.mark.parametrize(
    "points,weights",
    [
        ([0.0, np.inf], [1.0, np.inf]),
        ([0.0, 1.0], [0.5, np.inf]),
        ([-np.inf, 0.0], [0.5, 0.5]),
        ([0.0, np.nan], [0.5, 0.5]),
        ([0.0, 1.0], [np.nan, 0.5]),
    ],
)
def test_grid_rejects_non_finite_points_and_weights(points, weights):
    with pytest.raises(ValueError, match="must be finite"):
        Grid.custom(points, weights)


def test_grids_and_curves_compare_and_hash_by_value():
    a, b = Grid.uniform(0.0, 1.0, 5), Grid.uniform(0.0, 1.0, 5)
    assert a is not b and a == b and hash(a) == hash(b)
    assert {a: "unit"}[b] == "unit"
    for other in (Grid.uniform(0.0, 1.0, 6), Grid.uniform(0.0, 2.0, 5), Grid.custom(a.points, 2 * a.weights)):
        assert a != other
    # -0.0 and 0.0 are the same point
    neg = Grid.custom([-0.0, 1.0], [0.5, 0.5])
    pos = Grid.custom([0.0, 1.0], [0.5, 0.5])
    assert neg == pos and hash(neg) == hash(pos)
    c = Curve(a, np.arange(5.0))
    assert c == Curve(b, np.arange(5.0)) and hash(c) == hash(Curve(b, np.arange(5.0)))
    assert c != Curve(a, np.ones(5))
    assert c != Curve(Grid.uniform(0.0, 2.0, 5), np.arange(5.0))
    assert c != a


G3 = Grid.uniform(0.0, 1.0, 3)
UNIT_BASIS = Basis(G3, np.diag(1.0 / np.sqrt(G3.weights)))  # orthonormal under the grid weights

# Each builder puts z into an array field of a fresh value: 0.0 and -0.0 give
# equal values, 0.5 a changed one.
ARRAY_VALUES = {
    "Grid": lambda z: Grid(np.array([z, 1.0, 2.0]), np.array([0.5, 1.0, 0.5])),
    "Curve": lambda z: Curve(G3, np.array([z, 1.0, 2.0])),
    "KernelSpec": lambda z: KernelSpec.custom(np.array([[1.0, z], [z, 1.0]])),
    "ProcessSpec": lambda z: ProcessSpec(
        KernelSpec.min_kernel(), mean=Curve(G3, np.array([z, 1.0, 2.0]))
    ),
    "FunctionalSample": lambda z: FunctionalSample(G3, np.array([[z, 1.0, 2.0]])),
    "Basis": lambda z: Basis(G3, UNIT_BASIS.functions, np.array([2.0, 1.0, z])),
    "Coefficients": lambda z: Coefficients(np.array([z, 0.5, 0.25]), UNIT_BASIS),
    "DirectionU": lambda z: DirectionU(np.array([z, 0.5, 0.25])),
    "DDPlotData": lambda z: DDPlotData(
        np.array([[z, 0.5], [0.25, 1.0]]), ("sample1", "sample2"), {"n1": 1}
    ),
    "MonotonicityReport": lambda z: MonotonicityReport(
        np.array([z, 1.0]), np.array([True, False]), 0
    ),
    "SpatialDistValue": lambda z: SpatialDistValue(Curve(G3, np.array([z, 0.5, 0.25])), 0.5),
    "QuantileSolution": lambda z: QuantileSolution(
        Coefficients(np.array([z, 0.5, 0.25]), UNIT_BASIS),
        Curve(G3, np.array([z, 1.0, 2.0])),
        3,
        1e-9,
        -0.1,
        True,
    ),
}


@pytest.mark.parametrize("kind", sorted(ARRAY_VALUES))
def test_array_value_types_compare_and_hash_by_value(kind):
    build = ARRAY_VALUES[kind]
    a, b, neg, changed = build(0.0), build(0.0), build(-0.0), build(0.5)
    assert a is not b and a == b and a == neg and not a != b
    assert a != changed and not a == changed
    assert a != "a" and a != None  # noqa: E711 -- == never raises, whatever the other side
    if kind == "DDPlotData":  # its metadata is a dict
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) == hash(neg)


def held_arrays(value):
    """Every ndarray a value holds, through nested dataclass fields."""
    if isinstance(value, np.ndarray):
        yield value
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from held_arrays(getattr(value, f.name))


@pytest.mark.parametrize("kind", sorted(ARRAY_VALUES))
def test_array_value_types_hold_read_only_row_major_finite_arrays(kind):
    arrays = list(held_arrays(ARRAY_VALUES[kind](0.0)))
    assert arrays and all(not a.flags.writeable and a.flags.c_contiguous for a in arrays)
    with pytest.raises(ValueError, match="finite"):
        ARRAY_VALUES[kind](np.nan)


def test_every_by_value_type_is_in_the_array_table():
    def subclasses(cls):
        return {s for c in cls.__subclasses__() for s in {c} | subclasses(c)}

    assert {cls.__name__ for cls in subclasses(ByValue)} <= set(ARRAY_VALUES)


@pytest.mark.parametrize(
    "build",
    [
        lambda v: MonotonicityReport(v, np.array([False, False]), 0),
        lambda v: SpatialDistValue(Curve(Grid.uniform(0.0, 1.0, 2), v), 0.5),
        lambda v: Curve(Grid.uniform(0.0, 1.0, 2), v),
    ],
)
def test_a_callers_later_write_cannot_reach_a_value(build):
    v = np.array([0.25, 0.5])
    value = build(v)
    h = hash(value)
    v[0] = 5.0
    assert hash(value) == h and value == build(np.array([0.25, 0.5]))


def test_arrays_take_the_dtype_of_their_field_and_are_adopted_when_owned_read_only():
    vals, flags = np.array([0.25, 1.0]), np.array([True, False])
    vals.flags.writeable = flags.flags.writeable = False
    report = MonotonicityReport(vals, flags, 0)
    assert report.values is vals and report.degenerate is flags
    assert MonotonicityReport(np.ones(2), [1, 0], 0).degenerate.dtype == bool
    # a bool array in a float field holds numbers: True + True is 2
    doubled = 2.0 * Curve(Grid.uniform(0.0, 1.0, 2), flags)
    assert doubled.values.dtype == np.float64 and doubled.values.tolist() == [2.0, 0.0]


def test_basis_equality_skips_tol_and_tells_missing_eigenvalues_apart():
    f = UNIT_BASIS.functions
    loose = Basis(G3, f, tol=1e-6)
    assert loose == Basis(G3, f) and hash(loose) == hash(Basis(G3, f))
    assert Basis(G3, f) != Basis(G3, f, np.array([2.0, 1.0, 0.0]))


def test_curve_equality_and_hash_read_arrays_in_place():
    n = 10**6
    a = Curve(Grid.uniform(0.0, 1.0, n), np.linspace(-1.0, 1.0, n))
    b = Curve(Grid.uniform(0.0, 1.0, n), np.linspace(-1.0, 1.0, n))
    tracemalloc.start()
    try:
        assert hash(a) == hash(b) and a == b
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n  # less than one float copy of a field


@pytest.mark.parametrize("num", [1, 0, -3])
def test_uniform_grid_needs_two_points(num):
    # the step (b - a) / (num - 1) must not be formed first
    with pytest.raises(ValueError, match="at least 2 points"):
        Grid.uniform(0.0, 1.0, num)


def test_curve_arithmetic_requires_same_grid():
    a = Curve(Grid.uniform(0.0, 1.0, 5), np.ones(5))
    b = Curve(Grid.uniform(0.0, 1.0, 6), np.ones(6))
    with pytest.raises(GridMismatchError):
        _ = a + b


def test_curve_arithmetic():
    g = Grid.uniform(0.0, 1.0, 5)
    a = Curve(g, np.arange(5.0))
    b = Curve(g, np.ones(5))
    assert np.array_equal((a + b).values, np.arange(5.0) + 1)
    assert np.array_equal((a - b).values, np.arange(5.0) - 1)
    assert np.array_equal((2.0 * a).values, 2 * np.arange(5.0))
    assert np.array_equal((-a).values, -np.arange(5.0))


def test_norm_is_weighted():
    g = Grid.uniform(0.0, 1.0, 101)
    # ||sin(2 pi t)||_{L2[0,1]} = 1/sqrt(2)
    c = Curve(g, np.sin(2 * np.pi * g.points))
    assert norm(c) == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-3)


def test_sample_shape_checks():
    g = Grid.uniform(0.0, 1.0, 4)
    with pytest.raises(ValueError):
        FunctionalSample(g, np.zeros((0, 4)))
    with pytest.raises(GridMismatchError):
        FunctionalSample(g, np.zeros((3, 5)))
    s = FunctionalSample(g, np.arange(8.0).reshape(2, 4))
    assert len(s) == 2
    assert np.array_equal(s.curve(1).values, np.arange(4.0, 8.0))


@pytest.mark.parametrize("source", ["writeable", "view", "read-only view"])
def test_sample_copies_an_array_a_caller_can_still_write(source):
    g = Grid.uniform(0.0, 1.0, 4)
    base = np.arange(12.0).reshape(3, 4)
    vals = {"writeable": base, "view": base[1:], "read-only view": base[1:]}[source]
    if source == "read-only view":
        vals.flags.writeable = False
    s = FunctionalSample(g, vals)
    before = s.values.copy()
    base += 100.0
    assert np.array_equal(s.values, before)
    assert not s.values.flags.writeable


def test_sample_adopts_an_owned_read_only_array_and_still_checks_it():
    g = Grid.uniform(0.0, 1.0, 4)
    vals = np.arange(8.0).reshape(2, 4).copy()
    vals.flags.writeable = False
    assert FunctionalSample(g, vals).values is vals
    bad = np.zeros((2, 4))
    bad[1, 2] = np.nan
    bad.flags.writeable = False
    with pytest.raises(ValueError, match="finite"):
        FunctionalSample(g, bad)


def test_mean_and_total_variance():
    g = Grid.uniform(0.0, 1.0, 3)
    vals = np.array([[1.0, 0.0, 0.0], [3.0, 0.0, 0.0]])
    s = FunctionalSample(g, vals)
    assert np.array_equal(mean_curve(s).values, [2.0, 0.0, 0.0])
    # centered squared norms: w_0 * 1 = 0.25 each
    assert total_variance(s) == pytest.approx(0.25, abs=1e-12)


def test_basis_orthonormality_enforced():
    g = Grid.uniform(0.0, 1.0, 10)
    bad = np.vstack([np.ones(10), np.ones(10)])
    with pytest.raises(ValueError):
        Basis(g, bad)


def test_basis_eigenvalue_ordering_enforced():
    g = Grid.uniform(0.0, 1.0, 8)
    f = orthonormalize(np.vstack([np.ones(8), g.points]), g).functions
    with pytest.raises(ValueError):
        Basis(g, np.asarray(f), eigenvalues=np.array([1.0, 2.0]))


def test_orthonormalize_fixes_gram():
    g = Grid.uniform(0.0, 1.0, 30)
    rows = np.vstack([np.ones(30), g.points, g.points**2])
    b = orthonormalize(rows, g)
    f = np.asarray(b.functions)
    gram = (f * g.weights) @ f.T
    np.testing.assert_allclose(gram, np.eye(3), atol=1e-12)


def test_orthonormalize_rejects_more_rows_than_grid_points():
    g = Grid.uniform(0.0, 1.0, 4)
    rows = np.vstack([np.sin((k + 0.5) * np.pi * g.points) for k in range(5)])
    with pytest.raises(RankDeficiencyError):
        orthonormalize(rows, g)


def test_orthonormalize_rejects_proportional_rows():
    # QR would complete the span with a function orthogonal to both rows
    g = Grid.uniform(0.0, 1.0, 12)
    with pytest.raises(RankDeficiencyError):
        orthonormalize(np.vstack([g.points, -3.0 * g.points]), g)


def test_project_reconstruct_roundtrip():
    g = Grid.uniform(0.0, 1.0, 40)
    b = orthonormalize(np.vstack([np.ones(40), g.points, g.points**2]), g)
    target = Curve(g, 2.0 - g.points + 0.5 * g.points**2)
    coeffs = project(target, b)
    back = reconstruct(coeffs)
    # target lies in the span, so the round trip is (numerically) exact
    np.testing.assert_allclose(back.values, target.values, atol=1e-10)
    assert coeffs.norm() == pytest.approx(norm(target), abs=1e-10)


def test_pca_recovers_planted_components():
    # two orthonormal directions with variances 4 and 1, no noise
    rng = np.random.Generator(np.random.Philox(42))
    g = Grid.uniform(0.0, 1.0, 25)
    b = orthonormalize(
        np.vstack([np.sin(np.pi * g.points), np.cos(np.pi * g.points)]), g
    )
    f = np.asarray(b.functions)
    scores = rng.standard_normal((400, 2)) * np.array([2.0, 1.0])
    sample = FunctionalSample(g, scores @ f)
    basis = pca(sample, 2)
    lam = np.asarray(basis.eigenvalues)
    # oracle: eigenvalues of the empirical score covariance (divisor n)
    centered = scores - scores.mean(axis=0)
    expected = np.linalg.eigvalsh(centered.T @ centered / 400)[::-1]
    np.testing.assert_allclose(lam, expected, rtol=1e-10)
    # recovered directions stay inside the planted 2-dimensional span
    got = np.asarray(basis.functions)
    overlap = (got * g.weights) @ f.T
    np.testing.assert_allclose(overlap @ overlap.T, np.eye(2), atol=1e-8)


def test_pca_gram_and_covariance_paths_agree():
    rng = np.random.Generator(np.random.Philox(3))
    g = Grid.uniform(0.0, 1.0, 12)  # n > D -> covariance path
    vals = rng.standard_normal((30, 12))
    s = FunctionalSample(g, vals)
    b_cov = pca(s, 3)
    s_small = FunctionalSample(g, vals[:8])  # n < D -> Gram path
    b_gram = pca(s_small, 3)
    for b, src in ((b_cov, s), (b_gram, s_small)):
        f = np.asarray(b.functions)
        gram = (f * g.weights) @ f.T
        np.testing.assert_allclose(gram, np.eye(3), atol=1e-8)
        # eigenvalues match the score variances they claim to carry
        scores = project_sample(src, b)
        np.testing.assert_allclose(
            np.asarray(b.eigenvalues), scores.var(axis=0), rtol=1e-8
        )


def test_pca_dimension_precondition():
    g = Grid.uniform(0.0, 1.0, 6)
    s = FunctionalSample(g, np.random.default_rng(0).normal(size=(4, 6)))
    with pytest.raises(RankDeficiencyError):
        pca(s, 4)  # d must be <= n - 1


def test_pca_rank_deficiency_error():
    g = Grid.uniform(0.0, 1.0, 6)
    row = np.linspace(0.0, 1.0, 6)
    s = FunctionalSample(g, np.vstack([row, 2 * row, 3 * row, 4 * row]))
    with pytest.raises(RankDeficiencyError):
        pca(s, 3)  # centered rank is 1


def test_coefficients_validate_dimension():
    g = Grid.uniform(0.0, 1.0, 20)
    b = orthonormalize(np.vstack([np.ones(20), g.points]), g)
    with pytest.raises(ValueError):
        Coefficients(np.zeros(3), b)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_sample_rejects_non_finite_values(bad):
    g = Grid.uniform(0.0, 1.0, 4)
    vals = np.zeros((3, 4))
    vals[2, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        FunctionalSample(g, vals)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_curve_rejects_non_finite_values(bad):
    g = Grid.uniform(0.0, 1.0, 4)
    with pytest.raises(ValueError, match="finite"):
        Curve(g, np.array([0.0, 1.0, bad, 2.0]))
