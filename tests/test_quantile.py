import numpy as np
import pytest

from spatialfda import (
    Coefficients,
    ConvergenceError,
    Curve,
    DirectionU,
    FunctionalSample,
    Grid,
    KernelSpec,
    ProcessSpec,
    bahadur_residual,
    gradient,
    hessian,
    objective,
    orthonormalize,
    pca,
    quantile_fan,
    sample_process,
    solve_quantile,
)


def bm_sample(n, D=20, seed=0):
    g = Grid.uniform(0.0, 1.0, D)
    return sample_process(ProcessSpec(KernelSpec.brownian()), g, n, seed=seed)


def scalar_sample(values):
    """Constant curves on a two-point unit-mass grid; norms equal |value|."""
    g = Grid.custom(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
    vals = np.repeat(np.asarray(values, float)[:, None], 2, axis=1)
    basis = orthonormalize(np.ones((1, 2)), g)
    return FunctionalSample(g, vals), basis


def test_direction_validation():
    DirectionU(np.array([0.3, -0.4]))
    with pytest.raises(ValueError):
        DirectionU(np.array([0.8, 0.6]))  # norm exactly 1
    with pytest.raises(ValueError):
        DirectionU(np.array([[0.1]]))
    u = DirectionU.along(2, -0.5, 3)
    np.testing.assert_array_equal(u.coefficients, [0.0, -0.5, 0.0])
    assert DirectionU.zero(4).norm == 0.0


def test_gradient_matches_finite_differences():
    s = bm_sample(40, seed=3)
    basis = pca(s, 3)
    rng = np.random.default_rng(14)
    for _ in range(5):
        qv = rng.normal(scale=0.8, size=3)
        uc = rng.normal(size=3)
        uc *= 0.6 / np.linalg.norm(uc)
        u = DirectionU(uc)
        Q = Coefficients(qv, basis)
        an = gradient(Q, s, u).values
        h = 1e-6
        fd = np.empty(3)
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            fp = objective(Coefficients(qv + e, basis), s, u)
            fm = objective(Coefficients(qv - e, basis), s, u)
            fd[j] = (fp - fm) / (2 * h)
        np.testing.assert_allclose(fd, an, rtol=1e-5, atol=1e-7)


def test_hessian_matches_finite_differences():
    s = bm_sample(40, seed=5)
    basis = pca(s, 3)
    rng = np.random.default_rng(15)
    u = DirectionU.zero(3)
    for _ in range(3):
        qv = rng.normal(scale=0.8, size=3)
        H = hessian(Coefficients(qv, basis), s)
        np.testing.assert_allclose(H, H.T, atol=1e-14)
        h = 1e-5
        fd = np.empty((3, 3))
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            gp = gradient(Coefficients(qv + e, basis), s, u).values
            gm = gradient(Coefficients(qv - e, basis), s, u).values
            fd[:, j] = (gp - gm) / (2 * h)
        np.testing.assert_allclose(fd, H, rtol=1e-4, atol=1e-6)


def test_gradient_refuses_data_points():
    s = bm_sample(10, seed=1)
    basis = pca(s, 2)
    from spatialfda.funcspace import project_sample

    C = project_sample(s, basis)
    with pytest.raises(ValueError):
        gradient(Coefficients(C[4].copy(), basis), s, DirectionU.zero(2))
    with pytest.raises(ValueError):
        hessian(Coefficients(C[4].copy(), basis), s)


def test_median_of_symmetric_configuration():
    # five points: a cross centered at the origin plus its center; the
    # center is a datum and exactly optimal, so the solver anchors there
    g = Grid.custom(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
    e1 = np.array([np.sqrt(2.0), 0.0])
    e2 = np.array([0.0, np.sqrt(2.0)])
    pts = np.array([[0, 0], [1, 0], [-1, 0], [0, 1], [0, -1]], dtype=float)
    vals = pts @ np.vstack([e1, e2])
    s = FunctionalSample(g, vals)
    basis = orthonormalize(np.vstack([e1, e2]), g)
    sol = solve_quantile(s, basis=basis, d=2)
    assert sol.converged
    assert sol.anchored_at_datum == 0
    np.testing.assert_allclose(sol.curve.values, 0.0, atol=1e-12)


def test_one_dimensional_quantile_brackets_sort_quantile():
    rng = np.random.default_rng(23)
    a = rng.normal(size=201)
    s, basis = scalar_sample(a)
    for tau in (0.1, 0.25, 0.5, 0.8):
        u = DirectionU(np.array([2.0 * tau - 1.0]))
        sol = solve_quantile(s, u, basis=basis, d=1)
        q = sol.curve.values[0]
        frac_below = np.mean(a <= q + 1e-12)
        assert abs(frac_below - tau) <= 1.5 / a.size
    # tau = 0.5 with an odd sample returns the middle order statistic
    sol = solve_quantile(s, DirectionU.zero(1), basis=basis, d=1)
    assert sol.curve.values[0] == pytest.approx(np.median(a), abs=1e-9)


def test_translation_equivariance():
    s = bm_sample(60, seed=9)
    shift = Curve(s.grid, 2.0 + np.sin(3 * s.grid.points))
    shifted = FunctionalSample(s.grid, s.values + shift.values)
    u = DirectionU.along(1, 0.4, 4)
    sol = solve_quantile(s, u, d=4)
    sol2 = solve_quantile(shifted, u, d=4)
    np.testing.assert_allclose(
        sol2.curve.values, sol.curve.values + shift.values, atol=1e-7
    )


def test_scale_equivariance_with_fixed_basis():
    s = bm_sample(60, seed=10)
    basis = pca(s, 4)
    scaled = FunctionalSample(s.grid, 3.0 * s.values)
    u = DirectionU.along(2, -0.3, 4)
    sol = solve_quantile(s, u, basis=basis, d=4)
    sol2 = solve_quantile(scaled, u, basis=basis, d=4)
    np.testing.assert_allclose(sol2.curve.values, 3.0 * sol.curve.values, atol=1e-7)


def test_basis_permutation_equivariance():
    # permuting the basis functions is an orthogonal change of coordinates;
    # the fitted curve must not change when u is permuted the same way
    s = bm_sample(50, seed=12)
    basis = pca(s, 3)
    swapped = orthonormalize(np.asarray(basis.functions)[[1, 0, 2]], s.grid)
    sol = solve_quantile(s, DirectionU.along(1, 0.35, 3), basis=basis, d=3)
    sol2 = solve_quantile(s, DirectionU.along(2, 0.35, 3), basis=swapped, d=3)
    np.testing.assert_allclose(sol2.curve.values, sol.curve.values, atol=1e-7)


def test_solution_is_local_minimum():
    s = bm_sample(80, seed=17)
    u = DirectionU.along(1, 0.5, 5)
    sol = solve_quantile(s, u, d=5, center=False)
    assert sol.converged
    assert sol.grad_norm <= 1e-7
    f0 = objective(sol.coefficients, s, u)
    assert f0 == pytest.approx(sol.objective, abs=1e-10)
    rng = np.random.default_rng(2)
    for _ in range(8):
        dq = rng.normal(size=5) * 0.05
        f1 = objective(
            Coefficients(sol.coefficients.values + dq, sol.coefficients.basis), s, u
        )
        assert f1 >= f0 - 1e-12


def test_objective_trace_monotone():
    s = bm_sample(70, seed=19)
    sol = solve_quantile(s, d=4, track_objective=True)
    tr = np.asarray(sol.objective_trace)
    assert tr.size >= 2
    assert np.all(np.diff(tr) <= 1e-12)


def test_degenerate_collinear_sample():
    g = Grid.uniform(0.0, 1.0, 16)
    f1 = np.sin(np.pi * g.points)
    f2 = np.cos(np.pi * g.points)
    basis = orthonormalize(np.vstack([f1, f2]), g)
    amps = np.array([-2.0, -0.5, 0.1, 1.2, 3.0])  # odd count, distinct
    vals = amps[:, None] * np.asarray(basis.functions)[0][None, :]
    s = FunctionalSample(g, vals)
    sol = solve_quantile(s, DirectionU.along(2, 0.6, 2), basis=basis, d=2)
    assert sol.degenerate
    # off-line direction component is ignored; the median of the amplitudes wins
    med = solve_quantile(s, basis=basis, d=2)
    np.testing.assert_allclose(sol.curve.values, med.curve.values, atol=1e-8)
    expected = np.median(amps) * np.asarray(basis.functions)[0]
    np.testing.assert_allclose(med.curve.values, expected, atol=1e-8)


def test_convergence_error_carries_last_iterate():
    s = bm_sample(50, seed=25)
    with pytest.raises(ConvergenceError) as err:
        solve_quantile(s, d=3, max_iter=1)
    last = err.value.last
    assert last.iterations == 1
    assert not last.converged


def test_fan_layout_and_ordering():
    s = bm_sample(400, D=25, seed=31)
    fan = quantile_fan(s, ks=[1, 2], cs=[0.25, 0.5], d=4)
    assert len(fan.entries) == 8
    labels = [(e.k, e.c) for e in fan.entries]
    assert labels == [
        (1, 0.25),
        (1, -0.25),
        (1, 0.5),
        (1, -0.5),
        (2, 0.25),
        (2, -0.25),
        (2, 0.5),
        (2, -0.5),
    ]
    assert all(e.solution.converged for e in fan.entries)
    # projection of the displacement from the median onto phi_k grows with c
    basis = pca(s, 4)
    w = s.grid.weights
    med = fan.median.curve.values

    def proj(entry):
        f = np.asarray(basis.functions)[entry.k - 1]
        return float(np.sum(w * f * (entry.solution.curve.values - med)))

    by = {(e.k, e.c): proj(e) for e in fan.entries}
    for k in (1, 2):
        assert 0.0 < by[(k, 0.25)] < by[(k, 0.5)]
        assert by[(k, -0.5)] < by[(k, -0.25)] < 0.0


def test_bahadur_report_smaller_residual():
    ref = bm_sample(4000, D=20, seed=41)
    s = bm_sample(150, D=20, seed=42)
    basis = pca(ref, 3)
    rep = bahadur_residual(s, DirectionU.along(1, 0.25, 3), basis, 3, ref)
    assert rep.n == 150
    assert rep.d == 3
    assert rep.reference_n == 4000
    assert 0.0 < rep.residual_norm < rep.linear_term_norm


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_direction_rejects_non_finite(bad):
    with pytest.raises(ValueError):
        DirectionU(np.array([bad, 0.0]))


@pytest.mark.parametrize("scale", [1e-20, 1e-14, 1e20])
def test_quantiles_scale_equivariant_at_extreme_scales(scale):
    # every test of the solver is relative; with an absolute zero floor the
    # tiny-scale solves stopped after one iteration, anchored at a datum
    s = bm_sample(50, seed=0)
    basis = pca(s, 5)
    scaled = FunctionalSample(s.grid, scale * s.values)
    for u in (DirectionU.zero(5), DirectionU.along(1, 0.5, 5)):
        base = solve_quantile(s, u, basis=basis, d=5)
        sol = solve_quantile(scaled, u, basis=basis, d=5)
        assert base.anchored_at_datum is None
        assert sol.anchored_at_datum is None
        err = np.max(np.abs(sol.curve.values / scale - base.curve.values))
        assert err <= 1e-12 * np.max(np.abs(base.curve.values))
