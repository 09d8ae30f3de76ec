import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from spatialfda import (
    Basis,
    Coefficients,
    ConvergenceError,
    Curve,
    DirectionU,
    FunctionalSample,
    Grid,
    KernelSpec,
    ProcessSpec,
    QuantileSolution,
    gradient,
    hessian,
    objective,
    orthonormalize,
    pca,
    project_sample,
    quantile_fan,
    read_sample,
    reconstruct,
    sample_process,
    solve_quantile,
    working_sample,
    write_sample,
)
from spatialfda.cli import main


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


@pytest.mark.parametrize("seed", range(6))
def test_one_dimensional_solves_start_at_the_order_statistic(seed):
    # the 1-D Hessian is zero, so Newton never applies; the order statistic
    # the solver starts from passes the first optimality test
    rng = np.random.default_rng([seed, 7])
    n = int(rng.integers(5, 60))
    a = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3)
    if seed % 2:
        a = a[rng.integers(0, n, n)]  # duplicated values
    s, basis = scalar_sample(a)
    data = project_sample(s, basis)
    for c in rng.uniform(-0.9, 0.9, 4):
        u = DirectionU(np.array([c]))
        sol = solve_quantile(s, u, basis=basis, d=1)
        assert sol.converged and sol.iterations == 1
        assert sol.anchored_at_datum is not None
        best = min(objective(Coefficients(x, basis), s, u) for x in data)
        assert objective(sol.coefficients, s, u) <= best + 1e-14 * np.abs(a).mean()


def test_one_dimensional_bahadur_path_solve_starts_at_the_order_statistic():
    # linearization and bahadur_split pass the solver no start; in 1-D with
    # u != 0 it takes the order statistic itself. n(1 + b)/2 = 140 is an
    # integer, so g is flat between order statistics 139 and 140; a median
    # start took 6 iterations to stop inside that segment.
    from spatialfda.quantile import _objective_raw, _solve_coeffs

    C = np.random.default_rng(0).standard_normal((200, 1))
    b, norms = np.array([0.4]), np.abs(C[:, 0])
    raw = _solve_coeffs(C, b, norms)
    assert raw.converged and raw.iterations == 1 and raw.anchored_at_datum is not None
    assert raw.q[0] == np.sort(C[:, 0])[140]
    best = min(_objective_raw(x, C, b, norms.mean()) for x in C)
    assert raw.objective <= best + 1e-15


def test_collinear_sample_starts_at_the_order_statistic():
    g = Grid.uniform(0.0, 1.0, 16)
    basis = orthonormalize(np.vstack([np.sin(np.pi * g.points), np.cos(np.pi * g.points)]), g)
    amps = np.random.default_rng(3).normal(size=24)
    s = FunctionalSample(g, amps[:, None] * np.asarray(basis.functions)[0][None, :])
    sol = solve_quantile(s, DirectionU.along(1, 0.4, 2), basis=basis, d=2)
    assert sol.degenerate and sol.converged and sol.iterations == 1
    # u = 0.4 along the line: order statistic floor(24 * 1.4 / 2) = 16 (0-based)
    expected = np.sort(amps)[16] * np.asarray(basis.functions)[0]
    np.testing.assert_allclose(sol.curve.values, expected, atol=1e-12)


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
    # the trace adds exact decreases to g(start), so it ends at the objective
    scale = np.linalg.norm(project_sample(s, sol.coefficients.basis), axis=1).mean()
    assert abs(tr[-1] - sol.objective) <= 1e-12 * scale


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
    # the working sample keeps the principal line, whatever center says
    for center in (True, False):
        work = working_sample(s, basis, 2, center)
        assert work.degenerate
        assert_same_solution(solve_quantile(work, DirectionU.along(2, 0.6, 2)), sol)
        assert_same_solution(solve_quantile(work), med)


def assert_same_solution(got, want):
    assert got.curve.values.tobytes() == want.curve.values.tobytes()
    assert got.coefficients.values.tobytes() == want.coefficients.values.tobytes()
    assert got.iterations == want.iterations
    assert got.objective == want.objective
    assert got.grad_norm == want.grad_norm
    assert got.anchored_at_datum == want.anchored_at_datum
    assert got.degenerate == want.degenerate


@pytest.mark.parametrize("center", [True, False])
def test_working_sample_solves_equal_sample_solves(center):
    s = bm_sample(120, D=30, seed=33)
    basis = pca(s, 6)
    work = working_sample(s, basis, 4, center)
    assert work.dimension == 4 and not work.degenerate
    directions = [DirectionU.zero(4)]
    directions += [DirectionU.along(k, c, 4) for k in (1, 3) for c in (0.4, -0.4)]
    for u in directions:
        want = solve_quantile(s, u, basis=basis, d=4, center=center)
        assert_same_solution(solve_quantile(work, u), want)
    # the default working sample is the default solve's: PCA, d = floor(sqrt(n))
    assert_same_solution(solve_quantile(working_sample(s)), solve_quantile(s))


def test_solve_depends_on_values_not_layout():
    # pca builds its functions transposed; a basis read from a file is row-major
    s = bm_sample(30, D=16, seed=3)
    basis = pca(s, 4)
    same = Basis(s.grid, np.ascontiguousarray(basis.functions), basis.eigenvalues)
    assert_same_solution(solve_quantile(s, basis=basis), solve_quantile(s, basis=same))
    column_major = FunctionalSample(s.grid, np.asfortranarray(s.values))
    assert_same_solution(solve_quantile(column_major), solve_quantile(s))


@pytest.mark.parametrize("name", ["basis", "d", "center"])
def test_working_sample_fixes_basis_d_and_center(name):
    s = bm_sample(30, seed=34)
    work = working_sample(s, d=3)
    value = {"basis": work.basis, "d": 3, "center": True}[name]
    with pytest.raises(ValueError):
        solve_quantile(work, **{name: value})
    with pytest.raises(ValueError):
        solve_quantile(work, DirectionU.zero(2))  # d is the working sample's


def test_cli_fan_rows_equal_per_direction_solves(tmp_path):
    path = tmp_path / "s.csv"
    write_sample(path, bm_sample(90, D=25, seed=35))
    specs = ["1:0", "1:0.5", "1:-0.5", "2:0.25,3:-0.3"]
    args = ["quantile", "--in", str(path), "--d", "4", "--out", str(tmp_path / "q.csv")]
    for spec in specs:
        args += ["--u-spec", spec]
    assert main(args) == 0
    rows, _ = read_sample(tmp_path / "q.csv")
    s, _ = read_sample(path)
    basis = pca(s, 4)
    us = [np.zeros(4), [0.5, 0, 0, 0], [-0.5, 0, 0, 0], [0, 0.25, -0.3, 0]]
    for row, uc in zip(rows.values, us, strict=True):
        want = solve_quantile(s, DirectionU(np.array(uc, float)), basis=basis, d=4)
        assert row.tobytes() == want.curve.values.tobytes()


def test_convergence_error_carries_last_iterate():
    s = bm_sample(50, seed=25)
    with pytest.raises(ConvergenceError) as err:
        solve_quantile(s, d=3, max_iter=1)
    last = err.value.last
    assert isinstance(last, QuantileSolution)
    assert last.iterations == 1
    assert not last.converged
    # the solver's centred iterate, moved to the caller's basis like a solution
    from spatialfda.quantile import _solve_coeffs

    work = working_sample(s, d=3)
    with pytest.raises(ConvergenceError) as raw:
        _solve_coeffs(work.data, np.zeros(3), work.norms, work.start, max_iter=1)
    q = raw.value.last.q
    assert last.coefficients.basis == work.basis
    assert np.array_equal(last.coefficients.values, q + work.offset)
    assert last.curve == work.mean + reconstruct(Coefficients(q, work.basis))


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
    from spatialfda.quantile import bahadur_split, linearization

    basis = pca(ref, 3)
    b = DirectionU.along(1, 0.25, 3).coefficients
    q_ref, J_inv = linearization(project_sample(ref, basis), b)
    residual, linear = bahadur_split(project_sample(s, basis), b, q_ref, J_inv)
    assert 0.0 < residual < linear


def test_bahadur_linear_term_is_the_mean_score():
    from spatialfda.quantile import bahadur_split, linearization

    basis = pca(bm_sample(3000, D=20, seed=43), 4)
    b = DirectionU.along(2, -0.3, 4).coefficients
    q_ref, J_inv = linearization(project_sample(bm_sample(3000, D=20, seed=44), basis), b)
    C = project_sample(bm_sample(200, D=20, seed=45), basis)
    diff = q_ref - C
    scores = diff / np.linalg.norm(diff, axis=1)[:, None] - b
    want = np.linalg.norm(J_inv @ scores.mean(axis=0))
    assert bahadur_split(C, b, q_ref, J_inv)[1] == pytest.approx(want, rel=1e-13, abs=0.0)


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


def trap_case(seed):
    """A BM solve of the stress recipe: n in 5..40, scale 10^+-2, u = c e_k, |c| <= 0.18."""
    rng = np.random.default_rng([seed, 99])
    n = rng.integers(5, 41)
    scale = 10 ** rng.uniform(-2, 2)
    k = int(rng.integers(1, 4))
    c = float(rng.uniform(-0.18, 0.18))
    sample = sample_process(ProcessSpec(KernelSpec.brownian()), Grid.uniform(0, 1, 16), n, seed)
    basis = pca(sample, 3)
    scaled = FunctionalSample(sample.grid, sample.values * scale)
    return scaled, basis, DirectionU.along(k, c, 3)


def assert_certified(sol, sample, u):
    """||grad|| <= 1e-8 off the data; on m coinciding data, ||reduced grad|| <= m/n."""
    C = project_sample(sample, sol.coefficients.basis)
    diff = sol.coefficients.values - C
    r = np.linalg.norm(diff, axis=1)
    on = r <= 1e-12 * np.linalg.norm(C, axis=1).max()
    grad = (diff[~on] / r[~on, None]).sum(axis=0) / len(C) - u.coefficients
    bound = on.sum() / len(C) + 1e-15 if on.any() else 1e-8
    assert np.linalg.norm(grad) <= bound


def nelder_mead_gain(sol, sample, u):
    """Decrease of g a Nelder-Mead polish finds from the solution, over the mean datum norm."""
    C = project_sample(sample, sol.coefficients.basis)
    scale = np.linalg.norm(C, axis=1).mean()

    def g(q):
        return np.mean(np.linalg.norm(C - q, axis=1)) - u.coefficients @ q

    q0 = sol.coefficients.values
    simplex = q0 + np.vstack([np.zeros(q0.size), 1e-3 * scale * np.eye(q0.size)])
    opts = {"initial_simplex": simplex, "xatol": 1e-15 * scale, "fatol": 0.0, "maxiter": 4000}
    polished = minimize(g, q0, method="Nelder-Mead", options=opts)
    return (g(q0) - polished.fun) / scale


def assert_solved(sol, sample, u):
    """Converged, certified, and no better point within reach of Nelder-Mead."""
    assert sol.converged
    assert_certified(sol, sample, u)
    assert nelder_mead_gain(sol, sample, u) <= 1e-12


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(5, 40),
    data=st.data(),
    c=st.floats(-0.2, 0.2),
    log_scale=st.floats(-2, 2),
)
def test_every_solve_ends_certified(seed, n, data, c, log_scale):
    d = data.draw(st.integers(1, min(5, n - 1)), label="d")
    u = DirectionU.along(data.draw(st.integers(1, d), label="k"), c, d)
    sample = sample_process(ProcessSpec(KernelSpec.brownian()), Grid.uniform(0, 1, 16), n, seed)
    basis = pca(sample, d)
    scaled = FunctionalSample(sample.grid, sample.values * 10.0**log_scale)
    assert_solved(solve_quantile(scaled, u, basis=basis, d=d), scaled, u)


@pytest.mark.parametrize("seed, n", [(314, 9), (1324, 9), (2203, 27), (2497, 7)])
def test_solver_is_not_trapped_near_a_datum(seed, n):
    # the iterates close in on a datum that is not optimal: the solver must
    # step onto it and off it, not stall beside it with a grad norm of 0.05
    # to 0.13
    sample, basis, u = trap_case(seed)
    assert len(sample) == n
    sol = solve_quantile(sample, u, basis=basis, d=3, track_objective=True)
    assert_solved(sol, sample, u)
    assert np.all(np.diff(sol.objective_trace) <= 0)


@pytest.mark.parametrize(
    "seed, n", [(75, 6), (770, 36), (1597, 35), (2021, 27), (2199, 19), (2602, 21), (2716, 9)]
)
def test_solver_does_not_stall_near_the_optimum(seed, n):
    # within ~2e-8 of the optimum g(q + s) - g(q) is below the rounding
    # level of g; a line search on differences of g halved the step to
    # nothing and stopped with the grad norm at 1.15e-8 to 1.98e-8
    sample, basis, u = trap_case(seed)
    assert len(sample) == n
    assert_solved(solve_quantile(sample, u, basis=basis, d=3), sample, u)


@pytest.mark.parametrize("factor", [1e-20, 1e20])
@pytest.mark.parametrize("seed", [314, 1324, 2203, 2497])
def test_datum_step_is_scale_free(seed, factor):
    # the step off a datum has the length of a Weiszfeld step, in data units
    sample, basis, u = trap_case(seed)
    base = solve_quantile(sample, u, basis=basis, d=3)
    scaled = FunctionalSample(sample.grid, sample.values * factor)
    sol = solve_quantile(scaled, u, basis=basis, d=3)
    assert sol.converged
    assert sol.iterations == base.iterations
    assert_certified(sol, scaled, u)
    err = np.max(np.abs(sol.curve.values / factor - base.curve.values))
    assert err <= 1e-12 * np.max(np.abs(base.curve.values))
