import math
import tracemalloc
import zlib

import numpy as np
import pytest

from spatialfda import (
    EfficiencyReport,
    Grid,
    KernelSpec,
    ProcessSpec,
    TableCell,
    are,
    default_table_cells,
    domain_grid,
    efficiency_table,
    sigma_trace,
    v0_estimate,
)
from spatialfda import efficiency
from spatialfda.efficiency import _TAG_CELL_BASE, _TAG_GRID, _TAG_J, _TAG_LAMBDA
from spatialfda.simulate import CHUNK, _kl_system, coefficient_chunks, stream_seed


def t_factor(df):
    """ARE(t law) / ARE(Gaussian twin) = df/(df-2) * E[s]^2, s = sqrt(W/df), W ~ chi2(df)."""
    mean_s = math.sqrt(2.0 / df) * math.gamma((df + 1) / 2) / math.gamma(df / 2)
    return df / (df - 2) * mean_s**2


def full_sandwich(spec, grid, mc, seed):
    """trace(J^-1 Lambda J^-1) from full D x D Monte Carlo matrices of whitened
    paths y @ tilde, on the same two tagged streams as v0_estimate."""
    kl = _kl_system(spec, grid)
    scales, functions = kl.scales, kl.functions
    tilde = scales[:, None] * functions * np.sqrt(grid.weights)
    D, k = grid.size, scales.size
    J, Lam = np.zeros((D, D)), np.zeros((D, D))
    for y in coefficient_chunks(spec, mc, k, stream_seed(seed, _TAG_J)):
        x = y @ tilde
        r = np.linalg.norm(x, axis=1)
        m = x / r[:, None] ** 1.5
        J += np.sum(1.0 / r) * np.eye(D) - m.T @ m
    for y in coefficient_chunks(spec, mc, k, stream_seed(seed, _TAG_LAMBDA)):
        x = y @ tilde
        v = x / np.linalg.norm(x, axis=1)[:, None]
        Lam += v.T @ v
    J_inv = np.linalg.inv(J / mc)
    return float(np.trace(J_inv @ (Lam / mc) @ J_inv))


def test_sigma_trace_closed_forms():
    g = Grid.uniform(0.0, 1.0, 200)
    # integral of t over [0, 1]; the trapezoid rule is exact on linear diagonals
    bm = ProcessSpec(KernelSpec.brownian())
    assert sigma_trace(bm, g) == pytest.approx(0.5, abs=1e-15)
    # integral of t^(2H) is 1/(2H + 1), up to quadrature error
    for H in (0.2, 0.7):
        fbm = ProcessSpec(KernelSpec.fractional_brownian(H))
        assert sigma_trace(fbm, g) == pytest.approx(1.0 / (2 * H + 1), abs=2e-3)
    # student-t inflates the trace by r / (r - 2): 3 for df = 3
    t3 = ProcessSpec(KernelSpec.min_kernel(), "student-t", df=3)
    assert sigma_trace(t3, g) == pytest.approx(1.5, abs=1e-12)


def test_sigma_trace_mc_agrees_with_closed_form():
    g = Grid.uniform(0.0, 1.0, 40)
    spec = ProcessSpec(KernelSpec.brownian())
    exact = sigma_trace(spec, g)
    mc = sigma_trace(spec, g, mc=40_000, seed=3)
    assert mc == pytest.approx(exact, rel=0.02)


def test_real_line_domain_grid_properties():
    g = domain_grid("real-line", 150, 5)
    assert g.size == 150
    assert np.all(np.diff(g.points) > 0)
    np.testing.assert_allclose(g.weights, 1.0 / 150)
    assert np.array_equal(g.points, domain_grid("real-line", 150, 5).points)


def test_domain_grid():
    for domain, expected in (
        ("unit-interval", Grid.uniform(0.0, 1.0, 30)),
        ("real-line", Grid.gaussian(30, seed=stream_seed(5, _TAG_GRID))),
    ):
        g = domain_grid(domain, 30, 5)
        assert np.array_equal(g.points, expected.points)
        assert np.array_equal(g.weights, expected.weights)
    with pytest.raises(ValueError, match="domain"):
        domain_grid("half-line", 30, 5)


def test_report_invariants():
    with pytest.raises(ValueError):
        EfficiencyReport(1.0, 2.0, 0.7, {}, 10, 100, 0)  # are field wrong
    with pytest.raises(ValueError):
        EfficiencyReport(-1.0, 2.0, -0.5, {}, 10, 100, 0)
    rep = EfficiencyReport(1.0, 2.0, 0.5, {"kernel": "brownian"}, 10, 100, 0)
    assert rep.are == 0.5


def test_are_gaussian_brownian_near_theory():
    # for a Gaussian process the ratio is below 1 and not far from it; this
    # configuration is part of the standard table, where the independently
    # reported value is 0.83
    g = Grid.uniform(0.0, 1.0, 100)
    rep = are(ProcessSpec(KernelSpec.brownian()), g, mc=30_000, seed=2)
    assert 0.75 < rep.are < 0.90
    assert rep.process["kernel"] == "brownian"
    assert rep.mc_size == 30_000
    assert rep.D == 100


def test_are_heavy_tails_beat_the_mean():
    # with df = 3 the median-type estimator wins by better than 2 to 1
    g = Grid.uniform(0.0, 1.0, 60)
    rep = are(
        ProcessSpec(KernelSpec.min_kernel(), "student-t", df=3), g, mc=30_000, seed=4
    )
    assert rep.are > 1.7


def test_v0_estimate_deterministic_and_seed_sensitive():
    g = Grid.uniform(0.0, 1.0, 30)
    spec = ProcessSpec(KernelSpec.brownian())
    a = v0_estimate(spec, g, mc=5000, seed=9)
    assert a == v0_estimate(spec, g, mc=5000, seed=9)
    assert a != v0_estimate(spec, g, mc=5000, seed=10)
    with pytest.raises(ValueError):
        v0_estimate(spec, g, mc=0, seed=1)


def test_v0_estimate_works_in_one_chunk_of_normals():
    g = Grid.uniform(0.0, 1.0, 200)
    spec = ProcessSpec(KernelSpec.fractional_brownian(0.7))  # k = D = 200 coefficients
    tracemalloc.start()
    try:
        v0_estimate(spec, g, mc=3 * CHUNK, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * CHUNK * g.size * 8


def test_sandwich_independent_of_overall_scale():
    # J scales like 1/s, Lambda is scale free, so trace(V0) scales like s^2
    # and the ratio is scale invariant; realize the scaling through a
    # custom kernel equal to 4 * min(s, t)
    g = Grid.uniform(0.0, 1.0, 25)
    base = ProcessSpec(KernelSpec.min_kernel())
    k4 = KernelSpec.custom(4.0 * KernelSpec.min_kernel().evaluate(g.points))
    scaled = ProcessSpec(k4)
    r1 = are(base, g, mc=20_000, seed=6)
    r2 = are(scaled, g, mc=20_000, seed=6)
    assert r2.trace_sigma == pytest.approx(4.0 * r1.trace_sigma, rel=1e-10)
    assert r2.are == pytest.approx(r1.are, rel=0.05)


def test_default_table_layout():
    cells = default_table_cells()
    labels = [c.label for c in cells]
    assert labels[0] == "brownian"
    assert sum(1 for lab in labels if lab.startswith("fbm")) == 9
    assert len(cells) == 15
    # references attached where an independently reported value exists
    by_label = {c.label: c for c in cells}
    assert by_label["brownian"].reference == 0.83
    assert by_label["fbm-h0.1"].reference == 0.923
    assert by_label["fbm-h0.5"].reference is None
    assert by_label["gauss-kernel"].domain == "real-line"
    assert by_label["brownian"].domain == "unit-interval"


def test_efficiency_table_small_run():
    cells = [c for c in default_table_cells() if c.label in ("brownian", "fbm-h0.5")]
    rows = efficiency_table(seed=11, mc=4000, grid_size=40, cells=cells)
    assert [r.label for r in rows] == ["brownian", "fbm-h0.5"]
    # H = 1/2 fractional kernel equals the Brownian kernel, but the cells
    # use different substreams, so values agree loosely rather than exactly
    assert rows[0].report.are == pytest.approx(rows[1].report.are, rel=0.1)
    again = efficiency_table(seed=11, mc=4000, grid_size=40, cells=cells)
    assert [r.report.are for r in rows] == [r.report.are for r in again]


@pytest.mark.parametrize(
    "spec, grid",
    [
        (ProcessSpec(KernelSpec.min_kernel()), Grid.uniform(0.0, 1.0, 20)),
        (ProcessSpec(KernelSpec.fractional_brownian(0.3)), Grid.uniform(0.0, 1.0, 16)),
        (ProcessSpec(KernelSpec.gaussian_kernel()), domain_grid("real-line", 20, 2)),
    ],
)
def test_diagonal_estimator_matches_the_full_sandwich(spec, grid):
    # k = D here, so the whitened KL rows are orthonormal and both estimators
    # read the same draws; they differ only by the Monte Carlo off-diagonals of
    # J and Lambda, measured at 1.3e-4 to 3.3e-4 relative over seeds 0-5
    for seed in (0, 1):
        full = full_sandwich(spec, grid, 5000, seed)
        assert v0_estimate(spec, grid, mc=5000, seed=seed) == pytest.approx(full, rel=1e-3)


def test_brownian_where_its_closed_form_rows_are_not_orthonormal():
    # the closed-form Brownian KL has k = 100 terms, more than D = 24 grid
    # points, so its whitened rows cannot be orthonormal; the singular values
    # still give the D = 100 value (1.7% apart at most over seeds 0-5)
    bm = ProcessSpec(KernelSpec.brownian())
    coarse = v0_estimate(bm, Grid.uniform(0.0, 1.0, 24), mc=20_000, seed=1)
    fine = v0_estimate(bm, Grid.uniform(0.0, 1.0, 100), mc=20_000, seed=1)
    assert coarse == pytest.approx(fine, rel=0.05)
    # on [0, 1/2] the closed-form functions are not orthonormal at all; the
    # singular values still give the grid eigenpairs of the same min kernel
    # (0.2% apart at most over seeds 0-3), where the KL scales are 3x off
    half = Grid.uniform(0.0, 0.5, 24)
    closed = v0_estimate(bm, half, mc=20_000, seed=1)
    grid_eigen = v0_estimate(ProcessSpec(KernelSpec.min_kernel()), half, mc=20_000, seed=1)
    assert closed == pytest.approx(grid_eigen, rel=0.01)


@pytest.mark.parametrize("df, factor", [(3, 2.5465), (9, 1.2164)])
def test_t_law_efficiency_is_the_gaussian_twin_times_the_closed_form_factor(df, factor):
    assert t_factor(df) == pytest.approx(factor, abs=5e-5)
    g = Grid.uniform(0.0, 1.0, 30)
    t = are(ProcessSpec(KernelSpec.min_kernel(), "student-t", df=df), g, mc=4000, seed=3)
    twin = are(ProcessSpec(KernelSpec.min_kernel()), g, mc=4000, seed=3)
    assert t.are / twin.are == pytest.approx(t_factor(df), rel=1e-12)


def test_table_t_rows_reuse_their_gaussian_twin():
    rows = {r.label: r for r in efficiency_table(seed=11, mc=2000, grid_size=30)}
    gk = rows["gauss-kernel"].report.are
    for df in (3, 9):
        got = rows[f"gauss-kernel-t{df}"].report.are
        assert got == pytest.approx(gk * t_factor(df), rel=1e-12)
    # t3-min and t9-min share one Gaussian min-kernel run
    ratio = rows["t3-min"].report.are / rows["t9-min"].report.are
    assert ratio == pytest.approx(t_factor(3) / t_factor(9), rel=1e-12)
    # a filtered cell list gives the full table's row bit for bit
    t9 = [c for c in default_table_cells() if c.label == "t9-min"]
    (alone,) = efficiency_table(seed=11, mc=2000, grid_size=30, cells=t9)
    assert alone == rows["t9-min"]


def _count_calls(monkeypatch, name):
    calls, real = [], getattr(efficiency, name)
    monkeypatch.setattr(efficiency, name, lambda *a, **k: calls.append(name) or real(*a, **k))
    return calls


def test_table_calls_are_once_per_row_and_runs_each_twin_once(monkeypatch):
    efficiency._twin_v0.cache_clear()
    ares, builds = _count_calls(monkeypatch, "are"), _count_calls(monkeypatch, "_kl_system")
    efficiency_table(seed=11, mc=500, grid_size=20)
    assert len(ares) == 15
    assert len(builds) == 12  # 15 rows, three of them t laws after their twin


def test_a_t_law_and_its_twin_share_one_monte_carlo_run(monkeypatch):
    efficiency._twin_v0.cache_clear()
    builds = _count_calls(monkeypatch, "_kl_system")
    draws = _count_calls(monkeypatch, "coefficient_chunks")
    g = Grid.uniform(0.0, 1.0, 20)
    are(ProcessSpec(KernelSpec.min_kernel(), "student-t", df=3), g, mc=500, seed=4)
    are(ProcessSpec(KernelSpec.min_kernel()), g, mc=500, seed=4)
    assert len(builds) == 1 and len(draws) == 2  # one run: the J and the Lambda stream
    are(ProcessSpec(KernelSpec.min_kernel()), g, mc=500, seed=5)
    assert len(builds) == 2


def test_sigma_trace_rejects_negative_mc():
    bm, g = ProcessSpec(KernelSpec.brownian()), Grid.uniform(0.0, 1.0, 20)
    with pytest.raises(ValueError, match="mc must be >= 0"):
        sigma_trace(bm, g, mc=-5)
    assert sigma_trace(bm, g, mc=0) == sigma_trace(bm, g)


def test_cells_off_the_default_list_run_under_their_label_tag():
    # a twin no default cell has: the tag follows the 15 default tags, offset
    # by the crc32 of the label, and the row is are() of the cell there
    assert len(default_table_cells()) == 15
    cells = [
        TableCell(
            "fbm-h0.25-t5",
            ProcessSpec(KernelSpec.fractional_brownian(0.25), "student-t", df=5),
            "unit-interval",
            None,
        ),
        TableCell(
            "gauss-kernel-k10",
            ProcessSpec(KernelSpec.gaussian_kernel(), truncation=10),
            "real-line",
            None,
        ),
    ]
    rows = efficiency_table(seed=11, mc=2000, grid_size=30, cells=cells)
    for cell, row in zip(cells, rows, strict=True):
        tag = _TAG_CELL_BASE + 15 + zlib.crc32(cell.label.encode())
        grid = domain_grid(cell.domain, 30, 11)
        assert row.report == are(cell.spec, grid, 2000, stream_seed(11, tag))
