import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from spatialfda import (
    ConditioningError,
    EfficiencyReport,
    Grid,
    KernelSpec,
    ProcessSpec,
    TableCell,
    TableRow,
    are,
    default_table_cells,
    domain_grid,
    efficiency_table,
    sigma_trace,
    v0_estimate,
)
from spatialfda import efficiency, simulate
from spatialfda.efficiency import _TAG_GRID, _TAG_J, _TAG_LAMBDA
from spatialfda.simulate import CHUNK, _kl_system, stream_seed


def t_factor(df):
    """ARE(t law) / ARE(Gaussian twin) = df/(df-2) * E[s]^2, s = sqrt(W/df), W ~ chi2(df)."""
    mean_s = math.sqrt(2.0 / df) * math.gamma((df + 1) / 2) / math.gamma(df / 2)
    return df / (df - 2) * mean_s**2


def full_sandwich(spec, grid, mc, seed, serial_chunks):
    """trace(J^-1 Lambda J^-1) from full D x D Monte Carlo matrices of whitened
    paths y @ tilde, tilde = Sigma V' of the KL system, on the same two tagged
    streams as v0_estimate."""
    kl = _kl_system(spec, grid)
    tilde = kl.sigma[:, None] * kl.v.T
    k, D = tilde.shape
    J, Lam = np.zeros((D, D)), np.zeros((D, D))
    for y in serial_chunks(spec, mc, k, stream_seed(seed, _TAG_J)):
        x = y @ tilde
        r = np.linalg.norm(x, axis=1)
        m = x / r[:, None] ** 1.5
        J += np.sum(1.0 / r) * np.eye(D) - m.T @ m
    for y in serial_chunks(spec, mc, k, stream_seed(seed, _TAG_LAMBDA)):
        x = y @ tilde
        v = x / np.linalg.norm(x, axis=1)[:, None]
        Lam += v.T @ v
    J_inv = np.linalg.inv(J / mc)
    return float(np.trace(J_inv @ (Lam / mc) @ J_inv))


def test_sigma_trace_closed_forms():
    g = Grid.uniform(0.0, 1.0, 200)
    # the trace of the 100-term KL law that is sampled, sum_k ((k - 1/2) pi)^-2,
    # not the untruncated kernel's 1/2
    bm = ProcessSpec(KernelSpec.brownian())
    series = sum(((k - 0.5) * math.pi) ** -2 for k in range(1, 101))
    assert series == pytest.approx(0.498987, abs=1e-6)
    assert sigma_trace(bm, g) == pytest.approx(series, rel=1e-6)
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


@pytest.mark.parametrize(
    "spec",
    [
        ProcessSpec(KernelSpec.brownian(), truncation=3),
        ProcessSpec(KernelSpec.fractional_brownian(0.5), truncation=2),
    ],
    ids=["bm-k3", "fbm-h0.5-k2"],
)
def test_sigma_trace_of_a_truncated_law_is_the_trace_it_samples(spec):
    # ||z||^2 = sum sigma_i^2 xi_i^2 has variance 2 sum sigma_i^4 under the
    # Gaussian law; the untruncated kernel's trace 1/2 is many errors away
    g = Grid.uniform(0.0, 1.0, 20)
    mc = 200_000
    sigma = _kl_system(spec, g).sigma
    se = math.sqrt(2.0 * np.sum(sigma**4) / mc)
    assert abs(sigma_trace(spec, g) - sigma_trace(spec, g, mc=mc, seed=1)) < 3.0 * se
    assert sigma_trace(spec, g) == float(np.sum(sigma**2))
    # the report's numerator is the same expression of the same sigma
    assert are(spec, g, mc=2000, seed=1).trace_sigma == sigma_trace(spec, g)


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
    # one sub-block buffer of about _BLOCK_BYTES per worker, whatever mc is
    g = Grid.uniform(0.0, 1.0, 200)
    spec = ProcessSpec(KernelSpec.fractional_brownian(0.7))  # k = D = 200 coefficients
    tracemalloc.start()
    try:
        v0_estimate(spec, g, mc=3 * CHUNK, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * CHUNK * g.size * 8
    assert peak < (simulate._WORKERS + 1) * simulate._BLOCK_BYTES


def test_efficiency_table_works_in_one_chunk_of_normals():
    # 12 twins over one J and one Lambda stream per rank r (100 and 200), in
    # one sub-block buffer per worker: a chunk-sized buffer or an (m, r)
    # scratch per cell would break the bound
    tracemalloc.start()
    try:
        efficiency_table(seed=11, mc=2 * CHUNK + 1, grid_size=200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * CHUNK * 200 * 8
    assert peak < (simulate._WORKERS + 1) * simulate._BLOCK_BYTES


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
    # H = 1/2 fractional kernel equals the Brownian kernel, and both cells
    # have r = 40 and read the same draws; but brownian's sigma comes from
    # its 100-term closed-form KL and fbm-h0.5's from the grid eigenpairs,
    # so values agree loosely rather than exactly
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
def test_diagonal_estimator_matches_the_full_sandwich(spec, grid, serial_chunks):
    # both estimators read the same draws z = y * sigma, the full sandwich
    # rotated onto the grid by V'; they differ only by the Monte Carlo
    # off-diagonals of J and Lambda, measured at 1.3e-4 to 3.3e-4 relative
    # over seeds 0-5
    for seed in (0, 1):
        full = full_sandwich(spec, grid, 5000, seed, serial_chunks)
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


def _count_streams(monkeypatch):
    # the (n, seed) runs efficiency hands to simulate's draw-and-reduce pipeline
    streams, real = [], efficiency.coefficient_runs

    def counted(spec, k, runs, *args):
        streams.extend(runs)
        return real(spec, k, runs, *args)

    monkeypatch.setattr(efficiency, "coefficient_runs", counted)
    return streams


def test_table_builds_each_twin_once_and_draws_two_streams_per_rank(monkeypatch):
    builds = _count_calls(monkeypatch, "_kl_system")
    draws = _count_streams(monkeypatch)
    vectors, real_eigh, real_svd = [], np.linalg.eigh, np.linalg.svd

    def svd(a, **kwargs):
        if kwargs.get("compute_uv", True):
            vectors.append("svd")
        return real_svd(a, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", lambda *a: vectors.append("eigh") or real_eigh(*a))
    monkeypatch.setattr(np.linalg, "svd", svd)
    efficiency_table(seed=11, mc=500, grid_size=200)
    assert len(builds) == 12  # 15 rows, three of them t laws of a twin already built
    assert len(draws) == 4  # J and Lambda at r = 100 (brownian) and r = 200 (the rest)
    assert vectors == []  # each build solves for sigma alone, no eigenvector


def test_cells_of_one_kernel_and_rank_share_their_draws():
    # fbm-h0.5 is the min kernel of t3-min's twin on the same grid, so the two
    # rows differ by t_factor(3) and round-off only
    rows = {r.label: r.report.are for r in efficiency_table(seed=11, mc=2000, grid_size=30)}
    assert rows["fbm-h0.5"] == pytest.approx(rows["t3-min"] / t_factor(3), rel=1e-12)


def test_are_of_one_cell_builds_one_kl_system_and_draws_two_streams(monkeypatch):
    builds = _count_calls(monkeypatch, "_kl_system")
    draws = _count_streams(monkeypatch)
    g = Grid.uniform(0.0, 1.0, 20)
    t3 = ProcessSpec(KernelSpec.min_kernel(), "student-t", df=3)
    with pytest.raises(ValueError, match="mc must be >= 1"):
        are(t3, g, mc=0, seed=4)
    assert builds == []  # rejected before any build
    rep = are(t3, g, mc=500, seed=4)
    assert len(builds) == 1 and len(draws) == 2  # the twin's KL system; the J and Lambda streams
    # the t law's V0 is its twin's over E[s]^2, bit for bit
    twin = v0_estimate(ProcessSpec(KernelSpec.min_kernel()), g, mc=500, seed=4)
    assert rep.trace_v0 == twin / efficiency._mean_scale(t3) ** 2


def test_a_one_dimensional_process_is_a_conditioning_error():
    # one KL term: z_1^2 / r^2 = 1 on every draw, so J = 0
    bm1 = ProcessSpec(KernelSpec.brownian(), truncation=1)
    with pytest.raises(ConditioningError, match="condition number"):
        are(bm1, Grid.uniform(0.0, 1.0, 20), mc=2000, seed=1)


def test_sigma_trace_rejects_negative_mc():
    bm, g = ProcessSpec(KernelSpec.brownian()), Grid.uniform(0.0, 1.0, 20)
    with pytest.raises(ValueError, match="mc must be >= 0"):
        sigma_trace(bm, g, mc=-5)
    assert sigma_trace(bm, g, mc=0) == sigma_trace(bm, g)


def test_every_table_row_is_are_of_its_cell_at_the_table_seed():
    # the 15 default cells and two twins no default cell has, one of them of
    # its own rank r = 10
    cells = default_table_cells() + [
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
    mc = CHUNK + 100
    rows = efficiency_table(seed=11, mc=mc, grid_size=30, cells=cells)
    for cell, row in zip(cells, rows, strict=True):
        grid = domain_grid(cell.domain, 30, 11)
        assert row == TableRow(cell.label, are(cell.spec, grid, mc, 11), cell.reference)


def _outputs_at_twice_a_chunk():
    # every stream spans three chunks, so the pipeline hands them to its workers
    mc, g = 2 * CHUNK + 100, Grid.uniform(0.0, 1.0, 30)
    t3 = ProcessSpec(KernelSpec.min_kernel(), "student-t", df=3)
    return (
        [row.report for row in efficiency_table(seed=11, mc=mc, grid_size=30)],
        v0_estimate(t3, g, mc=mc, seed=4),
        sigma_trace(t3, g, mc=mc, seed=4),
    )


def test_efficiency_outputs_do_not_depend_on_the_workers(monkeypatch):
    # the sub-blocks' sums are added in order on the calling thread, with
    # thread switches forced often
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        outputs = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(simulate, "_WORKERS", workers)
            outputs.append(_outputs_at_twice_a_chunk())
    finally:
        sys.setswitchinterval(interval)
    assert outputs[0] == outputs[1] == outputs[2]


def test_efficiency_outputs_move_at_rounding_level_with_the_sub_block_size(monkeypatch):
    # 1000 rows of r = 30 per sub-block, which divide no chunk, against a whole chunk
    reports, v0, trace = _outputs_at_twice_a_chunk()
    monkeypatch.setattr(simulate, "_BLOCK_BYTES", 8 * 30 * 1000)
    small_reports, small_v0, small_trace = _outputs_at_twice_a_chunk()
    assert small_v0 == pytest.approx(v0, rel=1e-13)
    assert small_trace == pytest.approx(trace, rel=1e-13)
    for a, b in zip(small_reports, reports, strict=True):
        assert a.trace_v0 == pytest.approx(b.trace_v0, rel=1e-13)
        assert a.are == pytest.approx(b.are, rel=1e-13)
        assert a.trace_sigma == b.trace_sigma  # the closed form draws nothing


def test_a_conditioning_error_leaves_no_thread_behind():
    # the J and Lambda streams span three chunks each, drawn on the workers
    bm1 = ProcessSpec(KernelSpec.brownian(), truncation=1)
    before = threading.active_count()
    with pytest.raises(ConditioningError, match="condition number"):
        are(bm1, Grid.uniform(0.0, 1.0, 20), mc=2 * CHUNK + 100, seed=1)
    assert threading.active_count() == before
