import collections
import dataclasses
import hashlib
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from spatialfda import (
    Curve,
    Grid,
    GridMismatchError,
    KernelSpec,
    NotPSDError,
    ProcessSpec,
    bm_eigenpair,
    default_table_cells,
    gc_rate_study,
    kernel_eigen,
    sample_blocks,
    sample_process,
    stream_seed,
)
from spatialfda import simulate
from spatialfda.asymptotics import probe_sample
from spatialfda.efficiency import _gaussian_twin, domain_grid
from spatialfda.simulate import (
    CHUNK,
    _kl_system,
    coefficient_runs,
    kl_coordinate_runs,
    kl_coordinates,
    kl_curves,
)

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def test_kernel_values():
    t = np.array([0.2, 0.5, 0.9])
    k_min = KernelSpec.min_kernel().evaluate(t)
    assert k_min[0, 1] == pytest.approx(0.2)
    assert k_min[2, 2] == pytest.approx(0.9)
    k_fbm = KernelSpec.fractional_brownian(0.5).evaluate(t)
    # H = 1/2 reduces to the min kernel
    np.testing.assert_allclose(k_fbm, k_min, atol=1e-12)
    k_g = KernelSpec.gaussian_kernel().evaluate(t)
    assert k_g[0, 2] == pytest.approx(np.exp(-0.49))
    assert np.all(np.diag(k_g) == 1.0)


SHIPPED_KERNELS = [
    KernelSpec.brownian(),
    KernelSpec.min_kernel(),
    KernelSpec.fractional_brownian(0.3),
    KernelSpec.fractional_brownian(0.7),
    KernelSpec.gaussian_kernel(),
]


@pytest.mark.parametrize("kernel", SHIPPED_KERNELS, ids=lambda k: f"{k.kind}-{k.hurst}")
@pytest.mark.parametrize("grid", [Grid.uniform(0.0, 1.0, 33), Grid.gaussian(41, seed=4)])
def test_diagonal_is_the_diagonal_of_evaluate_bitwise(kernel, grid):
    # one formula k(s, t) serves both, applied to (t, t) for the diagonal
    full = kernel.evaluate(grid.points)
    assert kernel.diagonal(grid.points).tobytes() == np.diag(full).tobytes()


def test_custom_kernel_diagonal_reads_its_matrix():
    m = np.array([[2.0, 0.5], [0.5, 3.0]])
    assert KernelSpec.custom(m).diagonal(np.array([0.0, 1.0])).tolist() == [2.0, 3.0]


def test_custom_kernel_evaluates_to_the_symmetric_part_of_its_matrix():
    m = np.array([[2.0, 0.5], [0.5 + 1e-10, 3.0]])  # asymmetric within the tolerance
    k = KernelSpec.custom(m).evaluate(np.array([0.0, 1.0]))
    assert np.array_equal(k, k.T) and k[0, 1] == 0.5 * (m[0, 1] + m[1, 0])


def test_kernel_validation():
    with pytest.raises(ValueError):
        KernelSpec.fractional_brownian(0.0)
    with pytest.raises(ValueError):
        KernelSpec.fractional_brownian(1.0)
    with pytest.raises(NotPSDError):
        KernelSpec.custom(np.array([[1.0, 2.0], [2.0, 1.0]]))  # eigenvalue -1
    with pytest.raises(NotPSDError):
        KernelSpec.custom(np.array([[1.0, 0.5], [0.4, 1.0]]))  # asymmetric


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_custom_kernel_must_be_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        KernelSpec.custom(np.array([[bad, 0.0], [0.0, 1.0]]))


def test_specs_compare_and_hash_by_value():
    a, b = KernelSpec.custom(np.eye(3)), KernelSpec.custom(np.eye(3))
    assert a == b and hash(a) == hash(b)
    assert {a: "eye"}[b] == "eye"
    assert a != KernelSpec.custom(2.0 * np.eye(3))
    assert a != KernelSpec.custom(np.eye(2))
    assert a != KernelSpec.min_kernel()
    g = Grid.uniform(0.0, 1.0, 3)
    p = ProcessSpec(a, mean=Curve(g, np.ones(3)))
    q = ProcessSpec(b, mean=Curve(g, np.ones(3)))
    assert p == q and hash(p) == hash(q)
    assert p != ProcessSpec(a, mean=Curve(g, np.zeros(3)))
    assert p != ProcessSpec(a)
    assert len({p, q, ProcessSpec(a)}) == 2
    # the default table cells keep their identities: 15 distinct specs, and
    # 12 (domain, Gaussian twin) keys, one Monte Carlo run each
    cells = default_table_cells()
    assert [c.spec for c in cells] == [c.spec for c in default_table_cells()]
    assert len({c.spec for c in cells}) == 15
    assert len({(c.domain, _gaussian_twin(c.spec)) for c in cells}) == 12


def test_process_spec_validation():
    with pytest.raises(ValueError):
        ProcessSpec(KernelSpec.brownian(), "student-t")  # df missing
    with pytest.raises(ValueError):
        ProcessSpec(KernelSpec.brownian(), "student-t", df=2)  # variance infinite
    spec = ProcessSpec(KernelSpec.brownian(), "student-t", df=5)
    assert spec.coefficient_variance() == pytest.approx(5.0 / 3.0)
    assert ProcessSpec(KernelSpec.brownian()).coefficient_variance() == 1.0


def test_bm_eigenpair_closed_form():
    g = Grid.uniform(0.0, 1.0, 201)
    lam1, phi1 = bm_eigenpair(1, g)
    assert lam1 == pytest.approx(2.0 / math.pi)
    assert phi1.values[0] == 0.0
    # orthonormal in L2[0,1] up to quadrature error
    w = g.weights
    assert float(np.sum(w * phi1.values**2)) == pytest.approx(1.0, abs=1e-4)
    lam2, phi2 = bm_eigenpair(2, g)
    assert float(np.sum(w * phi1.values * phi2.values)) == pytest.approx(0.0, abs=1e-4)
    # fraction of total variance 1/2 carried by the first three components:
    # 8/pi^2, 8/(9 pi^2), 8/(25 pi^2)
    fractions = [bm_eigenpair(k, g)[0] ** 2 / 0.5 for k in (1, 2, 3)]
    np.testing.assert_allclose(
        fractions,
        [8 / math.pi**2, 8 / (9 * math.pi**2), 8 / (25 * math.pi**2)],
        rtol=1e-12,
    )


def _whitened_loading(spec, g):
    """The (k, D) whitened KL loading L diag(sqrt(w)), rows from the public eigenpairs."""
    if spec.kernel.kind == "brownian":
        pairs = [bm_eigenpair(j, g) for j in range(1, (spec.truncation or 100) + 1)]
        loading = np.array([lam * phi.values for lam, phi in pairs])
    else:
        basis = kernel_eigen(spec.kernel, g, spec.truncation or g.size)
        loading = np.sqrt(basis.eigenvalues)[:, None] * basis.functions
    return loading * np.sqrt(g.weights)[None, :]


@pytest.mark.parametrize("D", [16, 201])
def test_bm_eigenpair_is_a_row_of_the_sampling_system_bitwise(D):
    # sigma and V are the SVD of the loading whose row k is eigenpair k
    g = Grid.uniform(0.0, 1.0, D)
    kl = _kl_system(ProcessSpec(KernelSpec.brownian()), g)
    whitened = _whitened_loading(ProcessSpec(KernelSpec.brownian()), g)
    assert kl.sigma.tobytes() == np.linalg.svd(whitened, compute_uv=False).tobytes()
    assert kl.v.tobytes() == np.linalg.svd(whitened, full_matrices=False)[2].T.tobytes()


@pytest.mark.parametrize("kernel", [KernelSpec.brownian(), KernelSpec.fractional_brownian(0.7)])
def test_a_rate_study_builds_its_kl_system_once(monkeypatch, kernel):
    builds, real = [], simulate._KLSystem
    monkeypatch.setattr(simulate, "_KLSystem", lambda *a: builds.append(a) or real(*a))
    simulate._kl_system.cache_clear()
    spec, g = ProcessSpec(kernel), Grid.uniform(0.0, 1.0, 16)
    # probes, reference blocks and n_values * reps replicates share one build
    gc_rate_study(spec, probe_sample(spec, g, 5, 1), [20, 40], reps=3, seed=1, n_ref=500)
    assert len(builds) == 1
    kl = _kl_system(spec, g)
    assert len(builds) == 1
    for a in (kl.sigma, kl.root_w, kl.v, kl.sampling_loadings):
        with pytest.raises(ValueError):
            a[0] = 0.0
    # a key equal by value reuses the build; another spec or grid builds once
    _kl_system(ProcessSpec(kernel), Grid.uniform(0.0, 1.0, 16))
    assert len(builds) == 1
    other = ProcessSpec(kernel, truncation=3)
    for _ in range(3):
        sample_process(other, g, 4, seed=2)
    assert len(builds) == 2
    for _ in range(3):
        sample_process(other, Grid.uniform(0.0, 1.0, 17), 4, seed=2)
    assert len(builds) == 3


@pytest.mark.parametrize(
    "kernel, build, frame",
    [
        (KernelSpec.brownian(), {"svd": 1}, {"svd": 1}),
        (KernelSpec.fractional_brownian(0.7), {"eigvalsh": 1}, {"eigh": 1}),
    ],
    ids=["bm", "fbm"],
)
def test_a_gc_study_factors_its_kernel_once_and_fbm_runs_no_svd(monkeypatch, kernel, build, frame):
    # the build solves for sigma alone, and V takes one solve on first use:
    # the SVD of the Brownian loading, or an fbm kernel's one eigh
    calls = collections.Counter()
    for name in ("svd", "eigh", "eigvalsh"):
        real = getattr(np.linalg, name)
        monkeypatch.setattr(
            np.linalg, name, lambda *a, _r=real, _n=name, **k: calls.update([_n]) or _r(*a, **k)
        )
    simulate._kl_system.cache_clear()
    spec, g = ProcessSpec(kernel), Grid.uniform(0.0, 1.0, 16)
    _kl_system(spec, g)
    assert calls == build
    gc_rate_study(spec, probe_sample(spec, g, 5, 1), [20, 40], reps=3, seed=1, n_ref=500)
    assert calls == collections.Counter(build) + collections.Counter(frame)


def _sigma_systems(D):
    # every table kernel on both domains, but the min kernel (and so the
    # Brownian closed form) is no covariance off [0, inf); and an fbm with k < D
    kernels = dict.fromkeys(_gaussian_twin(c.spec).kernel for c in default_table_cells())
    for kernel in kernels:
        for domain in ("unit-interval", "real-line"):
            if domain == "unit-interval" or kernel.kind not in ("brownian", "min"):
                yield ProcessSpec(kernel), domain_grid(domain, D, 3)
    yield ProcessSpec(KernelSpec.fractional_brownian(0.3), truncation=D // 3), domain_grid(
        "unit-interval", D, 3
    )


@pytest.mark.parametrize("D", [24, 200])
def test_sigma_is_the_singular_values_of_the_whitened_loading(D):
    # a discretized kernel's sigma comes from an eigenvalue-only solve and V
    # from kernel_eigen's, the Brownian closed form's both from its SVD; V
    # is orthonormal and Sigma V' carries the loading's whitened covariance
    for spec, g in _sigma_systems(D):
        kl = _kl_system(spec, g)
        whitened = _whitened_loading(spec, g)
        want = np.linalg.svd(whitened, compute_uv=False)
        assert kl.sigma.shape == want.shape == (min(whitened.shape[0], D),)
        np.testing.assert_allclose(kl.sigma**2, want**2, rtol=0.0, atol=1e-13 * want[0] ** 2)
        assert kl.v.shape == (D, kl.sigma.size)
        np.testing.assert_allclose(kl.v.T @ kl.v, np.eye(kl.sigma.size), rtol=0.0, atol=1e-12)
        frame = kl.sigma[:, None] * kl.v.T
        np.testing.assert_allclose(
            frame.T @ frame, whitened.T @ whitened, rtol=0.0, atol=1e-13 * want[0] ** 2
        )


def test_a_kernel_not_psd_on_the_grid_fails_its_kl_build():
    # min(s, t) has negative eigenvalues on a grid reaching below 0
    spec, g = ProcessSpec(KernelSpec.min_kernel()), domain_grid("real-line", 24, 3)
    with pytest.raises(NotPSDError, match="below -1e-10"):
        _kl_system(spec, g)
    with pytest.raises(NotPSDError, match="below -1e-10"):
        kernel_eigen(spec.kernel, g, 3)


def test_bm_eigenpair_rejects_grid_outside_unit_interval():
    g = Grid.uniform(0.0, 2.0, 10)
    with pytest.raises(ValueError):
        bm_eigenpair(1, g)


def test_kernel_eigen_matches_brownian_spectrum():
    g = Grid.uniform(0.0, 1.0, 300)
    basis = kernel_eigen(KernelSpec.min_kernel(), g, 5)
    expected = [((k - 0.5) * math.pi) ** -2 for k in range(1, 6)]
    np.testing.assert_allclose(np.asarray(basis.eigenvalues), expected, rtol=2e-3)


def test_kernel_eigen_gaussian_kernel_spectrum():
    # Analytic eigenvalues of exp(-(t-s)^2) against N(0, 1/2) involve the
    # golden ratio: lambda_k = phi^-(2k+1), k = 0, 1, 2, ... (they sum to 1).
    g = Grid.gaussian(600, seed=12)
    basis = kernel_eigen(KernelSpec.gaussian_kernel(), g, 4)
    lam = np.asarray(basis.eigenvalues)
    expected = [GOLDEN ** -(2 * k + 1) for k in range(4)]
    np.testing.assert_allclose(lam, expected, rtol=0.08)
    assert lam.sum() == pytest.approx(1.0, abs=0.05)


def test_kernel_eigen_functions_orthonormal():
    g = Grid.uniform(0.0, 1.0, 80)
    basis = kernel_eigen(KernelSpec.fractional_brownian(0.7), g, 6)
    f = np.asarray(basis.functions)
    gram = (f * g.weights) @ f.T
    np.testing.assert_allclose(gram, np.eye(6), atol=1e-10)


@pytest.mark.parametrize("kernel", SHIPPED_KERNELS[1:], ids=lambda k: f"{k.kind}-{k.hurst}")
def test_kernel_eigen_is_oriented_by_the_ramp_and_is_the_kl_frame(kernel):
    # pca's rule <phi_k, rho>_w >= 0 for the increasing ramp rho, and the
    # same oriented eigenvectors are the whitened frame V of the KL system
    g = Grid.uniform(0.0, 1.0, 40)
    basis = kernel_eigen(kernel, g, 40)
    f = np.asarray(basis.functions)
    rho = 1.0 + g.points
    assert np.all((f * g.weights) @ rho >= 0.0)
    v = _kl_system(ProcessSpec(kernel), g).v
    np.testing.assert_allclose(v, (f * np.sqrt(g.weights)).T, rtol=0.0, atol=1e-14)


def test_sample_process_pointwise_variance():
    g = Grid.uniform(0.0, 1.0, 30)
    spec = ProcessSpec(KernelSpec.brownian())
    s = sample_process(spec, g, 40_000, seed=5)
    # Var X(t) = t for Brownian motion
    var = s.values.var(axis=0)
    np.testing.assert_allclose(var[15], g.points[15], atol=0.02)
    np.testing.assert_allclose(var[-1], 1.0, atol=0.03)
    assert np.allclose(s.values[:, 0], 0.0)  # paths start at zero


def test_sample_process_mean_shift():
    g = Grid.uniform(0.0, 1.0, 20)
    from spatialfda import Curve

    m = Curve(g, np.full(20, 3.0))
    spec = ProcessSpec(KernelSpec.brownian(), mean=m)
    s = sample_process(spec, g, 2000, seed=8)
    assert s.values[:, 10].mean() == pytest.approx(3.0, abs=0.05)


def test_student_t_is_elliptical_not_independent():
    # one chi-square per path scales all coefficients together, so the
    # ratio of two coordinates of a centered path stays Gaussian-like
    # while the path norm gets heavy tails
    g = Grid.uniform(0.0, 1.0, 10)
    spec = ProcessSpec(KernelSpec.min_kernel(), "student-t", df=3, truncation=10)
    s = sample_process(spec, g, 30_000, seed=2)
    g_spec = ProcessSpec(KernelSpec.min_kernel(), truncation=10)
    s_gauss = sample_process(g_spec, g, 30_000, seed=2)
    q_t = np.quantile(np.abs(s.values[:, -1]), 0.999)
    q_g = np.quantile(np.abs(s_gauss.values[:, -1]), 0.999)
    assert q_t > 2.0 * q_g  # tails far heavier than Gaussian
    # second moment still matches r/(r-2) inflation
    assert s.values[:, -1].var() == pytest.approx(3.0 * s_gauss.values[:, -1].var(), rel=0.2)


def test_seed_reproducibility_and_prefix_stability():
    g = Grid.uniform(0.0, 1.0, 15)
    spec = ProcessSpec(KernelSpec.fractional_brownian(0.3))
    a = sample_process(spec, g, 50, seed=123)
    b = sample_process(spec, g, 50, seed=123)
    assert np.array_equal(a.values, b.values)
    bigger = sample_process(spec, g, 80, seed=123)
    # first 50 paths unchanged when more are requested
    assert np.array_equal(bigger.values[:50], a.values)
    assert not np.array_equal(a.values, sample_process(spec, g, 50, seed=124).values)


@pytest.mark.parametrize("draw", [sample_process, probe_sample])
def test_student_t_draws_nest_in_n(draw):
    # the chi-square scales have their own substream per chunk, so a
    # longer draw does not move them, within a chunk or across chunks
    g = Grid.uniform(0.0, 1.0, 12)
    spec = ProcessSpec(KernelSpec.min_kernel(), "student-t", df=5)
    sizes = (20, 21, CHUNK + 1)
    draws = [draw(spec, g, n, 3).values for n in sizes]
    for n, small, large in zip(sizes, draws, draws[1:]):
        assert large[:n].tobytes() == small.tobytes()


def test_chunk_layout_is_fixed(serial_chunks):
    # substreams change at CHUNK boundaries and nowhere else, and a chunk's
    # first rows do not depend on its length
    spec = ProcessSpec(KernelSpec.brownian(), truncation=3)
    assert [(lo, m) for lo, _, m in simulate._chunks(CHUNK + 10, 0)] == [(0, CHUNK), (CHUNK, 10)]
    blocks = serial_chunks(spec, CHUNK + 10, 3, seed=0)
    assert [b.shape for b in blocks] == [(CHUNK, 3), (10, 3)]
    assert np.array_equal(serial_chunks(spec, 10, 3, seed=0)[0], blocks[0][:10])


@pytest.mark.parametrize("case", ["bm", "fbm", "t-with-mean"])
def test_sample_blocks_concatenate_to_sample_process_bitwise(case):
    g = Grid.uniform(0.0, 1.0, 12)
    spec = {
        "bm": ProcessSpec(KernelSpec.brownian()),
        "fbm": ProcessSpec(KernelSpec.fractional_brownian(0.3)),
        "t-with-mean": ProcessSpec(
            KernelSpec.min_kernel(), "student-t", df=4, mean=Curve(g, np.sin(3.0 * g.points))
        ),
    }[case]
    n = 2 * CHUNK + 5
    blocks = list(sample_blocks(spec, g, n, seed=21))
    assert [b.shape for b in blocks] == [(CHUNK, 12), (CHUNK, 12), (5, 12)]
    assert np.concatenate(blocks).tobytes() == sample_process(spec, g, n, seed=21).values.tobytes()


def test_sample_blocks_are_the_pipeline_sub_blocks():
    # at D = 100 a chunk splits into sub-blocks of 1310 rows and a short tail
    g = Grid.uniform(0.0, 1.0, 100)
    spec = ProcessSpec(KernelSpec.brownian(), mean=Curve(g, g.points))
    n = 2 * CHUNK + 5
    blocks = list(sample_blocks(spec, g, n, seed=21))
    assert all(b.shape[0] <= CHUNK and b.shape[1] == 100 for b in blocks)
    assert len(blocks) > 3
    assert np.concatenate(blocks).tobytes() == sample_process(spec, g, n, seed=21).values.tobytes()
    # blocks made on the workers: closing the generator early joins them
    before = threading.active_count()
    blocks = sample_blocks(spec, g, n, seed=21)
    next(blocks)
    blocks.close()
    assert threading.active_count() == before


def test_sample_process_does_not_depend_on_the_workers(monkeypatch):
    # the workers write disjoint rows of the sample's array, in any order
    g = Grid.uniform(0.0, 1.0, 100)
    spec = ProcessSpec(KernelSpec.min_kernel(), "student-t", df=5, mean=Curve(g, g.points))
    n = 2 * CHUNK + 5
    got = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (1, 3):
            monkeypatch.setattr(simulate, "_WORKERS", workers)
            got.append(sample_process(spec, g, n, seed=8).values.tobytes())
    finally:
        sys.setswitchinterval(interval)
    assert got[0] == got[1]


def test_sample_process_holds_each_path_once():
    g = Grid.uniform(0.0, 1.0, 64)
    tracemalloc.start()
    try:
        sample = sample_process(ProcessSpec(KernelSpec.brownian()), g, 100_000, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one chunk of normals and the KL loading ride on top of the 51 MB of paths
    assert peak < 1.25 * sample.values.nbytes


def test_sample_blocks_checks_its_arguments_before_the_first_block():
    g = Grid.uniform(0.0, 1.0, 12)
    with pytest.raises(ValueError):
        sample_blocks(ProcessSpec(KernelSpec.brownian()), g, 0, seed=1)
    off_grid = Curve(Grid.uniform(0.0, 1.0, 8), np.zeros(8))
    with pytest.raises(GridMismatchError):
        sample_blocks(ProcessSpec(KernelSpec.brownian(), mean=off_grid), g, 5, seed=1)


def test_stream_seed_distinct_and_stable():
    assert stream_seed(5, 1) == stream_seed(5, 1)
    seen = {stream_seed(5, t) for t in range(100)}
    assert len(seen) == 100
    assert stream_seed(5, 1, 2) != stream_seed(5, 2, 1)


def test_truncation_limits():
    g = Grid.uniform(0.0, 1.0, 12)
    spec = ProcessSpec(KernelSpec.min_kernel(), truncation=40)
    with pytest.raises(ValueError):
        sample_process(spec, g, 5, seed=1)  # only 12 eigenpairs available
    # brownian closed form is not grid-limited
    bm = ProcessSpec(KernelSpec.brownian(), truncation=40)
    assert sample_process(bm, g, 5, seed=1).values.shape == (5, 12)


# sha256 of sample_process(...).values.tobytes() under the kl-whitened-4 rule;
# the first three are kl-whitened-3's too, bm-100-1312's last two paths moved
# (a 2-row sub-block's product)
PINNED_PATHS = {
    "bm-100-1312": "7e185eccc02264e2c879c9ae4393328ce0d518d93e8f7b251ef6f12e799dd4e2",
    "bm-128": "2afc2a612b287af8dd3da21a4755e014fba2c2b0d94a34279c7f4324c466c64b",
    "fbm-32": "8caa28feb6571c7f9e703478b9bec746dd24b4819ab1fa772fe5d2f9c859a63a",
    "t-min-24": "e65fb2e39563157729b6424f3740f514824d6793879ce1ab01ff14c9cd993ee5",
}


@pytest.mark.parametrize("case", sorted(PINNED_PATHS))
def test_sample_process_at_d_at_least_k_is_pinned(case):
    spec, D, n, seed = {
        "bm-100-1312": (ProcessSpec(KernelSpec.brownian()), 100, 1312, 5),  # 1310 + 2 rows
        "bm-128": (ProcessSpec(KernelSpec.brownian()), 128, 300, 5),  # k = 100
        "fbm-32": (ProcessSpec(KernelSpec.fractional_brownian(0.7)), 32, 300, 6),  # k = D
        "t-min-24": (ProcessSpec(KernelSpec.min_kernel(), "student-t", df=5), 24, 300, 7),
    }[case]
    g = Grid.uniform(0.0, 1.0, D)
    values = sample_process(spec, g, n, seed).values
    assert hashlib.sha256(values.tobytes()).hexdigest() == PINNED_PATHS[case]


def test_reduced_draws_have_the_kl_covariance():
    # k = 100 > D = 16: 16 normals per path, loading Sigma V' / sqrt(w)
    g = Grid.uniform(0.0, 1.0, 16)
    spec, n = ProcessSpec(KernelSpec.brownian()), 100_000
    assert _kl_system(spec, g).sampling_loadings.shape == (16, 16)
    x = sample_process(spec, g, n, seed=3).values
    loading = _whitened_loading(spec, g) / np.sqrt(g.weights)  # the 100 terms
    cov = loading.T @ loading
    # standard error of a Gaussian sample second moment (mean known, 0)
    se = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov**2) / n)
    err = np.abs(x.T @ x / n - cov)
    assert np.all(err <= 4.5 * se + 1e-15)  # the t = 0 row and column are 0 exactly


@pytest.mark.parametrize("truncation", [None, 5])
def test_coordinate_blocks_are_the_paths_in_the_kl_frame(truncation):
    # r = D (k = 100 > 16) and r = 5 < D, where the off-span column is 0
    g = Grid.uniform(0.0, 1.0, 16)
    spec = ProcessSpec(KernelSpec.brownian(), mean=Curve(g, g.points), truncation=truncation)
    kl = _kl_system(spec, g)
    r = kl.sigma.size
    blocks = [b for _, b in kl_coordinate_runs(spec, g, [(CHUNK + 7, 4)], np.copy)]
    z = np.concatenate(blocks)
    assert z.shape == (CHUNK + 7, r + (r < 16))
    assert not z[:, r:].any()
    paths = z[:, :r] @ kl.v.T / kl.root_w + g.points
    np.testing.assert_allclose(kl_coordinates(spec, g, paths), z, rtol=0.0, atol=1e-12)
    with pytest.raises(ValueError):
        kl_coordinate_runs(spec, g, [(0, 1)], np.copy)


@pytest.mark.parametrize(
    "spec, D",
    [
        (ProcessSpec(KernelSpec.brownian()), 16),  # k = 100 > D
        (ProcessSpec(KernelSpec.brownian(), truncation=5), 16),  # k < D
        (ProcessSpec(KernelSpec.brownian()), 128),  # k = 100 < D
        (ProcessSpec(KernelSpec.fractional_brownian(0.7)), 32),  # k = D
        (ProcessSpec(KernelSpec.min_kernel(), "student-t", df=5), 24),  # k = D
    ],
    ids=["bm-16", "bm-16-k5", "bm-128", "fbm-32", "t-min-24"],
)
def test_sample_process_paths_are_the_kl_frames_at_every_k(spec, D):
    # both draw the same r normals per path, and a path is z V' / sqrt(w)
    # plus the mean, whatever k and D are
    g = Grid.uniform(0.0, 1.0, D)
    spec = dataclasses.replace(spec, mean=Curve(g, g.points))
    kl = _kl_system(spec, g)
    r = kl.sigma.size
    z = np.concatenate([b for _, b in kl_coordinate_runs(spec, g, [(CHUNK + 7, 4)], np.copy)])
    paths = z[:, :r] @ kl.v.T / kl.root_w + g.points
    ref = sample_process(spec, g, CHUNK + 7, seed=4).values
    np.testing.assert_allclose(paths, ref, rtol=0.0, atol=1e-12)


RUN_LISTS = {
    "one": [(1, 7)],
    "chunk": [(CHUNK, 7)],
    "chunk+1": [(CHUNK + 1, 7)],
    "2chunk+3": [(2 * CHUNK + 3, 7)],
    "mixed": [(CHUNK + 1, 7), (1, 8), (2 * CHUNK + 3, 9), (5, 10)],
}


@pytest.mark.parametrize("runs", RUN_LISTS.values(), ids=RUN_LISTS.keys())
@pytest.mark.parametrize("truncation", [None, 5])
@pytest.mark.parametrize("law", ["gaussian", "student-t"])
def test_coordinate_runs_are_the_serial_chunks(monkeypatch, serial_chunks, law, truncation, runs):
    # drawn and reduced on the workers, with thread switches forced often,
    # the sub-blocks of each run concatenate to the serial chunks times sigma, bit for bit, so no buffer is
    # shared by two tasks at once; at truncation 5 r = 5 < D = 16 and the
    # off-span column is 0. Sub-blocks hold _BLOCK_BYTES of coordinates: a
    # whole chunk at c <= 32 by default, and then 1000 rows, which divide
    # no chunk, on more workers than a 2-CPU machine has
    g = Grid.uniform(0.0, 1.0, 16)
    t_law = law == "student-t"
    mean = Curve(g, np.sin(3.0 * g.points)) if t_law else None
    spec = ProcessSpec(KernelSpec.brownian(), law, 5 if t_law else None, mean, truncation)
    sigma = _kl_system(spec, g).sigma
    r = sigma.size
    c = r + (r < 16)
    for block_bytes, workers in [(simulate._BLOCK_BYTES, simulate._WORKERS), (8 * c * 1000, 3)]:
        monkeypatch.setattr(simulate, "_BLOCK_BYTES", block_bytes)
        monkeypatch.setattr(simulate, "_WORKERS", workers)
        rows = min(CHUNK, block_bytes // (8 * c))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = list(kl_coordinate_runs(spec, g, runs, np.copy))
        finally:
            sys.setswitchinterval(interval)
        assert [i for i, _ in got] == sorted(i for i, _ in got)
        for i, (n, seed) in enumerate(runs):
            blocks = [z for j, z in got if j == i]
            chunks = [y * sigma for y in serial_chunks(spec, n, r, seed)]
            sizes = [min(rows, len(y) - lo) for y in chunks for lo in range(0, len(y), rows)]
            assert [z.shape for z in blocks] == [(m, c) for m in sizes]
            z = np.concatenate(blocks)
            assert np.array_equal(z[:, :r], np.concatenate(chunks))
            assert not z[:, r:].any()


def test_coefficient_runs_hand_each_run_its_index_and_zero_columns(monkeypatch, serial_chunks):
    # 700-row sub-blocks of 3 coefficients and 2 zero columns on one worker,
    # which reuses its buffer: a reduce that scribbles over its block, zero
    # columns included, changes no later block
    spec = ProcessSpec(KernelSpec.brownian(), "student-t", df=5)
    runs = [(CHUNK + 1, 7), (5, 8), (2 * CHUNK + 3, 9)]
    monkeypatch.setattr(simulate, "_BLOCK_BYTES", 8 * 5 * 700)
    monkeypatch.setattr(simulate, "_WORKERS", 1)

    def scribble(i, lo, y):
        kept = (i, lo, y.copy())
        y[...] = np.nan
        return kept

    got = list(coefficient_runs(spec, 3, runs, scribble, 5))
    assert all(i == j for i, (j, *_) in got)
    for i, (n, seed) in enumerate(runs):
        blocks = [(lo, b) for j, (_, lo, b) in got if j == i]
        # lo is each sub-block's first row within its run
        assert [lo for lo, _ in blocks] == list(np.cumsum([0] + [len(b) for _, b in blocks])[:-1])
        y = np.concatenate([b for _, b in blocks])
        assert np.array_equal(y[:, :3], np.concatenate(serial_chunks(spec, n, 3, seed)))
        assert not y[:, 3:].any()
    with pytest.raises(ValueError, match="n must be >= 1"):
        coefficient_runs(spec, 3, [(5, 1), (0, 2)], scribble)


def test_coordinate_runs_leave_no_thread_behind():
    g = Grid.uniform(0.0, 1.0, 16)
    spec = ProcessSpec(KernelSpec.brownian())
    before = threading.active_count()
    blocks = kl_coordinate_runs(spec, g, [(3 * CHUNK, 1), (10, 2)], np.copy)
    next(blocks)
    assert threading.active_count() == before + 2  # the two workers
    blocks.close()
    assert threading.active_count() == before

    def fail(z):
        raise RuntimeError("the reduction failed")

    with pytest.raises(RuntimeError, match="reduction failed"):
        list(kl_coordinate_runs(spec, g, [(3 * CHUNK, 1)], fail))
    assert threading.active_count() == before

    def consume():
        for _ in kl_coordinate_runs(spec, g, [(3 * CHUNK, 1)], np.copy):
            raise RuntimeError("the consumer failed")

    with pytest.raises(RuntimeError, match="consumer failed"):
        consume()
    assert threading.active_count() == before
    blocks = kl_coordinate_runs(spec, g, [(CHUNK, 3)], np.copy)
    next(blocks)
    assert threading.active_count() == before  # a single chunk starts no thread
    assert list(blocks) == []


def test_kl_curves_inverts_kl_coordinates_off_the_span():
    g = Grid.uniform(0.0, 1.0, 16)
    spec = ProcessSpec(KernelSpec.brownian(), truncation=5)
    x = np.vstack([np.cos(7.0 * g.points), np.zeros(16)])
    coords = kl_coordinates(spec, g, x)
    assert coords.shape == (2, 6) and coords[0, 5] > 0.1 and coords[1, 5] == 0.0
    np.testing.assert_allclose(kl_curves(spec, g, coords, x), x, rtol=0.0, atol=1e-12)
    # the frame is orthonormal under the grid inner product
    np.testing.assert_allclose(
        np.sum(coords**2, axis=1), np.sum(g.weights * x * x, axis=1), rtol=1e-13
    )


@pytest.mark.parametrize(
    "spec, D",
    [
        *[(ProcessSpec(KernelSpec.brownian()), D) for D in (16, 64, 128, 200)],
        (ProcessSpec(KernelSpec.fractional_brownian(0.7)), 32),
        (ProcessSpec(KernelSpec.min_kernel(), "student-t", df=5), 24),
    ],
    ids=["bm-16", "bm-64", "bm-128", "bm-200", "fbm-32", "t-min-24"],
)
def test_paths_equal_the_mean_exactly_where_the_kernel_vanishes(spec, D):
    # K(0, 0) = 0 for all three kernels, so X(0) = 0 almost surely
    g = Grid.uniform(0.0, 1.0, D)
    assert spec.kernel.diagonal(g.points)[0] == 0.0
    assert not sample_process(spec, g, 3000, seed=1).values[:, 0].any()
    # V keeps its t = 0 row: a curve with x(0) != 0 still maps in and out of the frame
    probe = np.vstack([np.ones(D), 1.0 + g.points**2])
    back = kl_curves(spec, g, kl_coordinates(spec, g, probe), probe)
    np.testing.assert_allclose(back, probe, rtol=0.0, atol=1e-12)
