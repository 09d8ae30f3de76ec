import math
import tracemalloc

import numpy as np
import pytest

from spatialfda import (
    Curve,
    Grid,
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
from spatialfda.efficiency import _gaussian_twin
from spatialfda.simulate import CHUNK, _kl_system, coefficient_chunks

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


@pytest.mark.parametrize("D", [16, 201])
def test_bm_eigenpair_is_a_row_of_the_sampling_system_bitwise(D):
    g = Grid.uniform(0.0, 1.0, D)
    kl = _kl_system(ProcessSpec(KernelSpec.brownian()), g)
    scales, functions = kl.scales, kl.functions
    for k in (1, 2, 37, 100):
        lam, phi = bm_eigenpair(k, g)
        assert lam == scales[k - 1]
        assert phi.values.tobytes() == functions[k - 1].tobytes()


@pytest.mark.parametrize("kernel", [KernelSpec.brownian(), KernelSpec.fractional_brownian(0.7)])
def test_a_rate_study_builds_its_kl_system_once(monkeypatch, kernel):
    builds = []
    for name in ("_bm_system", "kernel_eigen"):
        real = getattr(simulate, name)
        monkeypatch.setattr(
            simulate, name, lambda *a, _real=real, _name=name: builds.append(_name) or _real(*a)
        )
    simulate._kl_system.cache_clear()
    spec, g = ProcessSpec(kernel), Grid.uniform(0.0, 1.0, 16)
    # probes, reference blocks and n_values * reps replicates share one build
    gc_rate_study(spec, probe_sample(spec, g, 5, 1), [20, 40], reps=3, seed=1, n_ref=500)
    assert len(builds) == 1
    kl = _kl_system(spec, g)
    assert len(builds) == 1
    for a in (kl.scales, kl.functions, kl.loadings, kl.sigma):
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


def test_chunk_layout_is_fixed():
    # substreams change at CHUNK boundaries and nowhere else
    spec = ProcessSpec(KernelSpec.brownian(), truncation=3)
    blocks = list(coefficient_chunks(spec, CHUNK + 10, 3, seed=0))
    assert [b.shape[0] for b in blocks] == [CHUNK, 10]


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


def test_coefficient_blocks_share_one_buffer():
    spec = ProcessSpec(KernelSpec.brownian(), "student-t", df=5, truncation=3)
    blocks = list(coefficient_chunks(spec, 2 * CHUNK + 10, 3, seed=0))
    assert all(np.shares_memory(b, blocks[0]) for b in blocks)


def test_sample_blocks_checks_its_arguments_before_the_first_block():
    g = Grid.uniform(0.0, 1.0, 12)
    with pytest.raises(ValueError):
        sample_blocks(ProcessSpec(KernelSpec.brownian()), g, 0, seed=1)
    off_grid = Curve(Grid.uniform(0.0, 1.0, 8), np.zeros(8))
    with pytest.raises(ValueError):
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
