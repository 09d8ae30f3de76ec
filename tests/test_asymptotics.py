import tracemalloc

import numpy as np
import pytest

from spatialfda import (
    Curve,
    FunctionalSample,
    Grid,
    KernelSpec,
    ProcessSpec,
    RateReport,
    bahadur_rate_study,
    gc_rate_study,
    integrated_error_study,
    probe_sample,
    reference_spatial_dist,
    empirical_spatial_dist,
    sample_process,
    stream_seed,
)
from spatialfda.asymptotics import _TAG_REF, _frame_sign_means
from spatialfda.simulate import CHUNK, kl_coordinates, kl_curves
from spatialfda.spatialdist import _sign_mean

BM = ProcessSpec(KernelSpec.brownian())


def test_reference_spatial_dist_median_is_small():
    # Brownian paths are symmetric about zero, so S(0) is near zero and
    # the attached Monte Carlo error bounds the deviation
    g = Grid.uniform(0.0, 1.0, 24)
    ref = reference_spatial_dist(BM, Curve(g, np.zeros(24)), n_ref=20_000, seed=1)
    assert ref.n_ref == 20_000
    assert ref.value.norm < 4.0 * ref.mc_error
    assert ref.mc_error == pytest.approx(np.sqrt((1 - ref.value.norm**2) / 20_000))


def test_reference_spatial_dist_determinism():
    g = Grid.uniform(0.0, 1.0, 16)
    x = Curve(g, np.sqrt(g.points))
    a = reference_spatial_dist(BM, x, n_ref=5000, seed=3)
    b = reference_spatial_dist(BM, x, n_ref=5000, seed=3)
    assert a.value.norm == b.value.norm
    assert a.value.norm != reference_spatial_dist(BM, x, n_ref=5000, seed=4).value.norm


def test_streamed_reference_sign_mean_matches_the_one_shot_kernel():
    # three blocks, and queries that coincide with a path of the first and
    # of the last block, so zero signs are met inside the blocks too; at
    # k = 100 > D = 16 the frame's coordinates and sample_process's paths
    # come from the same normals, so the paths agree up to rounding
    g = Grid.uniform(0.0, 1.0, 16)
    n_ref, stream = 2 * CHUNK + 5, stream_seed(8, _TAG_REF)
    ref = sample_process(BM, g, n_ref, stream)
    fresh = sample_process(BM, g, 6, seed=40).values
    queries = np.vstack([fresh, ref.values[[3, n_ref - 2]]])
    one_shot = _sign_mean(queries, ref.values, g.weights)
    [streamed] = _frame_sign_means(BM, g, kl_coordinates(BM, g, queries), [(n_ref, stream)])
    np.testing.assert_allclose(kl_curves(BM, g, streamed, queries), one_shot, rtol=0.0, atol=1e-13)
    x = Curve(g, fresh[0])
    value = reference_spatial_dist(BM, x, n_ref=n_ref, seed=8).value
    np.testing.assert_allclose(
        value.representation.values,
        empirical_spatial_dist(x, ref).representation.values,
        rtol=0.0,
        atol=1e-13,
    )


def test_coordinate_score_of_an_off_span_probe_is_the_grid_kernels():
    # r = 5 < D = 16: the probes' off-span column carries their distance to
    # the 5-dimensional span of the paths, and the score is still exact
    from spatialfda.asymptotics import _TAG_DATA, _sign_errors
    from spatialfda.simulate import _kl_system, kl_coordinate_runs

    g = Grid.uniform(0.0, 1.0, 16)
    spec = ProcessSpec(KernelSpec.brownian(), truncation=5)
    probes = FunctionalSample(g, np.vstack([np.cos(7.0 * g.points), 0.3 * np.sign(g.points - 0.5)]))
    assert np.all(kl_coordinates(spec, g, probes.values)[:, 5] > 0.05)
    kl = _kl_system(spec, g)
    n_values, seed, n_ref = [50, 200], 6, CHUNK + 30
    scores = _sign_errors(spec, probes, n_values, 1, seed, n_ref)

    def grid_sign_mean(n, stream):
        runs = kl_coordinate_runs(spec, g, [(n, stream)], lambda z: z[:, :5] @ kl.v.T / kl.root_w)
        blocks = [x for _, x in runs]
        return _sign_mean(probes.values, np.concatenate(blocks), g.weights)

    s_ref = grid_sign_mean(n_ref, stream_seed(seed, _TAG_REF))
    for i_n, n in enumerate(n_values):
        diff = grid_sign_mean(n, stream_seed(seed, _TAG_DATA, i_n, 0)) - s_ref
        np.testing.assert_allclose(
            scores[i_n, 0], np.sum(g.weights * diff * diff, axis=1), rtol=0.0, atol=1e-12
        )


def test_rate_studies_check_their_arguments_before_the_reference_draw(monkeypatch):
    import spatialfda.asymptotics as asy

    def no_draw(*args, **kwargs):
        raise AssertionError("a sample was drawn")

    monkeypatch.setattr(asy, "kl_coordinate_runs", no_draw)
    monkeypatch.setattr(asy, "sample_process", no_draw)
    g = Grid.uniform(0.0, 1.0, 16)
    probes = FunctionalSample(g, np.ones((2, 16)))
    studies = {
        "gc": lambda n_values, reps: gc_rate_study(BM, probes, n_values, reps, seed=1),
        "integrated": lambda n_values, reps: integrated_error_study(BM, g, n_values, reps, 1),
        "bahadur": lambda n_values, reps: bahadur_rate_study(BM, g, n_values, reps, 1, d=3),
    }
    for study in studies.values():
        for n_values, reps, message in [
            ([250, 1000], 0, "at least one replication, got 0"),
            ([4000, 250], 2, "strictly increasing"),
            ([250], 2, "at least two sample sizes"),
            ([0, 250], 2, "sample sizes must be >= 1"),
        ]:
            with pytest.raises(ValueError, match=message):
                study(n_values, reps)
    with pytest.raises(ValueError, match="at least one replication"):
        RateReport("gc", (100, 400), 0, 0)


def test_gc_study_memory_does_not_grow_with_the_reference_sample():
    # the reference alone is 51 MB of paths at n_ref = 1e5 and D = 64, and
    # the one-shot sign mean adds a centred copy of it; two workers, each
    # with one 2048-row sub-block and its sign-mean workspace, trace 5.8 MB,
    # where a caller holding two 4096-row blocks and the sign mean of one
    # traced 7.7 MB
    g = Grid.uniform(0.0, 1.0, 64)
    probes = sample_process(BM, g, 20, seed=5)
    tracemalloc.start()
    try:
        gc_rate_study(BM, probes, [250, 1000], reps=2, seed=3, n_ref=100_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6.5e6


def test_rate_report_validation():
    with pytest.raises(ValueError):
        RateReport("gc", (100,), 5, 0)  # one sample size only
    with pytest.raises(ValueError):
        RateReport("gc", (100, 100, 400), 5, 0)  # duplicate
    with pytest.raises(ValueError):
        RateReport("gc", (100, 400), 5, 0, sup_errors=(0.1,))  # length mismatch
    with pytest.raises(ValueError):
        RateReport("gc", (100, 400), 5, 0, sup_errors=(0.1, -0.2))
    rep = RateReport("gc", (100, 400), 5, 0, sup_errors=(0.2, 0.1), fitted_slope_sup=-0.5)
    assert rep.integrated_errors is None


def test_gc_study_small_scale_slope():
    g = Grid.uniform(0.0, 1.0, 16)
    rng = np.random.default_rng(5)
    probes = FunctionalSample(
        g, rng.normal(scale=0.6, size=(8, 16)) * np.sqrt(g.points + 0.05)
    )
    rep = gc_rate_study(BM, probes, [100, 400, 1600], reps=12, seed=7, n_ref=20_000)
    assert rep.study == "gc"
    assert rep.n_values == (100, 400, 1600)
    assert len(rep.sup_errors) == 3
    # errors shrink and the slope sits near -1/2 even at this small scale
    assert rep.sup_errors[0] > rep.sup_errors[2]
    assert -0.75 < rep.fitted_slope_sup < -0.3
    assert rep.fitted_slope_int is None


def test_integrated_study_small_scale_slope():
    g = Grid.uniform(0.0, 1.0, 16)
    rep = integrated_error_study(
        BM, g, [100, 400, 1600], reps=12, seed=9, n_probes=40, n_ref=40_000
    )
    assert rep.study == "integrated"
    assert rep.integrated_errors[0] > rep.integrated_errors[2]
    assert -1.4 < rep.fitted_slope_int < -0.6
    assert "40" in rep.notes


def test_probe_sample_nests_and_is_the_integrated_study_probe_set(monkeypatch):
    import spatialfda.asymptotics as asy

    g = Grid.uniform(0.0, 1.0, 16)
    small, large = probe_sample(BM, g, 20, 4), probe_sample(BM, g, 200, 4)
    assert np.array_equal(small.values, large.values[:20])
    seen = []
    real = asy._sign_errors

    def spy(spec, probes, *args):
        seen.append(probes.values.copy())
        return real(spec, probes, *args)

    monkeypatch.setattr(asy, "_sign_errors", spy)
    integrated_error_study(BM, g, [20, 40], reps=1, seed=4, n_probes=20, n_ref=500)
    assert np.array_equal(seen[0], small.values)


def test_bahadur_study_checks_the_rank_bound_before_the_reference_draw(monkeypatch):
    import spatialfda.asymptotics as asy
    from spatialfda import DirectionU, RankDeficiencyError, pca

    def no_draw(*args, **kwargs):
        raise AssertionError("the reference sample was drawn")

    g = Grid.uniform(0.0, 1.0, 16)
    # the PCA on the drawn reference raises exactly this error
    ref = sample_process(BM, g, 8, seed=1)
    with pytest.raises(RankDeficiencyError) as expected:
        pca(ref, 10)
    monkeypatch.setattr(asy, "sample_process", no_draw)
    with pytest.raises(RankDeficiencyError) as exc:
        bahadur_rate_study(BM, g, [4, 100], reps=1, seed=1, n_ref=8, d=10)  # 10 > n_ref - 1
    assert str(exc.value) == str(expected.value)
    with pytest.raises(RankDeficiencyError, match="89 components from an 100000 x 64"):
        bahadur_rate_study(BM, Grid.uniform(0.0, 1.0, 64), [250, 1000, 8000], reps=1, seed=1, d=89)
    with pytest.raises(ValueError, match="dimension"):
        bahadur_rate_study(BM, g, [4, 16], reps=1, seed=1, u=DirectionU.zero(3), n_ref=50)


def test_bahadur_study_caps_its_default_dimension():
    # the default floor(sqrt(400)) = 20 exceeds D = 16, and BM paths are 0 at
    # t = 0, so the reference has rank 15; an explicit d of 16 still raises
    from spatialfda import DirectionU, RankDeficiencyError

    g = Grid.uniform(0.0, 1.0, 16)
    rep = bahadur_rate_study(BM, g, [100, 400], reps=2, seed=1, n_ref=2000)
    assert rep.notes.startswith("working dimension 15 ")
    with pytest.raises(RankDeficiencyError, match="numerical rank below 16"):
        bahadur_rate_study(BM, g, [100, 400], reps=2, seed=1, n_ref=2000, d=16)
    with pytest.raises(RankDeficiencyError, match="numerical rank below 16"):  # u fixes d = 16
        bahadur_rate_study(BM, g, [100, 400], reps=2, seed=1, u=DirectionU.zero(16), n_ref=2000)


def test_bahadur_study_rejects_one_dimension_before_the_reference_draw(monkeypatch):
    import spatialfda.asymptotics as asy
    from spatialfda import ConditioningError, DirectionU

    def no_draw(*args, **kwargs):
        raise AssertionError("the reference sample was drawn")

    monkeypatch.setattr(asy, "sample_process", no_draw)
    g = Grid.uniform(0.0, 1.0, 16)
    for u in (DirectionU.zero(1), DirectionU.along(1, 0.4, 1)):
        with pytest.raises(ConditioningError, match="d >= 2, got 1"):
            bahadur_rate_study(BM, g, [100, 400], reps=1, seed=1, u=u, d=1)
    with pytest.raises(ConditioningError, match="d >= 2, got 1"):
        bahadur_rate_study(BM, g, [2, 3], reps=1, seed=1)  # default d = isqrt(3)


def test_bahadur_study_residual_faster_than_linear():
    # 48 replicates put the +-0.2 band on the linear slope near 4 standard
    # deviations of its Monte Carlo spread (about 0.05; 0.1 at 12 replicates)
    g = Grid.uniform(0.0, 1.0, 16)
    rep = bahadur_rate_study(
        BM, g, [100, 400, 1600], reps=48, seed=13, d=6, n_ref=20_000
    )
    assert rep.study == "bahadur"
    assert rep.fitted_slope_linear == pytest.approx(-0.5, abs=0.2)
    assert rep.fitted_slope_residual < -0.5
    assert rep.fitted_slope_residual < rep.fitted_slope_linear
    # the residual is smaller than the linear term at every sample size
    assert all(
        r < lin for r, lin in zip(rep.residual_errors, rep.linear_errors)
    )


def test_slope_stable_under_dyadic_widening():
    # adding one dyadic step to the n range moves the fitted slope by < 0.1
    g = Grid.uniform(0.0, 1.0, 16)
    probes = probe_sample(BM, g, 8, 21)
    a = gc_rate_study(BM, probes, [100, 400, 1600], reps=12, seed=21, n_ref=20_000)
    b = gc_rate_study(
        BM, probes, [100, 400, 1600, 6400], reps=12, seed=21, n_ref=20_000
    )
    assert abs(a.fitted_slope_sup - b.fitted_slope_sup) < 0.1


def test_single_probe_error_improves_in_most_reps():
    # at the mean curve, the n=4000 error beats the n=250 error in >= 95%
    # of replications (paired on independent draws per replication)
    from spatialfda.asymptotics import _TAG_DATA, _TAG_REF
    from spatialfda.spatialdist import _sign_mean

    g = Grid.uniform(0.0, 1.0, 16)
    w = g.weights
    ref = sample_process(BM, g, 50_000, stream_seed(77, _TAG_REF))
    x = np.zeros((1, 16))
    s_ref = _sign_mean(x, ref.values, w)
    wins = 0
    reps = 40
    for rep in range(reps):
        err = {}
        for i_n, n in enumerate((250, 4000)):
            data = sample_process(BM, g, n, stream_seed(77, _TAG_DATA, i_n, rep))
            diff = _sign_mean(x, data.values, w) - s_ref
            err[n] = float(np.sqrt(np.sum(w * diff * diff)))
        wins += err[4000] < err[250]
    assert wins / reps >= 0.95


def test_studies_are_thread_invariant(monkeypatch):
    # 13 chunks, the reference's and 12 replicates', on two workers and on one
    from spatialfda import simulate

    g = Grid.uniform(0.0, 1.0, 12)

    def study():
        return integrated_error_study(BM, g, [50, 200], reps=6, seed=2, n_probes=10, n_ref=2000)

    rep2 = study()
    monkeypatch.setattr(simulate, "_WORKERS", 1)
    rep1 = study()
    assert rep1.integrated_errors == rep2.integrated_errors
    assert rep1.fitted_slope_int == rep2.fitted_slope_int


def test_bahadur_split_matches_rate_study_bitwise():
    # a one-replicate study is linearization + bahadur_split on its own draws
    from spatialfda import pca, project_sample
    from spatialfda.asymptotics import _TAG_DATA, _TAG_REF
    from spatialfda.quantile import bahadur_split, linearization

    g = Grid.uniform(0.0, 1.0, 16)
    n_values, d, n_ref, seed = [100, 400], 5, 3000, 8
    rep = bahadur_rate_study(BM, g, n_values, reps=1, seed=seed, d=d, n_ref=n_ref)
    ref = sample_process(BM, g, n_ref, stream_seed(seed, _TAG_REF))
    basis = pca(ref, d)
    b = np.zeros(d)
    q_ref, J_inv = linearization(project_sample(ref, basis), b)
    for i_n, n in enumerate(n_values):
        data = sample_process(BM, g, n, stream_seed(seed, _TAG_DATA, i_n, 0))
        residual, linear = bahadur_split(project_sample(data, basis), b, q_ref, J_inv)
        assert residual == rep.residual_errors[i_n]
        assert linear == rep.linear_errors[i_n]
