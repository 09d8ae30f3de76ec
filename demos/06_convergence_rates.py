"""Convergence rates of the empirical spatial distribution.

Three seeded Monte Carlo studies fit log-log slopes of error against
sample size. Expected exponents: about -1/2 for the worst error over a
probe set, about -1 for the integrated squared error, and faster than
-1/2 for the Bahadur linearization residual of the quantile.

Reduced scale here for speed; pass --full for the production scale.
"""

import argparse
import time

from spatialfda import (
    Grid,
    KernelSpec,
    ProcessSpec,
    bahadur_rate_study,
    gc_rate_study,
    integrated_error_study,
    probe_sample,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--full", action="store_true",
                    help="production scale (about a minute)")
    args = ap.parse_args()

    spec = ProcessSpec(KernelSpec.brownian())
    grid = Grid.uniform(0.0, 1.0, 64)
    if args.full:
        n_values, reps, n_ref = [250, 1000, 4000], 50, 100_000
    else:
        n_values, reps, n_ref = [100, 400, 1600], 15, 20_000

    probes = probe_sample(spec, grid, 20, seed=2)
    t0 = time.perf_counter()
    gc = gc_rate_study(spec, probes, n_values, reps, seed=2, n_ref=n_ref)
    print(f"worst probe error     slope {gc.fitted_slope_sup:+.3f}  (expect ~ -0.5)")
    for n, e in zip(gc.n_values, gc.sup_errors):
        print(f"  n={n:5d}  median error {e:.4f}")

    integ = integrated_error_study(
        spec, grid, n_values, reps, seed=2, n_probes=100, n_ref=n_ref
    )
    print(f"\nintegrated sq. error  slope {integ.fitted_slope_int:+.3f}  (expect ~ -1)")

    bah = bahadur_rate_study(spec, grid, n_values, reps, seed=2, d=6, n_ref=n_ref)
    print(f"\nBahadur residual      slope {bah.fitted_slope_residual:+.3f}")
    print(f"linear term           slope {bah.fitted_slope_linear:+.3f}  (~ -0.5)")
    faster = bah.fitted_slope_residual < bah.fitted_slope_linear
    print(f"residual decays faster than the linear term: {faster}")
    print(f"\nelapsed {time.perf_counter() - t0:.1f}s")


if __name__ == "__main__":
    main()
