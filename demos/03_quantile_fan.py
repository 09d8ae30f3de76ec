"""Spatial quantiles of a simulated Brownian sample.

Solves the spatial median and a fan of directional quantiles along the
leading principal components, prints solver diagnostics, and renders the
fan to an SVG next to this script.
"""

import pathlib
import time

import numpy as np

from spatialfda import (
    Curve,
    Grid,
    KernelSpec,
    ProcessSpec,
    curve_fan_svg,
    inner_product,
    quantile_fan,
    sample_process,
)

OUT = pathlib.Path(__file__).with_name("quantile_fan.svg")


def main():
    grid = Grid.uniform(0.0, 1.0, 100)
    sample = sample_process(ProcessSpec(KernelSpec.brownian()), grid, 900, seed=2)

    # the median and every direction share one projected, centered sample
    t0 = time.perf_counter()
    fan = quantile_fan(sample, ks=[1, 2], cs=[0.3, 0.6])
    elapsed = time.perf_counter() - t0
    med = fan.median
    print(f"spatial median: {med.iterations} Newton steps, "
          f"gradient norm {med.grad_norm:.1e}, converged={med.converged}")
    print(f"  sup |median curve| = {np.abs(med.curve.values).max():.4f} "
          "(small: the process is symmetric about zero)")
    print(f"\nfan of {len(fan.entries)} directional quantiles "
          f"and the median in {elapsed:.2f}s")

    # quantiles along +-c phi_1 order themselves along that component
    basis = fan.median.coefficients.basis
    phi1 = Curve(grid, basis.functions[0])
    for k, c in [(1, -0.6), (1, -0.3), (1, 0.3), (1, 0.6)]:
        entry = next(e for e in fan.entries if e.k == k and e.c == c)
        proj = inner_product(entry.solution.curve, phi1)
        print(f"  u = {c:+.1f} along phi_1: projection {proj:+.4f}")

    curves = [("median", fan.median.curve)]
    curves += [(f"{e.k}:{e.c:+.1f}", e.solution.curve) for e in fan.entries]
    OUT.write_text(curve_fan_svg(curves))
    print(f"\nwrote {OUT.name} ({OUT.stat().st_size} bytes)")


if __name__ == "__main__":
    main()
