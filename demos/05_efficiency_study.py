"""Efficiency of the spatial median relative to the sample mean.

For a Gaussian process the sample mean is the maximum likelihood location
estimator, so the spatial median gives up a little efficiency; under heavy
tails the ranking flips and the median wins by a wide margin. The numbers
below are trace ratios trace(Sigma) / trace(V0) estimated by Monte Carlo,
with J and Lambda diagonal in Karhunen-Loeve coordinates; the t-law rows
follow from their Gaussian twins through the elliptical identity.

A reduced Monte Carlo budget keeps this demo under a second; pass
--full to reproduce the shipped table at its production budget.
"""

import argparse
import time

from spatialfda import efficiency_table


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--full", action="store_true",
                    help="production Monte Carlo budget (a few seconds)")
    args = ap.parse_args()
    mc = 200_000 if args.full else 20_000

    t0 = time.perf_counter()
    rows = efficiency_table(mc=mc)
    dt = time.perf_counter() - t0

    print(f"efficiency sweep, mc = {mc} (elapsed {dt:.1f}s)")
    print(f"{'process':18s} {'ARE':>7s}  cross-check")
    for row in rows:
        ref = "" if row.reference is None else f"{row.reference:.3f}"
        print(f"{row.label:18s} {row.report.are:7.3f}  {ref}")

    hs = [r.report.are for r in rows if r.label.startswith("fbm-h")]
    trend = "monotone decreasing" if all(
        a > b for a, b in zip(hs, hs[1:])
    ) else "NOT monotone"
    print(f"\nARE along the Hurst sweep is {trend}: smoother processes "
          "concentrate variance in fewer components, which favors the mean")
    t3 = next(r for r in rows if r.label == "t3-min")
    print(f"under t(3) coefficients the median is {t3.report.are:.2f}x "
          "as efficient as the mean")


if __name__ == "__main__":
    main()
