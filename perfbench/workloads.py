"""The four benchmark workloads: seeded inputs, CLI argument lists, output checks.

Inputs are generated here with plain numpy from the workload seed, so the
program under test only ever sees the generated CSV files and CLI seeds.
Every check raises CheckFailed with a one-line reason; the worker counts a
raised check as a failed operation.
"""

from __future__ import annotations

import csv
import json
import math
from importlib import resources

import numpy as np

# Criterion-1 acceptance bands (tests/test_acceptance.py) hold at mc = 2e5.
# Monte Carlo error scales as 1/sqrt(mc), so the benchmark widens each band
# by sqrt(2e5 / mc) for the mc it actually runs.
EFFICIENCY_BANDS = {
    "brownian": 0.03,
    "fbm-h0.1": 0.03,
    "fbm-h0.9": 0.03,
    "t3-min": 0.08,
    "t9-min": 0.04,
    "gauss-kernel": 0.03,
    "gauss-kernel-t3": 0.08,
    "gauss-kernel-t9": 0.04,
}
BAND_MC = 200_000

GC_SLOPE = -0.5
GC_SLOPE_TOL = 0.1

# Rows of the DD-plot re-derived by the plain-numpy reference depth.
DD_CHECK_ROWS = 8
DD_TOL = 1e-9

FAN_KS = (1, 2, 3, 4, 5)
FAN_CS = (-0.75, -0.5, -0.25, 0.25, 0.5, 0.75)
MEDIAN_SPEC = "1:0"

# Sizes per scale. "full" is what the benchmark measures; "smoke" only checks
# that the harness itself works, in a few seconds per workload.
SIZES = {
    "full": {
        "eff_mc": 5000,
        "eff_grid": 200,
        "dd_n": 1000,
        "dd_grid": 100,
        "fan_n": 4000,
        "fan_grid": 100,
        "gc_grid": 64,
        "gc_n_list": "250,1000,4000",
        "gc_reps": 50,
        "gc_n_ref": 100_000,
    },
    "smoke": {
        "eff_mc": 400,
        "eff_grid": 24,
        "dd_n": 60,
        "dd_grid": 20,
        "fan_n": 400,
        "fan_grid": 40,
        "gc_grid": 16,
        "gc_n_list": "250,1000,4000",
        "gc_reps": 20,
        "gc_n_ref": 20_000,
    },
}


class CheckFailed(Exception):
    """An operation's output did not pass its check."""


# Files each workload's operation writes; all of them are compared byte for
# byte between operations and between --threads 1 and --threads N.
ARTIFACTS = {
    "eff-table": ("eff.json",),
    "ddplot": ("dd.csv", "dd.svg"),
    "quantile-fan": ("fan_out.csv", "fan.json"),
    "rate-gc": ("gc.json",),
}


# ---------------------------------------------------------------------------
# Inputs.


def cli_seed(seed: int) -> int:
    """The --seed passed to the program, derived from the workload seed."""
    return int(np.random.default_rng([seed, 1]).integers(1, 2**31 - 1))


def _brownian(rng, n: int, t: np.ndarray) -> np.ndarray:
    steps = rng.standard_normal((n, t.size - 1)) * np.sqrt(np.diff(t))
    return np.concatenate([np.zeros((n, 1)), np.cumsum(steps, axis=1)], axis=1)


def _fractional_brownian(rng, n: int, t: np.ndarray, hurst: float) -> np.ndarray:
    s = t[1:]
    h2 = 2.0 * hurst
    cov = 0.5 * (s[:, None] ** h2 + s[None, :] ** h2 - np.abs(s[:, None] - s[None, :]) ** h2)
    paths = rng.standard_normal((n, s.size)) @ np.linalg.cholesky(cov).T
    return np.concatenate([np.zeros((n, 1)), paths], axis=1)


def _write_csv(path, t: np.ndarray, values: np.ndarray) -> None:
    lines = [",".join(repr(float(v)) for v in t)]
    lines += [",".join(repr(float(v)) for v in row) for row in values]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def make_inputs(name: str, seed: int, workdir, scale: str) -> None:
    """Write the workload's input CSVs into workdir; same seed, same bytes."""
    size = SIZES[scale]
    rng = np.random.default_rng([seed, 2])
    if name == "ddplot":
        t = np.linspace(0.0, 1.0, size["dd_grid"])
        _write_csv(workdir / "a.csv", t, _brownian(rng, size["dd_n"], t))
        _write_csv(workdir / "b.csv", t, _fractional_brownian(rng, size["dd_n"], t, 0.7))
    elif name == "quantile-fan":
        t = np.linspace(0.0, 1.0, size["fan_grid"])
        _write_csv(workdir / "fan.csv", t, _brownian(rng, size["fan_n"], t))


def fan_specs() -> list[str]:
    return [MEDIAN_SPEC] + [f"{k}:{c}" for k in FAN_KS for c in FAN_CS]


def argv(name: str, seed: int, workdir, scale: str, threads: int) -> list[str]:
    """CLI arguments of one operation of the workload."""
    size = SIZES[scale]
    d = str(workdir)
    if name == "eff-table":
        args = [
            "efficiency", "--table", "--mc", str(size["eff_mc"]),
            "--grid-size", str(size["eff_grid"]), "--seed", str(cli_seed(seed)),
            "--out", f"{d}/eff.json",
        ]
    elif name == "ddplot":
        args = [
            "ddplot", "--a", f"{d}/a.csv", "--b", f"{d}/b.csv",
            "--out", f"{d}/dd.csv", "--svg", f"{d}/dd.svg",
        ]
    elif name == "quantile-fan":
        args = ["quantile", "--in", f"{d}/fan.csv"]
        for spec in fan_specs():
            args += ["--u-spec", spec]
        args += ["--out", f"{d}/fan_out.csv", "--json", f"{d}/fan.json"]
    else:
        args = [
            "converge", "--study", "gc", "--process", "bm",
            "--grid-size", str(size["gc_grid"]), "--n-list", size["gc_n_list"],
            "--reps", str(size["gc_reps"]), "--n-ref", str(size["gc_n_ref"]),
            "--seed", str(cli_seed(seed)), "--out", f"{d}/gc.json",
        ]
    return args + ["--threads", str(threads)]


# ---------------------------------------------------------------------------
# Output checks.


def _read_curves(path):
    """Grid, weights, curve rows and metadata of a functional-data CSV.

    A plain parser, independent of spatialfda.io; missing weights get the
    trapezoid rule, as the format specifies for equispaced grids.
    """
    meta, rows, weights = {}, [], None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#weights,"):
                weights = np.array([float(c) for c in line.split(",")[1:]])
            elif line.startswith("#"):
                key, _, value = line.lstrip("# ").partition("=")
                meta[key] = value
            elif line:
                rows.append([float(c) for c in line.split(",")])
    t = np.array(rows[0])
    if weights is None:
        h = t[1] - t[0]
        weights = np.full(t.size, h)
        weights[0] = weights[-1] = h / 2.0
    return t, weights, np.array(rows[1:]), meta


def _reference_depth(x: np.ndarray, data: np.ndarray, w: np.ndarray) -> float:
    """1 - ||mean sign(x - X_i)|| with coincident data contributing zero."""
    diff = x[None, :] - data
    r = np.sqrt(np.sum(w * diff * diff, axis=1))
    keep = r > 0.0
    signs = diff[keep] / r[keep, None]
    s = signs.sum(axis=0) / data.shape[0]
    return 1.0 - min(1.0, math.sqrt(float(np.sum(w * s * s))))


class Checker:
    """Output checks of one workload; holds what they precompute once."""

    def __init__(self, name: str, workdir, scale: str):
        self.name = name
        self.workdir = workdir
        self.size = SIZES[scale]
        self.schema = None  # validator of the schema the package ships
        self.basis = None  # quantile-fan: the CLI's PCA basis of the input
        self.dd_inputs = None  # ddplot: weights and both input samples

    def check(self) -> None:
        getattr(self, "_check_" + self.name.replace("-", "_"))()

    def _json(self, fname):
        import jsonschema

        if self.schema is None:
            text = resources.files("spatialfda").joinpath("schemas/reports.schema.json").read_text()
            schema = json.loads(text)
            self.schema = jsonschema.validators.validator_for(schema)(schema)
        with open(self.workdir / fname, encoding="utf-8") as fh:
            doc = json.load(fh)
        try:
            self.schema.validate(doc)
        except jsonschema.ValidationError as exc:
            raise CheckFailed(f"{fname} fails the schema: {exc.message}") from None
        return doc

    def _check_eff_table(self) -> None:
        doc = self._json("eff.json")
        if len(doc["rows"]) != 15:
            raise CheckFailed(f"efficiency table has {len(doc['rows'])} rows, expected 15")
        widen = math.sqrt(BAND_MC / self.size["eff_mc"])
        for row in doc["rows"]:
            band = EFFICIENCY_BANDS.get(row["label"])
            if band is None or row["reference"] is None:
                continue
            got = row["report"]["are"]
            if abs(got - row["reference"]) > band * widen:
                raise CheckFailed(
                    f"{row['label']}: ARE {got:.4f} outside "
                    f"{row['reference']} +- {band * widen:.4f} (mc={self.size['eff_mc']})"
                )

    def _check_ddplot(self) -> None:
        with open(self.workdir / "dd.csv", encoding="utf-8") as fh:
            rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
        header, rows = rows[0], rows[1:]
        if header != ["d1", "d2", "source"]:
            raise CheckFailed(f"dd.csv header {header}")
        if self.dd_inputs is None:
            _, w, a, _ = _read_curves(self.workdir / "a.csv")
            _, _, b, _ = _read_curves(self.workdir / "b.csv")
            self.dd_inputs = w, a, b
        w, a, b = self.dd_inputs
        pooled = np.concatenate([a, b])
        if len(rows) != pooled.shape[0]:
            raise CheckFailed(f"dd.csv has {len(rows)} rows, expected {pooled.shape[0]}")
        for i in np.linspace(0, pooled.shape[0] - 1, DD_CHECK_ROWS).astype(int):
            for col, sample in ((0, a), (1, b)):
                want = _reference_depth(pooled[i], sample, w)
                got = float(rows[i][col])
                if abs(got - want) > DD_TOL:
                    raise CheckFailed(f"dd row {i} d{col + 1}: {got!r} vs reference {want!r}")
        with open(self.workdir / "dd.svg", encoding="utf-8") as fh:
            if not fh.read(5) == "<svg ":
                raise CheckFailed("dd.svg does not start with an <svg> element")

    def _check_quantile_fan(self) -> None:
        doc = self._json("fan.json")
        bad = [s["label"] for s in doc["solutions"] if not s["converged"]]
        if bad:
            raise CheckFailed(f"quantile solves did not converge: {bad}")
        _, w, curves, meta = _read_curves(self.workdir / "fan_out.csv")
        labels = meta["labels"].split(";")
        if labels != fan_specs():
            raise CheckFailed(f"quantile labels {labels}")
        by_label = dict(zip(labels, curves))
        med = by_label[MEDIAN_SPEC]
        phi = self._phi(int(meta["d"]))
        for k in FAN_KS:
            cs = sorted((0.0,) + FAN_CS)
            projs = [
                float(np.sum(w * phi[k - 1] * ((med if c == 0.0 else by_label[f"{k}:{c}"]) - med)))
                for c in cs
            ]
            if not all(p2 >= p1 for p1, p2 in zip(projs, projs[1:])):
                raise CheckFailed(f"projections along phi_{k} not ordered in c: {projs}")

    def _phi(self, d: int) -> np.ndarray:
        """The CLI's working basis: PCA of the input sample (as criterion 3 uses)."""
        if self.basis is None:
            from spatialfda.funcspace import pca
            from spatialfda.io import read_sample

            sample, _ = read_sample(self.workdir / "fan.csv")
            self.basis = np.asarray(pca(sample, d).functions)
        return self.basis

    def _check_rate_gc(self) -> None:
        doc = self._json("gc.json")
        slope = doc["report"]["fitted_slope_sup"]
        if abs(slope - GC_SLOPE) > GC_SLOPE_TOL:
            raise CheckFailed(f"gc slope {slope:.4f} outside {GC_SLOPE} +- {GC_SLOPE_TOL}")
