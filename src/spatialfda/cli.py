"""Command-line front end: ingestion, dispatch, CSV/JSON/SVG emission.

Subcommands: simulate, quantile, depth, ddplot, efficiency, converge.
Exit codes: 0 success, 1 runtime or numeric failure (machine-readable error
JSON on stderr), 2 usage error.

Options can come from a JSON config file (--config); explicit flags win
over config values, config values win over built-in defaults. Every
emitted JSON document validates against the schema shipped in
schemas/reports.schema.json, and stochastic outputs embed the seed and the
library version, so identical invocations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from importlib import resources

import jsonschema
import numpy as np

from . import __version__, parallel
from .asymptotics import (
    _TAG_PROBES,
    bahadur_rate_study,
    gc_rate_study,
    integrated_error_study,
)
from .depth import dd_plot, depth_profile
from .efficiency import (
    DEFAULT_GRID_SIZE,
    DEFAULT_MC,
    DEFAULT_TABLE_SEED,
    are,
    efficiency_table,
    real_line_grid,
)
from .errors import SpatialFDAError
from .funcspace import Basis, FunctionalSample, Grid, orthonormalize, pca
from .io import read_sample, write_sample, write_table
from .quantile import DirectionU, solve_quantile
from .simulate import (
    GAUSSIAN_LAW,
    GENERATOR_NAME,
    STUDENT_T_LAW,
    KernelSpec,
    ProcessSpec,
    bm_eigenpair,
    sample_process,
    stream_seed,
)
from .svg import curve_fan_svg, dd_plot_svg

PROCESSES = ("bm", "fbm", "t", "gauss-kernel")

DEFAULTS = {
    "simulate": {"grid_size": 100, "n": 100},
    "quantile": {"basis": "pca"},
    "depth": {},
    "ddplot": {},
    "efficiency": {"grid_size": DEFAULT_GRID_SIZE, "mc": DEFAULT_MC, "table": False},
    "converge": {
        "grid_size": 64,
        "reps": 50,
        "n_list": "250,1000,4000",
        "n_ref": 100_000,
        "probes": None,
    },
}


def _schema():
    text = resources.files("spatialfda").joinpath("schemas/reports.schema.json").read_text()
    return json.loads(text)


_SCHEMA = None


def _validate(doc) -> None:
    global _SCHEMA
    if _SCHEMA is None:
        _SCHEMA = _schema()
    jsonschema.validate(doc, _SCHEMA)


def emit_json(doc, path=None) -> None:
    """Validate against the shipped schema, then write (file or stdout).

    Validation runs on the serialized round-trip, i.e. on exactly what the
    file will contain (tuples become arrays there).
    """
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    _validate(json.loads(text))
    if path:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _error_doc(exc: BaseException) -> dict:
    return {
        "kind": "error",
        "version": __version__,
        "error": {"type": type(exc).__name__, "message": str(exc)},
    }


def ingest(path) -> FunctionalSample:
    """Read a functional-data CSV, echoing the shape to stderr."""
    sample, _ = read_sample(path)
    print(
        f"read {len(sample)} curves on {sample.grid.size} grid points from {path}",
        file=sys.stderr,
    )
    return sample


# ---------------------------------------------------------------------------
# Argument handling.


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON file with option defaults; flags win")
    common.add_argument(
        "--threads",
        type=int,
        help="accepted and checked (>= 1); the work runs on one thread and "
        "BLAS threads follow OPENBLAS_NUM_THREADS",
    )

    p = argparse.ArgumentParser(prog="spatialfda", description=__doc__.splitlines()[0])
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = p.add_subparsers(dest="subcommand", required=True)

    sim = subs.add_parser("simulate", parents=[common], help="draw process paths to CSV")
    sim.add_argument("--process", choices=PROCESSES)
    sim.add_argument("--hurst", type=float, help="Hurst index for fbm")
    sim.add_argument("--df", type=int, help="degrees of freedom for a student-t law")
    sim.add_argument("--n", type=int, help="number of paths")
    sim.add_argument("--grid-size", type=int, dest="grid_size")
    sim.add_argument("--seed", type=int)
    sim.add_argument("--out", help="output functional-data CSV")

    qua = subs.add_parser("quantile", parents=[common], help="spatial u-quantiles of a sample")
    qua.add_argument("--in", dest="in_path", help="input functional-data CSV")
    qua.add_argument(
        "--u-spec",
        dest="u_spec",
        action="append",
        help='direction as "k:c" pairs, e.g. "1:0.5" or "1:0.25,2:-0.1"; repeatable',
    )
    qua.add_argument("--u-file", dest="u_file", help="CSV of direction coefficient rows")
    qua.add_argument("--d", type=int, help="working dimension (default floor(sqrt(n)))")
    qua.add_argument("--basis", choices=("pca", "bm", "file"))
    qua.add_argument("--basis-file", dest="basis_file", help="functional-data CSV of basis rows")
    qua.add_argument("--out", help="output CSV of quantile curves")
    qua.add_argument("--json", dest="json_path", help="diagnostics JSON path (default stdout)")
    qua.add_argument("--svg", help="optional curve-fan SVG path")

    dep = subs.add_parser("depth", parents=[common], help="spatial depth of query curves")
    dep.add_argument("--in", dest="in_path")
    dep.add_argument("--query", help="queries CSV (default: the sample itself)")
    dep.add_argument("--out", help="output CSV of depths")

    ddp = subs.add_parser("ddplot", parents=[common], help="depth-depth plot of two samples")
    ddp.add_argument("--a", dest="a_path")
    ddp.add_argument("--b", dest="b_path")
    ddp.add_argument("--out", help="output CSV (d1, d2, source)")
    ddp.add_argument("--svg", help="optional SVG path")

    eff = subs.add_parser("efficiency", parents=[common], help="median-vs-mean efficiency")
    eff.add_argument("--process", choices=PROCESSES)
    eff.add_argument("--hurst", type=float)
    eff.add_argument("--df", type=int)
    eff.add_argument("--grid-size", type=int, dest="grid_size")
    eff.add_argument("--mc", type=int)
    eff.add_argument("--seed", type=int)
    eff.add_argument("--table", action="store_const", const=True, help="run the full sweep")
    eff.add_argument("--out", help="output JSON path (default stdout)")

    con = subs.add_parser("converge", parents=[common], help="convergence-rate studies")
    con.add_argument("--study", choices=("gc", "integrated", "bahadur"))
    con.add_argument("--process", choices=PROCESSES)
    con.add_argument("--hurst", type=float)
    con.add_argument("--df", type=int)
    con.add_argument("--n-list", dest="n_list", help='sample sizes, e.g. "250,1000,4000"')
    con.add_argument("--reps", type=int)
    con.add_argument("--seed", type=int)
    con.add_argument("--grid-size", type=int, dest="grid_size")
    con.add_argument("--n-ref", type=int, dest="n_ref", help="reference sample size")
    con.add_argument("--probes", type=int, help="probe count (gc: 20, integrated: 200)")
    con.add_argument("--out", help="output JSON path (default stdout)")
    con.add_argument("--csv", dest="csv_path", help="optional CSV of per-n medians")

    return p


# Options that must be positive integers; seed must be a nonnegative one.
_POSITIVE_INTS = ("n", "threads", "grid_size", "mc", "reps", "n_ref", "probes", "d")


def _merge(args: argparse.Namespace, parser) -> dict:
    """Config-file values fill in unset flags; built-in defaults fill the rest.

    The merged values are checked once, so a bad config value is a usage
    error (exit 2) just like a bad flag, and so is a config key that names
    no option of the subcommand.
    """
    cfg = dict(DEFAULTS.get(args.subcommand, {}))
    options = vars(args)
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError("config file must hold a JSON object")
        for key, value in loaded.items():
            key = str(key).replace("-", "_")
            if key not in options:
                parser.error(f"config key {key!r} is not an option of {args.subcommand}")
            cfg[key] = value
    for key, value in options.items():
        if key in ("config",):
            continue
        if value is not None:
            cfg[key] = value
    for key in (*_POSITIVE_INTS, "seed"):
        value = cfg.get(key)
        low = 0 if key == "seed" else 1
        if value is not None and (type(value) is not int or value < low):
            parser.error(f"--{key.replace('_', '-')} must be an integer >= {low}, got {value!r}")
    return cfg


def _require(cfg: dict, key: str, parser, flag: str):
    value = cfg.get(key)
    if value is None:
        parser.error(f"{flag} is required (flag or config)")
    return value


def _process_spec(cfg: dict, parser) -> tuple[ProcessSpec, str]:
    """ProcessSpec plus its domain ("unit-interval" or "real-line")."""
    name = _require(cfg, "process", parser, "--process")
    hurst = cfg.get("hurst")
    df = cfg.get("df")
    if df is not None and (type(df) is not int or df < 3):
        parser.error(f"--df must be an integer >= 3, got {df!r}")
    if name == "bm":
        return ProcessSpec(KernelSpec.brownian(), GAUSSIAN_LAW), "unit-interval"
    if name == "fbm":
        if not (isinstance(hurst, (int, float)) and 0 < hurst < 1):
            parser.error(f"--hurst in (0, 1) is required for fbm, got {hurst!r}")
        return ProcessSpec(KernelSpec.fractional_brownian(hurst), GAUSSIAN_LAW), "unit-interval"
    if name == "t":
        if df is None:
            parser.error("--df is required for the t process")
        return ProcessSpec(KernelSpec.min_kernel(), STUDENT_T_LAW, df=df), "unit-interval"
    if df is not None:
        return ProcessSpec(KernelSpec.gaussian_kernel(), STUDENT_T_LAW, df=df), "real-line"
    return ProcessSpec(KernelSpec.gaussian_kernel(), GAUSSIAN_LAW), "real-line"


def _grid_for(domain: str, grid_size: int, seed: int) -> Grid:
    if domain == "real-line":
        return real_line_grid(seed, grid_size)
    return Grid.uniform(0.0, 1.0, grid_size)


def _process_label(spec: ProcessSpec) -> str:
    k = spec.kernel
    core = {"brownian": "bm", "min": "t-min", "gaussian": "gauss-kernel"}.get(
        k.kind, k.kind
    )
    if k.kind == "fractional-brownian":
        core = f"fbm(h={k.hurst:g})"
    if spec.coefficient_law == STUDENT_T_LAW:
        core += f"+t{spec.df}"
    return core


# ---------------------------------------------------------------------------
# Subcommand handlers. Each returns the exit code.


def _cmd_simulate(cfg, parser) -> int:
    spec, domain = _process_spec(cfg, parser)
    seed = _require(cfg, "seed", parser, "--seed")
    out = _require(cfg, "out", parser, "--out")
    grid = _grid_for(domain, cfg["grid_size"], seed)
    sample = sample_process(spec, grid, cfg["n"], seed)
    write_sample(
        out,
        sample,
        {
            "process": _process_label(spec),
            "seed": seed,
            "version": __version__,
            "generator": GENERATOR_NAME,
        },
    )
    return 0


def _parse_u_vector(text: str, d: int, parser) -> np.ndarray:
    vec = np.zeros(d)
    for part in text.split(","):
        k_str, sep, c_str = part.partition(":")
        if not sep:
            parser.error(f'--u-spec entry {part!r} is not "k:c"')
        try:
            k, c = int(k_str), float(c_str)
        except ValueError:
            parser.error(f'--u-spec entry {part!r} is not "k:c"')
        if not 1 <= k <= d:
            parser.error(f"--u-spec index {k} outside 1..{d}")
        if not math.isfinite(c):
            parser.error(f"--u-spec coefficient {c_str!r} is not finite")
        vec[k - 1] = c
    return vec


def _resolve_cli_basis(cfg, sample, d, parser) -> tuple[Basis, str]:
    name = cfg["basis"]
    if name == "pca":
        return pca(sample, d), "pca"
    if name == "bm":
        rows = []
        lams = []
        for k in range(1, d + 1):
            lam, phi = bm_eigenpair(k, sample.grid)
            rows.append(phi.values)
            lams.append(lam**2)
        return orthonormalize(np.array(rows), sample.grid, np.array(lams)), "bm"
    path = _require(cfg, "basis_file", parser, "--basis-file")
    loaded, _ = read_sample(path)
    if not loaded.grid.matches(sample.grid):
        raise SpatialFDAError("basis file grid differs from the sample grid")
    if len(loaded) < d:
        raise SpatialFDAError(f"basis file has {len(loaded)} rows, need {d}")
    return Basis(sample.grid, loaded.values[:d]), "file"


def _cmd_quantile(cfg, parser) -> int:
    sample = ingest(_require(cfg, "in_path", parser, "--in"))
    n = len(sample)
    d = cfg.get("d") or max(1, math.isqrt(n))
    basis, basis_name = _resolve_cli_basis(cfg, sample, d, parser)

    jobs: list[tuple[str, DirectionU]] = []
    for text in cfg.get("u_spec") or []:
        jobs.append((text, DirectionU(_parse_u_vector(text, d, parser))))
    if cfg.get("u_file"):
        rows = np.loadtxt(cfg["u_file"], delimiter=",", ndmin=2)
        if rows.shape[1] != d:
            raise SpatialFDAError(
                f"direction file has {rows.shape[1]} columns, expected {d}"
            )
        for i, row in enumerate(rows):
            jobs.append((f"file:{i + 1}", DirectionU(row)))
    if not jobs:
        jobs.append(("median", DirectionU.zero(d)))

    sols = [solve_quantile(sample, u=u, basis=basis, d=d) for _, u in jobs]
    labels = [label for label, _ in jobs]

    out = cfg.get("out")
    if out:
        curves = FunctionalSample(sample.grid, np.array([s.curve.values for s in sols]))
        write_sample(
            out,
            curves,
            {
                "labels": ";".join(labels),
                "d": d,
                "basis": basis_name,
                "version": __version__,
            },
        )
    if cfg.get("svg"):
        with open(cfg["svg"], "w", encoding="utf-8", newline="\n") as fh:
            fh.write(curve_fan_svg([(lab, s.curve) for lab, s in zip(labels, sols)]))
    doc = {
        "kind": "quantile-diagnostics",
        "version": __version__,
        "n": n,
        "d": d,
        "basis": basis_name,
        "solutions": [
            {
                "label": label,
                "iterations": s.iterations,
                "grad_norm": s.grad_norm,
                "objective": s.objective,
                "converged": s.converged,
                "anchored_at_datum": s.anchored_at_datum,
                "degenerate": s.degenerate,
            }
            for label, s in zip(labels, sols)
        ],
    }
    emit_json(doc, cfg.get("json_path"))
    return 0


def _cmd_depth(cfg, parser) -> int:
    sample = ingest(_require(cfg, "in_path", parser, "--in"))
    queries = ingest(cfg["query"]) if cfg.get("query") else sample
    depths = depth_profile(sample, queries)
    write_table(
        _require(cfg, "out", parser, "--out"),
        ["index", "depth"],
        [(i, float(v)) for i, v in enumerate(depths)],
        {"version": __version__},
    )
    return 0


def _cmd_ddplot(cfg, parser) -> int:
    a = ingest(_require(cfg, "a_path", parser, "--a"))
    b = ingest(_require(cfg, "b_path", parser, "--b"))
    dd = dd_plot(a, b)
    write_table(
        _require(cfg, "out", parser, "--out"),
        ["d1", "d2", "source"],
        [(float(p[0]), float(p[1]), src) for p, src in zip(dd.points, dd.source)],
        {"n1": dd.metadata["n1"], "n2": dd.metadata["n2"], "version": __version__},
    )
    if cfg.get("svg"):
        with open(cfg["svg"], "w", encoding="utf-8", newline="\n") as fh:
            fh.write(dd_plot_svg(dd))
    return 0


def _cmd_efficiency(cfg, parser) -> int:
    if cfg.get("table"):
        seed = cfg.get("seed")
        if seed is None:
            seed = DEFAULT_TABLE_SEED
        rows = efficiency_table(seed=seed, mc=cfg["mc"], grid_size=cfg["grid_size"])
        doc = {
            "kind": "efficiency-table",
            "version": __version__,
            "generator": GENERATOR_NAME,
            "seed": seed,
            "mc_size": cfg["mc"],
            "grid_size": cfg["grid_size"],
            "rows": [
                {
                    "label": r.label,
                    "reference": r.reference,
                    "report": dataclasses.asdict(r.report),
                }
                for r in rows
            ],
        }
        for r in rows:
            ref = "-" if r.reference is None else f"{r.reference:.3f}"
            print(
                f"{r.label:18s} are={r.report.are:7.4f}  reference={ref}",
                file=sys.stderr,
            )
        emit_json(doc, cfg.get("out"))
        return 0
    spec, domain = _process_spec(cfg, parser)
    seed = _require(cfg, "seed", parser, "--seed")
    grid = _grid_for(domain, cfg["grid_size"], seed)
    rep = are(spec, grid, cfg["mc"], seed)
    doc = {
        "kind": "efficiency-report",
        "version": __version__,
        "generator": GENERATOR_NAME,
        "report": dataclasses.asdict(rep),
    }
    emit_json(doc, cfg.get("out"))
    return 0


def _n_list(text: str, parser) -> list[int]:
    """Two or more strictly increasing sample sizes >= 1, from "250,1000,4000"."""
    sizes = [int(p) if p.strip().isdigit() else 0 for p in text.split(",")]
    if len(sizes) < 2 or sizes[0] < 1 or any(a >= b for a, b in zip(sizes, sizes[1:])):
        parser.error(f"--n-list needs 2+ strictly increasing integers >= 1, got {text!r}")
    return sizes


def _cmd_converge(cfg, parser) -> int:
    study = _require(cfg, "study", parser, "--study")
    spec, domain = _process_spec(cfg, parser)
    seed = _require(cfg, "seed", parser, "--seed")
    n_values = _n_list(str(cfg["n_list"]), parser)
    grid = _grid_for(domain, cfg["grid_size"], seed)
    reps, n_ref = cfg["reps"], cfg["n_ref"]

    if study == "gc":
        n_probes = cfg.get("probes") or 20
        probes = sample_process(spec, grid, n_probes, stream_seed(seed, _TAG_PROBES))
        rep = gc_rate_study(spec, probes, n_values, reps, seed, n_ref=n_ref)
        med_cols = ["n", "sup_error"]
        med_rows = list(zip(rep.n_values, rep.sup_errors))
    elif study == "integrated":
        n_probes = cfg.get("probes") or 200
        rep = integrated_error_study(
            spec, grid, n_values, reps, seed, n_probes=n_probes, n_ref=n_ref
        )
        med_cols = ["n", "integrated_error"]
        med_rows = list(zip(rep.n_values, rep.integrated_errors))
    else:
        rep = bahadur_rate_study(spec, grid, n_values, reps, seed, n_ref=n_ref)
        med_cols = ["n", "residual_norm", "linear_norm"]
        med_rows = list(zip(rep.n_values, rep.residual_errors, rep.linear_errors))

    doc = {
        "kind": "rate-report",
        "version": __version__,
        "generator": GENERATOR_NAME,
        "report": dataclasses.asdict(rep),
    }
    emit_json(doc, cfg.get("out"))
    if cfg.get("csv_path"):
        write_table(
            cfg["csv_path"],
            med_cols,
            [(int(row[0]), *(float(v) for v in row[1:])) for row in med_rows],
            {"study": study, "seed": seed, "version": __version__},
        )
    return 0


_HANDLERS = {
    "simulate": _cmd_simulate,
    "quantile": _cmd_quantile,
    "depth": _cmd_depth,
    "ddplot": _cmd_ddplot,
    "efficiency": _cmd_efficiency,
    "converge": _cmd_converge,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _merge(args, parser)
        if cfg.get("threads") is not None:
            parallel.set_max_threads(int(cfg["threads"]))
        return _HANDLERS[args.subcommand](cfg, parser)
    except SystemExit:
        raise
    except Exception as exc:  # surfaced verbatim as machine-readable JSON
        sys.stderr.write(json.dumps(_error_doc(exc), indent=2, sort_keys=True) + "\n")
        return 1
