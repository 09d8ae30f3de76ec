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
import functools
import json
import math
import sys
from importlib import resources

import numpy as np

from . import __version__, parallel
from .asymptotics import (
    DEFAULT_GC_PROBES,
    DEFAULT_INT_PROBES,
    DEFAULT_N_REF,
    bahadur_rate_study,
    gc_rate_study,
    integrated_error_study,
    probe_sample,
)
from .depth import dd_plot, depth_profile
from .efficiency import (
    DEFAULT_GRID_SIZE,
    DEFAULT_MC,
    DEFAULT_TABLE_SEED,
    ESTIMATOR,
    are,
    domain_grid,
    efficiency_table,
)
from .errors import SpatialFDAError
from .funcspace import Basis, FunctionalSample, Grid, check_same_grid, orthonormalize, pca
from .io import read_sample, write_sample, write_table, write_text
from .quantile import DirectionU, default_dimension, solve_quantile, working_sample
from .simulate import (
    GAUSSIAN_LAW,
    GENERATOR_NAME,
    SAMPLER_NAME,
    STUDENT_T_LAW,
    KernelSpec,
    ProcessSpec,
    bm_eigenpair,
    sample_process,
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
        "n_ref": DEFAULT_N_REF,
    },
}


def _schema():
    text = resources.files("spatialfda").joinpath("schemas/reports.schema.json").read_text()
    return json.loads(text)


@functools.cache
def _validator():
    """The shipped schema's validator, built once; the suite checks the schema itself."""
    import jsonschema  # here, not at module level: commands that emit no JSON never load it

    schema = _schema()
    return jsonschema.validators.validator_for(schema)(schema)


def _validate(doc) -> None:
    """Raise the error jsonschema.validate raises, without re-checking the schema."""
    import jsonschema

    error = jsonschema.exceptions.best_match(_validator().iter_errors(doc))
    if error is not None:
        raise error


def emit_json(doc, path=None) -> None:
    """Validate against the shipped schema, then write (file or stdout).

    Validation runs on the serialized round-trip, i.e. on exactly what the
    file will contain (tuples become arrays there).
    """
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    _validate(json.loads(text))
    if path:
        write_text(path, text)
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
        help="accepted and checked (>= 1), with no effect on any artifact: the work, "
        "BLAS included, runs on one thread, except that the gc and integrated studies "
        "draw and score their chunks on two worker threads",
    )

    process = argparse.ArgumentParser(add_help=False)
    process.add_argument("--process", choices=PROCESSES)
    process.add_argument("--hurst", type=float, help="Hurst index for fbm")
    process.add_argument("--df", type=int, help="degrees of freedom for a student-t law")
    process.add_argument("--grid-size", type=int, dest="grid_size")
    process.add_argument("--seed", type=int)

    p = argparse.ArgumentParser(prog="spatialfda", description=__doc__.splitlines()[0])
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = p.add_subparsers(dest="subcommand", required=True)

    sim = subs.add_parser("simulate", parents=[common, process], help="draw process paths to CSV")
    sim.add_argument("--n", type=int, help="number of paths")
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
    qua.add_argument(
        "--d",
        type=int,
        help="working dimension (default floor(sqrt(n)); with the pca basis, at most the "
        "sample's rank)",
    )
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

    eff = subs.add_parser(
        "efficiency", parents=[common, process], help="median-vs-mean efficiency"
    )
    eff.add_argument("--mc", type=int)
    eff.add_argument("--table", action="store_const", const=True, help="run the full sweep")
    eff.add_argument("--out", help="output JSON path (default stdout)")

    con = subs.add_parser("converge", parents=[common, process], help="convergence-rate studies")
    con.add_argument("--study", choices=("gc", "integrated", "bahadur"))
    con.add_argument("--n-list", dest="n_list", help='sample sizes, e.g. "250,1000,4000"')
    con.add_argument("--reps", type=int)
    con.add_argument(
        "--n-ref",
        type=int,
        dest="n_ref",
        help="reference sample size; gc and integrated stream it in blocks, so their "
        "memory does not grow with it, while bahadur holds the whole reference sample",
    )
    con.add_argument("--probes", type=int, help="probe count (gc: 20, integrated: 200)")
    con.add_argument("--out", help="output JSON path (default stdout)")
    con.add_argument("--csv", dest="csv_path", help="optional CSV of per-n medians")

    return p


# Options that must be positive integers (grid_size >= 2); seed must be nonnegative.
_POSITIVE_INTS = ("n", "threads", "grid_size", "mc", "reps", "n_ref", "probes", "d")


def _merge(args: argparse.Namespace, parser) -> dict:
    """Config-file values fill in unset flags; built-in defaults fill the rest.

    The merged values are checked once, so a bad config value is a usage
    error (exit 2) just like a bad flag, and so are a config key that names
    no option of the subcommand and a config file that holds no JSON object.
    The subcommand parser's own actions drive the checks a flag gets from
    argparse: a value outside an option's choices, and a repeatable option
    whose value is not a list of strings, are usage errors.
    """
    cfg = dict(DEFAULTS.get(args.subcommand, {}))
    options = vars(args)
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                loaded = json.load(fh)
            except ValueError as exc:  # invalid JSON, or bytes that are not utf-8
                parser.error(f"config file must hold a JSON object: {exc}")
        if not isinstance(loaded, dict):
            parser.error("config file must hold a JSON object")
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
    sub = next(a for a in parser._actions if a.dest == "subcommand").choices[args.subcommand]
    for action in sub._actions:
        value, flag = cfg.get(action.dest), "/".join(action.option_strings)
        if value is None:
            continue
        if action.choices is not None and value not in action.choices:
            parser.error(f"{flag} must be one of {', '.join(action.choices)}, got {value!r}")
        if isinstance(action, argparse._AppendAction) and not (
            isinstance(value, list) and all(isinstance(v, str) for v in value)
        ):
            parser.error(f"{flag} must be a list of strings, got {value!r}")
    for key in (*_POSITIVE_INTS, "seed"):
        value = cfg.get(key)
        low = {"seed": 0, "grid_size": 2}.get(key, 1)
        if value is not None and (type(value) is not int or value < low):
            parser.error(f"--{key.replace('_', '-')} must be an integer >= {low}, got {value!r}")
    return cfg


def _require(cfg: dict, key: str, parser, flag: str):
    value = cfg.get(key)
    if value is None:
        parser.error(f"{flag} is required (flag or config)")
    return value


def _process_inputs(cfg: dict, parser) -> tuple[ProcessSpec, Grid, int, str]:
    """Spec, grid, seed and CSV ``process`` label; checks --process, --df/--hurst, --seed."""
    name = _require(cfg, "process", parser, "--process")
    hurst, df = cfg.get("hurst"), cfg.get("df")
    if df is not None and (type(df) is not int or df < 3):
        parser.error(f"--df must be an integer >= 3, got {df!r}")
    if df is not None and name in ("bm", "fbm"):
        parser.error(f"--df does not apply to --process {name}: its law is Gaussian")
    if hurst is not None and name != "fbm":
        parser.error(f"--hurst does not apply to --process {name}: only fbm takes it")
    if name == "bm":
        kernel, label = KernelSpec.brownian(), "bm"
    elif name == "fbm":
        if not (isinstance(hurst, (int, float)) and 0 < hurst < 1):
            parser.error(f"--hurst in (0, 1) is required for fbm, got {hurst!r}")
        kernel, label = KernelSpec.fractional_brownian(hurst), f"fbm(h={hurst:g})"
    elif name == "t":
        if df is None:
            parser.error("--df is required for the t process")
        kernel, label = KernelSpec.min_kernel(), "t-min"
    else:
        kernel, label = KernelSpec.gaussian_kernel(), "gauss-kernel"
    law = GAUSSIAN_LAW if df is None else STUDENT_T_LAW
    label += "" if df is None else f"+t{df}"
    seed = _require(cfg, "seed", parser, "--seed")
    domain = "real-line" if name == "gauss-kernel" else "unit-interval"
    return ProcessSpec(kernel, law, df=df), domain_grid(domain, cfg["grid_size"], seed), seed, label


# ---------------------------------------------------------------------------
# Subcommand handlers. Each returns the exit code.


def _cmd_simulate(cfg, parser) -> int:
    spec, grid, seed, label = _process_inputs(cfg, parser)
    out = _require(cfg, "out", parser, "--out")
    sample = sample_process(spec, grid, cfg["n"], seed)
    write_sample(
        out,
        sample,
        {
            "process": label,
            "seed": seed,
            "version": __version__,
            "generator": GENERATOR_NAME,
            "sampler": SAMPLER_NAME,
        },
    )
    return 0


def _parse_u_vector(text: str, d: int, parser) -> np.ndarray:
    vec = np.zeros(d)
    seen = set()
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
        if k in seen:
            parser.error(f"--u-spec {text!r} gives index {k} twice")
        seen.add(k)
        if not math.isfinite(c):
            parser.error(f"--u-spec coefficient {c_str!r} is not finite")
        vec[k - 1] = c
    if not np.linalg.norm(vec) < 1.0:
        parser.error(f"--u-spec {text!r} has norm >= 1; directions lie in the open unit ball")
    return vec


def _resolve_cli_basis(cfg, sample, parser) -> tuple[Basis, str]:
    """--basis at --d, by default floor(sqrt(n)); a default PCA d is capped at the sample's rank."""
    name, d = cfg["basis"], cfg.get("d")
    if name == "pca":  # the default d of working_sample
        return pca(sample, d or default_dimension(len(sample)), cap_at_rank=not d), "pca"
    d = d or default_dimension(len(sample))
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
    check_same_grid(loaded.grid, sample.grid, "basis file grid differs from the sample grid")
    if len(loaded) < d:
        raise SpatialFDAError(f"basis file has {len(loaded)} rows, need {d}")
    return Basis(sample.grid, loaded.values[:d]), "file"


def _cmd_quantile(cfg, parser) -> int:
    if cfg.get("basis_file") is not None and cfg["basis"] != "file":
        parser.error(f"--basis-file does not apply to --basis {cfg['basis']}, only to file")
    sample = ingest(_require(cfg, "in_path", parser, "--in"))
    n = len(sample)
    basis, basis_name = _resolve_cli_basis(cfg, sample, parser)
    d = basis.dimension

    jobs: list[tuple[str, DirectionU]] = []
    for text in cfg.get("u_spec") or []:
        jobs.append((text, DirectionU(_parse_u_vector(text, d, parser))))
    if cfg.get("u_file"):
        rows = np.loadtxt(cfg["u_file"], delimiter=",", ndmin=2)
        if rows.shape[1] != d:
            raise SpatialFDAError(
                f"direction file has {rows.shape[1]} columns, expected {d}"
            )
        for i, row in enumerate(rows, start=1):
            if not np.linalg.norm(row) < 1.0:
                raise SpatialFDAError(f"direction file row {i} must be finite with norm < 1")
            jobs.append((f"file:{i}", DirectionU(row)))
    if not jobs:
        jobs.append(("median", DirectionU.zero(d)))

    work = working_sample(sample, basis, d)
    sols = [solve_quantile(work, u=u) for _, u in jobs]
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
        write_text(cfg["svg"], curve_fan_svg([(lab, s.curve) for lab, s in zip(labels, sols)]))
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
        write_text(cfg["svg"], dd_plot_svg(dd))
    return 0


def _cmd_efficiency(cfg, parser) -> int:
    doc = {"version": __version__, "generator": GENERATOR_NAME, "estimator": ESTIMATOR}
    if cfg.get("table"):
        for key in ("process", "hurst", "df"):  # the table fixes its own cells
            if cfg.get(key) is not None:
                parser.error(f"--{key} does not apply to --table, which runs its fixed cells")
        seed = DEFAULT_TABLE_SEED if cfg.get("seed") is None else cfg["seed"]
        rows = efficiency_table(seed=seed, mc=cfg["mc"], grid_size=cfg["grid_size"])
        doc.update(kind="efficiency-table", seed=seed, mc_size=cfg["mc"], grid_size=cfg["grid_size"])
        doc["rows"] = [
            {"label": r.label, "reference": r.reference, "report": dataclasses.asdict(r.report)}
            for r in rows
        ]
        for r in rows:
            ref = "-" if r.reference is None else f"{r.reference:.3f}"
            print(f"{r.label:18s} are={r.report.are:7.4f}  reference={ref}", file=sys.stderr)
    else:
        spec, grid, seed, _ = _process_inputs(cfg, parser)
        rep = are(spec, grid, cfg["mc"], seed)
        doc.update(kind="efficiency-report", report=dataclasses.asdict(rep))
    emit_json(doc, cfg.get("out"))
    return 0


def _n_list(text: str, parser) -> list[int]:
    """Two or more strictly increasing sample sizes >= 1, from "250,1000,4000"."""
    try:
        sizes = [int(p) for p in text.split(",")]
    except ValueError:
        sizes = []
    if len(sizes) < 2 or sizes[0] < 1 or any(a >= b for a, b in zip(sizes, sizes[1:])):
        parser.error(f"--n-list needs 2+ strictly increasing integers >= 1, got {text!r}")
    return sizes


def _cmd_converge(cfg, parser) -> int:
    study = _require(cfg, "study", parser, "--study")
    if study == "bahadur" and cfg.get("probes") is not None:
        parser.error("--probes does not apply to --study bahadur, which scores no probe curves")
    spec, grid, seed, _ = _process_inputs(cfg, parser)
    n_values = _n_list(str(cfg["n_list"]), parser)
    reps, n_ref = cfg["reps"], cfg["n_ref"]

    if study == "gc":
        probes = probe_sample(spec, grid, cfg.get("probes") or DEFAULT_GC_PROBES, seed)
        rep = gc_rate_study(spec, probes, n_values, reps, seed, n_ref=n_ref)
        med_cols = ["n", "sup_error"]
        med_rows = list(zip(rep.n_values, rep.sup_errors))
    elif study == "integrated":
        n_probes = cfg.get("probes") or DEFAULT_INT_PROBES
        rep = integrated_error_study(spec, grid, n_values, reps, seed, n_probes, n_ref)
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
        "sampler": SAMPLER_NAME,
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
        with parallel.one_blas_thread():
            return _HANDLERS[args.subcommand](cfg, parser)
    except SystemExit:
        raise
    except Exception as exc:  # surfaced verbatim as machine-readable JSON
        sys.stderr.write(json.dumps(_error_doc(exc), indent=2, sort_keys=True) + "\n")
        return 1
