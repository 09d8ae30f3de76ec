import json
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from spatialfda import (
    FunctionalSample,
    KernelSpec,
    ProcessSpec,
    __version__,
    cli,
    domain_grid,
    parallel,
    read_sample,
    sample_process,
)
from spatialfda.cli import main
from spatialfda.efficiency import ESTIMATOR


def run_cli(args):
    return main(list(args))


def simulate(tmp_path, name="sample.csv", n=40, grid=24, seed=5, extra=()):
    out = tmp_path / name
    rc = run_cli(
        [
            "simulate",
            "--process",
            "bm",
            "--n",
            str(n),
            "--grid-size",
            str(grid),
            "--seed",
            str(seed),
            "--out",
            str(out),
            *extra,
        ]
    )
    assert rc == 0
    return out


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["--version"])
    assert exc.value.code == 0
    assert f"spatialfda {__version__}" in capsys.readouterr().out


def test_simulate_writes_readable_csv(tmp_path):
    out = simulate(tmp_path)
    sample, meta = read_sample(out)
    assert sample.values.shape == (40, 24)
    assert meta["process"] == "bm"
    assert meta["seed"] == "5"
    assert meta["version"] == __version__
    assert meta["sampler"] == "kl-whitened-4"


def test_simulate_leaves_no_worker_thread_behind(tmp_path):
    # 1e5 paths are 25 chunks, drawn on the pipeline's two workers
    before = set(threading.enumerate())
    simulate(tmp_path, n=100_000, grid=16)
    assert set(threading.enumerate()) == before


def test_simulate_reruns_byte_identical(tmp_path):
    a = simulate(tmp_path, "a.csv")
    b = simulate(tmp_path, "b.csv")
    assert a.read_bytes() == b.read_bytes()
    c = simulate(tmp_path, "c.csv", seed=6)
    assert a.read_bytes() != c.read_bytes()


def test_quantile_end_to_end(tmp_path, capsys):
    src = simulate(tmp_path, n=80)
    out = tmp_path / "q.csv"
    js = tmp_path / "q.json"
    svg = tmp_path / "q.svg"
    rc = run_cli(
        [
            "quantile",
            "--in",
            str(src),
            "--u-spec",
            "1:0.5",
            "--u-spec",
            "1:-0.5",
            "--out",
            str(out),
            "--json",
            str(js),
            "--svg",
            str(svg),
        ]
    )
    assert rc == 0
    curves, meta = read_sample(out)
    assert curves.values.shape[0] == 2
    assert meta["labels"] == "1:0.5;1:-0.5"
    doc = json.loads(js.read_text())
    assert doc["kind"] == "quantile-diagnostics"
    assert [s["label"] for s in doc["solutions"]] == ["1:0.5", "1:-0.5"]
    assert all(s["converged"] for s in doc["solutions"])
    text = svg.read_text()
    assert text.startswith("<svg") and "polyline" in text


def test_quantile_defaults_to_median_on_stdout(tmp_path, capsys):
    src = simulate(tmp_path, n=30)
    rc = run_cli(["quantile", "--in", str(src)])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["solutions"][0]["label"] == "median"
    assert doc["d"] == 5  # floor(sqrt(30))


def test_quantile_default_dimension_is_capped_at_the_sample_rank(tmp_path, capsys):
    # floor(sqrt(4000)) = 63 > D = 50; the paths are 0 at t = 0, so the rank is 49
    src = simulate(tmp_path, n=4000, grid=50)
    capsys.readouterr()
    assert run_cli(["quantile", "--in", str(src)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["d"] == 49 and doc["solutions"][0]["converged"]
    assert run_cli(["quantile", "--in", str(src), "--d", "63"]) == 1
    err = capsys.readouterr().err
    assert json.loads(err[err.index("{"):])["error"]["type"] == "RankDeficiencyError"


def test_depth_and_ddplot(tmp_path):
    a = simulate(tmp_path, "a.csv", n=25, seed=1)
    b = simulate(tmp_path, "b.csv", n=35, seed=2)
    dout = tmp_path / "depth.csv"
    rc = run_cli(["depth", "--in", str(a), "--out", str(dout)])
    assert rc == 0
    lines = [ln for ln in dout.read_text().splitlines() if not ln.startswith("#")]
    assert lines[0] == "index,depth"
    assert len(lines) == 26
    depths = [float(ln.split(",")[1]) for ln in lines[1:]]
    assert all(0.0 <= d <= 1.0 for d in depths)

    ddout = tmp_path / "dd.csv"
    ddsvg = tmp_path / "dd.svg"
    rc = run_cli(
        ["ddplot", "--a", str(a), "--b", str(b), "--out", str(ddout), "--svg", str(ddsvg)]
    )
    assert rc == 0
    rows = [ln for ln in ddout.read_text().splitlines() if not ln.startswith("#")]
    assert rows[0] == "d1,d2,source"
    assert len(rows) == 61
    assert rows[1].endswith("sample1") and rows[-1].endswith("sample2")
    assert "<svg" in ddsvg.read_text()


def test_efficiency_single_cell(tmp_path):
    out = tmp_path / "eff.json"
    rc = run_cli(
        [
            "efficiency",
            "--process",
            "t",
            "--df",
            "3",
            "--grid-size",
            "30",
            "--mc",
            "4000",
            "--seed",
            "3",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["kind"] == "efficiency-report"
    assert doc["estimator"] == ESTIMATOR
    assert doc["report"]["are"] > 1.5
    assert doc["report"]["process"]["df"] == 3


def test_efficiency_of_a_one_dimensional_process_is_a_conditioning_error(tmp_path, capsys):
    # the min kernel on {0, 1} has one nonzero eigenvalue
    args = ["efficiency", "--process", "t", "--df", "3", "--grid-size", "2", "--mc", "500"]
    assert run_cli([*args, "--seed", "1", "--out", str(tmp_path / "eff.json")]) == 1
    doc = json.loads(capsys.readouterr().err)
    assert doc["kind"] == "error"
    assert doc["error"]["type"] == "ConditioningError"
    assert not (tmp_path / "eff.json").exists()


def test_t_process_without_df_is_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["efficiency", "--process", "t", "--mc", "500", "--out", str(tmp_path / "e.json")])
    assert exc.value.code == 2
    assert "--df is required for the t process" in capsys.readouterr().err


def test_simulate_gauss_kernel_is_the_library_sample(tmp_path):
    out = tmp_path / "gk.csv"
    args = ["simulate", "--process", "gauss-kernel", "--n", "20", "--grid-size", "16"]
    assert run_cli([*args, "--seed", "1", "--out", str(out)]) == 0
    sample, meta = read_sample(out)
    assert meta["process"] == "gauss-kernel"
    grid = domain_grid("real-line", 16, 1)
    assert np.array_equal(sample.grid.points, grid.points)
    expected = sample_process(ProcessSpec(KernelSpec.gaussian_kernel()), grid, 20, 1)
    assert np.array_equal(sample.values, expected.values)


def test_converge_gc_with_csv(tmp_path):
    js = tmp_path / "rate.json"
    csv = tmp_path / "rate.csv"
    rc = run_cli(
        [
            "converge",
            "--study",
            "gc",
            "--process",
            "bm",
            "--n-list",
            "50,200",
            "--reps",
            "4",
            "--seed",
            "2",
            "--grid-size",
            "16",
            "--n-ref",
            "2000",
            "--probes",
            "5",
            "--out",
            str(js),
            "--csv",
            str(csv),
        ]
    )
    assert rc == 0
    doc = json.loads(js.read_text())
    assert doc["kind"] == "rate-report"
    assert doc["sampler"] == "kl-whitened-4"
    assert doc["report"]["study"] == "gc"
    assert doc["report"]["n_values"] == [50, 200]
    lines = [ln for ln in csv.read_text().splitlines() if not ln.startswith("#")]
    assert lines[0] == "n,sup_error"
    assert lines[1].startswith("50,")


def test_config_file_fills_flags_and_flags_win(tmp_path):
    cfg = tmp_path / "conf.json"
    cfg.write_text(json.dumps({"process": "bm", "n": 7, "grid-size": 10, "seed": 1}))
    out = tmp_path / "from_config.csv"
    rc = run_cli(["simulate", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    s, _ = read_sample(out)
    assert s.values.shape == (7, 10)
    out2 = tmp_path / "flag_wins.csv"
    rc = run_cli(["simulate", "--config", str(cfg), "--n", "3", "--out", str(out2)])
    assert rc == 0
    s2, _ = read_sample(out2)
    assert s2.values.shape == (3, 10)


def test_efficiency_table_sweep(tmp_path, capsys):
    out = tmp_path / "table.json"
    rc = run_cli(
        [
            "efficiency",
            "--table",
            "--seed",
            "7",
            "--mc",
            "2000",
            "--grid-size",
            "25",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["kind"] == "efficiency-table"
    assert doc["estimator"] == ESTIMATOR
    assert doc["seed"] == 7
    assert len(doc["rows"]) == 15
    labels = [r["label"] for r in doc["rows"]]
    assert labels[0] == "brownian" and labels[-1] == "gauss-kernel-t9"
    # a human-readable comparison goes to stderr, one line per row
    err = capsys.readouterr().err
    assert err.count("are=") == 15
    assert "reference=0.830" in err


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize(
    "option", [("process", "t"), ("hurst", 0.7), ("df", 3)], ids=lambda o: o[0]
)
def test_table_with_process_options_is_usage_error(tmp_path, capsys, option, source):
    key, value = option
    args = ["efficiency", "--table", "--mc", "100", "--grid-size", "10", "--seed", "1"]
    if source == "flag":
        args += [f"--{key}", str(value)]
    else:
        cfg = tmp_path / "conf.json"
        cfg.write_text(json.dumps({key: value}))
        args += ["--config", str(cfg)]
    out = tmp_path / "o.json"
    with pytest.raises(SystemExit) as exc:
        run_cli([*args, "--out", str(out)])
    assert exc.value.code == 2
    assert f"--{key} does not apply to --table" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize(
    "process, option",
    [
        ("bm", ("df", 3)),
        ("fbm", ("df", 5)),
        ("bm", ("hurst", 0.3)),
        ("t", ("hurst", 0.3)),
        ("gauss-kernel", ("hurst", 0.7)),
    ],
    ids=lambda x: x if isinstance(x, str) else x[0],
)
@pytest.mark.parametrize("subcommand", ["simulate", "efficiency", "converge"])
def test_process_option_the_process_does_not_take_is_usage_error(
    tmp_path, capsys, monkeypatch, subcommand, process, option, source
):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the arguments were checked")

    for name in ("domain_grid", "sample_process", "are", "probe_sample", "gc_rate_study"):
        monkeypatch.setattr(cli, name, no_work)
    key, value = option
    args = [subcommand, "--process", process, "--seed", "1"]
    if process == "fbm":
        args += ["--hurst", "0.7"]
    if process == "t":
        args += ["--df", "3"]
    if subcommand == "converge":
        args += ["--study", "gc"]
    if source == "flag":
        args += [f"--{key}", str(value)]
    else:
        cfg = tmp_path / "conf.json"
        cfg.write_text(json.dumps({key: value}))
        args += ["--config", str(cfg)]
    out = tmp_path / "o.out"
    with pytest.raises(SystemExit) as exc:
        run_cli([*args, "--out", str(out)])
    assert exc.value.code == 2
    assert f"error: --{key} does not apply to --process {process}:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize(
    "command, mode, option",
    [
        (["quantile", "--in", "never-read.csv"], "--basis pca", ("basis-file", "b.csv")),
        (["quantile", "--in", "never-read.csv"], "--basis bm", ("basis-file", "b.csv")),
        (["converge", "--process", "bm", "--seed", "1"], "--study bahadur", ("probes", 7)),
    ],
    ids=["pca-basis-file", "bm-basis-file", "bahadur-probes"],
)
def test_option_the_mode_never_reads_is_usage_error(
    tmp_path, capsys, monkeypatch, command, mode, option, source
):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the arguments were checked")

    for name in ("ingest", "domain_grid", "bahadur_rate_study"):
        monkeypatch.setattr(cli, name, no_work)
    key, value = option
    args = [*command, *mode.split()]
    if source == "flag":
        args += [f"--{key}", str(value)]
    else:
        cfg = tmp_path / "conf.json"
        cfg.write_text(json.dumps({key: value}))
        args += ["--config", str(cfg)]
    out = tmp_path / "o.out"
    with pytest.raises(SystemExit) as exc:
        run_cli([*args, "--out", str(out)])
    assert exc.value.code == 2
    assert f"error: --{key} does not apply to {mode}," in capsys.readouterr().err
    assert not out.exists()


def test_unknown_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run_cli(["simulate", "--bogus"])
    assert exc.value.code == 2


def test_missing_required_flag_is_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["simulate", "--process", "bm", "--seed", "1"])  # no --out
    assert exc.value.code == 2
    assert "--out is required" in capsys.readouterr().err


def test_bm_basis_beyond_the_grid_is_a_rank_error(tmp_path, capsys):
    # default d = floor(sqrt(25)) = 5 Brownian eigenfunctions on 4 grid points
    src = simulate(tmp_path, n=25, grid=4)
    assert run_cli(["quantile", "--in", str(src), "--basis", "bm"]) == 1
    err = capsys.readouterr().err  # the sample's "read ..." line comes first
    assert json.loads(err[err.index("{"):])["error"]["type"] == "RankDeficiencyError"


def test_basis_file_on_another_grid_is_a_grid_mismatch(tmp_path, capsys):
    src = simulate(tmp_path, n=25, grid=16)
    bfile = simulate(tmp_path, name="basis.csv", n=5, grid=12)
    args = ["quantile", "--in", str(src), "--basis", "file", "--basis-file", str(bfile)]
    assert run_cli(args) == 1
    err = capsys.readouterr().err
    doc = json.loads(err[err.index("{"):])["error"]
    assert doc["type"] == "GridMismatchError"
    assert doc["message"] == "basis file grid differs from the sample grid"


def test_runtime_failure_emits_error_json(tmp_path, capsys):
    rc = run_cli(
        ["depth", "--in", str(tmp_path / "missing.csv"), "--out", str(tmp_path / "o.csv")]
    )
    assert rc == 1
    doc = json.loads(capsys.readouterr().err)
    assert doc["kind"] == "error"
    assert doc["error"]["type"] == "FileNotFoundError"


def test_parse_error_reports_line(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("0.0,1.0\n1.0,oops\n")
    rc = run_cli(["depth", "--in", str(bad), "--out", str(tmp_path / "o.csv")])
    assert rc == 1
    doc = json.loads(capsys.readouterr().err)
    assert doc["error"]["type"] == "ParseError"
    assert "line 2" in doc["error"]["message"]


def test_non_finite_cell_is_a_parse_error(tmp_path, capsys):
    bad = tmp_path / "nan.csv"
    bad.write_text("0.0,1.0\n1.0,2.0\nnan,3.0\n")
    good = simulate(tmp_path, "good.csv", n=5, grid=2)
    for args in (
        ["depth", "--in", str(bad), "--out", str(tmp_path / "d.csv")],
        ["ddplot", "--a", str(bad), "--b", str(good), "--out", str(tmp_path / "dd.csv")],
    ):
        capsys.readouterr()
        assert run_cli(args) == 1
        doc = json.loads(capsys.readouterr().err)
        assert doc["kind"] == "error"
        assert doc["error"]["type"] == "ParseError"
        assert "line 3" in doc["error"]["message"]

def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "spatialfda", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert f"spatialfda {__version__}" in proc.stdout


needs_blas_control = pytest.mark.skipif(
    parallel.blas_threads() is None, reason="no bundled OpenBLAS thread control found"
)


@needs_blas_control
def test_cli_artifacts_do_not_depend_on_blas_threads(tmp_path):
    # at this size OpenBLAS splits the sign-mean products differently at
    # 1 and 2 threads; the count is fixed by the environment before numpy loads
    a = simulate(tmp_path, "a.csv", n=1000, grid=64, seed=1)
    b = simulate(tmp_path, "b.csv", n=1000, grid=64, seed=2)
    outs = []
    for k in ("1", "2"):
        out = tmp_path / f"dd{k}.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "spatialfda", "ddplot", "--a", str(a), "--b", str(b),
             "--out", str(out)],
            capture_output=True,
            text=True,
            env={**os.environ, "OPENBLAS_NUM_THREADS": k},
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


@needs_blas_control
@pytest.mark.parametrize(
    "outcome, code", [("return", 0), ("raise", 1), ("usage", 2)]
)
def test_subcommands_run_blas_on_one_thread_and_restore_it(
    tmp_path, monkeypatch, outcome, code
):
    get, put = parallel._blas_control()
    before = get()
    put(2)  # a count the pin has to change and then restore
    seen = []

    def handler(cfg, parser):
        seen.append(parallel.blas_threads())
        if outcome == "raise":
            raise RuntimeError("handler failed")
        if outcome == "usage":
            parser.error("bad input")
        return 0

    monkeypatch.setitem(cli._HANDLERS, "depth", handler)
    try:
        if outcome == "usage":
            with pytest.raises(SystemExit) as exc:
                run_cli(["depth", "--in", "x.csv"])
            rc = exc.value.code
        else:
            rc = run_cli(["depth", "--in", "x.csv"])
        assert (rc, seen) == (code, [1])
        assert parallel.blas_threads() == 2
        with pytest.raises(SystemExit):  # a usage error before the handler
            run_cli(["depth", "--threads", "0"])
        assert parallel.blas_threads() == 2
    finally:
        put(before)


def test_importing_the_cli_leaves_jsonschema_unloaded():
    # only commands that emit JSON pay for the validator's import
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, spatialfda.cli; print('jsonschema' in sys.modules)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_emitted_json_validates_against_shipped_schema(tmp_path):
    import jsonschema
    from spatialfda.cli import _schema

    out = tmp_path / "eff.json"
    rc = run_cli(
        [
            "efficiency",
            "--process",
            "bm",
            "--grid-size",
            "20",
            "--mc",
            "2000",
            "--seed",
            "7",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    jsonschema.validate(json.loads(out.read_text()), _schema())


def test_shipped_schema_is_valid_against_its_meta_schema():
    # emit_json builds its validator without this check, so the suite makes it
    import jsonschema
    from spatialfda.cli import _schema

    schema = _schema()
    jsonschema.validators.validator_for(schema).check_schema(schema)


def test_emit_json_rejects_a_document_missing_version(tmp_path):
    import jsonschema
    from spatialfda.cli import _schema, emit_json

    doc = {"error": {"message": "m", "type": "X"}, "kind": "error"}  # keys sorted
    with pytest.raises(jsonschema.ValidationError) as err:
        emit_json(doc, tmp_path / "doc.json")
    assert not (tmp_path / "doc.json").exists()
    # the error jsonschema.validate raises for the same document
    with pytest.raises(jsonschema.ValidationError) as expected:
        jsonschema.validate(doc, _schema())
    assert err.value.message == expected.value.message
    assert list(err.value.path) == list(expected.value.path)


def test_non_finite_u_spec_is_usage_error(tmp_path, capsys):
    src = simulate(tmp_path, n=30, grid=12)
    with pytest.raises(SystemExit) as exc:
        run_cli(["quantile", "--in", str(src), "--u-spec", "1:nan"])
    assert exc.value.code == 2
    assert "not finite" in capsys.readouterr().err


@pytest.mark.parametrize("spec", ["1:1.5", "1:0.6,2:0.8"])
def test_u_spec_outside_unit_ball_is_usage_error(tmp_path, capsys, spec):
    src = simulate(tmp_path, n=30, grid=12)
    with pytest.raises(SystemExit) as exc:
        run_cli(["quantile", "--in", str(src), "--u-spec", spec])
    assert exc.value.code == 2
    assert "norm >= 1" in capsys.readouterr().err


def test_u_spec_repeating_an_index_is_usage_error(tmp_path, capsys):
    src = simulate(tmp_path, n=30, grid=12)
    with pytest.raises(SystemExit) as exc:
        run_cli(["quantile", "--in", str(src), "--u-spec", "1:0.5,1:-0.2"])
    assert exc.value.code == 2
    assert "index 1 twice" in capsys.readouterr().err


@pytest.mark.parametrize(
    "spec, message",
    [("1=0.5", 'is not "k:c"'), ("a:0.5", 'is not "k:c"'), ("9:0.5", "index 9 outside 1..5")],
)
def test_malformed_u_spec_is_usage_error(tmp_path, capsys, spec, message):
    src = simulate(tmp_path, n=30, grid=12)  # d = floor(sqrt(30)) = 5
    with pytest.raises(SystemExit) as exc:
        run_cli(["quantile", "--in", str(src), "--u-spec", spec])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_basis_file_with_fewer_rows_than_d_is_an_error(tmp_path, capsys):
    src = simulate(tmp_path, n=30, grid=12)
    bfile = simulate(tmp_path, name="basis.csv", n=2, grid=12)
    args = ["quantile", "--in", str(src), "--basis", "file", "--basis-file", str(bfile)]
    assert run_cli([*args, "--d", "4"]) == 1
    err = capsys.readouterr().err
    doc = json.loads(err[err.index("{"):])["error"]
    assert doc["type"] == "SpatialFDAError"
    assert doc["message"] == "basis file has 2 rows, need 4"


def test_u_file_of_the_wrong_width_is_an_error(tmp_path, capsys):
    src = simulate(tmp_path, n=30, grid=12)
    u_file = tmp_path / "u.csv"
    u_file.write_text("0.1,0\n")
    assert run_cli(["quantile", "--in", str(src), "--u-file", str(u_file)]) == 1
    err = capsys.readouterr().err
    doc = json.loads(err[err.index("{"):])["error"]
    assert doc["type"] == "SpatialFDAError"
    assert doc["message"] == "direction file has 2 columns, expected 5"


@pytest.mark.parametrize("bad", ["nan,0,0,0,0", "0,0.6,0.8,0,0"])
def test_bad_u_file_row_is_named(tmp_path, capsys, bad):
    src = simulate(tmp_path, n=30, grid=12)
    u_file = tmp_path / "u.csv"
    u_file.write_text(f"0.1,0,0,0,0\n{bad}\n")
    assert run_cli(["quantile", "--in", str(src), "--u-file", str(u_file)]) == 1
    err = capsys.readouterr().err  # the sample's "read ..." line comes first
    doc = json.loads(err[err.index("{"):])
    assert doc["error"]["type"] == "SpatialFDAError"
    assert "row 2" in doc["error"]["message"]


@pytest.mark.parametrize(
    "flag,value",
    [("--n", "0"), ("--seed", "-1"), ("--threads", "0"), ("--grid-size", "0"), ("--grid-size", "1")],
)
def test_out_of_range_count_is_usage_error(tmp_path, capsys, flag, value):
    args = {"--process": "bm", "--n": "5", "--seed": "1", "--out": str(tmp_path / "s.csv")}
    args[flag] = value
    with pytest.raises(SystemExit) as exc:
        run_cli(["simulate", *[x for kv in args.items() for x in kv]])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize(
    "conf,message",
    [
        ({"nn": 7}, "'nn'"),
        ({"n": 0}, "--n"),
        ({"n": 7.5}, "--n"),
        ({"seed": -3}, "--seed"),
        # whole files that are not a JSON object: invalid JSON, an array, a number
        ('{"process": bm}', "JSON object"),
        ("[1, 2]", "JSON object"),
        ("7", "JSON object"),
    ],
)
def test_bad_config_entry_is_usage_error(tmp_path, capsys, conf, message):
    cfg = tmp_path / "conf.json"
    text = conf if isinstance(conf, str) else json.dumps({"process": "bm", "seed": 1, **conf})
    cfg.write_text(text)
    with pytest.raises(SystemExit) as exc:
        run_cli(["simulate", "--config", str(cfg), "--out", str(tmp_path / "s.csv")])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "command,conf,flag",
    [
        ("simulate", {"process": "nonsense", "n": 5, "grid_size": 8, "seed": 1}, "--process"),
        (
            "converge",
            {"study": "nonsense", "process": "bm", "grid_size": 8, "n_list": "50,100",
             "reps": 1, "n_ref": 200, "seed": 1},
            "--study",
        ),
        ("quantile", {"basis": "nonsense"}, "--basis"),
        ("quantile", {"u_spec": "1:0.5"}, "--u-spec"),  # not a list
        ("quantile", {"u_spec": ["1:0.5", 2]}, "--u-spec"),  # not a list of strings
    ],
)
def test_config_values_get_the_checks_of_their_flags(tmp_path, capsys, command, conf, flag):
    sample = simulate(tmp_path)  # the quantile input
    cfg = tmp_path / "conf.json"
    cfg.write_text(json.dumps(conf))
    args = [command, "--config", str(cfg), "--out", str(tmp_path / "out")]
    if command == "quantile":
        args += ["--in", str(sample)]
    with pytest.raises(SystemExit) as exc:
        run_cli(args)
    assert exc.value.code == 2
    assert f"{flag} must be" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == [cfg, sample]


@pytest.mark.parametrize(
    "flag,value",
    [
        ("--n-list", "100,100"),
        ("--n-list", "500"),
        ("--n-list", "1000,250"),
        ("--n-list", "0,250"),
        ("--n-list", "250,1e3"),
        ("--n-list", "250,-4"),
        ("--n-list", "250,1000²"),
        ("--hurst", "1.0"),
        ("--hurst", "0"),
        ("--hurst", "nan"),
        ("--df", "2"),
    ],
)
def test_bad_converge_argument_is_usage_error(tmp_path, capsys, monkeypatch, flag, value):
    import spatialfda.cli as cli

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the arguments were checked")

    monkeypatch.setattr(cli, "sample_process", no_work)
    monkeypatch.setattr(cli, "probe_sample", no_work)
    monkeypatch.setattr(cli, "gc_rate_study", no_work)
    args = {"--study": "gc", "--process": "fbm", "--hurst": "0.3", "--seed": "1"}
    if flag == "--df":
        args = {"--study": "gc", "--process": "t", "--seed": "1"}
    args[flag] = value
    with pytest.raises(SystemExit) as exc:
        run_cli(["converge", *[x for kv in args.items() for x in kv]])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


def validated(path):
    import jsonschema
    from spatialfda.cli import _schema

    doc = json.loads(path.read_text())
    jsonschema.validate(doc, _schema())
    return doc


@pytest.mark.parametrize("basis", ["bm", "file"])
def test_quantile_basis_matches_the_library(tmp_path, basis):
    from spatialfda import (
        Basis,
        DirectionU,
        bm_eigenpair,
        orthonormalize,
        pca,
        solve_quantile,
        working_sample,
        write_sample,
    )

    src = simulate(tmp_path, n=30, grid=16)
    sample, _ = read_sample(src)
    d, u = 3, np.array([0.0, 0.4, -0.2])
    if basis == "bm":
        pairs = [bm_eigenpair(k, sample.grid) for k in range(1, d + 1)]
        rows = np.array([phi.values for _, phi in pairs])
        want = orthonormalize(rows, sample.grid, np.array([lam**2 for lam, _ in pairs]))
        extra = []
    else:
        functions = np.asarray(pca(sample, d + 1).functions)
        bfile = tmp_path / "basis.csv"
        write_sample(bfile, FunctionalSample(sample.grid, functions))
        want = Basis(sample.grid, read_sample(bfile)[0].values[:d])
        extra = ["--basis-file", str(bfile)]
    out, js = tmp_path / "q.csv", tmp_path / "q.json"
    rc = run_cli(
        ["quantile", "--in", str(src), "--basis", basis, "--d", str(d), *extra,
         "--u-spec", "2:0.4,3:-0.2", "--out", str(out), "--json", str(js)]
    )
    assert rc == 0
    doc = validated(js)
    sol = solve_quantile(working_sample(sample, want, d), u=DirectionU(u))
    assert doc["basis"] == basis
    assert doc["solutions"][0]["objective"] == sol.objective
    assert doc["solutions"][0]["iterations"] == sol.iterations
    curves, meta = read_sample(out)
    assert meta["basis"] == basis
    assert curves.values[0].tobytes() == sol.curve.values.tobytes()


@pytest.mark.parametrize("study", ["integrated", "bahadur"])
def test_converge_study_matches_the_library(tmp_path, study):
    import dataclasses

    from spatialfda import KernelSpec, ProcessSpec, bahadur_rate_study, integrated_error_study
    from spatialfda.efficiency import domain_grid

    seed, n_values, reps, n_ref = 4, [16, 64], 2, 1500
    js, csv = tmp_path / "rate.json", tmp_path / "rate.csv"
    rc = run_cli(
        ["converge", "--study", study, "--process", "bm", "--grid-size", "16",
         "--n-list", "16,64", "--reps", str(reps), "--n-ref", str(n_ref),
         *(["--probes", "10"] if study == "integrated" else []),
         "--seed", str(seed), "--out", str(js), "--csv", str(csv)]
    )
    assert rc == 0
    doc = validated(js)
    spec, grid = ProcessSpec(KernelSpec.brownian()), domain_grid("unit-interval", 16, seed)
    if study == "integrated":
        rep = integrated_error_study(spec, grid, n_values, reps, seed, 10, n_ref)
    else:
        rep = bahadur_rate_study(spec, grid, n_values, reps, seed, n_ref=n_ref)
    assert doc["report"] == json.loads(json.dumps(dataclasses.asdict(rep)))
    rows = [ln for ln in csv.read_text().splitlines() if not ln.startswith("#")]
    assert len(rows) == 1 + len(n_values)
