import json
import subprocess
import sys

import pytest

from spatialfda import __version__, read_sample
from spatialfda.cli import main


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
    assert doc["report"]["are"] > 1.5
    assert doc["report"]["process"]["df"] == 3


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
    assert doc["seed"] == 7
    assert len(doc["rows"]) == 15
    labels = [r["label"] for r in doc["rows"]]
    assert labels[0] == "brownian" and labels[-1] == "gauss-kernel-t9"
    # a human-readable comparison goes to stderr, one line per row
    err = capsys.readouterr().err
    assert err.count("are=") == 15
    assert "reference=0.830" in err


def test_unknown_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run_cli(["simulate", "--bogus"])
    assert exc.value.code == 2


def test_missing_required_flag_is_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["simulate", "--process", "bm", "--seed", "1"])  # no --out
    assert exc.value.code == 2
    assert "--out is required" in capsys.readouterr().err


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


def test_non_finite_u_spec_is_usage_error(tmp_path, capsys):
    src = simulate(tmp_path, n=30, grid=12)
    with pytest.raises(SystemExit) as exc:
        run_cli(["quantile", "--in", str(src), "--u-spec", "1:nan"])
    assert exc.value.code == 2
    assert "not finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag,value", [("--n", "0"), ("--seed", "-1"), ("--threads", "0"), ("--grid-size", "0")]
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
    [({"nn": 7}, "'nn'"), ({"n": 0}, "--n"), ({"n": 7.5}, "--n"), ({"seed": -3}, "--seed")],
)
def test_bad_config_entry_is_usage_error(tmp_path, capsys, conf, message):
    cfg = tmp_path / "conf.json"
    cfg.write_text(json.dumps({"process": "bm", "seed": 1, **conf}))
    with pytest.raises(SystemExit) as exc:
        run_cli(["simulate", "--config", str(cfg), "--out", str(tmp_path / "s.csv")])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag,value",
    [
        ("--n-list", "100,100"),
        ("--n-list", "500"),
        ("--n-list", "1000,250"),
        ("--n-list", "0,250"),
        ("--n-list", "250,1e3"),
        ("--n-list", "250,-4"),
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
    monkeypatch.setattr(cli, "gc_rate_study", no_work)
    args = {"--study": "gc", "--process": "fbm", "--hurst": "0.3", "--seed": "1"}
    if flag == "--df":
        args = {"--study": "gc", "--process": "t", "--seed": "1"}
    args[flag] = value
    with pytest.raises(SystemExit) as exc:
        run_cli(["converge", *[x for kv in args.items() for x in kv]])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err
