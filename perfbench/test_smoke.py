"""Smoke test of the benchmark harness itself, at tiny input sizes.

    python3 -m pytest perfbench/test_smoke.py

Checks the result line and its metric names and units against
BENCHMARK.json, the spans of the traced run, the layer map, and that the
benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")
SEED = 3
WORKLOADS = ("eff-table", "ddplot", "quantile-fan", "rate-gc")
SPAN_KEYS = {"name", "op", "id", "parent", "start", "end"}


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(SEED), "--seconds", "0.5", "--trace", str(trace), "--scale", "smoke",
        ],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_result_line(workload, trace):
    out = bench(workload, trace)
    assert out.returncode == 0, out.stderr
    res = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1, out.stdout
    listed = {m["name"]: m["unit"] for m in spec()["end_to_end" if trace == 0 else "per_layer"]}
    assert {name: m["unit"] for name, m in res["metrics"].items()} == listed
    for name, m in res["metrics"].items():
        assert NAME.fullmatch(name), name
        assert m["unit"], name
        assert isinstance(m["value"], (int, float)) and m["value"] >= -1.0, (name, m)
    if trace == 1:
        check_spans(json.loads((HERE / "traces" / f"{workload}-seed{SEED}.json").read_text()))


def check_spans(doc: dict) -> None:
    spans = doc["spans"]
    assert spans and doc["unwrapped"] == []
    by_id = {s["id"]: s for s in spans}
    assert len(by_id) == len(spans)
    roots = [s for s in spans if s["parent"] is None]
    assert {s["name"] for s in roots} == {"cli.main"}
    assert len({s["op"] for s in roots}) == len(roots)
    for s in spans:
        assert SPAN_KEYS <= set(s), s
        assert NAME.fullmatch(s["name"]) and s["end"] >= s["start"], s
        if s["parent"] is not None:
            parent = by_id[s["parent"]]
            assert parent["op"] == s["op"]
            assert parent["start"] <= s["start"] and s["end"] <= parent["end"], (parent, s)


def test_layer_map_covers_per_layer_metrics():
    layers = json.loads((HERE / "layers.json").read_text())["metrics"]
    assert set(layers) == {m["name"] for m in spec()["per_layer"]}
    names = {w["name"] for w in spec()["workloads"]}
    for entry in layers.values():
        assert set(entry["on"]) <= names and set(entry["unchanged_on"]) <= names
        assert not set(entry["on"]) & set(entry["unchanged_on"])


def test_refuses_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "traces"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = bench("ddplot", 0, cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""
