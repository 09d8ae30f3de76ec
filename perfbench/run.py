"""Benchmark of the spatialfda command line: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The inputs come from --seed alone; the
program is imported from the checkout's src/ directory and driven through
spatialfda.cli.main in a separate workload process, one operation after
another (a closed loop with one client), at --threads equal to the CPUs this
process may use. The last line of stdout is one JSON object: with --trace 0
the end-to-end metrics, with --trace 1 the per-layer metrics of a traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
TRACES = HERE / "traces"

# Set-up is timed in this many fresh workload processes per run (median).
SETUP_SAMPLES = 3
# Every process of a run must have ended by then (the contract allows 180 s).
RUN_DEADLINE_S = 170.0
# Cleared for the workload processes, so the package defaults are measured.
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "ok_ratio": "ratio",
}
PER_LAYER = {
    "cli.overhead_s": "s",
    "io.read_s": "s",
    "io.read_mb": "MB",
    "io.write_s": "s",
    "funcspace.pca_s": "s",
    "funcspace.project_s": "s",
    "simulate.draw_s": "s",
    "simulate.normals": "count",
    "simulate.draw_rate": "1/s",
    "simulate.kl_s": "s",
    "simulate.sample_s": "s",
    "simulate.paths": "count",
    "spatialdist.sign_s": "s",
    "spatialdist.pairs": "count",
    "spatialdist.pair_rate": "1/s",
    "spatialdist.query_ms": "ms",
    "spatialdist.tensor_mb": "MB-computed",
    "depth.dd_plot_s": "s",
    "svg.render_s": "s",
    "quantile.solve_ms": "ms",
    "quantile.solve_ms_max": "ms",
    "quantile.iterations": "count",
    "quantile.anchored": "count",
    "efficiency.v0_s": "s",
    "efficiency.accum_s": "s",
    "efficiency.cell_s_max": "s",
    "asymptotics.study_s": "s",
    "asymptotics.self_s": "s",
    "parallel.speedup": "ratio",
    "trace.overhead": "ratio",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_ENV}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def spawn(args, mode: str, workdir: Path, threads: int, deadline: float) -> tuple[float, dict]:
    """Run one workload process; returns (seconds to its ready line, its result)."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--workdir", str(workdir),
        "--mode", mode, "--seconds", str(args.seconds), "--threads", str(threads),
        "--scale", args.scale, "--src", str(SRC),
        "--trace-out", str(TRACES / f"{args.workload}-seed{args.seed}.json"),
    ]
    log_path = workdir / f"{mode}.log"
    with open(log_path, "w", encoding="utf-8") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=log, env=child_env(), cwd=ROOT, text=True
        )
        timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            ready = proc.stdout.readline()
            t_ready = time.perf_counter()
            rest = proc.stdout.read()
            code = proc.wait()
        finally:
            timer.cancel()
            proc.stdout.close()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    lines = rest.strip().splitlines()
    if code != 0 or ready.strip() != "ready" or not lines:
        tail = log_path.read_text(encoding="utf-8", errors="replace")[-2000:]
        raise BenchError(f"{mode} process for {args.workload} exited {code}:\n{tail}")
    return t_ready - t0, json.loads(lines[-1])


def measure(args) -> tuple[dict, list[str], dict, list[str], int]:
    """(metrics, failures, environment, summary lines, attempted) of one run."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    threads = len(os.sched_getaffinity(0))
    WORK.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        workloads.make_inputs(args.workload, args.seed, workdir, args.scale)
        results, setups = [], []
        if args.trace:
            _, res = spawn(args, "trace", workdir, threads, deadline)
            results.append(res)
        else:
            for mode in ["setup"] * (SETUP_SAMPLES - 1) + ["run"]:
                t, res = spawn(args, mode, workdir, threads, deadline)
                setups.append(t)
                results.append(res)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    last = results[-1]
    attempted = sum(r["attempted"] for r in results)
    failures = [f for r in results for f in r["failures"]]
    env = dict(last["environment"])
    env["inherited"] = {k: os.environ.get(k) for k in THREAD_ENV}
    summary = [f"{args.workload}: seed {args.seed}, --threads {threads}, "
               f"fail_ratio {len(failures)}/{attempted}"]
    if args.trace:
        metrics = last["layers"]
        summary.append(
            f"traced {len(last['walls']['traced'])} ops; untraced medians "
            f"{statistics.median(last['walls']['n']):.4f} s at {threads} threads, "
            f"{statistics.median(last['walls']['1']):.4f} s at 1 thread"
        )
        units = PER_LAYER
    else:
        walls = last["walls"]
        metrics = {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(last["cpus"]),
            "peak_rss_mb": last["peak_rss_mb"],
            "setup_s": statistics.median(setups),
            "ok_ratio": 1.0 - len(failures) / attempted,
        }
        summary.append(
            f"wall_s median of {len(walls)} ops (min {min(walls):.4f}, max {max(walls):.4f}); "
            f"setup_s median of {len(setups)} fresh processes {[round(s, 4) for s in setups]}"
        )
        units = END_TO_END
    out = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
    return out, failures, env, summary, attempted


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.ARTIFACTS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--scale", choices=sorted(workloads.SIZES), default="full",
        help="input sizes; 'smoke' is only for testing the benchmark itself",
    )
    args = p.parse_args()

    if not (SRC / "spatialfda" / "__init__.py").is_file():
        print(f"no spatialfda package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    try:
        metrics, failures, env, summary, attempted = measure(args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for line in summary:
        print(line)
    for reason, count in Counter(failures).items():
        print(f"FAILED ({count}x): {reason[:300]}")
    print(json.dumps({"environment": env}, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
