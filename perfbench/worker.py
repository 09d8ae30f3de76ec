"""One workload process: warm up, run operations through spatialfda.cli.main, check them.

Started by run.py, never by hand. Speaks a two-line protocol on stdout:
"ready" once the untimed warm-up operation has finished (the parent times
set-up up to that line), then one JSON object with the raw measurements.
Everything else the program prints goes to stderr.

Modes:
  setup  warm up, check the warm-up output, stop.
  run    warm up, then time operations at --threads N for --seconds, then
         one operation at --threads 1 whose artifacts must equal the others.
  trace  warm up, then rounds of (untraced at N, untraced at 1, traced at N)
         for --seconds; reports the per-layer metrics and writes the spans.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy

import spatialfda
import tracing
import workloads
from spatialfda import cli, parallel
from spatialfda.spatialdist import empirical_spatial_dist

MIN_TIMED_OPS = 3
QUERY_REPEATS = 5


class Worker:
    def __init__(self, args, proto):
        self.args = args
        self.proto = proto
        self.workdir = Path(args.workdir)
        self.attempted = 0
        self.failures: list[str] = []
        self.reference: dict[str, bytes] | None = None  # artifacts of the warm-up
        self.checker = workloads.Checker(args.workload, self.workdir, args.scale)

    def call(self, threads: int, tracer=None) -> tuple[int, float, float]:
        """One operation: (exit code, wall seconds, CPU seconds of the process)."""
        a = self.args
        argv = workloads.argv(a.workload, a.seed, self.workdir, a.scale, threads)
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            rc = tracer.run_op(lambda: cli.main(argv)) if tracer else cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
        return rc, time.perf_counter() - t0, time.process_time() - c0

    def verify(self, rc: int, threads: int) -> None:
        """Count one attempted operation; record why it failed, if it did."""
        self.attempted += 1
        try:
            if rc != 0:
                raise workloads.CheckFailed(f"exit code {rc} at --threads {threads}")
            self.checker.check()
            got = {
                name: (self.workdir / name).read_bytes()
                for name in workloads.ARTIFACTS[self.args.workload]
            }
            if self.reference is None:
                self.reference = got
            for name, data in got.items():
                if data != self.reference[name]:
                    raise workloads.CheckFailed(
                        f"{name} at --threads {threads} differs from the warm-up operation's"
                    )
        except workloads.CheckFailed as exc:
            self.failures.append(str(exc))
        except Exception as exc:  # a check that crashes is a failed check
            self.failures.append(f"check raised {type(exc).__name__}: {exc}")

    def warm_up(self, threads: int) -> None:
        rc, _, _ = self.call(threads)
        self.proto.write("ready\n")
        self.proto.flush()
        self.verify(rc, threads)

    def result(self, **extra) -> dict:
        return {"attempted": self.attempted, "failures": self.failures, **extra}

    # -- modes ------------------------------------------------------------

    def mode_setup(self, n: int) -> dict:
        self.warm_up(n)
        return self.result()

    def mode_run(self, n: int) -> dict:
        self.warm_up(n)
        walls, cpus = [], []
        start = time.perf_counter()
        while time.perf_counter() - start < self.args.seconds or len(walls) < MIN_TIMED_OPS:
            rc, wall, cpu = self.call(n)
            walls.append(wall)
            cpus.append(cpu)
            self.verify(rc, n)
        rc, _, _ = self.call(1)
        self.verify(rc, 1)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return self.result(walls=walls, cpus=cpus, peak_rss_mb=peak_kb / 1024.0)

    def mode_trace(self, n: int) -> dict:
        self.warm_up(n)
        tracer = tracing.Tracer()
        walls = {"n": [], "1": [], "traced": []}
        start = time.perf_counter()
        while time.perf_counter() - start < self.args.seconds or not walls["traced"]:
            for key, threads, t in (("n", n, None), ("1", 1, None), ("traced", n, tracer)):
                rc, wall, _ = self.call(threads, t)
                walls[key].append(wall)
                self.verify(rc, threads)

        layers = tracing.layer_metrics(tracer.spans)
        layers["spatialdist.query_ms"] = query_ms(tracer)
        untraced = statistics.median(walls["n"])
        layers["parallel.speedup"] = statistics.median(walls["1"]) / untraced
        layers["trace.overhead"] = statistics.median(walls["traced"]) / untraced - 1.0
        doc = {
            "workload": self.args.workload,
            "seed": self.args.seed,
            "threads": n,
            "unwrapped": tracer.missing,
            "spans": tracer.spans,
        }
        Path(self.args.trace_out).parent.mkdir(parents=True, exist_ok=True)
        with open(self.args.trace_out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return self.result(layers=layers, walls=walls)


def query_ms(tracer) -> float:
    """One empirical_spatial_dist call against the workload's sample, in ms.

    Only for workloads that reach spatialdist; 0 on the others.
    """
    sample = tracer.largest_sample
    if sample is None or not any(s["name"] == "spatialdist.sign" for s in tracer.spans):
        return 0.0
    x = sample.curve(0)
    times = []
    for _ in range(QUERY_REPEATS):
        t0 = time.perf_counter()
        empirical_spatial_dist(x, sample)
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def openblas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None if it is not found."""
    libdir = Path(numpy.__file__).parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "libscipy_openblas64_*.so*"))):
        try:
            fn = ctypes.CDLL(path).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.argtypes = []
        fn.restype = ctypes.c_int
        return int(fn())
    return None


def environment(threads: int) -> dict:
    """Machine and library facts for the result; the thread cap is reset first.

    Every operation passes --threads itself, so clearing the cap here only
    exposes the package default that parallel.max_threads() falls back to.
    """
    parallel.set_max_threads(None)
    return {
        "cpu_count": os.cpu_count(),
        "parallel_max_threads": parallel.max_threads(),
        "threads_used": threads,
        "openblas_threads": openblas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--threads", type=int, required=True)
    p.add_argument("--scale", default="full")
    p.add_argument("--src", required=True, help="the checkout's src directory")
    p.add_argument("--trace-out", dest="trace_out")
    args = p.parse_args()

    src = Path(args.src).resolve()
    if src not in Path(spatialfda.__file__).resolve().parents:
        print(f"spatialfda imported from {spatialfda.__file__}, not from {src}", file=sys.stderr)
        return 2
    # Protocol lines go to a copy of stdout; fd 1 itself now points at stderr,
    # so nothing the program prints can corrupt the protocol.
    proto = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)

    worker = Worker(args, proto)
    out = getattr(worker, "mode_" + args.mode)(args.threads)
    if args.mode != "setup":
        out["environment"] = environment(args.threads)
    proto.write(json.dumps(out) + "\n")
    proto.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
