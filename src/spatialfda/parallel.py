"""Thread policy: the package's thread cap and the CLI's BLAS pin.

Every batch of solves runs as a plain ordered loop on the calling thread,
so outputs are identical for any cap by construction. The only other
threads are the two workers of simulate.coefficient_runs, the one
pipeline that draws and reduces Monte Carlo chunks: each draws a chunk of
normals and, sub-block by sub-block, writes their paths into the sample's
rows (sample_process), takes their sign means (the gc and integrated
studies) or reduces them to J, Lambda and trace sums (the efficiency
study), and the calling thread takes those reductions in chunk order. Each chunk has its own Philox substream, and each sub-block's
reduction depends on its rows alone, so no output depends on which worker
ran it; the two are joined before the study returns. No code path reads
the cap; it stays for the public API, and ``--threads`` is checked and
then has no effect on any artifact.

BLAS is the one place where a thread count changes numbers: OpenBLAS splits
a product differently at 1 and at 2 threads, and its idle workers spin
between the small products the package makes. ``one_blas_thread`` runs a
block with numpy's bundled OpenBLAS on one thread; the CLI runs every
subcommand inside it, so its artifacts are the same bytes on any number of
cores. Importing the package, or calling the library directly, leaves the
caller's BLAS settings alone.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os
from pathlib import Path

import numpy as np

_max_threads: int | None = None

# (getter, setter) of the thread count: numpy 2.x wheels bundle scipy-openblas,
# numpy 1.x wheels an OpenBLAS built with the 64_ symbol suffix
_BLAS_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
)


def set_max_threads(k: int | None) -> None:
    """Set the cap (>= 1); None restores the machine default."""
    global _max_threads
    if k is not None and k < 1:
        raise ValueError("thread cap must be >= 1")
    _max_threads = k


def max_threads() -> int:
    return _max_threads if _max_threads is not None else (os.cpu_count() or 1)


@functools.cache
def _blas_control():
    """(get, set) of numpy's bundled OpenBLAS thread count, or None if not found."""
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "lib*openblas*.so*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _BLAS_SYMBOLS:
            get, put = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


def blas_threads() -> int | None:
    """Thread count of numpy's bundled OpenBLAS, or None if it is not found."""
    control = _blas_control()
    return None if control is None else control[0]()


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with numpy's bundled OpenBLAS on one thread.

    The previous count comes back when the block ends, however it ends
    (return, exception or SystemExit). Where no bundled OpenBLAS is found
    (a numpy built against another BLAS, or a platform without numpy.libs)
    this does nothing, and BLAS keeps whatever threads it has.
    """
    control = _blas_control()
    if control is None:
        yield
        return
    get, put = control
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)
