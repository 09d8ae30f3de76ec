"""Package-wide thread cap, kept for the ``--threads`` flag and the public API.

Every Monte Carlo loop and batch of solves runs as a plain ordered loop on
the calling thread, so outputs are identical for any cap by construction.
No code path reads the cap; BLAS sizes its own thread pool, following
``OPENBLAS_NUM_THREADS``.
"""

from __future__ import annotations

import os

_max_threads: int | None = None


def set_max_threads(k: int | None) -> None:
    """Set the cap (>= 1); None restores the machine default."""
    global _max_threads
    if k is not None and k < 1:
        raise ValueError("thread cap must be >= 1")
    _max_threads = k


def max_threads() -> int:
    return _max_threads if _max_threads is not None else (os.cpu_count() or 1)
