"""Per-call time of ``nlslab.core.exact_sum`` on fixed vectors, in microseconds.

Times the nlslab that ``import nlslab`` finds, so any checkout can be measured
through ``PYTHONPATH``:

    PYTHONPATH=src python3 tools/time_exact_sum.py
    PYTHONPATH=../parent/src python3 tools/time_exact_sum.py

Numerics run single-threaded and glibc's mmap threshold is fixed at 128 KiB,
as in ``bench/run.py``, whose settings this script imports.  Three vectors of
each length n = 1120, 2240, 4480, 8960, the same on every run:

* ``mass``: dx * |u|^2 of a two-soliton-like state, the terms of a mass sum
  (positive, from about 0.14 down to about 3e-23);
* ``cross``: Re(conj(u) * d) for a small increment d, the terms of a
  relaxation cross term (mixed signs);
* ``gauss``: standard normal values from a generator seeded with n.

Each figure is the best over REPEATS repeats of the mean over a batch of
calls sized to last about BATCH_S.
"""

from __future__ import annotations

import importlib.util
import os
import sys
import time
from pathlib import Path

SIZES = (1120, 2240, 4480, 8960)
REPEATS = 9
BATCH_S = 0.05


def _bench_settings():
    """The thread variables and mmap fix of this checkout's bench/run.py."""
    path = Path(__file__).resolve().parents[1] / "bench" / "run.py"
    sys.path.insert(0, str(path.parent))
    spec = importlib.util.spec_from_file_location("bench_run", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.path.remove(str(path.parent))
    return module.THREAD_VARS, module.fix_mmap_threshold


def vectors(n: int) -> dict:
    import numpy as np  # imported late: the thread variables come first

    x = np.linspace(-20.0, 20.0, n, endpoint=False)
    dx = 40.0 / n
    u = 2.0 / np.cosh(2.0 * (x + 5.0)) * np.exp(0.5j * x) + 1.0 / np.cosh(x - 5.0)
    d = 1e-3 * np.sin(3.0 * x) * u + 1e-4j * np.cos(x) * u
    return {
        "mass": dx * (u.real**2 + u.imag**2),
        "cross": u.real * d.real + u.imag * d.imag,
        "gauss": np.random.default_rng(n).standard_normal(n),
    }


def per_call_us(fn, values) -> float:
    calls = 1
    while True:
        start = time.perf_counter()
        for _ in range(calls):
            fn(values)
        if time.perf_counter() - start >= BATCH_S:
            break
        calls *= 2
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(calls):
            fn(values)
        best = min(best, (time.perf_counter() - start) / calls)
    return best * 1e6


def main() -> int:
    thread_vars, fix_mmap_threshold = _bench_settings()
    for var in thread_vars:
        os.environ[var] = "1"
    threshold = fix_mmap_threshold()

    import nlslab.core as core  # after the thread variables, like numpy

    print(f"nlslab from {Path(core.__file__).resolve().parent}; "
          f"mmap threshold {threshold}; best of {REPEATS}")
    print(f"{'n':>6} " + " ".join(f"{name:>8}" for name in ("mass", "cross", "gauss")))
    for n in SIZES:
        cells = [
            per_call_us(core.exact_sum, values) for values in vectors(n).values()
        ]
        print(f"{n:>6} " + " ".join(f"{us:8.1f}" for us in cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())
