"""Per-call time of nlslab's exact sub-flows and DFT pair, in microseconds.

Times the nlslab that ``import nlslab`` finds, so any checkout can be measured
through ``PYTHONPATH``:

    PYTHONPATH=src python3 tools/time_transforms.py
    PYTHONPATH=../parent/src python3 tools/time_transforms.py

Settings and timing loop are those of ``tools/time_exact_sum.py``: numerics
single-threaded, glibc's mmap threshold fixed as in ``bench/run.py``, and each
figure the best over 9 repeats of the mean over a batch of calls sized to
last about 0.05 s.  Per grid size m = 512, 1120, 4096, 4480 on [-8, 8]:

* ``dft``: ``dft_forward`` then ``dft_inverse`` of a standard normal complex
  vector (one round trip);
* ``flow``: ``SpectralOperator.flow`` of the dispersion operator at a = 0.1
  (semiclassical eps = 0.2) over one memoised step;
* ``nl_gauss``: ``nonlinear_flow`` of the Gaussian-tail state exp(-x^2) at
  b = 5, dt = 0.86/2000, the eps = 0.2 semiclassical reference's sub-step,
  where most phases are tiny (``tiny`` gives their share);
* ``nl_normal``: ``nonlinear_flow`` of the standard normal vector at the
  same b and dt, where no phase is tiny.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

from time_exact_sum import REPEATS, _bench_settings, per_call_us

SIZES = (512, 1120, 4096, 4480)
A, B, DT = 0.1, 5.0, 0.86 / 2000


def main() -> int:
    thread_vars, fix_mmap_threshold = _bench_settings()
    for var in thread_vars:
        os.environ[var] = "1"
    threshold = fix_mmap_threshold()

    import numpy as np  # after the thread variables

    import nlslab.core as core
    from nlslab.spectral import nonlinear_flow, spectral_operator

    print(f"nlslab from {Path(core.__file__).resolve().parent}; "
          f"mmap threshold {threshold}; best of {REPEATS}")
    names = ("dft", "flow", "nl_gauss", "nl_normal", "tiny")
    print(f"{'m':>6} " + " ".join(f"{name:>9}" for name in names))
    for m in SIZES:
        grid = core.make_grid(-8.0, 8.0, m)
        op = spectral_operator(grid, A)
        rng = np.random.default_rng(m)
        normal = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        gauss = np.exp(-grid.nodes**2) + 0j
        phase = (B * DT) * (gauss.real**2 + gauss.imag**2)
        cells = [
            per_call_us(lambda u: core.dft_inverse(core.dft_forward(u)), normal),
            per_call_us(lambda u: op.flow(u, DT), gauss),
            per_call_us(lambda u: nonlinear_flow(u, B, DT), gauss),
            per_call_us(lambda u: nonlinear_flow(u, B, DT), normal),
        ]
        # spectral.TINY_PHASE, written out so that checkouts without it can be timed.
        tiny = float(np.mean(np.abs(phase) < 2.0**-27))
        print(f"{m:>6} " + " ".join(f"{us:9.1f}" for us in cells) + f" {tiny:9.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
