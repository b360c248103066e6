"""Per-call time of nlslab's exact sub-flows, DFT pair and step path, in
microseconds.

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

A second table times the step path, one row per call:

* ``dft_forward m=16``: the transform entry on a vector so short that the
  figure is its call overhead;
* ``ImEx4 <symbol> m=<m>``: one ImEx4 step of the two-soliton state on
  [-35, 35] at dt = 0.01 by a ``make_imex_stepper`` stepper, as runs take
  it, with the pseudospectral or the finite-element symbol, at m = 1120
  (the invariant table) and m = 4480 (the error-growth runs);
* ``error_estimate m=2048``: the adaptive controller's estimate of the main
  against the embedded solution of such a step;
* ``loop step m=1120``: the fixed-step loop's own cost per step
  (``integrate_imex``, unrelaxed, no invariants, 100 steps per call) around
  a stepper that returns one precomputed ImEx4 step.

Beside each row's time stands its minor page faults per call, counted over
FAULT_CALLS further calls: where glibc hands a freed block back to the
system, the next allocation of that size faults its pages in again, which
at m=4480 can cost as much as a quarter of a step.
"""

from __future__ import annotations

import os
import resource
import sys
from pathlib import Path

from time_exact_sum import REPEATS, _bench_settings, per_call_us

SIZES = (512, 1120, 4096, 4480)
A, B, DT = 0.1, 5.0, 0.86 / 2000
FAULT_CALLS = 20


def main() -> int:
    thread_vars, fix_mmap_threshold = _bench_settings()
    for var in thread_vars:
        os.environ[var] = "1"
    threshold = fix_mmap_threshold()

    import numpy as np  # after the thread variables

    import nlslab.core as core
    from nlslab.imexrk import tableau
    from nlslab.oracles import soliton_initial
    from nlslab.relaxation import (
        ControllerConfig,
        error_estimate,
        integrate_imex,
        make_imex_stepper,
    )
    from nlslab.spectral import cubic_term, fem_operator, nonlinear_flow, spectral_operator

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

    def two_soliton_step(make_operator, m):
        grid = core.make_grid(-35.0, 35.0, m)
        s0, beta = soliton_initial(2, grid)
        stepper = make_imex_stepper(tableau("ImEx4"), make_operator(grid, 1.0), cubic_term(beta))
        return s0, stepper

    # (label, fn, argument, steps per call)
    rows = [("dft_forward m=16", core.dft_forward, np.ones(16, complex), 1)]
    for m in (1120, 4480):
        for symbol, make_operator in (("spectral", spectral_operator), ("fem", fem_operator)):
            s0, stepper = two_soliton_step(make_operator, m)
            rows.append((f"ImEx4 {symbol} m={m}", lambda u, f=stepper: f(u, 0.01), s0.u, 1))
    s0, stepper = two_soliton_step(spectral_operator, 2048)
    inc = stepper(s0.u, 0.01)
    cfg = ControllerConfig(tol=1e-6)
    rows.append(("error_estimate m=2048",
                 lambda u, main=inc.u_next: error_estimate(main, u, cfg), s0.u + 0.01 * inc.d2, 1))
    s0, stepper = two_soliton_step(spectral_operator, 1120)
    step = stepper(s0.u, 0.01)
    rows.append(("loop step m=1120",
                 lambda s: integrate_imex(s, lambda u, h: step, 0.01, 1.0), s0, 100))
    print(f"\n{'call':>22} {'us':>9} {'faults':>7}")
    for label, fn, arg, steps in rows:
        us = per_call_us(fn, arg) / steps
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(FAULT_CALLS):
            fn(arg)
        faults = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / FAULT_CALLS / steps
        print(f"{label:>22} {us:9.1f} {faults:7.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
