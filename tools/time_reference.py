"""Cost and resolution of the semiclassical fine-mesh reference, per mesh.

Times the nlslab that ``import nlslab`` finds, so any checkout can be measured
through ``PYTHONPATH``:

    PYTHONPATH=src python3 tools/time_reference.py
    PYTHONPATH=../parent/src python3 tools/time_reference.py

Settings are those of ``tools/time_transforms.py``: numerics single-threaded
and glibc's mmap threshold fixed as in ``bench/run.py``.  Two configs, each on
its run grid dx = 1/32 with dt = 1/100, so dt_ref = dt/20:

* ``eps=0.2``: ``configs/semiclassical_eps02.cfg``, t_out = 0.8 and 1.2;
* ``eps=0.05``: the desk default of that eps, t_out = 0.4.

For each, a ``SemiclassicalReference`` with dx_ref = dx/2, dx/4 and dx/8, and
one with no ``dx_ref`` (``default``: the mesh the checkout picks for itself,
shown as the m it ended on).  Per t_out, each row gives:

* ``s``: seconds from building the reference to its state at that t_out,
  querying the t_out in order; the best over REPEATS rounds, each of which
  builds one fresh reference per mesh in turn, so host drift hits all alike;
* ``tail``: ``nlslab.spectral.spectral_tail`` of that state, the largest DFT
  coefficient in the top quarter of |k| over the largest one (``-`` on a
  checkout without it);
* ``diff``: the state's largest difference, on the run grid, from the dx/8
  reference's.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

from time_exact_sum import REPEATS, _bench_settings

CASES = (("eps=0.2", 0.2, (0.8, 1.2)), ("eps=0.05", 0.05, (0.4,)))
DX, DT = 1 / 32, 1 / 100
MESHES = (("dx/2", 2), ("dx/4", 4), ("dx/8", 8), ("default", None))


def main() -> int:
    thread_vars, fix_mmap_threshold = _bench_settings()
    for var in thread_vars:
        os.environ[var] = "1"
    threshold = fix_mmap_threshold()

    import numpy as np  # after the thread variables

    import nlslab
    from nlslab.core import make_grid
    from nlslab.harness import ExperimentConfig, SemiclassicalReference
    from nlslab.oracles import semiclassical_problem, subsample

    try:
        from nlslab.spectral import spectral_tail
    except ImportError:
        spectral_tail = None

    def timed(configs, t_out):
        """Per config, the best seconds to each t_out over REPEATS rounds, a
        round building one fresh reference of every config in turn, and the
        states of its last reference."""
        best = [[float("inf")] * len(t_out) for _ in configs]
        states = [None] * len(configs)
        for _ in range(REPEATS):
            for i, cfg in enumerate(configs):
                start = time.perf_counter()
                reference = SemiclassicalReference(cfg, semiclassical_problem(cfg.eps))
                states[i] = []
                for k, t in enumerate(t_out):
                    states[i].append(reference.state_at(t))
                    best[i][k] = min(best[i][k], time.perf_counter() - start)
        return list(zip(best, states))

    print(f"nlslab from {Path(nlslab.__file__).resolve().parent}; "
          f"mmap threshold {threshold}; best of {REPEATS}")
    for name, eps, t_out in CASES:
        problem = semiclassical_problem(eps)
        m = round((problem.x_right - problem.x_left) / DX)
        run_grid = make_grid(problem.x_left, problem.x_right, m)
        configs = [
            ExperimentConfig("semiclassical", eps=eps, dx=DX, dt=DT, dx_ref=ratio and DX / ratio)
            for _, ratio in MESHES
        ]
        rows = dict(zip((label for label, _ in MESHES), timed(configs, t_out)))
        finest = [subsample(state, run_grid).u for state in rows["dx/8"][1]]
        print(f"\n{name}" + "".join(
            f" | t={t:<4g}{'m':>6}{'s':>7}{'tail':>9}{'diff':>9}" for t in t_out
        ))
        for label, (seconds, states) in rows.items():
            cells = ""
            for s, state, fine in zip(seconds, states, finest):
                diff = np.max(np.abs(subsample(state, run_grid).u - fine))
                tail = "-" if spectral_tail is None else f"{spectral_tail(state.u):.1e}"
                cells += f" | {'':6}{state.grid.m:>6}{s:7.2f}{tail:>9}{diff:9.1e}"
            print(f"{label:<8}{cells}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
