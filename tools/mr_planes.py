"""Candidate planes for multiple relaxation, compared on the 2-soliton.

Multiple relaxation restores mass and energy with the state
``u_next + h*(g1*d1 + g2*X)``.  nlslab ships X = d_im, the implicit stages'
share of the main increment d1, and advances time by (1 + g1)*h.  This script
compares three second directions, each formed here from ``imex_step``'s stage
array K (``increment_rows``-style weights times K, then one inverse DFT):

* ``d_im``: b_main on the implicit stage derivatives (the shipped plane);
* ``d_ex``: b_main on the explicit ones (d1 = d_im + d_ex);
* ``d2``: the embedded increment, the source paper's plane,

each with both time advances: (1 + g1)*h, which is the step loop's, and
(1 + g1 + g2)*h.  The second needs no loop of its own: the plane (d1, X) with
the advance (1 + g1 + g2)*h is the plane (d1, X - d1) with the advance
(1 + g1')*h, g1' = g1 + g2 and g2' = g2.  Newton's method is affine
invariant, so the solve takes the same iterates up to rounding.  The gammas
below are reported as (g1, g2) on (d1, X).  The (d2, g1+g2) row is the
source paper's method.

For each plane and advance it prints:

* median over accepted steps of max(|g1|, |g2|) for fixed-step
  FEM-ImEx4(MR) at dt = 0.05, 0.01 and 0.0025 (m = 4480 on [-35, 35], T=4);
* relax_multi calls (attempts that reached the solve) and conservation
  rejections of FEM-ImEx4(MR)(EC) on the growth config to T=4 (tol 1e-4,
  first step 0.01), as the benchmark's ``fem-growth`` workload runs it;
* the growth exponent of that run to T=20 over t in [2, 15], as criterion 5
  fits it, and its largest sampled error; the unrelaxed FEM-ImEx4 run,
  which no plane touches, is printed once.

A run that fails (``NumericalFailureError``) or takes more than BUDGET
attempts per nominal step prints as ``failed``: under (1 + g1)*h with
g1 < -1 time runs backwards, and the (d2, g1) growth run had reached
t = -72.8 after 8,000 attempts.  The script first
checks that its (d_im, g1) stepper reproduces the shipped ``(MR)``
stepper's T=4 run bit for bit.  Run from the checkout root (about five
minutes on one core, most of it in the (d2, g1) runs that fail):

    PYTHONPATH=src python3 tools/mr_planes.py
"""

from __future__ import annotations

import functools
import statistics
import time

import numpy as np

from nlslab import spectral
from nlslab.core import (
    ACCEPTED,
    NumericalFailureError,
    energy_functional,
    make_grid,
    mass_functional,
)
from nlslab.harness import (
    ErrorSampler,
    ExperimentConfig,
    fit_growth_exponent,
    parse_method,
    run_method,
)
from nlslab.imexrk import StepIncrements, imex_step, tableau
from nlslab.oracles import soliton_exact, soliton_initial, soliton_problem
from nlslab.relaxation import ControllerConfig, adaptive_integrate, integrate_imex
from nlslab.spectral import cubic_term, fem_operator

FIXED_DTS = (0.05, 0.01, 0.0025)
BUDGET = 20  # attempts per nominal step (T / first step) before a run is cut
PLANES = ("d_im", "d_ex", "d2")
ADVANCES = ("g1", "g1+g2")


class OverBudget(Exception):
    pass


def plane_stepper(tab, op, fex, plane: str, advance: str, budget: float = np.inf):
    """A (u, h) stepper whose increments carry X (or X - d1) as d_im; it
    raises OverBudget on its call number ``budget``."""
    weights = {
        "d_im": tab.increment_rows[2],
        "d_ex": tab.increment_rows[0] - tab.increment_rows[2],
        "d2": tab.increment_rows[1],
    }[plane]
    stages = np.empty(0)
    calls = 0

    def step(u, h):
        nonlocal stages, calls
        calls += 1
        if calls >= budget:
            raise OverBudget
        if stages.shape[1:] != u.shape:
            stages = np.empty((2 * tab.s, *u.shape), np.complex128)
        inc = imex_step(u, tab, h, op, fex, _stages=stages)
        x = spectral.dft_inverse((weights @ stages.view(np.float64)).view(np.complex128))
        return StepIncrements(inc.u_next, inc.d1, inc.d2, x if advance == "g1" else x - inc.d1)

    return step


def paper_gammas(record, advance: str) -> list[tuple[float, float]]:
    """(g1, g2) on (d1, X) of the accepted steps."""
    rows = [r for r in record.steps if r.disposition == ACCEPTED]
    if advance == "g1":
        return [(r.gamma1, r.gamma2) for r in rows]
    return [(r.gamma1 - r.gamma2, r.gamma2) for r in rows]


def main() -> None:
    started = time.perf_counter()
    problem = soliton_problem(2)
    grid = make_grid(problem.x_left, problem.x_right, 4480)
    s0, _ = soliton_initial(2, grid)
    tab = tableau("ImEx4")
    op, fex = fem_operator(grid, problem.a), cubic_term(problem.b)
    invariants = [mass_functional(), energy_functional(problem.b, problem.a)]
    controller = ControllerConfig(1e-4, tab.embedded_order)

    def error(state):
        return float(np.max(np.abs(state.u - soliton_exact(2, grid.nodes, state.t))))

    def growth(stepper, T):
        sampler = ErrorSampler(error, 400)
        _, record = adaptive_integrate(s0, stepper, controller, T, 0.01, invariants, 2, sampler)
        return record, sampler.rows

    def gamma_size(stepper, advance, dt):
        _, record = integrate_imex(s0, stepper, dt, 4.0, invariants, 2)
        size = [max(abs(g1), abs(g2)) for g1, g2 in paper_gammas(record, advance)]
        return [f"{statistics.median(size):.2g}"]

    def attempts(stepper, advance):
        record, _ = growth(stepper, 4.0)
        return [str(record.accepted + record.conservation_rejections),
                str(record.conservation_rejections)]

    def exponent(stepper, advance):
        _, rows = growth(stepper, 20.0)
        return [f"{fit_growth_exponent(rows, (2.0, 15.0)):.2f}", f"{max(e for _, e in rows):.2g}"]

    # (run(stepper, advance) -> cells, T, first step, number of cells)
    runs = [(functools.partial(gamma_size, dt=dt), 4.0, dt, 1) for dt in FIXED_DTS]
    runs += [(attempts, 4.0, 0.01, 2), (exponent, 20.0, 0.01, 2)]

    # The script's shipped-plane stepper is the shipped one.
    cfg = ExperimentConfig(scenario="error_growth")
    mr = parse_method("FEM-ImEx4(MR)(EC)")
    shipped, shipped_record = run_method(mr, problem, grid, s0, 0.01, 4.0, cfg)
    ours, ours_record = adaptive_integrate(
        s0, plane_stepper(tab, op, fex, "d_im", "g1"), controller, 4.0, 0.01, invariants, 2
    )
    assert np.array_equal(ours.u, shipped.u) and ours_record.steps == shipped_record.steps

    sampler = ErrorSampler(error, 400)
    run_method(parse_method("FEM-ImEx4"), problem, grid, s0, 0.01, 20.0, cfg, sampler)
    plain = fit_growth_exponent(sampler.rows, (2.0, 15.0))
    plain_max = max(e for _, e in sampler.rows)

    header = ["plane", "advance"] + [f"med|g| dt={dt:g}" for dt in FIXED_DTS]
    header += ["T=4 calls", "T=4 rejected", "T=20 exponent", "T=20 max err"]
    print("| " + " | ".join(header) + " |")
    print("|" + "---|" * len(header))
    for plane in PLANES:
        for advance in ADVANCES:
            cells = [plane, advance]
            for run, T, dt, width in runs:
                stepper = plane_stepper(tab, op, fex, plane, advance, BUDGET * T / dt)
                try:
                    cells += run(stepper, advance)
                except (NumericalFailureError, OverBudget):
                    cells += ["failed"] * width
            print("| " + " | ".join(cells) + " |", flush=True)
    print(f"\nunrelaxed FEM-ImEx4 (dt=0.01): exponent {plain:.2f}, max err {plain_max:.2g}")
    print(f"wall {time.perf_counter() - started:.0f} s")


if __name__ == "__main__":
    main()
