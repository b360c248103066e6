"""Operator-splitting time integrators over the spectral semi-discretization.

A step composes the exact dispersion flow and the exact pointwise nonlinear
flow with fractional steps a_k, b_k, applied right to left:

    u <- e^{a_1 dt f} e^{b_1 dt g} ... e^{a_s dt f} e^{b_s dt g} u

Both sub-flows are exact for any real fraction, so schemes with negative
coefficients work unchanged.  ``integrate_splitting`` runs the step loop of
:mod:`nlslab.relaxation` with a splitting step as its kernel, with no error
estimate and no relaxation.

When the trailing nonlinear fraction b_s is zero (S2, AK4), the last flow
a_1*dt of one step and the first flow a_s*dt of the next are adjacent.  A run
that tracks no invariants and has no observer never looks at the state
between them, so it merges the two into one flow and applies the last step's
closing flow once, after the loop: AK4 takes four flows a step instead of
five, S2 one instead of two.  Observed runs take every flow of every step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ConfigurationError, GridState, RunRecord, UnsupportedBoundaryError
from .imexrk import StepIncrements
from .relaxation import _integrate
from .spectral import SpectralOperator, nonlinear_flow


@dataclass(frozen=True)
class SplittingScheme:
    name: str
    order: int
    a: tuple[float, ...]
    b: tuple[float, ...]

    def __post_init__(self):
        if len(self.a) != len(self.b):
            raise ConfigurationError("fraction lists must have equal length")
        for label, coeffs in (("a", self.a), ("b", self.b)):
            if abs(sum(coeffs) - 1.0) > 1e-15:
                raise ConfigurationError(
                    f"{self.name}: {label}-fractions sum to {sum(coeffs)!r}, not 1"
                )

    @property
    def stages(self) -> int:
        return len(self.a)


_SCHEMES = {
    "S2": SplittingScheme("S2", 2, (0.5, 0.5), (1.0, 0.0)),
    # Fourth-order five-stage splitting; the zero trailing nonlinear fraction
    # makes consecutive steps share a dispersion sub-flow boundary, which
    # unobserved runs fuse into one flow (see integrate_splitting).
    "AK4": SplittingScheme(
        "AK4",
        4,
        (
            0.267171359000977615,
            -0.0338279096695056672,
            0.5333131013370561044,
            -0.0338279096695056672,
            0.267171359000977615,
        ),
        (
            -0.361837907604416033,
            0.861837907604416033,
            0.861837907604416033,
            -0.361837907604416033,
            0.0,
        ),
    ),
}


def scheme(name: str) -> SplittingScheme:
    """Look up a splitting scheme by name ("S2" or "AK4")."""
    try:
        return _SCHEMES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown splitting scheme {name!r}; known: {sorted(_SCHEMES)}"
        ) from None


def _split_step_u(
    u: np.ndarray,
    sch: SplittingScheme,
    op: SpectralOperator,
    b_coef: float,
    dt: float,
    lead: float = 0.0,
    close: bool = True,
) -> np.ndarray:
    """Sub-flows of one step, right to left.  The first flow a_s*dt is taken
    as a_s*dt + lead, so it can absorb the previous step's deferred closing
    flow; close=False leaves out the last flow a_1*dt."""
    first = sch.stages - 1
    for k in range(first, -1, -1):
        if sch.b[k] != 0.0:
            u = nonlinear_flow(u, b_coef, sch.b[k] * dt)
        if k == 0 and not close:
            break
        if k == first:
            u = op.flow(u, sch.a[k] * dt + lead)
        elif sch.a[k] != 0.0:
            u = op.flow(u, sch.a[k] * dt)
    return u


def splitting_step(
    s: GridState, sch: SplittingScheme, op: SpectralOperator, b_coef: float, dt: float
) -> GridState:
    """One splitting step of size dt; mass is preserved to rounding."""
    if s.grid.bc != "periodic":
        raise UnsupportedBoundaryError("splitting requires a periodic grid")
    return s.with_u(_split_step_u(s.u, sch, op, b_coef, dt), t=s.t + dt)


def integrate_splitting(
    s0: GridState,
    sch: SplittingScheme,
    op: SpectralOperator,
    b_coef: float,
    dt: float,
    T: float,
    invariants=None,
    observer=None,
) -> tuple[GridState, RunRecord]:
    """Fixed-step march to T; the last step is shortened to land exactly.

    ``invariants`` is an optional list of InvariantFunctional to track; their
    drift shows up in the record summary and the residual column.  A run
    with neither invariants nor an observer fuses the shared boundary flow of
    consecutive steps when the scheme allows it (module docstring); its
    result then differs from the step-by-step one at rounding level.
    """
    if s0.grid.bc != "periodic":
        raise UnsupportedBoundaryError("splitting requires a periodic grid")
    defer = sch.b[-1] == 0.0 and not invariants and observer is None
    closing = 0.0

    def step(u: np.ndarray, h: float) -> StepIncrements:
        nonlocal closing
        u = _split_step_u(u, sch, op, b_coef, h, lead=closing, close=not defer)
        if defer:
            closing = sch.a[0] * h
        return StepIncrements(u, None, None)

    state, record = _integrate(s0, step, dt, T, invariants=invariants, observer=observer)
    if defer and record.accepted:
        state = state.with_u(op.flow(state.u, closing))
    return state, record
