"""Relaxation post-processing, the hybrid adaptive step controller, and the
step loop every integrator runs.

After an ImEx step produces its main increment d1, relaxation picks
coefficients (gamma1, gamma2) so the updated solution

    u_next + dt * (gamma1 * d1 + gamma2 * d_im)

restores the chosen invariants exactly, and time advances by
(1 + gamma1) * dt.  Single relaxation (gamma2 = 0) enforces the mass, whose
defining equation is a scalar quadratic solved in closed form.  Multiple
relaxation enforces mass and energy together.  Along the family they are
polynomials in (gamma1, gamma2), so Newton runs on their exact coefficients
(Ketcheson, SINUM 57(6) 2019; Biswas and Ketcheson on multiple relaxation).
Either solve is one root-find followed by one measurement of the
functionals at the gamma it returns.

The second direction d_im is the implicit stages' share of d1, which a
stepper for multiple relaxation forms with one more inverse DFT (15 per
ImEx4 step, not 14).  The source paper relaxes along (d1, d2) instead, d2
the embedded increment; but d1 - d2 = O(dt^3), so that plane is nearly
degenerate, and its solve lands at |gamma| ~ 1 with gamma1 ~ -gamma2, or
finds no root (on the 2-soliton growth run, 110 of 244 attempts were
rejected).  In the (d1, d_im) plane gamma stays a small perturbation of the
unrelaxed step, as the order argument of Ranocha et al. (SISC 42(2), 2020)
asks, and time advances along d1 alone.  Biswas and Ketcheson (J. Sci.
Comput. 2023) leave the choice of directions free.

Numerical care: every run enforces the invariants against their *initial*
values (equivalent to matching the previous step in exact arithmetic, by
induction).  This stops per-step rounding from random-walking across a long
run, which matters because conserved drifts are asserted near 1e-15: each
step's rounding error is corrected by the next step's solve instead of
adding up.

Splitting, fixed-step ImEx and adaptive ImEx share one step loop, which
owns a run's invariants: take a step, estimate its error if a controller
is given, relax the first ``relax`` tracked invariants if asked, then
accept or reject.  Relaxation is thus a step-level post-process that
composes with step-size control (Ranocha, Sayyari, Dalcin, Parsani and
Ketcheson, SISC 42(2), 2020).  A relaxation failure halves the step.  The
solve is the one measurement of a relaxed state: its outcome carries the
drifts it measured at the returned gamma, and the loop accepts that very
vector, evaluating only the invariants it does not relax.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .core import (
    ACCEPTED,
    CONSERVATION_REJECTED,
    EPS_REJECTED,
    ConfigurationError,
    GridState,
    InvariantFunctional,
    InvariantTracker,
    NumericalFailureError,
    RunRecord,
    StepRow,
    exact_dot,  # noqa: F401 - unused here, but bench/spans.py wraps relaxation.exact_dot
    exact_sum,
)
from .imexrk import ImExTableau, StepIncrements, imex_step

#: Residual below which a relaxation solve counts as converged; the two
#: solves read it when called.
CONSERVATION_TOL = 1e-12
_LANDING_REL_TOL = 1e-12
_MAX_NEWTON_ITERATIONS = 50
_POWERS = np.arange(5.0)
_MAX_HALVINGS = 60


@dataclass(frozen=True)
class RelaxationOutcome:
    """Result of one relaxation solve.

    ``gamma1`` scales the time advance, (1 + gamma1) * dt; ``drifts`` are
    the invariants' measured |f_k(u) - target_k| at the returned parameters,
    and ``residual`` is their 2-norm.  ``converged`` implies the residual
    beat ``CONSERVATION_TOL``.  ``iterations`` counts the Newton iterations
    on the multiple-relaxation model; it is 0 for the closed-form mass root.
    """

    gamma1: float
    gamma2: float
    residual: float
    drifts: tuple[float, ...]
    iterations: int
    converged: bool


#: Factor on the raw step-size proposal, so a step at eps = 1 shrinks.
SAFETY = 0.9


@dataclass(frozen=True)
class ControllerConfig:
    """Tolerance and guards for the hybrid step controller."""

    tol: float = 1e-4
    embedded_order: int = 3
    max_growth: float = 5.0
    dt_min: float | None = None

    def __post_init__(self):
        if not self.tol > 0:
            raise ConfigurationError(f"tolerance must be positive, got {self.tol}")


def error_estimate(u_next, u_hat, cfg: ControllerConfig) -> float:
    """Weighted RMS difference between the main and embedded solutions.

    Complex entries contribute their modulus; the weight for entry i is
    tol + tol * max(|u_i|, |u_hat_i|), one tolerance both absolute and
    relative.

    The moduli, the scale and the squared ratio are formed in two reused
    real rows, and the mean is the sum over n, which is how ``np.mean``
    forms it; each operation keeps its operands, so the estimate is bitwise
    that of ``sqrt(mean((|u_next - u_hat| / scale)**2))``.
    """
    if u_next.shape != u_hat.shape:
        raise ConfigurationError("states being compared have different lengths")
    ratio, scale = np.empty((2, *u_next.shape))
    np.maximum(np.abs(u_next, out=scale), np.abs(u_hat, out=ratio), out=scale)
    np.multiply(cfg.tol, scale, out=scale)
    np.add(cfg.tol, scale, out=scale)
    np.abs(np.subtract(u_next, u_hat), out=ratio)
    np.divide(ratio, scale, out=ratio)
    np.square(ratio, out=ratio)
    return math.sqrt(np.add.reduce(ratio, axis=None) / ratio.size)


def propose_step(eps: float, dt: float, cfg: ControllerConfig) -> float:
    """New step size from the error estimate; growth is capped.

    The raw rule is SAFETY * (1/eps)^(1/(q+1)) * dt with q the embedded
    order.  eps = 0 (or eps below the cap threshold) maps to max_growth*dt,
    since the raw rule is unbounded there.
    """
    if not eps >= 0:
        raise ConfigurationError(f"error estimate must be nonnegative, got {eps}")
    if eps == 0.0:
        return cfg.max_growth * dt
    factor = SAFETY * (1.0 / eps) ** (1.0 / (cfg.embedded_order + 1))
    return min(factor, cfg.max_growth) * dt


def _smallest_magnitude_root(a: float, b: float, c: float) -> float | None:
    """Real root of a*x^2 + b*x + c with least magnitude; ties go positive."""
    if a == 0.0:
        if b == 0.0:
            return 0.0 if c == 0.0 else None
        return -c / b
    if b == 0.0:
        # Symmetric pair +-sqrt(-c/a), taken directly: b*b - 4ac can underflow
        # to 0 while -c/a does not.  The tie goes to the positive root.
        ratio = -c / a
        return None if ratio < 0.0 else abs(math.sqrt(ratio))
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return None
    q = -(b + np.copysign(np.sqrt(disc), b)) / 2.0
    roots = (q / a, c / q) if q != 0.0 else (q / a,)
    return min(roots, key=lambda r: (abs(r), -np.sign(r)))


def _relaxed_vector(inc: StepIncrements, dt: float, gamma1, gamma2=0.0) -> np.ndarray:
    """u_next + dt*(gamma1*d1 + gamma2*d_im), the one formula for a relaxed
    state: the solvers measure their residuals on exactly the vector that
    the step loop accepts."""
    step = gamma1 * inc.d1 if gamma2 == 0.0 else gamma1 * inc.d1 + gamma2 * inc.d_im
    return inc.u_next + dt * step


def relax_single(
    un: GridState,
    inc: StepIncrements,
    dt: float,
    inv: InvariantFunctional,
    target: float,
) -> RelaxationOutcome:
    """Find gamma1 restoring the mass along direction d1.

    The mass dx * sum(w*|u|^2), w the functional's node weight, is quadratic
    along d1, so the equation is solved in closed form: gamma1 is its
    smallest-magnitude real root (ties toward positive), or 0 when it has
    none.  The mass is then measured once, at that gamma1, and the outcome
    is converged if that residual beats the tolerance; ``iterations`` is 0.
    An invariant of any other kind is refused.
    """
    if inv.kind != "mass":
        raise ConfigurationError(f"single relaxation enforces the mass, not {inv.kind!r}")
    dx = un.grid.dx
    un1 = inc.u_next
    d = inc.d1
    s_uu = exact_sum(inv.weight * (un1.real**2 + un1.imag**2))
    s_ud = exact_sum(inv.weight * (un1.real * d.real + un1.imag * d.imag))
    s_dd = exact_sum(inv.weight * (d.real**2 + d.imag**2))
    a_coef = dx * dt * dt * s_dd
    b_coef = 2.0 * dx * dt * s_ud
    c_coef = dx * s_uu - target
    gamma = _smallest_magnitude_root(a_coef, b_coef, c_coef)
    if gamma is None:
        gamma = 0.0
    r = abs(inv.evaluate(un.with_u(_relaxed_vector(inc, dt, gamma))) - target)
    return RelaxationOutcome(gamma, 0.0, r, (r,), 0, r < CONSERVATION_TOL)


def relax_multi(
    un: GridState,
    inc: StepIncrements,
    dt: float,
    functionals: tuple[InvariantFunctional, InvariantFunctional],
    targets: tuple[float, float],
) -> RelaxationOutcome:
    """Solve the 2x2 conservation system for (gamma1, gamma2).

    Each functional's ``restrict`` gives its change along u_next + g1*A + g2*B
    (A = dt*d1, B = dt*d_im) as an exact polynomial; with the measured
    residual at (0, 0) as constant term, plain Newton runs on that model
    from (0, 0) while the model residual drops.  The functionals are then
    measured once more, at the Newton point, and whichever of (0, 0) and
    that point has the smaller measured residual is returned.  Parallel
    gradients or a stalled iteration yield a non-converged outcome for
    step-halving fallback.  Increments without d_im are refused.
    """
    if inc.d_im is None:
        raise ConfigurationError(
            "multiple relaxation needs the step's implicit half d_im; "
            "build the stepper with make_imex_stepper(..., relax=2)"
        )
    f1, f2 = functionals

    def measured(gamma: np.ndarray) -> tuple[np.ndarray, float]:
        state = un.with_u(_relaxed_vector(inc, dt, *gamma))
        r = np.array([f1.evaluate(state) - targets[0], f2.evaluate(state) - targets[1]])
        return r, float(np.hypot(*r))

    best_gamma = np.zeros(2)
    best_r, best_norm = measured(best_gamma)  # 0 ends the solve with no iteration
    A, B = dt * inc.d1, dt * inc.d_im
    coeffs = np.array([f.restrict(inc.u_next, A, B, un.grid) for f in functionals])
    coeffs[:, 0, 0] = best_r  # coeffs[k, i, j] multiplies g1**i * g2**j in residual k
    by_g1 = coeffs[:, 1:, :] * _POWERS[1:, None]
    by_g2 = coeffs[:, :, 1:] * _POWERS[1:]

    def model(g: np.ndarray) -> tuple[np.ndarray, float]:
        r = coeffs @ g[1] ** _POWERS @ g[0] ** _POWERS
        return r, float(np.hypot(*r))

    def jacobian(g: np.ndarray) -> np.ndarray:
        p1, p2 = g[0] ** _POWERS, g[1] ** _POWERS
        return np.column_stack([by_g1 @ p2 @ p1[:4], by_g2 @ p2[:4] @ p1])

    gamma, r, norm = best_gamma, best_r, best_norm
    iterations = 0
    while iterations < _MAX_NEWTON_ITERATIONS and norm > 0.0:
        iterations += 1
        jac = jacobian(gamma)
        det = jac[0, 0] * jac[1, 1] - jac[0, 1] * jac[1, 0]
        scale = np.hypot(*jac[0]) * np.hypot(*jac[1])
        if abs(det) <= 1e-14 * scale or scale == 0.0:
            break  # directions are (numerically) parallel in gradient space
        candidate = gamma + np.linalg.solve(jac, -r)
        r_new, norm_new = model(candidate)
        if not norm_new < norm:
            break
        gamma, r, norm = candidate, r_new, norm_new
    if gamma.any():
        r, norm = measured(gamma)
        if norm < best_norm:
            best_gamma, best_r, best_norm = gamma, r, norm
    return RelaxationOutcome(
        float(best_gamma[0]),
        float(best_gamma[1]),
        best_norm,
        tuple(np.abs(best_r).tolist()),
        iterations,
        best_norm < CONSERVATION_TOL,
    )


def make_imex_stepper(tab: ImExTableau, fim, fex, relax: int = 0):
    """Bind a tableau and semi-discretization into a (u, dt) -> increments stepper.

    A stepper for ``relax=2`` runs also forms each step's implicit half
    d_im, the second direction of multiple relaxation (one inverse DFT
    more); any other stepper leaves it None.  The stepper allocates
    imex_step's complex stage array on its first step and reuses it for
    every later step on vectors of the same length; the increments it
    returns are fresh arrays.  The stage array is 860 KB at m=4480: where
    blocks that large are mapped afresh (glibc's initial mmap threshold is
    128 KiB), one per step would page-fault on every step.
    """
    stages = np.empty(0)

    def stepper(u: np.ndarray, dt: float) -> StepIncrements:
        nonlocal stages
        if stages.shape[1:] != u.shape:
            stages = np.empty((2 * tab.s, *u.shape), np.complex128)
        return imex_step(u, tab, dt, fim, fex, implicit_half=relax == 2, _stages=stages)

    return stepper


def landing_tolerance(T: float) -> float:
    """The step loop ends a run to T once t >= T - landing_tolerance(T)."""
    return _LANDING_REL_TOL * max(1.0, abs(T))


def _finite(u: np.ndarray) -> bool:
    return bool(np.all(np.isfinite(u.view(np.float64))))


def _relax(functionals, targets, un: GridState, inc: StepIncrements, dt: float):
    """Single relaxation for one invariant, multiple for two.

    ``relax_single``/``relax_multi`` are resolved in this module on every
    call, so a wrapper installed here (as ``bench/spans.py`` does) sees them.
    A sum that overflows on a huge but finite trial state (``math.fsum``
    raises OverflowError, or ValueError on inf terms) is reported as a
    failed solve, so the step is halved; a ConfigurationError propagates.
    """
    try:
        if len(functionals) == 1:
            return relax_single(un, inc, dt, functionals[0], targets[0])
        return relax_multi(un, inc, dt, functionals, targets)
    except ConfigurationError:
        raise
    except (OverflowError, ValueError):
        return RelaxationOutcome(0.0, 0.0, np.inf, (np.inf,) * len(functionals), 0, False)


def _integrate(
    s0: GridState,
    step,
    dt: float,
    T: float,
    controller: ControllerConfig | None = None,
    invariants=None,
    relax: int = 0,
    observer=None,
) -> tuple[GridState, RunRecord]:
    """The step loop behind every integrator: march ``step(u, h) ->
    StepIncrements`` from s0 to T, shrinking the last step to land on T.

    Without a controller every step has nominal size dt (integrate_imex);
    with one, dt is the first size and the error estimate steers the rest
    (adaptive_integrate).  The loop tracks the drift of ``invariants`` from
    their values at s0, and relaxation enforces the first ``relax`` of them
    against those same values; either way a relaxation failure retries the
    step at half the size.  An accepted step logs the relaxation residual
    or, unrelaxed, the largest drift of the tracked invariants at that step.
    """
    if not dt > 0:
        raise ConfigurationError(f"dt must be positive, got {dt}")
    if T < s0.t:
        raise ConfigurationError(f"final time {T} does not follow start time {s0.t}")
    invariants = list(invariants or ())
    kinds = [f.kind for f in invariants]
    if relax not in (0, 1, 2) or relax > len(kinds) or (relax == 1 and kinds[0] != "mass"):
        raise ConfigurationError(
            f"relax must be 0, 1 or 2 and at most the {len(kinds)} tracked invariants, "
            f"and relax=1 enforces the mass first; got relax={relax!r} for {kinds}"
        )
    if controller is not None:
        dt_min = controller.dt_min if controller.dt_min is not None else 1e-12 * (T - s0.t)
    record = RunRecord()
    tracker = InvariantTracker(invariants, s0) if invariants else None
    if relax:
        relaxed = tuple(invariants[:relax])
        targets = tuple(tracker.initial[:relax])
    state = s0
    h_next = dt
    halvings = 0
    tiny = landing_tolerance(T)
    started = time.perf_counter()
    while state.t < T - tiny:
        if controller is not None and not h_next >= dt_min:
            raise NumericalFailureError(
                f"step size {h_next:.3e} fell below the floor {dt_min:.3e} at t={state.t:.6g}"
            )
        h = min(h_next, T - state.t)
        inc = step(state.u, h)
        # The unrelaxed state, built once: its check is the one finiteness
        # scan of u_next.
        try:
            trial = state.with_u(inc.u_next, t=state.t + h)
        except NumericalFailureError:
            trial = None
        eps = None
        if controller is None:
            if trial is None:
                raise NumericalFailureError(f"non-finite state after step {len(record.steps) + 1}")
        else:
            eps = np.inf
            if trial is not None and _finite(inc.d2):
                eps = error_estimate(inc.u_next, state.u + h * inc.d2, controller)
            if not eps < 1.0:
                # Non-finite trial values, or an estimate that overflowed to
                # NaN or inf, are logged as inf and retried at half the size.
                eps = eps if np.isfinite(eps) else np.inf
                record.steps.append(StepRow(state.t, h, eps, 0.0, 0.0, None, EPS_REJECTED))
                h_next = h / 2.0 if eps == np.inf else propose_step(eps, h, controller)
                continue
        gamma1, gamma2, residual, measured = 0.0, 0.0, None, ()
        if not relax:
            state = trial
        else:
            out = _relax(relaxed, targets, state, inc, h)
            if not out.converged:
                record.steps.append(StepRow(
                    state.t, h, eps, out.gamma1, out.gamma2, out.residual, CONSERVATION_REJECTED
                ))
                halvings += 1
                if controller is None and halvings > _MAX_HALVINGS:
                    raise NumericalFailureError(
                        f"relaxation failed to converge after {_MAX_HALVINGS} halvings "
                        f"at t={state.t:.6g}"
                    )
                h_next = h / 2.0
                continue
            gamma1, gamma2, residual, measured = out.gamma1, out.gamma2, out.residual, out.drifts
            u = _relaxed_vector(inc, h, gamma1, gamma2)
            state = state.with_u(u, t=state.t + (1.0 + gamma1) * h)
        if tracker is not None:
            try:
                drift = tracker.update(state, measured)
            except (OverflowError, ValueError) as exc:
                raise NumericalFailureError(
                    f"invariant sums overflowed after step {len(record.steps) + 1} "
                    f"at t={state.t:.6g}"
                ) from exc
            if residual is None:
                residual = drift
        if observer is not None:
            observer(state)
        record.steps.append(StepRow(state.t, h, eps, gamma1, gamma2, residual, ACCEPTED))
        halvings = 0
        h_next = dt if controller is None else propose_step(eps, h, controller)
    record.runtime_seconds = time.perf_counter() - started
    record.final_t = state.t
    if tracker is not None:
        drifts = tracker.drift_by_kind()
        record.max_mass_drift = drifts.get("mass")
        record.max_energy_drift = drifts.get("energy")
    return state, record


def adaptive_integrate(
    s0: GridState,
    stepper,
    cfg: ControllerConfig,
    T: float,
    dt_initial: float,
    invariants=None,
    relax: int = 0,
    observer=None,
) -> tuple[GridState, RunRecord]:
    """Hybrid adaptive integration to time T.

    Per attempt: take an embedded step, compute the weighted error estimate;
    estimates >= 1 reject the step and retry with the proposed size.
    Otherwise, with ``relax`` = 1 or 2, relaxation restores the first
    ``relax`` of the tracked ``invariants`` to their values at s0; a residual
    at or above ``CONSERVATION_TOL`` rejects the step and retries at half
    the size.  Accepted steps advance time by (1 + gamma1) * dt and
    continue with the proposed size.  The final step's nominal size is
    shrunk to land on T; the exact landing differs by gamma1 * dt, which
    the record reports.

    A trial step producing non-finite values, or an error estimate that
    overflows, counts as an error rejection at half the step; the run aborts
    when dt falls below cfg.dt_min.
    """
    return _integrate(s0, stepper, dt_initial, T, cfg, invariants, relax, observer)


def integrate_imex(
    s0: GridState,
    stepper,
    dt: float,
    T: float,
    invariants=None,
    relax: int = 0,
    observer=None,
) -> tuple[GridState, RunRecord]:
    """Fixed-step ImEx march that tracks ``invariants`` and, with ``relax``
    = 1 (the mass) or 2 (mass and energy), relaxes the first ``relax`` of
    them each step.

    When a relaxation solve fails to converge (residual at or above
    ``CONSERVATION_TOL``) the step is retried at half the size, and the
    following step resumes the nominal dt; after 60 halvings of one step
    the run aborts.  The last step's nominal size is shrunk to land on T.
    """
    return _integrate(s0, stepper, dt, T, None, invariants, relax, observer)
