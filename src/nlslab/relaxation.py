"""Relaxation post-processing, the hybrid adaptive step controller, and the
step loop every integrator runs.

After an embedded ImEx step produces directions d1 and d2, relaxation picks
coefficients (gamma1, gamma2) so the updated solution

    u_next + dt * (gamma1 * d1 + gamma2 * d2)

restores the chosen invariants exactly, and time advances by
(1 + gamma1 + gamma2) * dt.  Single relaxation (gamma2 = 0) enforces the
mass, whose defining equation is a scalar quadratic solved in closed form.
Multiple relaxation enforces mass and energy together.  Along the family
they are polynomials in (gamma1, gamma2), so Newton runs on their exact
coefficients before a short polish against the measured functionals
(Ketcheson, SINUM 57(6) 2019; Biswas and Ketcheson on multiple relaxation).

Numerical care: every run enforces the invariants against their *initial*
values (equivalent to matching the previous step in exact arithmetic, by
induction), and root finding keeps the iterate with the smallest measured
residual.  This stops per-step rounding from random-walking across a long
run, which matters because conserved drifts are asserted near 1e-15.

Splitting, fixed-step ImEx and adaptive ImEx share one step loop, which
owns a run's invariants: take a step, estimate its error if a controller
is given, relax the first ``relax`` tracked invariants if asked, then
accept or reject.  Relaxation is thus a step-level post-process that
composes with step-size control (Ranocha, Sayyari, Dalcin, Parsani and
Ketcheson, SISC 42(2), 2020).  A relaxation failure halves the step.
"""

from __future__ import annotations

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

#: Default residual below which a relaxation solve counts as converged.
CONSERVATION_TOL = 1e-12
_LANDING_REL_TOL = 1e-12
_MAX_NEWTON_ITERATIONS = 50
_MAX_DAMPING_HALVINGS = 10
_POLISH_STEPS = 3
_POWERS = np.arange(5.0)
_MAX_HALVINGS = 60


@dataclass(frozen=True)
class RelaxationOutcome:
    """Result of one relaxation solve.

    ``gamma_total`` is gamma1 + gamma2 and scales the time advance;
    ``residual`` is the 2-norm of the conservation equations at the returned
    parameters.  ``converged`` implies the residual beat the conservation
    tolerance the solve was run with.
    """

    gamma1: float
    gamma2: float
    gamma_total: float
    residual: float
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
    """
    if u_next.shape != u_hat.shape:
        raise ConfigurationError("states being compared have different lengths")
    diff = np.abs(u_next - u_hat)
    scale = cfg.tol + cfg.tol * np.maximum(np.abs(u_next), np.abs(u_hat))
    return float(np.sqrt(np.mean((diff / scale) ** 2)))


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
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return None
    sq = np.sqrt(disc)
    q = -(b + np.copysign(sq, b)) / 2.0
    roots = []
    roots.append(q / a)
    if q != 0.0:
        roots.append(c / q)
    elif b == 0.0:  # symmetric pair +-sqrt(-c/a)
        roots = [sq / (2 * a), -sq / (2 * a)]
    return min(roots, key=lambda r: (abs(r), -np.sign(r)))


def _relaxed_vector(inc: StepIncrements, dt: float, gamma1, gamma2=0.0) -> np.ndarray:
    """u_next + dt*(gamma1*d1 + gamma2*d2), the one formula for a relaxed
    state: the solvers measure their residuals on exactly the vector that
    :func:`relaxed_update` accepts."""
    step = gamma1 * inc.d1 if gamma2 == 0.0 else gamma1 * inc.d1 + gamma2 * inc.d2
    return inc.u_next + dt * step


def relax_single(
    un: GridState,
    inc: StepIncrements,
    dt: float,
    inv: InvariantFunctional,
    target: float | None = None,
    conservation_tol: float = CONSERVATION_TOL,
) -> RelaxationOutcome:
    """Find gamma1 restoring the mass along direction d1.

    The mass is quadratic along d1, so the equation is solved in closed form
    (smallest-magnitude real root, ties toward positive) and then polished
    against the measured functional.  Without a real root the outcome is
    gamma1 = 0 with its measured residual, converged if that residual beats
    the tolerance.  An invariant of any other kind is refused.
    """
    if inv.kind != "mass":
        raise ConfigurationError(f"single relaxation enforces the mass, not {inv.kind!r}")
    if target is None:
        target = inv.evaluate(un)
    dx = un.grid.dx

    def measured(gamma: float) -> float:
        return inv.evaluate(un.with_u(_relaxed_vector(inc, dt, gamma))) - target

    def outcome(gamma: float, residual: float, iterations: int) -> RelaxationOutcome:
        r = abs(residual)
        return RelaxationOutcome(gamma, 0.0, gamma, r, iterations, r < conservation_tol)

    un1 = inc.u_next
    d = inc.d1
    s_uu = exact_sum(un1.real**2 + un1.imag**2)
    s_ud = exact_sum(un1.real * d.real + un1.imag * d.imag)
    s_dd = exact_sum(d.real**2 + d.imag**2)
    a_coef = dx * dt * dt * s_dd
    b_coef = 2.0 * dx * dt * s_ud
    c_coef = dx * s_uu - target
    gamma = _smallest_magnitude_root(a_coef, b_coef, c_coef)
    if gamma is None:
        return outcome(0.0, measured(0.0), 0)
    best_gamma, best_res = gamma, measured(gamma)
    iterations = 0
    # Newton polish on the measured functional: the closed form solves
    # the analytic quadratic, whose coefficients carry summation noise.
    for _ in range(4):
        slope = 2.0 * dx * dt * (s_ud + best_gamma * dt * s_dd)
        if slope == 0.0:
            break
        candidate = best_gamma - best_res / slope
        res = measured(candidate)
        iterations += 1
        if abs(res) < abs(best_res):
            best_gamma, best_res = candidate, res
        else:
            break
    return outcome(best_gamma, best_res, iterations)


def _damped_newton(residual, jacobian, gamma, r, norm, max_iterations, damp_below=np.inf):
    """Damped Newton on ``residual(gamma) -> (r, |r|)``: steps are halved until
    the norm drops, but only taken in full while it is at least ``damp_below``.
    Returns the best (gamma, r, norm) and the number of iterations."""
    iterations = 0
    while iterations < max_iterations and norm > 0.0:
        iterations += 1
        jac = jacobian(gamma)
        det = jac[0, 0] * jac[1, 1] - jac[0, 1] * jac[1, 0]
        scale = np.hypot(*jac[0]) * np.hypot(*jac[1])
        if abs(det) <= 1e-14 * scale or scale == 0.0:
            break  # directions are (numerically) parallel in gradient space
        step = np.linalg.solve(jac, -r)
        lam = 1.0
        for _ in range(_MAX_DAMPING_HALVINGS if norm < damp_below else 1):
            candidate = gamma + lam * step
            r_new, norm_new = residual(candidate)
            if norm_new < norm:
                gamma, r, norm = candidate, r_new, norm_new
                break
            lam *= 0.5
        else:
            break
    return gamma, r, norm, iterations


def relax_multi(
    un: GridState,
    inc: StepIncrements,
    dt: float,
    functionals: tuple[InvariantFunctional, InvariantFunctional],
    targets: tuple[float, float] | None = None,
    conservation_tol: float = CONSERVATION_TOL,
) -> RelaxationOutcome:
    """Solve the 2x2 conservation system for (gamma1, gamma2).

    Each functional's ``restrict`` gives its change along u_next + g1*A + g2*B
    (A = dt*d1, B = dt*d2) as an exact polynomial; with the measured residual
    at (0, 0) as constant term, damped Newton runs on that model from (0, 0).
    At most _POLISH_STEPS corrections with the model Jacobian then polish its
    best point against the measured functionals, and the point with the
    smallest measured residual is returned.  A singular Jacobian or stalled
    iteration yields a non-converged outcome for step-halving fallback.
    """
    f1, f2 = functionals
    if targets is None:
        targets = (f1.evaluate(un), f2.evaluate(un))

    def measured(gamma: np.ndarray) -> tuple[np.ndarray, float]:
        state = un.with_u(_relaxed_vector(inc, dt, *gamma))
        r = np.array([f1.evaluate(state) - targets[0], f2.evaluate(state) - targets[1]])
        return r, float(np.hypot(*r))

    best_gamma = np.zeros(2)
    r0, best_norm = measured(best_gamma)  # 0 ends the solve with no iteration
    A, B = dt * inc.d1, dt * inc.d2
    coeffs = np.array([f.restrict(inc.u_next, A, B, un.grid) for f in functionals])
    coeffs[:, 0, 0] = r0  # coeffs[k, i, j] multiplies g1**i * g2**j in residual k
    by_g1 = coeffs[:, 1:, :] * _POWERS[1:, None]
    by_g2 = coeffs[:, :, 1:] * _POWERS[1:]

    def model(g: np.ndarray) -> tuple[np.ndarray, float]:
        r = coeffs @ g[1] ** _POWERS @ g[0] ** _POWERS
        return r, float(np.hypot(*r))

    def jacobian(g: np.ndarray) -> np.ndarray:
        p1, p2 = g[0] ** _POWERS, g[1] ** _POWERS
        return np.column_stack([by_g1 @ p2 @ p1[:4], by_g2 @ p2[:4] @ p1])

    gamma, _, _, iterations = _damped_newton(
        model, jacobian, best_gamma, r0, best_norm, _MAX_NEWTON_ITERATIONS
    )
    if gamma.any():
        # Full steps only above the tolerance: an attempt without a nearby
        # root then costs a single extra evaluation.
        gamma, _, norm, polished = _damped_newton(
            measured, jacobian, gamma, *measured(gamma), _POLISH_STEPS, conservation_tol
        )
        iterations += polished
        if norm < best_norm:
            best_gamma, best_norm = gamma, norm
    return RelaxationOutcome(
        float(best_gamma[0]),
        float(best_gamma[1]),
        float(best_gamma.sum()),
        best_norm,
        iterations,
        best_norm < conservation_tol,
    )


def relaxed_update(
    un: GridState, inc: StepIncrements, dt: float, out: RelaxationOutcome
) -> GridState:
    """Apply the relaxed update; time advances by (1 + gamma_total) * dt."""
    if not out.converged:
        raise ConfigurationError("relaxed_update called with a non-converged outcome")
    u = _relaxed_vector(inc, dt, out.gamma1, out.gamma2)
    return un.with_u(u, t=un.t + (1.0 + out.gamma_total) * dt)


def make_imex_stepper(tab: ImExTableau, fim, fex):
    """Bind a tableau and semi-discretization into a (u, dt) -> increments stepper.

    The stepper allocates imex_step's complex stage array on its first step
    and reuses it for every later step on vectors of the same length; the
    increments it returns are fresh arrays.  The stage array is 860 KB at
    m=4480: where blocks that large are mapped afresh (glibc's initial mmap
    threshold is 128 KiB), one per step would page-fault on every step.
    """
    stages = np.empty(0)

    def stepper(u: np.ndarray, dt: float) -> StepIncrements:
        nonlocal stages
        if stages.shape[1:] != u.shape:
            stages = np.empty((2 * tab.s, *u.shape), np.complex128)
        return imex_step(u, tab, dt, fim, fex, _stages=stages)

    return stepper


def landing_tolerance(T: float) -> float:
    """The step loop ends a run to T once t >= T - landing_tolerance(T)."""
    return _LANDING_REL_TOL * max(1.0, abs(T))


def _finite(u: np.ndarray) -> bool:
    return bool(np.all(np.isfinite(u.view(np.float64))))


def _relax(functionals, targets, un: GridState, inc: StepIncrements, dt: float, tol: float):
    """Single relaxation for one invariant, multiple for two.

    ``relax_single``/``relax_multi`` are resolved in this module on every
    call, so a wrapper installed here (as ``bench/spans.py`` does) sees them.
    A sum that overflows on a huge but finite trial state (``math.fsum``
    raises OverflowError, or ValueError on inf terms) is reported as a
    failed solve, so the step is halved; a ConfigurationError propagates.
    """
    try:
        if len(functionals) == 1:
            return relax_single(un, inc, dt, functionals[0], targets[0], conservation_tol=tol)
        return relax_multi(un, inc, dt, functionals, targets, conservation_tol=tol)
    except ConfigurationError:
        raise
    except (OverflowError, ValueError):
        return RelaxationOutcome(0.0, 0.0, 0.0, float("inf"), 0, False)


def _integrate(
    s0: GridState,
    step,
    dt: float,
    T: float,
    controller: ControllerConfig | None = None,
    invariants=None,
    relax: int = 0,
    conservation_tol: float = CONSERVATION_TOL,
    observer=None,
) -> tuple[GridState, RunRecord]:
    """The step loop behind every integrator: march ``step(u, h) ->
    StepIncrements`` from s0 to T, shrinking the last step to land on T.

    Without a controller every step has nominal size dt (integrate_imex);
    with one, dt is the first size and the error estimate steers the rest
    (adaptive_integrate).  The loop tracks the drift of ``invariants`` from
    their values at s0, and relaxation enforces the first ``relax`` of them
    against those same values; either way a relaxation failure retries the
    step at half the size.
    """
    if not dt > 0:
        raise ConfigurationError(f"dt must be positive, got {dt}")
    if T < s0.t:
        raise ConfigurationError(f"final time {T} does not follow start time {s0.t}")
    invariants = list(invariants or ())
    if relax not in (0, 1, 2) or relax > len(invariants):
        raise ConfigurationError(
            f"relax must be 0, 1 or 2 and at most the {len(invariants)} tracked "
            f"invariants, got {relax!r}"
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
    attempts = halvings = 0
    tiny = landing_tolerance(T)
    started = time.perf_counter()
    while state.t < T - tiny:
        if controller is not None and not h_next >= dt_min:
            raise NumericalFailureError(
                f"step size {h_next:.3e} fell below the floor {dt_min:.3e} at t={state.t:.6g}"
            )
        h = min(h_next, T - state.t)
        inc = step(state.u, h)
        attempts += 1
        eps = None
        if controller is None:
            if not _finite(inc.u_next):
                raise NumericalFailureError(f"non-finite state after step {attempts}")
        else:
            eps = np.inf
            if _finite(inc.u_next) and _finite(inc.d2):
                eps = error_estimate(inc.u_next, state.u + h * inc.d2, controller)
            if not eps < 1.0:
                # Non-finite trial values, or an estimate that overflowed to
                # NaN or inf, are logged as inf and retried at half the size.
                eps = eps if np.isfinite(eps) else np.inf
                record.log(StepRow(state.t, h, eps, 0.0, None, EPS_REJECTED))
                h_next = h / 2.0 if eps == np.inf else propose_step(eps, h, controller)
                continue
        gamma_total, residual = 0.0, None
        if not relax:
            state = state.with_u(inc.u_next, t=state.t + h)
        else:
            out = _relax(relaxed, targets, state, inc, h, conservation_tol)
            if not out.converged:
                record.log(
                    StepRow(state.t, h, eps, out.gamma_total, out.residual, CONSERVATION_REJECTED)
                )
                halvings += 1
                if controller is None and halvings > _MAX_HALVINGS:
                    raise NumericalFailureError(
                        f"relaxation failed to converge after {_MAX_HALVINGS} halvings "
                        f"at t={state.t:.6g}"
                    )
                h_next = h / 2.0
                continue
            state = relaxed_update(state, inc, h, out)
            gamma_total, residual = out.gamma_total, out.residual
        if tracker is not None:
            try:
                drift = tracker.update(state)
            except (OverflowError, ValueError) as exc:
                raise NumericalFailureError(
                    f"invariant sums overflowed after step {attempts} at t={state.t:.6g}"
                ) from exc
            if residual is None:
                residual = drift
        if observer is not None:
            observer(state)
        record.log(StepRow(state.t, h, eps, gamma_total, residual, ACCEPTED))
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
    conservation_tol: float = CONSERVATION_TOL,
    observer=None,
) -> tuple[GridState, RunRecord]:
    """Hybrid adaptive integration to time T.

    Per attempt: take an embedded step, compute the weighted error estimate;
    estimates >= 1 reject the step and retry with the proposed size.
    Otherwise, with ``relax`` = 1 or 2, relaxation restores the first
    ``relax`` of the tracked ``invariants`` to their values at s0; a residual
    at or above ``conservation_tol`` rejects the step and retries at half
    the size.  Accepted steps advance time by (1 + gamma_total) * dt and
    continue with the proposed size.  The final step's nominal size is
    shrunk to land on T; the exact landing differs by gamma_total * dt,
    which the record reports.

    A trial step producing non-finite values, or an error estimate that
    overflows, counts as an error rejection at half the step; the run aborts
    when dt falls below cfg.dt_min.
    """
    return _integrate(
        s0, stepper, dt_initial, T, cfg, invariants, relax, conservation_tol, observer
    )


def integrate_imex(
    s0: GridState,
    stepper,
    dt: float,
    T: float,
    invariants=None,
    relax: int = 0,
    conservation_tol: float = CONSERVATION_TOL,
    observer=None,
) -> tuple[GridState, RunRecord]:
    """Fixed-step ImEx march that tracks ``invariants`` and, with ``relax``
    = 1 (the mass) or 2 (mass and energy), relaxes the first ``relax`` of
    them each step.

    When a relaxation solve fails to converge (residual at or above
    ``conservation_tol``) the step is retried at half the size, and the
    following step resumes the nominal dt; after 60 halvings of one step
    the run aborts.  The last step's nominal size is shrunk to land on T.
    """
    return _integrate(s0, stepper, dt, T, None, invariants, relax, conservation_tol, observer)
