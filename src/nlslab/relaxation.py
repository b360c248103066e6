"""Relaxation post-processing and the hybrid adaptive step controller.

After an embedded ImEx step produces directions d1 and d2, relaxation picks
coefficients (gamma1, gamma2) so the updated solution

    u_next + dt * (gamma1 * d1 + gamma2 * d2)

restores the chosen invariants exactly, and time advances by
(1 + gamma1 + gamma2) * dt.  Single relaxation (gamma2 = 0) enforces one
invariant; for the quadratic mass functional the defining equation is a
scalar quadratic solved in closed form.  Multiple relaxation enforces mass
and energy together.  Along the family they are polynomials in (gamma1,
gamma2), so Newton runs on their exact coefficients before a short polish
against the measured functionals (Ketcheson, SINUM 57(6) 2019; Biswas and
Ketcheson on multiple relaxation).

Numerical care: every run enforces the invariants against their *initial*
values (equivalent to matching the previous step in exact arithmetic, by
induction), and root finding keeps the iterate with the smallest measured
residual.  This stops per-step rounding from random-walking across a long
run, which matters because conserved drifts are asserted near 1e-15.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .core import (
    ACCEPTED,
    CONSERVATION_REJECTED,
    DEFAULT_TOLERANCES,
    EPS_REJECTED,
    ConfigurationError,
    GridState,
    InvariantFunctional,
    InvariantTracker,
    NumericalFailureError,
    RunRecord,
    StepRow,
    as_real_pairs,
    exact_dot,
    exact_sum,
)
from .imexrk import ImExTableau, StepIncrements, imex_step

_LANDING_REL_TOL = 1e-12
_MAX_NEWTON_ITERATIONS = 50
_MAX_DAMPING_HALVINGS = 10
_POLISH_STEPS = 3
_POWERS = np.arange(5.0)


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


@dataclass(frozen=True)
class ControllerConfig:
    """Tolerances and guards for the hybrid step controller."""

    tau_abs: float = 1e-4
    tau_rel: float = 1e-4
    safety: float = 0.9
    embedded_order: int = 3
    conservation_tol: float = DEFAULT_TOLERANCES.conservation
    max_growth: float = 5.0
    dt_min: float | None = None

    def __post_init__(self):
        if not 0.0 < self.safety < 1.0:
            raise ConfigurationError(f"safety factor must be in (0,1), got {self.safety}")
        if self.tau_abs <= 0 or self.tau_rel < 0:
            raise ConfigurationError("tolerances must be positive")


def error_estimate(u_next, u_hat, cfg: ControllerConfig) -> float:
    """Weighted RMS difference between the main and embedded solutions.

    Complex entries contribute their modulus; the weight for entry i is
    tau_abs + tau_rel * max(|u_i|, |u_hat_i|).
    """
    a = u_next.u if isinstance(u_next, GridState) else np.asarray(u_next)
    b = u_hat.u if isinstance(u_hat, GridState) else np.asarray(u_hat)
    if a.shape != b.shape:
        raise ConfigurationError("states being compared have different lengths")
    diff = np.abs(a - b)
    scale = cfg.tau_abs + cfg.tau_rel * np.maximum(np.abs(a), np.abs(b))
    return float(np.sqrt(np.mean((diff / scale) ** 2)))


def propose_step(eps: float, dt: float, cfg: ControllerConfig) -> float:
    """New step size from the error estimate; growth is capped.

    The raw rule is safety * (1/eps)^(1/(q+1)) * dt with q the embedded
    order.  eps = 0 (or eps below the cap threshold) maps to max_growth*dt,
    since the raw rule is unbounded there.
    """
    if eps < 0:
        raise ConfigurationError(f"error estimate must be nonnegative, got {eps}")
    if eps == 0.0:
        return cfg.max_growth * dt
    factor = cfg.safety * (1.0 / eps) ** (1.0 / (cfg.embedded_order + 1))
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


def relax_single(
    un: GridState,
    inc: StepIncrements,
    dt: float,
    inv: InvariantFunctional,
    target: float | None = None,
    conservation_tol: float = DEFAULT_TOLERANCES.conservation,
) -> RelaxationOutcome:
    """Find gamma1 restoring a single invariant along direction d1.

    For the quadratic mass functional the equation is solved in closed form
    (smallest-magnitude real root, ties toward positive) and then polished
    against the measured functional; other invariants use a safeguarded
    scalar Newton iteration started at zero.
    """
    if target is None:
        target = inv.evaluate(un)
    dx = un.grid.dx

    def measured(gamma: float) -> float:
        return inv.evaluate(un.with_u(inc.u_next + (dt * gamma) * inc.d1)) - target

    if inv.kind == "mass":
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
            return RelaxationOutcome(0.0, 0.0, 0.0, abs(c_coef), 0, False)
        best_gamma, best_r = gamma, abs(measured(gamma))
        iterations = 0
        # Newton polish on the measured functional: the closed form solves
        # the analytic quadratic, whose coefficients carry summation noise.
        for _ in range(4):
            slope = 2.0 * dx * dt * (s_ud + best_gamma * dt * s_dd)
            if slope == 0.0:
                break
            candidate = best_gamma - measured(best_gamma) / slope
            r = abs(measured(candidate))
            iterations += 1
            if r < best_r:
                best_gamma, best_r = candidate, r
            else:
                break
        return RelaxationOutcome(
            best_gamma, 0.0, best_gamma, best_r, iterations, best_r < conservation_tol
        )

    d1_pairs = as_real_pairs(inc.d1)
    gamma = 0.0
    best_gamma, best_r = gamma, abs(measured(gamma))
    for iteration in range(1, _MAX_NEWTON_ITERATIONS + 1):
        state = un.with_u(inc.u_next + (dt * gamma) * inc.d1)
        slope = dt * exact_dot(inv.gradient(state), d1_pairs)
        if slope == 0.0:
            break
        step = -measured(gamma) / slope
        lam = 1.0
        improved = False
        for _ in range(_MAX_DAMPING_HALVINGS):
            candidate = gamma + lam * step
            r = abs(measured(candidate))
            if r < best_r:
                gamma, best_gamma, best_r = candidate, candidate, r
                improved = True
                break
            lam *= 0.5
        if not improved:
            break
    else:
        iteration = _MAX_NEWTON_ITERATIONS
    return RelaxationOutcome(
        best_gamma, 0.0, best_gamma, best_r, iteration, best_r < conservation_tol
    )


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
    conservation_tol: float = DEFAULT_TOLERANCES.conservation,
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
        state = un.with_u(inc.u_next + dt * (gamma[0] * inc.d1 + gamma[1] * inc.d2))
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
    u = inc.u_next + dt * (out.gamma1 * inc.d1 + out.gamma2 * inc.d2)
    return un.with_u(u, t=un.t + (1.0 + out.gamma_total) * dt)


class SingleRelaxer:
    """Enforces one invariant against its value at the start of the run."""

    def __init__(
        self,
        functional: InvariantFunctional,
        s0: GridState,
        tol: float = DEFAULT_TOLERANCES.conservation,
    ):
        self.functional = functional
        self.target = functional.evaluate(s0)
        self.tol = tol
        self.functionals = [functional]

    def solve(self, un: GridState, inc: StepIncrements, dt: float) -> RelaxationOutcome:
        return relax_single(
            un, inc, dt, self.functional, target=self.target, conservation_tol=self.tol
        )


class MultiRelaxer:
    """Enforces (mass, energy) against their values at the start of the run."""

    def __init__(
        self,
        functionals: tuple[InvariantFunctional, InvariantFunctional],
        s0: GridState,
        tol: float = DEFAULT_TOLERANCES.conservation,
    ):
        self.pair = functionals
        self.targets = (functionals[0].evaluate(s0), functionals[1].evaluate(s0))
        self.tol = tol
        self.functionals = list(functionals)

    def solve(self, un: GridState, inc: StepIncrements, dt: float) -> RelaxationOutcome:
        return relax_multi(
            un, inc, dt, self.pair, targets=self.targets, conservation_tol=self.tol
        )


def make_imex_stepper(tab: ImExTableau, fim, fex):
    """Bind a tableau and semi-discretization into a (u, dt) -> increments stepper."""

    def stepper(u: np.ndarray, dt: float) -> StepIncrements:
        return imex_step(u, tab, dt, fim, fex)

    return stepper


def _finite(u: np.ndarray) -> bool:
    return bool(np.all(np.isfinite(u.view(np.float64))))


def adaptive_integrate(
    s0: GridState,
    stepper,
    relaxer,
    cfg: ControllerConfig,
    T: float,
    dt_initial: float,
    invariants=None,
    observer=None,
) -> tuple[GridState, RunRecord]:
    """Hybrid adaptive integration to time T.

    Per attempt: take an embedded step, compute the weighted error estimate;
    estimates >= 1 reject the step and retry with the proposed size.
    Otherwise relaxation runs; a residual at or above the conservation
    tolerance rejects the step and retries at half the size.  Accepted steps
    advance time by (1 + gamma_total) * dt and continue with the proposed
    size.  The final step's nominal size is shrunk to land on T; the exact
    landing differs by gamma_total * dt, which the record reports.

    A trial step producing non-finite values counts as an error rejection at
    half the step; the run aborts when dt falls below cfg.dt_min.
    """
    if T <= s0.t:
        raise ConfigurationError(f"final time {T} must exceed start time {s0.t}")
    if dt_initial <= 0:
        raise ConfigurationError(f"dt_initial must be positive, got {dt_initial}")
    dt_min = cfg.dt_min if cfg.dt_min is not None else 1e-12 * (T - s0.t)
    record = RunRecord()
    tracker = InvariantTracker(invariants, s0) if invariants else None

    state = s0
    dt = dt_initial
    tiny = _LANDING_REL_TOL * max(1.0, abs(T))
    started = time.perf_counter()
    while state.t < T - tiny:
        if dt < dt_min:
            raise NumericalFailureError(
                f"step size {dt:.3e} fell below the floor {dt_min:.3e} at t={state.t:.6g}"
            )
        h = min(dt, T - state.t)
        inc = stepper(state.u, h)
        if not _finite(inc.u_next) or not _finite(inc.d2):
            record.log(StepRow(state.t, h, float("inf"), 0.0, None, EPS_REJECTED))
            dt = h / 2.0
            continue
        eps = error_estimate(inc.u_next, state.u + h * inc.d2, cfg)
        if not eps < 1.0:
            record.log(StepRow(state.t, h, eps, 0.0, None, EPS_REJECTED))
            dt = propose_step(eps, h, cfg)
            continue
        if relaxer is not None:
            out = relaxer.solve(state, inc, h)
            if not out.converged:
                record.log(
                    StepRow(state.t, h, eps, out.gamma_total, out.residual, CONSERVATION_REJECTED)
                )
                dt = h / 2.0
                continue
            state = relaxed_update(state, inc, h, out)
            gamma_total, residual = out.gamma_total, out.residual
        else:
            state = state.with_u(inc.u_next, t=state.t + h)
            gamma_total, residual = 0.0, None
        if tracker is not None:
            drift = tracker.update(state)
            if residual is None:
                residual = drift
        if observer is not None:
            observer(state)
        record.log(StepRow(state.t, h, eps, gamma_total, residual, ACCEPTED))
        dt = propose_step(eps, h, cfg)
    record.runtime_seconds = time.perf_counter() - started
    record.final_t = state.t
    if tracker is not None:
        drifts = tracker.drift_by_kind()
        record.max_mass_drift = drifts.get("mass")
        record.max_energy_drift = drifts.get("energy")
    return state, record


def integrate_imex(
    s0: GridState,
    stepper,
    dt: float,
    T: float,
    relaxer=None,
    cfg: ControllerConfig | None = None,
    invariants=None,
    max_halvings: int = 60,
    observer=None,
) -> tuple[GridState, RunRecord]:
    """Fixed-step ImEx march, optionally with relaxation each step.

    When a relaxation solve fails to converge the step is retried at half
    the size (and the following step resumes the nominal dt).  The last
    step's nominal size is shrunk to land on T.  The error estimate is
    logged when a controller config is supplied, but never steers the step.
    """
    if dt <= 0:
        raise ConfigurationError(f"dt must be positive, got {dt}")
    if T < s0.t:
        raise ConfigurationError(f"final time {T} precedes current time {s0.t}")
    record = RunRecord()
    tracker = InvariantTracker(invariants, s0) if invariants else None
    state = s0
    tiny = _LANDING_REL_TOL * max(1.0, abs(T))
    started = time.perf_counter()
    step_index = 0
    while state.t < T - tiny:
        h = min(dt, T - state.t)
        halvings = 0
        while True:
            inc = stepper(state.u, h)
            step_index += 1
            if not _finite(inc.u_next):
                raise NumericalFailureError(f"non-finite state after step {step_index}")
            eps = error_estimate(inc.u_next, state.u + h * inc.d2, cfg) if cfg else None
            if relaxer is None:
                state = state.with_u(inc.u_next, t=state.t + h)
                gamma_total, residual = 0.0, None
                break
            out = relaxer.solve(state, inc, h)
            if out.converged:
                state = relaxed_update(state, inc, h, out)
                gamma_total, residual = out.gamma_total, out.residual
                break
            record.log(
                StepRow(state.t, h, eps, out.gamma_total, out.residual, CONSERVATION_REJECTED)
            )
            halvings += 1
            if halvings > max_halvings:
                raise NumericalFailureError(
                    f"relaxation failed to converge after {max_halvings} halvings "
                    f"at t={state.t:.6g}"
                )
            h /= 2.0
        if tracker is not None:
            drift = tracker.update(state)
            if residual is None:
                residual = drift
        if observer is not None:
            observer(state)
        record.log(StepRow(state.t, h, eps, gamma_total, residual, ACCEPTED))
    record.runtime_seconds = time.perf_counter() - started
    record.final_t = state.t
    if tracker is not None:
        drifts = tracker.drift_by_kind()
        record.max_mass_drift = drifts.get("mass")
        record.max_energy_drift = drifts.get("energy")
    return state, record
