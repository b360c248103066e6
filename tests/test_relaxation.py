import dataclasses
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import fsolve

from helpers import per_term_step
from nlslab import relaxation
from nlslab.core import (
    ACCEPTED,
    CONSERVATION_REJECTED,
    EPS_REJECTED,
    NATURAL,
    ConfigurationError,
    GridState,
    InvariantFunctional,
    NumericalFailureError,
    energy_functional,
    make_grid,
    mass_functional,
)
from nlslab.fem import FemStiffPart, assemble, conserved_functionals
from nlslab.harness import ExperimentConfig, parse_config, parse_method, run_method, run_scenario
from nlslab.imexrk import StepIncrements, tableau
from nlslab.oracles import soliton_initial, soliton_problem
from nlslab.relaxation import (
    SAFETY,
    ControllerConfig,
    RelaxationOutcome,
    _relaxed_vector,
    _smallest_magnitude_root,
    adaptive_integrate,
    error_estimate,
    integrate_imex,
    make_imex_stepper,
    propose_step,
    relax_multi,
    relax_single,
)
from nlslab.spectral import cubic_term, fem_operator, spectral_operator


def _increments(u_next, d1, d2=None, d_im=None):
    zero = np.zeros_like(d1)
    return StepIncrements(
        u_next=np.asarray(u_next, dtype=complex),
        d1=np.asarray(d1, dtype=complex),
        d2=np.asarray(d2 if d2 is not None else zero, dtype=complex),
        d_im=np.asarray(d_im if d_im is not None else zero, dtype=complex),
    )


def test_error_estimate_identical_states_and_formula():
    cfg = ControllerConfig()
    u = np.array([1.0 + 1j, 2.0, -0.5j])
    assert error_estimate(u, u.copy(), cfg) == 0.0
    u_next = np.array([1.0 + 2e-4])
    u_hat = np.array([1.0])
    eps = error_estimate(u_next, u_hat, cfg)
    expected = 2e-4 / (1e-4 + 1e-4 * (1 + 2e-4))
    assert eps == pytest.approx(expected, rel=1e-12)
    assert eps == pytest.approx(0.9999, abs=1e-3)


def test_error_estimate_relative_homogeneity():
    # The one tolerance is absolute and relative alike; on states of size
    # 1e8 the absolute part is 1e-8 of each weight, so scaling both states
    # moves the estimate by no more than that.
    cfg = ControllerConfig(tol=1e-4)
    rng = np.random.default_rng(0)
    u = 1e8 * (rng.standard_normal(64) + 1j * rng.standard_normal(64))
    v = u + 1e2 * (rng.standard_normal(64) + 1j * rng.standard_normal(64))
    assert error_estimate(10 * u, 10 * v, cfg) == pytest.approx(
        error_estimate(u, v, cfg), rel=1e-7
    )


def _plain_error_estimate(u_next, u_hat, cfg):
    diff = np.abs(u_next - u_hat)
    scale = cfg.tol + cfg.tol * np.maximum(np.abs(u_next), np.abs(u_hat))
    return float(np.sqrt(np.mean((diff / scale) ** 2)))


@pytest.mark.parametrize("kind", ["normal", "zeros", "all_zero", "equal", "tiny", "huge"])
def test_error_estimate_is_bitwise_the_plain_formula(kind):
    # The in-place estimate is logged and steers the step size, so it must
    # round exactly as the temporaries-and-np.mean formula does.
    rng = np.random.default_rng(len(kind))
    for m in (1, 7, 448, 2048, 4480):
        for tol in (1e-10, 1e-4, 0.3):
            u = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            v = u + 10.0 ** rng.uniform(-14, 0) * (rng.standard_normal(m) + 1j * rng.standard_normal(m))
            if kind == "zeros":
                u[rng.random(m) < 0.3] = 0.0
                v[rng.random(m) < 0.3] = 0.0
            elif kind == "all_zero":
                u, v = np.zeros(m, complex), np.zeros(m, complex)
            elif kind == "equal":
                v = u.copy()
            elif kind == "tiny":
                u, v = 1e-310 * u, 1e-312 * v
            elif kind == "huge":
                u, v = 1e307 * u, 3e307 * v  # finite; their differences may overflow
            cfg = ControllerConfig(tol=tol)
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                ours, plain = error_estimate(u, v, cfg), _plain_error_estimate(u, v, cfg)
            assert ours.hex() == plain.hex() or (np.isnan(ours) and np.isnan(plain))


def test_fixed_step_non_finite_state_names_its_step():
    # The unrelaxed state's own check is the one finiteness scan of u_next;
    # the fixed-step loop still reports the step, and an adaptive one
    # rejects the attempt and halves it.
    s0 = _toy_state(np.ones(4))
    calls = []

    def stepper(u, h):
        calls.append(h)
        bad = np.full(4, np.nan) if len(calls) == 2 else u
        return _increments(bad, np.zeros(4))

    with pytest.raises(NumericalFailureError, match=r"^non-finite state after step 2$"):
        integrate_imex(s0, stepper, 0.25, 1.0)
    calls.clear()
    out, record = adaptive_integrate(s0, stepper, ControllerConfig(), 1.0, dt_initial=0.5)
    assert calls[:3] == [0.5, 0.5, 0.25] and out.t == 1.0
    assert [row.disposition for row in record.steps[:2]] == [ACCEPTED, EPS_REJECTED]


@pytest.mark.parametrize("T", [np.nan, np.inf])
def test_a_final_time_that_is_not_finite_is_refused(T):
    # a NaN final time would end the loop before its first step and return s0
    s0 = _toy_state(np.ones(4))
    with pytest.raises(ConfigurationError, match="final time must be finite"):
        integrate_imex(s0, lambda u, h: _increments(u, np.zeros(4)), 0.25, T)


def test_a_fixed_step_below_the_landing_tolerance_is_refused():
    # such a step would take about T/dt steps: it is refused before the first
    s0 = _toy_state(np.ones(4))

    def never_called(u, h):
        raise AssertionError("stepped")

    with pytest.raises(ConfigurationError, match=re.escape("dt=1e-300") + ".*1e-12 of T=0.5"):
        integrate_imex(s0, never_called, 1e-300, 0.5)
    # the tolerance itself is a step the loop takes
    _, record = integrate_imex(s0, lambda u, h: _increments(u, np.zeros(4)), 1e-12, 3e-12)
    assert 2 <= len(record.steps) <= 3


def test_propose_step_rules():
    cfg = ControllerConfig(embedded_order=3)
    assert propose_step(1.0, 0.2, cfg) == pytest.approx(0.9 * 0.2, rel=1e-15)
    assert propose_step(1 / 16, 0.2, cfg) == pytest.approx(1.8 * 0.2, rel=1e-14)
    assert propose_step(0.0, 0.2, cfg) == pytest.approx(5 * 0.2)
    assert propose_step(1e-30, 0.2, cfg) == pytest.approx(5 * 0.2)
    for eps in (-1e-3, np.nan):
        with pytest.raises(ConfigurationError, match="nonnegative"):
            propose_step(eps, 0.2, cfg)


_EPS = st.one_of(st.just(0.0), st.floats(0.0, 1e300))


@given(
    eps=_EPS,
    other=_EPS,
    dt=st.floats(1e-12, 10.0),
    order=st.integers(1, 6),
    growth=st.floats(1.0, 10.0),
)
def test_propose_step_monotone_in_eps_and_capped(eps, other, dt, order, growth):
    cfg = ControllerConfig(embedded_order=order)
    small, large = sorted((eps, other))
    with mock.patch.object(relaxation, "MAX_GROWTH", growth):
        assert propose_step(large, dt, cfg) <= propose_step(small, dt, cfg)
        assert propose_step(small, dt, cfg) <= growth * dt
        assert propose_step(1.0, dt, cfg) == SAFETY * dt  # at eps = 1, safety times dt


def _toy_state(values, length=4.0):
    values = np.asarray(values, dtype=complex)
    grid = make_grid(0, length, len(values))
    return GridState(grid, values)


def test_relax_single_already_conserved_picks_zero():
    un = _toy_state([1.0, 1j, -2.0, 0.5])
    inc = _increments(un.u, [0.3, -1j, 0.0, 2.0])
    mass = mass_functional()
    out = relax_single(un, inc, 0.1, mass, mass.evaluate(un))
    assert out.converged
    assert (out.gamma1, out.gamma2) == (0.0, 0.0)


def test_relax_single_closed_form_toy():
    # eta(2 + g) = 1 has roots {-1, -3}; the smaller-magnitude root wins
    un = _toy_state([1.0, 0, 0, 0])  # dx = 1 on [0, 4]
    inc = _increments([2.0, 0, 0, 0], [1.0, 0, 0, 0])
    out = relax_single(un, inc, 1.0, mass_functional(), 1.0)
    assert out.converged
    assert out.gamma1 == pytest.approx(-1.0, abs=1e-14)


def test_relax_single_no_real_root_reports_failure():
    # mass can only grow along d1 = u_next when |u_next| already exceeds target
    un = _toy_state([1.0, 0, 0, 0])
    inc = _increments([2.0, 0, 0, 0], [0.0, 1.0, 0, 0])
    out = relax_single(un, inc, 1.0, mass_functional(), 1.0)
    assert not out.converged


@pytest.mark.parametrize("tol,converged", [(1e-12, True), (1e-16, False)])
def test_relax_single_without_a_root_measures_gamma_zero(monkeypatch, tol, converged):
    # d1 is orthogonal to u_next, so the mass only grows along it; a u_next
    # one ulp above the target mass leaves the quadratic without a real root.
    # The solve reads the tolerance from the module when it is called.
    import nlslab.relaxation as relaxation

    monkeypatch.setattr(relaxation, "CONSERVATION_TOL", tol)
    un = _toy_state([1.0, 0, 0, 0])  # dx = 1, mass 1
    inc = _increments([1.0 + 2.0**-52, 0, 0, 0], [0.0, 1.0, 0, 0])
    mass = mass_functional()
    out = relax_single(un, inc, 1.0, mass, 1.0)
    assert (out.gamma1, out.gamma2, out.iterations) == (0.0, 0.0, 0)
    assert out.residual == mass.evaluate(un.with_u(inc.u_next)) - 1.0 == 2.0**-51
    assert out.drifts == (out.residual,)
    assert out.converged is converged


@pytest.mark.parametrize(
    "coeffs, root",
    [
        ((0.0, 2.0, -1.0), 0.5),  # linear
        ((0.0, 0.0, 0.0), 0.0),  # every x is a root
        ((0.0, 0.0, 1.0), None),  # no root
        ((2.0, 0.0, 0.0), 0.0),  # double root at 0: the symmetric pair branch
        ((1.0, 0.0, -4.0), 2.0),  # +-2 tie: positive
        ((1.0, 0.0, 1.0), None),  # +-i: no real root
        ((1e-200, 0.0, -1e-200), 1.0),  # +-1, though b*b - 4ac underflows to 0
    ],
    ids=["linear", "zero", "constant", "double-zero", "tie", "imaginary-pair", "underflow-pair"],
)
def test_smallest_magnitude_root_branches(coeffs, root):
    found = _smallest_magnitude_root(*coeffs)
    assert found == root
    if root == 0.0:
        assert np.copysign(1.0, found) == 1.0


def _natural_fem_step(m, x_left, x_right):
    """Natural-boundary grid, its (mass, energy) pair and an ImEx4 stepper
    built term by term on the assembled stiff part (the multiplier stepper
    is periodic only)."""
    grid = make_grid(x_left, x_right, m, bc=NATURAL)
    op = assemble(m, grid.dx, NATURAL, beta=8.0)
    stiff, cubic, tab = FemStiffPart(op), cubic_term(op.beta), tableau("ImEx4")

    def step(u, h):
        return StepIncrements(*per_term_step(u, tab, h, stiff.apply, stiff.solve, cubic))

    return grid, conserved_functionals(op), step


def test_relax_single_weighs_the_natural_mass_by_its_end_weights():
    # The natural mass halves its end nodes.  Summing |u|^2 unweighted, the
    # closed form solved another quadratic, which has no real root here:
    # gamma = 0 at a residual of 3e-5.
    grid, (mass, _), step = _natural_fem_step(16, -1.0, 1.0)
    x = grid.nodes
    un = GridState(grid, np.exp(1j * x) * (1 + x / 2))
    out = relax_single(un, step(un.u, 0.02), 0.02, mass, mass.evaluate(un))
    assert out.converged and out.gamma1 != 0.0 and out.iterations == 0
    assert out.residual <= 1e-15
    assert np.array_equal(mass.weight, [0.5] + [1.0] * 14 + [0.5])


def test_single_relaxation_conserves_the_natural_boundary_mass(monkeypatch):
    # Where the state reaches the ends, the unweighted closed form left a
    # mass drift of 7.0e-13; the weighted closed form meets the mass at
    # every step without correction.
    import nlslab.relaxation as relaxation

    grid, (mass, _), step = _natural_fem_step(32, -4.0, 4.0)
    s0 = GridState(grid, 1 / np.cosh(grid.nodes) * np.exp(0.3j * grid.nodes))
    outcomes = []

    def solve(*args, **kwargs):
        outcomes.append(relax_single(*args, **kwargs))
        return outcomes[-1]

    monkeypatch.setattr(relaxation, "relax_single", solve)
    _, record = integrate_imex(s0, step, 0.02, 0.1, [mass], relax=1)
    assert (record.accepted, record.conservation_rejections) == (5, 0)
    assert record.max_mass_drift <= 1e-15
    assert len(outcomes) == 5
    assert all(out.residual <= 1e-15 for out in outcomes)


def test_relax_single_refuses_invariants_other_than_mass():
    # single relaxation is the closed-form mass quadratic; an invariant of
    # another kind has no solver behind it
    un = _toy_state([1.0, 1j, -2.0, 0.5])
    inc = _increments(un.u, [0.3, -1j, 0.0, 2.0])
    mass = mass_functional()
    other = InvariantFunctional("energy", mass.evaluate, mass.gradient, mass.restrict)
    with pytest.raises(ConfigurationError, match="enforces the mass"):
        relax_single(un, inc, 0.1, other, other.evaluate(un))
    with pytest.raises(ConfigurationError, match="enforces the mass"):
        integrate_imex(un, _unchanged, 0.1, 0.2, invariants=[other], relax=1)


def _unchanged(u, h):
    """A stepper whose u_next is u itself, with directions d1 = d2 = d_im = 1."""
    return _increments(u, *[np.ones_like(u)] * 3)


@pytest.mark.parametrize(
    "kinds, relax",
    [
        pytest.param([], 1, id="0"),
        pytest.param(["mass", "energy", "mass"], 3, id="3"),
        pytest.param(["mass"], 2, id="2-of-1"),
        pytest.param(["mass", "energy"], -1, id="minus-1"),
        pytest.param(["mass", "energy"], 1.5, id="1.5"),
        pytest.param(["mass", "energy"], "1", id="str"),
        pytest.param(["energy", "mass"], 1, id="energy-first"),
    ],
)
def test_relaxer_refuses_other_than_one_or_two_invariants(kinds, relax):
    # relax counts the tracked invariants a run enforces: 0, 1 or 2, and
    # no more than are tracked; relax = 1 enforces the mass.  A refused run
    # takes no step.
    un = _toy_state([1.0, 1j, -2.0, 0.5])
    made = {"mass": mass_functional, "energy": lambda: energy_functional(2.0)}
    invariants = [made[kind]() for kind in kinds]
    steps = []

    def stepper(u, h):
        steps.append(h)
        return _unchanged(u, h)

    with pytest.raises(ConfigurationError, match="relax must be 0, 1 or 2"):
        integrate_imex(un, stepper, 0.1, 0.2, invariants, relax)
    with pytest.raises(ConfigurationError, match="relax must be 0, 1 or 2"):
        adaptive_integrate(un, stepper, ControllerConfig(), 0.2, 0.1, invariants, relax)
    assert steps == []


@pytest.mark.parametrize("count, solve", [(1, "relax_single"), (2, "relax_multi")])
def test_relaxer_calls_its_solve_through_the_module(monkeypatch, count, solve):
    # relax = 1 is single relaxation and 2 multiple relaxation, against the
    # values the run measured at s0; the solve is resolved when called, so
    # a wrapper installed on the module afterwards sees every call.  The
    # drifts it reports are the ones the run records for the relaxed
    # invariants.
    import nlslab.relaxation as relaxation

    un = _toy_state([1.0, 1j, -2.0, 0.5])
    functionals = [mass_functional(), energy_functional(2.0)]
    calls = []

    def record(*args, **kwargs):
        calls.append((args, kwargs))
        return RelaxationOutcome(0.0, 0.0, 0.0, (0.5,) * count, 0, True)

    monkeypatch.setattr(relaxation, solve, record)
    _, run = integrate_imex(un, _unchanged, 0.1, 0.1, functionals, count)
    (args, kwargs), = calls
    targets = tuple(f.evaluate(un) for f in functionals[:count])
    expected = (functionals[0], targets[0]) if count == 1 else (tuple(functionals), targets)
    assert args[0] is un and args[3:] == expected and kwargs == {}
    # _unchanged keeps the state, so a measured energy drift is 0
    assert (run.max_mass_drift, run.max_energy_drift) == (0.5, 0.5 if count == 2 else 0.0)


@pytest.mark.parametrize("count", [1, 2])
def test_a_relaxed_run_evaluates_each_invariant_once_at_s0(monkeypatch, count):
    # The step loop measures the initial values once and relaxes against
    # them; a second measurement at s0 would be the same float again.  On an
    # accepted state the solve has measured the relaxed invariants, so the
    # loop evaluates only the others.
    import nlslab.relaxation as relaxation

    un = _toy_state([1.0, 1j, -2.0, 0.5])
    at_s0, outside, solving = [], [], []

    def counted(f):
        def evaluate(s):
            if s is un:
                at_s0.append(f.kind)
            elif not solving:
                outside.append(f.kind)
            return f.evaluate(s)

        return InvariantFunctional(f.kind, evaluate, f.gradient, f.restrict)

    def flagged(solve):
        def run(*args, **kwargs):
            solving.append(solve)
            try:
                return solve(*args, **kwargs)
            finally:
                solving.pop()

        return run

    for name in ("relax_single", "relax_multi"):
        monkeypatch.setattr(relaxation, name, flagged(getattr(relaxation, name)))
    functionals = [counted(mass_functional()), counted(energy_functional(2.0))]
    _, record = integrate_imex(un, _unchanged, 0.1, 0.3, functionals, count)
    assert record.accepted == 3
    assert at_s0 == ["mass", "energy"]
    assert outside == (["energy"] * 3 if count == 1 else [])


def test_relaxed_state_identity_and_full_backoff():
    # The loop's relaxed state u_next + dt*(gamma1*d1 + gamma2*d_im):
    # gamma = 0 is u_next exactly, gamma1 = -1 steps back to un.
    un = _toy_state([1.0, 2.0, 3.0, 4.0])
    d1 = np.array([0.1, -0.2, 0.3j, 0.0])
    inc = _increments(un.u + 0.5 * d1, d1, d_im=-d1)
    assert np.array_equal(_relaxed_vector(inc, 0.5, 0.0, 0.0), inc.u_next)
    assert np.max(np.abs(_relaxed_vector(inc, 0.5, -1.0, 0.0) - un.u)) <= 1e-14
    assert np.max(np.abs(_relaxed_vector(inc, 0.5, 0.0, 1.0) - un.u)) <= 1e-14


@pytest.fixture(scope="module")
def fem_setup():
    m = 64
    grid = make_grid(-16, 16, m)
    op = assemble(m, grid.dx, "periodic", beta=8.0)
    rng = np.random.default_rng(7)
    base = 1 / np.cosh(grid.nodes) * np.exp(0.3j * grid.nodes)
    un = GridState(grid, base)
    return grid, op, un


def test_relax_multi_zero_residual_accepts_initial_guess(fem_setup):
    grid, op, un = fem_setup
    rng = np.random.default_rng(2)
    d1 = rng.standard_normal(grid.m) + 1j * rng.standard_normal(grid.m)
    d_im = rng.standard_normal(grid.m) + 1j * rng.standard_normal(grid.m)
    inc = _increments(un.u, d1, d_im=d_im)
    pair = conserved_functionals(op)
    out = relax_multi(un, inc, 0.01, pair, tuple(f.evaluate(un) for f in pair))
    assert out.converged
    assert out.iterations == 0
    assert (out.gamma1, out.gamma2) == (0.0, 0.0)
    assert out.drifts == (0.0, 0.0)


def test_relax_multi_matches_independent_root_finder():
    m = 8
    grid = make_grid(0, 4, m)
    op = assemble(m, grid.dx, "periodic", beta=1.0)
    pair = conserved_functionals(op)
    rng = np.random.default_rng(3)
    u = np.exp(np.sin(2 * np.pi * grid.nodes / 4)) * np.exp(0.2j * grid.nodes**2 / 4)
    un = GridState(grid, u)
    dt = 0.05
    d1 = 0.2 * (rng.standard_normal(m) + 1j * rng.standard_normal(m))
    d_im = 0.2 * (rng.standard_normal(m) + 1j * rng.standard_normal(m))
    inc = _increments(un.u + dt * d1, d1, d_im=d_im)
    targets = (pair[0].evaluate(un), pair[1].evaluate(un))
    out = relax_multi(un, inc, dt, pair, targets)
    assert out.converged

    def residual(gamma):
        state = un.with_u(inc.u_next + dt * (gamma[0] * inc.d1 + gamma[1] * inc.d_im))
        return [pair[0].evaluate(state) - targets[0], pair[1].evaluate(state) - targets[1]]

    # independent oracle: coarse grid scan for the basin, library solver polish
    grid_pts = np.linspace(-0.5, 0.5, 41)
    best, best_norm = None, np.inf
    for g1 in grid_pts:
        for g2 in grid_pts:
            norm = np.hypot(*residual((g1, g2)))
            if norm < best_norm:
                best, best_norm = (g1, g2), norm
    oracle = fsolve(residual, best, xtol=1e-13)
    assert np.max(np.abs(np.array([out.gamma1, out.gamma2]) - oracle)) <= 1e-10


def test_relax_multi_reevaluation_reproduces_targets(fem_setup):
    grid, op, un = fem_setup
    pair = conserved_functionals(op)
    stepper = make_imex_stepper(tableau("ImEx4"), fem_operator(grid, op.a), cubic_term(op.beta), 2)
    dt = 0.02
    inc = stepper(un.u, dt)
    targets = tuple(f.evaluate(un) for f in pair)
    out = relax_multi(un, inc, dt, pair, targets)
    assert out.converged
    updated = _relaxed_vector(inc, dt, out.gamma1, out.gamma2)
    drifts = tuple(abs(f.evaluate(un.with_u(updated)) - t) for f, t in zip(pair, targets))
    assert out.drifts == drifts and max(drifts) <= 1e-12
    # The loop accepts that vector, advanced by (1 + gamma1) * dt, and logs
    # both gammas.
    accepted = []
    _, record = integrate_imex(un, stepper, dt, dt, list(pair), relax=2, observer=accepted.append)
    assert np.array_equal(accepted[0].u, updated)
    assert accepted[0].t == record.steps[0].t == un.t + (1.0 + out.gamma1) * dt
    assert (record.steps[0].gamma1, record.steps[0].gamma2) == (out.gamma1, out.gamma2)
    assert record.steps[0].residual == out.residual


def test_relax_multi_parallel_gradients_fail(fem_setup):
    grid, op, un = fem_setup
    mass = mass_functional()
    doubled = InvariantFunctional(
        "mass-doubled",
        lambda s: 2.0 * mass.evaluate(s),
        lambda s: 2.0 * mass.gradient(s),
        lambda *args: 2.0 * mass.restrict(*args),
    )
    rng = np.random.default_rng(4)
    d1 = rng.standard_normal(grid.m) + 1j * rng.standard_normal(grid.m)
    d_im = rng.standard_normal(grid.m) + 1j * rng.standard_normal(grid.m)
    inc = _increments(un.u + 0.01 * d1, d1, d_im=d_im)
    targets = (mass.evaluate(un), doubled.evaluate(un))
    out = relax_multi(un, inc, 0.01, (mass, doubled), targets)
    assert not out.converged
    # The solve never leaves gamma = (0, 0); its drifts are measured there.
    assert (out.gamma1, out.gamma2) == (0.0, 0.0)
    at_zero = un.with_u(inc.u_next)
    assert out.drifts == (abs(mass.evaluate(at_zero) - targets[0]),
                          abs(doubled.evaluate(at_zero) - targets[1]))
    assert out.residual == float(np.hypot(*out.drifts)) > 0.0


def _measured_residual(un, inc, dt, pair, targets, g1, g2):
    state = un.with_u(inc.u_next + dt * (g1 * inc.d1 + g2 * inc.d_im))
    return [pair[0].evaluate(state) - targets[0], pair[1].evaluate(state) - targets[1]]


def test_relax_multi_residual_is_measured_at_the_returned_gamma(fem_setup):
    grid, op, un = fem_setup
    pair = conserved_functionals(op)
    stepper = make_imex_stepper(tableau("ImEx4"), fem_operator(grid, op.a), cubic_term(op.beta), 2)
    dt = 0.02
    inc = stepper(un.u, dt)
    targets = (pair[0].evaluate(un), pair[1].evaluate(un))
    # An energy 0.1 off its value (about 2% of it) has no root near (0, 0):
    # Newton wanders off and the attempt fails with a nonzero best point.
    # In the (d1, d_im) plane 1e-3 off is within reach.
    goals = [targets, (targets[0], targets[1] + 0.1)]
    outcomes = [relax_multi(un, inc, dt, pair, goal) for goal in goals]
    assert [out.converged for out in outcomes] == [True, False]
    for goal, out in zip(goals, outcomes):
        assert out.gamma1 != 0.0 and out.gamma2 != 0.0
        r = _measured_residual(un, inc, dt, pair, goal, out.gamma1, out.gamma2)
        assert out.residual == float(np.hypot(*r))


def test_relax_multi_measures_at_zero_and_at_the_returned_gamma(fem_setup):
    # One root-find, one measurement: each functional is evaluated at
    # (0, 0), which gives the model its constant term, and once more at the
    # Newton point the solve returns.
    grid, op, un = fem_setup
    pair = conserved_functionals(op)
    stepper = make_imex_stepper(tableau("ImEx4"), fem_operator(grid, op.a), cubic_term(op.beta), 2)
    dt = 0.02
    inc = stepper(un.u, dt)
    targets = tuple(f.evaluate(un) for f in pair)
    seen = {f.kind: [] for f in pair}

    def counted(f):
        def evaluate(state):
            seen[f.kind].append(state.u)
            return f.evaluate(state)

        return dataclasses.replace(f, evaluate=evaluate)

    out = relax_multi(un, inc, dt, tuple(counted(f) for f in pair), targets)
    assert out.converged and out.residual > 0.0 and out.gamma1 != 0.0
    relaxed = _relaxed_vector(inc, dt, out.gamma1, out.gamma2)
    for states in seen.values():
        assert len(states) == 2
        assert np.array_equal(states[0], inc.u_next) and np.array_equal(states[1], relaxed)


def test_relax_single_residual_is_measured_at_the_accepted_state(monkeypatch):
    import nlslab.relaxation as relaxation

    grid = make_grid(-35, 35, 256)
    s0, beta = soliton_initial(2, grid)
    stepper = make_imex_stepper(tableau("ImEx4"), spectral_operator(grid, 1.0), cubic_term(beta))
    mass = mass_functional()
    target = mass.evaluate(s0)
    measured, solves, accepted = [], [], []

    def evaluate(state):
        measured.append(state)
        return mass.evaluate(state)

    counted = InvariantFunctional("mass", evaluate, mass.gradient, mass.restrict)

    def solve(state, inc, dt, inv, goal, **kwargs):
        # A mass 1 below its value is out of reach along d1: the attempt
        # fails at gamma = 0, measured there.
        missed = relax_single(state, inc, dt, mass, goal - 1.0)
        assert not missed.converged and missed.gamma1 == 0.0
        assert missed.residual == abs(mass.evaluate(state.with_u(inc.u_next)) - goal + 1.0)
        measured.clear()
        out = relax_single(state, inc, dt, inv, goal, **kwargs)
        # One measurement per solve, at the closed-form root.
        assert len(measured) == 1 and out.iterations == 0
        solves.append((out, list(measured)))
        return out

    monkeypatch.setattr(relaxation, "relax_single", solve)
    # Over 300 steps, building the measured state as u_next + (dt*gamma)*d1
    # but accepting u_next + dt*(gamma*d1) gave 5 accepted states that no
    # measurement had seen.
    _, record = integrate_imex(s0, stepper, 0.01, 3.0, [counted], 1, observer=accepted.append)
    assert len(solves) == len(accepted) == record.accepted >= 300
    for (out, seen), state, row in zip(solves, accepted, record.steps):
        assert out.converged and out.gamma1 != 0.0
        assert any(np.array_equal(u.u, state.u) for u in seen)
        assert out.drifts == (out.residual,) == (abs(mass.evaluate(state) - target),)
        assert row.residual == out.residual


@pytest.mark.filterwarnings("ignore:The iteration is not making good progress")
@given(
    m=st.integers(8, 16),
    seed=st.integers(0, 2**32 - 1),
    size=st.floats(0.01, 1.0),
    dt=st.floats(0.005, 0.1),
)
def test_relax_multi_finds_the_root_an_independent_solver_finds(m, seed, size, dt):
    rng = np.random.default_rng(seed)
    grid = make_grid(0, 4, m)
    pair = conserved_functionals(assemble(m, grid.dx, "periodic", beta=rng.uniform(0.5, 10)))
    un = GridState(grid, rng.standard_normal(m) + 1j * rng.standard_normal(m))
    d1, d_im = (size * (rng.standard_normal(m) + 1j * rng.standard_normal(m)) for _ in range(2))
    u_next = un.u + dt * (rng.uniform(-1, 1) * d1 + rng.uniform(-1, 1) * d_im)
    inc = _increments(u_next, d1, d_im=d_im)
    targets = (pair[0].evaluate(un), pair[1].evaluate(un))

    def residual(gamma):
        return _measured_residual(un, inc, dt, pair, targets, *gamma)

    root = fsolve(residual, (0.0, 0.0), xtol=1e-13)
    if np.hypot(*residual(root)) < 1e-13 and np.max(np.abs(root)) <= 0.5:
        out = relax_multi(un, inc, dt, pair, targets)
        assert out.converged
        gamma = np.array([out.gamma1, out.gamma2])
        # Where two roots lie near (0, 0), Newton and fsolve's dogleg may
        # pick different ones (m=16, seed=195659, size=0.625, dt=0.0625);
        # relax_multi's must then be a root fsolve itself stays on.
        if np.max(np.abs(gamma - root)) > 1e-10:
            assert np.max(np.abs(gamma - fsolve(residual, gamma, xtol=1e-13))) <= 1e-10


def test_relax_multi_conserves_the_natural_boundary_pair():
    m = 96
    grid = make_grid(-12, 12, m, bc=NATURAL)
    op = assemble(m, grid.dx, NATURAL, beta=8.0)
    pair = conserved_functionals(op)
    un = GridState(grid, 1 / np.cosh(grid.nodes) * np.exp(0.3j * grid.nodes))
    # The stepper takes multipliers only; the natural variant's increments
    # come from the assembled stiff part, stepped term by term in state space.
    stiff = FemStiffPart(op)
    dt = 0.02
    step = per_term_step(un.u, tableau("ImEx4"), dt, stiff.apply, stiff.solve, cubic_term(op.beta))
    inc = StepIncrements(*step)
    targets = tuple(f.evaluate(un) for f in pair)
    out = relax_multi(un, inc, dt, pair, targets)
    assert out.converged
    updated = un.with_u(_relaxed_vector(inc, dt, out.gamma1, out.gamma2))
    drifts = tuple(abs(f.evaluate(updated) - t) for f, t in zip(pair, targets))
    assert out.drifts == drifts and max(drifts) <= 1e-12


def test_multiple_relaxation_keeps_fourth_order():
    # Relaxed in the (d1, d_im) plane, FEM-ImEx4(MR) keeps its order: 4.4
    # between dt = 0.01 and 0.005 (in the paper's (d1, d2) plane, 2.79).
    # Each run is scored against a fine unrelaxed run to its own final time,
    # which the relaxed advance moves off T.  gamma shrinks with the step
    # (median max |gamma| 1.0e-5 -> 1.3e-6), where the (d1, d2) plane's sat
    # near 1 with gamma1 ~ -gamma2.
    problem, cfg = soliton_problem(2), ExperimentConfig(scenario="invariant_table")
    grid = make_grid(-35, 35, 1120)
    s0, _ = soliton_initial(2, grid)
    errors, gammas = [], []
    for dt in (0.01, 0.005):
        state, record = run_method(parse_method("FEM-ImEx4(MR)"), problem, grid, s0, dt, 1.0, cfg)
        fine, _ = run_method(parse_method("FEM-ImEx4"), problem, grid, s0, 1 / 2000, state.t, cfg)
        errors.append(np.max(np.abs(state.u - fine.u)))
        accepted = [row for row in record.steps if row.disposition == ACCEPTED]
        gammas.append(np.median([max(abs(row.gamma1), abs(row.gamma2)) for row in accepted]))
        assert record.conservation_rejections == 0
        assert record.max_mass_drift <= 5e-15 and record.max_energy_drift <= 5e-14
    assert np.log2(errors[0] / errors[1]) >= 3.5, errors
    assert gammas[1] <= gammas[0] / 4, gammas


def test_multiple_relaxation_conservation_rejections_are_rare():
    # The 2-soliton growth run at m=4480 to T=4, tol 1e-4: 1 conservation
    # rejection in 109 attempts, where the (d1, d2) plane had 110 in 261.
    cfg = parse_config(
        "scenario=error_growth, nsolitons=2, m=4480, T=4, dt=0.01, methods=FEM-ImEx4(MR)(EC)"
    )
    record = run_scenario(cfg).records["FEM-ImEx4(MR)(EC)"]
    assert record.conservation_rejections < 0.1 * len(record.steps), (
        record.conservation_rejections, len(record.steps)
    )
    assert record.max_mass_drift <= 5e-15 and record.max_energy_drift <= 5e-14


def test_single_relaxer_keeps_order_and_conservation():
    grid = make_grid(-35, 35, 448)
    op = spectral_operator(grid, 1.0)
    s0, beta = soliton_initial(1, grid)
    stepper = make_imex_stepper(tableau("ImEx3"), op, cubic_term(beta))
    _, record = integrate_imex(s0, stepper, 0.01, 1.0, [mass_functional()], relax=1)
    assert record.max_mass_drift <= 5e-15
    assert record.accepted == 100


def test_gamma_scales_with_step_size():
    # |gamma| ~ dt^(p-1): measured decay rate under halving stays near p-1
    grid = make_grid(-35, 35, 448)
    op = spectral_operator(grid, 1.0)
    s0, beta = soliton_initial(1, grid)
    tab = tableau("ImEx3")
    stepper = make_imex_stepper(tab, op, cubic_term(beta))
    mass = mass_functional()
    gammas = []
    dts = [0.04, 0.02, 0.01, 0.005]
    for dt in dts:
        inc = stepper(s0.u, dt)
        out = relax_single(s0, inc, dt, mass, mass.evaluate(s0))
        assert out.converged
        gammas.append(abs(out.gamma1))
    slope = np.polyfit(np.log(dts), np.log(gammas), 1)[0]
    assert slope >= tab.order - 1.3


def test_adaptive_smooth_problem_grows_monotonically():
    grid = make_grid(-8, 8, 64)
    op = spectral_operator(grid, 1.0)
    u0 = np.exp(-grid.nodes**2) + 0j
    s0 = GridState(grid, u0)
    tab = tableau("ImEx4")
    stepper = make_imex_stepper(tab, op, cubic_term(0.0))  # linear problem
    cfg = ControllerConfig(tol=1e-2, embedded_order=tab.embedded_order)
    _, record = adaptive_integrate(s0, stepper, cfg, 2.0, dt_initial=1e-3)
    assert record.eps_rejections == 0
    assert record.conservation_rejections == 0
    dts = [row.dt for row in record.steps[:-1]]  # last step shrinks to land on T
    assert all(b >= a for a, b in zip(dts, dts[1:]))
    assert max(b / a for a, b in zip(dts, dts[1:])) <= 5.0 + 1e-12


def test_adaptive_rejects_on_conservation_and_halves(fem_setup):
    grid, op, un = fem_setup
    mass = mass_functional()
    doubled = InvariantFunctional(
        "mass-doubled",
        lambda s: 2.0 * mass.evaluate(s),
        lambda s: 2.0 * mass.gradient(s),
        lambda *args: 2.0 * mass.restrict(*args),
    )
    tab = tableau("ImEx4")
    stepper = make_imex_stepper(tab, fem_operator(grid, op.a), cubic_term(op.beta), 2)
    cfg = ControllerConfig(embedded_order=tab.embedded_order, dt_min=1e-4)
    with pytest.raises(NumericalFailureError):
        adaptive_integrate(un, stepper, cfg, 1.0, 0.01, [mass, doubled], relax=2)


def test_adaptive_conservation_rejection_follows_eps_acceptance(monkeypatch):
    # The solve is made to fail on a chosen call, so the rejection does not
    # hinge on where the run happens to miss a root.  Relaxation runs only
    # on steps the error estimate accepted, and its failure retries at h/2.
    import nlslab.relaxation as relaxation

    forced = 5
    outcomes = []

    def solve(*args):
        outcomes.append(relax_multi(*args))
        if len(outcomes) == forced:
            return dataclasses.replace(outcomes[-1], converged=False)
        return outcomes[-1]

    monkeypatch.setattr(relaxation, "relax_multi", solve)
    grid = make_grid(-35, 35, 840)
    op = assemble(840, grid.dx, "periodic", beta=8.0)
    s0, _ = soliton_initial(2, grid)
    pair = conserved_functionals(op)
    tab = tableau("ImEx4")
    stepper = make_imex_stepper(tab, fem_operator(grid, op.a), cubic_term(op.beta), 2)
    cfg = ControllerConfig(embedded_order=tab.embedded_order)
    _, record = adaptive_integrate(s0, stepper, cfg, 0.6, 0.05, list(pair), relax=2)
    solved = [i for i, r in enumerate(record.steps) if r.disposition != EPS_REJECTED]
    assert len(solved) == len(outcomes) > forced
    assert outcomes[forced - 1].converged
    rejected = record.steps[solved[forced - 1]]
    assert rejected.disposition == CONSERVATION_REJECTED
    for i, row in enumerate(record.steps):
        if row.disposition == CONSERVATION_REJECTED:
            assert row.eps is not None and row.eps < 1.0
            assert record.steps[i + 1].dt == row.dt / 2.0
    final_times = [r.t for r in record.steps if r.disposition == ACCEPTED]
    assert all(b > a for a, b in zip(final_times, final_times[1:]))


def test_adaptive_halves_the_step_when_the_error_estimate_is_nan():
    # u_next = u of entries 1e308 and d2 = 1e308: at h = 1 the embedded
    # solution u + h*d2 overflows to inf, so the error estimate is NaN.  That
    # attempt is rejected like a non-finite one (eps logged as inf, h
    # halved); a NaN proposal would pass the dt floor and repeat for ever.
    s0 = _toy_state(np.full(4, 1e308))
    steps = []

    def stepper(u, h):
        assert not np.isnan(h), "stepper called with a NaN step"
        steps.append(h)
        return _increments(u, np.zeros(4), np.full(4, 1e308))

    cfg = ControllerConfig(tol=1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        out, record = adaptive_integrate(s0, stepper, cfg, 1.0, dt_initial=1.0)
    assert steps == [1.0, 0.5, 0.5] and out.t == 1.0
    assert (record.steps[0].eps, record.steps[0].disposition) == (np.inf, EPS_REJECTED)
    assert (record.accepted, record.eps_rejections) == (2, 1)
    with pytest.raises(ConfigurationError, match="positive"):
        adaptive_integrate(s0, stepper, cfg, 1.0, dt_initial=np.nan)


def test_fixed_step_landing_matches_final_time():
    grid = make_grid(-35, 35, 448)
    op = spectral_operator(grid, 1.0)
    s0, beta = soliton_initial(1, grid)
    stepper = make_imex_stepper(tableau("ImEx4"), op, cubic_term(beta))
    out, record = integrate_imex(s0, stepper, 0.03, 0.1, [mass_functional()], relax=1)
    last_nominal = record.steps[-1].dt
    assert abs(out.t - 0.1) <= abs(record.steps[-1].gamma1) * last_nominal + 1e-15


def test_fixed_step_halving_cap_raises(monkeypatch, fem_setup):
    import nlslab.relaxation as relaxation

    grid, op, un = fem_setup
    mass = mass_functional()
    doubled = InvariantFunctional(
        "mass-doubled",
        lambda s: 2.0 * mass.evaluate(s),
        lambda s: 2.0 * mass.gradient(s),
        lambda *args: 2.0 * mass.restrict(*args),
    )
    stepper = make_imex_stepper(tableau("ImEx4"), fem_operator(grid, op.a), cubic_term(op.beta), 2)
    # No residual beats a zero tolerance, so every attempt is halved.  At the
    # default tolerance the run would go on: once a step is small enough to
    # conserve mass to 1e-12 unrelaxed, gamma = (0, 0) converges.
    monkeypatch.setattr(relaxation, "CONSERVATION_TOL", 0.0)
    with pytest.raises(NumericalFailureError, match="halvings"):
        integrate_imex(un, stepper, 0.01, 1.0, [mass, doubled], relax=2)


def test_fixed_step_overflow_in_relaxation_halves_the_step(fem_setup):
    # dt = 1.5 is far past stability: trial states are finite but so large
    # that the exact sums overflow.  Such steps must be halved, not raise.
    grid, op, un = fem_setup
    pair = conserved_functionals(op)
    stepper = make_imex_stepper(tableau("ImEx4"), fem_operator(grid, op.a), cubic_term(op.beta), 2)
    with np.errstate(over="ignore", invalid="ignore"):
        _, record = integrate_imex(un, stepper, 1.5, 3.0, list(pair), relax=2)
    assert record.conservation_rejections > 0
    assert record.max_mass_drift <= 1e-12
    assert record.max_energy_drift <= 1e-12


def test_fixed_step_tracker_overflow_is_a_numerical_failure(fem_setup):
    # Unrelaxed at dt = 1.5 the state grows huge but stays finite, so the
    # tracked invariants' exact sums overflow after an accepted step.
    grid, op, un = fem_setup
    stepper = make_imex_stepper(tableau("ImEx4"), fem_operator(grid, op.a), cubic_term(op.beta))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalFailureError, match=r"after step \d+ at t="):
            integrate_imex(un, stepper, 1.5, 30.0, invariants=list(conserved_functionals(op)))


@pytest.mark.parametrize(
    "error", [OverflowError("intermediate overflow in fsum"), ValueError("-inf + inf in fsum")]
)
def test_tracker_arithmetic_error_names_step_and_time(error):
    grid = make_grid(-35, 35, 448)
    s0, beta = soliton_initial(1, grid)
    stepper = make_imex_stepper(tableau("ImEx3"), spectral_operator(grid, 1.0), cubic_term(beta))
    mass = mass_functional()

    def evaluate(s):
        if s.t > 0.1:
            raise error
        return mass.evaluate(s)

    failing = InvariantFunctional("mass", evaluate, mass.gradient, mass.restrict)
    with pytest.raises(NumericalFailureError, match=r"after step 3 at t=0\.15") as info:
        integrate_imex(s0, stepper, 0.05, 0.2, invariants=[failing])
    assert info.value.__cause__ is error


def _fail_once(monkeypatch, error):
    """Make the first single-relaxation solve raise ``error``; later solves
    run as usual."""
    import nlslab.relaxation as relaxation

    errors = [error]

    def failing(*args, **kwargs):
        if errors:
            raise errors.pop()
        return relax_single(*args, **kwargs)

    monkeypatch.setattr(relaxation, "relax_single", failing)


@pytest.mark.parametrize(
    "error", [OverflowError("intermediate overflow in fsum"), ValueError("-inf + inf in fsum")]
)
def test_relaxation_arithmetic_error_is_a_conservation_rejection(monkeypatch, error):
    grid = make_grid(-35, 35, 448)
    s0, beta = soliton_initial(1, grid)
    stepper = make_imex_stepper(tableau("ImEx3"), spectral_operator(grid, 1.0), cubic_term(beta))
    _fail_once(monkeypatch, error)
    _, record = integrate_imex(s0, stepper, 0.05, 0.2, [mass_functional()], relax=1)
    assert record.conservation_rejections == 1
    assert record.steps[0].disposition == CONSERVATION_REJECTED
    assert record.steps[1].dt == 0.025


@pytest.mark.parametrize("controlled", [False, True])
def test_zero_length_run_returns_the_start_state(controlled):
    # fixed-step and adaptive runs agree: T equal to the start time takes no
    # step and returns s0 unchanged
    grid = make_grid(-35, 35, 128)
    s0, beta = soliton_initial(1, grid)
    stepper = make_imex_stepper(tableau("ImEx3"), spectral_operator(grid, 1.0), cubic_term(beta))
    invariants = [mass_functional()]
    if controlled:
        state, record = adaptive_integrate(
            s0, stepper, ControllerConfig(), 0.0, 0.05, invariants, relax=1
        )
    else:
        state, record = integrate_imex(s0, stepper, 0.05, 0.0, invariants, relax=1)
    assert state.t == 0.0 and np.array_equal(state.u, s0.u)
    assert record.steps == [] and record.final_t == 0.0


def test_relaxation_configuration_error_propagates(monkeypatch):
    grid = make_grid(-35, 35, 448)
    s0, beta = soliton_initial(1, grid)
    stepper = make_imex_stepper(tableau("ImEx3"), spectral_operator(grid, 1.0), cubic_term(beta))
    _fail_once(monkeypatch, ConfigurationError("bad"))
    with pytest.raises(ConfigurationError, match="bad"):
        integrate_imex(s0, stepper, 0.05, 0.2, [mass_functional()], relax=1)
