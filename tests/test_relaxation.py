import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import fsolve

from helpers import per_term_step
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
from nlslab.imexrk import StepIncrements, tableau
from nlslab.oracles import soliton_initial
from nlslab.relaxation import (
    SAFETY,
    ControllerConfig,
    adaptive_integrate,
    error_estimate,
    integrate_imex,
    make_imex_stepper,
    propose_step,
    relax_multi,
    relax_single,
    relaxed_update,
)
from nlslab.spectral import fem_operator, spectral_operator, spectral_parts


def _increments(u_next, d1, d2=None):
    return StepIncrements(
        u_next=np.asarray(u_next, dtype=complex),
        d1=np.asarray(d1, dtype=complex),
        d2=np.asarray(d2 if d2 is not None else np.zeros_like(d1), dtype=complex),
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
    cfg = ControllerConfig(embedded_order=order, max_growth=growth)
    small, large = sorted((eps, other))
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
    out = relax_single(un, inc, 0.1, mass_functional())
    assert out.converged
    assert out.gamma1 == 0.0
    assert out.gamma_total == 0.0


def test_relax_single_closed_form_toy():
    # eta(2 + g) = 1 has roots {-1, -3}; the smaller-magnitude root wins
    un = _toy_state([1.0, 0, 0, 0])  # dx = 1 on [0, 4]
    inc = _increments([2.0, 0, 0, 0], [1.0, 0, 0, 0])
    out = relax_single(un, inc, 1.0, mass_functional())
    assert out.converged
    assert out.gamma1 == pytest.approx(-1.0, abs=1e-14)


def test_relax_single_no_real_root_reports_failure():
    # mass can only grow along d1 = u_next when |u_next| already exceeds target
    un = _toy_state([1.0, 0, 0, 0])
    inc = _increments([2.0, 0, 0, 0], [0.0, 1.0, 0, 0])
    out = relax_single(un, inc, 1.0, mass_functional())
    assert not out.converged


@pytest.mark.parametrize("tol,converged", [(1e-12, True), (1e-16, False)])
def test_relax_single_without_a_root_measures_gamma_zero(tol, converged):
    # d1 is orthogonal to u_next, so the mass only grows along it; a u_next
    # one ulp above the target mass leaves the quadratic without a real root.
    un = _toy_state([1.0, 0, 0, 0])  # dx = 1, mass 1
    inc = _increments([1.0 + 2.0**-52, 0, 0, 0], [0.0, 1.0, 0, 0])
    mass = mass_functional()
    out = relax_single(un, inc, 1.0, mass, conservation_tol=tol)
    assert (out.gamma1, out.gamma_total, out.iterations) == (0.0, 0.0, 0)
    assert out.residual == mass.evaluate(un.with_u(inc.u_next)) - 1.0 == 2.0**-51
    assert out.converged is converged


def test_relax_single_refuses_invariants_other_than_mass():
    # single relaxation is the closed-form mass quadratic; an invariant of
    # another kind has no solver behind it
    un = _toy_state([1.0, 1j, -2.0, 0.5])
    inc = _increments(un.u, [0.3, -1j, 0.0, 2.0])
    mass = mass_functional()
    other = InvariantFunctional("energy", mass.evaluate, mass.gradient, mass.restrict)
    with pytest.raises(ConfigurationError, match="enforces the mass"):
        relax_single(un, inc, 0.1, other)
    with pytest.raises(ConfigurationError, match="enforces the mass"):
        integrate_imex(un, _unchanged, 0.1, 0.2, invariants=[other], relax=1)


def _unchanged(u, h):
    """A stepper whose u_next is u itself, with directions d1 = d2 = 1."""
    return _increments(u, np.ones_like(u), np.ones_like(u))


@pytest.mark.parametrize(
    "count, relax",
    [
        pytest.param(0, 1, id="0"),
        pytest.param(3, 3, id="3"),
        pytest.param(1, 2, id="2-of-1"),
        pytest.param(2, -1, id="minus-1"),
        pytest.param(2, 1.5, id="1.5"),
        pytest.param(2, "1", id="str"),
    ],
)
def test_relaxer_refuses_other_than_one_or_two_invariants(count, relax):
    # relax counts the tracked invariants a run enforces: 0, 1 or 2, and
    # no more than are tracked
    un = _toy_state([1.0, 1j, -2.0, 0.5])
    invariants = [mass_functional(), energy_functional(2.0), mass_functional()][:count]
    with pytest.raises(ConfigurationError, match="relax must be 0, 1 or 2"):
        integrate_imex(un, _unchanged, 0.1, 0.2, invariants, relax)
    with pytest.raises(ConfigurationError, match="relax must be 0, 1 or 2"):
        adaptive_integrate(un, _unchanged, ControllerConfig(), 0.2, 0.1, invariants, relax)


@pytest.mark.parametrize("count, solve", [(1, "relax_single"), (2, "relax_multi")])
def test_relaxer_calls_its_solve_through_the_module(monkeypatch, count, solve):
    # relax = 1 is single relaxation and 2 multiple relaxation, against the
    # values the run measured at s0; the solve is resolved when called, so
    # a wrapper installed on the module afterwards sees every call
    import nlslab.relaxation as relaxation

    un = _toy_state([1.0, 1j, -2.0, 0.5])
    functionals = [mass_functional(), energy_functional(2.0)]
    calls = []

    def record(*args, **kwargs):
        calls.append((args, kwargs))
        return relaxation.RelaxationOutcome(0.0, 0.0, 0.0, 0.0, 0, True)

    monkeypatch.setattr(relaxation, solve, record)
    integrate_imex(un, _unchanged, 0.1, 0.1, functionals, count, conservation_tol=1e-9)
    (args, kwargs), = calls
    targets = tuple(f.evaluate(un) for f in functionals[:count])
    expected = (functionals[0], targets[0]) if count == 1 else (tuple(functionals), targets)
    assert args[0] is un and args[3:] == expected and kwargs == {"conservation_tol": 1e-9}


@pytest.mark.parametrize("count", [1, 2])
def test_a_relaxed_run_evaluates_each_invariant_once_at_s0(count):
    # The step loop measures the initial values once and relaxes against
    # them; a second measurement at s0 would be the same float again.
    un = _toy_state([1.0, 1j, -2.0, 0.5])
    at_s0 = []

    def counted(f):
        def evaluate(s):
            if s is un:
                at_s0.append(f.kind)
            return f.evaluate(s)

        return InvariantFunctional(f.kind, evaluate, f.gradient, f.restrict)

    functionals = [counted(mass_functional()), counted(energy_functional(2.0))]
    _, record = integrate_imex(un, _unchanged, 0.1, 0.3, functionals, count)
    assert record.accepted == 3
    assert at_s0 == ["mass", "energy"]


def test_relaxed_update_identity_and_full_backoff():
    un = _toy_state([1.0, 2.0, 3.0, 4.0])
    d1 = np.array([0.1, -0.2, 0.3j, 0.0])
    inc = _increments(un.u + 0.5 * d1, d1)
    from nlslab.relaxation import RelaxationOutcome

    identity = RelaxationOutcome(0.0, 0.0, 0.0, 0.0, 0, True)
    updated = relaxed_update(un, inc, 0.5, identity)
    assert np.array_equal(updated.u, inc.u_next)
    assert updated.t == un.t + 0.5
    backoff = RelaxationOutcome(-1.0, 0.0, -1.0, 0.0, 1, True)
    reverted = relaxed_update(un, inc, 0.5, backoff)
    assert np.max(np.abs(reverted.u - un.u)) <= 1e-14
    assert reverted.t == un.t
    failed = RelaxationOutcome(0.0, 0.0, 0.0, 1.0, 50, False)
    with pytest.raises(ConfigurationError):
        relaxed_update(un, inc, 0.5, failed)


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
    d2 = rng.standard_normal(grid.m) + 1j * rng.standard_normal(grid.m)
    inc = _increments(un.u, d1, d2)
    out = relax_multi(un, inc, 0.01, conserved_functionals(op))
    assert out.converged
    assert out.iterations == 0
    assert (out.gamma1, out.gamma2) == (0.0, 0.0)


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
    d2 = 0.2 * (rng.standard_normal(m) + 1j * rng.standard_normal(m))
    inc = _increments(un.u + dt * d1, d1, d2)
    out = relax_multi(un, inc, dt, pair)
    assert out.converged

    targets = (pair[0].evaluate(un), pair[1].evaluate(un))

    def residual(gamma):
        state = un.with_u(inc.u_next + dt * (gamma[0] * inc.d1 + gamma[1] * inc.d2))
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
    stiff, nonstiff = spectral_parts(fem_operator(grid, op.a), op.beta)
    stepper = make_imex_stepper(tableau("ImEx4"), stiff, nonstiff)
    dt = 0.02
    inc = stepper(un.u, dt)
    out = relax_multi(un, inc, dt, pair)
    assert out.converged
    updated = relaxed_update(un, inc, dt, out)
    assert abs(pair[0].evaluate(updated) - pair[0].evaluate(un)) <= 1e-12
    assert abs(pair[1].evaluate(updated) - pair[1].evaluate(un)) <= 1e-12
    assert updated.t == pytest.approx(un.t + (1 + out.gamma_total) * dt, rel=1e-12)


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
    d2 = rng.standard_normal(grid.m) + 1j * rng.standard_normal(grid.m)
    inc = _increments(un.u + 0.01 * d1, d1, d2)
    out = relax_multi(un, inc, 0.01, (mass, doubled))
    assert not out.converged


def _measured_residual(un, inc, dt, pair, targets, g1, g2):
    state = un.with_u(inc.u_next + dt * (g1 * inc.d1 + g2 * inc.d2))
    return [pair[0].evaluate(state) - targets[0], pair[1].evaluate(state) - targets[1]]


def test_relax_multi_residual_is_measured_at_the_returned_gamma(fem_setup):
    grid, op, un = fem_setup
    pair = conserved_functionals(op)
    stiff, nonstiff = spectral_parts(fem_operator(grid, op.a), op.beta)
    dt = 0.02
    inc = make_imex_stepper(tableau("ImEx4"), stiff, nonstiff)(un.u, dt)
    targets = (pair[0].evaluate(un), pair[1].evaluate(un))
    # An energy 1e-3 off its value has no root near (0, 0): Newton wanders
    # off and the attempt fails with a nonzero best point.
    goals = [targets, (targets[0], targets[1] + 1e-3)]
    outcomes = [relax_multi(un, inc, dt, pair, goal) for goal in goals]
    assert [out.converged for out in outcomes] == [True, False]
    for goal, out in zip(goals, outcomes):
        assert out.gamma1 != 0.0 and out.gamma2 != 0.0
        r = _measured_residual(un, inc, dt, pair, goal, out.gamma1, out.gamma2)
        assert out.residual == float(np.hypot(*r))


def test_relax_single_residual_is_measured_at_the_accepted_state():
    grid = make_grid(-35, 35, 256)
    s0, beta = soliton_initial(2, grid)
    parts = spectral_parts(spectral_operator(grid, 1.0), beta)
    stepper = make_imex_stepper(tableau("ImEx4"), *parts)
    mass = mass_functional()
    measured = []

    def evaluate(state):
        measured.append(state)
        return mass.evaluate(state)

    counted = InvariantFunctional("mass", evaluate, mass.gradient, mass.restrict)
    target, dt, state = mass.evaluate(s0), 0.01, s0
    # Over 300 steps, building the measured state as u_next + (dt*gamma)*d1
    # but accepting u_next + dt*(gamma*d1) gave 5 accepted states that no
    # measurement had seen.
    for _ in range(300):
        inc = stepper(state.u, dt)
        # A mass 1 below its value is out of reach along d1: the attempt
        # fails at gamma = 0, measured there.
        missed = relax_single(state, inc, dt, mass, target - 1.0)
        assert not missed.converged and missed.gamma1 == 0.0
        assert missed.residual == abs(mass.evaluate(state.with_u(inc.u_next)) - target + 1.0)
        measured.clear()
        out = relax_single(state, inc, dt, counted, target)
        assert out.converged and out.gamma1 != 0.0
        # One measurement at the closed-form root, one per polish step.
        assert len(measured) == 1 + out.iterations
        state = relaxed_update(state, inc, dt, out)
        assert any(np.array_equal(seen.u, state.u) for seen in measured)
        assert out.residual == abs(mass.evaluate(state) - target)


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
    d1, d2 = (size * (rng.standard_normal(m) + 1j * rng.standard_normal(m)) for _ in range(2))
    inc = _increments(un.u + dt * (rng.uniform(-1, 1) * d1 + rng.uniform(-1, 1) * d2), d1, d2)
    targets = (pair[0].evaluate(un), pair[1].evaluate(un))

    def residual(gamma):
        return _measured_residual(un, inc, dt, pair, targets, *gamma)

    root = fsolve(residual, (0.0, 0.0), xtol=1e-13)
    if np.hypot(*residual(root)) < 1e-13 and np.max(np.abs(root)) <= 0.5:
        out = relax_multi(un, inc, dt, pair)
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
    stiff, nonstiff = spectral_parts(FemStiffPart(op), op.beta)
    dt = 0.02
    step = per_term_step(un.u, tableau("ImEx4"), dt, stiff.apply, stiff.solve, nonstiff)
    inc = StepIncrements(*step)
    out = relax_multi(un, inc, dt, pair)
    assert out.converged
    updated = relaxed_update(un, inc, dt, out)
    for functional in pair:
        assert abs(functional.evaluate(updated) - functional.evaluate(un)) <= 1e-12


def test_single_relaxer_keeps_order_and_conservation():
    grid = make_grid(-35, 35, 448)
    op = spectral_operator(grid, 1.0)
    s0, beta = soliton_initial(1, grid)
    stiff, nonstiff = spectral_parts(op, beta)
    stepper = make_imex_stepper(tableau("ImEx3"), stiff, nonstiff)
    _, record = integrate_imex(s0, stepper, 0.01, 1.0, [mass_functional()], relax=1)
    assert record.max_mass_drift <= 5e-15
    assert record.accepted == 100


def test_gamma_scales_with_step_size():
    # |gamma| ~ dt^(p-1): measured decay rate under halving stays near p-1
    grid = make_grid(-35, 35, 448)
    op = spectral_operator(grid, 1.0)
    s0, beta = soliton_initial(1, grid)
    stiff, nonstiff = spectral_parts(op, beta)
    tab = tableau("ImEx3")
    stepper = make_imex_stepper(tab, stiff, nonstiff)
    mass = mass_functional()
    gammas = []
    dts = [0.04, 0.02, 0.01, 0.005]
    for dt in dts:
        inc = stepper(s0.u, dt)
        out = relax_single(s0, inc, dt, mass)
        assert out.converged
        gammas.append(abs(out.gamma1))
    slope = np.polyfit(np.log(dts), np.log(gammas), 1)[0]
    assert slope >= tab.order - 1.3


def test_adaptive_smooth_problem_grows_monotonically():
    grid = make_grid(-8, 8, 64)
    op = spectral_operator(grid, 1.0)
    u0 = np.exp(-grid.nodes**2) + 0j
    s0 = GridState(grid, u0)
    stiff, nonstiff = spectral_parts(op, 0.0)  # linear problem
    tab = tableau("ImEx4")
    stepper = make_imex_stepper(tab, stiff, nonstiff)
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
    stiff, nonstiff = spectral_parts(fem_operator(grid, op.a), op.beta)
    tab = tableau("ImEx4")
    stepper = make_imex_stepper(tab, stiff, nonstiff)
    cfg = ControllerConfig(embedded_order=tab.embedded_order, dt_min=1e-4)
    with pytest.raises(NumericalFailureError):
        adaptive_integrate(un, stepper, cfg, 1.0, 0.01, [mass, doubled], relax=2)


def test_adaptive_conservation_rejection_follows_eps_acceptance():
    grid = make_grid(-35, 35, 840)
    op = assemble(840, grid.dx, "periodic", beta=8.0)
    s0, _ = soliton_initial(2, grid)
    pair = conserved_functionals(op)
    stiff, nonstiff = spectral_parts(fem_operator(grid, op.a), op.beta)
    tab = tableau("ImEx4")
    stepper = make_imex_stepper(tab, stiff, nonstiff)
    cfg = ControllerConfig(embedded_order=tab.embedded_order)
    _, record = adaptive_integrate(s0, stepper, cfg, 0.6, 0.05, list(pair), relax=2)
    rejections = [r for r in record.steps if r.disposition == CONSERVATION_REJECTED]
    assert rejections, "expected at least one conservation rejection on this run"
    for row in rejections:
        assert row.eps is not None and row.eps < 1.0
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
    stiff, nonstiff = spectral_parts(op, beta)
    stepper = make_imex_stepper(tableau("ImEx4"), stiff, nonstiff)
    out, record = integrate_imex(s0, stepper, 0.03, 0.1, [mass_functional()], relax=1)
    last_nominal = record.steps[-1].dt
    assert abs(out.t - 0.1) <= abs(record.steps[-1].gamma_total) * last_nominal + 1e-15


def test_fixed_step_halving_cap_raises(fem_setup):
    grid, op, un = fem_setup
    mass = mass_functional()
    doubled = InvariantFunctional(
        "mass-doubled",
        lambda s: 2.0 * mass.evaluate(s),
        lambda s: 2.0 * mass.gradient(s),
        lambda *args: 2.0 * mass.restrict(*args),
    )
    stiff, nonstiff = spectral_parts(fem_operator(grid, op.a), op.beta)
    stepper = make_imex_stepper(tableau("ImEx4"), stiff, nonstiff)
    # No residual beats a zero tolerance, so every attempt is halved.  At the
    # default tolerance the run would go on: once a step is small enough to
    # conserve mass to 1e-12 unrelaxed, gamma = (0, 0) converges.
    with pytest.raises(NumericalFailureError, match="halvings"):
        integrate_imex(un, stepper, 0.01, 1.0, [mass, doubled], relax=2, conservation_tol=0.0)


def test_fixed_step_overflow_in_relaxation_halves_the_step(fem_setup):
    # dt = 1.5 is far past stability: trial states are finite but so large
    # that the exact sums overflow.  Such steps must be halved, not raise.
    grid, op, un = fem_setup
    pair = conserved_functionals(op)
    stiff, nonstiff = spectral_parts(fem_operator(grid, op.a), op.beta)
    stepper = make_imex_stepper(tableau("ImEx4"), stiff, nonstiff)
    with np.errstate(over="ignore", invalid="ignore"):
        _, record = integrate_imex(un, stepper, 1.5, 3.0, list(pair), relax=2)
    assert record.conservation_rejections > 0
    assert record.max_mass_drift <= 1e-12
    assert record.max_energy_drift <= 1e-12


def test_fixed_step_tracker_overflow_is_a_numerical_failure(fem_setup):
    # Unrelaxed at dt = 1.5 the state grows huge but stays finite, so the
    # tracked invariants' exact sums overflow after an accepted step.
    grid, op, un = fem_setup
    stiff, nonstiff = spectral_parts(fem_operator(grid, op.a), op.beta)
    stepper = make_imex_stepper(tableau("ImEx4"), stiff, nonstiff)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalFailureError, match=r"after step \d+ at t="):
            integrate_imex(un, stepper, 1.5, 30.0, invariants=list(conserved_functionals(op)))


@pytest.mark.parametrize(
    "error", [OverflowError("intermediate overflow in fsum"), ValueError("-inf + inf in fsum")]
)
def test_tracker_arithmetic_error_names_step_and_time(error):
    grid = make_grid(-35, 35, 448)
    s0, beta = soliton_initial(1, grid)
    stiff, nonstiff = spectral_parts(spectral_operator(grid, 1.0), beta)
    stepper = make_imex_stepper(tableau("ImEx3"), stiff, nonstiff)
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
    stiff, nonstiff = spectral_parts(spectral_operator(grid, 1.0), beta)
    stepper = make_imex_stepper(tableau("ImEx3"), stiff, nonstiff)
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
    parts = spectral_parts(spectral_operator(grid, 1.0), beta)
    stepper = make_imex_stepper(tableau("ImEx3"), *parts)
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
    stiff, nonstiff = spectral_parts(spectral_operator(grid, 1.0), beta)
    stepper = make_imex_stepper(tableau("ImEx3"), stiff, nonstiff)
    _fail_once(monkeypatch, ConfigurationError("bad"))
    with pytest.raises(ConfigurationError, match="bad"):
        integrate_imex(s0, stepper, 0.05, 0.2, [mass_functional()], relax=1)
