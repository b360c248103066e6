import numpy as np
import pytest

from nlslab.core import (
    ConfigurationError,
    GridState,
    NumericalFailureError,
    discrete_mass,
    make_grid,
    mass_functional,
)
from nlslab.oracles import soliton_exact, soliton_initial
from nlslab.spectral import SpectralOperator, exact_linear_flow, spectral_operator
from nlslab.splitting import integrate_splitting, scheme, splitting_step


def test_s2_coefficients():
    s2 = scheme("S2")
    assert s2.a == (0.5, 0.5)
    assert s2.b == (1.0, 0.0)
    assert s2.order == 2


def test_ak4_printed_coefficients():
    ak4 = scheme("AK4")
    assert ak4.a[0] == 0.267171359000977615
    assert ak4.b[0] == -0.361837907604416033
    assert ak4.order == 4
    assert abs(sum(ak4.a) - 1.0) <= 1e-15
    assert abs(sum(ak4.b) - 1.0) <= 1e-15


def test_unknown_scheme_rejected():
    with pytest.raises(ConfigurationError):
        scheme("S4")


@pytest.fixture(scope="module")
def soliton_setup():
    grid = make_grid(-35, 35, 448)
    op = spectral_operator(grid, 1.0)
    s0, beta = soliton_initial(1, grid)
    return grid, op, s0, beta


def test_linear_problem_reduces_to_exact_flow(soliton_setup):
    grid, op, s0, _ = soliton_setup
    dt = 0.3
    stepped = splitting_step(s0, scheme("S2"), op, 0.0, dt)
    exact = exact_linear_flow(op, s0, dt)
    assert np.max(np.abs(stepped.u - exact.u)) <= 1e-13


def test_step_preserves_mass(soliton_setup):
    grid, op, s0, beta = soliton_setup
    out = splitting_step(s0, scheme("AK4"), op, beta, 0.05)
    assert out.t == pytest.approx(0.05)
    assert discrete_mass(out) == pytest.approx(discrete_mass(s0), rel=1e-13)


def test_s2_self_adjoint(soliton_setup):
    grid, op, s0, beta = soliton_setup
    forward = splitting_step(s0, scheme("S2"), op, beta, 0.02)
    back = splitting_step(forward, scheme("S2"), op, beta, -0.02)
    assert np.max(np.abs(back.u - s0.u)) <= 1e-11


def test_s2_local_order_three(soliton_setup):
    grid, op, s0, beta = soliton_setup

    def local_error(dt):
        out = splitting_step(s0, scheme("S2"), op, beta, dt)
        return np.max(np.abs(out.u - soliton_exact(1, grid.nodes, out.t)))

    e1, e2 = local_error(1e-3), local_error(5e-4)
    order = np.log2(e1 / e2)
    assert order == pytest.approx(3.0, abs=0.3)


def test_integrate_zero_steps(soliton_setup):
    # Unobserved runs defer a closing flow; with no step there is none to apply.
    grid, op, s0, beta = soliton_setup
    for name in ("S2", "AK4"):
        out, record = integrate_splitting(s0, scheme(name), op, beta, 0.1, s0.t)
        assert np.array_equal(out.u.view(np.float64), s0.u.view(np.float64))
        assert record.accepted == 0


def test_integrate_lands_exactly_on_final_time(soliton_setup):
    grid, op, s0, beta = soliton_setup
    out, record = integrate_splitting(s0, scheme("S2"), op, beta, 0.03, 0.1)
    assert out.t == pytest.approx(0.1, abs=1e-15)
    assert record.accepted == 4  # 3 full steps + 1 shortened


def _watch(state):
    """Observer that ignores the state; its presence makes a run take every flow."""


@pytest.mark.parametrize("name", ["S2", "AK4"])
def test_unobserved_run_agrees_with_observed(soliton_setup, name):
    # 200 full steps and a landing step of 0.005.  Fusing replaces two flows
    # by one, so each step differs by a few roundings of the phase argument
    # and of one DFT pair: measured 0.6 (S2) and 1.0 (AK4) machine epsilons
    # per step here, at most 2.7 over the other runs tried at m=448 and 7.8
    # for the m=4096 semiclassical reference.  The bound allows 8 per step.
    grid, op, s0, beta = soliton_setup
    fused, rec_f = integrate_splitting(s0, scheme(name), op, beta, 0.01, 2.005)
    stepped, rec_s = integrate_splitting(
        s0, scheme(name), op, beta, 0.01, 2.005, observer=_watch
    )
    assert rec_f.accepted == rec_s.accepted == 201
    assert fused.t == stepped.t
    rel = np.max(np.abs(fused.u - stepped.u)) / np.max(np.abs(stepped.u))
    assert rel <= 8 * rec_s.accepted * np.finfo(float).eps


@pytest.mark.parametrize("name", ["S2", "AK4"])
def test_observed_run_is_bitwise_chained_steps(soliton_setup, name):
    grid, op, s0, beta = soliton_setup
    dt, T = 0.03, 0.1
    out, record = integrate_splitting(s0, scheme(name), op, beta, dt, T, observer=_watch)
    state = s0
    for _ in range(record.accepted):
        state = splitting_step(state, scheme(name), op, beta, min(dt, T - state.t))
    assert record.accepted == 4
    assert out.t == state.t
    assert np.array_equal(out.u.view(np.float64), state.u.view(np.float64))


@pytest.mark.parametrize("observer,per_step,extra", [(None, 4, 1), (_watch, 5, 0)])
def test_ak4_flow_count(soliton_setup, monkeypatch, observer, per_step, extra):
    grid, op, s0, beta = soliton_setup
    calls = []
    flow = SpectralOperator.flow

    def counting_flow(self, u, dt):
        calls.append(dt)
        return flow(self, u, dt)

    monkeypatch.setattr(SpectralOperator, "flow", counting_flow)
    steps = 16
    _, record = integrate_splitting(
        s0, scheme("AK4"), op, beta, 1 / 32, steps / 32, observer=observer
    )
    assert record.accepted == steps
    assert len(calls) == per_step * steps + extra


@pytest.mark.parametrize("name,order,tol", [("S2", 2.0, 0.25), ("AK4", 4.0, 0.25)])
def test_global_convergence_orders(soliton_setup, name, order, tol):
    grid, op, s0, beta = soliton_setup
    dts = [1 / 50, 1 / 100, 1 / 200, 1 / 400, 1 / 800]
    errors = []
    for dt in dts:
        out, _ = integrate_splitting(s0, scheme(name), op, beta, dt, 1.0)
        errors.append(np.max(np.abs(out.u - soliton_exact(1, grid.nodes, out.t))))
    slope = np.polyfit(np.log(dts), np.log(errors), 1)[0]
    assert slope == pytest.approx(order, abs=tol)


def test_mass_drift_over_many_steps(soliton_setup):
    grid, op, s0, beta = soliton_setup
    _, record = integrate_splitting(
        s0, scheme("S2"), op, beta, 0.01, 5.0, invariants=[mass_functional()]
    )
    assert record.accepted == 500
    assert record.max_mass_drift <= 7e-14


def test_nan_propagation_is_reported():
    grid = make_grid(-1, 1, 16)
    op = spectral_operator(grid, 1.0)
    s0 = GridState(grid, np.full(16, 1e200, dtype=complex))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalFailureError, match="step"):
            integrate_splitting(s0, scheme("S2"), op, 1e200, 0.1, 1.0)


def test_splitting_requires_periodic_grid():
    grid = make_grid(-1, 1, 16, bc="natural")
    s0 = GridState(grid, np.ones(16, dtype=complex))
    op_grid = make_grid(-1, 1, 16)
    op = spectral_operator(op_grid, 1.0)
    with pytest.raises(Exception):
        splitting_step(s0, scheme("S2"), op, 1.0, 0.1)
