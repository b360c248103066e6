import numpy as np
import pytest

from nlslab.core import GridState, UnsupportedBoundaryError, discrete_mass, make_grid
from nlslab.spectral import (
    exact_linear_flow,
    exact_nonlinear_flow,
    spectral_operator,
    spectral_parts,
    wavenumbers,
)


def test_wavenumbers_values():
    grid = make_grid(-35, 35, 1120)
    xi = wavenumbers(grid)
    assert xi[0] == 0.0
    assert xi[1] == pytest.approx(2 * np.pi / 70, rel=1e-14)


def test_wavenumbers_dft_order_integers():
    grid = make_grid(0, 2 * np.pi, 8)
    xi = wavenumbers(grid)
    assert np.allclose(xi, [0, 1, 2, 3, -4, -3, -2, -1], atol=1e-14)


def test_wavenumbers_reject_natural_grid():
    with pytest.raises(UnsupportedBoundaryError):
        wavenumbers(make_grid(0, 1, 8, bc="natural"))


def test_symbol_is_purely_imaginary():
    op = spectral_operator(make_grid(-4, 4, 64), 0.35)
    assert np.all(op.symbol.real == 0.0)


def test_dispersion_apply_constant_state():
    grid = make_grid(-1, 1, 32)
    op = spectral_operator(grid, 1.0)
    out = op.apply(np.full(32, 1.5 + 0.5j))
    assert np.max(np.abs(out)) <= 1e-13


def test_dispersion_apply_eigenmode():
    grid = make_grid(-3, 3, 48)
    a = 0.7
    op = spectral_operator(grid, a)
    xi1 = 2 * np.pi / grid.length
    u = np.exp(1j * xi1 * grid.nodes)
    out = op.apply(u)
    assert np.max(np.abs(out - (-1j * a * xi1**2) * u)) <= 1e-12


def test_dispersion_apply_sech_second_derivative():
    # (sech x)'' = sech x - 2 sech^3 x
    grid = make_grid(-35, 35, 1120)
    a = 1.0
    op = spectral_operator(grid, a)
    sech = 1 / np.cosh(grid.nodes)
    expected = 1j * a * (sech - 2 * sech**3)
    out = op.apply(sech + 0j)
    assert np.max(np.abs(out - expected)) <= 1e-9


def test_dispersion_apply_linearity():
    rng = np.random.default_rng(0)
    grid = make_grid(0, 1, 64)
    op = spectral_operator(grid, 2.0)
    u = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    v = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    lhs = op.apply(0.3 * u + (2 - 1j) * v)
    rhs = 0.3 * op.apply(u) + (2 - 1j) * op.apply(v)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(lhs)))


def test_stage_solve_identity_at_mu_zero():
    grid = make_grid(0, 1, 32)
    op = spectral_operator(grid, 1.0)
    rng = np.random.default_rng(1)
    rhs = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    out = op.solve(rhs, 0.0)
    assert np.max(np.abs(out - rhs)) <= 1e-14 * np.max(np.abs(rhs))


def test_stage_solve_single_mode():
    grid = make_grid(-2, 2, 64)
    a = 1.3
    op = spectral_operator(grid, a)
    xi1 = 2 * np.pi / grid.length
    rhs = np.exp(1j * xi1 * grid.nodes)
    out = op.solve(rhs, 1.0)
    assert np.max(np.abs(out - rhs / (1 + 1j * a * xi1**2))) <= 1e-12


def test_stage_solve_residual():
    rng = np.random.default_rng(2)
    grid = make_grid(-5, 5, 200)
    op = spectral_operator(grid, 0.5)
    rhs = rng.standard_normal(200) + 1j * rng.standard_normal(200)
    mu = 0.037
    g = op.solve(rhs, mu)
    recovered = g - mu * op.apply(g)
    assert np.max(np.abs(recovered - rhs)) <= 1e-12 * np.max(np.abs(rhs))


def test_solve_and_apply_consistent():
    rng = np.random.default_rng(8)
    grid = make_grid(-5, 5, 128)
    op = spectral_operator(grid, 1.0)
    rhs = rng.standard_normal(128) + 1j * rng.standard_normal(128)
    g, fg = op.solve_and_apply(rhs, 0.02)
    assert np.max(np.abs(g - op.solve(rhs, 0.02))) <= 1e-14
    assert np.max(np.abs(fg - op.apply(g))) <= 1e-11


def test_nonlinear_term_values():
    op = spectral_operator(make_grid(0, 1, 4), 1.0)

    def cubic(u, b):
        return spectral_parts(op, b)[1](u)

    out = cubic(np.ones(4, dtype=complex), 2.0)
    assert np.allclose(out, 2j, atol=1e-15)
    assert np.all(cubic(np.zeros(4, dtype=complex), 3.0) == 0)
    out = cubic(np.full(4, 1 + 1j), 1.0)
    assert np.allclose(out, -2 + 2j, atol=1e-14)


def test_exact_linear_flow_constant_and_eigenmode():
    grid = make_grid(-3, 3, 48)
    op = spectral_operator(grid, 1.0)
    const = GridState(grid, np.full(48, 0.3 - 2j))
    out = exact_linear_flow(op, const, 0.7)
    assert np.max(np.abs(out.u - const.u)) <= 1e-13
    assert out.t == 0.7
    xi1 = 2 * np.pi / grid.length
    mode = GridState(grid, np.exp(1j * xi1 * grid.nodes))
    out = exact_linear_flow(op, mode, 0.25)
    assert np.max(np.abs(out.u - np.exp(-1j * xi1**2 * 0.25) * mode.u)) <= 1e-13


def test_exact_linear_flow_preserves_mass_and_composes():
    rng = np.random.default_rng(4)
    grid = make_grid(-5, 5, 160)
    op = spectral_operator(grid, 0.8)
    s = GridState(grid, rng.standard_normal(160) + 1j * rng.standard_normal(160))
    out = exact_linear_flow(op, s, 0.31)
    assert discrete_mass(out) == pytest.approx(discrete_mass(s), rel=1e-13)
    two = exact_linear_flow(op, exact_linear_flow(op, s, 0.11), 0.23)
    one = exact_linear_flow(op, s, 0.34)
    assert np.max(np.abs(two.u - one.u)) <= 1e-12 * np.max(np.abs(one.u))


def test_exact_nonlinear_flow_phases():
    grid = make_grid(0, 1, 4)
    out = exact_nonlinear_flow(GridState(grid, np.ones(4, dtype=complex)), 2.0, np.pi)
    assert np.max(np.abs(out.u - 1.0)) <= 1e-14
    out = exact_nonlinear_flow(GridState(grid, np.full(4, 2.0 + 0j)), 1.0, np.pi / 4)
    assert np.max(np.abs(out.u - (-2.0))) <= 1e-13


def test_exact_nonlinear_flow_preserves_modulus_and_mass():
    rng = np.random.default_rng(6)
    grid = make_grid(-5, 5, 256)
    u = rng.standard_normal(256) + 1j * rng.standard_normal(256)
    s = GridState(grid, u)
    out = exact_nonlinear_flow(s, 7.5, 0.42)
    assert np.max(np.abs(np.abs(out.u) - np.abs(u))) <= 1e-15 * np.max(np.abs(u))
    assert discrete_mass(out) == pytest.approx(discrete_mass(s), rel=1e-14)
