import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import random_family, restriction_mismatch, shifted_solve
from nlslab.core import (
    FAMILY_MONOMIALS,
    NATURAL,
    ConfigurationError,
    GridState,
    as_real_pairs,
    exact_dot,
    from_real_pairs,
    gradient_finite_difference,
    make_grid,
)
from nlslab.fem import (
    FemStiffPart,
    assemble,
    conserved_functionals,
    invariant_drift_rate,
    stage_factorize,
    stage_solve,
)
from nlslab.oracles import soliton_exact
from nlslab.spectral import fem_operator, spectral_parts

A_BLOCK = np.array([[0.0, 1.0], [-1.0, 0.0]])


def _block(mat, i, j):
    return mat[2 * i : 2 * i + 2, 2 * j : 2 * j + 2]


def test_natural_block_layout():
    op = assemble(4, 0.5, "natural", beta=2.0)
    s = op.s_matrix.toarray()
    assert np.array_equal(_block(s, 0, 0), -A_BLOCK)
    assert np.array_equal(_block(s, 0, 1), A_BLOCK)
    assert np.array_equal(_block(s, 0, 2), np.zeros((2, 2)))
    assert np.array_equal(_block(s, 1, 0), A_BLOCK)
    assert np.array_equal(_block(s, 1, 1), -2 * A_BLOCK)
    assert np.array_equal(_block(s, 1, 2), A_BLOCK)
    assert np.array_equal(_block(s, 3, 3), -A_BLOCK)
    assert np.array_equal(op.itilde, [0.5, 0.5, 1, 1, 1, 1, 0.5, 0.5])


def test_periodic_block_layout():
    op = assemble(5, 0.5, "periodic", beta=2.0)
    s = op.s_matrix.toarray()
    assert np.array_equal(_block(s, 0, 0), -2 * A_BLOCK)
    assert np.array_equal(_block(s, 0, 4), A_BLOCK)
    assert np.array_equal(_block(s, 4, 0), A_BLOCK)
    assert np.array_equal(op.itilde, np.ones(10))


@pytest.mark.parametrize("bc", ["natural", "periodic"])
def test_s_is_exactly_skew_symmetric(bc):
    op = assemble(12, 0.25, bc, beta=8.0)
    residual = (op.s_matrix + op.s_matrix.T).toarray()
    assert np.max(np.abs(residual)) == 0.0


def test_assemble_rejects_small_operator():
    with pytest.raises(ConfigurationError):
        assemble(3, 0.5, "natural", beta=1.0)


def test_rhs_zero_state():
    op = assemble(8, 0.5, "periodic", beta=2.0)
    out = op.rhs_pairs(as_real_pairs(np.zeros(8, dtype=complex)))
    assert np.all(out == 0.0)


def test_rhs_constant_state_is_pure_nonlinear():
    # periodic S annihilates constants, leaving -beta * F(U)
    beta = 3.0
    op = assemble(8, 0.5, "periodic", beta=beta)
    c = 1.2 - 0.7j
    out = op.rhs_pairs(as_real_pairs(np.full(8, c)))
    expected = 1j * beta * abs(c) ** 2 * c  # complex view of -beta*F
    assert np.max(np.abs(out[0::2] - expected.real)) <= 1e-14
    assert np.max(np.abs(out[1::2] - expected.imag)) <= 1e-14


def test_rhs_second_order_consistency():
    # rhs_pairs -> i u_xx + i beta |u|^2 u at rate >= 1.8 under dx halving
    beta = 2.0
    errors, dxs = [], []
    for m in (140, 280, 560, 1120):
        grid = make_grid(-35, 35, m)
        sech = 1 / np.cosh(grid.nodes)
        op = assemble(m, grid.dx, "periodic", beta=beta)
        out = op.rhs_pairs(as_real_pairs(sech + 0j))
        continuum = 1j * (sech - 2 * sech**3) + 1j * beta * sech**3
        err = max(
            np.max(np.abs(out[0::2] - continuum.real)),
            np.max(np.abs(out[1::2] - continuum.imag)),
        )
        errors.append(err)
        dxs.append(grid.dx)
    rate = np.polyfit(np.log(dxs), np.log(errors), 1)[0]
    assert rate >= 1.8


def test_stage_solve_identity_at_mu_zero():
    op = assemble(8, 0.5, "natural", beta=1.0)
    rng = np.random.default_rng(0)
    rhs = rng.standard_normal(16)
    fac = stage_factorize(op, 0.0)
    assert np.array_equal(stage_solve(fac, rhs), rhs)


@pytest.mark.parametrize("bc", ["natural", "periodic"])
def test_stage_solve_residual(bc):
    op = assemble(16, 0.3, bc, beta=2.0)
    rng = np.random.default_rng(1)
    rhs = rng.standard_normal(32)
    mu = 0.04
    fac = stage_factorize(op, mu)
    g = stage_solve(fac, rhs)
    shifted = op.itilde * g + (mu * op.a / op.dx**2) * (op.s_matrix @ g)
    assert np.max(np.abs(shifted - op.itilde * rhs)) <= 1e-11 * np.max(np.abs(rhs))


def test_stage_solve_constant_rhs_periodic():
    op = assemble(12, 0.5, "periodic", beta=1.0)
    rhs = np.tile([0.7, -0.2], 12)
    g = stage_solve(stage_factorize(op, 0.08), rhs)
    assert np.max(np.abs(g - rhs)) <= 1e-12


def test_stage_factorization_reuse_is_bitwise():
    op = assemble(16, 0.5, "periodic", beta=2.0)
    rng = np.random.default_rng(2)
    rhs = rng.standard_normal(32)
    fac = stage_factorize(op, 0.05)
    fresh = stage_factorize(op, 0.05)
    assert np.array_equal(stage_solve(fac, rhs), stage_solve(fresh, rhs))
    assert np.array_equal(stage_solve(fac, rhs), stage_solve(fac, rhs))


@pytest.mark.parametrize("m, a", [(32, 0.35), (4480, 1.0)])
def test_fem_operator_matches_assembled_reference(m, a):
    # m=4480 is the criterion-5 mesh; the multiplier must reproduce the
    # assembled -(a/dx^2) S and its shifted system (I + (mu*a/dx^2) S)
    grid = make_grid(-35, 35, m)
    ref = assemble(m, grid.dx, "periodic", beta=8.0, a=a)
    op = fem_operator(grid, a)
    rng = np.random.default_rng(9)
    u = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    z = as_real_pairs(u)
    expected = from_real_pairs(-(a / grid.dx**2) * (ref.s_matrix @ z))
    assert np.max(np.abs(op.apply(u) - expected)) <= 1e-12 * np.max(np.abs(expected))
    for mu in (0.0025, 0.01):
        g_ref = from_real_pairs(stage_solve(stage_factorize(ref, mu), z))
        g, fg = op.solve_and_apply(u, mu)
        for candidate in (g, shifted_solve(op, u, mu)):
            assert np.max(np.abs(candidate - g_ref)) <= 1e-12 * np.max(np.abs(g_ref))
        gz = as_real_pairs(g)
        residual = gz + (mu * a / grid.dx**2) * (ref.s_matrix @ gz) - z
        assert np.max(np.abs(residual)) <= 1e-12 * np.max(np.abs(z))
        fg_ref = from_real_pairs(-(a / grid.dx**2) * (ref.s_matrix @ gz))
        assert np.max(np.abs(fg - fg_ref)) <= 1e-12 * np.max(np.abs(fg_ref))


def test_grad_mass_formula_and_euler_identity():
    grid = make_grid(0, 4, 8)  # dx = 0.5
    op = assemble(8, grid.dx, "periodic", beta=2.0)
    mass_fn, _ = conserved_functionals(op)
    s = GridState(grid, np.ones(8, dtype=complex))
    g = mass_fn.gradient(s)
    assert np.array_equal(g[0::2], np.ones(8))
    assert np.array_equal(g[1::2], np.zeros(8))
    rng = np.random.default_rng(3)
    s = GridState(grid, rng.standard_normal(8) + 1j * rng.standard_normal(8))
    dot = exact_dot(mass_fn.gradient(s), as_real_pairs(s.u))
    assert dot == pytest.approx(2.0 * mass_fn.evaluate(s), rel=1e-13)


def test_grad_energy_constant_state():
    beta = 2.5
    grid = make_grid(0, 4, 8)
    op = assemble(8, grid.dx, "periodic", beta=beta)
    c = 0.8 + 0.3j
    s = GridState(grid, np.full(8, c))
    _, energy_fn = conserved_functionals(op)
    g = energy_fn.gradient(s)
    expected_v = -2.0 * beta * grid.dx * abs(c) ** 2 * c.real
    expected_w = -2.0 * beta * grid.dx * abs(c) ** 2 * c.imag
    assert np.max(np.abs(g[0::2] - expected_v)) <= 1e-14
    assert np.max(np.abs(g[1::2] - expected_w)) <= 1e-14
    zero = GridState(grid, np.zeros(8, dtype=complex))
    assert np.all(energy_fn.gradient(zero) == 0.0)


@pytest.mark.parametrize("bc", ["natural", "periodic"])
def test_conserved_gradients_match_finite_differences(bc):
    rng = np.random.default_rng(4)
    grid = make_grid(-2, 2, 24, bc=bc)
    op = assemble(24, grid.dx, bc, beta=2.0)
    s = GridState(grid, 0.5 * (rng.standard_normal(24) + 1j * rng.standard_normal(24)))
    for functional in conserved_functionals(op):
        grad = functional.gradient(s)
        fd = gradient_finite_difference(functional, s, step=1e-7)
        assert np.max(np.abs(fd - grad)) <= 1e-6 * np.max(np.abs(grad))


@given(
    m=st.integers(8, 64),
    seed=st.integers(0, 2**32 - 1),
    g1=st.floats(-1.0, 1.0),
    g2=st.floats(-1.0, 1.0),
    beta=st.floats(0.5, 20.0),
)
def test_natural_restrict_is_the_functional_along_the_family(m, seed, g1, g2, beta):
    grid = make_grid(-4.0, 4.0, m, bc=NATURAL)
    u0, A, B = random_family(m, seed)
    pair = conserved_functionals(assemble(m, grid.dx, NATURAL, beta=beta, a=0.7))
    magnitudes = conserved_functionals(assemble(m, grid.dx, NATURAL, beta=-beta, a=0.7))
    for functional, magnitude in zip(pair, magnitudes):
        error, size = restriction_mismatch(functional, magnitude, grid, u0, A, B, g1, g2)
        assert error <= 1e-12 * size
    mass_coeffs = pair[0].restrict(u0, A, B, grid)
    assert all(mass_coeffs[i, j] == 0.0 for i, j in FAMILY_MONOMIALS if i + j >= 3)


def test_drift_rates_vanish_on_exact_soliton():
    m = 840  # 12 points per unit on [-35, 35]
    grid = make_grid(-35, 35, m)
    op = assemble(m, grid.dx, "periodic", beta=8.0)
    s = GridState(grid, soliton_exact(2, grid.nodes, 0.0), 0.0)
    r1, r2 = invariant_drift_rate(op, s)
    assert abs(r1) <= 1e-8 and abs(r2) <= 1e-8


def test_drift_rates_zero_state():
    op = assemble(8, 0.5, "periodic", beta=2.0)
    grid = make_grid(0, 4, 8)
    assert invariant_drift_rate(op, GridState(grid, np.zeros(8, dtype=complex))) == (0.0, 0.0)


@pytest.mark.parametrize("bc", ["natural", "periodic"])
def test_drift_rates_vanish_on_random_states(bc):
    # conservation is an algebraic identity of the matched (operator,
    # gradient) pair, not a smoothness property
    rng = np.random.default_rng(5)
    grid = make_grid(-3, 3, 48, bc=bc)
    op = assemble(48, grid.dx, bc, beta=8.0)
    pair = conserved_functionals(op)
    for _ in range(5):
        s = GridState(grid, rng.standard_normal(48) + 1j * rng.standard_normal(48))
        f = op.rhs_pairs(as_real_pairs(s.u))
        scale = max(np.linalg.norm(fn.gradient(s)) * np.linalg.norm(f) for fn in pair)
        r1, r2 = invariant_drift_rate(op, s)
        assert abs(r1) <= 1e-12 * scale
        assert abs(r2) <= 1e-12 * scale


def _stiff_parts(grid, op):
    """The assembled adapter and the multiplier run_method steps with."""
    return FemStiffPart(op), fem_operator(grid, op.a)


def test_stiff_part_matches_rhs_linear_term():
    grid = make_grid(-4, 4, 32)
    op = assemble(32, grid.dx, "periodic", beta=2.0)
    rng = np.random.default_rng(6)
    u = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    via_rhs = op.rhs_pairs(as_real_pairs(u))
    for part in _stiff_parts(grid, op):
        stiff, nonstiff = spectral_parts(part, op.beta)
        total = stiff.apply(u) + nonstiff(u)
        assert np.max(np.abs(total.real - via_rhs[0::2])) <= 1e-12
        assert np.max(np.abs(total.imag - via_rhs[1::2])) <= 1e-12


def test_stiff_solve_inverts_shifted_system():
    grid = make_grid(-4, 4, 32)
    op = assemble(32, grid.dx, "periodic", beta=2.0)
    rng = np.random.default_rng(7)
    rhs = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    mu = 0.03
    part, multiplier = _stiff_parts(grid, op)
    solves = (part.solve(rhs, mu), shifted_solve(multiplier, rhs, mu))
    for stiff, g in zip((part, multiplier), solves):
        assert np.max(np.abs((g - mu * stiff.apply(g)) - rhs)) <= 1e-11 * np.max(np.abs(rhs))
