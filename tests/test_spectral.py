import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from helpers import shifted_solve
from nlslab.core import (
    GridState,
    UnsupportedBoundaryError,
    dft_forward,
    dft_inverse,
    discrete_mass,
    make_grid,
)
from nlslab.spectral import (
    FLOW_MEMO_SIZE,
    TINY_PHASE,
    SpectralOperator,
    cubic_term,
    nonlinear_flow,
    spectral_operator,
    spectral_tail,
    wavenumbers,
)
from nlslab.splitting import scheme


def test_wavenumbers_values():
    grid = make_grid(-35, 35, 1120)
    xi = wavenumbers(grid)
    assert xi[0] == 0.0
    assert xi[1] == pytest.approx(2 * np.pi / 70, rel=1e-14)


def test_wavenumbers_dft_order_integers():
    grid = make_grid(0, 2 * np.pi, 8)
    xi = wavenumbers(grid)
    assert np.allclose(xi, [0, 1, 2, 3, -4, -3, -2, -1], atol=1e-14)


@pytest.mark.parametrize(
    "k, tail", [(23, 0.0), (24, 1e-3), (31, 1e-3), (-32, 1e-3), (-24, 1e-3), (-23, 0.0)]
)
def test_spectral_tail_reads_the_top_quarter_of_the_wavenumbers(k, tail):
    # m = 64 on a 2*pi period: integer wavenumbers, top quarter |k| >= 24
    x = make_grid(-np.pi, np.pi, 64).nodes
    assert spectral_tail(1.0 + 1e-3 * np.exp(1j * k * x)) == pytest.approx(tail, abs=1e-15)


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
    xi1 = 2 * np.pi / (grid.dx * grid.m)
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
    assert np.all(op.shifted(0.0) == 1.0)
    out = shifted_solve(op, rhs, 0.0)
    assert np.max(np.abs(out - rhs)) <= 1e-14 * np.max(np.abs(rhs))


def test_stage_solve_single_mode():
    grid = make_grid(-2, 2, 64)
    a = 1.3
    op = spectral_operator(grid, a)
    xi1 = 2 * np.pi / (grid.dx * grid.m)
    rhs = np.exp(1j * xi1 * grid.nodes)
    assert op.shifted(1.0)[1] == pytest.approx(1 + 1j * a * xi1**2, rel=1e-15)
    out = shifted_solve(op, rhs, 1.0)
    assert np.max(np.abs(out - rhs / (1 + 1j * a * xi1**2))) <= 1e-12


def test_stage_solve_residual():
    rng = np.random.default_rng(2)
    grid = make_grid(-5, 5, 200)
    op = spectral_operator(grid, 0.5)
    rhs = rng.standard_normal(200) + 1j * rng.standard_normal(200)
    mu = 0.037
    g = shifted_solve(op, rhs, mu)
    recovered = g - mu * op.apply(g)
    assert np.max(np.abs(recovered - rhs)) <= 1e-12 * np.max(np.abs(rhs))


def test_solve_and_apply_consistent():
    rng = np.random.default_rng(8)
    grid = make_grid(-5, 5, 128)
    op = spectral_operator(grid, 1.0)
    rhs = rng.standard_normal(128) + 1j * rng.standard_normal(128)
    g, fg = op.solve_and_apply(rhs, 0.02)
    assert np.max(np.abs(g - shifted_solve(op, rhs, 0.02))) <= 1e-14
    assert np.max(np.abs(fg - op.apply(g))) <= 1e-11


def test_nonlinear_term_values():
    out = cubic_term(2.0)(np.ones(4, dtype=complex))
    assert np.allclose(out, 2j, atol=1e-15)
    assert np.all(cubic_term(3.0)(np.zeros(4, dtype=complex)) == 0)
    out = cubic_term(1.0)(np.full(4, 1 + 1j))
    assert np.allclose(out, -2 + 2j, atol=1e-14)


def test_exact_linear_flow_constant_and_eigenmode():
    grid = make_grid(-3, 3, 48)
    op = spectral_operator(grid, 1.0)
    const = np.full(48, 0.3 - 2j)
    out = op.flow(const, 0.7)
    assert np.max(np.abs(out - const)) <= 1e-13
    xi1 = 2 * np.pi / (grid.dx * grid.m)
    mode = np.exp(1j * xi1 * grid.nodes)
    out = op.flow(mode, 0.25)
    assert np.max(np.abs(out - np.exp(-1j * xi1**2 * 0.25) * mode)) <= 1e-13


def test_exact_linear_flow_preserves_mass_and_composes():
    rng = np.random.default_rng(4)
    grid = make_grid(-5, 5, 160)
    op = spectral_operator(grid, 0.8)
    s = GridState(grid, rng.standard_normal(160) + 1j * rng.standard_normal(160))
    out = s.with_u(op.flow(s.u, 0.31))
    assert discrete_mass(out) == pytest.approx(discrete_mass(s), rel=1e-13)
    two = op.flow(op.flow(s.u, 0.11), 0.23)
    one = op.flow(s.u, 0.34)
    assert np.max(np.abs(two - one)) <= 1e-12 * np.max(np.abs(one))


def test_exact_nonlinear_flow_phases():
    out = nonlinear_flow(np.ones(4, dtype=complex), 2.0, np.pi)
    assert np.max(np.abs(out - 1.0)) <= 1e-14
    out = nonlinear_flow(np.full(4, 2.0 + 0j), 1.0, np.pi / 4)
    assert np.max(np.abs(out - (-2.0))) <= 1e-13


def test_exact_nonlinear_flow_preserves_modulus_and_mass():
    rng = np.random.default_rng(6)
    grid = make_grid(-5, 5, 256)
    u = rng.standard_normal(256) + 1j * rng.standard_normal(256)
    s = GridState(grid, u)
    out = s.with_u(nonlinear_flow(u, 7.5, 0.42))
    assert np.max(np.abs(np.abs(out.u) - np.abs(u))) <= 1e-15 * np.max(np.abs(u))
    assert discrete_mass(out) == pytest.approx(discrete_mass(s), rel=1e-14)


def _flow_setup(m=256):
    rng = np.random.default_rng(11)
    grid = make_grid(-8, 8, m)
    op = spectral_operator(grid, 0.5)
    return op, rng.standard_normal(m) + 1j * rng.standard_normal(m)


def _inline_flow(op, u, dt):
    return dft_inverse(np.exp(dt * op.symbol) * dft_forward(u))


def _same_bits(x, y):
    # == on the float64 views: a NaN matches any NaN, and 0.0 matches -0.0.
    return np.array_equal(x.view(np.float64), y.view(np.float64), equal_nan=True)


def _inline_rotation(u, b, dt):
    return u * np.exp(1j * (b * dt) * (u.real**2 + u.imag**2))


def _libm_rotation(u, b, dt):
    # Real cos and sin of every phase, tiny or not.
    phase = (b * dt) * (u.real**2 + u.imag**2)
    rotation = np.empty(phase.shape, dtype=np.complex128)
    rotation.real = np.cos(phase)
    rotation.imag = np.sin(phase)
    return u * rotation


_SPECIALS = np.array([
    0.0, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0),
    np.nan, complex(1.0, np.nan), np.inf, complex(-np.inf, 1.0), complex(0.0, np.inf),
])


def _rotated_state(kind, seed, m, log_scale, zeros):
    rng = np.random.default_rng(seed)
    if kind == "gaussian":  # a semiclassical state: phases tiny over its tails
        u = 10.0**log_scale * np.exp(-np.linspace(-8.0, 8.0, m, endpoint=False) ** 2) + 0j
    elif kind == "unit":  # |u_j|^2 == 1 exactly, so every phase is b*dt
        u = rng.choice(np.array([1.0, -1.0, 1j, -1j]), m)
    else:
        u = 10.0**log_scale * (rng.standard_normal(m) + 1j * rng.standard_normal(m))
    u[rng.random(m) < zeros] = 0.0
    if kind == "specials":
        u[rng.integers(0, m, 8)] = rng.choice(_SPECIALS, 8)
    return u


_TINY_UP = float(np.nextafter(TINY_PHASE, 1.0))
_TINY_DOWN = float(np.nextafter(TINY_PHASE, 0.0))


@example(seed=0, m=64, log_scale=0.0, b=1.0, dt=0.0, zeros=1.0, kind="normal")  # all zeros
@example(seed=1, m=4096, log_scale=4.0, b=1.0, dt=0.3, zeros=0.1, kind="normal")  # phases ~1e8
@example(seed=2, m=4096, log_scale=0.0, b=-1.0, dt=-0.25, zeros=0.0, kind="normal")
@example(seed=3, m=257, log_scale=2.0, b=0.0, dt=0.5, zeros=0.0, kind="normal")
# The eps=0.2 semiclassical reference's AK4 step, both signs of b*dt.
@example(seed=4, m=4096, log_scale=0.0, b=5.0, dt=0.86 / 2000, zeros=0.0, kind="gaussian")
@example(seed=4, m=4096, log_scale=0.0, b=5.0, dt=-0.86 / 2000, zeros=0.0, kind="gaussian")
# Every phase at the tiny-phase bound, or one ulp either side of it.
@example(seed=5, m=16, log_scale=0.0, b=1.0, dt=TINY_PHASE, zeros=0.0, kind="unit")
@example(seed=5, m=16, log_scale=0.0, b=1.0, dt=_TINY_DOWN, zeros=0.0, kind="unit")
@example(seed=5, m=16, log_scale=0.0, b=1.0, dt=_TINY_UP, zeros=0.0, kind="unit")
@example(seed=5, m=16, log_scale=0.0, b=-1.0, dt=_TINY_DOWN, zeros=0.0, kind="unit")
@example(seed=6, m=64, log_scale=0.0, b=1.0, dt=0.3, zeros=0.2, kind="specials")
@example(seed=7, m=64, log_scale=-5.0, b=-2.5, dt=1e-3, zeros=0.2, kind="specials")
@example(seed=8, m=64, log_scale=0.0, b=1.0, dt=-0.0, zeros=0.2, kind="specials")
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(1, 5000),
    log_scale=st.floats(-8.0, 5.0),
    b=st.sampled_from([0.0, 1.0, -1.0, 2.5, 1e3]),
    dt=st.floats(-10.0, 10.0),
    zeros=st.floats(0.0, 1.0),
    kind=st.sampled_from(["normal", "gaussian", "unit", "specials"]),
)
def test_nonlinear_flow_is_bitwise_the_complex_exponential(seed, m, log_scale, b, dt, zeros,
                                                          kind):
    u = _rotated_state(kind, seed, m, log_scale, zeros)
    with np.errstate(invalid="ignore"):  # cos and sin of inf
        out = nonlinear_flow(u, b, dt)
        # Skipping cos and sin at tiny phases gives every bit libm gives.
        assert np.array_equal(out.view(np.int64), _libm_rotation(u, b, dt).view(np.int64))
        assert _same_bits(out, _inline_rotation(u, b, dt))


def test_libm_rounds_tiny_phases_to_one_and_the_phase():
    # nonlinear_flow writes (1, phase) for |phase| < TINY_PHASE instead of
    # calling cos and sin; that is exact only if these hold.
    rng = np.random.default_rng(27)
    x = np.concatenate([
        [TINY_PHASE, _TINY_DOWN, 0.0],
        np.geomspace(TINY_PHASE, 5e-324, 20000),  # down through the subnormals
        rng.uniform(0.5 * TINY_PHASE, TINY_PHASE, 20000),
    ])
    x = np.concatenate([x, -x])
    assert np.all(np.abs(x) <= TINY_PHASE)
    assert np.all(np.cos(x) == 1.0)
    assert np.array_equal(np.sin(x).view(np.int64), x.view(np.int64))


def test_flow_memo_is_bitwise_the_inline_flow():
    op, u = _flow_setup()
    h = 1 / 2000
    ak4 = [c * h for c in scheme("AK4").a]
    # 1-ulp neighbours must not share a factor: their flows differ in the bits.
    neighbour = float(np.nextafter(ak4[0], 1.0))
    assert not _same_bits(_inline_flow(op, u, ak4[0]), _inline_flow(op, u, neighbour))
    sequence = ak4 + ak4 + [-ak4[2], neighbour, ak4[0], -ak4[2], ak4[1], ak4[2]]
    for dt in sequence:
        assert _same_bits(op.flow(u, dt), _inline_flow(op, u, dt)), dt
    assert len(op._phases) == 5


# Each operator memo: the call that fills it per key, and that call inline.
_MEMOS = {
    "_phases": (SpectralOperator.flow, _inline_flow),
    "_shifts": (lambda op, u, mu: op.shifted(mu), lambda op, u, mu: 1.0 - mu * op.symbol),
}


@pytest.mark.parametrize("memo", _MEMOS)
def test_operator_memo_stays_bounded_and_recomputes_after_clearing(memo):
    op, u = _flow_setup(64)
    call, inline = _MEMOS[memo]
    entries = getattr(op, memo)
    first = 0.01
    call(op, u, first)
    for k in range(1, 5 * FLOW_MEMO_SIZE):
        call(op, u, first + k * 1e-3)
        assert len(entries) <= FLOW_MEMO_SIZE
    assert first not in entries
    assert _same_bits(call(op, u, first), inline(op, u, first))
    assert first in entries


@pytest.mark.parametrize("memo", _MEMOS)
def test_operator_memo_entries_are_read_only(memo):
    op, u = _flow_setup(64)
    _MEMOS[memo][0](op, u, 0.02)
    (factor,) = getattr(op, memo).values()
    assert not factor.flags.writeable
    with pytest.raises(ValueError):
        factor[0] = 0.0


@pytest.mark.parametrize("memo", _MEMOS)
def test_operator_memo_is_not_part_of_equality_or_repr(memo):
    # Operators compare by identity, so a filled memo leaves an operator
    # equal to itself only; the memo stays out of its repr.
    op, u = _flow_setup(64)
    twin = SpectralOperator(op.grid, op.symbol)
    _MEMOS[memo][0](op, u, 0.02)
    assert getattr(op, memo) and not getattr(twin, memo)
    assert op == op and op != twin
    assert memo not in repr(op)


def test_operators_compare_by_identity():
    op = spectral_operator(make_grid(-8, 8, 64), 1.0)
    twin = spectral_operator(op.grid, 1.0)
    assert op == op and op != twin and op != "operator"
    assert {op: "sp"}[op] == "sp" and twin not in {op: "sp"}
