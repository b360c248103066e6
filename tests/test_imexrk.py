import functools

import numpy as np
import pytest

from helpers import per_term_step, shifted_solve
from nlslab import relaxation, spectral
from nlslab.core import ConfigurationError, DimensionMismatchError, make_grid
from nlslab.fem import FemStiffPart, assemble
from nlslab.imexrk import ImExTableau, imex_step, order_conditions_residual, tableau
from nlslab.oracles import soliton_exact, soliton_initial
from nlslab.relaxation import integrate_imex, make_imex_stepper
from nlslab.spectral import SpectralOperator, fem_operator, spectral_operator, spectral_parts


def test_registry_shapes():
    t3 = tableau("ImEx3")
    assert (t3.s, t3.order, t3.embedded_order) == (4, 3, 2)
    t4 = tableau("ImEx4")
    assert (t4.s, t4.order, t4.embedded_order) == (6, 4, 3)
    with pytest.raises(ConfigurationError):
        tableau("ImEx5")


@pytest.mark.parametrize("name", ["ImEx3", "ImEx4"])
def test_row_sums_match_abscissae(name):
    t = tableau(name)
    assert np.max(np.abs(t.a_im.sum(axis=1) - t.c)) <= 1e-14
    assert np.max(np.abs(t.a_ex.sum(axis=1) - t.c)) <= 1e-14
    assert abs(t.b_main.sum() - 1.0) <= 1e-14
    assert abs(t.b_embedded.sum() - 1.0) <= 1e-14


@pytest.mark.parametrize("name", ["ImEx3", "ImEx4"])
def test_order_conditions(name):
    t = tableau(name)
    assert order_conditions_residual(t, t.order) <= 1e-12
    assert order_conditions_residual(t, t.embedded_order, weights="embedded") <= 1e-12
    assert order_conditions_residual(t, t.order + 1) > 1e-3


def test_tableaus_compare_and_hash_by_identity():
    t4, twin = tableau("ImEx4"), tableau("ImEx4")
    assert t4 == t4 and t4 != twin and t4 != "ImEx4"
    assert {t4: "ImEx4"}[t4] == "ImEx4" and twin not in {t4: "ImEx4"}
    assert "stage_rows" not in repr(t4) and "increment_rows" not in repr(t4)


@pytest.mark.parametrize("name", ["ImEx3", "ImEx4"])
def test_interleaved_rows_hold_the_tableau(name):
    t = tableau(name)
    assert np.array_equal(t.stage_rows[:, 0::2], t.a_im)
    assert np.array_equal(t.stage_rows[:, 1::2], t.a_ex)
    for rows in (t.increment_rows[:, 0::2], t.increment_rows[:, 1::2]):
        assert np.array_equal(rows, [t.b_main, t.b_embedded])


def test_order_conditions_forward_euler_pair():
    t = ImExTableau(
        "euler",
        1,
        np.zeros((1, 1)),
        np.zeros((1, 1)),
        np.zeros(1),
        np.ones(1),
        np.ones(1),
        1,
        1,
    )
    assert order_conditions_residual(t, 1) == 0.0


def test_order_conditions_bounded_order():
    with pytest.raises(ConfigurationError):
        order_conditions_residual(tableau("ImEx4"), 6)


def test_esdirk_constant_diagonal():
    for name in ("ImEx3", "ImEx4"):
        t = tableau(name)
        diag = np.diag(t.a_im)
        assert diag[0] == 0.0
        nonzero = diag[1:]
        assert np.all(nonzero == nonzero[0])


def _multiplier(symbol):
    """A stiff part with a chosen symbol, on a periodic grid of its length."""
    symbol = np.asarray(symbol, dtype=complex)
    return SpectralOperator(make_grid(0, 1, len(symbol)), symbol)


def test_zero_vector_field_is_identity():
    t = tableau("ImEx3")
    u = np.array([1.0 + 2j, -0.5j, 3.0, 0.25])
    inc = imex_step(u, t, 0.1, _multiplier(np.zeros(4)), lambda g: np.zeros_like(g))
    assert np.array_equal(inc.u_next, u)
    assert np.all(inc.d1 == 0) and np.all(inc.d2 == 0)


def test_imex_step_refuses_a_stiff_part_that_is_not_a_multiplier():
    grid = make_grid(-4, 4, 8)
    part = FemStiffPart(assemble(8, grid.dx, "periodic", beta=1.0))
    with pytest.raises(ConfigurationError, match="FemStiffPart"):
        imex_step(np.ones(8, dtype=complex), tableau("ImEx3"), 0.1, part, lambda g: 0 * g)


def test_imex_step_refuses_a_vector_off_the_operator_grid(monkeypatch):
    # Refused before the first transform, as SpectralOperator.apply does,
    # not left to numpy's broadcast error inside a stage.
    op = spectral_operator(make_grid(0, 1, 8), 1.0)
    monkeypatch.setattr(spectral, "dft_forward", lambda u: pytest.fail("transformed"))
    with pytest.raises(DimensionMismatchError, match="length 6 on a grid of m=8"):
        imex_step(np.ones(6, complex), tableau("ImEx3"), 0.1, op, lambda g: 0 * g)


def _dirk_reference(matrix, u0, dt, steps, a_im, b):
    """Standalone DIRK applied to u' = A u; written independently of imex_step."""
    n = len(b)
    eye = np.eye(matrix.shape[0])
    u = u0.copy()
    for _ in range(steps):
        k = []
        for i in range(n):
            rhs = u.copy()
            for j in range(i):
                rhs = rhs + dt * a_im[i, j] * k[j]
            gi = np.linalg.solve(eye - dt * a_im[i, i] * matrix, rhs)
            k.append(matrix @ gi)
        u = u + dt * sum(bj * kj for bj, kj in zip(b, k))
    return u


@pytest.mark.parametrize("name", ["ImEx3", "ImEx4"])
def test_matches_standalone_dirk_on_linear_system(name):
    # A diagonalisable linear system is a multiplier in its eigenbasis: the
    # symbol holds the eigenvalues of [[0, 1], [-4, -0.3]], a decaying and a
    # purely dispersive mode, and the reference steps that diagonal system
    # on the DFT coefficients of u.
    t = tableau(name)
    symbol = np.concatenate([np.linalg.eigvals([[0.0, 1.0], [-4.0, -0.3]]), [-2.0, 3j]])
    u0 = np.array([1.0, 0.25, -0.5 + 1j, 2j])
    dt, steps = 0.05, 20
    part = _multiplier(symbol)
    u = u0.copy()
    for _ in range(steps):
        u = imex_step(u, t, dt, part, lambda g: np.zeros_like(g)).u_next
    ref_hat = _dirk_reference(np.diag(symbol), np.fft.fft(u0), dt, steps, t.a_im, t.b_main)
    ref = np.fft.ifft(ref_hat)
    assert np.max(np.abs(u - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.fixture(scope="module")
def soliton_setup():
    grid = make_grid(-35, 35, 448)
    op = spectral_operator(grid, 1.0)
    s0, beta = soliton_initial(1, grid)
    stiff, nonstiff = spectral_parts(op, beta)
    return grid, s0, stiff, nonstiff


@pytest.mark.parametrize("name,order,tol", [("ImEx3", 3.0, 0.25), ("ImEx4", 4.0, 0.3)])
def test_global_convergence_orders(soliton_setup, name, order, tol):
    grid, s0, stiff, nonstiff = soliton_setup
    t = tableau(name)
    stepper = make_imex_stepper(t, stiff, nonstiff)
    dts = [1 / 50, 1 / 100, 1 / 200, 1 / 400]
    errors = []
    for dt in dts:
        out, _ = integrate_imex(s0, stepper, dt, 1.0)
        errors.append(np.max(np.abs(out.u - soliton_exact(1, grid.nodes, out.t))))
    slope = np.polyfit(np.log(dts), np.log(errors), 1)[0]
    assert slope == pytest.approx(order, abs=tol)


@pytest.mark.parametrize("name", ["ImEx3", "ImEx4"])
def test_embedded_difference_order(soliton_setup, name):
    grid, s0, stiff, nonstiff = soliton_setup
    t = tableau(name)
    norms = []
    dts = [0.02, 0.01, 0.005, 0.0025]
    for dt in dts:
        inc = imex_step(s0.u, t, dt, stiff, nonstiff)
        norms.append(np.linalg.norm(inc.d1 - inc.d2))
    slope = np.polyfit(np.log(dts), np.log(norms), 1)[0]
    assert slope >= t.embedded_order - 0.3


@pytest.mark.parametrize("dt", [0.05, 0.01])
@pytest.mark.parametrize("make_operator", [spectral_operator, fem_operator])
@pytest.mark.parametrize("name", ["ImEx3", "ImEx4"])
def test_stage_kernel_matches_per_term_reference(name, make_operator, dt):
    grid = make_grid(-35, 35, 448)
    s0, beta = soliton_initial(2, grid)
    stiff, nonstiff = spectral_parts(make_operator(grid, 1.0), beta)
    t = tableau(name)
    inc = imex_step(s0.u, t, dt, stiff, nonstiff)
    solve = functools.partial(shifted_solve, stiff)
    u_next, d1, d2 = per_term_step(s0.u, t, dt, stiff.apply, solve, nonstiff)
    # The stage derivatives grow like 1/dt at the stiff modes; dt*d is on
    # the scale of the state, as the update u + dt*d1 uses it.
    ulps = 10 * np.finfo(float).eps * np.max(np.abs(s0.u))
    assert np.max(np.abs(inc.u_next - u_next)) <= ulps
    assert dt * np.max(np.abs(inc.d1 - d1)) <= ulps
    assert dt * np.max(np.abs(inc.d2 - d2)) <= ulps


@pytest.mark.parametrize("make_operator", [spectral_operator, fem_operator])
@pytest.mark.parametrize("name,transforms", [("ImEx3", 10), ("ImEx4", 14)])
def test_multiplier_step_transform_count(name, transforms, make_operator, monkeypatch):
    # One forward DFT of u and of each stage's cubic term, one inverse DFT
    # per implicit stage and per increment; counted where a tracer counts.
    grid = make_grid(-35, 35, 448)
    s0, beta = soliton_initial(2, grid)
    stiff, nonstiff = spectral_parts(make_operator(grid, 1.0), beta)
    calls = []
    for attr in ("dft_forward", "dft_inverse"):
        original = getattr(spectral, attr)

        def counted(u, original=original):
            calls.append(u)
            return original(u)

        monkeypatch.setattr(spectral, attr, counted)
    imex_step(s0.u, tableau(name), 0.01, stiff, nonstiff)
    assert len(calls) == transforms


@pytest.mark.parametrize("name", ["ImEx3", "ImEx4"])
def test_stepper_reuses_its_stages_but_not_its_increments(soliton_setup, name, monkeypatch):
    grid, s0, stiff, nonstiff = soliton_setup
    t = tableau(name)
    passed = []

    def recording_step(*args, _stages=None):
        passed.append(_stages)
        return imex_step(*args, _stages=_stages)

    monkeypatch.setattr(relaxation, "imex_step", recording_step)
    stepper = make_imex_stepper(t, stiff, nonstiff)
    first = stepper(s0.u, 0.01)
    kept = [first.u_next.copy(), first.d1.copy(), first.d2.copy()]
    second = stepper(first.u_next, 0.02)
    assert passed[0] is not None and passed[1] is passed[0]
    for array, copy in zip((first.u_next, first.d1, first.d2), kept):
        assert np.array_equal(array, copy)
    # The reused stage array gives what a step with its own array gives.
    alone = imex_step(first.u_next, t, 0.02, stiff, nonstiff)
    for a, b in zip((second.u_next, second.d1, second.d2), (alone.u_next, alone.d1, alone.d2)):
        assert np.array_equal(a, b)
    # One operator per length: its stepper's complex stage array fits that
    # length and serves real and complex vectors alike.
    for m in (4, 6):
        zero = _multiplier(np.zeros(m))
        rotate = make_imex_stepper(t, zero, lambda g: -0.5 * g)
        for u in (np.arange(float(m)), np.arange(float(m)) + 1j):
            expected = imex_step(u, t, 0.1, zero, lambda g: -0.5 * g).u_next
            assert np.array_equal(rotate(u, 0.1).u_next, expected)
        assert passed[-1] is passed[-2]
        assert passed[-1].shape == (2 * t.s, m) and passed[-1].dtype == np.complex128
    # A multiplier's stages are DFT coefficients, complex for a real u too.
    real = s0.u.real.copy()
    expected = imex_step(real, t, 0.01, stiff, nonstiff).u_next
    assert np.array_equal(make_imex_stepper(t, stiff, nonstiff)(real, 0.01).u_next, expected)
