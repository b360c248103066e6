import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.integrate import quad

from helpers import random_family, restriction_mismatch
from nlslab.core import (
    FAMILY_MONOMIALS,
    NATURAL,
    PERIODIC,
    ConfigurationError,
    GridState,
    NumericalFailureError,
    discrete_energy,
    discrete_mass,
    dft_forward,
    dft_inverse,
    energy_functional,
    exact_dot,
    exact_sum,
    gradient_finite_difference,
    make_grid,
    mass_functional,
)


def test_make_grid_benchmark_meshes():
    assert make_grid(-35, 35, 1120).dx == 0.0625
    assert make_grid(-8, 8, 1024).dx == 1 / 64


def test_make_grid_small_periodic_nodes():
    grid = make_grid(0, 1, 4)
    assert np.array_equal(grid.nodes, [0.0, 0.25, 0.5, 0.75])


def test_make_grid_natural_includes_endpoints():
    grid = make_grid(-1, 1, 5, bc="natural")
    assert grid.dx == 0.5
    assert grid.nodes[0] == -1.0 and grid.nodes[-1] == 1.0


@pytest.mark.parametrize("bc", ["periodic", "natural"])
def test_grid_uniform_spacing(bc):
    # uniform relative to the coordinate magnitude: differences of doubles
    # near |x| = 35 cannot resolve the spacing itself to 1e-14
    grid = make_grid(-3.7, 12.9, 257, bc=bc)
    gaps = np.diff(grid.nodes)
    scale = max(1.0, float(np.max(np.abs(grid.nodes))))
    assert np.max(np.abs(gaps - grid.dx)) <= 1e-14 * scale


def test_grids_compare_by_identity():
    # A grid equals only itself and hashes by identity; numpy would refuse
    # the generated field-by-field comparison of its node array.
    grid = make_grid(-8, 8, 64)
    twin = make_grid(-8, 8, 64)
    assert grid == grid and grid != twin and grid != "grid"
    assert {grid: "fine"}[grid] == "fine" and twin not in {grid: "fine"}


def test_make_grid_rejects_bad_configs():
    with pytest.raises(ConfigurationError):
        make_grid(-1, 1, 3)
    with pytest.raises(ConfigurationError):
        make_grid(2, 2, 64)
    with pytest.raises(ConfigurationError):
        make_grid(0, 1, 16, bc="dirichlet")


def test_state_rejects_nonfinite_and_mismatch():
    grid = make_grid(0, 1, 8)
    with pytest.raises(NumericalFailureError):
        GridState(grid, np.full(8, np.nan, dtype=complex))
    with pytest.raises(Exception):
        GridState(grid, np.ones(7, dtype=complex))


def test_dft_roundtrip():
    rng = np.random.default_rng(7)
    u = rng.standard_normal(1120) + 1j * rng.standard_normal(1120)
    back = dft_inverse(dft_forward(u))
    assert np.max(np.abs(back - u)) <= 1e-13 * np.max(np.abs(u))


def test_dft_constant_concentrates_in_mode_zero():
    c = 2.5 - 1.25j
    spec = dft_forward(np.full(1120, c))
    assert abs(spec[0] - 1120 * c) <= 1e-12 * abs(1120 * c)
    assert np.max(np.abs(spec[1:])) <= 1e-14 * abs(spec[0])


def test_dft_single_mode_matches_direct_summation():
    # O(m^2) direct summation as the independent oracle
    m = 48
    grid = make_grid(-2, 5, m)
    xi1 = 2 * np.pi / (grid.dx * grid.m)
    u = np.exp(1j * xi1 * grid.nodes)
    direct = np.array(
        [sum(u[j] * np.exp(-2j * np.pi * k * j / m) for j in range(m)) for k in range(m)]
    )
    spec = dft_forward(u)
    assert np.max(np.abs(spec - direct)) <= 1e-12 * m
    big = np.abs(spec) > 1e-10 * np.max(np.abs(spec))
    assert big.sum() == 1 and big[1]


def test_dft_linearity():
    rng = np.random.default_rng(3)
    u = rng.standard_normal(256) + 1j * rng.standard_normal(256)
    v = rng.standard_normal(256) + 1j * rng.standard_normal(256)
    lhs = dft_forward(2.0 * u + (1 - 3j) * v)
    rhs = 2.0 * dft_forward(u) + (1 - 3j) * dft_forward(v)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(lhs))


def test_mass_constant_state():
    grid = make_grid(0, 2, 4)  # dx = 0.5
    assert discrete_mass(GridState(grid, np.ones(4, dtype=complex))) == 2.0


def test_mass_zero_state():
    grid = make_grid(0, 2, 16)
    assert discrete_mass(GridState(grid, np.zeros(16, dtype=complex))) == 0.0


def test_mass_of_sech_matches_quadrature():
    grid = make_grid(-35, 35, 1120)
    s = GridState(grid, 1 / np.cosh(grid.nodes) + 0j)
    oracle, err = quad(lambda x: 1 / np.cosh(x) ** 2, -35, 35, points=[0.0])
    assert err < 1e-9
    assert abs(oracle - 2.0) < 1e-12
    assert discrete_mass(s) == pytest.approx(2.0, abs=1e-10)


def test_mass_degree_two_homogeneity():
    rng = np.random.default_rng(11)
    grid = make_grid(-4, 4, 200)
    u = rng.standard_normal(200) + 1j * rng.standard_normal(200)
    s = GridState(grid, u)
    c = 1.7 - 0.6j
    scaled = GridState(grid, c * u)
    assert discrete_mass(scaled) == pytest.approx(
        abs(c) ** 2 * discrete_mass(s), rel=1e-13
    )


def test_energy_constant_state_is_pure_quartic():
    grid = make_grid(-5, 9, 64)
    c = 1.25 - 0.5j
    beta = 1.3
    s = GridState(grid, np.full(64, c))
    expected = -(beta / 2) * abs(c) ** 4 * (grid.dx * grid.m)
    assert discrete_energy(s, beta) == pytest.approx(expected, rel=1e-12)


def test_energy_of_sech_matches_quadrature():
    grid = make_grid(-35, 35, 1120)
    s = GridState(grid, 1 / np.cosh(grid.nodes) + 0j)
    kinetic, _ = quad(lambda x: np.tanh(x) ** 2 / np.cosh(x) ** 2, -35, 35, points=[0.0])
    quartic, _ = quad(lambda x: 1 / np.cosh(x) ** 4, -35, 35, points=[0.0])
    oracle = kinetic - quartic  # beta = 2
    assert oracle == pytest.approx(-2 / 3, abs=1e-12)
    assert discrete_energy(s, 2.0) == pytest.approx(oracle, abs=1e-3)


def test_energy_zero_state_and_beta_zero_sign():
    grid = make_grid(0, 1, 32)
    assert discrete_energy(GridState(grid, np.zeros(32, dtype=complex)), 5.0) == 0.0
    rng = np.random.default_rng(5)
    u = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    assert discrete_energy(GridState(grid, u), 0.0) >= 0.0


@pytest.mark.parametrize("bc", ["periodic", "natural"])
@pytest.mark.parametrize("kind", ["mass", "energy"])
def test_invariant_gradients_match_finite_differences(bc, kind):
    rng = np.random.default_rng(42)
    grid = make_grid(-2, 2, 24, bc=bc)
    u = 0.5 * (rng.standard_normal(24) + 1j * rng.standard_normal(24))
    s = GridState(grid, u)
    functional = mass_functional() if kind == "mass" else energy_functional(2.0)
    grad = functional.gradient(s)
    fd = gradient_finite_difference(functional, s, step=1e-7)
    scale = np.max(np.abs(grad))
    assert np.max(np.abs(fd - grad)) <= 1e-6 * scale


@given(
    m=st.integers(8, 64),
    seed=st.integers(0, 2**32 - 1),
    g1=st.floats(-1.0, 1.0),
    g2=st.floats(-1.0, 1.0),
    bc=st.sampled_from([PERIODIC, NATURAL]),
    beta=st.floats(0.5, 20.0),
    a=st.floats(0.1, 2.0),
)
def test_restrict_is_the_functional_along_the_family(m, seed, g1, g2, bc, beta, a):
    grid = make_grid(-4.0, 4.0, m, bc=bc)
    u0, A, B = random_family(m, seed)
    pairs = [
        (mass_functional(), mass_functional()),
        (energy_functional(beta, a), energy_functional(-beta, a)),
    ]
    for functional, magnitude in pairs:
        error, size = restriction_mismatch(functional, magnitude, grid, u0, A, B, g1, g2)
        assert error <= 1e-12 * size
        coeffs = functional.restrict(u0, A, B, grid)
        for i in range(5):
            for j in range(5):
                if (i, j) not in FAMILY_MONOMIALS:
                    assert coeffs[i, j] == 0.0
    mass_coeffs = mass_functional().restrict(u0, A, B, grid)
    assert all(mass_coeffs[i, j] == 0.0 for i, j in FAMILY_MONOMIALS if i + j >= 3)
    assert any(mass_coeffs[i, j] != 0.0 for i, j in FAMILY_MONOMIALS)


def test_dft_rejects_empty_and_multidimensional_input():
    from nlslab.core import DimensionMismatchError

    with pytest.raises(DimensionMismatchError):
        dft_forward(np.empty(0, dtype=complex))
    with pytest.raises(DimensionMismatchError):
        dft_inverse(np.ones((4, 4), dtype=complex))


def _dft_input(kind: str, m: int) -> np.ndarray:
    """A length-m vector of one dtype or memory layout."""
    rng = np.random.default_rng(m)
    u = rng.standard_normal(m)
    if kind == "real":
        return u
    if kind == "float32":
        return u.astype(np.float32)
    u = u + 1j * rng.standard_normal(m)
    if kind == "strided":
        return np.repeat(u, 2)[::2]
    if kind == "read-only":
        u.setflags(write=False)
    elif kind == "big-endian":
        u = u.astype(">c16")
    elif kind == "unaligned":
        buffer = np.zeros(16 * m + 1, dtype=np.uint8)
        view = buffer[1:].view(np.complex128)
        view[:] = u
        assert not view.flags.aligned
        return view
    return u


# The workload and reference sizes (512 to 8192), primes and odd composites.
@pytest.mark.parametrize("m", [1, 2, 7, 97, 512, 1000, 1120, 2048, 4096, 4097, 4480, 8192])
@pytest.mark.parametrize(
    "kind", ["complex", "real", "strided", "read-only", "big-endian", "unaligned", "float32"]
)
def test_dft_is_bitwise_numpy_fft(m, kind):
    # pocketfft's compiled c2c behind the helpers, called without scipy's
    # Python wrappers from scipy's private pypocketfft module, must round
    # exactly like numpy.fft, so that a scipy or numpy update that diverges,
    # or moves the binding, fails here instead of moving outputs.  The
    # binding takes any complex128 vector that is aligned and in native byte
    # order, a strided view too; every other input is copied first, and no
    # input is written to.
    from nlslab.core import _dft_operand

    u = _dft_input(kind, m)
    before = u.tobytes()
    assert (_dft_operand(u) is u) == (kind in ("complex", "strided", "read-only"))
    # numpy transforms float32 in single precision, ours its complex128 cast
    reference = u.astype(np.complex128) if kind == "float32" else u
    for ours, numpys in ((dft_forward, np.fft.fft), (dft_inverse, np.fft.ifft)):
        out = ours(u)
        assert out.dtype == np.complex128 and not np.shares_memory(out, u)
        assert np.array_equal(out.view(np.float64), numpys(reference).view(np.float64))
    assert u.tobytes() == before


def test_first_transform_imports_no_scipy_fftpack():
    # the transform binds pocketfft's compiled c2c, not scipy.fftpack
    code = (
        "import sys, numpy, nlslab.core; nlslab.core.dft_forward(numpy.ones(8)); "
        "print(sorted(m for m in sys.modules if m.startswith('scipy.fftpack')), "
        "'scipy.fft._pocketfft.pypocketfft' in sys.modules)"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, check=True,
    )
    assert proc.stdout.strip() == "[] True"


# exact_sum / exact_dot against math.fsum, the exactly rounded reference.
# Large arrays come from a numpy generator seeded by hypothesis, because
# drawing 10k floats one by one is slow; small lists exercise every float.


def _outcome(fn, *args):
    """Result as its exact bits (hex keeps the sign of zero), or the error."""
    try:
        return fn(*args).hex()
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


def _binades(rng, n: int, spread: int) -> np.ndarray:
    return rng.standard_normal(n) * np.exp2(rng.integers(-spread, spread + 1, n).astype(float))


def _positive(rng, n, shift):
    return rng.random(n) * np.exp2(rng.integers(-40, 41, n).astype(float))


def _mixed(rng, n, shift):
    return _binades(rng, n, 200)


def _cancelling(rng, n, shift):
    # x and -x(1+delta), with delta nonzero only on the terms more than
    # 2**shift below the largest: the large terms cancel exactly, leaving a
    # sum with condition number up to about 2**(shift + 53).
    x = _binades(rng, n // 2, 200)
    small = np.abs(x) < 2.0**-shift * np.abs(x).max(initial=0.0)
    delta = rng.uniform(-1.0, 1.0, x.size) * small
    return rng.permutation(np.concatenate([x, -x * (1.0 + delta)]))


def _crowded(rng, n, shift):
    # terms just below 1, so the sum of the extracted parts comes close to
    # sigma = 2**ceil(log2(n + 2))
    return 1.0 - rng.random(n) * 2.0**-20


def _at_width_steps(test):
    # ceil(log2(n + 2)) grows by one from n = 2**k - 2 to n = 2**k - 1
    for k in (2, 5, 10, 13):
        for n in (2**k - 2, 2**k - 1, 2**k):
            test = example(n=n, seed=n, shift=60)(test)
    return test


@pytest.mark.parametrize("family", [_positive, _mixed, _cancelling, _crowded])
@given(
    n=st.integers(0, 10_000),
    seed=st.integers(0, 2**32 - 1),
    shift=st.integers(0, 400),
)
@_at_width_steps
def test_exact_sum_is_fsum_bit_for_bit(family, n, seed, shift):
    values = family(np.random.default_rng(seed), n, shift)
    assert exact_sum(values).hex() == math.fsum(values.tolist()).hex()


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=200))
def test_exact_sum_matches_fsum_on_any_finite_list(values):
    # Faithful (within one ulp) is the least the invariants need; the
    # extraction loop settles the rounding, so the result is fsum's exactly,
    # including signed zeros and sums that overflow.
    assert _outcome(exact_sum, values) == _outcome(math.fsum, values)


@given(
    n=st.integers(0, 10_000),
    seed=st.integers(0, 2**32 - 1),
    shift=st.none() | st.integers(0, 400),
)
def test_exact_dot_is_fsum_of_products(n, seed, shift):
    rng = np.random.default_rng(seed)
    if shift is None:
        x, y = _binades(rng, n, 100), _binades(rng, n, 100)
    else:
        # a constant factor keeps the exact cancellation of the large terms
        x = _cancelling(rng, n, shift)
        y = np.full(x.size, rng.uniform(0.5, 2.0))
    assert exact_dot(x, y).hex() == math.fsum((x * y).tolist()).hex()


@given(
    st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=50),
    st.lists(st.sampled_from([math.inf, -math.inf, math.nan]), min_size=1, max_size=3),
    st.randoms(use_true_random=False),
)
def test_exact_sum_nonfinite_input_behaves_like_fsum(finite, special, rnd):
    values = finite + special
    rnd.shuffle(values)
    assert _outcome(exact_sum, values) == _outcome(math.fsum, values)
    assert _outcome(exact_sum, np.array(values)) == _outcome(math.fsum, values)


# The kernel's paths.  One extraction round settles a sum when its a-priori
# bound cannot change the rounding; near a tie, under cancellation and near
# underflow the loop runs.  Each is checked bit for bit against math.fsum.


@pytest.mark.parametrize(
    "values, expected",
    [
        ([1.0, 2.0**-53], 1.0),  # an exact tie: rounds to even
        ([1.0, 2.0**-53, 2.0**-150], 1.0 + 2.0**-52),  # just above the tie
        ([1.0, 2.0**-53, -(2.0**-150)], 1.0),  # just below it
    ],
)
def test_exact_sum_settles_near_ties(values, expected):
    assert exact_sum(values).hex() == math.fsum(values).hex() == expected.hex()


@pytest.mark.parametrize(
    "values",
    [[2.0**-1000, 3 * 2.0**-1001, 5e-324], [5e-324] * 7],
    ids=["near-underflow", "subnormals"],
)
def test_exact_sum_of_tiny_magnitudes(values):
    # the first round's bound would not be a normal float here
    assert exact_sum(values).hex() == math.fsum(values).hex()
    assert exact_sum(np.array(values)).hex() == math.fsum(values).hex()
