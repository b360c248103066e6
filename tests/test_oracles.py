import numpy as np
import pytest

from nlslab import splitting
from nlslab.core import ConfigurationError, GridState, discrete_mass, make_grid
from nlslab.harness import ExperimentConfig, SemiclassicalReference
from helpers import pde_residual

from nlslab.oracles import (
    SOLITON_CLAMP_X,
    _SOLITON_TERMS,
    density,
    semiclassical_initial,
    semiclassical_problem,
    soliton_exact,
    soliton_initial,
    subsample,
)


def test_one_soliton_at_origin():
    assert soliton_exact(1, 0.0, 0.0) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_initial_profile_is_sech(n):
    x = np.linspace(-20, 20, 401)
    u0 = soliton_exact(n, x, 0.0)
    assert np.max(np.abs(u0 - 1 / np.cosh(x))) <= 1e-13


def test_two_soliton_modulus_period():
    rng = np.random.default_rng(9)
    for _ in range(20):
        x = rng.uniform(-10, 10)
        t = rng.uniform(0, 4)
        a = abs(soliton_exact(2, x, t))
        b = abs(soliton_exact(2, x, t + np.pi / 4))
        assert abs(a - b) <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
def test_soliton_solves_the_equation(n):
    rng = np.random.default_rng(100 + n)
    worst = 0.0
    for _ in range(100):
        x = rng.uniform(-5, 5)
        t = rng.uniform(0, 3)
        worst = max(worst, pde_residual(n, x, t))
    assert worst <= 1e-5


@pytest.mark.parametrize("n", [1, 2, 3])
def test_exact_mass_time_independent(n):
    grid = make_grid(-35, 35, 2048)
    masses = [
        discrete_mass(GridState(grid, soliton_exact(n, grid.nodes, t), t))
        for t in (0.0, 0.7, 1.9)
    ]
    assert max(masses) - min(masses) <= 1e-10


def _uncached_soliton(n, x, t):
    """The evaluator before its x-dependent factors were cached, verbatim."""

    def exp_sum(terms, x, t):
        ks = np.array([k for _, k, _ in terms], dtype=float)
        shift = np.where(x >= 0, ks.max() * x, ks.min() * x)
        total = np.zeros(x.shape, dtype=np.complex128)
        for c, k, w in terms:
            total += c * np.exp((k * x - shift) + 1j * (w * t))
        return shift, total

    num_terms, den_terms = _SOLITON_TERMS[n]
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    inside = np.abs(x_arr) <= SOLITON_CLAMP_X
    xs = np.where(inside, x_arr, 0.0)
    num_shift, num = exp_sum(num_terms, xs, t)
    den_shift, den = exp_sum(den_terms, xs, t)
    out = np.exp(num_shift - den_shift) * (num / den)
    out[~inside] = 0.0
    if np.isscalar(x) or np.asarray(x).ndim == 0:
        return out[0]
    return out


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cached_soliton_is_bitwise_the_uncached_formula(n):
    points = np.concatenate([np.linspace(-45.0, 45.0, 901), [-40.5, -40.0, 40.0, 41.0]])
    for t in (0.0, 1e-9, 0.37, 1.9, 7.25, 20.0):
        for x in (points, points[::-7], 0.0, -3.3, 44.0):
            got = soliton_exact(n, x, t)
            want = _uncached_soliton(n, x, t)
            assert np.shape(got) == np.shape(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_soliton_cache_sees_in_place_changes():
    x = np.linspace(-5.0, 5.0, 64)
    before = soliton_exact(2, x, 0.6)
    x += 0.75  # same array object, new values
    after = soliton_exact(2, x, 0.6)
    assert after.tobytes() == _uncached_soliton(2, x, 0.6).tobytes()
    assert not np.array_equal(after, before)
    x[10] = 50.0
    assert soliton_exact(2, x, 0.6)[10] == 0.0


def test_far_field_clamps_to_zero():
    assert soliton_exact(2, 45.0, 1.3) == 0.0
    assert soliton_exact(3, -41.0, 0.2) == 0.0
    vals = soliton_exact(2, np.array([-50.0, 0.0, 50.0]), 0.0)
    assert vals[0] == 0.0 and vals[2] == 0.0 and abs(vals[1] - 1.0) < 1e-14


def test_soliton_initial_betas_and_peak():
    grid = make_grid(-35, 35, 1120)
    state, beta = soliton_initial(2, grid)
    assert beta == 8.0
    assert soliton_initial(3, grid)[1] == 18.0
    nearest_origin = np.argmin(np.abs(grid.nodes))
    assert np.argmax(np.abs(state.u)) == nearest_origin
    assert np.max(np.abs(state.u)) == pytest.approx(1.0, abs=1e-6)


def test_semiclassical_initial_data():
    grid = make_grid(-8, 8, 512)
    const = semiclassical_initial("constant_phase", 0.2, grid)
    at_zero = np.argmin(np.abs(grid.nodes))
    assert const.u[at_zero] == pytest.approx(1.0, abs=1e-14)
    varying = semiclassical_initial("varying_phase", 0.2, grid)
    assert np.max(np.abs(np.abs(varying.u) - np.exp(-grid.nodes**2))) <= 1e-14
    assert np.angle(varying.u[at_zero]) == pytest.approx(2.5, abs=1e-12)
    with pytest.raises(ConfigurationError):
        semiclassical_initial("square", 0.2, grid)


def test_density_values():
    grid = make_grid(0, 1, 4)
    rho = density(GridState(grid, np.full(4, 1 + 1j)))
    assert np.allclose(rho, 2.0, atol=1e-15)
    assert np.all(density(GridState(grid, np.zeros(4, dtype=complex))) == 0.0)
    s = GridState(grid, np.array([0.3, 1 - 2j, 0.1j, 2.0]))
    assert grid.dx * density(s).sum() == pytest.approx(discrete_mass(s), rel=1e-15)


def test_subsample_nested_grids():
    fine = make_grid(-35, 35, 1120)
    coarse = make_grid(-35, 35, 280)
    fs = GridState(fine, 1 / np.cosh(fine.nodes) + 0j, 1.5)
    cs = subsample(fs, coarse)
    assert np.array_equal(cs.u, 1 / np.cosh(coarse.nodes) + 0j)
    assert cs.t == 1.5
    with pytest.raises(ConfigurationError):
        subsample(fs, make_grid(-35, 35, 300))


def _reference(**keys):
    cfg = ExperimentConfig("semiclassical", eps=0.2, **keys)
    return SemiclassicalReference(cfg, semiclassical_problem(cfg.eps))


def test_semiclassical_reference_self_consistency():
    base = _reference(dx_ref=1 / 256, dt_ref=1 / 2000).state_at(0.8)
    finer = _reference(dx_ref=1 / 512, dt_ref=1 / 4000).state_at(0.8)
    coarse_view = subsample(finer, base.grid)
    assert np.max(np.abs(base.u - coarse_view.u)) <= 1e-8


def test_semiclassical_reference_reuses_a_state_within_the_landing_tolerance(monkeypatch):
    # The step loop stops anywhere within 1e-12 of its target time (T <= 1),
    # so the state cached for 0.8 answers every query that close to 0.8.
    reference = _reference(dx_ref=1 / 64, dt_ref=1 / 2000)
    cached = reference.state_at(0.8)
    original, runs = splitting.integrate_splitting, []

    def integrate(*args, **kwargs):
        runs.append(args[-1])
        return original(*args, **kwargs)

    monkeypatch.setattr(splitting, "integrate_splitting", integrate)
    for t in (0.8 - 5e-13, 0.8, 0.8 + 5e-13):
        assert reference.state_at(t) is cached
    assert runs == []
    assert reference.state_at(0.8 + 1e-6).t > cached.t and len(runs) == 1


def test_semiclassical_reference_rejects_nonnesting_dx():
    with pytest.raises(ConfigurationError):
        _reference(dx_ref=1 / 31.7, dt_ref=1 / 100)
