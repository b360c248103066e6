"""Exact solutions and initial data used as references by the experiments.

The 1-, 2-, and 3-soliton bound states of the focusing cubic equation with
beta = 2, 8, 18 are rational functions of exponentials in x and t.  Written
literally, their numerators and denominators overflow double precision for
|x| beyond roughly 35, so the evaluator factors the dominant real exponential
out of both before dividing.
"""

from __future__ import annotations

import functools

import numpy as np

from .core import (
    PERIODIC,
    ConfigurationError,
    Grid,
    GridState,
    Problem,
)

#: beyond this |x| every soliton has decayed below double-precision resolution
#: relative to its peak, and the value is clamped to exactly zero.
SOLITON_CLAMP_X = 40.0

# Each exact solution is sum_k c_k exp(k_x * x) exp(i * w_k * t) over the
# term lists below, as (coefficient, x exponent, time frequency).
_ONE_NUM = ((2.0, 0, 1),)
_ONE_DEN = ((1.0, 1, 0), (1.0, -1, 0))

_TWO_NUM = ((2.0, 1, 9), (6.0, 3, 17), (6.0, 5, 17), (2.0, 7, 9))
_TWO_DEN = (
    (3.0, 4, 16),
    (4.0, 2, 8),
    (4.0, 6, 8),
    (1.0, 8, 8),
    (1.0, 0, 8),
    (3.0, 4, 0),
)

# The 13x/33t coefficient is 36, not the typeset 32: evenness in x, the
# sech profile at t = 0, and the PDE residual check all pin it.
_THREE_NUM = (
    (80.0, 7, 49),
    (2.0, 1, 25),
    (16.0, 3, 33),
    (36.0, 5, 33),
    (20.0, 5, 49),
    (32.0, 7, 25),
    (10.0, 9, 9),
    (90.0, 9, 41),
    (40.0, 9, 57),
    (32.0, 11, 25),
    (80.0, 11, 49),
    (36.0, 13, 33),
    (20.0, 13, 49),
    (16.0, 15, 33),
    (2.0, 17, 25),
)
_THREE_DEN = (
    (64.0, 12, 24),
    (36.0, 8, 24),
    (18.0, 4, 16),
    (64.0, 6, 24),
    (45.0, 10, 40),
    (10.0, 12, 48),
    (45.0, 8, 40),
    (18.0, 4, 32),
    (10.0, 6, 48),
    (9.0, 2, 24),
    (45.0, 8, 8),
    (45.0, 10, 8),
    (36.0, 10, 24),
    (18.0, 14, 16),
    (18.0, 14, 32),
    (9.0, 16, 24),
    (1.0, 18, 24),
    (1.0, 0, 24),
    (10.0, 6, 0),
    (10.0, 12, 0),
)

_SOLITON_TERMS = {1: (_ONE_NUM, _ONE_DEN), 2: (_TWO_NUM, _TWO_DEN), 3: (_THREE_NUM, _THREE_DEN)}


@functools.lru_cache(maxsize=4)
def _soliton_factors(n: int, shape: tuple, x_bytes: bytes):
    """Time-independent parts of the n-soliton at the points in ``x_bytes``:
    the clamp mask, e^{num shift - den shift}, and per term list the factors
    e^{k x - shift}, the shift being the pointwise largest exponent.  These
    go through the complex exponential, as the phases e^{i w t} do, so each
    product is bit for bit e^{k x - shift + i w t}.  Keyed by the bytes of
    x, not its identity, so an array changed in place gets fresh factors.
    """
    x = np.frombuffer(x_bytes).reshape(shape)
    inside = np.abs(x) <= SOLITON_CLAMP_X
    xs = np.where(inside, x, 0.0)
    shifts, factors = [], []
    for terms in _SOLITON_TERMS[n]:
        ks = np.array([k for _, k, _ in terms], dtype=float)
        shift = np.where(xs >= 0, ks.max() * xs, ks.min() * xs)
        shifts.append(shift)
        factors.append(tuple(np.exp((k * xs - shift) + 0j) for _, k, _ in terms))
    return inside, np.exp(shifts[0] - shifts[1]), factors


def soliton_exact(n: int, x, t: float) -> np.ndarray:
    """Exact n-soliton bound state (n in {1, 2, 3}) at position(s) x, time t.

    These solve i u_t + u_xx + beta |u|^2 u = 0 with beta = 2 n^2 and equal
    sech(x) at t = 0.  Values for |x| > SOLITON_CLAMP_X are clamped to zero.
    Only the phases e^{i w t} are computed per call; the rest is cached.
    """
    if n not in _SOLITON_TERMS:
        raise ConfigurationError(f"no exact solution for n={n}; choose 1, 2, or 3")
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    inside, scale, factors = _soliton_factors(n, x_arr.shape, x_arr.tobytes())
    num, den = (np.zeros(x_arr.shape, dtype=np.complex128) for _ in factors)
    for total, terms, term_factors in zip((num, den), _SOLITON_TERMS[n], factors):
        for (c, _, w), e in zip(terms, term_factors):
            total += c * (e * np.exp(1j * (w * t)))
    out = scale * (num / den)
    out[~inside] = 0.0
    if np.isscalar(x) or np.asarray(x).ndim == 0:
        return out[0]
    return out


def soliton_beta(n: int) -> float:
    """Nonlinearity strength for which sech(x) data binds n solitons."""
    return 2.0 * n * n


def soliton_problem(n: int, x_left: float = -35.0, x_right: float = 35.0) -> Problem:
    """Multi-soliton benchmark: sech initial data, beta = 2 n^2, periodic box."""
    return Problem(x_left, x_right, a=1.0, b=soliton_beta(n))


def soliton_initial(n: int, grid: Grid) -> tuple[GridState, float]:
    """Sample sech(x) on the grid; returns the state and beta = 2 n^2."""
    if n not in _SOLITON_TERMS:
        raise ConfigurationError(f"no exact solution for n={n}; choose 1, 2, or 3")
    u = 1.0 / np.cosh(grid.nodes) + 0j
    return GridState(grid, u, 0.0), soliton_beta(n)


def semiclassical_problem(eps: float, beta: float = 1.0) -> Problem:
    """Semiclassical scaling on [-8, 8]: u_t = i (eps/2) u_xx + i (beta/eps) |u|^2 u.

    Dividing the rescaled equation through by eps puts the nonlinear
    coefficient at beta/eps.  (The dispersion symbol alone is sometimes
    written with the 1/eps factor absorbed elsewhere; this normalization is
    the one consistent with the rescaled equation itself.)
    """
    if eps <= 0:
        raise ConfigurationError(f"eps must be positive, got {eps}")
    return Problem(-8.0, 8.0, a=eps / 2.0, b=beta / eps)


def semiclassical_initial(kind: str, eps: float, grid: Grid) -> GridState:
    """Gaussian envelope data, with constant or spatially varying phase."""
    x = grid.nodes
    envelope = np.exp(-(x**2))
    if kind == "constant_phase":
        u = envelope + 0j
    elif kind == "varying_phase":
        phase = 1.0 / (eps * (np.exp(x) + np.exp(-x)))
        u = envelope * np.exp(1j * phase)
    else:
        raise ConfigurationError(f"unknown semiclassical initial data {kind!r}")
    return GridState(grid, u, 0.0)


def density(s: GridState) -> np.ndarray:
    """Position density |u|^2 on the grid."""
    return s.u.real**2 + s.u.imag**2


def subsample(fine: GridState, coarse: Grid) -> GridState:
    """Restrict a fine-grid state to a nested coarser grid by exact striding."""
    fg = fine.grid
    if fg.bc != PERIODIC or coarse.bc != PERIODIC:
        raise ConfigurationError("subsampling is defined for periodic grids")
    if fg.m % coarse.m != 0:
        raise ConfigurationError(
            f"fine grid m={fg.m} is not an integer refinement of m={coarse.m}"
        )
    stride = fg.m // coarse.m
    if abs(fg.nodes[0] - coarse.nodes[0]) > 1e-12:
        raise ConfigurationError("grids are not nested: left endpoints differ")
    return GridState(coarse, fine.u[::stride].copy(), fine.t)
