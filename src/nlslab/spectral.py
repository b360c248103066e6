"""Fourier-multiplier stiff terms for every periodic semi-discretization.

On a periodic grid both stiff terms are diagonal in Fourier space, so an
operator is a grid and a symbol.  On DFT coefficients, applying it is a
multiply by the symbol and the shifted solve of a diagonally implicit stage
a divide by 1 - mu*symbol, which is how :func:`nlslab.imexrk.imex_step`
uses it.  The two discretizations differ only in the symbol:

- pseudospectral, i*a*u_xx with symbol -i*a*xi^2 (:func:`spectral_operator`);
- conservative finite elements, i*a*L/dx^2 with L the circulant second
  difference and symbol i*a*(2cos(xi*dx) - 2)/dx^2 (:func:`fem_operator`).
  This is the complex view of the skew-symmetric real-pairs term
  -(a/dx^2) S of :mod:`nlslab.fem`, which stays as its reference definition.

An ImEx run steps the operator itself as its stiff part and
:func:`cubic_term` as its explicit part.  The exact sub-flows of operator
splitting live here too.  A splitting run takes only a handful of distinct
linear sub-step sizes, so each operator memoises its phase factors
e^{dt*symbol} per exact dt, in a memo cleared once it holds FLOW_MEMO_SIZE
factors.  The shifted denominators 1 - mu*symbol of the implicit ImEx
stages (one mu per step size) are memoised the same way.  The cubic
sub-flow calls no cos or sin where its phase is below TINY_PHASE, most of a
decaying state's tails, since the rounded results there are known exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    PERIODIC,
    DimensionMismatchError,
    Grid,
    UnsupportedBoundaryError,
    dft_forward,
    dft_inverse,
)


def wavenumbers(grid: Grid) -> np.ndarray:
    """Signed wavenumbers 2*pi*k/L for k in {-m/2, ..., m/2 - 1}, DFT order."""
    if grid.bc != PERIODIC:
        raise UnsupportedBoundaryError("wavenumbers require a periodic grid")
    return 2.0 * np.pi * np.fft.fftfreq(grid.m, d=grid.dx)


def spectral_tail(u: np.ndarray) -> float:
    """How far a grid vector is from resolved: its largest DFT coefficient
    in the top quarter of |k|, over its largest coefficient overall."""
    mag = np.abs(dft_forward(u))
    m = mag.shape[0]
    return float(mag[-(-3 * m // 8) : 5 * m // 8 + 1].max() / mag.max())


# Phase factors kept per operator.  AK4's fractions are palindromic (a4 = a0,
# a3 = a1), so a fused AK4 run (see splitting) of step h uses a0*h, a1*h and
# a2*h, and a4*h + a0*h = 2*a0*h on every step after the first; a landing
# step h' adds a4*h' + a0*h, a1*h', a2*h' and the closing a0*h': eight.  An
# observed AK4 run needs six, S2 at most four.
FLOW_MEMO_SIZE = 8


@dataclass(frozen=True, eq=False)
class SpectralOperator:
    """Periodic stiff term u -> f(u) realized as a Fourier multiplier.

    The phase and shift memos are caches.
    """

    grid: Grid
    symbol: np.ndarray
    _phases: dict = field(default_factory=dict, init=False, repr=False)
    _shifts: dict = field(default_factory=dict, init=False, repr=False)

    def _check(self, u: np.ndarray) -> None:
        if u.shape[0] != self.grid.m:
            raise DimensionMismatchError(
                f"vector of length {u.shape[0]} on a grid of m={self.grid.m}"
            )

    def apply(self, u: np.ndarray) -> np.ndarray:
        """f(u) = idft(symbol * dft(u))."""
        self._check(u)
        return dft_inverse(self.symbol * dft_forward(u))

    def shifted(self, mu: float) -> np.ndarray:
        """The mode-wise matrix 1 - mu*symbol of I - mu*f (memoised per mu)."""
        return _memoised(self._shifts, mu, lambda: 1.0 - mu * self.symbol)

    def solve_and_apply(self, rhs: np.ndarray, mu: float) -> tuple[np.ndarray, np.ndarray]:
        """Shifted solve plus f evaluated at the solution, sharing one DFT."""
        self._check(rhs)
        ghat = dft_forward(rhs) / self.shifted(mu)
        return dft_inverse(ghat), dft_inverse(self.symbol * ghat)

    def flow(self, u: np.ndarray, dt: float) -> np.ndarray:
        """Exact linear flow: mode-wise phase rotation e^{dt*symbol}.

        The factor e^{dt*symbol} is memoised per exact dt and multiplied
        into the forward transform in place, as ``factor * hat``.
        """
        self._check(u)
        factor = _memoised(self._phases, dt, lambda: np.exp(dt * self.symbol))
        hat = dft_forward(u)
        return dft_inverse(np.multiply(factor, hat, out=hat))


def _memoised(memo: dict, key: float, build) -> np.ndarray:
    """``memo[key]``, built read-only on a miss; the memo is cleared when it
    holds FLOW_MEMO_SIZE entries."""
    value = memo.get(key)
    if value is None:
        if len(memo) >= FLOW_MEMO_SIZE:
            memo.clear()
        value = build()
        value.setflags(write=False)
        memo[key] = value
    return value


def _multiplier(grid: Grid, symbol: np.ndarray) -> SpectralOperator:
    symbol.setflags(write=False)
    return SpectralOperator(grid=grid, symbol=symbol)


def spectral_operator(grid: Grid, a: float) -> SpectralOperator:
    """Construct the Fourier-multiplier dispersion operator for coefficient a."""
    xi = wavenumbers(grid)
    return _multiplier(grid, -1j * a * xi**2)


def fem_operator(grid: Grid, a: float) -> SpectralOperator:
    """Periodic finite-element stiff term i*a*L/dx^2 as a Fourier multiplier.

    The eigenvalues of the circulant second difference L are
    2cos(xi*dx) - 2 = -4 sin^2(xi*dx/2); the sine form keeps full relative
    accuracy at the smooth modes.
    """
    xi = wavenumbers(grid)
    return _multiplier(grid, (-4j * a / grid.dx**2) * np.sin(0.5 * grid.dx * xi) ** 2)


# Below this |phase| the correctly rounded cosine is 1 and sine the phase.
TINY_PHASE = 2.0**-27


def nonlinear_flow(u: np.ndarray, b: float, dt: float) -> np.ndarray:
    """Pointwise phase rotation u_j * e^{i*b*|u_j|^2*dt}; |u_j| is untouched.

    The factor is built from real cos and sin, which is bitwise what the
    complex exponential of the purely imaginary phase gives, at a lower
    cost.  Where |phase| < 2**-27 (TINY_PHASE) the factor is written as
    (1, phase) with no cos or sin call: there 1 - cos(phase) < phase**2/2 <
    2**-55, under half an ulp below 1, and |phase - sin(phase)| <
    |phase|**3/6, under half an ulp of phase, so (1, phase) is the correctly
    rounded pair, which libm returns (a test pins it).  NaN fails the
    comparison and goes through libm.  Tiny phases are most of a
    semiclassical state's decaying tails.  The product must stay
    ``u * rotation``: the in-place product ``rotation *= u`` rounds
    differently.
    """
    phase = np.square(u.real)
    phase += np.square(u.imag)
    phase *= b * dt
    libm = ~(np.abs(phase) < TINY_PHASE)
    rotation = np.empty(phase.shape, dtype=np.complex128)
    rotation.real = 1.0
    rotation.imag = phase
    np.cos(phase, out=rotation.real, where=libm)
    np.sin(phase, out=rotation.imag, where=libm)
    return u * rotation


def cubic_term(b: float):
    """The explicit term of ImEx stepping, the pointwise cubic
    g(u)_j = i*b*|u_j|^2*u_j of both discretizations; the operator itself is
    the stiff term: ``make_imex_stepper(tab, op, cubic_term(b))``."""

    def cubic(u: np.ndarray) -> np.ndarray:
        return 1j * b * (u.real**2 + u.imag**2) * u

    return cubic
