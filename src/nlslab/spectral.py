"""Fourier-multiplier stiff terms for every periodic semi-discretization.

On a periodic grid both stiff terms are diagonal in Fourier space, so
applying them and solving the shifted systems that arise in diagonally
implicit stages are exact mode-wise operations.  The two discretizations
differ only in the symbol:

- pseudospectral, i*a*u_xx with symbol -i*a*xi^2 (:func:`spectral_operator`);
- conservative finite elements, i*a*L/dx^2 with L the circulant second
  difference and symbol i*a*(2cos(xi*dx) - 2)/dx^2 (:func:`fem_operator`).
  This is the complex view of the skew-symmetric real-pairs term
  -(a/dx^2) S of :mod:`nlslab.fem`, which stays as its reference definition.

The exact sub-flows of operator splitting live here too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    PERIODIC,
    DimensionMismatchError,
    Grid,
    GridState,
    UnsupportedBoundaryError,
    dft_forward,
    dft_inverse,
)


def wavenumbers(grid: Grid) -> np.ndarray:
    """Signed wavenumbers 2*pi*k/L for k in {-m/2, ..., m/2 - 1}, DFT order."""
    if grid.bc != PERIODIC:
        raise UnsupportedBoundaryError("wavenumbers require a periodic grid")
    return 2.0 * np.pi * np.fft.fftfreq(grid.m, d=grid.dx)


@dataclass(frozen=True)
class SpectralOperator:
    """Periodic stiff term u -> f(u) realized as a Fourier multiplier."""

    grid: Grid
    a: float
    xi: np.ndarray
    symbol: np.ndarray

    def _check(self, u: np.ndarray) -> None:
        if u.shape[0] != self.grid.m:
            raise DimensionMismatchError(
                f"vector of length {u.shape[0]} on a grid of m={self.grid.m}"
            )

    def apply(self, u: np.ndarray) -> np.ndarray:
        """f(u) = idft(symbol * dft(u))."""
        self._check(u)
        return dft_inverse(self.symbol * dft_forward(u))

    def solve(self, rhs: np.ndarray, mu: float) -> np.ndarray:
        """g with (I - mu*f) g = rhs, solved mode-wise."""
        self._check(rhs)
        return dft_inverse(dft_forward(rhs) / (1.0 - mu * self.symbol))

    def solve_and_apply(self, rhs: np.ndarray, mu: float) -> tuple[np.ndarray, np.ndarray]:
        """Shifted solve plus f evaluated at the solution, sharing one DFT."""
        self._check(rhs)
        ghat = dft_forward(rhs) / (1.0 - mu * self.symbol)
        return dft_inverse(ghat), dft_inverse(self.symbol * ghat)

    def flow(self, u: np.ndarray, dt: float) -> np.ndarray:
        """Exact linear flow: mode-wise phase rotation e^{dt*symbol}."""
        self._check(u)
        return dft_inverse(np.exp(dt * self.symbol) * dft_forward(u))


def _multiplier(grid: Grid, a: float, xi: np.ndarray, symbol: np.ndarray) -> SpectralOperator:
    xi.setflags(write=False)
    symbol.setflags(write=False)
    return SpectralOperator(grid=grid, a=a, xi=xi, symbol=symbol)


def spectral_operator(grid: Grid, a: float) -> SpectralOperator:
    """Construct the Fourier-multiplier dispersion operator for coefficient a."""
    xi = wavenumbers(grid)
    return _multiplier(grid, a, xi, -1j * a * xi**2)


def fem_operator(grid: Grid, a: float) -> SpectralOperator:
    """Periodic finite-element stiff term i*a*L/dx^2 as a Fourier multiplier.

    The eigenvalues of the circulant second difference L are
    2cos(xi*dx) - 2 = -4 sin^2(xi*dx/2); the sine form keeps full relative
    accuracy at the smooth modes.
    """
    xi = wavenumbers(grid)
    return _multiplier(grid, a, xi, (-4j * a / grid.dx**2) * np.sin(0.5 * grid.dx * xi) ** 2)


def exact_linear_flow(op: SpectralOperator, s: GridState, dt: float) -> GridState:
    """Advance the dispersion-only equation exactly; preserves mass."""
    return s.with_u(op.flow(s.u, dt), t=s.t + dt)


def nonlinear_flow(u: np.ndarray, b: float, dt: float) -> np.ndarray:
    """Pointwise phase rotation u_j * e^{i*b*|u_j|^2*dt}; |u_j| is untouched."""
    return u * np.exp(1j * (b * dt) * (u.real**2 + u.imag**2))


def exact_nonlinear_flow(s: GridState, b: float, dt: float) -> GridState:
    """Advance the nonlinear-only equation exactly; |u_j| is preserved."""
    return s.with_u(nonlinear_flow(s.u, b, dt), t=s.t + dt)


def spectral_parts(op: SpectralOperator, b: float):
    """(stiff, explicit nonlinear) pair for ImEx stepping.

    The operator itself is the stiff part; the nonlinear part is the
    pointwise cubic g(u)_j = i*b*|u_j|^2*u_j shared by both discretizations.
    """

    def nonstiff(u: np.ndarray) -> np.ndarray:
        return 1j * b * (u.real**2 + u.imag**2) * u

    return op, nonstiff
