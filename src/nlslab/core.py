"""Domain types, uniform grids, discrete invariants, and DFT helpers.

Everything downstream (spectral and finite-element operators, the time
steppers, and the experiment runners) builds on the types defined here.
States are stored as a single complex vector; the finite-element code views
the same data as interleaved real/imaginary pairs via :func:`as_real_pairs`.

Every invariant and relaxation sum goes through :func:`exact_sum` or
:func:`exact_dot`: the correctly rounded sum, by the error-free vector
extraction of Ogita, Rump and Oishi in whole-array numpy passes, including
the polynomial restrictions of the invariants (:func:`family_coefficients`).
One extraction round, certified by an a-priori bound on the plain sum of
its remainder, settles almost every sum; more rounds run only near a
rounding tie, under heavy cancellation, or at magnitudes near underflow.

Every transform goes through :func:`dft_forward` and :func:`dft_inverse`.
They call ``c2c`` of ``scipy.fft._pocketfft.pypocketfft``, the compiled
pocketfft binding that ``scipy.fftpack.fft`` and ``scipy.fft.fft`` end in,
on the complex128 cast of their input.  It is bound on the first transform,
so that importing nlslab loads no scipy.  Calling it directly skips
scipy's Python argument handling, about 1.7 us a call, and gives the same
result, bitwise ``numpy.fft``'s (numpy >= 2.0 and scipy share the C++
pocketfft).  The binding lives in an underscore module; tests pin its
location and the bitwise equality.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

PERIODIC = "periodic"
NATURAL = "natural"
BOUNDARY_KINDS = (PERIODIC, NATURAL)


class ConfigurationError(ValueError):
    """Invalid problem, grid, or experiment configuration."""


class DimensionMismatchError(ValueError):
    """Vector length does not match the grid it is used with."""


class UnsupportedBoundaryError(ValueError):
    """Operation requires the other boundary variant."""


class NumericalFailureError(RuntimeError):
    """Non-finite state or failed linear algebra during a run."""


def _extraction_sum(p: np.ndarray) -> float:
    """Correctly rounded sum of a float64 array by error-free extraction.

    A round picks sigma = 2**(ceil(log2(n+2)) + e), with max|p| < 2**e, and
    splits p exactly into q = (sigma + p) - sigma and the remainder
    r = p - q.  Every q_i is a multiple of 2**-53 * sigma and |sum q| <
    sigma, so ``np.sum(q)`` is exact in any order.

    One round settles almost every sum, certified by an a-priori bound.
    Each sigma + p_i lies in (sigma/2, 2*sigma), where floats are at most
    2**-52 * sigma apart, so |r_i| <= 2**-53 * sigma.  Any order of
    floating-point additions of n terms, ``np.sum`` included, is within
    gamma_(n-1) * sum|r_i| of their exact sum, with gamma_k = k*u/(1 - k*u)
    <= 2*k*u for u = 2**-53; so t = ``np.sum(r)`` is within
    e = 2 * n**2 * 2**-106 * sigma of sum r.  The true sum then lies
    between sum q + t - e and sum q + t + e; rounding is monotone, so when
    the two ends round alike (``math.fsum`` of three terms each), that is
    the rounding of the true sum.

    More rounds run in two cases: when the ends round apart (the sum lies
    within e of a rounding midpoint, or cancellation left it small), and
    when e would be subnormal, where it could round below the bound.  They
    extract again from the remainder until the bound n * max|r| can no
    longer change how the sum of the exact partials rounds; each round
    removes about 53 - log2(n) bits, so cancellation costs more rounds,
    not accuracy.
    """
    n = p.size
    head = (n + 1).bit_length()  # ceil(log2(n + 2))
    mu = float(max(p.max(), -p.min())) if n else 0.0
    # Inf/nan, all zeros (signed-zero rules) and magnitudes where sigma
    # would overflow keep math.fsum's exact behaviour.
    if not 0.0 < mu < math.ldexp(1.0, 1020 - head):
        return math.fsum(p.tolist())
    partials: list[float] = []
    q = np.empty_like(p)
    while True:
        scale = head + math.frexp(mu)[1]
        sigma = math.ldexp(1.0, scale)
        np.add(p, sigma, out=q)
        q -= sigma
        partials.append(float(q.sum()))
        p = p - q
        if len(partials) == 1:
            e = math.ldexp(float(n * n), scale - 105)  # 2 * n**2 * 2**-106 * sigma
            if e >= sys.float_info.min:
                t = float(p.sum())
                hi = math.fsum((partials[0], t, e))
                if hi == math.fsum((partials[0], t, -e)):
                    return hi
        mu = float(max(p.max(), -p.min()))
        bound = 2.0 * n * mu  # >= |sum p| with the product's rounding covered
        hi = math.fsum(partials + [bound])
        if hi == math.fsum(partials + [-bound]):
            return hi


def exact_sum(values) -> float:
    """Correctly rounded float sum: the value ``math.fsum(values)`` returns.

    Invariant drifts are asserted near machine precision, so plain pairwise
    summation noise would dominate the quantities being measured.  Computed
    by error-free vector extraction (Ogita, Rump and Oishi, SIAM J. Sci.
    Comput. 26(6), 2005 and 31(1), 2008; see :func:`_extraction_sum`), so
    the result is faithful, indeed correctly rounded.  Input with inf or
    nan, all zeros, or magnitudes near overflow goes to ``math.fsum``
    itself, with its results and exceptions.
    """
    return _extraction_sum(np.asarray(values, dtype=np.float64))


def exact_dot(x: np.ndarray, y: np.ndarray) -> float:
    """``math.fsum(x * y)`` for real vectors: each product rounded once, the
    sum correctly rounded as in :func:`exact_sum`.  It calls the kernel,
    not ``exact_sum``, so a wrapper of ``exact_sum`` (as a tracer installs)
    does not count dot products as sums."""
    return _extraction_sum(np.asarray(x, dtype=np.float64) * np.asarray(y, dtype=np.float64))


@dataclass(frozen=True, eq=False)
class Grid:
    """Uniform 1-D grid.

    Periodic grids exclude the duplicate right endpoint, so ``dx = L/m``;
    natural-boundary grids include both endpoints, ``dx = L/(m-1)``.
    """

    m: int
    nodes: np.ndarray
    dx: float
    bc: str = PERIODIC


def make_grid(x_left: float, x_right: float, m: int, bc: str = PERIODIC) -> Grid:
    """Build a uniform grid on [x_left, x_right] for the given boundary kind."""
    if m < 4:
        raise ConfigurationError(f"grid needs at least 4 points, got m={m}")
    if not x_left < x_right:
        raise ConfigurationError(f"degenerate domain [{x_left}, {x_right}]")
    if bc not in BOUNDARY_KINDS:
        raise ConfigurationError(f"unknown boundary kind {bc!r}")
    length = x_right - x_left
    if bc == PERIODIC:
        dx = length / m
        nodes = x_left + dx * np.arange(m)
    else:
        dx = length / (m - 1)
        nodes = np.linspace(x_left, x_right, m)
    nodes.setflags(write=False)
    return Grid(m=m, nodes=nodes, dx=dx, bc=bc)


@dataclass(frozen=True)
class Problem:
    """Continuous problem instance on the periodic box [x_left, x_right].

    The evolution solved throughout is u_t = i*a*u_xx + i*b*|u|^2*u.  The
    classic focusing equation has a = 1 and b > 0; the semiclassical scaling
    uses a = eps/2 with b the nonlinear coefficient after dividing through
    by eps (see :func:`nlslab.oracles.semiclassical_problem`).  The domain
    is checked where it is gridded, by :func:`make_grid`.
    """

    x_left: float
    x_right: float
    a: float
    b: float


@dataclass
class GridState:
    """Spatial grid, complex solution vector, and current time."""

    grid: Grid
    u: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=np.complex128)
        if self.u.ndim != 1 or self.u.shape[0] != self.grid.m:
            raise DimensionMismatchError(
                f"state has {self.u.shape} entries for a grid of m={self.grid.m}"
            )
        if not np.all(np.isfinite(self.u.view(np.float64))):
            raise NumericalFailureError("state contains NaN or Inf entries")

    def with_u(self, u: np.ndarray, t: float | None = None) -> "GridState":
        return GridState(self.grid, u, self.t if t is None else t)


def as_real_pairs(u: np.ndarray) -> np.ndarray:
    """Complex vector -> interleaved [v1, w1, v2, w2, ...] real vector."""
    u = np.asarray(u, dtype=np.complex128)
    out = np.empty(2 * u.shape[0])
    out[0::2] = u.real
    out[1::2] = u.imag
    return out


def from_real_pairs(z: np.ndarray) -> np.ndarray:
    """Inverse of :func:`as_real_pairs` (lossless)."""
    z = np.asarray(z, dtype=np.float64)
    return z[0::2] + 1j * z[1::2]


@functools.cache
def _fft_backend():
    """pocketfft's compiled complex transform, bound on the first transform.

    ``c2c(a, axes, forward, inorm, out, nthreads)`` of the pybind11 module
    ``scipy.fft._pocketfft.pypocketfft``: the call that ``scipy.fftpack.fft``
    and ``scipy.fft.fft`` make after their Python argument handling, which
    costs about 1.7 us a call, a sixth of a transform at m=1024.  The
    module is private to scipy, so a scipy release may move or change it;
    the DFT tests fail if it does.  Importing it when nlslab is imported
    would load scipy into every CLI start-up, including the runs that never
    transform a vector.
    """
    from scipy.fft._pocketfft.pypocketfft import c2c

    return c2c


def _dft_operand(u: np.ndarray) -> np.ndarray:
    """The complex128, 1-D, native-order, aligned vector the binding takes:
    ``u`` itself when it already is one, else a copy.

    Real input goes through the complex transform, since pocketfft's
    real-input path rounds differently from ``numpy.fft.fft``; the cast
    also gives native byte order, which the binding requires.
    """
    u = np.asarray(u, dtype=np.complex128)
    if u.ndim != 1 or u.shape[0] == 0:
        raise DimensionMismatchError("DFT input must be a nonempty 1-D vector")
    if not u.flags.aligned:
        u = u.copy()
    return u


def dft_forward(u: np.ndarray) -> np.ndarray:
    """Forward DFT.  Unnormalized; pairs with :func:`dft_inverse`.

    A fresh array from pocketfft's compiled ``c2c`` (see
    :func:`_fft_backend`) on the complex128 cast of ``u``, with no
    normalization: bitwise ``numpy.fft.fft(u)``, since numpy >= 2.0 ships
    the same pocketfft, and faster.  ``u`` is left unmodified.
    """
    return _fft_backend()(_dft_operand(u), (0,), True, 0, None, 1)


def dft_inverse(uhat: np.ndarray) -> np.ndarray:
    """Inverse DFT; ``dft_inverse(dft_forward(u)) == u`` to rounding.

    Computed like :func:`dft_forward`, scaled by 1/n inside the binding
    (normalization mode 2): bitwise ``numpy.fft.ifft(uhat)``.
    """
    return _fft_backend()(_dft_operand(uhat), (0,), False, 2, None, 1)


def discrete_mass(s: GridState, weight=1.0) -> float:
    """dx * sum_j w_j |u_j|^2, w a node weight (the natural FEM's trapezoid)."""
    u = s.u
    return s.grid.dx * exact_sum(weight * (u.real**2 + u.imag**2))


def _forward_differences(u: np.ndarray, bc: str) -> np.ndarray:
    """u_{j+1} - u_j, wrapping for periodic grids, stopping at m-1 otherwise."""
    if bc == PERIODIC:
        d = np.empty_like(u)
        d[:-1] = u[1:] - u[:-1]
        d[-1] = u[0] - u[-1]
        return d
    return u[1:] - u[:-1]


def discrete_energy(s: GridState, beta: float, a: float = 1.0, weight=1.0) -> float:
    """dx * sum_j ( a*|(u_{j+1}-u_j)/dx|^2 - (beta/2)*w_j*|u_j|^4 ).

    The difference quotient wraps around for periodic grids and stops at
    node m-1 for natural boundaries.  ``a`` generalizes the gradient-term
    weight for rescaled problems; the classic equation has a = 1.  ``w`` is
    the node weight of :func:`discrete_mass`.
    """
    u = s.u
    dx = s.grid.dx
    d = _forward_differences(u, s.grid.bc)
    grad_terms = (a / dx**2) * (d.real**2 + d.imag**2)
    quart_terms = -(beta / 2.0) * weight * (u.real**2 + u.imag**2) ** 2
    return dx * exact_sum(np.concatenate([grad_terms, quart_terms]))


#: Monomials g1**i * g2**j, 1 <= i + j <= 4: a quartic functional restricted
#: to the family u0 + g1*A + g2*B is a polynomial in them.
FAMILY_MONOMIALS = tuple((i, d - i) for d in range(1, 5) for i in range(d, -1, -1))


def _square_terms(u: np.ndarray, a: np.ndarray, b: np.ndarray):
    """|u|^2 and, one per monomial in FAMILY_MONOMIALS[:5], the node-wise
    coefficients of |u + g1 a + g2 b|^2 - |u|^2."""

    def dot(x, y):
        return x.real * y.real + x.imag * y.imag

    return dot(u, u), (2.0 * dot(u, a), 2.0 * dot(u, b), dot(a, a), 2.0 * dot(a, b), dot(b, b))


def family_coefficients(
    u0, A, B, dx: float, bc: str, mass_weight=None, grad_weight=None, quart_weight=None
) -> np.ndarray:
    """5x5 array C of F(u0 + g1*A + g2*B) - F(u0) = sum C[i, j] g1**i g2**j
    for F(u) = dx * sum(mass_weight*|u|^2 + grad_weight*|D u|^2 + quart_weight*|u|^4),
    D the forward difference of :func:`discrete_energy`.  Weights are scalars
    or node arrays; None drops the term.  With Q = |u|^2 - |u0|^2 the quartic
    term is 2|u0|^2 Q + Q^2.  Each monomial's terms are added per node and
    then summed exactly; entries outside FAMILY_MONOMIALS, and without a
    quartic term those of degree 3 and 4, are 0.
    """
    monomials = FAMILY_MONOMIALS if quart_weight is not None else FAMILY_MONOMIALS[:5]
    rows = [np.zeros(u0.shape[0]) for _ in monomials]
    diffs = (_forward_differences(v, bc) for v in (u0, A, B))
    for weight, vectors in ((mass_weight, (u0, A, B)), (grad_weight, diffs)):
        if weight is not None:
            for row, p in zip(rows, _square_terms(*vectors)[1]):
                row[: p.shape[0]] += weight * p
    if quart_weight is not None:
        p0, p = _square_terms(u0, A, B)
        twice_p0 = 2.0 * quart_weight * p0
        for k1, (i1, j1) in enumerate(FAMILY_MONOMIALS[:5]):
            rows[k1] += twice_p0 * p[k1]
            weighted = quart_weight * p[k1]
            for k2, (i2, j2) in enumerate(FAMILY_MONOMIALS[k1:5], k1):
                product = (weighted if k1 == k2 else 2.0 * weighted) * p[k2]
                rows[FAMILY_MONOMIALS.index((i1 + i2, j1 + j2))] += product
    coeffs = np.zeros((5, 5))
    for row, (i, j) in zip(rows, monomials):
        coeffs[i, j] = dx * exact_sum(row)
    return coeffs


@dataclass(frozen=True)
class InvariantFunctional:
    """A conserved functional, its gradient, and its restriction to a family.

    ``gradient`` returns a vector of length 2m ordered like
    :func:`as_real_pairs`, consistent with central finite differences of
    ``evaluate``.  ``restrict(u0, A, B, grid)`` returns the coefficient array
    of the polynomial ``evaluate(u0 + g1*A + g2*B) - evaluate(u0)`` in
    (g1, g2), as :func:`family_coefficients` does.  ``weight`` is the node
    weight w the functional was built with, a scalar or a node array (the
    natural FEM's trapezoid); single relaxation weighs its mass sums by it.
    """

    kind: str
    evaluate: Callable[[GridState], float]
    gradient: Callable[[GridState], np.ndarray]
    restrict: Callable[[np.ndarray, np.ndarray, np.ndarray, Grid], np.ndarray]
    weight: float | np.ndarray = 1.0


def mass_functional(weight=1.0) -> InvariantFunctional:
    """Discrete mass with node weight w and its gradient 2*dx*w*[v1, w1, ...]."""

    def _grad(s: GridState) -> np.ndarray:
        return 2.0 * s.grid.dx * as_real_pairs(weight * s.u)

    def _restrict(u0, A, B, grid: Grid) -> np.ndarray:
        return family_coefficients(u0, A, B, grid.dx, grid.bc, mass_weight=weight)

    return InvariantFunctional(
        "mass", lambda s: discrete_mass(s, weight), _grad, _restrict, weight
    )


def _second_difference(v: np.ndarray, bc: str) -> np.ndarray:
    """v_{j-1} - 2 v_j + v_{j+1} with the boundary rows matching the
    quadratic form of :func:`discrete_energy` (one-sided at natural ends)."""
    if bc == PERIODIC:
        return np.roll(v, 1) - 2.0 * v + np.roll(v, -1)
    out = np.empty_like(v)
    out[1:-1] = v[:-2] - 2.0 * v[1:-1] + v[2:]
    out[0] = v[1] - v[0]
    out[-1] = v[-2] - v[-1]
    return out


def energy_functional(beta: float, a: float = 1.0, weight=1.0) -> InvariantFunctional:
    """Discrete energy matching :func:`discrete_energy` with its gradient."""

    def _grad(s: GridState) -> np.ndarray:
        v = s.u.real
        w = s.u.imag
        dx = s.grid.dx
        mod2 = v**2 + w**2
        quart = 2.0 * beta * dx * weight * mod2
        gv = -(2.0 * a / dx) * _second_difference(v, s.grid.bc) - quart * v
        gw = -(2.0 * a / dx) * _second_difference(w, s.grid.bc) - quart * w
        out = np.empty(2 * s.grid.m)
        out[0::2] = gv
        out[1::2] = gw
        return out

    def _restrict(u0, A, B, grid: Grid) -> np.ndarray:
        quart = -(beta / 2.0) * weight
        return family_coefficients(
            u0, A, B, grid.dx, grid.bc, grad_weight=a / grid.dx**2, quart_weight=quart
        )

    return InvariantFunctional(
        "energy", lambda s: discrete_energy(s, beta, a, weight), _grad, _restrict, weight
    )


def gradient_finite_difference(
    functional: InvariantFunctional, s: GridState, step: float = 1e-7
) -> np.ndarray:
    """Central-difference gradient of ``functional.evaluate``, for checks."""
    z = as_real_pairs(s.u)
    out = np.empty_like(z)
    for i in range(z.shape[0]):
        zp = z.copy()
        zp[i] += step
        zm = z.copy()
        zm[i] -= step
        fp = functional.evaluate(s.with_u(from_real_pairs(zp)))
        fm = functional.evaluate(s.with_u(from_real_pairs(zm)))
        out[i] = (fp - fm) / (2.0 * step)
    return out


# Per-step run logging shared by every integrator: the harness serializes
# these records, and the acceptance checks read the summaries.

ACCEPTED = "accepted"
EPS_REJECTED = "eps-rejected"
CONSERVATION_REJECTED = "conservation-rejected"


@dataclass(frozen=True)
class StepRow:
    t: float
    dt: float
    eps: float | None
    gamma1: float
    gamma2: float
    residual: float | None
    disposition: str


def _counted(disposition: str) -> property:
    """A read-only count of the logged steps with this disposition."""
    return property(lambda record: sum(r.disposition == disposition for r in record.steps))


@dataclass
class RunRecord:
    """Per-step log, one row per attempt, plus final-state diagnostics for one
    integration run; the accepted and rejected counts are counted from the log."""

    steps: list[StepRow] = field(default_factory=list)
    final_t: float = 0.0
    final_error: float | None = None
    max_mass_drift: float | None = None
    max_energy_drift: float | None = None
    runtime_seconds: float = 0.0

    accepted = _counted(ACCEPTED)
    eps_rejections = _counted(EPS_REJECTED)
    conservation_rejections = _counted(CONSERVATION_REJECTED)

    def summary(self) -> dict:
        return {
            "final_t": self.final_t,
            "final_error": self.final_error,
            "max_mass_drift": self.max_mass_drift,
            "max_energy_drift": self.max_energy_drift,
            "runtime_seconds": self.runtime_seconds,
            "accepted": self.accepted,
            "eps_rejections": self.eps_rejections,
            "conservation_rejections": self.conservation_rejections,
        }


class InvariantTracker:
    """Tracks max drift of a set of invariants against their initial values."""

    def __init__(self, functionals: list[InvariantFunctional], s0: GridState):
        self.functionals = functionals
        self.initial = [f.evaluate(s0) for f in functionals]
        self.max_drift = [0.0 for _ in functionals]

    def update(self, s: GridState, measured: tuple[float, ...]) -> float:
        """Record the drifts at s and return the largest.  The first
        ``len(measured)`` drifts are taken as given (relaxation measured
        them on s); only the other invariants are evaluated."""
        worst = 0.0
        for i, f in enumerate(self.functionals):
            drift = measured[i] if i < len(measured) else abs(f.evaluate(s) - self.initial[i])
            if drift > self.max_drift[i]:
                self.max_drift[i] = drift
            worst = max(worst, drift)
        return worst

    def drift_by_kind(self) -> dict[str, float]:
        return {f.kind: d for f, d in zip(self.functionals, self.max_drift)}
