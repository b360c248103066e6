"""Conservative finite-element semi-discretization over real solution pairs.

The state is viewed as interleaved real/imaginary pairs [v1, w1, v2, w2, ...].
The stiff term is -(a/dx^2) * Itilde^{-1} S with S block tridiagonal, every
block an integer multiple of the rotation block [[0, 1], [-1, 0]]; S is
exactly skew-symmetric, which is what makes the semi-discretization conserve
the discrete mass and energy simultaneously.

Two boundary variants exist.  The natural variant carries trapezoid weights
(1/2 at the end nodes) in Itilde and in the conserved functionals; the
periodic variant wraps the end rows and has unit weights.  Each variant's
gradients are matched to its own operator so the semi-discrete conservation
identities hold to rounding.

The assembled matrices here are the reference definition of the scheme:
the tests and the semi-discrete conservation checks use them.  The ImEx
stepper takes only Fourier multipliers, so periodic runs step the stiff
term as :func:`nlslab.spectral.fem_operator`, which equals -(a/dx^2) S in
the complex view, and no run factors a matrix.  :class:`FemStiffPart` and
the stage factorization are the assembled natural-boundary reference, in
state space, that the tests compare against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .core import (
    NATURAL,
    PERIODIC,
    ConfigurationError,
    DimensionMismatchError,
    GridState,
    InvariantFunctional,
    NumericalFailureError,
    as_real_pairs,
    energy_functional,
    exact_dot,
    exact_sum,  # noqa: F401 - unused here, but bench/spans.py wraps fem.exact_sum
    from_real_pairs,
    mass_functional,
)

_ROTATION = np.array([[0, 1], [-1, 0]], dtype=np.int64)


def _second_difference_stencil(m: int, bc: str) -> sp.csr_matrix:
    main = -2 * np.ones(m, dtype=np.int64)
    if bc == NATURAL:
        main[0] = main[-1] = -1
    L = sp.diags(
        [np.ones(m - 1, dtype=np.int64), main, np.ones(m - 1, dtype=np.int64)],
        offsets=[-1, 0, 1],
        format="lil",
        dtype=np.int64,
    )
    if bc == PERIODIC:
        L[0, m - 1] = 1
        L[m - 1, 0] = 1
    return L.tocsr()


@dataclass
class FemOperator:
    """Assembled finite-element operator for one (m, dx, bc, beta, a)."""

    m: int
    dx: float
    bc: str
    beta: float
    a: float
    s_matrix: sp.csr_matrix
    itilde: np.ndarray

    def rhs_pairs(self, z: np.ndarray) -> np.ndarray:
        """Semi-discrete right-hand side in the real-pairs view."""
        if z.shape[0] != 2 * self.m:
            raise DimensionMismatchError(
                f"pairs vector of length {z.shape[0]} for m={self.m}"
            )
        out = -(self.a / self.dx**2) * (self.s_matrix @ z) / self.itilde
        v = z[0::2]
        w = z[1::2]
        mod2 = v**2 + w**2
        out[0::2] -= self.beta * mod2 * w
        out[1::2] += self.beta * mod2 * v
        return out


def assemble(m: int, dx: float, bc: str, beta: float, a: float = 1.0) -> FemOperator:
    """Build the block matrices for the chosen boundary variant."""
    if m < 4:
        raise ConfigurationError(f"FEM operator needs at least 4 nodes, got m={m}")
    if dx <= 0:
        raise ConfigurationError(f"dx must be positive, got {dx}")
    if bc not in (PERIODIC, NATURAL):
        raise ConfigurationError(f"unknown boundary kind {bc!r}")
    L = _second_difference_stencil(m, bc)
    s_matrix = sp.kron(L, sp.csr_matrix(_ROTATION), format="csr")
    weights = np.ones(2 * m)
    if bc == NATURAL:
        weights[0] = weights[1] = 0.5
        weights[-2] = weights[-1] = 0.5
    return FemOperator(m=m, dx=dx, bc=bc, beta=beta, a=a, s_matrix=s_matrix, itilde=weights)


@dataclass
class StageFactorization:
    """Factored shifted system (Itilde + (mu*a/dx^2) S), reusable across stages."""

    op: FemOperator
    mu: float
    lu: object | None  # SuperLU; None for the mu = 0 identity shortcut


def stage_factorize(op: FemOperator, mu: float) -> StageFactorization:
    """Factor (Itilde + (mu*a/dx^2) S) once; stages with equal mu reuse it."""
    if mu < 0:
        raise ConfigurationError(f"stage coefficient mu must be nonnegative, got {mu}")
    if mu == 0.0:
        return StageFactorization(op, 0.0, None)
    shifted = sp.diags(op.itilde) + (mu * op.a / op.dx**2) * op.s_matrix
    try:
        lu = splu(shifted.tocsc())
    except RuntimeError as exc:
        raise NumericalFailureError(f"stage factorization failed: {exc}") from exc
    return StageFactorization(op, mu, lu)


def stage_solve(fac: StageFactorization, rhs: np.ndarray) -> np.ndarray:
    """g solving (Itilde + (mu*a/dx^2) S) g = Itilde * rhs."""
    if rhs.shape[0] != 2 * fac.op.m:
        raise DimensionMismatchError(
            f"pairs vector of length {rhs.shape[0]} for m={fac.op.m}"
        )
    if fac.lu is None:
        return rhs.copy()
    return fac.lu.solve(fac.op.itilde * rhs)


def conserved_functionals(op: FemOperator) -> tuple[InvariantFunctional, InvariantFunctional]:
    """(mass, energy) functionals whose gradients match this operator.

    These are the pair relaxation enforces: the forms in :mod:`nlslab.core`,
    with the trapezoid node weights of ``itilde`` on the natural variant,
    evaluated on the state's grid (the one the operator was assembled for).
    """
    weight = 1.0 if op.bc == PERIODIC else op.itilde[0::2]
    return mass_functional(weight), energy_functional(op.beta, op.a, weight)


def invariant_drift_rate(op: FemOperator, s: GridState) -> tuple[float, float]:
    """Instantaneous (d mass/dt, d energy/dt) along the semi-discrete flow.

    Both vanish to rounding for any state: the mass rate by skew-symmetry of
    S, the energy rate by the discrete product structure of the gradient.
    """
    f = op.rhs_pairs(as_real_pairs(s.u))
    mass, energy = conserved_functionals(op)
    return exact_dot(mass.gradient(s), f), exact_dot(energy.gradient(s), f)


class FemStiffPart:
    """The assembled stiff FEM term in state space, the natural-boundary
    reference the tests compare against: ``apply(u)`` is f(u) and
    ``solve(rhs, mu)`` solves (I - mu*f) g = rhs.  Nothing steps with it;
    the ImEx stepper takes Fourier multipliers only.

    Every solve factors its shifted system afresh.
    """

    def __init__(self, op: FemOperator):
        self.op = op

    def apply(self, u: np.ndarray) -> np.ndarray:
        z = as_real_pairs(u)
        out = -(self.op.a / self.op.dx**2) * (self.op.s_matrix @ z) / self.op.itilde
        return from_real_pairs(out)

    def solve(self, rhs: np.ndarray, mu: float) -> np.ndarray:
        return from_real_pairs(stage_solve(stage_factorize(self.op, mu), as_real_pairs(rhs)))
