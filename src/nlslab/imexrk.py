"""Additive (implicit-explicit) Runge-Kutta stepping with embedded weights.

The implicit part is a diagonally implicit scheme applied to the stiff
linear dispersion term; the explicit part handles the pointwise cubic term.
Both parts share the abscissae and weights.  Because the stiff term is
linear in every discretization used here, each implicit stage reduces to a
single shifted linear solve.  A step stores its stage derivatives
interleaved (k_im_0, k_ex_0, k_im_1, ...) in one array, so each stage
right-hand side and the pair of increments are one matrix-vector product
each.

The stiff part is a Fourier multiplier
(:class:`~nlslab.spectral.SpectralOperator`), and the stages run on DFT
coefficients: the shifted solve is a divide by 1 - mu*symbol, f is a
multiply by the symbol, and only the explicit cubic term and the two
increments go through physical space, so an ImEx4 step takes 14 DFTs and
an ImEx3 step 10 (Kennedy and Carpenter, Appl. Numer. Math. 44, 2003).  A
step asked for the implicit half of the main increment, the second
direction of multiple relaxation, takes one inverse DFT more: 15 on ImEx4.

Tableau coefficients are embedded as exact rational literals and validated
by the order-condition evaluator below; the evaluator, not the
transcription, is what the tests trust.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import spectral
from .core import ConfigurationError
from .spectral import SpectralOperator


@dataclass(frozen=True, eq=False)
class ImExTableau:
    """Coefficients of an additive pair with shared abscissae and weights.

    ``a_im`` is lower triangular (nonzero diagonal allowed), ``a_ex``
    strictly lower triangular.  ``b_main`` carries the order-p weights and
    ``b_embedded`` the order-q companion used for error estimation.  The
    derived ``stage_rows`` (a_im, a_ex) and ``increment_rows`` interleave
    them per stage; the increment rows are b_main, b_embedded and b_main on
    the implicit stages alone (zero on the explicit ones), which gives the
    implicit half of the main increment.
    """

    name: str
    s: int
    a_im: np.ndarray
    a_ex: np.ndarray
    c: np.ndarray
    b_main: np.ndarray
    b_embedded: np.ndarray
    order: int
    embedded_order: int
    stage_rows: np.ndarray = field(init=False, repr=False)
    increment_rows: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        for label, mat in (("implicit", self.a_im), ("explicit", self.a_ex)):
            if mat.shape != (self.s, self.s):
                raise ConfigurationError(f"{label} matrix must be {self.s}x{self.s}")
        if np.any(np.triu(self.a_im, 1) != 0.0):
            raise ConfigurationError("implicit matrix must be lower triangular")
        if np.any(np.triu(self.a_ex, 0) != 0.0):
            raise ConfigurationError("explicit matrix must be strictly lower triangular")
        for label, vec in (("main", self.b_main), ("embedded", self.b_embedded)):
            if abs(vec.sum() - 1.0) > 1e-14:
                raise ConfigurationError(f"{label} weights sum to {vec.sum()!r}")
        for label, mat in (("implicit", self.a_im), ("explicit", self.a_ex)):
            if np.max(np.abs(mat.sum(axis=1) - self.c)) > 1e-14:
                raise ConfigurationError(f"{label} row sums do not match abscissae")
        rows = np.stack([self.a_im, self.a_ex], axis=2).reshape(self.s, -1)
        object.__setattr__(self, "stage_rows", rows)
        increments = np.repeat([self.b_main, self.b_embedded, self.b_main], 2, 1)
        increments[2, 1::2] = 0.0
        object.__setattr__(self, "increment_rows", increments)


def _tableau_imex3() -> ImExTableau:
    g = 1767732205903 / 4055673282236
    c = np.array([0.0, 2 * g, 3 / 5, 1.0])
    a_im = np.zeros((4, 4))
    a_im[1, :2] = [g, g]
    a_im[2, :3] = [2746238789719 / 10658868560708, -640167445237 / 6845629431997, g]
    a_im[3, :] = [
        1471266399579 / 7840856788654,
        -4482444167858 / 7529755066697,
        11266239266428 / 11593286722821,
        g,
    ]
    a_ex = np.zeros((4, 4))
    a_ex[1, 0] = 2 * g
    a_ex[2, :2] = [5535828885825 / 10492691773637, 788022342437 / 10882634858940]
    a_ex[3, :3] = [
        6485989280629 / 16251701735622,
        -4246266847089 / 9704473918619,
        10755448449292 / 10357097424841,
    ]
    b = a_im[3, :].copy()
    b_hat = np.array(
        [
            2756255671327 / 12835298489170,
            -10771552573575 / 22201958757719,
            9247589265047 / 10645013368117,
            2193209047091 / 5459859503100,
        ]
    )
    return ImExTableau("ImEx3", 4, a_im, a_ex, c, b, b_hat, 3, 2)


def _tableau_imex4() -> ImExTableau:
    c = np.array([0.0, 1 / 2, 83 / 250, 31 / 50, 17 / 20, 1.0])
    a_im = np.zeros((6, 6))
    a_im[1, :2] = [1 / 4, 1 / 4]
    a_im[2, :3] = [8611 / 62500, -1743 / 31250, 1 / 4]
    a_im[3, :4] = [5012029 / 34652500, -654441 / 2922500, 174375 / 388108, 1 / 4]
    a_im[4, :5] = [
        15267082809 / 155376265600,
        -71443401 / 120774400,
        730878875 / 902184768,
        2285395 / 8070912,
        1 / 4,
    ]
    a_im[5, :] = [82889 / 524892, 0.0, 15625 / 83664, 69875 / 102672, -2260 / 8211, 1 / 4]
    a_ex = np.zeros((6, 6))
    a_ex[1, 0] = 1 / 2
    a_ex[2, :2] = [13861 / 62500, 6889 / 62500]
    a_ex[3, :3] = [
        -116923316275 / 2393684061468,
        -2731218467317 / 15368042101831,
        9408046702089 / 11113171139209,
    ]
    a_ex[4, :4] = [
        -451086348788 / 2902428689909,
        -2682348792572 / 7519795681897,
        12662868775082 / 11960479115383,
        3355817975965 / 11060851509271,
    ]
    a_ex[5, :5] = [
        647845179188 / 3216320057751,
        73281519250 / 8382639484533,
        552539513391 / 3454668386233,
        3354512671639 / 8306763924573,
        4040 / 17871,
    ]
    b = a_im[5, :].copy()
    b_hat = np.array(
        [
            4586570599 / 29645900160,
            0.0,
            178811875 / 945068544,
            814220225 / 1159782912,
            -3700637 / 11593932,
            61727 / 225920,
        ]
    )
    return ImExTableau("ImEx4", 6, a_im, a_ex, c, b, b_hat, 4, 3)


_TABLEAUS: dict[str, Callable[[], ImExTableau]] = {
    "ImEx3": _tableau_imex3,
    "ImEx4": _tableau_imex4,
}


def tableau(name: str) -> ImExTableau:
    """Look up a registered additive pair by name ("ImEx3" or "ImEx4")."""
    try:
        return _TABLEAUS[name]()
    except KeyError:
        raise ConfigurationError(
            f"unknown tableau {name!r}; known: {sorted(_TABLEAUS)}"
        ) from None


def order_conditions_residual(
    t: ImExTableau, order: int, weights: str = "main"
) -> float:
    """Max residual over the coupled order conditions up to ``order``.

    With shared abscissae and weights the two-part conditions collapse to
    quadrature conditions plus products of the two coefficient matrices.
    Orders 1-4 are complete; order 5 adds the scalar quadrature condition
    only, which suffices to certify that a fourth-order pair is not fifth
    order.
    """
    if order > 5:
        raise ConfigurationError("order conditions implemented up to order 5")
    b = t.b_main if weights == "main" else t.b_embedded
    c = t.c
    mats = (t.a_im, t.a_ex)
    residuals = [b.sum() - 1.0]
    if order >= 2:
        residuals.append(b @ c - 1 / 2)
    if order >= 3:
        residuals.append(b @ c**2 - 1 / 3)
        for A in mats:
            residuals.append(b @ (A @ c) - 1 / 6)
    if order >= 4:
        residuals.append(b @ c**3 - 1 / 4)
        for A in mats:
            residuals.append(b @ (c * (A @ c)) - 1 / 8)
            residuals.append(b @ (A @ c**2) - 1 / 12)
        for A1 in mats:
            for A2 in mats:
                residuals.append(b @ (A1 @ (A2 @ c)) - 1 / 24)
    if order >= 5:
        residuals.append(b @ c**4 - 1 / 5)
    return float(np.max(np.abs(residuals)))


@dataclass(frozen=True)
class StepIncrements:
    """Main and embedded increments of one step.

    ``u_next = u + dt*d1`` is the order-p update; the embedded companion is
    ``u + dt*d2``.  ``d_im``, the implicit stages' share of d1, is formed
    only when asked for (multiple relaxation searches along it), else None.
    """

    u_next: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    d_im: np.ndarray | None = None


def imex_step(
    u, t: ImExTableau, dt: float, fim: SpectralOperator, fex, *, implicit_half=False, _stages=None
) -> StepIncrements:
    """One additive RK step from the state vector ``u``.

    ``fim`` is the stiff part, a :class:`SpectralOperator`; anything else is
    refused, and so is a vector whose length is not its grid's.  ``fex`` is
    the explicit right-hand side callable.  Stages with zero implicit
    diagonal skip the solve entirely, and a zero-diagonal first stage
    evaluates ``fex`` at ``u`` itself.

    The 2s stage derivatives fill one complex (2s, m) array K (``_stages``
    if given, which a stepper reuses from step to step): on its float64 view
    stage i's right-hand side is ``û + (dt*t.stage_rows[i, :2i]) @ K[:2i]``,
    with û the DFT of the state; d1, d2 (and d_im if ``implicit_half``) are
    ``t.increment_rows @ K`` transformed back.  Stage i's slot K[2i] is its
    scratch: its right-hand side is written there, and ``symbol * ĝ``
    overwrites it once the shifted solve ĝ is taken; u_next is ``dt*d1``
    with u added in place.  Each product, sum and quotient keeps its
    operands and their order, so the in-place forms round as the plain
    expressions do.  u_next and the increments are fresh arrays.
    """
    if not isinstance(fim, SpectralOperator):
        raise ConfigurationError(
            f"stiff part must be a SpectralOperator, got {type(fim).__name__}"
        )
    u = np.ascontiguousarray(u)
    if not dt > 0:
        raise ConfigurationError(f"dt must be positive, got {dt}")
    fim._check(u)
    # Looked up per call, so a tracer that wraps them counts every DFT.
    forward, inverse = spectral.dft_forward, spectral.dft_inverse
    uhat = forward(u).view(np.float64)
    stages = np.empty((2 * t.s, *u.shape), np.complex128) if _stages is None else _stages
    flat = stages.view(np.float64)
    for i in range(t.s):
        rhs = flat[2 * i]
        np.matmul(dt * t.stage_rows[i, : 2 * i], flat[: 2 * i], out=rhs)
        np.add(uhat, rhs, out=rhs)
        mu = dt * t.a_im[i, i]
        # The solve gets a fresh array: written into the slot too, it let
        # glibc trim and refault the heap top on every stage at m=4480 under
        # a fixed mmap threshold (fem-growth: 91k minor faults a call, not 51k).
        ghat = stages[2 * i] if mu == 0.0 else stages[2 * i] / fim.shifted(mu)
        g = u if i == 0 and mu == 0.0 else inverse(ghat)
        np.multiply(fim.symbol, ghat, out=stages[2 * i])
        stages[2 * i + 1] = forward(fex(g))
    # One product per row: a (2, 2m) result exceeds a 128 KiB mmap threshold at m=4480.
    rows = t.increment_rows if implicit_half else t.increment_rows[:2]
    d1, d2, *d_im = (inverse((w @ flat).view(np.complex128)) for w in rows)
    u_next = np.multiply(dt, d1)
    return StepIncrements(np.add(u, u_next, out=u_next), d1, d2, *d_im)
