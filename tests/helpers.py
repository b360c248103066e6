"""Shared independent oracles for the test suite."""

import math

import numpy as np

from nlslab.core import GridState, dft_forward, dft_inverse
from nlslab.oracles import soliton_beta, soliton_exact


def pde_residual(n: int, x: float, t: float, h: float = 1e-4) -> float:
    """|i u_t + u_xx + beta |u|^2 u| via fourth-order finite differences.

    Independent check that the closed-form soliton expressions solve the
    equation; this is the transcription oracle for the long three-soliton
    formula, where a single mistyped exponent would otherwise be invisible.
    """
    beta = soliton_beta(n)
    u = soliton_exact(n, x, t)
    ut = (
        -soliton_exact(n, x, t + 2 * h)
        + 8 * soliton_exact(n, x, t + h)
        - 8 * soliton_exact(n, x, t - h)
        + soliton_exact(n, x, t - 2 * h)
    ) / (12 * h)
    uxx = (
        -soliton_exact(n, x + 2 * h, t)
        + 16 * soliton_exact(n, x + h, t)
        - 30 * u
        + 16 * soliton_exact(n, x - h, t)
        - soliton_exact(n, x - 2 * h, t)
    ) / (12 * h**2)
    return abs(1j * ut + uxx + beta * abs(u) ** 2 * u)


def random_family(m: int, seed: int):
    """Random complex (u0, A, B) of length m; the directions are scaled by a
    common factor between 1e-3 and 10, so the terms of every degree matter."""
    rng = np.random.default_rng(seed)
    u0, A, B = (rng.standard_normal(m) + 1j * rng.standard_normal(m) for _ in range(3))
    scale = 10.0 ** rng.uniform(-3.0, 1.0)
    return u0, scale * A, scale * B


def restriction_mismatch(functional, magnitude, grid, u0, A, B, g1, g2):
    """(|restrict polynomial - measured change|, summed absolute term size).

    The measured change is ``functional.evaluate`` at u0 + g1*A + g2*B minus
    its value at u0.  ``magnitude`` is the same functional with every node
    term nonnegative; with the absolute polynomial terms it bounds what
    rounding can leave in either side.
    """
    coeffs = functional.restrict(u0, A, B, grid)
    terms = [coeffs[i, j] * g1**i * g2**j for i in range(5) for j in range(5)]
    s0, s1 = GridState(grid, u0), GridState(grid, u0 + g1 * A + g2 * B)
    change = functional.evaluate(s1) - functional.evaluate(s0)
    size = magnitude.evaluate(s0) + magnitude.evaluate(s1) + sum(abs(t) for t in terms)
    return abs(math.fsum(terms) - change), size


def shifted_solve(op, rhs, mu):
    """g with (I - mu*f) g = rhs for a multiplier ``op``, solved in state space
    the way imex_step solves its stages: dividing by ``op.shifted(mu)``."""
    return dft_inverse(dft_forward(rhs) / op.shifted(mu))


def per_term_step(u, t, dt, apply, solve, fex):
    """One ImEx step of tableau ``t`` summed term by term in state space,
    written independently of imex_step: ``apply`` is the stiff term and
    ``solve(rhs, mu)`` the inverse of I - mu*apply.  Returns (u_next, d1, d2).
    """
    k_im, k_ex = [], []
    for i in range(t.s):
        rhs = u.copy()
        for j in range(i):
            rhs = rhs + (dt * t.a_im[i, j]) * k_im[j] + (dt * t.a_ex[i, j]) * k_ex[j]
        mu = dt * t.a_im[i, i]
        g = rhs if mu == 0.0 else solve(rhs, mu)
        k_im.append(apply(g))
        k_ex.append(fex(g))
    d1 = sum(b * (ki + ke) for b, ki, ke in zip(t.b_main, k_im, k_ex))
    d2 = sum(b * (ki + ke) for b, ki, ke in zip(t.b_embedded, k_im, k_ex))
    return u + dt * d1, d1, d2
