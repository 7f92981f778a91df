"""Closed-form observables of the asymmetric modes.

``sweep`` evaluates energy, <r^2> and <Lz> over an alpha sweep for
``als table``: it forms each operator's Gram matrix over the level's
Hermite-Gauss products once, from exact term-map inner products, and reads
every alpha as a quadratic form of the mode's level vector.  The
``observables`` suite of ``als verify`` certifies the closed forms on level
vectors (``operators.level_matrix``).

In twisted labels (n_r, l), in natural units (omega = rho_h = hbar = 1):

    energy    = 2 n_r + |l| - sign_e * l + 1
    <r^2>     = (2 n_r + |l| + 1) / 2        (alpha independent)
    <Lz>      = l * sin(2 alpha)

Only the CLI rescales to --omega and --rho-h.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

import numpy as np

from .gstate import PolyDiffOperator, apply, inner_product
from .modes import hlg_block, hlg_state
from .operators import check_sign, h1, h3, hs


def energy(n_r: int, l: int, sign_e: int) -> float:
    """Transverse level energy in units of omega, degenerate in l for each charge sign."""
    if n_r < 0:
        raise ValueError(f"radial quantum number must be >= 0, got {n_r}")
    check_sign(sign_e)
    return float(2 * n_r + abs(l) - sign_e * l + 1)


def mean_r2(n_r: int, l: int) -> float:
    """Mean square transverse radius in units of rho_h^2; independent of alpha."""
    if n_r < 0:
        raise ValueError(f"radial quantum number must be >= 0, got {n_r}")
    return 0.5 * (2 * n_r + abs(l) + 1)


def mean_lz(l: int, alpha: float) -> float:
    """Mean angular momentum projection l sin(2 alpha)."""
    return l * math.sin(2 * alpha)


#: Multiplication by r^2 = x^2 + y^2.
R2_OP = PolyDiffOperator({(2, 0, 0, 0): 1.0, (0, 2, 0, 0): 1.0})


def sweep(n: int, m: int, alphas: Iterable[float], sign_e: int) -> list[tuple[float, float, float]]:
    """Exact (energy, <r^2>, <Lz>) of psi_{n,m}(alpha) per alpha, in omega, rho_h^2, hbar.

    Energy and <Lz> are normalised expectations; <r^2> is <v|r^2|v> without
    dividing by <v|v>.  hlg_state(N-k, k, 0) is (-i)^k |N-k, k>, so the
    products P_k below are the basis of ``hlg_block``, and G_D[k, k'] =
    <P_k| D |P_k'> turns every expectation into v^H G_D v.
    """
    check_sign(sign_e)
    order = n + m
    products = [(1j**k) * hlg_state(order - k, k, 0.0) for k in range(order + 1)]

    def gram(op):
        images = products if op is None else [apply(op, q) for q in products]
        return np.array([[inner_product(p, q) for q in images] for p in products])

    g_id, g_s, g_1, g_3, g_r2 = (gram(op) for op in (None, hs(), h1(), h3(), R2_OP))
    out = []
    for a in map(float, alphas):
        v = hlg_block(n, m, a)
        g_e = g_s - sign_e * (math.cos(2 * a) * g_1 + math.sin(2 * a) * g_3)
        nrm, e, r2, lz = ((v.conj() @ g @ v).real for g in (g_id, g_e, g_r2, g_3))
        out.append((e / nrm, r2, lz / nrm))
    return out
