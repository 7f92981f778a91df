"""Closed-form observables of the asymmetric modes.

``measure`` evaluates energy, <r^2> and <Lz> by exact inner products for
``als table``; the ``observables`` suite of ``als verify`` certifies the
closed forms on level vectors (``operators.level_matrix``).

In twisted labels (n_r, l), in natural units (omega = rho_h = hbar = 1):

    energy    = 2 n_r + |l| - sign_e * l + 1
    <r^2>     = (2 n_r + |l| + 1) / 2        (alpha independent)
    <Lz>      = l * sin(2 alpha)

Only the CLI rescales to --omega and --rho-h.
"""

from __future__ import annotations

import math

from .gstate import GaussianPolyState, PolyDiffOperator, apply, inner_product
from .operators import check_sign, expectation, h3, h_perp


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


def measure(state: GaussianPolyState, alpha: float, sign_e: int) -> tuple[float, float, float]:
    """Exact (energy, <r^2>, <Lz>) of a state in units of omega, rho_h^2, hbar.

    Energy and <Lz> are normalised expectations; <r^2> is <s|r^2|s>
    without dividing by <s|s>, so it is meant for unit-norm states.
    """
    e = expectation(state, h_perp(alpha, sign_e)).real
    r2 = inner_product(state, apply(R2_OP, state)).real
    lz = expectation(state, h3()).real
    return e, r2, lz

