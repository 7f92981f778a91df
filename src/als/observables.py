"""Closed-form observables of the asymmetric modes.

``sweep`` evaluates energy, <r^2> and <Lz> over an alpha sweep for ``als table``: it
forms four Gram matrices over the level's Hermite-Gauss products once (the overlap and
the shared ``operators`` constants H1, H3 and R2), in one exact term-map ``gstate.gram``
call, and reads every alpha as a quadratic form of the mode's level vector: Hs as N + 1,
the coupling as w1 H1 + w3 H3 (``operators.family_weights`` at phi = 0, where w2 = 0).
The ``observables`` suite of ``als verify`` certifies the closed forms on level vectors
(``operators.level_matrix``).

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

from .gstate import apply, gram
from .modes import hlg_blocks, hlg_state
from .operators import H1, H3, R2, check_sign, family_weights


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


def sweep(n: int, m: int, alphas: Iterable[float], sign_e: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact energy, <r^2> and <Lz> of psi_{n,m}(alpha), each an array over the alphas, in omega, rho_h^2, hbar.

    Energy and <Lz> are normalised expectations; <r^2> is <v|r^2|v> without
    dividing by <v|v>.  hlg_state(N-k, k, 0) is (-i)^k |N-k, k>, so the
    products P_k below are the basis of ``hlg_block``, and G_D[k, k'] =
    <P_k| D |P_k'> turns every expectation into v^H G_D v (``einsum``, all
    alphas at once).  Each P_k has Hs = N + 1, and (w1, w2, w3) = ``family_weights(0, a, sign_e)``
    has w2 = 0, so the energy is (N + 1) v^H G_id v + (w1 v^H G_1 v + w3 v^H G_3 v).
    """
    order = n + m
    alphas = np.array(list(alphas), dtype=float)
    w1, _, w3 = family_weights(0.0, alphas, sign_e).T
    vecs = hlg_blocks(n, m, alphas)
    products = [(1j**k) * hlg_state(order - k, k, 0.0) for k in range(order + 1)]
    images = [apply(op, q) for op in (H1, H3, R2) for q in products]
    grams = np.split(gram(products, products + images), 4, axis=1)
    nrm, q1, q3, r2 = (np.einsum("ak,kl,al->a", vecs.conj(), g, vecs).real for g in grams)
    e = (order + 1) * nrm + (w1 * q1 + w3 * q3)
    return e / nrm, r2, q3 / nrm
