"""Transverse-Hamiltonian operator family and its SO(3) structure.

All operators are dimensionless (units of the rotation frequency omega)
over coordinates in units of the transverse radius:

    Hs = -1/4 (dxx + dyy) + (x^2 + y^2)        isotropic oscillator
    H1 = -1/4 (dxx - dyy) + (x^2 - y^2)        astigmatic difference
    H2 = -1/2 dx dy + 2 x y                    diagonal astigmatism
    H3 = -i (x dy - y dx)                      angular momentum, = Lz

The triple L_i = H_i / 2 obeys [L_i, L_j] = i eps_ijk L_k with
eps_123 = +1, and Hs commutes with all three, so every Hs level of energy
n + m + 1 carries a pseudo-spin multiplet of rank j = (n + m)/2.  The
Casimir (H1^2 + H2^2 + H3^2)/4 collapses to Hs^2/4 - 1/4 identically.

The fixed operators are module constants, built once and shared by every
caller, which must not change them: ``HS``, ``H1``, ``H2``, ``H3``,
``CASIMIR``, ``R2`` (x^2 + y^2, the library's one copy) and ``IDENTITY``.

The Hamiltonian family has one formula, the pseudo-spin coupled to the
unit axis n(phi, alpha) = (cos 2phi cos 2alpha, sin 2phi cos 2alpha,
sin 2alpha) of ``spin_axis``, with the weights -sign_e n of ``family_weights``:

    H = Hs - sign_e * 2 * n . L = Hs - sign_e (n1 H1 + n2 H2 + n3 H3).

At phi = 0 it is Hperp(alpha) = Hs + Has(alpha), with the asymmetric part
Has(alpha) = -sign_e [cos(2 alpha) H1 + sin(2 alpha) H3].

``Hphys`` is the same Hamiltonian before the symmetrizing coordinate
dilation, written with the field ellipticity beta:

    Hphys = -1/4 (dxx + dyy)
            - sign_e * 2 * (-i) [-beta y dx + (1 - beta) x dy]
            + 4 [beta^2 y^2 + (1 - beta)^2 x^2].

With U the unitary dilation psi(x, y) -> sqrt(lx ly) psi(lx x, ly y) at
(lx, ly) = (sqrt(2(1-beta)), sqrt(2 beta)),

    U^-1 Hphys U = Hperp(alpha(beta)),

so Hphys has the mode spectrum of Hperp; ``dilate`` forms the left side.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from functools import lru_cache

import numpy as np

from .gstate import (
    GaussianPolyState,
    PolyDiffOperator,
    apply,
    compose,
    inner_product,
)

def check_sign(sign_e: int) -> None:
    """Reject a charge sign other than -1 (electron) or +1 (positron)."""
    if sign_e not in (-1, 1):
        raise ValueError(f"sign_e must be -1 or +1, got {sign_e}")


#: Isotropic oscillator Hs.
HS = PolyDiffOperator({(0, 0, 2, 0): -0.25, (0, 0, 0, 2): -0.25, (2, 0, 0, 0): 1.0, (0, 2, 0, 0): 1.0})
#: Astigmatic difference H1.
H1 = PolyDiffOperator({(0, 0, 2, 0): -0.25, (0, 0, 0, 2): 0.25, (2, 0, 0, 0): 1.0, (0, 2, 0, 0): -1.0})
#: Diagonal astigmatism H2.
H2 = PolyDiffOperator({(0, 0, 1, 1): -0.5, (1, 1, 0, 0): 2.0})
#: H3, which is also the angular momentum Lz in these units.
H3 = PolyDiffOperator({(1, 0, 0, 1): -1j, (0, 1, 1, 0): 1j})
#: Casimir (H1^2 + H2^2 + H3^2)/4, normal ordered.
CASIMIR = 0.25 * (compose(H1, H1) + compose(H2, H2) + compose(H3, H3))
#: Multiplication by r^2 = x^2 + y^2.
R2 = PolyDiffOperator({(2, 0, 0, 0): 1.0, (0, 2, 0, 0): 1.0})
#: The identity operator.
IDENTITY = PolyDiffOperator({(0, 0, 0, 0): 1.0})


def spin_axis(phi, alpha) -> np.ndarray:
    """Unit axis on the mode sphere singled out by (phi, alpha), shape (..., 3) for arrays."""
    c2a = np.cos(2 * alpha)
    return np.stack((np.cos(2 * phi) * c2a, np.sin(2 * phi) * c2a, np.sin(2 * alpha)), axis=-1)


def family_weights(phi, alpha, sign_e: int) -> np.ndarray:
    """Weights -sign_e n(phi, alpha) of (H1, H2, H3), shape (..., 3) for arrays; every form of the family reads them."""
    check_sign(sign_e)
    return -sign_e * spin_axis(phi, alpha)


def _coupling(phi: float, alpha: float, sign_e: int) -> PolyDiffOperator:
    """-sign_e * 2 n(phi, alpha) . L = w1 H1 + w2 H2 + w3 H3: the family's one formula."""
    w1, w2, w3 = family_weights(phi, alpha, sign_e).tolist()
    return w1 * H1 + w2 * H2 + w3 * H3


def h_as(alpha: float, sign_e: int = -1) -> PolyDiffOperator:
    """Asymmetric part -sign_e [cos(2 alpha) H1 + sin(2 alpha) H3]: the coupling at phi = 0."""
    return _coupling(0.0, alpha, sign_e)


def h_perp(alpha: float, sign_e: int = -1) -> PolyDiffOperator:
    """Transverse Hamiltonian Hs + Has(alpha)."""
    return HS + h_as(alpha, sign_e)


def schwinger_operator(phi: float, alpha: float, sign_e: int) -> PolyDiffOperator:
    """General rotated Hamiltonian Hs - sign_e * 2 * n(phi, alpha) . L."""
    return HS + _coupling(phi, alpha, sign_e)


def h_phys(beta: float, sign_e: int = -1) -> PolyDiffOperator:
    """Transverse Hamiltonian written with the field ellipticity beta."""
    check_sign(sign_e)
    if not 0.0 < beta < 1.0:
        raise ValueError(
            f"Hphys needs beta strictly inside (0, 1), got {beta}: the "
            "symmetrizing dilation degenerates at the endpoints"
        )
    terms = {
        (0, 0, 2, 0): -0.25,
        (0, 0, 0, 2): -0.25,
        (0, 1, 1, 0): sign_e * 2j * (-beta),
        (1, 0, 0, 1): sign_e * 2j * (1.0 - beta),
        (0, 2, 0, 0): 4.0 * beta**2,
        (2, 0, 0, 0): 4.0 * (1.0 - beta) ** 2,
    }
    return PolyDiffOperator(terms)


@lru_cache(maxsize=None)
def _rotation_weights(d: int) -> np.ndarray:
    """Signed double binomials W_d of the degree-d rotation, read-only.

    Shape (d + 1, (d + 1)**2): row e, read as a (d + 1) x (d + 1) matrix,
    is the coefficient of cos^e(phi) sin^(d-e)(phi) in the map from the
    coefficient of x^(d-q) y^q (column q) to that of x^(d-r) y^r (row r).
    """
    w = np.zeros((d + 1, d + 1, d + 1))
    for q in range(d + 1):
        p = d - q
        for i in range(p + 1):
            for jj in range(q + 1):
                # x^p y^q -> (c x + s y)^p (-s x + c y)^q, double binomial
                w[i + jj, p - i + jj, q] += (
                    math.comb(p, i) * math.comb(q, jj) * (-1) ** (q - jj)
                )
    w = w.reshape(d + 1, -1)
    w.flags.writeable = False
    return w


def rotate(s: GaussianPolyState, phi: float) -> GaussianPolyState:
    """Clockwise coordinate rotation by phi:

    psi(x, y) -> psi(x cos(phi) + y sin(phi), -x sin(phi) + y cos(phi)).

    Exactly norm preserving.  Each homogeneous degree d maps as one
    (d + 1)-vector by the matrix sum_e W_d[e] cos^e(phi) sin^(d-e)(phi),
    which is the identity at phi = 0.
    """
    c, si = math.cos(phi), math.sin(phi)
    by_degree: dict[int, dict[int, complex]] = {}
    for (p, q), coeff in s.terms.items():
        by_degree.setdefault(p + q, {})[q] = coeff
    e = np.arange(max(by_degree, default=0) + 1)
    cos_e, sin_e = c**e, si**e
    out: dict[tuple[int, int], complex] = {}
    for d, column in by_degree.items():
        v = np.zeros(d + 1, dtype=complex)
        v[list(column)] = list(column.values())
        mat = (cos_e[: d + 1] * sin_e[d::-1]) @ _rotation_weights(d)
        u = mat.reshape(d + 1, d + 1) @ v
        out.update(zip(((d - r, r) for r in range(d + 1)), u.tolist()))
    return GaussianPolyState(out)


def dilate(D: PolyDiffOperator, lx: float, ly: float) -> PolyDiffOperator:
    """U^-1 D U for the unitary dilation U: psi(x, y) -> sqrt(lx ly) psi(lx x, ly y).

    U^-1 x U = x / lx and U^-1 d/dx U = lx d/dx (likewise in y), so the
    normal-ordered term c x^p y^q dx^a dy^b scales by lx^(a-p) ly^(b-q).
    """
    if not (lx > 0 and ly > 0):
        raise ValueError(f"dilation scales must be positive, got ({lx}, {ly})")
    return PolyDiffOperator(
        {(p, q, a, b): c * lx ** (a - p) * ly ** (b - q) for (p, q, a, b), c in D.terms.items()}
    )


@lru_cache(maxsize=None)
def _axis_factor(size: int, p: int, d: int) -> np.ndarray:
    """x^p (d/dx)^d on one axis, truncated to ``size`` oscillator states; read-only."""
    a = np.diag(np.sqrt(np.arange(1.0, size)), 1)
    pos, der = 0.5 * (a + a.T), a - a.T
    out = np.linalg.matrix_power(pos, p) @ np.linalg.matrix_power(der, d)
    out.flags.writeable = False
    return out


def level_matrix(ops: Sequence[PolyDiffOperator], order: int) -> np.ndarray:
    """Matrices of a stack of operators from the Hs level ``order`` onto the Hermite-Gauss products.

    Entry [i, nx, ny, k] is <nx, ny| ops[i] |order - k, k> (the products of
    ``modes.hlg_block``); nx, ny run over the whole image of every operator
    in the stack, and one operator is a stack of one.  On each axis x is
    (a + a^T)/2 and d/dx is a - a^T, with a[k-1, k] = sqrt(k).  Each
    normal-ordered term's product matrix, which is real, is formed once per
    call and shared by the stack; each operator sums the real and the
    imaginary parts of its coefficients times those products, in the order
    of its terms.
    """
    size = order + 1 + max((sum(key) for D in ops for key in D.terms), default=0)
    # each factor moves an index by one, so the truncation at ``size`` is exact
    products = {}
    for p, q, dx, dy in {key for D in ops for key in D.terms}:
        mx, my = _axis_factor(size, p, dx), _axis_factor(size, q, dy)
        products[p, q, dx, dy] = mx[:, None, order::-1] * my[None, :, : order + 1]
    out = np.zeros((len(ops), size, size, order + 1), dtype=complex)
    total, scaled = np.empty((2, size, size, order + 1))
    for D, matrix in zip(ops, out):
        for part, weights in (
            (matrix.real, [(c.real, products[key]) for key, c in D.terms.items() if c.real]),
            (matrix.imag, [(c.imag, products[key]) for key, c in D.terms.items() if c.imag]),
        ):
            if weights:
                (w, term), *rest = weights
                np.multiply(term, w, out=total)
                for w, term in rest:
                    total += np.multiply(term, w, out=scaled)
                part[...] = total
    return out


def expectation(s: GaussianPolyState, D: PolyDiffOperator) -> complex:
    """<s| D |s> / <s|s>."""
    nrm = inner_product(s, s).real
    if nrm <= 0.0:
        raise ValueError("expectation of a zero-norm state is undefined")
    return inner_product(s, apply(D, s)) / nrm


def eigen_residual(s: GaussianPolyState, D: PolyDiffOperator, lam: complex) -> float:
    """||D s - lam s|| / ||s||."""
    nrm2 = inner_product(s, s).real
    if nrm2 <= 0.0:
        raise ValueError("eigen residual of a zero-norm state is undefined")
    r = apply(D, s) - complex(lam) * s
    return math.sqrt(max(inner_product(r, r).real, 0.0) / nrm2)
