"""Hermite-Laguerre-Gauss mode construction and quantum-number maps.

The mode family interpolates between the Hermite-Gauss product states at
``alpha = 0`` and the twisted Laguerre-Gauss states at ``alpha = pi/4``.
A mode carries Cartesian indices ``(n, m)``; the twisted labels are

    l = n - m,        n_r = (n + m - |l|) / 2.

The paper defines the mode by a finite sum over Hermite products,

    G_{n,m}(x, y | a) = exp(-x^2 - y^2) *
        sum_k  i^k cos^(n-k)(a) sin^(m-k)(a)
               P_k^(n-k, m-k)(-cos 2a) H_{n+m-k}(sqrt2 x) H_k(sqrt2 y),

    ||G_{n,m}||^2 = pi 2^(n+m-1) n! m!,

with the Jacobi factor folded into c_k = i^k F_k(n, m; a),

    F_k(n, m; a) = sum_s (-1)^s C(n, k-s) C(m, s) cos^(n-k+2s)(a) sin^(m+k-2s)(a),

exact at a = 0 and pi/2; at a = 0 only c_m = (-i)^m survives.
``level_sums`` evaluates F for a whole level at an array of angles, and
``hlg_state`` expands one mode's row into a term map.

The same states arise from an SU(2) rotation of the Hermite-Gauss basis.
With the basis states |m'> = psi_{j+m', j-m'}(alpha=0) of rank
j = (n + m)/2, the coefficient matrix of the rotated family is a Wigner D
in the z-y-z convention; ``euler_angles`` returns angles (A, B, C)
satisfying

    exp(-i(A+C)/2) cos(B/2) =  cos(phi) cos(alpha) - i sin(phi) sin(alpha)
    exp(+i(A-C)/2) sin(B/2) = -cos(phi) sin(alpha) + i sin(phi) cos(alpha)

with B in [0, pi], which makes

    psi^rot_{j+m, j-m}(x, y; phi, alpha)
        = sum_{m'} D^j_{m',m}(A, B, C) psi_{j+m', j-m'}(x, y; 0)

hold exactly (as an SU(2) identity, including half-integer j).  In the
[a, b] layout of ``specfun.wigner_D(2j, A, B, C)``, m' = j - a and
m = j - b: column b holds the rotated mode psi^rot_{2j-b, b} over the
basis states psi_{2j-a, a}(alpha=0).

Within one level N = n + m the modes are unit (N+1)-vectors over the
normalised Hermite-Gauss products |N-k, k> (``hlg_block``), each a column
of the Wigner d-matrix (Visser and Nienhuis, PRA 70, 013809, 2004):

    hlg_block(n, m, alpha)[k] = i^k (-1)^m d^{N/2}_{N/2-k, (n-m)/2}(2 alpha).

The finite sum loses digits as N grows, so d comes from the one SU(2) kernel
``specfun.wigner_d_columns`` (a cached ``eigh`` of Jy): ``hlg_blocks`` reads
column m, ``level_modes(N, alphas)`` every column, row k being
psi_{N-k,k}(alpha); at pi/4 the rows are the Laguerre-Gauss basis, Lz = N - 2k.
On the products Lz = 2 Jy, so a rotation of the plane by phi is the rotation
d^{N/2}(2 phi) of the same multiplet (``rotate_block``).  ``level_density``
samples |psi|^2 of any set of level vectors on a grid; every grid the CLI
writes goes through it.  ``lg_expansion`` is the one home of the pi/4
frame: the weights of level vectors over it, their Lz, and its modes on a
ray, from which psi on any circle and its angular mean follow.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial

import numpy as np

from . import specfun
from .gstate import GaussianPolyState
from .operators import check_sign, rotate

#: Limit on n + m; the term maps of ``hlg_state`` lose digits above it.
ORDER_CAP = 20


@dataclass(frozen=True)
class ModeIndex:
    """Cartesian mode indices with the twisted-label maps."""

    n: int
    m: int

    def __post_init__(self):
        if self.n < 0 or self.m < 0:
            raise ValueError(f"mode indices must be >= 0, got ({self.n}, {self.m})")
        if self.n + self.m > ORDER_CAP:
            raise ValueError(f"mode order n+m = {self.n + self.m} exceeds the cap {ORDER_CAP}")

    @property
    def l(self) -> int:
        """Orbital angular momentum projection label."""
        return self.n - self.m

    @property
    def n_r(self) -> int:
        """Radial quantum number."""
        return (self.n + self.m - abs(self.l)) // 2

    @classmethod
    def from_twisted(cls, n_r: int, l: int) -> "ModeIndex":
        """Cartesian (n, m) for twisted labels (n_r, l)."""
        if n_r < 0:
            raise ValueError(f"radial quantum number must be >= 0, got {n_r}")
        if l >= 0:
            return cls(n_r + l, n_r)
        return cls(n_r, n_r - l)


def beta_to_alpha(beta: float, sign_e: int) -> float:
    """State parameter alpha in [0, pi/2] for field ellipticity beta.

    The principal branch of ``beta = sin^2(alpha)`` for negative charge and
    ``beta = cos^2(alpha)`` for positive charge.
    """
    check_sign(sign_e)
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must lie in [0, 1], got {beta}")
    root = math.sqrt(beta)
    return math.asin(root) if sign_e < 0 else math.acos(root)


def check_alpha(alpha: float) -> None:
    """Reject a symmetry angle outside [0, pi/2] (with 1e-12 of slack above)."""
    if not 0.0 <= alpha <= 0.5 * math.pi + 1e-12:
        raise ValueError(
            f"alpha must lie in [0, pi/2], got {alpha}; out-of-range values "
            "reduce via alpha -> alpha +- pi/2 with mode relabeling"
        )


def level_sums(order: int, alphas) -> np.ndarray:
    """F_k(N - m, m; a) at [i, m, k] for a = alphas[i], N = order: every mode of the level at each angle.

    Bit for bit the loop over s from 0.0: Python's ``float ** int`` powers
    (``np.power`` can be an ulp off), binomial products rounded once, and a
    ``cumsum`` over s whose cells outside the sum add +0.0.
    """
    m, k, s = np.ogrid[: order + 1, : order + 1, : order + 1]
    inside = (s <= m) & (s <= k) & (k - s <= order - m)
    binom = np.array([[comb(row, j) for j in range(order + 1)] for row in range(order + 1)], dtype=float)
    signed = (1 - 2 * (s % 2)) * binom[order - m, np.clip(k - s, 0, order)] * binom[m, s]
    p = np.clip(order - m - k + 2 * s, 0, order)
    cos_pow = np.array([[math.cos(a) ** e for e in range(order + 1)] for a in alphas])[:, p]
    sin_pow = np.array([[math.sin(a) ** e for e in range(order + 1)] for a in alphas])[:, order - p]
    return 0.0 + np.cumsum(np.where(inside, signed * (cos_pow * sin_pow), 0.0), axis=-1)[..., -1]


@lru_cache(maxsize=64)
def _level_sums_at(order: int, alpha_hex: str) -> np.ndarray:
    """``level_sums(order, [alpha])[0]``, keyed on the bits of alpha so that 0.0 and -0.0 stay apart."""
    return level_sums(order, [float.fromhex(alpha_hex)])[0]


def hlg_coefficients(n: int, m: int, alpha: float) -> list[complex]:
    """Coefficients c_k = i^k F_k(n, m; alpha) of H_{n+m-k}(sqrt2 x) H_k(sqrt2 y) in the mode sum."""
    return [1j**k * f for k, f in enumerate(_level_sums_at(n + m, float(alpha).hex())[m].tolist())]


def hlg_norm_squared(n: int, m: int) -> float:
    """Squared L2 norm of the unnormalized mode sum: pi 2^(n+m-1) n! m!."""
    return math.pi * 2.0 ** (n + m - 1) * factorial(n) * factorial(m)


@lru_cache(maxsize=None)
def _hermite_scaled(order: int) -> tuple[float, ...]:
    """Coefficients of H_order(sqrt2 u) in powers of u."""
    return tuple(c * 2.0 ** (0.5 * p) for p, c in enumerate(specfun.hermite(order)))


def _mode_columns(order: int, columns, alphas) -> np.ndarray:
    """[i, c, k] = i^k (-1)^m d^{N/2}_{N/2-k, N/2-m}(2 alphas[i]), m = columns[c]: mode psi_{N-m,m}."""
    for alpha in alphas:
        check_alpha(alpha)
    ms = np.asarray(columns)
    d = specfun.wigner_d_columns(order, ms, 2 * np.asarray(alphas, dtype=float))
    return np.array([1, 1j, -1, -1j])[np.arange(order + 1) % 4] * ((-1) ** ms[:, None] * d)


def hlg_blocks(n: int, m: int, alphas: np.ndarray | list[float]) -> np.ndarray:
    """Mode psi_{n,m} at each angle, shape (len(alphas), N + 1): row i is hlg_block(n, m, alphas[i]), bit for bit."""
    ModeIndex(n, m)
    return _mode_columns(n + m, [m], alphas)[:, 0]


def hlg_block(n: int, m: int, alpha: float) -> np.ndarray:
    """Mode psi_{n,m}(alpha) as a unit (N+1)-vector, N = n + m.

    Entry k is the coefficient of the normalised Hermite-Gauss product
    |N-k, k> = H_{N-k}(sqrt2 x) H_k(sqrt2 y) exp(-x^2 - y^2) /
    sqrt(pi 2^(N-1) (N-k)! k!), which is c_k sqrt((N-k)! k! / (n! m!)).
    """
    return hlg_blocks(n, m, [alpha])[0]


def level_modes(order: int, alphas: np.ndarray | list[float]) -> np.ndarray:
    """Every mode of the level at each angle, shape (len(alphas), N + 1, N + 1): [i, k] is hlg_block(order - k, k, alphas[i]), bit for bit."""
    ModeIndex(order, 0)
    return _mode_columns(order, np.arange(order + 1), alphas)


def rotate_block(vec: np.ndarray, phi: float) -> np.ndarray:
    """Level vector of the state rotated by phi, as ``operators.rotate`` turns a term map.

    The rotation is d^{N/2}(2 phi) on the products, contracted with ``einsum``
    part by part.  At phi = 0 the vector is returned as it is.
    """
    if phi == 0:
        return vec
    # d(2 phi) has period 2 pi in phi; fmod keeps 2 phi lam finite and
    # every |phi| < 2 pi as it is
    d = specfun.wigner_d_columns(len(vec) - 1, np.arange(len(vec)), [2.0 * math.fmod(phi, 2.0 * math.pi)])[0]
    return np.einsum("ck,c->k", d, vec.real) + 1j * np.einsum("ck,c->k", d, vec.imag)


def level_density(levels, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """|psi|^2 at (y_j, x_i), shape (len(y), len(x)), for psi given as level vectors.

    A vector v of length N + 1, for any set of levels N, holds the
    coefficients of |N-k, k> = phi_{N-k}(x) phi_k(y), as ``hlg_block`` does.
    Gathered by x-order p, psi = sum_p phi_p(x) sum_q C[p, q] phi_q(y) over
    the tables of ``specfun.hermite_functions``, p summed from high to low.
    The real and imaginary parts are contracted separately with ``einsum``,
    which calls no BLAS, so a sign flip of every term (a mirror or the
    inversion of the level's parity) gives the same bits.  Each part skips
    its all-zero rows: entry k of a single mode is i^k times a real number,
    so half the rows of each part are zero, and a zero row only adds zeros.
    """
    top = max(map(len, levels)) - 1
    coeffs = np.zeros((top + 1, top + 1), dtype=complex)  # row r: x-order top - r
    for vec in levels:
        coeffs[top + 1 - len(vec) :, : len(vec)] += np.diag(vec)
    tx = specfun.hermite_functions(top, x)[::-1]
    ty = specfun.hermite_functions(top, y)
    parts = []
    for part in (coeffs.real, coeffs.imag):
        rows = np.flatnonzero(part.any(axis=1))
        parts.append(np.einsum("rj,ri->ji", np.einsum("rq,qj->rj", part[rows], ty), tx[rows]))
    re, im = parts
    return re * re + im * im


def lg_expansion(vecs: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Level vectors in the Laguerre-Gauss frame, and that frame on the ray y = 0.

    vecs (..., N + 1) are vectors of one level N.  With the frame
    B = ``level_modes(N, [pi/4])[0]``, whose row k has Lz = N - 2k, returns
    w = vecs B^H, lz[k] = N - 2k and lg[k, i] = LG_k(r_i, 0) =
    sum_q B[k, q] phi_{N-q}(r_i) phi_q(0) on the Hermite tables, so that

        psi(r cos t, r sin t) = sum_k w_k lg[k] exp(i lz_k t).

    Rows of different Lz do not interfere under the angular mean, which is
    sum_k |w_k|^2 |lg_k|^2; only the lz = 0 row is nonzero at r = 0.
    """
    order = vecs.shape[-1] - 1
    basis = level_modes(order, [0.25 * math.pi])[0]
    on_axis = basis * specfun.hermite_functions(order, np.zeros(1))[:, 0]
    lg = np.einsum("kq,qi->ki", on_axis, specfun.hermite_functions(order, r)[::-1])
    return vecs @ basis.conj().T, order - 2 * np.arange(order + 1), lg


def hlg_state(n: int, m: int, alpha: float) -> GaussianPolyState:
    """Mode state psi_{n,m}(alpha) as an exact term map of unit norm.

    At alpha = 0 this is the Hermite-Gauss product (including its (-i)^m
    phase), at alpha = pi/4 the twisted Laguerre-Gauss state.
    """
    ModeIndex(n, m)
    check_alpha(alpha)
    coeffs = hlg_coefficients(n, m, alpha)
    terms: dict[tuple[int, int], complex] = {}
    for k, ck in enumerate(coeffs):
        if abs(ck) == 0.0:
            continue
        hx = _hermite_scaled(n + m - k)
        hy = _hermite_scaled(k)
        for p, cp in enumerate(hx):
            if cp == 0.0:
                continue
            for q, cq in enumerate(hy):
                if cq == 0.0:
                    continue
                key = (p, q)
                terms[key] = terms.get(key, 0j) + ck * cp * cq
    return (1.0 / math.sqrt(hlg_norm_squared(n, m))) * GaussianPolyState(terms)


def euler_angles(phi: float, alpha: float) -> tuple[float, float, float]:
    """z-y-z Euler angles (A, B, C) of the mode-family rotation.

    Defined by the pair of complex equations in the module docstring;
    B lies in [0, pi].  At the gauge-degenerate poles B = 0 and B = pi
    the convention C = 0 fixes the remaining angle.
    """
    w1 = complex(math.cos(phi) * math.cos(alpha), -math.sin(phi) * math.sin(alpha))
    w2 = complex(-math.cos(phi) * math.sin(alpha), math.sin(phi) * math.cos(alpha))
    B = 2.0 * math.atan2(abs(w2), abs(w1))
    if abs(w2) < 1e-15:
        return -2.0 * cmath.phase(w1), B, 0.0
    if abs(w1) < 1e-15:
        return 2.0 * cmath.phase(w2), B, 0.0
    A = -cmath.phase(w1) + cmath.phase(w2)
    C = -cmath.phase(w1) - cmath.phase(w2)
    return A, B, C


def schwinger_state(n: int, m: int, alpha: float, phi: float) -> GaussianPolyState:
    """Mode rotated by phi in the transverse plane:

    psi_{n,m}(x cos(phi) + y sin(phi), -x sin(phi) + y cos(phi); alpha).

    Eigenstate of the rotated-axis Hamiltonian family; unit norm.
    """
    return rotate(hlg_state(n, m, alpha), phi)

