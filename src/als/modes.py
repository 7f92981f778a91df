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

with the Jacobi factor folded into c_k = i^k F_k(n, m; a) (``folded_sum``),

    F_k(n, m; a) = sum_s (-1)^s C(n, k-s) C(m, s) cos^(n-k+2s)(a) sin^(m+k-2s)(a),

exact at a = 0 and pi/2; at a = 0 only c_m = (-i)^m survives.
``hlg_state`` expands this sum into a term map.

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

hold exactly (as an SU(2) identity, including half-integer j).

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
writes goes through it.  For one level vector, ``level_values`` gives psi at
a list of points and ``radial_profile`` the angular mean of |psi|^2.
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


def folded_sum(n: int, m: int, k: int, ca: float, sa: float) -> float:
    """F_k(n, m; a) of the module docstring from ca = cos(a) and sa = sin(a), for 0 <= k <= n + m."""
    acc = 0.0
    for s in range(max(0, k - n), min(k, m) + 1):
        term = comb(n, k - s) * comb(m, s)
        term *= ca ** (n - k + 2 * s) * sa ** (m + k - 2 * s)
        acc += -term if s % 2 else term
    return acc


def hlg_coefficients(n: int, m: int, alpha: float) -> list[complex]:
    """Coefficients c_k = i^k F_k(n, m; alpha) of H_{n+m-k}(sqrt2 x) H_k(sqrt2 y) in the mode sum."""
    ca, sa = math.cos(alpha), math.sin(alpha)
    return [1j**k * folded_sum(n, m, k, ca, sa) for k in range(n + m + 1)]


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


def level_values(vec: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """psi at the points (x_i, y_i) for one level vector v of length N + 1.

    psi(x_i, y_i) = sum_k v_k phi_{N-k}(x_i) phi_k(y_i); the real and
    imaginary parts are contracted separately with ``einsum``, which calls
    no BLAS, so (x, y) -> (-x, -y) multiplies psi by (-1)^N exactly.
    """
    order = len(vec) - 1
    terms = specfun.hermite_functions(order, x)[::-1] * specfun.hermite_functions(order, y)
    return np.einsum("k,ki->i", vec.real, terms) + 1j * np.einsum("k,ki->i", vec.imag, terms)


def radial_profile(vec: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Angular mean of |psi|^2 on the circles of radius r, for a level vector.

    In the Laguerre-Gauss weights w = B.conj() v, B = ``level_modes(N, [pi/4])[0]``,
    the rows of different Lz do not interfere under the angular mean, and each
    |LG_k|^2 is round, so the mean is sum_k |w_k|^2 |LG_k(r, 0)|^2 exactly,
    with LG_k(r, 0) = sum_q B[k, q] phi_{N-q}(r) phi_q(0) on the Hermite
    tables.
    Contracted with ``einsum``, which calls no BLAS.
    """
    order = len(vec) - 1
    basis = level_modes(order, [0.25 * math.pi])[0]
    w = np.einsum("kq,q->k", basis.conj(), vec)
    on_axis = basis * specfun.hermite_functions(order, np.zeros(1))[:, 0]
    lg = np.einsum("kq,qi->ki", on_axis, specfun.hermite_functions(order, r)[::-1])
    return np.einsum("k,ki->i", w.real**2 + w.imag**2, lg.real**2 + lg.imag**2)


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


def wigner_decompose(
    j: float, m_l: float, A: float, B: float, C: float
) -> dict[float, complex]:
    """Expansion coefficients of the rotated mode over the alpha=0 basis.

    Returns ``{m_l': D^j_{m_l', m_l}(A, B, C)}`` for m_l' = -j ... j; the
    coefficient multiplies the basis state psi_{j+m_l', j-m_l'}(alpha=0).
    The rows are unitary: sum |coeff|^2 = 1.  At A = C = 0 this is the
    d-matrix column ``hlg_block`` holds, up to the phases i^k (-1)^m;
    ``specfun.wigner_small_d`` checks j and m_l on every element.
    """
    tj = abs(round(2 * j))  # abs: a negative j still reaches that check
    return {
        0.5 * tmp: specfun.wigner_D(j, 0.5 * tmp, m_l, A, B, C)
        for tmp in range(-tj, tj + 1, 2)
    }
