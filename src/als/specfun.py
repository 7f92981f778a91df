"""Hermite polynomials and functions, grid points, SU(2) rotation matrix elements.

Everything is evaluated in double precision from exact integer recurrences
and factorial sums.  Coefficient growth bounds the practical range to
polynomial degrees <= 40 and rotation ranks j <= 8, which is far beyond
what the mode constructions upstream ever request.

Conventions:

* ``hermite`` returns the physicists' family,
  ``H_0 = 1``, ``H_1 = 2x``, ``H_{n+1} = 2x H_n - 2n H_{n-1}``.
* ``hermite_functions`` tabulates phi_n(x) = 2^(1/4) h_n(sqrt2 x), with h_n
  the normalised Hermite function, so that the normalised product state
  ``|N-k, k>`` is phi_{N-k}(x) phi_k(y).  The values come from the stable
  three-term recurrence (Bunck, BIT 49, 281, 2009), not from ``hermite``.
* ``wigner_D`` uses z-y-z Euler angles,

      D^j_{m',m}(A, B, C) = exp(-i m' A) d^j_{m',m}(B) exp(-i m C),

  with the factorial sum for the small-d function (rows indexed by m').
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from math import factorial

import numpy as np


@dataclass(frozen=True)
class PolyCoeffs:
    """Dense real polynomial, ``coeffs[i]`` multiplying ``x**i``."""

    coeffs: tuple[float, ...]

    def __call__(self, x):
        """Evaluate by Horner's scheme; works on scalars and numpy arrays."""
        acc = self.coeffs[-1] * (x * 0 + 1) if hasattr(x, "shape") else self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * x + c
        return acc


def hermite(n: int) -> PolyCoeffs:
    """Physicists' Hermite polynomial H_n as a coefficient table."""
    if n < 0:
        raise ValueError(f"Hermite order must be >= 0, got {n}")
    if n == 0:
        return PolyCoeffs((1.0,))
    prev = [1.0]
    cur = [0.0, 2.0]
    for k in range(1, n):
        nxt = [0.0] * (k + 2)
        for i, c in enumerate(cur):
            nxt[i + 1] += 2.0 * c
        for i, c in enumerate(prev):
            nxt[i] -= 2.0 * k * c
        prev, cur = cur, nxt
    return PolyCoeffs(tuple(cur))


def hermite_functions(kmax: int, x: np.ndarray) -> np.ndarray:
    """Table T[n, i] = phi_n(x_i) for n = 0..kmax, each phi_n of unit norm in x.

    Started from exp(-x^2), so nothing overflows where x^2 is finite: far
    out the Gaussian underflows to 0 and every row stays 0.  Each row is
    odd or even in x bit for bit, since the recurrence only multiplies by x.
    """
    x = np.asarray(x, dtype=float)
    table = np.empty((kmax + 1, x.size))
    table[0] = (2.0 / math.pi) ** 0.25 * np.exp(-x * x)
    if kmax:
        table[1] = 2.0 * x * table[0]
    for k in range(1, kmax):
        table[k + 1] = math.sqrt(4.0 / (k + 1)) * x * table[k] - math.sqrt(k / (k + 1)) * table[k - 1]
    return table


def cell_centres(n: int, lo: float, hi: float) -> np.ndarray:
    """Centres of n equal cells over [lo, hi]: (lo + hi)/2 + (i - (n-1)/2) (hi - lo)/n.

    Counted from the middle, so on a range symmetric about 0 the centres are
    exactly antisymmetric, x_{n-1-i} = -x_i, and for odd n the middle one is 0.
    """
    return 0.5 * (lo + hi) + (np.arange(n) - 0.5 * (n - 1)) * ((hi - lo) / n)


def _twice(value: float, name: str) -> int:
    """Round a half-integer quantum number to an exact doubled integer."""
    doubled = round(2 * value)
    if abs(2 * value - doubled) > 1e-9:
        raise ValueError(f"{name} must be integer or half-integer, got {value}")
    return doubled


def wigner_small_d(j: float, mp: float, m: float, beta: float) -> float:
    """Wigner small-d matrix element d^j_{mp,m}(beta).

    Factorial-sum form; valid for integer and half-integer j with
    |mp| <= j, |m| <= j and j - mp, j - m integral.
    """
    tj, tmp, tm = _twice(j, "j"), _twice(mp, "mp"), _twice(m, "m")
    if tj < 0 or abs(tmp) > tj or abs(tm) > tj:
        raise ValueError(f"indices out of range: j={j}, mp={mp}, m={m}")
    if (tj - tmp) % 2 or (tj - tm) % 2:
        raise ValueError(f"j-mp and j-m must be integers: j={j}, mp={mp}, m={m}")

    j_p_mp, j_m_mp = (tj + tmp) // 2, (tj - tmp) // 2
    j_p_m, j_m_m = (tj + tm) // 2, (tj - tm) // 2
    mp_m_m = (tmp - tm) // 2

    pref = math.sqrt(
        factorial(j_p_mp) * factorial(j_m_mp) * factorial(j_p_m) * factorial(j_m_m)
    )
    c, s = math.cos(0.5 * beta), math.sin(0.5 * beta)
    total = 0.0
    for k in range(max(0, -mp_m_m), min(j_p_m, j_m_mp) + 1):
        denom = (
            factorial(j_p_m - k)
            * factorial(k)
            * factorial(mp_m_m + k)
            * factorial(j_m_mp - k)
        )
        sign = -1.0 if (mp_m_m + k) % 2 else 1.0
        total += sign * c ** (tj - mp_m_m - 2 * k) * s ** (mp_m_m + 2 * k) / denom
    return pref * total


def wigner_D(j: float, mp: float, m: float, A: float, B: float, C: float) -> complex:
    """Wigner D-matrix element D^j_{mp,m}(A, B, C), z-y-z convention."""
    d = wigner_small_d(j, mp, m, B)
    return cmath.exp(-1j * mp * A) * d * cmath.exp(-1j * m * C)
