"""Hermite polynomials and functions, grid points, SU(2) rotation matrix elements.

Conventions:

* ``hermite`` returns the physicists' family,
  ``H_0 = 1``, ``H_1 = 2x``, ``H_{n+1} = 2x H_n - 2n H_{n-1}``.
* ``hermite_functions`` tabulates phi_n(x) = 2^(1/4) h_n(sqrt2 x), with h_n
  the normalised Hermite function, so that the normalised product state
  ``|N-k, k>`` is phi_{N-k}(x) phi_k(y).  The values come from the stable
  three-term recurrence (Bunck, BIT 49, 281, 2009), not from ``hermite``.
* ``wigner_d_columns(N, columns, betas)`` is the one Wigner small-d kernel,
  on the spin-N/2 basis m' = N/2 - k.  It diagonalises Jy once per N
  (exact diagonalisation; Feng, Wang, Yang and Jin, PRE 92, 043307, 2015):
  Jy = W diag(lam) W^H with lam = -N/2 ... N/2, so

      d^{N/2}(B) = exp(-i B Jy) = Re(W diag(exp(-i B lam)) W^H),

  with no phase fix.  ``wigner_small_d`` reads one of its elements.
* ``wigner_D`` uses z-y-z Euler angles, rows indexed by m',

      D^j_{m',m}(A, B, C) = exp(-i m' A) d^j_{m',m}(B) exp(-i m C).
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

import numpy as np


def hermite(n: int) -> tuple[float, ...]:
    """Physicists' Hermite polynomial H_n as coefficients, entry i multiplying x**i."""
    if n < 0:
        raise ValueError(f"Hermite order must be >= 0, got {n}")
    prev, cur = [], [1.0]
    for k in range(n):
        nxt = [0.0] * (k + 2)
        for i, c in enumerate(cur):
            nxt[i + 1] += 2.0 * c
        for i, c in enumerate(prev):
            nxt[i] -= 2.0 * k * c
        prev, cur = cur, nxt
    return tuple(cur)


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


@lru_cache(maxsize=64)
def _jy_eigenvectors(order: int) -> np.ndarray:
    """Read-only W of the module docstring, eigenvalues ascending; ``eigh`` reads Jy[k, k-1] = i sqrt(k (N+1-k)) / 2."""
    k = np.arange(1, order + 1)
    w = np.linalg.eigh(np.diag(0.5j * np.sqrt(k * (order + 1 - k)), -1))[1]
    w.flags.writeable = False
    return w


def wigner_d_columns(order: int, columns, betas) -> np.ndarray:
    """d^{N/2}_{N/2-k, N/2-columns[c]}(betas[b]) at [b, c, k], N = order; W is cached for 64 orders.

    Column c is W (exp(-i B lam) * conj(W[c])), by parts with ``einsum``, which calls no BLAS.
    """
    w = _jy_eigenvectors(order)
    p = np.exp(-1j * np.outer(betas, np.arange(order + 1) - 0.5 * order))[:, None, :] * w[columns].conj()
    return np.einsum("kl,bcl->bck", w.real, p.real) - np.einsum("kl,bcl->bck", w.imag, p.imag)


def wigner_small_d(j: float, mp: float, m: float, beta: float) -> float:
    """Wigner small-d matrix element d^j_{mp,m}(beta), one element of ``wigner_d_columns``.

    Valid for integer and half-integer j with |mp| <= j, |m| <= j and
    j - mp, j - m integral.
    """
    tj, tmp, tm = _twice(j, "j"), _twice(mp, "mp"), _twice(m, "m")
    if tj < 0 or abs(tmp) > tj or abs(tm) > tj:
        raise ValueError(f"indices out of range: j={j}, mp={mp}, m={m}")
    if (tj - tmp) % 2 or (tj - tm) % 2:
        raise ValueError(f"j-mp and j-m must be integers: j={j}, mp={mp}, m={m}")
    return float(wigner_d_columns(tj, [(tj - tm) // 2], [beta])[0, 0, (tj - tmp) // 2])


def wigner_D(j: float, mp: float, m: float, A: float, B: float, C: float) -> complex:
    """Wigner D-matrix element D^j_{mp,m}(A, B, C), z-y-z convention."""
    d = wigner_small_d(j, mp, m, B)
    return cmath.exp(-1j * mp * A) * d * cmath.exp(-1j * m * C)
