"""Closed-form polynomials that only the tests need, as independent oracles.

* ``laguerre(n, k)`` is the generalized Laguerre polynomial ``L_n^k`` with
  ``L_0^k = 1``, ``L_1^k = 1 + k - x``; the twisted (alpha = pi/4) modes
  have a Laguerre radial profile.
* ``lg_density(n_r, l, x, y)`` is the closed-form density of the
  Laguerre-Gauss mode (alpha = pi/4) on the grid (y_j, x_i),

      2 n_r! / (pi (n_r + |l|)!) u^|l| L_{n_r}^|l|(u)^2 e^-u,   u = 2 r^2,

  with L evaluated by the three-term recurrence on values.  Horner's
  scheme on the coefficients of ``laguerre`` cancels: at n_r = 10 it is
  off by 1.5e-13 of the peak.
* ``jacobi_eval(k, a, b, x)`` evaluates ``P_k^(a,b)(x)`` through the
  binomial sum

      sum_s  C(k+a, k-s) C(k+b, s) ((x-1)/2)^s ((x+1)/2)^(k-s),

  which stays valid for integer parameters down to ``a, b = -k`` because
  binomials with an oversized lower index vanish; the unfolded defining
  sum of the mode family carries a Jacobi factor.
* ``wigner_d(j, mp, m, beta)`` is the Wigner small-d element
  d^j_{mp,m}(beta) by the factorial sum (Wigner's formula)

      sum_s (-1)^(mp-m+s) sqrt((j+mp)! (j-mp)! (j+m)! (j-m)!)
            / ((j+m-s)! s! (mp-m+s)! (j-mp-s)!)
            cos^(2j-mp+m-2s)(beta/2) sin^(mp-m+2s)(beta/2),

  in mpmath at 40 digits and rounded once to a float, so it shares no
  code with the library's folded sum.
* ``quadrature_moments(vec)`` integrates the norm and <r^2> of a level
  vector over positions, by Gauss-Hermite quadrature on the normalised
  Hermite functions of the stable three-term recurrence
  (``hermite_functions``).
* ``term_map_value(s, x, y)`` is the pointwise value P(x, y) exp(-x^2 - y^2)
  of a term map, summed term by term.
* ``measured_observables(n, m, alpha, sign_e)`` is the per-state
  (energy, <r^2>, <Lz>) of one mode's term map, by ``apply`` and
  ``inner_product``; ``observables.sweep`` must reproduce it.
* ``validate(obj, name)`` checks a sidecar or report against the schema
  ``name`` shipped in ``als/schemas``.  The package itself never checks
  them; ``schema(name)`` reads one as package data of the imported ``als``,
  so an install that left the schemas out fails here.

The polynomials' own checks are in ``test_specfun.py``.
"""

import json
import math
from importlib import resources
from math import comb, factorial

import jsonschema
import mpmath
import numpy as np
from numpy.polynomial import Polynomial

from als.gstate import apply, inner_product
from als.modes import hlg_state
from als.observables import R2_OP
from als.operators import expectation, h3, h_perp


def laguerre(n: int, k: int) -> Polynomial:
    """Generalized Laguerre polynomial L_n^k, built coefficient by coefficient."""
    if n < 0 or k < 0:
        raise ValueError(f"Laguerre indices must be >= 0, got n={n}, k={k}")
    if n == 0:
        return Polynomial([1.0])
    prev = [1.0]
    cur = [1.0 + k, -1.0]
    for i in range(1, n):
        # (i+1) L_{i+1} = (2i + k + 1 - x) L_i - (i + k) L_{i-1}
        nxt = [0.0] * (i + 2)
        for p, c in enumerate(cur):
            nxt[p] += (2 * i + k + 1) * c
            nxt[p + 1] -= c
        for p, c in enumerate(prev):
            nxt[p] -= (i + k) * c
        prev, cur = cur, [c / (i + 1) for c in nxt]
    return Polynomial(cur)


def lg_density(n_r: int, l: int, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Normalised Laguerre-Gauss density at (y_j, x_i), shape (len(y), len(x))."""
    u = 2.0 * (x[None, :] ** 2 + y[:, None] ** 2)
    k = abs(l)
    prev, lag = np.zeros_like(u), np.ones_like(u)
    for i in range(n_r):
        # (i+1) L_{i+1} = (2i + k + 1 - u) L_i - (i + k) L_{i-1}
        prev, lag = lag, ((2 * i + k + 1 - u) * lag - (i + k) * prev) / (i + 1)
    return 2.0 * factorial(n_r) / (math.pi * factorial(n_r + k)) * u**k * lag**2 * np.exp(-u)


def jacobi_eval(k: int, a: int, b: int, x: float) -> float:
    """Jacobi polynomial value P_k^(a,b)(x) for integer a, b >= -k."""
    if k < 0:
        raise ValueError(f"Jacobi degree must be >= 0, got {k}")
    if a < -k or b < -k:
        raise ValueError(f"Jacobi parameters must be >= -k = {-k}, got a={a}, b={b}")
    um = 0.5 * (x - 1.0)
    up = 0.5 * (x + 1.0)
    total = 0.0
    for s in range(k + 1):
        c = comb(k + a, k - s) * comb(k + b, s)
        if c:
            total += c * um**s * up ** (k - s)
    return total


def wigner_d(j: float, mp: float, m: float, beta: float) -> float:
    """Wigner small-d element d^j_{mp,m}(beta), for j, mp, m given as floats of k/2."""
    tj, tmp, tm = round(2 * j), round(2 * mp), round(2 * m)
    jpmp, jmmp, jpm, jmm = (tj + tmp) // 2, (tj - tmp) // 2, (tj + tm) // 2, (tj - tm) // 2
    dm = (tmp - tm) // 2
    with mpmath.workdps(40):
        half = mpmath.mpf(beta) / 2
        c, s = mpmath.cos(half), mpmath.sin(half)
        total = mpmath.mpf(0)
        for k in range(max(0, -dm), min(jpm, jmmp) + 1):
            denom = factorial(jpm - k) * factorial(k) * factorial(dm + k) * factorial(jmmp - k)
            total += (-1) ** (dm + k) * c ** (tj - dm - 2 * k) * s ** (dm + 2 * k) / denom
        total *= mpmath.sqrt(factorial(jpmp) * factorial(jmmp) * factorial(jpm) * factorial(jmm))
        return float(total)


def hermite_functions(kmax: int, u: np.ndarray) -> np.ndarray:
    """Normalised Hermite functions h_0..h_kmax at u, by the stable recurrence."""
    h = np.empty((kmax + 1, u.size))
    h[0] = math.pi**-0.25 * np.exp(-0.5 * u * u)
    if kmax:
        h[1] = math.sqrt(2.0) * u * h[0]
    for k in range(1, kmax):
        h[k + 1] = math.sqrt(2.0 / (k + 1)) * u * h[k] - math.sqrt(k / (k + 1)) * h[k - 1]
    return h


def quadrature_moments(vec: np.ndarray) -> tuple[float, float]:
    """<psi|psi> and <psi|r^2|psi> for psi = sum_k vec[k] |N-k, k>, N = len(vec) - 1.

    In u = sqrt2 x and w = sqrt2 y the product |N-k, k> is h_{N-k}(u) h_k(w)
    and r^2 = (u^2 + w^2)/2, so both integrands are exp(-u^2 - w^2) times a
    polynomial of degree at most 2N + 2 per axis: N + 3 Gauss-Hermite nodes
    per axis integrate them exactly.
    """
    order = len(vec) - 1
    t, weights = np.polynomial.hermite.hermgauss(order + 3)
    # the polynomial part h_k(t) exp(t^2/2), times the root of each node's
    # weight so that |psi|^2 carries the whole weight
    h = hermite_functions(order, t) * np.sqrt(weights * np.exp(t * t))
    psi = (h[::-1].T * vec) @ h
    dens = np.abs(psi) ** 2
    return float(dens.sum()), float(0.5 * (dens * (t[:, None] ** 2 + t**2)).sum())


def term_map_value(s, x: float, y: float) -> complex:
    """P(x, y) exp(-x^2 - y^2) for the term map s of P."""
    return sum(c * x**p * y**q for (p, q), c in s.terms.items()) * math.exp(-x * x - y * y)


def measured_observables(n: int, m: int, alpha: float, sign_e: int) -> tuple[float, float, float]:
    """Energy and <Lz> normalised, <r^2> not, on the term map of psi_{n,m}(alpha)."""
    st = hlg_state(n, m, alpha)
    return (
        expectation(st, h_perp(alpha, sign_e)).real,
        inner_product(st, apply(R2_OP, st)).real,
        expectation(st, h3()).real,
    )


def schema(name: str) -> dict:
    """The shipped JSON schema ``als/schemas/<name>.schema.json``."""
    path = resources.files("als.schemas").joinpath(f"{name}.schema.json")
    return json.loads(path.read_text(encoding="utf-8"))


def validate(obj: dict, name: str) -> None:
    """Raise ``jsonschema.ValidationError`` unless obj matches the shipped schema."""
    jsonschema.validate(obj, schema(name))
