"""Closed-form polynomials that only the tests need, as independent oracles.

* ``laguerre(n, k)`` is the generalized Laguerre polynomial ``L_n^k`` with
  ``L_0^k = 1``, ``L_1^k = 1 + k - x``; the twisted (alpha = pi/4) modes
  have a Laguerre radial profile.
* ``jacobi_eval(k, a, b, x)`` evaluates ``P_k^(a,b)(x)`` through the
  binomial sum

      sum_s  C(k+a, k-s) C(k+b, s) ((x-1)/2)^s ((x+1)/2)^(k-s),

  which stays valid for integer parameters down to ``a, b = -k`` because
  binomials with an oversized lower index vanish; the unfolded defining
  sum of the mode family carries a Jacobi factor.

Their own checks are in ``test_specfun.py``.
"""

from math import comb

from als.specfun import PolyCoeffs


def laguerre(n: int, k: int) -> PolyCoeffs:
    """Generalized Laguerre polynomial L_n^k as a coefficient table."""
    if n < 0 or k < 0:
        raise ValueError(f"Laguerre indices must be >= 0, got n={n}, k={k}")
    if n == 0:
        return PolyCoeffs((1.0,))
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
    return PolyCoeffs(tuple(cur))


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
