"""Exact algebra of polynomial x Gaussian wavefunctions.

A state is a finite complex polynomial multiplied by one isotropic
Gaussian,

    psi(x, y) = P(x, y) * exp(-x^2 - y^2),

in dimensionless transverse coordinates (lengths in units of the
characteristic transverse radius).  Coordinate dilations act on operators
(``operators.dilate``), so no state needs another Gaussian.

Operators are finite sums ``c * x^p y^q (d/dx)^dx (d/dy)^dy``, normal
ordered (all derivatives to the right), tagged in units of the rotation
frequency omega; the fixed ones, r^2 among them, are ``operators``
constants.  Differentiating a state reproduces a state of the same
form, so operator action, composition, commutators and inner products are
all exact up to float rounding; no grids are involved.

Inner products reduce to Gaussian moments

    integral x^p y^q exp(-2x^2 - 2y^2) dx dy,

evaluated from the half-integer Gamma recurrence.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import chain
from math import comb, perm

import numpy as np

from .specfun import cell_centres

# Coefficients below this magnitude are dropped from term maps.
_PRUNE = 1e-300

Monomial = tuple[int, int]
OpTerm = tuple[int, int, int, int]


class _TermMap:
    """Immutable ``terms`` dict; +, - and scalar * return a new instance of the subclass.

    The one constructor keeps the given keys in their order, each with its
    coefficient as a complex, and drops those below ``_PRUNE``: sums cancel
    and scalar products underflow.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {key: c for key, v in (terms or {}).items() if abs(c := complex(v)) >= _PRUNE}

    def __add__(self, other: _TermMap) -> _TermMap:
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, 0j) + c
        return type(self)(out)

    def __sub__(self, other: _TermMap) -> _TermMap:
        return self + (-1.0) * other

    def __rmul__(self, scalar) -> _TermMap:
        s = complex(scalar)
        return type(self)({k: s * c for k, c in self.terms.items()})

    def __repr__(self) -> str:
        return f"{type(self).__name__}({len(self.terms)} terms)"


class GaussianPolyState(_TermMap):
    """Polynomial over the isotropic Gaussian: ``terms`` maps ``(p, q)`` to the coefficient of x^p y^q."""

    __slots__ = ()


class PolyDiffOperator(_TermMap):
    """Linear differential operator with polynomial coefficients.

    ``terms`` maps ``(p, q, dx, dy)`` to complex coefficients, meaning
    ``coeff * x^p y^q d^dx/dx^dx d^dy/dy^dy`` (normal ordered).  The set is
    closed under composition, so commutators are exact.  Coefficients are
    in multiples of omega.
    """

    __slots__ = ()

    def max_coeff(self) -> float:
        """Largest coefficient magnitude; 0 for the zero operator."""
        return max((abs(c) for c in self.terms.values()), default=0.0)


@lru_cache(maxsize=None)
def _moment_1d(k: int) -> float:
    """integral u^k exp(-2 u^2) du over the real line (0 for odd k)."""
    if k % 2:
        return 0.0
    if k == 0:
        return math.sqrt(math.pi / 2.0)
    return _moment_1d(k - 2) * (k - 1) / 4.0


@lru_cache(maxsize=None)
def _moment_table(kmax: int) -> np.ndarray:
    """Read-only array of _moment_1d(k) for k = 0..kmax (odd k give 0)."""
    table = np.array([_moment_1d(k) for k in range(kmax + 1)])
    table.flags.writeable = False
    return table


def _packed(s: GaussianPolyState):
    """Powers p, q and coefficient parts re, im of a term map, in its order."""
    n = len(s.terms)
    keys = np.fromiter(chain.from_iterable(s.terms), np.intp, 2 * n).reshape(n, 2)
    coeffs = np.fromiter(s.terms.values(), complex, n)
    return keys[:, 0], keys[:, 1], coeffs.real, coeffs.imag


def gram(bras, kets) -> np.ndarray:
    """<a|b> for every bra a and ket b, conjugate-linear in a; shape (len(bras), len(kets)).

    Each term pair contributes conj(ca) cb M(p + r) M(q + s), formed with
    the float operations of Python's complex arithmetic and summed
    sequentially in row-major term order, so each entry is that of the
    plain double loop bit for bit.  Odd moments are 0 and add nothing to
    the sum, nor do the zeros that pad each ket (packed once) to the
    longest term map, so each bra is one numpy pass over every ket.
    """
    out = np.zeros((len(bras), len(kets)), dtype=complex)
    width = max((len(b.terms) for b in kets), default=0)
    pb, qb, br, bi = (np.zeros((len(kets), 1, width), dtype) for dtype in (np.intp, np.intp, float, float))
    for j, b in enumerate(kets):
        n = len(b.terms)
        pb[j, 0, :n], qb[j, 0, :n], br[j, 0, :n], bi[j, 0, :n] = _packed(b)
    for i, a in enumerate(bras):
        if not a.terms or not width:
            continue
        pa, qa, ar, ai = (x[:, None] for x in _packed(a))
        mx, my = (_moment_table(int(powers.max()))[powers] for powers in (pa + pb, qa + qb))
        re = ((ar * br + ai * bi) * mx) * my
        im = ((ar * bi - ai * br) * mx) * my
        # cumsum adds in order, unlike sum or dot; adding to 0.0 gives the
        # loop's +0.0 when every term is a zero.
        out.real[i], out.imag[i] = (0.0 + np.cumsum(x.reshape(len(kets), -1), axis=1)[:, -1] for x in (re, im))
    return out


def inner_product(a: GaussianPolyState, b: GaussianPolyState) -> complex:
    """<a|b>, conjugate-linear in the first argument: the entry of ``gram([a], [b])``."""
    return complex(gram([a], [b])[0, 0])


def _diff(poly: dict[Monomial, complex], axis: int) -> dict[Monomial, complex]:
    # d/dx (axis 0) or d/dy (axis 1) acting on P * exp(-x^2 - y^2): P -> dP/du - 2 u P
    dp, dq = (0, 1) if axis else (1, 0)
    out: dict[Monomial, complex] = {}
    for (p, q), c in poly.items():
        k = q if axis else p
        if k:
            key = (p - dp, q - dq)
            out[key] = out.get(key, 0j) + k * c
        key = (p + dp, q + dq)
        out[key] = out.get(key, 0j) - 2.0 * c
    return out


def apply(D: PolyDiffOperator, s: GaussianPolyState) -> GaussianPolyState:
    """Exact operator action D s, staying inside the representation."""
    out: dict[Monomial, complex] = {}
    for (p, q, dx, dy), c in D.terms.items():
        poly = s.terms
        for axis, count in ((0, dx), (1, dy)):
            for _ in range(count):
                poly = _diff(poly, axis)
        for (i, j), v in poly.items():
            key = (i + p, j + q)
            out[key] = out.get(key, 0j) + c * v
    return GaussianPolyState(out)


def compose(D1: PolyDiffOperator, D2: PolyDiffOperator) -> PolyDiffOperator:
    """Operator product D1 D2, normal ordered via the Leibniz rule.

    Each pair of terms expands through

        d^a x^r = sum_i C(a, i) r!/(r-i)! x^(r-i) d^(a-i)

    applied independently in x and y.
    """
    out: dict[OpTerm, complex] = {}
    for (p1, q1, a1, b1), c1 in D1.terms.items():
        for (p2, q2, a2, b2), c2 in D2.terms.items():
            c12 = c1 * c2
            for i in range(min(a1, p2) + 1):
                fx = comb(a1, i) * perm(p2, i)
                for j in range(min(b1, q2) + 1):
                    f = fx * comb(b1, j) * perm(q2, j)
                    key = (p1 + p2 - i, q1 + q2 - j, a1 - i + a2, b1 - j + b2)
                    out[key] = out.get(key, 0j) + c12 * f
    return PolyDiffOperator(out)


def op_commutator(D1: PolyDiffOperator, D2: PolyDiffOperator) -> PolyDiffOperator:
    """[D1, D2] = D1 D2 - D2 D1."""
    return compose(D1, D2) - compose(D2, D1)


def _axis_table(u: np.ndarray, kmax: int) -> np.ndarray:
    """T[i, k] = exp(-u_i^2) u_i^k for k = 0..kmax.

    Built by multiplying up from the Gaussian column, so a point whose
    Gaussian underflows gives a row of zeros instead of inf * 0 = NaN.
    """
    table = np.empty((u.size, kmax + 1))
    table[:, 0] = np.exp(-u * u)
    for k in range(1, kmax + 1):
        table[:, k] = table[:, k - 1] * u
    return table


def density_grid(
    s: GaussianPolyState,
    xmin: float,
    xmax: float,
    ymin: float,
    ymax: float,
    nx: int,
    ny: int,
) -> np.ndarray:
    """|psi|^2 sampled at cell centers; shape (ny, nx), row j at y_j.

    The state is separable term by term, so with C[p, q] the monomial
    coefficients and T the per-axis tables of ``_axis_table``,
    psi = Ty (Tx C)^T, formed in real arithmetic with ``einsum`` (no BLAS).
    """
    if not (xmax > xmin and ymax > ymin):
        raise ValueError("grid ranges must have positive extent")
    if nx < 2 or ny < 2:
        raise ValueError("grid needs at least 2 points per axis")
    pmax = max((p for p, _ in s.terms), default=0)
    qmax = max((q for _, q in s.terms), default=0)
    coeffs = np.zeros((pmax + 1, qmax + 1), dtype=complex)
    for (p, q), c in s.terms.items():
        coeffs[p, q] = c
    tx = _axis_table(cell_centres(nx, xmin, xmax), pmax)
    ty = _axis_table(cell_centres(ny, ymin, ymax), qmax)
    re = np.einsum("jq,iq->ji", ty, np.einsum("ip,pq->iq", tx, coeffs.real))
    im = np.einsum("jq,iq->ji", ty, np.einsum("ip,pq->iq", tx, coeffs.imag))
    return re * re + im * im
