"""Boundary magnetic field model, gauge family, and the fixing transform.

The longitudinal field switches on across z = 0.  A divergence-free
switch-on forces transverse components proportional to the derivative of
the ramp; their x/y split is the ellipticity beta:

    B = B0 * ( -(1 - beta) x delta(z),  -beta y delta(z),  theta(z) ).

The hard step/delta pair is regularized here by a smooth ramp of width
eps,

    theta_eps(z) = (1 + tanh(z / eps)) / 2,     delta_eps = d theta_eps / dz,

which keeps every identity testable pointwise while preserving the exact
limits on both sides of the boundary.

The quadratic gauge family for this field is

    A = B0 * ( theta [a x + b y],
               theta [(1 + b) x + c y],
               delta [a x^2 / 2 + d x y + c y^2 / 2] ),      d = b + beta,

where the field fixes d, so ``GaugeParams`` holds only (a, b, c).  The
scalar gauge function

    chi = -B0 theta(z) (a x^2 / 2 + d x y + c y^2 / 2)

removes the longitudinal component, leaving the fixed transverse
potential B0 * (-beta y, (1 - beta) x, 0) inside, which is divergence
free (Coulomb gauge).

Every function broadcasts over arrays of points: x, y and z may be
numbers or arrays, and a vector comes back with its three components on
the first axis, shape (3,) + the broadcast shape of the coordinates.
Each is analytic in complex points, so ``divergence`` and ``curl`` take
exact derivatives by the complex step.

This module is diagnostic only: the quantum side consumes the fixed
gauge directly and nothing here feeds state construction except beta.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class FieldModel:
    """Boundary field: strength, transverse ellipticity, ramp width."""

    beta: float
    b0: float = 1.0
    eps: float = 0.1

    def __post_init__(self):
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must lie in [0, 1], got {self.beta}")
        if self.eps <= 0.0:
            raise ValueError(f"regularization width must be positive, got {self.eps}")


@dataclass(frozen=True)
class GaugeParams:
    """Free quadratic gauge-family parameters; the field fixes d = b + beta."""

    a: float
    b: float
    c: float


def theta_eps(z, eps: float):
    """Smooth ramp replacing the hard step at z = 0."""
    return 0.5 * (1.0 + np.tanh(z / eps))


def delta_eps(z, eps: float):
    """Derivative of the ramp (regularized surface delta)."""
    # |z| as z sign(Re z): analytic for the complex step, the same bits for real z
    t = z * np.sign(np.real(z)) / eps
    # sech(t) written overflow-safe
    sech = 2.0 * np.exp(-t) / (1.0 + np.exp(-2.0 * t))
    return 0.5 * sech * sech / eps


def _vector(*components) -> np.ndarray:
    """The components stacked on the first axis, each broadcast to the points' shape."""
    return np.stack(np.broadcast_arrays(*components))


def b_field(model: FieldModel, x, y, z) -> np.ndarray:
    """Regularized boundary field; exactly divergence free."""
    th = theta_eps(z, model.eps)
    de = delta_eps(z, model.eps)
    return model.b0 * _vector(-(1.0 - model.beta) * x * de, -model.beta * y * de, th)


def _jacobian(f, x, y, z) -> np.ndarray:
    """[k, i] = d f_i / d p_k at p = (x, y, z) by the complex step Im f(p + i h e_k) / h.

    It differences nothing, so it is exact to rounding for f analytic in p;
    0 Re f carries a NaN in either part into the derivative.
    """
    h, p = 1e-30, (x, y, z)
    steps = [np.asarray(f(*p[:k], p[k] + 1j * h, *p[k + 1:])) for k in range(3)]
    return np.stack([step.imag / h + 0.0 * step.real for step in steps])


def divergence(f, x, y, z):
    """Divergence of the vector function f(x, y, z): the Jacobian's trace."""
    return np.trace(_jacobian(f, x, y, z))


def curl(f, x, y, z) -> np.ndarray:
    """Curl of the vector function f(x, y, z): the Jacobian's antisymmetric part."""
    j = _jacobian(f, x, y, z)
    return np.stack([j[1, 2] - j[2, 1], j[2, 0] - j[0, 2], j[0, 1] - j[1, 0]])


def vector_potential(params: GaugeParams, model: FieldModel, x, y, z) -> np.ndarray:
    """Member of the quadratic gauge family with curl equal to b_field."""
    th = theta_eps(z, model.eps)
    de = delta_eps(z, model.eps)
    d = params.b + model.beta
    return model.b0 * _vector(
        th * (params.a * x + params.b * y),
        th * ((1.0 + params.b) * x + params.c * y),
        de * (0.5 * params.a * x * x + d * x * y + 0.5 * params.c * y * y),
    )


def grad_chi(params: GaugeParams, model: FieldModel, x, y, z) -> np.ndarray:
    """Gradient of the gauge function chi that fixes the member ``params``."""
    th = theta_eps(z, model.eps)
    de = delta_eps(z, model.eps)
    d = params.b + model.beta
    quad = 0.5 * params.a * x * x + d * x * y + 0.5 * params.c * y * y
    return -model.b0 * _vector(th * (params.a * x + d * y), th * (d * x + params.c * y), de * quad)


def transformed_potential(params: GaugeParams, model: FieldModel, x, y, z) -> np.ndarray:
    """A + grad(chi) from the member ``params``; equals the gauge_fix member."""
    return vector_potential(params, model, x, y, z) + grad_chi(params, model, x, y, z)


def gauge_fix(model: FieldModel) -> GaugeParams:
    """The member that A + grad(chi) reaches from every member: (0, -beta, 0).

    Its potential is B0 (-beta y theta, (1 - beta) x theta, 0) with d = 0:
    transverse, and divergence free wherever the ramp is flat.
    """
    return GaugeParams(a=0.0, b=-model.beta, c=0.0)
