"""Closed-form observables of the asymmetric modes, with built-in checks.

Every closed form here is certified: ``measure`` is the one exact
inner-product evaluation of energy, <r^2> and <Lz> (used by ``report``,
``als table`` and ``als verify``), and ``report`` refuses to return a
closed form that disagrees with it.

In twisted labels (n_r, l):

    energy    = omega * (2 n_r + |l| - sign_e * l + 1)
    <r^2>     = (rho_h^2 / 2) * (2 n_r + |l| + 1)        (alpha independent)
    <Lz>      = l * sin(2 alpha)
    j         = n_r + |l| / 2,   m_l = l / 2
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .gstate import GaussianPolyState, PolyDiffOperator, apply, inner_product
from .modes import ModeIndex, hlg_state
from .operators import casimir, check_sign, eigen_residual, expectation, h3, h_as, h_perp


class IntegrityError(Exception):
    """A closed form and its exact inner-product check disagree."""

    def __init__(self, field: str, closed_form, measured, tol: float):
        self.field = field
        self.closed_form = closed_form
        self.measured = measured
        super().__init__(
            f"{field}: closed form {closed_form!r} vs exact expectation "
            f"{measured!r} beyond tolerance {tol:g}"
        )


def energy(n_r: int, l: int, sign_e: int, omega: float = 1.0) -> float:
    """Transverse level energy, degenerate in l for each charge sign."""
    if n_r < 0:
        raise ValueError(f"radial quantum number must be >= 0, got {n_r}")
    check_sign(sign_e)
    return omega * (2 * n_r + abs(l) - sign_e * l + 1)


def mean_r2(n_r: int, l: int, rho_h: float = 1.0) -> float:
    """Mean square transverse radius; independent of alpha."""
    if n_r < 0:
        raise ValueError(f"radial quantum number must be >= 0, got {n_r}")
    return 0.5 * rho_h**2 * (2 * n_r + abs(l) + 1)


def mean_lz(l: int, alpha: float) -> float:
    """Mean angular momentum projection l sin(2 alpha)."""
    return l * math.sin(2 * alpha)


@dataclass(frozen=True)
class ObservableReport:
    """Certified observable values of one mode at one alpha."""

    mode: ModeIndex
    alpha: float
    energy: float  # units of omega
    r2: float  # units of rho_h^2
    lz: float  # units of hbar
    casimir_j: float
    m_l: float

    def __post_init__(self):
        if self.energy <= 0 or self.r2 <= 0:
            raise ValueError("energy and r2 must be positive")
        if abs(self.lz) > abs(self.mode.l) + 1e-12:
            raise ValueError("|<Lz>| cannot exceed |l|")


#: Multiplication by r^2 = x^2 + y^2.
R2_OP = PolyDiffOperator({(2, 0, 0, 0): 1.0, (0, 2, 0, 0): 1.0})


def measure(state: GaussianPolyState, alpha: float, sign_e: int) -> tuple[float, float, float]:
    """Exact (energy, <r^2>, <Lz>) of a state in units of omega, rho_h^2, hbar.

    Energy and <Lz> are normalised expectations; <r^2> is <s|r^2|s>
    without dividing by <s|s>, so it is meant for unit-norm states.
    """
    e = expectation(state, h_perp(alpha, sign_e)).real
    r2 = inner_product(state, apply(R2_OP, state)).real
    lz = expectation(state, h3()).real
    return e, r2, lz


def report(
    n: int, m: int, alpha: float, sign_e: int, tol: float = 1e-10
) -> ObservableReport:
    """All closed-form observables, re-verified against exact expectations.

    Raises ``IntegrityError`` (carrying both values) if any closed form
    deviates from the inner-product evaluation by more than ``tol``.
    """
    mode = ModeIndex(n, m)
    n_r, l = mode.to_twisted()
    state = hlg_state(n, m, alpha)

    e_meas, r2_meas, lz_meas = measure(state, alpha, sign_e)
    e_closed = energy(n_r, l, sign_e)
    if abs(e_closed - e_meas) > tol:
        raise IntegrityError("energy", e_closed, e_meas, tol)

    r2_closed = mean_r2(n_r, l)
    if abs(r2_closed - r2_meas) > tol:
        raise IntegrityError("r2", r2_closed, r2_meas, tol)

    lz_closed = mean_lz(l, alpha)
    if abs(lz_closed - lz_meas) > tol:
        raise IntegrityError("lz", lz_closed, lz_meas, tol)

    j = mode.j
    cas_meas = expectation(state, casimir()).real
    if abs(j * (j + 1) - cas_meas) > tol:
        raise IntegrityError("casimir_j", j * (j + 1), cas_meas, tol)

    m_l = mode.m_l
    res = eigen_residual(state, h_as(alpha, sign_e), -sign_e * l)
    if res > tol:
        raise IntegrityError("m_l", -sign_e * l, res, tol)

    return ObservableReport(
        mode=mode, alpha=alpha, energy=e_closed, r2=r2_closed,
        lz=lz_closed, casimir_j=j, m_l=m_l,
    )
