"""Executable identity suites behind the ``verify`` command.

Each suite re-derives one block of the library's guarantees and returns
one report row per identity, ``{suite, identity, residual, tolerance}``;
``run`` adds each row's ``pass``:

* ``algebra``     operator-coefficient identities (commutators, Casimir)
* ``spectra``     eigenvalue residuals, orthonormality, and the dilation
                  identity U^-1 Hphys(beta) U = Hperp(alpha(beta))
* ``observables`` closed forms vs expectations on level vectors
* ``fields``      divergence/curl consistency of the boundary field model
* ``wigner``      rotation-matrix expansion of the mode family
* ``berry``       solid angles and geometric phases

Residuals for operator identities are largest coefficient magnitudes of
the difference operator, so those checks are basis-free and exact.
"""

from __future__ import annotations

import cmath
import math
import random
from functools import partial

import numpy as np

from . import berry as berry_mod
from . import fields as fields_mod
from .gstate import compose, gram, op_commutator
from .modes import (
    ModeIndex,
    beta_to_alpha,
    euler_angles,
    hlg_state,
    level_modes,
    level_sums,
    rotate_block,
    schwinger_state,
)
from .observables import energy, mean_lz, mean_r2
from .operators import (
    CASIMIR,
    H1,
    H2,
    H3,
    HS,
    IDENTITY,
    R2,
    dilate,
    h_as,
    h_perp,
    h_phys,
    level_matrix,
    schwinger_operator,
)
from .specfun import wigner_D

class _Rows:
    """One suite's rows: each identity's worst residual over its samples.

    Rows keep the order of their first sample, and an identity's tolerance
    is the suite's unless ``add`` names another.  The maximum propagates
    NaN, so a NaN sample fails its row.
    """

    def __init__(self, suite: str, tolerance: float):
        self.suite, self.tolerance = suite, tolerance
        self._rows: dict[str, tuple[np.float64, float]] = {}

    def add(self, identity: str, residual, tolerance: float | None = None) -> None:
        """Fold one residual, or an array of them, into the identity's row."""
        previous = self._rows[identity][0] if identity in self._rows else -np.inf
        worst = np.asarray(residual).max(initial=previous)
        self._rows[identity] = (worst, self.tolerance if tolerance is None else tolerance)

    def results(self) -> list[dict]:
        """The report's rows; JSON needs floats, not the numpy scalars of the reduction."""
        return [
            {"suite": self.suite, "identity": name, "residual": float(r), "tolerance": float(t)}
            for name, (r, t) in self._rows.items()
        ]


#: The angles at which the spectra and observables suites sample every level.
_ALPHAS = tuple(float(a) for a in np.linspace(0.0, math.pi / 2, 9))


def _levels(order: int) -> tuple[tuple[ModeIndex, ...], np.ndarray]:
    """The modes of a level and their vectors at every angle of ``_ALPHAS``, shape (angles, N + 1, N + 1)."""
    modes = tuple(ModeIndex(n, order - n) for n in range(order + 1))
    return modes, np.ascontiguousarray(level_modes(order, _ALPHAS)[:, ::-1].transpose(0, 2, 1))


def _eigen_residuals(matrices: np.ndarray, vecs: np.ndarray, lams) -> np.ndarray:
    """||D v - lam v|| over D's whole image for each column v of vecs, shape (..., K).

    matrices (..., size, size, N + 1) is a ``level_matrix`` stack; vecs
    (..., N + 1, K) and lams, which broadcast against vecs, line up with
    its leading axes.
    """
    # one small product per image row nx: a (size, N + 1) block of the
    # matrix is small enough that BLAS keeps it on one thread
    r = matrices @ vecs[..., None, :, :]
    ks = np.arange(matrices.shape[-1])
    r[..., ks[::-1], ks, :] -= vecs * lams
    return np.linalg.norm(r, axis=(-3, -2))


def suite_algebra(max_order: int) -> list[dict]:
    rows = _Rows("algebra", 1e-12)
    h = {1: H1, 2: H2, 3: H3}
    spin = {i: 0.5 * op for i, op in h.items()}
    eps = {(1, 2): 3, (2, 3): 1, (3, 1): 2, (2, 1): -3, (3, 2): -1, (1, 3): -2}
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            lhs = op_commutator(spin[i], spin[j])
            if i == j:
                diff = lhs
            else:
                k = eps[(i, j)]
                diff = lhs - (1j * math.copysign(1, k)) * spin[abs(k)]
            rows.add(f"[L{i},L{j}] = i eps L_k", diff.max_coeff())
    for i in (1, 2, 3):
        rows.add(f"[Hs,H{i}] = 0", op_commutator(HS, h[i]).max_coeff())
    # sign-explicit commutator triple in the order the derivation fixes them
    for name, lhs, rhs in (
        ("[H1,H3] = -2i H2", op_commutator(h[1], h[3]), -2j * h[2]),
        ("[H3,H2] = -2i H1", op_commutator(h[3], h[2]), -2j * h[1]),
        ("[H2,H1] = -2i H3", op_commutator(h[2], h[1]), -2j * h[3]),
    ):
        rows.add(name, (lhs - rhs).max_coeff())
    rows.add("Casimir = Hs^2/4 - 1/4", (CASIMIR - (0.25 * compose(HS, HS) - 0.25 * IDENTITY)).max_coeff())
    for alpha in (0.0, math.pi / 8, math.pi / 4):
        commutator = op_commutator(h_perp(alpha, -1), h_as(alpha, -1))
        rows.add(f"[Hperp,Has] = 0 at alpha={alpha:.4f}", commutator.max_coeff())
    rng = random.Random(42)
    for _ in range(2):
        phi = rng.uniform(0, 2 * math.pi)
        alpha = rng.uniform(0, math.pi / 2)
        sch = schwinger_operator(phi, alpha, -1)
        rows.add(f"[Casimir, H(phi={phi:.3f}, alpha={alpha:.3f})] = 0", op_commutator(CASIMIR, sch).max_coeff())
    return rows.results()


def suite_spectra(max_order: int) -> list[dict]:
    rows = _Rows("spectra", 1e-10)
    # three Hamiltonians at every angle, one stack of (3, angles) per level
    hamiltonians = [f(a, sign) for f, sign in ((h_perp, -1), (h_perp, +1), (h_as, -1)) for a in _ALPHAS]
    rng = random.Random(7)

    for order in range(max_order + 1):
        modes, vecs = _levels(order)
        # eigenvalues by (Hamiltonian, angle, level row, mode column)
        lams = np.array([[2 * md.n + 1, 2 * md.m + 1, md.l] for md in modes]).T[:, None, None, :]
        matrices = level_matrix(hamiltonians, order)
        matrices = matrices.reshape(3, len(_ALPHAS), *matrices.shape[1:])
        electron, positron, asym = _eigen_residuals(matrices, vecs, lams)
        rows.add("Hperp eigenvalue 2(n+1/2), electron", electron)
        rows.add("Hperp eigenvalue 2(m+1/2), positron", positron)
        rows.add("Has eigenvalue -sign_e l", asym)
        residuals = _eigen_residuals(level_matrix([CASIMIR], order)[0], vecs[0], 0.25 * ((order + 1) ** 2 - 1))
        rows.add("Casimir eigenvalue ((n+m+1)^2-1)/4 on alpha=0 basis", residuals)
        # [a, n]: the paper's finite sum c_k = i^k F_k of mode n at angle a, normalised,
        # so each c_k times sqrt((N-k)! k! / (n! m!)) = sqrt(f[k] / f[n])
        ks = np.arange(order + 1)
        f = np.array([math.factorial(k) * math.factorial(order - k) for k in range(order + 1)], dtype=float)
        phases = np.array([1, 1j, -1, -1j])[ks % 4]
        sums = phases * (np.ascontiguousarray(level_sums(order, _ALPHAS)[:, ::-1]) * np.sqrt(f / f[:, None]))
        # |row|^2 = sum_k |c_k|^2 (N-k)! k! / (n! m!): 1 is the paper's norm formula
        rows.add("norm^2 = pi 2^(n+m-1) n! m!", np.abs(np.linalg.norm(sums, axis=2) ** 2 - 1.0))
        # modes on different levels are orthogonal because their Hermite products are
        gram = sums.conj() @ sums.transpose(0, 2, 1)
        rows.add("orthonormality of the mode basis", np.abs(gram - np.eye(order + 1)))
        rows.add("finite sum equals the eigenvector", np.abs(sums - vecs.transpose(0, 2, 1)))

        # mode n (row N - n of the level) at its own random (phi, alpha), all turned by one ``rotate_block`` call
        draws = np.array([[rng.uniform(0, 2 * math.pi), rng.uniform(0, math.pi / 2)] for _ in range(order + 1)])
        turned = rotate_block(level_modes(order, draws[:, 1])[ks, order - ks], draws[:, 0])
        sch = level_matrix([schwinger_operator(phi, alpha, -1) for phi, alpha in draws.tolist()], order)
        lams = np.array([energy(md.n_r, md.l, -1) for md in modes])[:, None, None]
        rows.add("rotated-family eigenvalue 2 n_r + |l| + l + 1", _eigen_residuals(sch, turned[:, :, None], lams))

    for beta in (0.2, 0.35, 0.5):
        for sign in (-1, 1):
            lx, ly = math.sqrt(2 * (1 - beta)), math.sqrt(2 * beta)
            diff = dilate(h_phys(beta, sign), lx, ly) - h_perp(beta_to_alpha(beta, sign), sign)
            rows.add("ellipticity form on dilated modes", diff.max_coeff(), 1e-12)
    return rows.results()


def suite_observables(max_order: int) -> list[dict]:
    rows = _Rows("observables", 1e-10)
    # Lz and r^2 serve every angle, the electron Hperp one angle each
    ops = [H3, R2, CASIMIR] + [h_perp(a, -1) for a in _ALPHAS]

    for order in range(max_order + 1):
        modes, vecs = _levels(order)
        ks = np.arange(order + 1)
        # each operator from the level onto itself; v^H (D v) for every mode and angle
        blocks = level_matrix(ops, order)[:, ks[::-1], ks]
        conj = vecs.conj()
        lz, r2 = (conj * (blocks[:2, None] @ vecs)).sum(axis=-2)
        electron = (conj * (blocks[3:] @ vecs)).sum(axis=-2)
        cas = (conj[0] * (blocks[2] @ vecs[0])).sum(axis=0)
        lz_closed = [[mean_lz(md.l, alpha) for md in modes] for alpha in _ALPHAS]
        r2_closed = [mean_r2(md.n_r, md.l) for md in modes]
        e_closed = [energy(md.n_r, md.l, -1) for md in modes]
        rows.add("<Lz> = l sin(2 alpha)", np.abs(lz - lz_closed))
        rows.add("<r^2> = (2 n_r + |l| + 1)/2, alpha independent", np.abs(r2 - r2_closed))
        rows.add("<Hperp> matches the closed-form energy", np.abs(electron - e_closed))
        j = 0.5 * order
        rows.add("<Casimir> = j(j+1)", np.abs(cas - j * (j + 1)))
        for md in modes:
            e_minus = energy(md.n_r, md.l, -1)
            e_plus = energy(md.n_r, md.l, +1)
            errors = [abs(e_minus - (2 * md.n + 1)), abs(e_plus - (2 * md.m + 1))]
            rows.add("energy degeneracy in m (electron) / n (positron)", errors)
    return rows.results()


def suite_fields(max_order: int) -> list[dict]:
    rng = random.Random(19)
    eps = 0.1
    t_exact = 1e-9
    rows = _Rows("fields", 1e-6 / eps)

    # each row evaluates all its sample points in one call; the draws keep
    # the order of one (x, y, z) point at a time
    pts = np.array([[rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-0.3, 0.3)] for _ in range(200)]).T
    for beta in (0.0, 0.25, 0.5, 0.75, 1.0):
        model = fields_mod.FieldModel(beta=beta, b0=1.0, eps=eps)
        divergences = fields_mod.divergence(partial(fields_mod.b_field, model), *pts)
        rows.add(f"div B = 0 at beta={beta}", np.abs(divergences))

    model = fields_mod.FieldModel(beta=0.35, b0=1.0, eps=eps)
    params_sets = [
        fields_mod.GaugeParams(a=rng.uniform(-1, 1), b=rng.uniform(-1, 1), c=rng.uniform(-1, 1))
        for _ in range(3)
    ]
    potentials = [partial(fields_mod.vector_potential, params, model) for params in params_sets]
    curls = [fields_mod.curl(A, *pts[:, :60]) for A in potentials]
    field = fields_mod.b_field(model, *pts[:, :60])
    for curl in curls:
        rows.add("curl A = B across the gauge family", np.abs(curl - field))
    rows.add("equal d-b gives equal curl", np.abs(curls[0] - curls[1]))

    fixed = partial(fields_mod.transformed_potential, params_sets[0], model)
    ref = fields_mod.vector_potential(fields_mod.gauge_fix(model), model, *pts[:, :100])
    rows.add("A + grad(chi) matches the fixed potential", np.abs(fixed(*pts[:, :100]) - ref), t_exact)

    x, y, z = np.array([[rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(12 * eps, 20 * eps)] for _ in range(50)]).T
    ref = np.stack([-model.beta * y, (1 - model.beta) * x, np.zeros_like(x)])
    rows.add("fixed potential inside the solenoid", np.abs(fixed(x, y, z) - ref), t_exact)

    x, y, z = np.array([[rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(3 * eps, 10 * eps)] for _ in range(50)]).T
    rows.add("div A' = 0 inside (Coulomb gauge)", np.abs(fields_mod.divergence(fixed, x, y, z)), t_exact)
    return rows.results()


def suite_wigner(max_order: int) -> list[dict]:
    t_unit = 1e-12
    rows = _Rows("wigner", 1e-10)
    rng = random.Random(23)

    # the j = 0 level is the rotation-invariant ground mode: its expansion is exact
    rows.add("rotation expansion reproduces the rotated modes", 0.0)
    rows.add("unitarity of expansion rows", 0.0, t_unit)
    j_max = min(4.0, max_order / 2.0)
    for twice_j in range(1, round(2 * j_max) + 1):
        basis = [hlg_state(twice_j - a, a, 0.0) for a in range(twice_j + 1)]
        for _ in range(2):
            phi = rng.uniform(0, 2 * math.pi)
            alpha = rng.uniform(0, math.pi / 2)
            coeffs = wigner_D(twice_j, *euler_angles(phi, alpha))
            rotated = [schwinger_state(twice_j - b, b, alpha, phi) for b in range(twice_j + 1)]
            rows.add("rotation expansion reproduces the rotated modes", np.abs(gram(basis, rotated) - coeffs))
            unit = np.abs((np.abs(coeffs) ** 2).sum(axis=0) - 1.0)
            rows.add("unitarity of expansion rows", unit, t_unit)

    for _ in range(20):
        phi = rng.uniform(0, 2 * math.pi)
        alpha = rng.uniform(0, math.pi / 2)
        A, B, C = euler_angles(phi, alpha)
        w1 = complex(math.cos(phi) * math.cos(alpha), -math.sin(phi) * math.sin(alpha))
        w2 = complex(-math.cos(phi) * math.sin(alpha), math.sin(phi) * math.cos(alpha))
        errors = [
            abs(cmath.exp(-1j * (A + C) / 2) * math.cos(B / 2) - w1),
            abs(cmath.exp(1j * (A - C) / 2) * math.sin(B / 2) - w2),
        ]
        rows.add("Euler angles solve their defining equations", errors, 1e-12)

    rows.add("d(-B) equals transposed d(B)", 0.0, t_unit)  # j = 0 is exact
    for twice_j in range(1, round(2 * j_max) + 1):
        beta = rng.uniform(0, math.pi)
        errors = np.abs(wigner_D(twice_j, 0.0, -beta, 0.0) - wigner_D(twice_j, 0.0, beta, 0.0).T)
        rows.add("d(-B) equals transposed d(B)", errors, t_unit)
    return rows.results()


def suite_berry(max_order: int) -> list[dict]:
    rows = _Rows("berry", 1e-3)

    cap = 2 * math.pi * (1 - math.cos(math.pi / 4))
    loops = [berry_mod.latitude_loop(math.pi / 8, nseg) for nseg in (250, 500, 1000, 2000)]
    errs = [abs(berry_mod.berry_phase(loop, 3, 0) + 1.5 * cap) for loop in loops]
    rows.add("latitude solid angle matches the cap formula", abs(berry_mod.solid_angle(loops[-1]) - cap), 1e-4)
    rows.add("l=3 latitude phase = -(3/2) Omega", errs[-1])
    rows.add("quadratic error decay across segment counts", np.divide(errs[1:], errs[:-1]), 0.5)

    zero = berry_mod.berry_phase(berry_mod.latitude_loop(math.pi / 8, 400), 2, 2)
    rows.add("l=0 loop has zero phase", abs(zero), 1e-8)
    pinned = berry_mod.berry_phase(berry_mod.latitude_loop(math.pi / 4, 400), 3, 0)
    rows.add("pole-pinned loop has zero phase", abs(pinned), 1e-8)

    fwd = berry_mod.latitude_loop(math.pi / 8, 400)
    rev = fwd.reversed()
    flipped = berry_mod.solid_angle(fwd) + berry_mod.solid_angle(rev)
    rows.add("reversal flips the solid angle", abs(flipped), 1e-10)
    flipped = berry_mod.berry_phase(fwd, 3, 0) + berry_mod.berry_phase(rev, 3, 0)
    rows.add("reversal flips the phase", abs(flipped), 1e-10)

    pol = berry_mod.polar_loop(0.3, 200)
    omega = berry_mod.solid_angle(pol)
    rows.add("polar loop phase = -(l/2) Omega", abs(berry_mod.berry_phase(pol, 1, 0) + 0.5 * omega))
    return rows.results()


_SUITE_FUNCS = {
    "algebra": suite_algebra,
    "spectra": suite_spectra,
    "observables": suite_observables,
    "fields": suite_fields,
    "wigner": suite_wigner,
    "berry": suite_berry,
}
SUITES = tuple(_SUITE_FUNCS)


def run(suites=None, max_order: int = 10, tol: float | None = None) -> dict:
    """Run the requested suites and return the report.

    ``suites=None`` runs every suite; an empty selection or a repeated
    name is an error.  A given ``tol`` replaces the tolerance of every
    identity, and each row passes if its residual is within its
    tolerance, so a NaN residual fails.  A NaN or infinite residual stays
    a float in the returned report; ``als verify --out`` writes it as
    ``null``.
    """
    names = list(SUITES) if suites is None else list(suites)
    if not names:
        raise ValueError(f"no suite selected; choose from {', '.join(SUITES)}")
    for k, name in enumerate(names):
        if name not in _SUITE_FUNCS:
            raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
        if name in names[:k]:
            raise ValueError(f"suite {name!r} is named more than once")
    if max_order < 0:
        raise ValueError("max_order must be >= 0")
    rows = [row for name in names for row in _SUITE_FUNCS[name](max_order)]
    for row in rows:
        if tol is not None:
            row["tolerance"] = float(tol)
        row["pass"] = row["residual"] <= row["tolerance"]
    passed = sum(row["pass"] for row in rows)
    return {
        "suites": names,
        "max_order": max_order,
        "tolerance_override": tol,
        "results": rows,
        "summary": {
            "total": len(rows),
            "passed": passed,
            "failed": len(rows) - passed,
            "all_pass": passed == len(rows),
        },
    }
