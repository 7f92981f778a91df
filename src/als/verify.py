"""Executable identity suites behind the ``verify`` command.

Each suite re-derives one block of the library's guarantees and reports
``(suite, identity, residual, tolerance, pass)`` rows:

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
from dataclasses import asdict, dataclass, replace
from functools import lru_cache, partial

import numpy as np

from . import berry as berry_mod
from . import fields as fields_mod
from .gstate import PolyDiffOperator, compose, inner_product, op_commutator
from .modes import (
    ModeIndex,
    beta_to_alpha,
    euler_angles,
    hlg_block,
    hlg_state,
    rotate_block,
    schwinger_state,
    wigner_decompose,
)
from .observables import R2_OP, energy, mean_lz, mean_r2
from .operators import (
    casimir,
    dilate,
    h1,
    h2,
    h3,
    h_as,
    h_perp,
    h_phys,
    hs,
    level_matrix,
    schwinger_operator,
)
from .specfun import wigner_small_d

SUITES = ("algebra", "spectra", "observables", "fields", "wigner", "berry")


@dataclass(frozen=True)
class IdentityResult:
    suite: str
    identity: str
    residual: float
    tolerance: float

    def __post_init__(self):
        # numpy scalars sneak in from vectorized residuals; JSON needs floats
        object.__setattr__(self, "residual", float(self.residual))
        object.__setattr__(self, "tolerance", float(self.tolerance))

    @property
    def passed(self) -> bool:
        return bool(self.residual <= self.tolerance)

    def as_dict(self) -> dict:
        d = asdict(self)
        d["pass"] = self.passed
        return d


@lru_cache(maxsize=None)
def _level(order: int, alpha: float) -> tuple[tuple[ModeIndex, ...], np.ndarray]:
    """Modes (n, order - n), n = 0..order, and their hlg_block vectors as columns.

    Cached: the spectra and observables suites walk the same levels and
    angles.  The array is read-only because every caller shares it.
    """
    modes = tuple(ModeIndex(n, order - n) for n in range(order + 1))
    vecs = np.array([hlg_block(md.n, md.m, alpha) for md in modes]).T
    vecs.setflags(write=False)
    return modes, vecs


def _eigen_residual(D: PolyDiffOperator, vecs: np.ndarray, lams) -> float:
    """Largest ||D v - lam v|| over the level vectors in the columns of vecs, over D's whole image."""
    r = level_matrix(D, len(vecs) - 1) @ vecs
    ks = np.arange(len(vecs))
    r[ks[::-1], ks] -= vecs * np.asarray(lams)
    return float(np.linalg.norm(r, axis=(0, 1)).max())


def _worst_expectation(matrix: np.ndarray, vecs: np.ndarray, closed) -> float:
    """Largest |v^H D v - closed| over the columns v of vecs, given D's level_matrix."""
    ks = np.arange(len(vecs))
    values = np.einsum("ki,kl,li->i", vecs.conj(), matrix[ks[::-1], ks], vecs)
    return float(np.abs(values - closed).max())


def suite_algebra(max_order: int) -> list[IdentityResult]:
    t = 1e-12
    out: list[IdentityResult] = []
    h = {1: h1(), 2: h2(), 3: h3()}
    iso = hs()
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
            out.append(IdentityResult("algebra", f"[L{i},L{j}] = i eps L_k", diff.max_coeff(), t))
    for i in (1, 2, 3):
        out.append(IdentityResult("algebra", f"[Hs,H{i}] = 0", op_commutator(iso, h[i]).max_coeff(), t))
    # sign-explicit commutator triple in the order the derivation fixes them
    for name, lhs, rhs in (
        ("[H1,H3] = -2i H2", op_commutator(h[1], h[3]), -2j * h[2]),
        ("[H3,H2] = -2i H1", op_commutator(h[3], h[2]), -2j * h[1]),
        ("[H2,H1] = -2i H3", op_commutator(h[2], h[1]), -2j * h[3]),
    ):
        out.append(IdentityResult("algebra", name, (lhs - rhs).max_coeff(), t))
    cas = casimir()
    ident = PolyDiffOperator.identity()
    out.append(
        IdentityResult(
            "algebra",
            "Casimir = Hs^2/4 - 1/4",
            (cas - (0.25 * compose(iso, iso) - 0.25 * ident)).max_coeff(),
            t,
        )
    )
    for alpha in (0.0, math.pi / 8, math.pi / 4):
        hp = h_perp(alpha, -1)
        ha = h_as(alpha, -1)
        out.append(
            IdentityResult(
                "algebra", f"[Hperp,Has] = 0 at alpha={alpha:.4f}",
                op_commutator(hp, ha).max_coeff(), t,
            )
        )
    rng = np.random.default_rng(42)
    for _ in range(2):
        phi = rng.uniform(0, 2 * math.pi)
        alpha = rng.uniform(0, math.pi / 2)
        sch = schwinger_operator(phi, alpha, -1)
        out.append(
            IdentityResult(
                "algebra",
                f"[Casimir, H(phi={phi:.3f}, alpha={alpha:.3f})] = 0",
                op_commutator(cas, sch).max_coeff(), t,
            )
        )
    return out


def suite_spectra(max_order: int) -> list[IdentityResult]:
    t = 1e-10
    out: list[IdentityResult] = []
    alphas = [float(a) for a in np.linspace(0.0, math.pi / 2, 9)]
    ops = [(h_perp(a, -1), h_perp(a, +1), h_as(a, -1)) for a in alphas]
    cas = casimir()

    worst_e = worst_p = worst_as = worst_cas = worst_norm = worst_on = 0.0
    for order in range(max_order + 1):
        for alpha, (electron, positron, asym) in zip(alphas, ops):
            modes, vecs = _level(order, alpha)
            worst_e = max(worst_e, _eigen_residual(electron, vecs, [2 * md.n + 1 for md in modes]))
            worst_p = max(worst_p, _eigen_residual(positron, vecs, [2 * md.m + 1 for md in modes]))
            worst_as = max(worst_as, _eigen_residual(asym, vecs, [md.l for md in modes]))
            # |v|^2 = sum_k |c_k|^2 (N-k)! k! / (n! m!): 1 is the paper's norm formula
            worst_norm = max(worst_norm, float(np.abs(np.linalg.norm(vecs, axis=0) ** 2 - 1.0).max()))
            # modes on different levels are orthogonal because their Hermite products are
            worst_on = max(worst_on, float(np.abs(vecs.conj().T @ vecs - np.eye(order + 1)).max()))
            if alpha == 0.0:
                worst_cas = max(worst_cas, _eigen_residual(cas, vecs, 0.25 * ((order + 1) ** 2 - 1)))
    out.append(IdentityResult("spectra", "Hperp eigenvalue 2(n+1/2), electron", worst_e, t))
    out.append(IdentityResult("spectra", "Hperp eigenvalue 2(m+1/2), positron", worst_p, t))
    out.append(IdentityResult("spectra", "Has eigenvalue -sign_e l", worst_as, t))
    out.append(IdentityResult("spectra", "Casimir eigenvalue ((n+m+1)^2-1)/4 on alpha=0 basis", worst_cas, t))
    out.append(IdentityResult("spectra", "norm^2 = pi 2^(n+m-1) n! m!", worst_norm, t))
    out.append(IdentityResult("spectra", "orthonormality of the mode basis", worst_on, t))

    rng = np.random.default_rng(7)
    worst_sch = 0.0
    for order in range(max_order + 1):
        for n in range(order + 1):
            mode = ModeIndex(n, order - n)
            phi = float(rng.uniform(0, 2 * math.pi))
            alpha = float(rng.uniform(0, math.pi / 2))
            turned = rotate_block(hlg_block(mode.n, mode.m, alpha), phi)
            sch = schwinger_operator(phi, alpha, -1)
            lam = energy(mode.n_r, mode.l, -1)
            worst_sch = max(worst_sch, _eigen_residual(sch, turned[:, None], lam))
    out.append(IdentityResult("spectra", "rotated-family eigenvalue 2 n_r + |l| + l + 1", worst_sch, t))

    worst_dil = 0.0
    for beta in (0.2, 0.35, 0.5):
        for sign in (-1, 1):
            lx, ly = math.sqrt(2 * (1 - beta)), math.sqrt(2 * beta)
            diff = dilate(h_phys(beta, sign), lx, ly) - h_perp(beta_to_alpha(beta, sign), sign)
            worst_dil = max(worst_dil, diff.max_coeff())
    out.append(IdentityResult("spectra", "ellipticity form on dilated modes", worst_dil, 1e-12))
    return out


def suite_observables(max_order: int) -> list[IdentityResult]:
    t = 1e-10
    out: list[IdentityResult] = []
    alphas = [float(a) for a in np.linspace(0.0, math.pi / 2, 9)]
    electron = [h_perp(a, -1) for a in alphas]
    cas = casimir()

    worst_lz = worst_r2 = worst_e = worst_cas = worst_deg = 0.0
    for order in range(max_order + 1):
        lz_matrix, r2_matrix = level_matrix(h3(), order), level_matrix(R2_OP, order)
        for alpha, hp in zip(alphas, electron):
            modes, vecs = _level(order, alpha)
            worst_lz = max(worst_lz, _worst_expectation(lz_matrix, vecs, [mean_lz(md.l, alpha) for md in modes]))
            worst_r2 = max(worst_r2, _worst_expectation(r2_matrix, vecs, [mean_r2(md.n_r, md.l) for md in modes]))
            e = [energy(md.n_r, md.l, -1) for md in modes]
            worst_e = max(worst_e, _worst_expectation(level_matrix(hp, order), vecs, e))
            if alpha == 0.0:
                j = 0.5 * order
                worst_cas = max(worst_cas, _worst_expectation(level_matrix(cas, order), vecs, j * (j + 1)))
        for md in modes:
            e_minus = energy(md.n_r, md.l, -1)
            e_plus = energy(md.n_r, md.l, +1)
            worst_deg = max(worst_deg, abs(e_minus - (2 * md.n + 1)), abs(e_plus - (2 * md.m + 1)))
    out.append(IdentityResult("observables", "<Lz> = l sin(2 alpha)", worst_lz, t))
    out.append(IdentityResult("observables", "<r^2> = (2 n_r + |l| + 1)/2, alpha independent", worst_r2, t))
    out.append(IdentityResult("observables", "<Hperp> matches the closed-form energy", worst_e, t))
    out.append(IdentityResult("observables", "<Casimir> = j(j+1)", worst_cas, t))
    out.append(IdentityResult("observables", "energy degeneracy in m (electron) / n (positron)", worst_deg, t))
    return out


def suite_fields(max_order: int) -> list[IdentityResult]:
    out: list[IdentityResult] = []
    rng = np.random.default_rng(19)
    eps = 0.1
    t_fd = 1e-6 / eps
    t_exact = 1e-9

    pts = [(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-0.3, 0.3)) for _ in range(200)]
    for beta in (0.0, 0.25, 0.5, 0.75, 1.0):
        model = fields_mod.FieldModel(beta=beta, b0=1.0, eps=eps)
        worst = max(abs(fields_mod.divergence(partial(fields_mod.b_field, model), *p)) for p in pts)
        out.append(IdentityResult("fields", f"div B = 0 at beta={beta}", worst, t_fd))

    model = fields_mod.FieldModel(beta=0.35, b0=1.0, eps=eps)
    worst = 0.0
    params_sets = [
        fields_mod.GaugeParams(a=float(rng.uniform(-1, 1)), b=float(rng.uniform(-1, 1)), c=float(rng.uniform(-1, 1)))
        for _ in range(3)
    ]
    potentials = [partial(fields_mod.vector_potential, params, model) for params in params_sets]
    for A in potentials:
        for p in pts[:60]:
            worst = max(worst, float(np.max(np.abs(fields_mod.curl(A, *p) - fields_mod.b_field(model, *p)))))
    out.append(IdentityResult("fields", "curl A = B across the gauge family", worst, t_fd))

    worst = 0.0
    for p in pts[:60]:
        a1 = fields_mod.curl(potentials[0], *p)
        a2 = fields_mod.curl(potentials[1], *p)
        worst = max(worst, float(np.max(np.abs(a1 - a2))))
    out.append(IdentityResult("fields", "equal d-b gives equal curl", worst, t_fd))

    fixed = partial(fields_mod.transformed_potential, params_sets[0], model)
    worst = 0.0
    for p in pts[:100]:
        ref = fields_mod.vector_potential(fields_mod.gauge_fix(model), model, *p)
        worst = max(worst, float(np.max(np.abs(fixed(*p) - ref))))
    out.append(IdentityResult("fields", "A + grad(chi) matches the fixed potential", worst, t_exact))

    worst = 0.0
    for _ in range(50):
        x, y = rng.uniform(-1, 1, 2)
        z = rng.uniform(12 * eps, 20 * eps)
        ap = fixed(float(x), float(y), float(z))
        ref = np.array([-model.beta * y, (1 - model.beta) * x, 0.0])
        worst = max(worst, float(np.max(np.abs(ap - ref))))
    out.append(IdentityResult("fields", "fixed potential inside the solenoid", worst, t_exact))

    worst = 0.0
    for _ in range(50):
        x, y = rng.uniform(-1, 1, 2)
        z = rng.uniform(3 * eps, 10 * eps)
        worst = max(worst, abs(fields_mod.divergence(fixed, x, y, z)))
    out.append(IdentityResult("fields", "div A' = 0 inside (Coulomb gauge)", worst, t_exact))
    return out


def suite_wigner(max_order: int) -> list[IdentityResult]:
    t = 1e-10
    t_unit = 1e-12
    out: list[IdentityResult] = []
    rng = np.random.default_rng(23)

    j_max = min(4.0, max_order / 2.0)
    worst_rec = 0.0
    worst_unit = 0.0
    for twice_j in range(1, round(2 * j_max) + 1):
        j = twice_j / 2.0
        basis = {
            0.5 * tmp: hlg_state((twice_j + tmp) // 2, (twice_j - tmp) // 2, 0.0)
            for tmp in range(-twice_j, twice_j + 1, 2)
        }
        for _ in range(2):
            phi = float(rng.uniform(0, 2 * math.pi))
            alpha = float(rng.uniform(0, math.pi / 2))
            A, B, C = euler_angles(phi, alpha)
            for twice_m in range(-twice_j, twice_j + 1, 2):
                m_l = twice_m / 2.0
                coeffs = wigner_decompose(j, m_l, A, B, C)
                worst_unit = max(worst_unit, abs(sum(abs(c) ** 2 for c in coeffs.values()) - 1.0))
                direct = schwinger_state(round(j + m_l), round(j - m_l), alpha, phi)
                for mp, c in coeffs.items():
                    worst_rec = max(worst_rec, abs(inner_product(basis[mp], direct) - c))
    out.append(IdentityResult("wigner", "rotation expansion reproduces the rotated modes", worst_rec, t))
    out.append(IdentityResult("wigner", "unitarity of expansion rows", worst_unit, t_unit))

    worst = 0.0
    for _ in range(20):
        phi = float(rng.uniform(0, 2 * math.pi))
        alpha = float(rng.uniform(0, math.pi / 2))
        A, B, C = euler_angles(phi, alpha)
        w1 = complex(math.cos(phi) * math.cos(alpha), -math.sin(phi) * math.sin(alpha))
        w2 = complex(-math.cos(phi) * math.sin(alpha), math.sin(phi) * math.cos(alpha))
        worst = max(worst, abs(cmath.exp(-1j * (A + C) / 2) * math.cos(B / 2) - w1))
        worst = max(worst, abs(cmath.exp(1j * (A - C) / 2) * math.sin(B / 2) - w2))
    out.append(IdentityResult("wigner", "Euler angles solve their defining equations", worst, 1e-12))

    worst = 0.0
    for twice_j in range(1, 9):
        j = twice_j / 2.0
        beta = float(rng.uniform(0, math.pi))
        ms = [k / 2.0 for k in range(-twice_j, twice_j + 1, 2)]
        for mp in ms:
            for m in ms:
                worst = max(worst, abs(wigner_small_d(j, mp, m, -beta) - wigner_small_d(j, m, mp, beta)))
    out.append(IdentityResult("wigner", "d(-B) equals transposed d(B)", worst, t_unit))
    return out


def suite_berry(max_order: int) -> list[IdentityResult]:
    out: list[IdentityResult] = []
    t_phase = 1e-3
    t_zero = 1e-8
    t_gauge = 1e-10

    cap = 2 * math.pi * (1 - math.cos(math.pi / 4))
    loop = berry_mod.latitude_loop(math.pi / 8, 2000)
    omega = berry_mod.solid_angle(loop)
    out.append(IdentityResult("berry", "latitude solid angle matches the cap formula", abs(omega - cap), 1e-4))
    phase = berry_mod.berry_phase(loop, 3, 0)
    out.append(IdentityResult("berry", "l=3 latitude phase = -(3/2) Omega", abs(phase + 1.5 * cap), t_phase))

    errs = []
    for nseg in (250, 500, 1000, 2000):
        p = berry_mod.berry_phase(berry_mod.latitude_loop(math.pi / 8, nseg), 3, 0)
        errs.append(abs(p + 1.5 * cap))
    worst_ratio = max(errs[i + 1] / errs[i] for i in range(len(errs) - 1))
    out.append(IdentityResult("berry", "quadratic error decay across segment counts", worst_ratio, 0.5))

    out.append(IdentityResult("berry", "l=0 loop has zero phase", abs(berry_mod.berry_phase(berry_mod.latitude_loop(math.pi / 8, 400), 2, 2)), t_zero))
    out.append(IdentityResult("berry", "pole-pinned loop has zero phase", abs(berry_mod.berry_phase(berry_mod.latitude_loop(math.pi / 4, 400), 3, 0)), t_zero))

    fwd = berry_mod.latitude_loop(math.pi / 8, 400)
    rev = fwd.reversed()
    out.append(IdentityResult("berry", "reversal flips the solid angle", abs(berry_mod.solid_angle(fwd) + berry_mod.solid_angle(rev)), 1e-10))
    out.append(IdentityResult("berry", "reversal flips the phase", abs(berry_mod.berry_phase(fwd, 3, 0) + berry_mod.berry_phase(rev, 3, 0)), t_gauge))

    pol = berry_mod.polar_loop(0.3, 200)
    om = berry_mod.solid_angle(pol)
    ph = berry_mod.berry_phase(pol, 1, 0)
    out.append(IdentityResult("berry", "polar loop phase = -(l/2) Omega", abs(ph + 0.5 * om), t_phase))
    return out


_SUITE_FUNCS = {
    "algebra": suite_algebra,
    "spectra": suite_spectra,
    "observables": suite_observables,
    "fields": suite_fields,
    "wigner": suite_wigner,
    "berry": suite_berry,
}


def run(
    suites=None, max_order: int = 10, tol: float | None = None
) -> dict:
    """Run the requested suites and return the JSON-ready report.

    ``suites=None`` runs every suite; an empty selection or a repeated
    name is an error.  A given ``tol`` replaces the tolerance of every
    identity.
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
    results: list[IdentityResult] = []
    for name in names:
        results.extend(_SUITE_FUNCS[name](max_order))
    if tol is not None:
        results = [replace(r, tolerance=tol) for r in results]
    passed = sum(1 for r in results if r.passed)
    report = {
        "suites": names,
        "max_order": max_order,
        "tolerance_override": tol,
        "results": [r.as_dict() for r in results],
        "summary": {
            "total": len(results),
            "passed": passed,
            "failed": len(results) - passed,
            "all_pass": passed == len(results),
        },
    }
    return report
