"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints a single PASS/FAIL line (visible under ``pytest -s`` or
in captured output) before asserting, so a red run still reports every
criterion's measured residual.
"""

import math

import numpy as np

from als.berry import berry_phase, latitude_loop
from als.fields import FieldModel, GaugeParams, b_field, gauge_fix, vector_potential
from als.gstate import (
    PolyDiffOperator,
    apply,
    compose,
    density_grid,
    evaluate,
    inner_product,
    op_commutator,
)
from als.modes import (
    ModeIndex,
    beta_to_alpha,
    euler_angles,
    hlg_state,
    schwinger_state,
    wigner_decompose,
    wigner_reconstruct,
)
from als.operators import (
    casimir,
    dilate,
    eigen_residual,
    expectation,
    h3,
    h_as,
    h_perp,
    h_phys,
    hs,
    pseudo_spin,
)
from als.cli import classify_pattern

rng = np.random.default_rng(909)

ALPHA_GRID = np.linspace(0.0, math.pi / 2, 9)
R2_OP = PolyDiffOperator({(2, 0, 0, 0): 1.0, (0, 2, 0, 0): 1.0})


def all_modes(max_total):
    return [ModeIndex(n, t - n) for t in range(max_total + 1) for n in range(t + 1)]


def report_line(num, ok, text):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {text}")


def test_criterion_1_operator_algebra():
    spin = {i: pseudo_spin(i) for i in (1, 2, 3)}
    eps = {(1, 2): 3, (2, 3): 1, (3, 1): 2}
    worst = 0.0
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            lhs = op_commutator(spin[i], spin[j])
            if i == j:
                rhs = PolyDiffOperator({})
            elif (i, j) in eps:
                rhs = 1j * spin[eps[(i, j)]]
            else:
                rhs = -1j * spin[eps[(j, i)]]
            worst = max(worst, (lhs - rhs).max_coeff())
    iso = hs()
    for i in (1, 2, 3):
        worst = max(worst, op_commutator(iso, 2.0 * spin[i]).max_coeff())
    ok = worst <= 1e-12
    report_line(1, ok, f"SO(3) algebra + isotropic commutation, max residual {worst:.3e} (tol 1e-12)")
    assert ok


def test_criterion_2_casimir():
    cas = casimir()
    iso = hs()
    ident = PolyDiffOperator.identity()
    op_res = (cas - (0.25 * compose(iso, iso) - 0.25 * ident)).max_coeff()
    eig_res = 0.0
    for mode in all_modes(10):
        s = hlg_state(mode.n, mode.m, 0.0)
        lam = 0.25 * ((mode.n + mode.m + 1) ** 2 - 1)
        eig_res = max(eig_res, eigen_residual(s, cas, lam))
    ok = op_res <= 1e-12 and eig_res <= 1e-10
    report_line(2, ok, f"Casimir identity {op_res:.3e} (tol 1e-12), eigenvalues {eig_res:.3e} (tol 1e-10)")
    assert ok


def test_criterion_3_transverse_spectra():
    worst = 0.0
    for mode in all_modes(10):
        for alpha in ALPHA_GRID:
            s = hlg_state(mode.n, mode.m, float(alpha))
            worst = max(worst, eigen_residual(s, h_perp(float(alpha), -1), 2 * mode.n + 1))
            worst = max(worst, eigen_residual(s, h_perp(float(alpha), +1), 2 * mode.m + 1))
    ok = worst <= 1e-10
    report_line(3, ok, f"transverse spectrum both charge signs, max residual {worst:.3e} (tol 1e-10)")
    assert ok


def test_criterion_4_second_invariant():
    worst_eig = 0.0
    for mode in all_modes(10):
        for alpha in ALPHA_GRID:
            s = hlg_state(mode.n, mode.m, float(alpha))
            for sign in (-1, 1):
                lam = -sign * mode.l
                worst_eig = max(worst_eig, eigen_residual(s, h_as(float(alpha), sign), lam))
    worst_comm = 0.0
    for alpha in ALPHA_GRID:
        c = op_commutator(
            h_perp(float(alpha), -1),
            h_as(float(alpha), -1),
        )
        worst_comm = max(worst_comm, c.max_coeff())
    ok = worst_eig <= 1e-10 and worst_comm <= 1e-12
    report_line(4, ok, f"second invariant eigenvalues {worst_eig:.3e} (tol 1e-10), commutation {worst_comm:.3e} (tol 1e-12)")
    assert ok


def test_criterion_5_observables():
    worst = 0.0
    for mode in all_modes(10):
        for alpha in ALPHA_GRID:
            s = hlg_state(mode.n, mode.m, float(alpha))
            lz = expectation(s, h3()).real
            worst = max(worst, abs(lz - mode.l * math.sin(2 * float(alpha))))
            r2 = inner_product(s, apply(R2_OP, s)).real
            worst = max(worst, abs(r2 - 0.5 * (2 * mode.n_r + abs(mode.l) + 1)))
    ok = worst <= 1e-10
    report_line(5, ok, f"<Lz> and <r^2> closed forms, max residual {worst:.3e} (tol 1e-10)")
    assert ok


def test_criterion_6_orthonormality():
    worst = 0.0
    for alpha in (0.0, math.pi / 8, math.pi / 4, 3 * math.pi / 8):
        states = [hlg_state(m.n, m.m, alpha) for m in all_modes(10)]
        for i, a in enumerate(states):
            for b in states[i:]:
                ref = 1.0 if a is b else 0.0
                worst = max(worst, abs(inner_product(a, b) - ref))
    ok = worst <= 1e-10
    report_line(6, ok, f"orthonormality of the mode basis, max residual {worst:.3e} (tol 1e-10)")
    assert ok


def test_criterion_7_wigner_reconstruction():
    worst_rec = 0.0
    worst_unit = 0.0
    for twice_j in range(1, 9):
        j = twice_j / 2
        for _ in range(2):
            phi = float(rng.uniform(0, 2 * math.pi))
            alpha = float(rng.uniform(0, math.pi / 2))
            A, B, C = euler_angles(phi, alpha)
            for twice_m in range(-twice_j, twice_j + 1, 2):
                m_l = twice_m / 2
                coeffs = wigner_decompose(j, m_l, A, B, C)
                worst_unit = max(worst_unit, abs(sum(abs(c) ** 2 for c in coeffs.values()) - 1.0))
                rec = wigner_reconstruct(j, m_l, A, B, C)
                ref = schwinger_state(round(j + m_l), round(j - m_l), alpha, phi)
                for x, y in rng.uniform(-2, 2, size=(6, 2)):
                    worst_rec = max(worst_rec, abs(evaluate(rec, float(x), float(y)) - evaluate(ref, float(x), float(y))))
    ok = worst_rec <= 1e-10 and worst_unit <= 1e-12
    report_line(7, ok, f"rotation-matrix reconstruction {worst_rec:.3e} (tol 1e-10), unitarity {worst_unit:.3e} (tol 1e-12)")
    assert ok


def test_criterion_8_unitary_equivalence():
    worst = 0.0
    for beta in (0.2, 0.35, 0.5):
        for sign in (-1, 1):
            alpha = beta_to_alpha(beta, sign)
            lx, ly = math.sqrt(2 * (1 - beta)), math.sqrt(2 * beta)
            hphys = h_phys(beta, sign)
            for mode in all_modes(6):
                s = dilate(hlg_state(mode.n, mode.m, alpha), lx, ly)
                lam = 2 * mode.n + 1 if sign < 0 else 2 * mode.m + 1
                worst = max(worst, eigen_residual(s, hphys, lam))
    ok = worst <= 1e-9
    report_line(8, ok, f"ellipticity-form equivalence on dilated modes, max residual {worst:.3e} (tol 1e-9)")
    assert ok


def test_criterion_9_berry_phase():
    cap = 2 * math.pi * (1 - math.cos(math.pi / 4))
    errs = []
    for nseg in (250, 500, 1000, 2000):
        phase = berry_phase(latitude_loop(math.pi / 8, nseg), 3, 0)
        errs.append(abs(phase + 1.5 * cap))
    final_ok = errs[-1] <= 1e-3
    decay_ok = all(errs[i + 1] < errs[i] for i in range(3)) and errs[0] / errs[-1] >= 16.0
    ok = final_ok and decay_ok
    report_line(9, ok, f"geometric phase deviation {errs[-1]:.3e} at 2000 segments (tol 1e-3), decay {errs[0]:.2e} -> {errs[-1]:.2e}")
    assert ok


def test_criterion_10_boundary_fields():
    h = 1e-5
    eps = 0.1
    tol_fd = 1e-6 / eps
    worst_div = 0.0
    pts = [(float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)), float(rng.uniform(-0.3, 0.3))) for _ in range(1000)]
    for beta in (0.0, 0.25, 0.5, 0.75, 1.0):
        model = FieldModel(beta=beta, b0=1.0, eps=eps)
        for x, y, z in pts:
            d = (b_field(model, x + h, y, z)[0] - b_field(model, x - h, y, z)[0]) / (2 * h)
            d += (b_field(model, x, y + h, z)[1] - b_field(model, x, y - h, z)[1]) / (2 * h)
            d += (b_field(model, x, y, z + h)[2] - b_field(model, x, y, z - h)[2]) / (2 * h)
            worst_div = max(worst_div, abs(d))

    model = FieldModel(beta=0.35, b0=1.0, eps=eps)
    params = GaugeParams.for_beta(0.35, a=0.8, b=-0.3, c=0.5)

    def A(x, y, z):
        return vector_potential(params, model, x, y, z)

    worst_curl = 0.0
    for x, y, z in pts:
        cx = (A(x, y + h, z)[2] - A(x, y - h, z)[2]) / (2 * h) - (A(x, y, z + h)[1] - A(x, y, z - h)[1]) / (2 * h)
        cy = (A(x, y, z + h)[0] - A(x, y, z - h)[0]) / (2 * h) - (A(x + h, y, z)[2] - A(x - h, y, z)[2]) / (2 * h)
        cz = (A(x + h, y, z)[1] - A(x - h, y, z)[1]) / (2 * h) - (A(x, y + h, z)[0] - A(x, y - h, z)[0]) / (2 * h)
        ref = b_field(model, x, y, z)
        worst_curl = max(worst_curl, abs(cx - ref[0]), abs(cy - ref[1]), abs(cz - ref[2]))

    fix = gauge_fix(params, model)
    worst_fix = 0.0
    worst_div_inside = 0.0
    for x, y, _ in pts[:100]:
        ref = vector_potential(fix.fixed, model, x, y, 0.1)
        worst_fix = max(worst_fix, float(np.max(np.abs(fix.potential(x, y, 0.1) - ref))))
        z = float(rng.uniform(3 * eps, 10 * eps))
        d = (fix.potential(x + h, y, z)[0] - fix.potential(x - h, y, z)[0]) / (2 * h)
        d += (fix.potential(x, y + h, z)[1] - fix.potential(x, y - h, z)[1]) / (2 * h)
        d += (fix.potential(x, y, z + h)[2] - fix.potential(x, y, z - h)[2]) / (2 * h)
        worst_div_inside = max(worst_div_inside, abs(d))

    ok = worst_div <= tol_fd and worst_curl <= tol_fd and worst_fix <= 1e-12 and worst_div_inside <= 1e-9
    report_line(
        10, ok,
        f"div B {worst_div:.3e}, curl-B {worst_curl:.3e} (tol {tol_fd:.1e}); "
        f"gauge fix {worst_fix:.3e} (tol 1e-12), Coulomb {worst_div_inside:.3e} (tol 1e-9)",
    )
    assert ok


def test_criterion_11_density_panels():
    extent, points = 6.0, 256
    cell = (2 * extent / points) ** 2
    alphas = [0.0, math.pi / 16, math.pi / 8, 3 * math.pi / 16, math.pi / 4]
    problems = []
    classes = {}
    for n_r, l in ((0, 3), (2, 2)):
        mode = ModeIndex.from_twisted(n_r, l)
        for alpha in alphas:
            g = density_grid(hlg_state(mode.n, mode.m, alpha), -extent, extent, -extent, extent, points, points)
            if not np.all(g >= 0):
                problems.append(f"negative density at {(n_r, l, alpha)}")
            norm = float(g.sum() * cell)
            if abs(norm - 1.0) > 1e-6:
                problems.append(f"norm {norm} at {(n_r, l, alpha)}")
            classes[(n_r, l, alpha)] = classify_pattern(g, extent)["classification"]
        if classes[(n_r, l, 0.0)] != "striped":
            problems.append(f"({n_r},{l}) at alpha=0 classified {classes[(n_r, l, 0.0)]}")
        if classes[(n_r, l, math.pi / 4)] != "ring":
            problems.append(f"({n_r},{l}) at alpha=pi/4 classified {classes[(n_r, l, math.pi / 4)]}")
    ok = not problems
    report_line(11, ok, "density panels nonneg, norm 1+-1e-6, striped->ring" + ("" if ok else f"; problems: {problems}"))
    assert ok, problems
