"""Operator family, commutator table, rotations, dilations, spectra."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from als import verify
from als.gstate import PolyDiffOperator, apply, inner_product, op_commutator
from als.modes import ORDER_CAP, beta_to_alpha, hlg_block, hlg_state, schwinger_state
from als.operators import (
    CASIMIR,
    H1,
    H2,
    H3,
    HS,
    IDENTITY,
    R2,
    dilate,
    eigen_residual,
    expectation,
    family_weights,
    h_as,
    h_perp,
    h_phys,
    level_matrix,
    rotate,
    schwinger_operator,
    spin_axis,
)

rng = np.random.default_rng(404)


def random_state(n_terms=5):
    from als.gstate import GaussianPolyState

    terms = {}
    for _ in range(n_terms):
        key = (int(rng.integers(0, 4)), int(rng.integers(0, 4)))
        terms[key] = complex(rng.normal(), rng.normal())
    return GaussianPolyState(terms)


class TestBuild:
    def test_symmetric_gauge_limit(self):
        # beta = 1/2 collapses to isotropic oscillator + angular momentum
        lhs = h_phys(0.5, -1)
        rhs = HS + H3
        assert (lhs - rhs).max_coeff() == 0.0

    def test_asymmetric_part_at_symmetric_point(self):
        for sign in (-1, 1):
            lhs = h_as(math.pi / 4, sign)
            rhs = float(-sign) * H3
            assert (lhs - rhs).max_coeff() <= 1e-16

    def test_casimir_identity(self):
        from als.gstate import compose

        ref = 0.25 * compose(HS, HS) - 0.25 * IDENTITY
        assert (CASIMIR - ref).max_coeff() == 0.0

    def test_hphys_beta_domain(self):
        for beta in (0.0, 1.0, -0.1, 1.3):
            with pytest.raises(ValueError):
                h_phys(beta, -1)

    def test_kind_parameter_validation(self):
        with pytest.raises(ValueError):
            h_phys(0.5, 2)

    def test_term_key_order(self):
        # apply() emits terms in this order and inner_product sums in it,
        # so a reordering changes output bits even when values agree
        second = [(0, 0, 2, 0), (0, 0, 0, 2), (2, 0, 0, 0), (0, 2, 0, 0)]
        ladder = [(1, 0, 0, 1), (0, 1, 1, 0)]
        expected = {
            "hs": (HS, second),
            "h1": (H1, second),
            "h2": (H2, [(0, 0, 1, 1), (1, 1, 0, 0)]),
            "h3": (H3, ladder),
            "casimir": (
                CASIMIR,
                [
                    (0, 0, 4, 0), (0, 0, 2, 2), (2, 0, 2, 0), (1, 0, 1, 0),
                    (0, 0, 0, 0), (0, 2, 2, 0), (0, 0, 0, 4), (2, 0, 0, 2),
                    (0, 2, 0, 2), (0, 1, 0, 1), (4, 0, 0, 0), (2, 2, 0, 0),
                    (0, 4, 0, 0),
                ],
            ),
            "h_as": (h_as(0.3), second + ladder),
            "h_perp": (h_perp(0.3), second + ladder),
            "h_phys": (
                h_phys(0.3),
                [(0, 0, 2, 0), (0, 0, 0, 2), (0, 1, 1, 0), (1, 0, 0, 1), (0, 2, 0, 0), (2, 0, 0, 0)],
            ),
        }
        for name, (op, keys) in expected.items():
            assert list(op.terms) == keys, name


class TestCommutators:
    def test_pseudo_spin_algebra_all_pairs(self):
        eps = {(1, 2): 3, (2, 3): 1, (3, 1): 2}
        spin = {1: 0.5 * H1, 2: 0.5 * H2, 3: 0.5 * H3}
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                lhs = op_commutator(spin[i], spin[j])
                if i == j:
                    assert lhs.max_coeff() == 0.0
                    continue
                if (i, j) in eps:
                    rhs = 1j * spin[eps[(i, j)]]
                else:
                    rhs = -1j * spin[eps[(j, i)]]
                assert (lhs - rhs).max_coeff() <= 1e-16

    def test_isotropic_part_commutes(self):
        for op in (H1, H2, H3):
            assert op_commutator(HS, op).max_coeff() == 0.0

    def test_integral_of_motion(self):
        for alpha in (0.0, math.pi / 8, math.pi / 4):
            c = op_commutator(
                h_perp(alpha, -1), h_as(alpha, -1)
            )
            assert c.max_coeff() <= 1e-15

    def test_casimir_commutes_with_rotated_family(self):
        for _ in range(3):
            phi = float(rng.uniform(0, 2 * math.pi))
            alpha = float(rng.uniform(0, math.pi / 2))
            sch = schwinger_operator(phi, alpha, -1)
            assert op_commutator(CASIMIR, sch).max_coeff() <= 1e-12


class TestRotate:
    def test_ground_state_invariant(self):
        from als.gstate import GaussianPolyState

        g = GaussianPolyState({(0, 0): 1.0})
        out = rotate(g, 1.234)
        assert out.terms == {(0, 0): pytest.approx(1.0)}

    def test_inverse_rotation(self):
        s = random_state()
        out = rotate(rotate(s, 0.8), -0.8)
        keys = set(s.terms) | set(out.terms)
        assert max(abs(s.terms.get(k, 0j) - out.terms.get(k, 0j)) for k in keys) <= 1e-13

    def test_isotropic_energy_conserved(self):
        for _ in range(5):
            s = random_state()
            phi = float(rng.uniform(0, 2 * math.pi))
            r = rotate(s, phi)
            lhs = inner_product(r, apply(HS, r))
            rhs = inner_product(s, apply(HS, s))
            assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(rhs))


def loop_rotate(s, phi):
    """Term-by-term double binomial expansion: the oracle for rotate."""
    from als.gstate import GaussianPolyState

    c, si = math.cos(phi), math.sin(phi)
    out = {}
    for (p, q), coeff in s.terms.items():
        for i in range(p + 1):
            fx = math.comb(p, i) * c**i * si ** (p - i)
            if fx == 0.0:
                continue
            for jj in range(q + 1):
                f = fx * math.comb(q, jj) * c**jj * (-si) ** (q - jj)
                if f == 0.0:
                    continue
                key = (i + q - jj, p - i + jj)
                out[key] = out.get(key, 0j) + coeff * f
    return GaussianPolyState(out)


def coeff_diff(a, b):
    keys = set(a.terms) | set(b.terms)
    return max((abs(a.terms.get(k, 0j) - b.terms.get(k, 0j)) for k in keys), default=0.0)


def graded_state(order):
    """Random state with x^order and about 60% of the other monomials of
    each degree <= order."""
    from als.gstate import GaussianPolyState

    terms = {(order, 0): complex(rng.normal(), rng.normal())}
    for d in range(order + 1):
        for q in range(d + 1):
            if rng.random() < 0.6:
                terms[(d - q, q)] = complex(rng.normal(), rng.normal())
    return GaussianPolyState(terms)


class TestRotateOracle:
    @pytest.mark.parametrize("order", [0, 1, 2, 5, 8, 11, 14, 17, 20])
    def test_matches_term_loop(self, order):
        for _ in range(3):
            s = graded_state(order)
            phi = float(rng.uniform(-math.pi, math.pi))
            expected = loop_rotate(s, phi)
            scale = max(abs(c) for c in expected.terms.values())
            assert coeff_diff(rotate(s, phi), expected) <= 1e-14 * scale

    def test_rotated_mode_matches_exact_expansion(self):
        # The term loop's own rounding error on this mode reaches 2.4e-14
        # of the largest coefficient at some angles (the matrix form stays
        # below 4e-15), so the reference is the same expansion in exact
        # rationals of the float cos(phi), sin(phi) and coefficients.
        s = hlg_state(9, 11, 0.3)
        for phi in rng.uniform(-math.pi, math.pi, size=3):
            c, si = Fraction(math.cos(phi)), Fraction(math.sin(phi))
            ref = {}
            for (p, q), coeff in s.terms.items():
                re, im = Fraction(coeff.real), Fraction(coeff.imag)
                for i in range(p + 1):
                    for jj in range(q + 1):
                        f = math.comb(p, i) * math.comb(q, jj) * c ** (i + jj)
                        f *= si ** (p - i) * (-si) ** (q - jj)
                        key = (i + q - jj, p - i + jj)
                        r0, i0 = ref.get(key, (0, 0))
                        ref[key] = (r0 + re * f, i0 + im * f)
            ref = {k: complex(float(r), float(i)) for k, (r, i) in ref.items()}
            out = rotate(s, float(phi))
            scale = max(abs(v) for v in ref.values())
            assert set(out.terms) <= set(ref)
            assert max(abs(v - out.terms.get(k, 0j)) for k, v in ref.items()) <= 1e-14 * scale

    def test_zero_angle_is_identity(self):
        for s in (graded_state(12), hlg_state(10, 0, math.pi / 8)):
            assert rotate(s, 0.0).terms == s.terms

    def test_composition(self):
        s = graded_state(10)
        a, b = 0.7, -1.9
        lhs = rotate(rotate(s, a), b)
        rhs = rotate(s, a + b)
        scale = max(abs(c) for c in rhs.terms.values())
        assert coeff_diff(lhs, rhs) <= 1e-13 * scale


def random_operator(n_terms=6, max_pow=3):
    terms = {}
    for _ in range(n_terms):
        key = tuple(int(v) for v in rng.integers(0, max_pow + 1, size=4))
        terms[key] = complex(rng.normal(), rng.normal())
    return PolyDiffOperator(terms)


class TestDilate:
    def test_identity_scales(self):
        D = random_operator()
        assert dilate(D, 1.0, 1.0).terms == D.terms

    def test_composition(self):
        for _ in range(5):
            D = random_operator()
            a, b, c, d = (float(v) for v in rng.uniform(0.4, 2.5, size=4))
            lhs = dilate(dilate(D, a, b), c, d)
            rhs = dilate(D, a * c, b * d)
            assert (lhs - rhs).max_coeff() <= 1e-14 * max(1.0, rhs.max_coeff())

    def test_preserves_commutators(self):
        for A, B in [(h_phys(0.3, -1), H2), (random_operator(), random_operator())]:
            lx, ly = (float(v) for v in rng.uniform(0.4, 2.5, size=2))
            lhs = dilate(op_commutator(A, B), lx, ly)
            rhs = op_commutator(dilate(A, lx, ly), dilate(B, lx, ly))
            assert (lhs - rhs).max_coeff() <= 1e-13 * max(1.0, rhs.max_coeff())

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(ValueError):
            dilate(HS, 0.0, 1.0)

    @pytest.mark.parametrize("beta", [0.2, 0.35, 0.5])
    @pytest.mark.parametrize("sign", [-1, 1])
    def test_ellipticity_hamiltonian_equivalence(self, beta, sign):
        # U^-1 Hphys(beta) U = Hperp(alpha(beta)) for the symmetrizing
        # dilation U, so the two forms share their spectrum
        lx, ly = math.sqrt(2 * (1 - beta)), math.sqrt(2 * beta)
        diff = dilate(h_phys(beta, sign), lx, ly) - h_perp(beta_to_alpha(beta, sign), sign)
        assert diff.max_coeff() <= 1e-12


class TestExpectation:
    def test_oscillator_ladder(self):
        for n, m in [(0, 0), (2, 1), (3, 3)]:
            s = hlg_state(n, m, 0.31)
            assert expectation(s, HS).real == pytest.approx(
                n + m + 1, abs=1e-12
            )

    def test_angular_momentum_mean(self):
        for n, m in [(3, 0), (1, 2), (2, 2)]:
            for alpha in (0.0, math.pi / 8, math.pi / 4):
                s = hlg_state(n, m, alpha)
                assert expectation(s, H3).real == pytest.approx(
                    (n - m) * math.sin(2 * alpha), abs=1e-12
                )

    def test_h2_matches_overlap_phase_derivative(self):
        # <H2> = d/d(delta) Arg <psi(a)|psi(a + delta)>, central difference
        gen = H2
        d = 1e-4
        for n, m, alpha in [(2, 1, 0.4), (3, 0, 0.9)]:
            s = hlg_state(n, m, alpha)
            exact = expectation(s, gen).real
            fwd = cmath.phase(inner_product(s, hlg_state(n, m, alpha + d)))
            bwd = cmath.phase(inner_product(s, hlg_state(n, m, alpha - d)))
            assert abs(exact - (fwd - bwd) / (2 * d)) <= 1e-6

    def test_zero_norm_rejected(self):
        from als.gstate import GaussianPolyState

        with pytest.raises(ValueError):
            expectation(GaussianPolyState({}), HS)


class TestEigenResidual:
    @pytest.mark.parametrize("alpha", [0.0, math.pi / 8, math.pi / 4, 1.3])
    def test_transverse_spectrum(self, alpha):
        for total in range(9):
            for n in range(total + 1):
                m = total - n
                s = hlg_state(n, m, alpha)
                assert eigen_residual(s, h_perp(alpha, -1), 2 * n + 1) <= 1e-10
                assert eigen_residual(s, h_perp(alpha, +1), 2 * m + 1) <= 1e-10

    def test_asymmetric_invariant_eigenvalue(self):
        for alpha in (0.0, 0.6):
            for n, m in [(3, 0), (1, 2), (2, 2)]:
                s = hlg_state(n, m, alpha)
                for sign in (-1, 1):
                    lam = -sign * (n - m)
                    assert eigen_residual(s, h_as(alpha, sign), lam) <= 1e-10

    def test_casimir_eigenvalue(self):
        for n, m in [(0, 0), (2, 1), (4, 3), (5, 5)]:
            s = hlg_state(n, m, 0.0)
            lam = 0.25 * ((n + m + 1) ** 2 - 1)
            assert eigen_residual(s, CASIMIR, lam) <= 1e-10


class TestLevelMatrix:
    # Oracle: apply() on the term maps, projected onto the products with
    # hlg_state(nx, ny, 0) = (-i)^ny |nx, ny>.  The term maps are exact to
    # 1e-13 only up to order 8, so only outputs on levels <= 8 are compared.
    LOW = 8
    PRODUCTS = {
        (nx, total - nx): hlg_state(nx, total - nx, 0.0)
        for total in range(LOW + 1)
        for nx in range(total + 1)
    }

    OPS = [HS, H1, H2, H3, CASIMIR, R2, h_perp(0.7, -1), h_perp(0.7, +1),
           h_as(0.7, -1), schwinger_operator(1.1, 0.4, -1)]

    @pytest.mark.parametrize(
        "op", OPS, ids=["hs", "h1", "h2", "h3", "casimir", "r2", "h_perp-", "h_perp+", "h_as", "schwinger"],
    )
    def test_matches_apply_on_term_maps(self, op):
        worst = 0.0
        for order in range(self.LOW + 1):
            (matrix,) = level_matrix([op], order)
            for n in range(order + 1):
                image = matrix @ hlg_block(n, order - n, 0.3)
                ref = apply(op, hlg_state(n, order - n, 0.3))
                for (nx, ny), product in self.PRODUCTS.items():
                    got = image[nx, ny] if max(nx, ny) < len(image) else 0.0
                    worst = max(worst, abs(got - (-1j) ** ny * inner_product(product, ref)))
        assert worst <= 2e-12, worst

    @pytest.mark.parametrize("order", [*range(LOW + 1), ORDER_CAP])
    def test_stack_matches_one_operator_calls(self, order):
        # a stack is as wide as its widest operator's image; each operator's
        # own matrix is its top-left corner, with zeros beyond
        stack = level_matrix(self.OPS, order)
        assert stack.shape == (len(self.OPS), order + 5, order + 5, order + 1)
        for op, matrix in zip(self.OPS, stack):
            (alone,) = level_matrix([op], order)
            size = len(alone)
            assert np.array_equal(matrix[:size, :size], alone)
            assert not matrix[size:].any() and not matrix[:, size:].any()

    @pytest.mark.parametrize("order", [0, 1, 2, 5, 10, 15, 20])
    def test_family_constructors_equal_the_weighted_generators(self, order):
        # verify's level suites weight the generators' level matrices with
        # family_weights; the term-map constructors, which the algebra suite
        # certifies, give the same matrices to rounding
        hs, h1, h2, h3 = level_matrix([HS, H1, H2, H3], order)
        draws = np.random.default_rng(37).uniform((0.0, 0.0), (2 * math.pi, math.pi / 2), size=(2, 20, 2))
        cases = [(h_perp(a, s), True, 0.0, a, s) for s in (-1, 1) for a in verify._ALPHAS]
        cases += [(h_as(a, s), False, 0.0, a, s) for s in (-1, 1) for a in verify._ALPHAS]
        cases += [(schwinger_operator(p, a, s), True, p, a, s) for s, d in zip((-1, 1), draws) for p, a in d.tolist()]
        for op, with_hs, phi, alpha, sign in cases:
            w1, w2, w3 = family_weights(phi, alpha, sign)
            ref = w1 * h1 + w2 * h2 + w3 * h3
            if with_hs:
                ref = hs + ref
            (matrix,) = level_matrix([op], order)
            bound = 1e-15 * max(1.0, np.abs(ref).max())
            assert np.abs(matrix - ref).max() <= bound, (phi, alpha, sign)

    def test_empty_terms_and_empty_stack(self):
        assert level_matrix([], 3).shape == (0, 4, 4, 4)
        assert not level_matrix([PolyDiffOperator()], 2).any()

    def test_result_is_a_fresh_array(self):
        first = level_matrix([H1], 4)
        ref = first.copy()
        first[...] = 7.0
        again = level_matrix([H1], 4)
        assert again is not first
        assert np.array_equal(again, ref)


class TestSpinAxis:
    def test_north_pole(self):
        assert spin_axis(0.7, math.pi / 4) == pytest.approx([0.0, 0.0, 1.0], abs=1e-15)

    def test_equatorial_reference(self):
        assert spin_axis(0.0, 0.0) == pytest.approx([1.0, 0.0, 0.0], abs=1e-15)

    def test_unit_length(self):
        for _ in range(100):
            phi, alpha = rng.uniform(-2, 2, size=2)
            assert np.linalg.norm(spin_axis(float(phi), float(alpha))) == pytest.approx(
                1.0, abs=1e-14
            )


def term_bits(op):
    """Keys in order, each with the bits of its coefficient's parts: equal lists are equal term maps, bit for bit."""
    return [(key, c.real.hex(), c.imag.hex()) for key, c in op.terms.items()]


class TestSharedConstants:
    NAMES = ("HS", "H1", "H2", "H3", "CASIMIR", "R2", "IDENTITY")

    def test_callers_leave_the_constants_unchanged(self):
        # every caller shares one object per constant, so none may change it
        from als import observables, operators, verify

        before = {name: term_bits(getattr(operators, name)) for name in self.NAMES}
        verify.run(max_order=4)
        observables.sweep(5, 3, [0.1, 0.7], -1)
        level_matrix([getattr(operators, name) for name in self.NAMES], 3)
        for name in self.NAMES:
            assert term_bits(getattr(operators, name)) == before[name], name


class TestSchwingerApply:
    def test_reduces_to_unrotated_family(self):
        # the family has one formula: at phi = 0 both forms of Hperp are the
        # rotated Hamiltonian's term map, key order and bits included
        for alpha in np.random.default_rng(2718).uniform(0.0, math.pi / 2, size=200).tolist():
            for sign in (-1, 1):
                ref = term_bits(schwinger_operator(0.0, alpha, sign))
                assert term_bits(h_perp(alpha, sign)) == ref
                assert term_bits(HS + h_as(alpha, sign)) == ref

    def test_rotated_modes_are_eigenstates(self):
        for _ in range(4):
            phi = float(rng.uniform(0, 2 * math.pi))
            alpha = float(rng.uniform(0, math.pi / 2))
            for n, m in [(2, 0), (1, 1), (3, 1)]:
                s = schwinger_state(n, m, alpha, phi)
                n_r, l = min(n, m), n - m
                lam = 2 * n_r + abs(l) + l + 1  # electron branch
                out = apply(schwinger_operator(phi, alpha, -1), s)
                r = out - complex(lam) * s
                res = math.sqrt(max(inner_product(r, r).real, 0.0))
                assert res <= 1e-9

    def test_axis_projection_eigenvalue(self):
        # n . L on a rotated mode returns m_l = l / 2
        for _ in range(4):
            phi = float(rng.uniform(0, 2 * math.pi))
            alpha = float(rng.uniform(0, math.pi / 2))
            for n, m in [(3, 0), (2, 1), (1, 3)]:
                s = schwinger_state(n, m, alpha, phi)
                axis = spin_axis(phi, alpha)
                proj = (
                    float(axis[0]) * (0.5 * H1)
                    + float(axis[1]) * (0.5 * H2)
                    + float(axis[2]) * (0.5 * H3)
                )
                m_l = 0.5 * (n - m)
                assert eigen_residual(s, proj, m_l) <= 1e-10
