"""State/operator algebra kernels: moments, products, composition, grids."""

import math

import numpy as np
import pytest

from als.gstate import (
    GaussianPolyState,
    PolyDiffOperator,
    _moment_1d,
    apply,
    compose,
    density_grid,
    gram,
    inner_product,
    op_commutator,
)
from als.modes import ORDER_CAP, hlg_state, schwinger_state
from als.observables import R2_OP
from als.operators import h1, h2, h3, h_perp, hs
from oracles import term_map_value

rng = np.random.default_rng(202)

GROUND = GaussianPolyState({(0, 0): 1.0})
DX = PolyDiffOperator({(0, 0, 1, 0): 1.0})
X_OP = PolyDiffOperator({(1, 0, 0, 0): 1.0})


def random_state(n_terms=6, max_pow=5):
    terms = {}
    for _ in range(n_terms):
        key = (int(rng.integers(0, max_pow)), int(rng.integers(0, max_pow)))
        terms[key] = complex(rng.normal(), rng.normal())
    return GaussianPolyState(terms)


def random_operator(n_terms=3, max_pow=2):
    terms = {}
    for _ in range(n_terms):
        key = tuple(int(v) for v in rng.integers(0, max_pow + 1, size=4))
        terms[key] = complex(rng.normal(), rng.normal())
    return PolyDiffOperator(terms)


def term_map_diff(a, b):
    keys = set(a.terms) | set(b.terms)
    return max((abs(a.terms.get(k, 0j) - b.terms.get(k, 0j)) for k in keys), default=0.0)


def moment(p, q):
    """integral x^p y^q exp(-2x^2 - 2y^2) dx dy: the inner product of x^p with y^q."""
    return inner_product(GaussianPolyState({(p, 0): 1.0}), GaussianPolyState({(0, q): 1.0}))


class TestMoments:
    def test_odd_moments_vanish(self):
        for p, q in [(1, 0), (0, 3), (3, 2), (2, 5)]:
            assert moment(p, q) == 0.0

    def test_zeroth_moment(self):
        assert moment(0, 0) == pytest.approx(math.pi / 2, abs=1e-15)

    def test_second_moment(self):
        # Gamma oracle: int u^2 e^{-2u^2} du = (1/4) sqrt(pi/2)
        oracle = 0.25 * math.sqrt(math.pi / 2) * math.sqrt(math.pi / 2)
        assert moment(2, 0) == pytest.approx(oracle, abs=1e-16)
        assert moment(2, 0) == pytest.approx(math.pi / 8, abs=1e-16)

    def test_against_gamma_oracle(self):
        def one_d(k):
            if k % 2:
                return 0.0
            return math.gamma((k + 1) / 2) / (2.0 ** ((k + 1) / 2))

        for p in range(0, 12, 2):
            for q in range(0, 12, 2):
                assert moment(p, q) == pytest.approx(
                    one_d(p) * one_d(q), rel=1e-13
                )


class TestInnerProduct:
    def test_ground_norm(self):
        # the bare envelope: norm^2 = pi/2
        assert inner_product(GROUND, GROUND).real == pytest.approx(math.pi / 2, rel=1e-14)

    def test_parity_orthogonality(self):
        a = hlg_state(1, 0, 0.0)
        b = hlg_state(0, 1, 0.0)
        assert abs(inner_product(a, b)) <= 1e-15

    def test_against_gauss_hermite_quadrature(self):
        nodes, weights = np.polynomial.hermite.hermgauss(64)
        # substitute u = sqrt(2) x so the weight matches exp(-2x^2)
        xs = nodes / math.sqrt(2)
        for _ in range(5):
            a, b = random_state(), random_state()
            exact = inner_product(a, b)
            pa = np.zeros((64, 64), dtype=complex)
            pb = np.zeros((64, 64), dtype=complex)
            X, Y = np.meshgrid(xs, xs)
            for (p, q), c in a.terms.items():
                pa += c * X**p * Y**q
            for (p, q), c in b.terms.items():
                pb += c * X**p * Y**q
            W = np.outer(weights, weights) / 2.0
            quad = complex(np.sum(W * np.conj(pa) * pb))
            assert abs(exact - quad) <= 1e-10 * max(1.0, abs(exact))

    def test_positive_definite(self):
        for _ in range(10):
            s = random_state()
            val = inner_product(s, s)
            assert abs(val.imag) <= 1e-14 * abs(val)
            assert val.real >= 0.0

    def test_conjugate_linearity_first_slot(self):
        a, b = random_state(), random_state()
        z = 0.7 - 1.3j
        lhs = inner_product(z * a, b)
        rhs = z.conjugate() * inner_product(a, b)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def loop_inner_product(a, b):
    """The plain double loop over term pairs: the oracle for inner_product."""
    total = 0j
    for (p, q), ca in a.terms.items():
        cc = ca.conjugate()
        for (r, s), cb in b.terms.items():
            if (p + r) % 2 or (q + s) % 2:
                continue
            total += cc * cb * _moment_1d(p + r) * _moment_1d(q + s)
    return total


class TestInnerProductOracle:
    """The array kernel gives the double loop's result bit for bit."""

    def test_random_mixed_parity_states(self):
        for n_terms, max_pow in [(1, 3), (6, 5), (20, 9), (40, 12)]:
            for _ in range(5):
                a = random_state(n_terms, max_pow)
                b = random_state(n_terms, max_pow)
                assert inner_product(a, b) == loop_inner_product(a, b)
                assert inner_product(a, a) == loop_inner_product(a, a)

    def test_empty_state(self):
        empty = GaussianPolyState({})
        s = random_state()
        for a, b in [(empty, s), (s, empty), (empty, empty)]:
            assert inner_product(a, b) == loop_inner_product(a, b) == 0j

    def test_mode_against_its_hamiltonian_image(self):
        s = hlg_state(9, 1, 0.3)
        hps = apply(h_perp(0.3), s)
        assert inner_product(s, hps) == loop_inner_product(s, hps)
        assert inner_product(hps, s) == loop_inner_product(hps, s)
        assert inner_product(hps, hps) == loop_inner_product(hps, hps)


class TestGram:
    """Every Gram entry is ``inner_product`` of its pair, bit for bit."""

    @pytest.mark.parametrize("order", range(ORDER_CAP + 1))
    def test_sweep_products_and_images(self, order):
        # the bras and kets of observables.sweep; at order 0 two images are
        # empty, and an empty bra and ket are added at every order
        products = [(1j**k) * hlg_state(order - k, k, 0.0) for k in range(order + 1)]
        images = [apply(op, q) for op in (h1(), h3(), R2_OP) for q in products]
        bras = [*products, GaussianPolyState()]
        kets = [*products, *images, GaussianPolyState()]
        expected = np.array([[inner_product(a, b) for b in kets] for a in bras])
        assert gram(bras, kets).tobytes() == expected.tobytes()

    def test_empty_sides(self):
        empty = GaussianPolyState()
        s = random_state()
        assert gram([], [s]).shape == (0, 1) and gram([s], []).shape == (1, 0)
        assert gram([s, empty], [empty]).tobytes() == np.zeros((2, 1), complex).tobytes()


class TestApply:
    def test_derivative_of_envelope(self):
        out = apply(DX, GROUND)
        assert out.terms == {(1, 0): pytest.approx(-2.0)}

    def test_isotropic_oscillator_ground_level(self):
        out = apply(hs(), GROUND)
        assert term_map_diff(out, 1.0 * GROUND) <= 1e-15

    def test_angular_momentum_on_twisted_state(self):
        # l = 2 twisted state is an eigenstate of H3 with eigenvalue 2
        lg = hlg_state(2, 0, math.pi / 4)
        out = apply(h3(), lg)
        assert term_map_diff(out, 2.0 * lg) <= 1e-14

    def test_linearity(self):
        D = random_operator()
        a, b = random_state(), random_state()
        za, zb = 1.3 - 0.2j, -0.8 + 2.1j
        lhs = apply(D, za * a + zb * b)
        rhs = za * apply(D, a) + zb * apply(D, b)
        assert term_map_diff(lhs, rhs) <= 1e-12

    def test_hermiticity_of_hamiltonians(self):
        ops = [hs(), h1(), h2(), h3()]
        for _ in range(5):
            a, b = random_state(), random_state()
            for D in ops:
                lhs = inner_product(a, apply(D, b))
                rhs = inner_product(b, apply(D, a)).conjugate()
                assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


class TestCompose:
    def test_canonical_commutator(self):
        result = op_commutator(DX, X_OP)
        assert result.terms == {(0, 0, 0, 0): pytest.approx(1.0)}

    def test_fixed_sign_commutator_triple(self):
        a, b, c = h1(), h2(), h3()
        assert (op_commutator(a, c) - (-2j) * b).max_coeff() == 0.0
        assert (op_commutator(c, b) - (-2j) * a).max_coeff() == 0.0
        assert (op_commutator(b, a) - (-2j) * c).max_coeff() == 0.0

    def test_associativity(self):
        for _ in range(5):
            d1, d2, d3 = random_operator(), random_operator(), random_operator()
            lhs = compose(compose(d1, d2), d3)
            rhs = compose(d1, compose(d2, d3))
            diff = lhs - rhs
            scale = max(lhs.max_coeff(), rhs.max_coeff(), 1.0)
            assert diff.max_coeff() <= 1e-12 * scale

    def test_compose_respects_apply(self):
        for _ in range(5):
            d1, d2 = random_operator(), random_operator()
            s = random_state()
            lhs = apply(compose(d1, d2), s)
            rhs = apply(d1, apply(d2, s))
            assert term_map_diff(lhs, rhs) <= 1e-12 * max(
                1.0, max(abs(c) for c in rhs.terms.values()) if rhs.terms else 1.0
            )


class TestLinearCombine:
    def test_identity(self):
        s = random_state()
        out = 1.0 * s + 0.0 * random_state()
        assert term_map_diff(out, s) == 0.0

    def test_cancellation(self):
        s = random_state()
        out = 1.0 * s + (-1.0) * s
        assert out.terms == {}

    def test_circular_combination_matches_twisted_state(self):
        # (h10 + i h01)/sqrt2 over bare Hermite products equals the l=1
        # twisted state, term for term
        c = 2.0 * math.sqrt(2.0) / math.sqrt(math.pi)
        h10 = GaussianPolyState({(1, 0): c})
        h01 = GaussianPolyState({(0, 1): c})
        combo = (1 / math.sqrt(2)) * h10 + (1j / math.sqrt(2)) * h01
        lg = hlg_state(1, 0, math.pi / 4)
        assert term_map_diff(combo, lg) <= 1e-12


class TestDensityGrid:
    def test_ground_peaks_at_center(self):
        grid = density_grid(GROUND, -4, 4, -4, 4, 51, 51)
        assert np.all(grid >= 0)
        peak = np.unravel_index(np.argmax(grid), grid.shape)
        assert peak == (25, 25)

    def test_riemann_sum_normalization(self):
        s = hlg_state(2, 1, math.pi / 8)
        grid = density_grid(s, -5, 5, -5, 5, 512, 512)
        total = grid.sum() * (10 / 512) ** 2
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_nodal_column_of_odd_mode(self):
        s = hlg_state(1, 0, 0.0)
        grid = density_grid(s, -4, 4, -4, 4, 101, 101)
        assert np.all(grid[:, 50] <= 1e-30)  # center column sits on x = 0
        assert grid[:, 49] == pytest.approx(grid[:, 51], rel=1e-12)

    @pytest.mark.parametrize(
        "s",
        [
            schwinger_state(4, 1, 0.3, 0.7),
            GaussianPolyState({(3, 0): 0.5, (1, 2): -1j, (0, 4): 0.25 + 0.5j}),
        ],
        ids=["rotated", "xy_asymmetric"],
    )
    def test_matches_pointwise_evaluate(self, s):
        # non-square and off-centre, so a swapped axis shows
        grid = density_grid(s, -3, 4, -2, 5, 37, 23)
        assert grid.shape == (23, 37)
        xc = -3 + (7 / 37) * (np.arange(37) + 0.5)
        yc = -2 + (7 / 23) * (np.arange(23) + 0.5)
        ref = np.array([[abs(term_map_value(s, x, y)) ** 2 for x in xc] for y in yc])
        assert np.abs(grid - ref).max() <= 1e-12 * ref.max()

    def test_underflowed_envelope_gives_zeros(self):
        # x^20 overflows at |x| = 1e20 while the Gaussian underflows to 0
        s = GaussianPolyState({(20, 0): 1.0, (0, 20): 1.0})
        grid = density_grid(s, -1e20, 1e20, -1e20, 1e20, 8, 8)
        assert np.all(grid == 0.0)

    def test_degenerate_range_rejected(self):
        with pytest.raises(ValueError):
            density_grid(GROUND, 1, 1, -1, 1, 8, 8)
        with pytest.raises(ValueError):
            density_grid(GROUND, -1, 1, -1, 1, 1, 8)
