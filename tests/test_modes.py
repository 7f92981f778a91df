"""Mode construction against the defining sum, closed forms and rotations."""

import cmath
import math
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import Polynomial

from als import modes
from als.berry import berry_phase, latitude_loop
from als.gstate import density_grid, inner_product
from als.modes import (
    ORDER_CAP,
    ModeIndex,
    beta_to_alpha,
    euler_angles,
    hlg_block,
    hlg_blocks,
    hlg_coefficients,
    hlg_norm_squared,
    hlg_state,
    level_density,
    level_modes,
    level_sums,
    lg_expansion,
    rotate_block,
    schwinger_state,
)
from als.observables import mean_r2
from als.specfun import cell_centres, hermite, hermite_functions, wigner_D
from oracles import folded_sum, jacobi_eval, laguerre, lg_density, quadrature_moments, term_map_value, wigner_d
from oracles import hermite_functions as oracle_hermite_functions


@pytest.fixture
def rng():
    """A generator per test, so its samples do not depend on which tests ran before."""
    return np.random.default_rng(303)


def direct_mode_sum(n, m, alpha, x, y):
    """Literal defining sum, independent of the folded construction.

    Valid away from alpha = 0, pi/2 where the unfolded prefactors have
    removable poles.
    """
    total = 0.0j
    rt2 = math.sqrt(2.0)
    for k in range(n + m + 1):
        pref = (1j**k) * math.cos(alpha) ** (n - k) * math.sin(alpha) ** (m - k)
        pref *= jacobi_eval(k, n - k, m - k, -math.cos(2 * alpha))
        total += pref * Polynomial(hermite(n + m - k))(rt2 * x) * Polynomial(hermite(k))(rt2 * y)
    total *= math.exp(-x * x - y * y)
    return total / math.sqrt(hlg_norm_squared(n, m))


def lg_closed_form(n, m, x, y):
    """Twisted-state closed form: Laguerre radial profile x e^{i l phi}."""
    l = n - m
    n_r = min(n, m)
    r2 = x * x + y * y
    pref = (-1) ** n_r * 2 ** max(n, m) * factorial(n_r)
    pref /= math.sqrt(hlg_norm_squared(n, m))
    radial = r2 ** (abs(l) / 2.0) * laguerre(n_r, abs(l))(2 * r2) * math.exp(-r2)
    return pref * radial * cmath.exp(1j * l * math.atan2(y, x))


def expansion_error(order, b, angles, state):
    """Largest |D[a, b] - <psi_{N-a, a}(alpha=0)|state>| over a, D = wigner_D(N, *angles): column b is psi_{N-b, b}."""
    column = wigner_D(order, *angles)[:, b]
    return max(abs(c - inner_product(hlg_state(order - a, a, 0.0), state)) for a, c in enumerate(column))


class TestModeIndex:
    def test_twisted_to_cartesian(self):
        assert ModeIndex.from_twisted(0, 3) == ModeIndex(3, 0)
        assert ModeIndex.from_twisted(2, 0) == ModeIndex(2, 2)
        assert ModeIndex.from_twisted(1, -2) == ModeIndex(1, 3)

    def test_round_trip(self):
        for n in range(11):
            for m in range(11):
                mode = ModeIndex(n, m)
                assert ModeIndex.from_twisted(mode.n_r, mode.l) == mode

    def test_half_integer_labels(self):
        mode = ModeIndex(3, 0)
        assert (mode.n + mode.m) / 2 == 1.5 and mode.l == 3 and mode.n_r == 0
        # exact label identities across the whole index range
        for n in range(11):
            for m in range(11 - n):
                mode = ModeIndex(n, m)
                j = (mode.n + mode.m) / 2
                assert j == mode.n_r + abs(mode.l) / 2
                assert (2 * j) % 1 == 0

    def test_negative_indices_rejected(self):
        with pytest.raises(ValueError):
            ModeIndex(-1, 0)
        with pytest.raises(ValueError):
            ModeIndex.from_twisted(-1, 2)

    def test_orders_above_the_cap_rejected(self):
        message = rf"mode order n\+m = {ORDER_CAP + 1} exceeds the cap {ORDER_CAP}"
        with pytest.raises(ValueError, match=message):
            ModeIndex(ORDER_CAP + 1, 0)
        with pytest.raises(ValueError, match=message):
            ModeIndex.from_twisted(0, ORDER_CAP + 1)


class TestSymmetryMaps:
    def test_symmetric_point(self):
        assert beta_to_alpha(0.5, -1) == pytest.approx(math.pi / 4, abs=1e-15)

    def test_fully_asymmetric(self):
        assert beta_to_alpha(0.0, -1) == pytest.approx(0.0, abs=1e-15)

    def test_positive_charge_branch(self):
        # cos^2(alpha) = 0.25 on [0, pi/2] -> alpha = pi/3
        assert beta_to_alpha(0.25, +1) == pytest.approx(math.pi / 3, abs=1e-14)
        assert math.cos(math.pi / 3) ** 2 == pytest.approx(0.25, abs=1e-14)

    # beta -> alpha -> beta only: alpha -> beta -> alpha is ill-conditioned
    # where beta -> 1 and d(beta)/d(alpha) vanishes (alpha -> pi/2 for
    # electrons, alpha -> 0 for positrons)
    @settings(deadline=None)
    @given(beta=st.floats(min_value=0.0, max_value=1.0), sign=st.sampled_from((-1, 1)))
    def test_round_trip_both_signs(self, beta, sign):
        a = beta_to_alpha(beta, sign)
        assert 0.0 <= a <= math.pi / 2
        # beta = sin^2(alpha) for electrons, cos^2(alpha) for positrons
        back = math.sin(a) ** 2 if sign < 0 else math.cos(a) ** 2
        assert abs(back - beta) <= 1e-13

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            beta_to_alpha(1.2, -1)
        with pytest.raises(ValueError):
            beta_to_alpha(0.5, 2)


class TestModeConstruction:
    @settings(deadline=None, max_examples=40)
    @given(order=st.integers(0, 8), alpha=st.floats(min_value=0.0, max_value=math.pi / 2))
    def test_mode_family_is_orthonormal(self, order, alpha):
        # the order-N family at one alpha is a unitary image of the
        # Hermite-Gauss basis, so its Gram matrix is the identity
        states = [hlg_state(n, order - n, alpha) for n in range(order + 1)]
        gram = np.array([[inner_product(a, b) for b in states] for a in states])
        assert np.max(np.abs(gram - np.eye(order + 1))) <= 1e-12

    def test_ground_state_alpha_independent(self):
        for alpha in (0.0, 0.3, math.pi / 4, math.pi / 2):
            s = hlg_state(0, 0, alpha)
            assert set(s.terms) == {(0, 0)}
            assert s.terms[(0, 0)] == pytest.approx(math.sqrt(2 / math.pi), abs=1e-15)

    def test_hermite_gauss_limit_phase(self, rng):
        # alpha = 0: normalized Hermite product carrying the (-i)^m phase
        for n, m in [(1, 0), (0, 1), (2, 3), (4, 2)]:
            s = hlg_state(n, m, 0.0)
            rt2 = math.sqrt(2)
            norm = math.sqrt(hlg_norm_squared(n, m))
            for x, y in rng.uniform(-2, 2, size=(10, 2)):
                ref = (-1j) ** m * Polynomial(hermite(n))(rt2 * x) * Polynomial(hermite(m))(rt2 * y)
                ref *= math.exp(-x * x - y * y) / norm
                assert abs(term_map_value(s, x, y) - ref) <= 1e-13

    @pytest.mark.parametrize("n,m", [(1, 0), (2, 1), (3, 2), (0, 4), (3, 3)])
    def test_against_direct_defining_sum(self, n, m, rng):
        for alpha in (math.pi / 4, math.pi / 8, 1.1, 0.2):
            s = hlg_state(n, m, alpha)
            for x, y in rng.uniform(-2, 2, size=(20, 2)):
                assert abs(
                    term_map_value(s, x, y) - direct_mode_sum(n, m, alpha, x, y)
                ) <= 1e-12

    def test_norm_formula(self):
        # hlg_state divides the mode sum by sqrt(hlg_norm_squared)
        for n, m in [(0, 0), (3, 1), (2, 5), (6, 6)]:
            s = hlg_state(n, m, 0.37)
            assert abs(inner_product(s, s) - 1.0) <= 1e-12

    def test_orthonormality(self):
        for alpha in (0.0, math.pi / 8, math.pi / 4, 3 * math.pi / 8):
            states = [
                hlg_state(n, tot - n, alpha)
                for tot in range(9)
                for n in range(tot + 1)
            ]
            for i, a in enumerate(states):
                for b in states[i:]:
                    ref = 1.0 if a is b else 0.0
                    assert abs(inner_product(a, b) - ref) <= 1e-10

    @pytest.mark.parametrize("n,m", [(1, 0), (0, 1), (3, 0), (1, 3), (2, 2), (4, 1)])
    def test_twisted_limit_closed_form(self, n, m, rng):
        # compare pointwise up to one global phase fixed at the first point
        s = hlg_state(n, m, math.pi / 4)
        pts = rng.uniform(-1.5, 1.5, size=(15, 2))
        ratio = None
        for x, y in pts:
            ref = lg_closed_form(n, m, x, y)
            val = term_map_value(s, x, y)
            if ratio is None:
                assert abs(ref) > 1e-8
                ratio = val / ref
                assert abs(abs(ratio) - 1.0) <= 1e-10
            assert abs(val - ratio * ref) <= 1e-10

    def test_order_cap(self):
        with pytest.raises(ValueError):
            hlg_state(ORDER_CAP - 5, 6, 0.3)

    def test_alpha_domain(self):
        with pytest.raises(ValueError):
            hlg_state(1, 0, -0.1)
        with pytest.raises(ValueError):
            hlg_state(1, 0, 2.0)

    def test_relabeling_symmetry(self):
        # psi_{n,m}(alpha + pi/2) = (-1)^n psi_{m,n}(alpha): evaluated via
        # the coefficient sum, this justifies the CLI angle folding
        from als.gstate import GaussianPolyState
        from als.modes import _hermite_scaled, hlg_coefficients

        def any_alpha(n, m, alpha):
            terms = {}
            for k, ck in enumerate(hlg_coefficients(n, m, alpha)):
                for p, cp in enumerate(_hermite_scaled(n + m - k)):
                    for q, cq in enumerate(_hermite_scaled(k)):
                        if cp and cq:
                            terms[(p, q)] = terms.get((p, q), 0j) + ck * cp * cq
            return (1 / math.sqrt(hlg_norm_squared(n, m))) * GaussianPolyState(terms)

        for n, m in [(1, 0), (2, 1), (3, 2)]:
            for alpha in (0.2, 0.9):
                a = any_alpha(n, m, alpha + math.pi / 2)
                b = (-1.0) ** n * any_alpha(m, n, alpha)
                keys = set(a.terms) | set(b.terms)
                diff = max(abs(a.terms.get(k, 0j) - b.terms.get(k, 0j)) for k in keys)
                assert diff <= 1e-13


class TestLevelSums:
    """``level_sums`` and ``hlg_coefficients`` against the paper's finite sum as a loop, bit for bit."""

    ALPHAS = [0.0, -0.0, math.pi / 8, math.pi / 4, math.pi / 2, *np.random.default_rng(31).uniform(0.0, math.pi / 2, 20)]

    def test_equals_the_loop_bit_for_bit(self):
        # whole levels at every angle at once, and one mode at a time through the cache
        for order in range(41):
            got = level_sums(order, self.ALPHAS)
            for i, alpha in enumerate(self.ALPHAS):
                ca, sa = math.cos(alpha), math.sin(alpha)
                ref = np.array([[folded_sum(order - m, m, k, ca, sa) for k in range(order + 1)] for m in range(order + 1)])
                assert np.array_equal(got[i].view(np.uint64), ref.view(np.uint64)), (order, alpha)
                coeffs = np.array([[1j**k * f for k, f in enumerate(row)] for row in ref.tolist()])
                one = np.array([hlg_coefficients(order - m, m, alpha) for m in range(order + 1)])
                assert np.array_equal(one.view(np.uint64), coeffs.view(np.uint64)), (order, alpha)

    def test_cache_keeps_signed_zeros_apart_and_is_bounded(self):
        cache = modes._level_sums_at
        cache.cache_clear()
        hlg_coefficients(2, 1, 0.0)
        hlg_coefficients(1, 2, -0.0)
        assert cache.cache_info().currsize == 2
        for alpha in np.linspace(0.0, 1.0, 2 * cache.cache_info().maxsize):
            hlg_coefficients(2, 1, alpha)
        assert cache.cache_info().currsize == cache.cache_info().maxsize


class TestHlgBlock:
    ALPHA_GRID = np.linspace(0.0, math.pi / 2, 9)

    def test_matches_projection_of_the_term_map(self):
        # oracle: inner products with the normalised Hermite-Gauss products
        # |N-k, k> = i^k hlg_state(N-k, k, 0) on the monomial layer.  From
        # N = 9 the term map's own rounding shows: the projection's norm
        # misses 1 by 9.9e-14 at N = 9 and 3.1e-13 at N = 10.
        for order in range(11):
            tol = 1e-13 if order <= 8 else 5e-13
            products = [1j**k * hlg_state(order - k, k, 0.0) for k in range(order + 1)]
            for n in range(order + 1):
                for alpha in map(float, self.ALPHA_GRID):
                    state = hlg_state(n, order - n, alpha)
                    projected = np.array([inner_product(p, state) for p in products])
                    err = np.abs(projected - hlg_block(n, order - n, alpha)).max()
                    assert err <= tol, (n, order - n, alpha, err)

    def test_unit_norm_and_unitary_laguerre_gauss_basis(self):
        for order in range(ORDER_CAP + 1):
            for n in range(order + 1):
                for alpha in map(float, self.ALPHA_GRID):
                    block = hlg_block(n, order - n, alpha)
                    assert abs(np.linalg.norm(block) - 1.0) <= 1e-13
            basis = np.array([hlg_block(order - k, k, math.pi / 4) for k in range(order + 1)])
            assert np.abs(basis @ basis.conj().T - np.eye(order + 1)).max() <= 1e-13

    def test_level_modes_rows_are_the_hlg_blocks(self):
        # the nine angles of the verify suites, the Laguerre-Gauss angle and
        # random ones, all in one call per order
        alphas = [*map(float, self.ALPHA_GRID), 0.25 * math.pi, *np.random.default_rng(27).uniform(0.0, 0.5 * math.pi, 6)]
        for order in range(ORDER_CAP + 1):
            frames = level_modes(order, alphas)
            assert frames.shape == (len(alphas), order + 1, order + 1)
            for alpha, frame in zip(alphas, frames):
                for k in range(order + 1):
                    assert frame[k].tobytes() == hlg_block(order - k, k, alpha).tobytes(), (order, k, alpha)

    @pytest.mark.parametrize("order, alpha", [(ORDER_CAP + 1, 0.3), (3, -0.1), (3, math.nan)])
    def test_level_modes_reject_what_hlg_block_rejects(self, order, alpha):
        with pytest.raises(ValueError) as expected:
            hlg_block(order, 0, alpha)
        with pytest.raises(ValueError) as got:
            level_modes(order, [0.3, alpha])
        assert str(got.value) == str(expected.value)

    def test_norm_and_mean_r2_by_quadrature(self):
        # position-space oracle: within one level r^2 is (N+1)/2 times the
        # identity, so only an integral over positions checks <r^2>
        for order in range(ORDER_CAP + 1):
            for n in range(order + 1):
                mode = ModeIndex(n, order - n)
                for alpha in map(float, self.ALPHA_GRID):
                    norm, r2 = quadrature_moments(hlg_block(n, order - n, alpha))
                    assert abs(norm - 1.0) <= 1e-13, (n, order - n, alpha, norm)
                    assert abs(r2 - mean_r2(mode.n_r, mode.l)) <= 1e-12, (n, order - n, alpha, r2)

    @pytest.mark.parametrize("order", [8, 14, 20])
    def test_level_vector_is_a_wigner_d_column(self, order):
        # the SU(2) statement of the mode family, against the factorial-sum
        # oracle in mpmath: entry k is i^k (-1)^m d^{N/2}_{N/2-k, (n-m)/2}(2 alpha)
        j = order / 2
        for alpha in (0.3, math.pi / 4, 1.2):
            for n in range(order + 1):
                m = order - n
                ref = [1j**k * (-1) ** m * wigner_d(j, j - k, (n - m) / 2, 2 * alpha) for k in range(order + 1)]
                err = np.abs(hlg_block(n, m, alpha) - ref).max()
                assert err <= 5e-14, (n, m, alpha, err)

    def test_matches_the_finite_sum(self):
        # the paper's sum c_k sqrt((N-k)! k! / (n! m!)) against the eigenvector
        # column; the sum itself drifts past 5e-14 from N = 25
        for order in range(21):
            for n in range(order + 1):
                m = order - n
                scale = [
                    math.sqrt(factorial(order - k) * factorial(k) / (factorial(n) * factorial(m)))
                    for k in range(order + 1)
                ]
                for alpha in [*map(float, self.ALPHA_GRID), 0.25 * math.pi]:
                    err = np.abs(np.array(hlg_coefficients(n, m, alpha)) * scale - hlg_block(n, m, alpha)).max()
                    assert err <= 5e-14, (n, m, alpha, err)

    @pytest.mark.parametrize("order", [30, 40])
    def test_wigner_d_columns_above_the_cap(self, monkeypatch, order):
        # the cached Jy eigenvectors stay exact where the finite sum loses digits
        monkeypatch.setattr(modes, "ORDER_CAP", order)
        j = order / 2
        alphas = [0.3, 1.2]
        for m in range(0, order + 1, 7):
            n = order - m
            got = hlg_blocks(n, m, alphas)
            for alpha, vec in zip(alphas, got):
                ref = [1j**k * (-1) ** m * wigner_d(j, j - k, (n - m) / 2, 2 * alpha) for k in range(order + 1)]
                err = np.abs(vec - ref).max()
                assert err <= 5e-14, (n, m, alpha, err)

    def test_many_angles_are_the_one_angle_blocks(self):
        # row i is hlg_block at alpha_i, bit for bit, whatever the other angles
        alphas = [0.0, *np.random.default_rng(313).uniform(0.0, 0.5 * math.pi, 40), 0.5 * math.pi]
        for n, m in [(0, 0), (3, 4), (ORDER_CAP, 0), (7, ORDER_CAP - 7)]:
            rows = hlg_blocks(n, m, alphas)
            assert rows.shape == (len(alphas), n + m + 1)
            for alpha, row in zip(alphas, rows):
                assert row.tobytes() == hlg_block(n, m, float(alpha)).tobytes(), (n, m, alpha)

    @pytest.mark.parametrize("alpha", [-0.1, 2.0, math.nan])
    def test_many_angles_reject_what_hlg_block_rejects(self, alpha):
        with pytest.raises(ValueError) as expected:
            hlg_block(2, 1, alpha)
        with pytest.raises(ValueError) as got:
            hlg_blocks(2, 1, [0.3, alpha, 0.5])
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize("n, m, alpha", [(-1, 0, 0.3), (ORDER_CAP - 5, 6, 0.3), (1, 0, -0.1), (1, 0, 2.0)])
    def test_rejects_what_hlg_state_rejects(self, n, m, alpha):
        with pytest.raises(ValueError) as expected:
            hlg_state(n, m, alpha)
        with pytest.raises(ValueError) as got:
            hlg_block(n, m, alpha)
        assert str(got.value) == str(expected.value)

    def test_berry_phase_rejects_orders_above_the_cap(self):
        with pytest.raises(ValueError) as expected:
            hlg_state(ORDER_CAP + 1, 0, 0.0)
        with pytest.raises(ValueError) as got:
            berry_phase(latitude_loop(math.pi / 8, 50), ORDER_CAP + 1, 0)
        assert str(got.value) == str(expected.value)


class TestBlockDensity:
    ALPHAS = [0.0, math.pi / 8, math.pi / 4, 3 * math.pi / 8, math.pi / 2]

    def test_matches_the_monomial_density_grid(self):
        # bridge to the term-map path; non-square and off-centre, so a
        # swapped axis or a mirrored rotation shows
        x, y = cell_centres(37, -3.0, 4.0), cell_centres(23, -2.0, 5.0)
        for order in range(9):
            for n in range(order + 1):
                for alpha in self.ALPHAS:
                    for phi in (0.0, 0.7, -2.1):
                        got = level_density([rotate_block(hlg_block(n, order - n, alpha), phi)], x, y)
                        ref = density_grid(schwinger_state(n, order - n, alpha, phi), -3, 4, -2, 5, 37, 23)
                        assert got.shape == (23, 37)
                        assert np.abs(got - ref).max() <= 1e-12 * ref.max(), (n, order - n, alpha, phi)
        # two levels, given in either order and with a gap between them,
        # against the summed term map
        a, b = 0.6 - 0.3j, 0.2 + 0.7j
        for first, second in (((1, 0), (0, 2)), ((3, 2), (0, 1)), ((2, 2), (6, 1))):
            for alpha in self.ALPHAS:
                for phi in (0.0, 0.7):
                    levels = [a * rotate_block(hlg_block(*first, alpha), phi), b * rotate_block(hlg_block(*second, alpha), phi)]
                    state = a * schwinger_state(*first, alpha, phi) + b * schwinger_state(*second, alpha, phi)
                    got = level_density(levels, x, y)
                    ref = density_grid(state, -3, 4, -2, 5, 37, 23)
                    assert np.abs(got - ref).max() <= 1e-12 * ref.max(), (first, second, alpha, phi)

    def test_zero_rotation_keeps_the_vector(self):
        vec = hlg_block(3, 2, 0.3)
        assert rotate_block(vec, 0.0) is vec

    def test_rotation_has_period_two_pi(self):
        vec = hlg_block(4, 3, 0.3)
        for phi in (0.7, -2.1):
            turned = rotate_block(vec, phi)
            assert abs(np.linalg.norm(turned) - 1.0) <= 1e-14
            assert np.abs(rotate_block(vec, phi + 2 * math.pi) - turned).max() <= 1e-14
        # a huge angle is reduced first, so its phases stay finite
        assert np.array_equal(rotate_block(vec, 1e300), rotate_block(vec, math.fmod(1e300, 2 * math.pi)))

    def test_rotation_is_the_d_matrix_of_twice_the_angle(self):
        # on the products Lz = 2 Jy, so the turn is d^{N/2}(2 phi), here from
        # the mpmath oracle at an order above the cap
        order, j = 30, 15
        rng = np.random.default_rng(30)
        vec = rng.normal(size=order + 1) + 1j * rng.normal(size=order + 1)
        vec /= np.linalg.norm(vec)
        for phi in (0.7, -2.1):
            d = np.array([[wigner_d(j, j - k, j - c, 2 * phi) for c in range(order + 1)] for k in range(order + 1)])
            err = np.abs(rotate_block(vec, phi) - d @ vec).max()
            assert err <= 1e-14, (phi, err)

    @pytest.mark.parametrize("alpha", [0.3, math.pi / 4])
    @pytest.mark.parametrize("n, m", [(4, 2), (1, 4)])
    def test_unrotated_density_mirrors_bit_for_bit(self, n, m, alpha):
        # x -> -x flips the sign of every term of the real part, and of every
        # term of the imaginary part, so |psi|^2 keeps its bits
        x = cell_centres(1000, -5.0, 5.0)
        grid = level_density([hlg_block(n, m, alpha)], x, x)
        assert np.array_equal(grid, grid[::-1])
        assert np.array_equal(grid, grid[:, ::-1])

    @pytest.mark.parametrize("n, m, alpha, phi", [(4, 1, math.pi / 8, 0.7), (2, 5, 0.3, -2.1)])
    def test_rotated_density_is_inversion_symmetric_bit_for_bit(self, n, m, alpha, phi):
        # (x, y) -> (-x, -y) multiplies every term by the level's parity (-1)^N
        x = cell_centres(1000, -5.0, 5.0)
        grid = level_density([rotate_block(hlg_block(n, m, alpha), phi)], x, x)
        assert np.array_equal(grid.view(np.uint64), grid[::-1, ::-1].view(np.uint64))


    @pytest.mark.parametrize("top", [0, 1, 7, 20])
    def test_skipping_zero_rows_keeps_the_bits(self, top, rng):
        # against the contraction over every row, zero rows included
        x, y = cell_centres(41, -5.0, 5.0), cell_centres(30, -4.0, 6.0)
        cases = [[rotate_block(hlg_block(n, top - n, alpha), phi)] for n in range(top + 1)
                 for alpha in (0.0, math.pi / 4, 0.3) for phi in (0.0, 0.7)]
        cases.append([rng.standard_normal(k + 1) + 1j * rng.standard_normal(k + 1) for k in range(top + 1)])
        cases.append([rng.standard_normal(top + 1)])  # a real vector: every imaginary row is zero
        tx, ty = hermite_functions(top, x)[::-1], hermite_functions(top, y)
        for levels in cases:
            coeffs = np.zeros((top + 1, top + 1), dtype=complex)
            for vec in levels:
                coeffs[top + 1 - len(vec) :, : len(vec)] += np.diag(vec)
            re = np.einsum("rj,ri->ji", np.einsum("rq,qj->rj", coeffs.real, ty), tx)
            im = np.einsum("rj,ri->ji", np.einsum("rq,qj->rj", coeffs.imag, ty), tx)
            assert np.array_equal(level_density(levels, x, y), re * re + im * im)


def lg_psi(vec, x, y):
    """psi(x_i, y_i) = sum_k w_k lg_k(r_i) exp(i lz_k t_i) from ``lg_expansion``, (r_i, t_i) the polar form of (x_i, y_i)."""
    w, lz, lg = lg_expansion(vec, np.hypot(x, y))
    return np.einsum("k,ki,ik->i", w, lg, np.exp(1j * np.outer(np.arctan2(y, x), lz)))


class TestLevelValues:
    """psi of one level vector at points, from its Laguerre-Gauss expansion."""

    @pytest.mark.parametrize("order", [0, 1, 6, 13, 20])
    def test_matches_the_grid_diagonal(self, order, rng):
        # psi at (x_i, x_i) against the grid's cell (i, i); the origin is a
        # cell centre of the odd grid.  To 1e-14 of the grid's maximum: the
        # frame change and the polar form of the points cost a few N eps,
        # where two sums over the same Hermite products agreed to 1e-15
        x = cell_centres(201, -6.0, 6.0)
        for _ in range(5):
            vec = rng.standard_normal(order + 1) + 1j * rng.standard_normal(order + 1)
            vec /= np.linalg.norm(vec)
            grid = level_density([vec], x, x)
            got = np.abs(lg_psi(vec, x, x)) ** 2
            assert np.abs(got - np.diag(grid)).max() <= 1e-14 * grid.max()

    @pytest.mark.parametrize("order", [0, 1, 5, 12, 20])
    def test_inversion_multiplies_by_the_parity_bit_for_bit(self, order, rng):
        # (r, 0) -> (-r, 0) flips the sign of every term of lg when N is odd,
        # so psi(-x, -y) = (-1)^N psi(x, y) on every circle
        r = rng.uniform(0.0, 7.0, 300)
        vec = rng.standard_normal(order + 1) + 1j * rng.standard_normal(order + 1)
        w, lz, lg = lg_expansion(vec, r)
        assert np.array_equal(lg_expansion(vec, -r)[2], (-1) ** order * lg)

    def test_odd_levels_vanish_at_the_origin(self, rng):
        origin = np.zeros(1)
        for order in range(1, ORDER_CAP + 1, 2):
            vec = rng.standard_normal(order + 1) + 1j * rng.standard_normal(order + 1)
            assert not (lg_expansion(vec, origin)[1] == 0).any()
            assert lg_psi(vec, origin, origin)[0] == 0

    def test_a_stack_gives_one_row_of_weights_per_vector(self, rng):
        vecs = rng.standard_normal((4, 8)) + 1j * rng.standard_normal((4, 8))
        w, lz, _ = lg_expansion(vecs, np.zeros(0))
        assert np.array_equal(lz, 7 - 2 * np.arange(8))
        for vec, row in zip(vecs, w):
            assert np.abs(lg_expansion(vec, np.zeros(0))[0] - row).max() <= 1e-15 * np.abs(row).max()


class TestRadialProfile:
    """The angular mean of |psi|^2, sum_k |w_k|^2 |lg_k|^2 from ``lg_expansion``."""

    def test_laguerre_gauss_modes_against_the_closed_form(self):
        r = np.linspace(0.0, 9.0, 301)
        for order in range(ORDER_CAP + 1):
            for n in range(order + 1):
                mode = ModeIndex(n, order - n)
                ref = lg_density(mode.n_r, mode.l, r, np.zeros(1))[0]
                w, lz, lg = lg_expansion(hlg_block(n, order - n, math.pi / 4), r)
                got = np.abs(w) ** 2 @ np.abs(lg) ** 2
                assert np.abs(got - ref).max() <= 1e-13 * ref.max(), (n, order - n)
                assert lz[np.argmax(np.abs(w))] == mode.l

    @pytest.mark.parametrize("order", [0, 3, 8, 15])
    def test_angular_mean_of_any_level_vector(self, order, rng):
        # |psi|^2 on a circle is a trigonometric polynomial of degree <= 2N,
        # so 2N + 1 equally spaced angles give its mean exactly; psi from
        # the oracle's Hermite functions, phi_n(x) = 2^(1/4) h_n(sqrt2 x)
        r = np.linspace(0.0, 7.0, 57)
        theta = 2 * math.pi * np.arange(2 * order + 1) / (2 * order + 1)
        x, y = np.outer(r, np.cos(theta)).ravel(), np.outer(r, np.sin(theta)).ravel()
        hx = 2**0.25 * oracle_hermite_functions(order, math.sqrt(2.0) * x)
        hy = 2**0.25 * oracle_hermite_functions(order, math.sqrt(2.0) * y)
        vectors = [rotate_block(hlg_block(n, order - n, alpha), phi) for n in range(order + 1)
                   for alpha, phi in ((0.0, 0.0), (0.3, 0.7), (math.pi / 2, -2.1))]
        vec = rng.standard_normal(order + 1) + 1j * rng.standard_normal(order + 1)
        vectors.append(vec / np.linalg.norm(vec))
        for vec in vectors:
            psi = np.einsum("k,ki,ki->i", vec, hx[::-1], hy)
            ref = (np.abs(psi) ** 2).reshape(len(r), -1).mean(axis=1)
            w, _, lg = lg_expansion(vec, r)
            assert np.abs(np.abs(w) ** 2 @ np.abs(lg) ** 2 - ref).max() <= 1e-13 * ref.max()


class TestEulerAngles:
    def test_defining_equations(self, rng):
        for _ in range(40):
            phi = float(rng.uniform(-math.pi, 2 * math.pi))
            alpha = float(rng.uniform(0, math.pi / 2))
            A, B, C = euler_angles(phi, alpha)
            assert 0.0 <= B <= math.pi
            w1 = complex(math.cos(phi) * math.cos(alpha), -math.sin(phi) * math.sin(alpha))
            w2 = complex(-math.cos(phi) * math.sin(alpha), math.sin(phi) * math.cos(alpha))
            assert abs(cmath.exp(-1j * (A + C) / 2) * math.cos(B / 2) - w1) <= 1e-12
            assert abs(cmath.exp(1j * (A - C) / 2) * math.sin(B / 2) - w2) <= 1e-12

    def test_unrotated_family_angles(self):
        # phi = 0 collapses to a pure axis-2 rotation: B = 2 alpha with the
        # A, C = +-pi phase pair compensating the sign of the second equation
        for alpha in (0.1, math.pi / 8, 0.6):
            A, B, C = euler_angles(0.0, alpha)
            assert B == pytest.approx(2 * alpha, abs=1e-13)
            assert expansion_error(2, 0, (A, B, C), hlg_state(2, 0, alpha)) <= 1e-12

    def test_pole_gauge_choice(self):
        A, B, C = euler_angles(0.0, math.pi / 4)  # mode-sphere north pole
        assert B == pytest.approx(math.pi / 2, abs=1e-13)
        A, B, C = euler_angles(math.pi / 2, math.pi / 4)
        assert C == 0.0 or abs(B) < math.pi  # branch stays well defined


class TestRotatedStates:
    def test_zero_rotation(self):
        a = schwinger_state(2, 1, 0.4, 0.0)
        b = hlg_state(2, 1, 0.4)
        keys = set(a.terms) | set(b.terms)
        assert max(abs(a.terms.get(k, 0j) - b.terms.get(k, 0j)) for k in keys) <= 1e-14

    def test_half_turn_parity(self):
        for n, m in [(1, 0), (2, 1), (2, 2)]:
            a = schwinger_state(n, m, 0.3, math.pi)
            b = (-1.0) ** (n + m) * hlg_state(n, m, 0.3)
            keys = set(a.terms) | set(b.terms)
            assert max(abs(a.terms.get(k, 0j) - b.terms.get(k, 0j)) for k in keys) <= 1e-12

    def test_norm_preserved(self, rng):
        for _ in range(5):
            phi = float(rng.uniform(0, 2 * math.pi))
            s = schwinger_state(3, 1, 0.7, phi)
            assert inner_product(s, s).real == pytest.approx(1.0, abs=1e-12)


class TestWignerDecomposition:
    def test_identity_rotation(self):
        # j = 3/2: column b = 1 is m = 1/2, and only its own basis state a = 1 contributes
        column = wigner_D(3, 0.0, 0.0, 0.0)[:, 1]
        for a, c in enumerate(column):
            assert abs(c - (1.0 if a == 1 else 0.0)) <= 1e-14

    def test_unitarity(self, rng):
        for tj in range(1, 9):
            A, B, C = rng.uniform(-math.pi, math.pi, size=3)
            totals = (np.abs(wigner_D(tj, float(A), float(B), float(C))) ** 2).sum(axis=0)
            assert totals == pytest.approx(np.ones(tj + 1), abs=1e-12)

    def test_reconstructs_unrotated_modes(self):
        for alpha in (0.15, math.pi / 8, 0.7):
            A, B, C = euler_angles(0.0, alpha)
            assert expansion_error(2, 0, (A, B, C), hlg_state(2, 0, alpha)) <= 1e-10

    def test_reconstructs_rotated_modes_j_one(self, rng):
        for _ in range(4):
            phi = float(rng.uniform(0, 2 * math.pi))
            alpha = float(rng.uniform(0, math.pi / 2))
            A, B, C = euler_angles(phi, alpha)
            for b, (n, m) in enumerate([(2, 0), (1, 1), (0, 2)]):
                ref = schwinger_state(n, m, alpha, phi)
                assert expansion_error(2, b, (A, B, C), ref) <= 1e-10

    def test_reconstruction_all_ranks_to_four(self, rng):
        for tj in range(1, 9):
            phi = float(rng.uniform(0, 2 * math.pi))
            alpha = float(rng.uniform(0, math.pi / 2))
            A, B, C = euler_angles(phi, alpha)
            for b in range(tj + 1):
                ref = schwinger_state(tj - b, b, alpha, phi)
                assert expansion_error(tj, b, (A, B, C), ref) <= 1e-10

    def test_index_validation(self):
        # the basis is indexed by the order N = 2j: j = 3/2 in its place, or a negative order, is refused
        with pytest.raises(ValueError):
            wigner_D(1.5, 0, 0, 0)
        with pytest.raises(ValueError):
            wigner_D(-2, 0, 0, 0)


class TestGeneratorIdentity:
    def test_h2_generates_alpha_shifts(self):
        # H2 psi(alpha) = -i d/dalpha psi(alpha), checked by central difference
        from als.operators import H2
        from als.gstate import apply

        gen = H2
        d = 1e-5
        for n, m, alpha in [(2, 1, 0.3), (3, 0, 0.9), (1, 2, 1.2)]:
            lhs = apply(gen, hlg_state(n, m, alpha))
            fd = (0.5 / d) * (hlg_state(n, m, alpha + d) - hlg_state(n, m, alpha - d))
            rhs = -1j * fd
            keys = set(lhs.terms) | set(rhs.terms)
            diff = max(abs(lhs.terms.get(k, 0j) - rhs.terms.get(k, 0j)) for k in keys)
            assert diff <= 1e-6
