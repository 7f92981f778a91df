"""Polynomial and rotation-matrix kernels, and the test oracles, against independent references."""

import cmath
import math
from math import comb, factorial

import numpy as np
import pytest
from numpy.polynomial import Polynomial

from als import specfun
from als.specfun import cell_centres, hermite, hermite_functions, wigner_d_columns, wigner_D
from oracles import jacobi_eval, laguerre, lg_density, wigner_d

rng = np.random.default_rng(101)


def hermite_value_recurrence(n, x):
    """Independent evaluation through the value recurrence."""
    if n == 0:
        return 1.0
    prev, cur = 1.0, 2.0 * x
    for k in range(1, n):
        prev, cur = cur, 2.0 * x * cur - 2.0 * k * prev
    return cur


def laguerre_series(n, k, x):
    """Series-sum oracle: sum_i (-1)^i C(n+k, n-i) x^i / i!."""
    return sum((-1) ** i * comb(n + k, n - i) * x**i / factorial(i) for i in range(n + 1))


class TestHermite:
    def test_base_cases(self):
        assert hermite(0) == (1.0,)
        assert Polynomial(hermite(1))(2.0) == 4.0

    def test_h3_fixed_value(self):
        # recurrence oracle: H_3 = 8x^3 - 12x at x = 0.5 -> -5
        assert Polynomial(hermite(3))(0.5) == pytest.approx(-5.0, abs=1e-14)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            hermite(-1)

    @pytest.mark.parametrize("n", range(21))
    def test_against_value_recurrence(self, n):
        coeffs = hermite(n)
        for x in rng.uniform(-5, 5, size=8):
            a = Polynomial(coeffs)(x)
            b = hermite_value_recurrence(n, x)
            # both routes round relative to the largest monomial term
            scale = sum(abs(c) * abs(x) ** p for p, c in enumerate(coeffs))
            assert abs(a - b) <= 1e-12 * max(1.0, scale)

    def test_orthogonality_by_quadrature(self):
        nodes, weights = np.polynomial.hermite.hermgauss(64)
        for i in range(13):
            hi = Polynomial(hermite(i))(nodes)
            norm_i = math.sqrt(math.sqrt(math.pi) * 2.0**i * factorial(i))
            for j in range(i, 13):
                hj = Polynomial(hermite(j))(nodes)
                norm_j = math.sqrt(math.sqrt(math.pi) * 2.0**j * factorial(j))
                overlap = float(np.dot(weights, hi * hj)) / (norm_i * norm_j)
                assert abs(overlap - (1.0 if i == j else 0.0)) <= 1e-9


class TestHermiteFunctions:
    def test_against_hermite_polynomials(self):
        # phi_n(x) = H_n(sqrt2 x) exp(-x^2) / sqrt(2^n n! sqrt(pi/2))
        x = np.linspace(-4.0, 4.0, 41)
        table = hermite_functions(20, x)
        u = math.sqrt(2.0) * x
        for n in range(21):
            norm = math.sqrt(2.0**n * factorial(n) * math.sqrt(math.pi / 2)) * np.exp(x * x)
            ref = Polynomial(hermite(n))(u) / norm
            # the monomial sum rounds relative to its largest term
            scale = sum(abs(c) * np.abs(u) ** p for p, c in enumerate(hermite(n))) / norm
            assert np.all(np.abs(table[n] - ref) <= 1e-14 * np.maximum(1.0, scale)), n

    def test_orthonormal_by_quadrature(self):
        # phi_m phi_n = exp(-2x^2) x polynomial of degree <= 40: exact with 21 nodes of exp(-t^2), t = sqrt2 x
        t, w = np.polynomial.hermite.hermgauss(21)
        table = hermite_functions(20, t / math.sqrt(2.0)) * np.sqrt(w * np.exp(t * t) / math.sqrt(2.0))
        assert np.abs(table @ table.T - np.eye(21)).max() <= 1e-13

    def test_parity_is_exact(self):
        x = cell_centres(101, -7.0, 7.0)
        table = hermite_functions(20, x)
        for n in range(21):
            assert np.array_equal(table[n][::-1], (-1) ** n * table[n])

    def test_far_points_underflow_to_zero(self):
        # x^2 is finite; (sqrt2 x)^2 and x^20 are not
        x = np.array([-1.3e154, -1e20, 1e20, 1.3e154])
        with np.errstate(over="raise", invalid="raise"):
            table = hermite_functions(20, x)
        assert not table.any()


class TestCellCentres:
    @pytest.mark.parametrize("n", [64, 256, 512, 1024])
    def test_same_bits_as_counting_from_the_edge(self, n):
        assert np.array_equal(cell_centres(n, -5.0, 5.0), -5.0 + (10.0 / n) * (np.arange(n) + 0.5))

    @pytest.mark.parametrize("n, extent", [(1000, 5.0), (511, 5.0), (500, 4.3), (2, 1.0), (3, 1e154)])
    def test_mirror_exactly(self, n, extent):
        x = cell_centres(n, -extent, extent)
        assert np.array_equal(x[::-1], -x)
        assert np.all(np.diff(x) > 0)
        if n % 2:
            assert x[n // 2] == 0.0

    def test_off_centre_range(self):
        x = cell_centres(37, -3.0, 4.0)
        assert np.abs(x - (-3.0 + (7.0 / 37) * (np.arange(37) + 0.5))).max() <= 1e-15


class TestLaguerre:
    def test_degree_zero(self):
        assert laguerre(0, 3).coef.tolist() == [1.0]

    def test_l1_root(self):
        assert laguerre(1, 0)(1.0) == pytest.approx(0.0, abs=1e-15)

    def test_l2_1_at_two(self):
        # series oracle: L_2^1(x) = 3 - 3x + x^2/2, so L_2^1(2) = -1
        assert laguerre_series(2, 1, 2.0) == pytest.approx(-1.0, abs=1e-14)
        assert laguerre(2, 1)(2.0) == pytest.approx(-1.0, abs=1e-13)

    @pytest.mark.parametrize("n", range(13))
    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_against_series(self, n, k):
        for x in rng.uniform(0, 5, size=6):
            a = laguerre(n, k)(x)
            b = laguerre_series(n, k, x)
            scale = sum(
                comb(n + k, n - i) * x**i / factorial(i) for i in range(n + 1)
            )
            assert abs(a - b) <= 1e-12 * max(1.0, scale)

    def test_orthogonality_by_quadrature(self):
        # weight x^k e^-x on [0, inf); 64-point Gauss-Laguerre is exact here
        k = 2
        nodes, weights = np.polynomial.laguerre.laggauss(64)
        for i in range(11):
            li = laguerre(i, k)(nodes)
            norm_i = math.sqrt(factorial(i + k) / factorial(i))
            for j in range(i, 11):
                lj = laguerre(j, k)(nodes)
                norm_j = math.sqrt(factorial(j + k) / factorial(j))
                overlap = float(np.dot(weights, nodes**k * li * lj)) / (norm_i * norm_j)
                assert abs(overlap - (1.0 if i == j else 0.0)) <= 1e-9

    @pytest.mark.parametrize("n_r, l", [(0, 3), (2, -1), (5, 8), (10, 0)])
    def test_lg_density_value_recurrence(self, n_r, l):
        # near the origin Horner's scheme on the coefficients does not cancel
        x = np.linspace(-0.6, 0.6, 7)
        u = 2.0 * (x[None, :] ** 2 + x[:, None] ** 2)
        k = abs(l)
        ref = 2.0 * factorial(n_r) / (math.pi * factorial(n_r + k)) * u**k * laguerre(n_r, k)(u) ** 2 * np.exp(-u)
        assert np.abs(lg_density(n_r, l, x, x) - ref).max() <= 1e-13 * max(ref.max(), 1e-300)
        # unit norm: the cell sum of a smooth, fast-decaying density is spectrally exact
        x = np.linspace(-9.0, 9.0, 241)
        assert abs(lg_density(n_r, l, x, x).sum() * (x[1] - x[0]) ** 2 - 1.0) <= 1e-12

    def test_negative_indices_rejected(self):
        with pytest.raises(ValueError):
            laguerre(-1, 0)
        with pytest.raises(ValueError):
            laguerre(2, -1)


class TestJacobi:
    def test_degree_zero(self):
        for a, b, x in [(0, 0, 0.3), (2, 5, -0.9), (3, 1, 2.0)]:
            assert jacobi_eval(0, a, b, x) == 1.0
        for a, b, x in [(-2, 5, -0.9), (3, -1, 2.0)]:
            assert jacobi_eval(2, a, b, x) is not None  # negative params valid down to -k

    def test_linear_closed_form(self):
        # P_1^(a,b)(x) = (a - b)/2 + (a + b + 2) x / 2
        assert jacobi_eval(1, 2, 1, 0.0) == pytest.approx(0.5, abs=1e-15)
        for _ in range(20):
            a, b = rng.integers(-1, 6, size=2)
            x = rng.uniform(-2, 2)
            ref = 0.5 * (a - b) + 0.5 * (a + b + 2) * x
            assert jacobi_eval(1, int(a), int(b), x) == pytest.approx(ref, abs=1e-12)

    def test_reflection_symmetry(self):
        for _ in range(50):
            k = int(rng.integers(0, 9))
            a = int(rng.integers(-k, 6))
            b = int(rng.integers(-k, 6))
            x = float(rng.uniform(-1.5, 1.5))
            lhs = jacobi_eval(k, a, b, -x)
            rhs = (-1) ** k * jacobi_eval(k, b, a, x)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))

    def test_endpoint_values(self):
        # P_k^(a,b)(1) = C(k+a, k), P_k^(a,b)(-1) = (-1)^k C(k+b, k)
        for _ in range(30):
            k = int(rng.integers(0, 9))
            a = int(rng.integers(-k, 6))
            b = int(rng.integers(-k, 6))
            assert jacobi_eval(k, a, b, 1.0) == pytest.approx(comb(k + a, k), abs=1e-10)
            assert jacobi_eval(k, a, b, -1.0) == pytest.approx(
                (-1) ** k * comb(k + b, k), abs=1e-10
            )

    def test_parameters_below_minus_k_rejected(self):
        with pytest.raises(ValueError):
            jacobi_eval(2, -3, 0, 0.5)


def oracle_d(order, beta, step=1):
    """The factorial-sum d^{N/2}(beta) at [a, b], m' = N/2 - a and m = N/2 - b, every step-th a and b."""
    j = order / 2
    ks = range(0, order + 1, step)
    return np.array([[wigner_d(j, j - a, j - b, beta) for b in ks] for a in ks])


class TestWignerD:
    """The whole D-matrix: entry [a, b] is D^{N/2}_{N/2-a, N/2-b}(A, B, C)."""

    def test_identity_rotation(self):
        for tj in (1, 2, 3, 4):
            assert np.abs(wigner_D(tj, 0.0, 0.0, 0.0) - np.eye(tj + 1)).max() <= 1e-14

    def test_spin_half_diagonal(self):
        for B in rng.uniform(-math.pi, math.pi, size=10):
            assert wigner_D(1, 0.0, B, 0.0)[0, 0] == pytest.approx(math.cos(B / 2), abs=1e-14)

    def test_spin_one_closed_form(self):
        # standard d^1 matrix; m' = 1 - a, m = 1 - b
        B = 0.7345
        c, s = math.cos(B), math.sin(B)
        table = {
            (1, 1): (1 + c) / 2, (1, 0): -s / math.sqrt(2), (1, -1): (1 - c) / 2,
            (0, 1): s / math.sqrt(2), (0, 0): c, (0, -1): -s / math.sqrt(2),
            (-1, 1): (1 - c) / 2, (-1, 0): s / math.sqrt(2), (-1, -1): (1 + c) / 2,
        }
        d = wigner_D(2, 0.0, B, 0.0)
        for (mp, m), ref in table.items():
            assert d[1 - mp, 1 - m] == pytest.approx(ref, abs=1e-14)

    @pytest.mark.parametrize("tj", range(1, 9))
    def test_unitarity(self, tj):
        # every column of D is a unit vector
        B = float(rng.uniform(0, math.pi))
        totals = (np.abs(wigner_D(tj, 0.4, B, -1.1)) ** 2).sum(axis=0)
        assert np.abs(totals - 1.0).max() <= 1e-12

    @pytest.mark.parametrize("tj", range(1, 9))
    def test_transpose_symmetry(self, tj):
        B = float(rng.uniform(0, math.pi))
        assert np.abs(wigner_D(tj, 0.0, -B, 0.0) - wigner_D(tj, 0.0, B, 0.0).T).max() <= 1e-13

    @pytest.mark.parametrize("j", [0.5, 4, 8, 10])
    def test_against_the_factorial_sum_oracle(self, j):
        # beta over [-pi, pi] in steps of pi/8, so -pi, 0 and pi among them
        tj = round(2 * j)
        betas = [*np.linspace(-math.pi, math.pi, 17), 0.7345, -2.9]
        err = max(np.abs(wigner_D(tj, 0.0, B, 0.0) - oracle_d(tj, B)).max() for B in betas)
        assert err <= 5e-14, err

    @pytest.mark.parametrize("j", [15, 20])
    def test_stays_exact_at_high_j(self, j):
        # every 4th m' and m; the paper's finite sum is off by 3.9e-13 at
        # j = 15 and 2.5e-12 at j = 20 on this sample
        betas = (0.3, 1.2, 2.5, -2.9)
        err = max(np.abs(wigner_D(2 * j, 0.0, B, 0.0)[::4, ::4] - oracle_d(2 * j, B, step=4)).max() for B in betas)
        assert err <= 5e-14, err

    @pytest.mark.parametrize("order", [30, 40])
    def test_whole_matrix_with_its_phases(self, order):
        # exp(-i m' A) d_{m',m}(B) exp(-i m C) at every [a, b], A and C drawn
        draws = np.random.default_rng(order)
        j = order / 2
        for _ in range(2):
            A, C = draws.uniform(-math.pi, math.pi, size=2)
            B = float(draws.uniform(0, math.pi))
            d = oracle_d(order, B)
            ref = [[cmath.exp(-1j * (j - a) * A) * d[a, b] * cmath.exp(-1j * (j - b) * C) for b in range(order + 1)]
                   for a in range(order + 1)]
            err = np.abs(wigner_D(order, A, B, C) - np.array(ref)).max()
            assert err <= 5e-14, (A, B, C, err)

    def test_index_range_errors(self):
        # the order N = 2j is the only index: a negative order is refused, and
        # so is a float, which is how j given in its place arrives
        for order in (-1, -2, 1.5, 0.7, 2.0):
            with pytest.raises(ValueError, match="order"):
                wigner_D(order, 0.0, 0.3, 0.0)


class TestWignerDColumns:
    """The one d-matrix kernel: a representation of rotations about y."""

    @staticmethod
    def matrix(order, beta):
        """d^{N/2}(beta) with rows m' = N/2 - k and columns m = N/2 - c."""
        return wigner_d_columns(order, np.arange(order + 1), [beta])[0].T

    @pytest.mark.parametrize("order", range(41))
    def test_angles_add(self, order):
        for b1, b2 in [(0.3, 1.1), (-2.0, 0.7), (2.9, 2.5)]:
            err = np.abs(self.matrix(order, b1) @ self.matrix(order, b2) - self.matrix(order, b1 + b2)).max()
            assert err <= 5e-14, (b1, b2, err)

    @pytest.mark.parametrize("order", range(41))
    def test_inverse_is_the_transpose(self, order):
        for beta in (0.3, 1.2, 2.5, -2.9):
            assert np.abs(self.matrix(order, -beta) - self.matrix(order, beta).T).max() <= 1e-15, beta

    def test_eigenvector_cache_is_bounded(self):
        # wigner_D takes any order, so the cache must not grow with it
        maxsize = specfun._jy_eigenvectors.cache_info().maxsize
        assert maxsize is not None and maxsize >= 41  # the modes up to order 40
        for tj in range(maxsize + 8):
            wigner_D(tj, 0.0, 0.3, 0.0)
        assert specfun._jy_eigenvectors.cache_info().currsize == maxsize
