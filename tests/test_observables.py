"""Closed-form observables against exact expectations."""

import math

import numpy as np
import pytest

from als import operators
from als.gstate import apply, inner_product
from als.modes import ModeIndex, hlg_state
from als.observables import energy, mean_lz, mean_r2, sweep
from als.operators import H3, R2, expectation, h_perp
from oracles import measured_observables

rng = np.random.default_rng(505)


class TestEnergy:
    def test_ground_level(self):
        assert energy(0, 0, -1) == 1.0
        assert energy(0, 0, +1) == 1.0

    def test_substituted_levels(self):
        # 2 n_r + |l| - sign l + 1 with the operator oracle alongside
        assert energy(0, 3, -1) == 7.0
        assert energy(1, 2, +1) == 3.0
        from als.operators import eigen_residual

        s = hlg_state(3, 0, 0.37)
        assert eigen_residual(s, h_perp(0.37, -1), 7.0) <= 1e-10
        s = hlg_state(3, 1, 0.9)  # n_r=1, l=2
        assert eigen_residual(s, h_perp(0.9, +1), 3.0) <= 1e-10

    def test_degeneracy_structure(self):
        # electron branch depends on n only; positron branch on m only
        for total in range(11):
            for n in range(total + 1):
                mode = ModeIndex(n, total - n)
                assert energy(mode.n_r, mode.l, -1) == 2 * mode.n + 1
                assert energy(mode.n_r, mode.l, +1) == 2 * mode.m + 1

    def test_validation(self):
        with pytest.raises(ValueError):
            energy(-1, 0, -1)
        with pytest.raises(ValueError):
            energy(0, 0, 0)


class TestMeanR2:
    def test_ground(self):
        assert mean_r2(0, 0) == 0.5

    def test_formula_vs_exact_moment(self):
        assert mean_r2(2, 2) == pytest.approx(3.5)
        s = hlg_state(4, 2, 0.61)  # n_r=2, l=2
        exact = inner_product(s, apply(R2, s)).real
        assert exact == pytest.approx(3.5, abs=1e-11)

    def test_alpha_independence(self):
        vals = []
        for alpha in (0.0, math.pi / 8, math.pi / 4):
            s = hlg_state(3, 1, alpha)
            vals.append(inner_product(s, apply(R2, s)).real)
        assert max(vals) - min(vals) <= 1e-11
        assert vals[0] == pytest.approx(mean_r2(1, 2), abs=1e-11)


class TestMeanLz:
    def test_fully_asymmetric_point(self):
        for l in (-3, 0, 5):
            assert mean_lz(l, 0.0) == 0.0

    def test_symmetric_point(self):
        assert mean_lz(3, math.pi / 4) == pytest.approx(3.0)

    def test_intermediate_vs_exact(self):
        # l sin(2a) at a = pi/8: 3 sqrt(2)/2
        ref = 3 * math.sqrt(2) / 2
        assert mean_lz(3, math.pi / 8) == pytest.approx(ref, abs=1e-12)
        s = hlg_state(3, 0, math.pi / 8)
        assert expectation(s, H3).real == pytest.approx(ref, abs=1e-11)

    def test_both_index_orderings(self):
        for n, m in [(3, 1), (1, 3)]:
            for alpha in rng.uniform(0, math.pi / 2, size=5):
                s = hlg_state(n, m, float(alpha))
                assert expectation(s, H3).real == pytest.approx(
                    (n - m) * math.sin(2 * float(alpha)), abs=1e-11
                )


class TestSweep:
    ALPHAS = [0.0, math.pi / 8, math.pi / 4, math.pi / 2] + [
        float(a) for a in np.random.default_rng(606).uniform(0, math.pi / 2, size=5)
    ]

    @pytest.mark.parametrize("sign_e", [-1, +1])
    @pytest.mark.parametrize("order", range(9))
    def test_matches_per_state_oracle(self, order, sign_e):
        # The term-map oracle's own energy is off the closed form by up to
        # 2e-12 at order 8, so its energy comparison allows for that noise;
        # test_matches_closed_forms bounds sweep itself at 5e-13.
        tols = (5e-12, 1e-12, 1e-12)
        for n in range(order + 1):
            columns = sweep(n, order - n, self.ALPHAS, sign_e)
            assert [c.shape for c in columns] == [(len(self.ALPHAS),)] * 3
            for a, row in zip(self.ALPHAS, zip(*columns)):
                ref = measured_observables(n, order - n, a, sign_e)
                for got, want, tol in zip(row, ref, tols):
                    assert abs(got - want) <= tol, (n, a, got, want)

    @pytest.mark.parametrize("sign_e", [-1, +1])
    def test_matches_closed_forms(self, sign_e):
        worst = 0.0
        for order in range(9):
            for n in range(order + 1):
                mode = ModeIndex(n, order - n)
                for a, row in zip(self.ALPHAS, zip(*sweep(n, order - n, self.ALPHAS, sign_e))):
                    closed = (
                        energy(mode.n_r, mode.l, sign_e), mean_r2(mode.n_r, mode.l), mean_lz(mode.l, a)
                    )
                    worst = max(worst, *(abs(x - y) for x, y in zip(row, closed)))
        assert worst <= 5e-13, worst

    def test_energy_follows_the_family_weights(self, monkeypatch):
        # the energy reads the family's weights -sign_e n from ``operators``:
        # flipping the axis there is flipping the charge, bit for bit
        alphas = np.linspace(0.0, math.pi / 2, 7)
        positron = sweep(5, 2, alphas, +1)
        axis = operators.spin_axis
        monkeypatch.setattr(operators, "spin_axis", lambda phi, alpha: -axis(phi, alpha))
        for got, want in zip(sweep(5, 2, alphas, -1), positron):
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_validation(self):
        with pytest.raises(ValueError):
            sweep(1, 1, [0.0], 0)
        with pytest.raises(ValueError):
            sweep(1, 1, [2.0], -1)
