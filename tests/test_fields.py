"""Boundary field model: divergence, curl, gauge family and fixing."""

from functools import partial

import numpy as np
import pytest

from als.fields import (
    FD_STEP,
    FieldModel,
    GaugeParams,
    b_field,
    curl,
    delta_eps,
    divergence,
    gauge_fix,
    grad_chi,
    theta_eps,
    transformed_potential,
    vector_potential,
)

rng = np.random.default_rng(606)
EPS = 0.1


def random_points(n, z_range=(-0.3, 0.3)):
    return [
        (float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)), float(rng.uniform(*z_range)))
        for _ in range(n)
    ]


class TestRamp:
    def test_limits(self):
        assert theta_eps(50 * EPS, EPS) == pytest.approx(1.0, abs=1e-15)
        assert theta_eps(-50 * EPS, EPS) == pytest.approx(0.0, abs=1e-15)
        assert theta_eps(0.0, EPS) == pytest.approx(0.5, abs=1e-15)

    def test_delta_is_ramp_derivative(self):
        # d(theta)/dz as the divergence of (0, 0, theta); central difference
        # truncation ~ h^2 / (6 eps^3)
        ramp = lambda x, y, z: (0.0, 0.0, theta_eps(z, EPS))
        for z in rng.uniform(-0.5, 0.5, size=20):
            fd = divergence(ramp, 0.0, 0.0, float(z))
            assert delta_eps(float(z), EPS) == pytest.approx(fd, abs=1e-6)

    def test_no_overflow_far_from_boundary(self):
        assert delta_eps(1e6, 1e-3) == 0.0


class TestBField:
    def test_inside_solenoid(self):
        model = FieldModel(beta=0.3, b0=2.0, eps=EPS)
        assert b_field(model, 0.5, -0.4, 30 * EPS) == pytest.approx([0, 0, 2.0], abs=1e-12)

    def test_free_space(self):
        model = FieldModel(beta=0.3, b0=2.0, eps=EPS)
        assert b_field(model, 0.5, -0.4, -30 * EPS) == pytest.approx([0, 0, 0], abs=1e-12)

    @pytest.mark.parametrize("beta", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_divergence_free(self, beta):
        model = FieldModel(beta=beta, b0=1.0, eps=EPS)
        tol = 1e-6 * model.b0 / model.eps
        for p in random_points(200):
            f = lambda x, y, z: b_field(model, x, y, z)
            assert abs(divergence(f, *p)) <= tol

    def test_symmetric_beta_transverse_pattern(self):
        model = FieldModel(beta=0.5, b0=1.0, eps=EPS)
        for x in rng.uniform(-1, 1, size=10):
            for z in rng.uniform(-0.2, 0.2, size=3):
                bx = b_field(model, float(x), 0.0, float(z))[0]
                by = b_field(model, 0.0, float(x), float(z))[1]
                assert abs(abs(bx) - abs(by)) <= 1e-15

    def test_model_validation(self):
        with pytest.raises(ValueError):
            FieldModel(beta=1.2)
        with pytest.raises(ValueError):
            FieldModel(beta=0.5, eps=0.0)


class TestVectorPotential:
    def test_curl_reproduces_field(self):
        model = FieldModel(beta=0.35, b0=1.0, eps=EPS)
        tol = 1e-6 * model.b0 / model.eps
        for _ in range(3):
            params = GaugeParams(
                a=float(rng.uniform(-1, 1)), b=float(rng.uniform(-1, 1)), c=float(rng.uniform(-1, 1))
            )
            f = lambda x, y, z: vector_potential(params, model, x, y, z)
            for p in random_points(60):
                assert np.max(np.abs(curl(f, *p) - b_field(model, *p))) <= tol

    def test_reduces_to_fixed_form_inside(self):
        # the (0, -beta, 0) member (d = 0) is the transverse Coulomb-gauge potential
        model = FieldModel(beta=0.4, b0=1.5, eps=EPS)
        params = GaugeParams(a=0.0, b=-0.4, c=0.0)
        for x, y, _ in random_points(20):
            z = 30 * EPS
            ref = 1.5 * np.array([-0.4 * y, 0.6 * x, 0.0])
            assert vector_potential(params, model, x, y, z) == pytest.approx(ref, abs=1e-12)

    def test_gauge_equivalence_same_curl(self):
        model = FieldModel(beta=0.2, b0=1.0, eps=EPS)
        p1 = GaugeParams(a=0.3, b=-0.5, c=0.9)
        p2 = GaugeParams(a=-1.1, b=0.4, c=0.0)
        f1 = lambda x, y, z: vector_potential(p1, model, x, y, z)
        f2 = lambda x, y, z: vector_potential(p2, model, x, y, z)
        tol = 1e-6 * model.b0 / model.eps
        for p in random_points(40):
            assert np.max(np.abs(curl(f1, *p) - curl(f2, *p))) <= tol


class TestGaugeFix:
    def test_already_fixed_has_null_chi(self):
        model = FieldModel(beta=0.25, b0=1.0, eps=EPS)
        params = GaugeParams(a=0.0, b=-0.25, c=0.0)
        for p in random_points(20):
            assert np.max(np.abs(grad_chi(params, model, *p))) == 0.0
            assert transformed_potential(params, model, *p) == pytest.approx(
                vector_potential(params, model, *p), abs=1e-15
            )

    def test_transform_cancels_to_fixed_member(self):
        # A + grad(chi) equals the (0, -beta, 0) potential identically
        model = FieldModel(beta=0.35, b0=1.0, eps=EPS)
        for _ in range(3):
            params = GaugeParams(
                a=float(rng.uniform(-1, 1)), b=float(rng.uniform(-1, 1)), c=float(rng.uniform(-1, 1))
            )
            for p in random_points(40, z_range=(-1.0, 1.0)):
                ref = vector_potential(gauge_fix(model), model, *p)
                assert np.max(np.abs(transformed_potential(params, model, *p) - ref)) <= 1e-12

    def test_matches_transverse_potential_inside(self):
        # the tanh ramp tail decays as exp(-2 z / eps); beyond z = 12 eps it
        # is below 1e-9, where the asymptotic transverse form holds
        model = FieldModel(beta=0.35, b0=1.0, eps=EPS)
        params = GaugeParams(a=0.8, b=0.1, c=-0.6)
        for _ in range(30):
            x, y = rng.uniform(-1, 1, size=2)
            z = float(rng.uniform(12 * EPS, 30 * EPS))
            ref = np.array([-0.35 * y, 0.65 * x, 0.0])
            assert np.max(np.abs(transformed_potential(params, model, float(x), float(y), z) - ref)) <= 1e-9

    def test_coulomb_gauge_inside(self):
        model = FieldModel(beta=0.35, b0=1.0, eps=EPS)
        fixed = lambda x, y, z: transformed_potential(GaugeParams(a=0.8, b=0.1, c=-0.6), model, x, y, z)
        for _ in range(30):
            x, y = rng.uniform(-1, 1, size=2)
            z = float(rng.uniform(3 * EPS, 10 * EPS))
            assert abs(divergence(fixed, float(x), float(y), z)) <= 1e-9

    def test_field_invariant_under_quadratic_gauge_motion(self):
        # curl(A + grad chi) = curl A for arbitrary quadratic chi
        model = FieldModel(beta=0.3, b0=1.0, eps=EPS)
        base = GaugeParams(a=0.2, b=-0.1, c=0.5)
        other = GaugeParams(a=1.3, b=base.b, c=-0.7)  # same b, so the same d

        def shifted(x, y, z):
            return vector_potential(base, model, x, y, z) + grad_chi(other, model, x, y, z)

        f0 = lambda x, y, z: vector_potential(base, model, x, y, z)
        tol = 1e-6 * model.b0 / model.eps
        for p in random_points(40):
            assert np.max(np.abs(curl(shifted, *p) - curl(f0, *p))) <= tol


class TestArrayPoints:
    """Every function broadcasts over arrays of points, as per-point calls give."""

    MODEL = FieldModel(beta=0.3, b0=1.5, eps=EPS)
    PARAMS = GaugeParams(a=0.2, b=-0.4, c=0.7)
    FUNCS = {
        "theta_eps": lambda x, y, z: theta_eps(z, EPS),
        "delta_eps": lambda x, y, z: delta_eps(z, EPS),
        "b_field": partial(b_field, MODEL),
        "vector_potential": partial(vector_potential, PARAMS, MODEL),
        "grad_chi": partial(grad_chi, PARAMS, MODEL),
        "transformed_potential": partial(transformed_potential, PARAMS, MODEL),
    }

    def points(self):
        return rng.uniform((-1, -1, -0.5), (1, 1, 0.5), size=(300, 3)).T

    @staticmethod
    def per_point(f, x, y, z):
        # components on the first axis, points on the last
        return np.moveaxis(np.array([f(*map(float, p)) for p in zip(x, y, z)]), 0, -1)

    @pytest.mark.parametrize("name", FUNCS)
    def test_values(self, name):
        f = self.FUNCS[name]
        x, y, z = self.points()
        got = f(x, y, z)
        assert got.shape == (300,) or got.shape == (3, 300)
        np.testing.assert_allclose(got, self.per_point(f, x, y, z), rtol=1e-15, atol=0)

    @pytest.mark.parametrize("name", ["b_field", "vector_potential", "transformed_potential"])
    def test_stencils(self, name):
        # each difference quotient amplifies a relative change of 1e-15 in
        # the values it differences by |f| / FD_STEP
        f = self.FUNCS[name]
        x, y, z = self.points()
        scale = 1e-15 * np.max(np.abs(f(x, y, z))) / FD_STEP
        for stencil in (divergence, curl):
            got = stencil(f, x, y, z)
            ref = self.per_point(lambda *p: stencil(f, *p), x, y, z)
            np.testing.assert_allclose(got, ref, rtol=0, atol=scale)

    def test_grid_of_points_keeps_its_shape(self):
        x, y = np.meshgrid(np.linspace(-1, 1, 4), np.linspace(-1, 1, 5))
        assert b_field(self.MODEL, x, y, 0.1).shape == (3, 5, 4)
        assert curl(self.FUNCS["vector_potential"], x, y, 0.1).shape == (3, 5, 4)
        assert divergence(self.FUNCS["b_field"], x, y, 0.1).shape == (5, 4)
