"""Sphere geometry and the discrete geometric phase."""

import cmath
import math

import numpy as np
import pytest

from als.berry import (
    ResolutionError,
    SpherePath,
    _distinct_rows,
    berry_phase,
    latitude_loop,
    polar_loop,
    solid_angle,
    wrap_phase,
)
from als.gstate import inner_product
from als.modes import hlg_block, rotate_block, schwinger_state
from als.operators import spin_axis

rng = np.random.default_rng(707)

CAP_PI8 = 2 * math.pi * (1 - math.cos(math.pi / 4))  # = 1.84030236902122


class TestSpherePoint:
    def test_north_pole(self):
        for phi in rng.uniform(0, 2 * math.pi, size=5):
            assert spin_axis(float(phi), math.pi / 4) == pytest.approx(
                [0, 0, 1], abs=1e-14
            )

    def test_equatorial_reference(self):
        assert spin_axis(0.0, 0.0) == pytest.approx([1, 0, 0], abs=1e-15)


class TestSpherePathValidation:
    def test_open_endpoints_rejected_for_closed(self):
        with pytest.raises(ValueError):
            SpherePath(((0.0, 0.1), (0.5, 0.1), (1.0, 0.1)))

    def test_seam_closure_accepted(self):
        # (phi, 0) and (phi - pi/2, pi/2) are the same sphere point
        SpherePath(((0.3, 0.0), (0.5, 0.3), (0.3 - 0.5 * math.pi, 0.5 * math.pi)))

    @pytest.mark.parametrize("vertices", [[(0.0, 0.1)], [0.0, 0.1], [(0.0, 0.1, 0.2), (0.0, 0.1, 0.2)]])
    def test_anything_but_two_or_more_pairs_is_rejected(self, vertices):
        with pytest.raises(ValueError, match="at least two"):
            SpherePath(vertices)

    def test_vertices_are_one_read_only_array_of_its_own(self):
        given = np.array([(0.0, 0.1), (0.5, 0.1), (math.pi, 0.1)])
        path = SpherePath(given)
        given[1, 0] = 0.7
        assert path.vertices.shape == (3, 2) and path.vertices.dtype == float
        assert path.vertices[1, 0] == 0.5 and not path.vertices.flags.writeable
        assert np.array_equal(path.reversed().vertices, path.vertices[::-1])


class TestSolidAngle:
    def test_shrinking_triangle_near_pole(self):
        last = math.inf
        for size in (0.3, 0.15, 0.075, 0.0375):
            a0 = math.pi / 4 - size
            tri = SpherePath(
                ((0.0, a0), (math.pi / 3, a0), (2 * math.pi / 3, a0), (0.0, a0))
            )
            val = abs(solid_angle(tri))
            assert val < last
            last = val
        assert last <= 0.01

    def test_latitude_loop_matches_cap_formula(self):
        om = solid_angle(latitude_loop(math.pi / 8, 2000))
        assert om == pytest.approx(CAP_PI8, abs=1e-5)

    def test_equatorial_loop_is_hemisphere(self):
        om = solid_angle(latitude_loop(0.0, 800))
        assert om == pytest.approx(2 * math.pi, abs=1e-10)

    def test_orientation_flips_sign(self):
        fwd = latitude_loop(math.pi / 8, 500)
        assert solid_angle(fwd.reversed()) == pytest.approx(-solid_angle(fwd), abs=1e-12)

    def test_polar_loop_quarter_sphere(self):
        om = solid_angle(polar_loop(0.4, 400))
        assert abs(om) == pytest.approx(math.pi, abs=1e-9)

    def test_matches_per_triangle_sum(self):
        # the edge-by-edge van Oosterom-Strackee sum, bit for bit; on the
        # first two loops a plain row-wise dot product changes the last bit
        pole = np.array([0.0, 0.0, 1.0])
        loops = (latitude_loop(0.17, 7), latitude_loop(0.06, 64),
                 latitude_loop(1.2, 500).reversed(), polar_loop(-0.8, 41))
        for loop in loops:
            pts = loop.points()[:-1]
            total = 0.0
            for v2, v3 in zip(pts, np.roll(pts, -1, axis=0)):
                num = float(np.dot(pole, np.cross(v2, v3)))
                den = 1.0 + float(np.dot(pole, v2)) + float(np.dot(v2, v3)) + float(np.dot(v3, pole))
                total += 2.0 * math.atan2(num, den)
            assert solid_angle(loop) == total

    def test_points_match_sphere_point(self):
        loop = polar_loop(0.4, 30)
        expected = np.array([spin_axis(p, a) for p, a in loop.vertices])
        assert np.array_equal(loop.points(), expected)

    def test_degenerate_path_encloses_nothing(self):
        # fewer than 3 distinct points at 9-digit rounding: no area
        assert solid_angle(SpherePath(((0.0, 0.1), (0.0, 0.1), (0.0, 0.1)))) == 0.0
        assert solid_angle(latitude_loop(math.pi / 4 - 1e-10, 50)) == 0.0

    @pytest.mark.parametrize(
        "vertices, encloses",
        [
            # two distinct points, back and forth
            (((0.0, 0.1), (0.3, 0.1), (0.0, 0.1), (0.3, 0.1), (0.0, 0.1)), False),
            # a third point 1e-12 from the second is the same at 9 digits
            (((0.0, 0.1), (0.3, 0.1), (0.3, 0.1 + 1e-12), (0.0, 0.1)), False),
            # a third point 1e-6 away is not
            (((0.0, 0.1), (0.3, 0.1), (0.3, 0.1 + 1e-6), (0.0, 0.1)), True),
            # three distinct points, each visited twice
            (((0.0, 0.1), (0.3, 0.1), (0.3, 0.4), (0.0, 0.1), (0.3, 0.1), (0.3, 0.4), (0.0, 0.1)), True),
        ],
    )
    def test_three_distinct_points_enclose_area(self, vertices, encloses):
        assert (solid_angle(SpherePath(vertices)) != 0.0) == encloses

    def test_distinct_rows_match_a_set_of_tuples(self):
        # few values, so rows repeat; -0.0 and 0.0 compare equal, as in a set
        draw = np.random.default_rng(11)
        for size in (0, 1, 2, 3, 50):
            rows = draw.choice([-1.0, -0.0, 0.0, 0.5], size=(size, 3))
            assert _distinct_rows(rows) == len(set(map(tuple, rows.tolist())))


class TestBerryPhase:
    def test_zero_for_zero_angular_momentum(self):
        assert abs(berry_phase(latitude_loop(math.pi / 8, 400), 2, 2)) <= 1e-8

    def test_zero_for_pole_pinned_loop(self):
        assert abs(berry_phase(latitude_loop(math.pi / 4, 400), 3, 0)) <= 1e-8

    def test_l3_latitude_loop_value(self):
        # target: -(3/2) * 2 pi (1 - cos(pi/4)) = -2.76045355346183
        phase = berry_phase(latitude_loop(math.pi / 8, 2000), 3, 0)
        assert abs(phase + 1.5 * CAP_PI8) <= 1e-3

    def test_quadratic_convergence_to_cap_value(self):
        errs = []
        for nseg in (250, 500, 1000, 2000):
            phase = berry_phase(latitude_loop(math.pi / 8, nseg), 3, 0)
            errs.append(abs(phase + 1.5 * CAP_PI8))
        assert all(errs[i + 1] < errs[i] for i in range(len(errs) - 1))
        assert errs[0] / errs[-1] >= 16.0  # consistent with 1/N^2 decay

    def test_matches_discrete_solid_angle(self):
        # at equal segment count the product phase tracks -(l/2) Omega tightly
        for nseg in (250, 1000):
            loop = latitude_loop(math.pi / 8, nseg)
            assert berry_phase(loop, 3, 0) == pytest.approx(
                -1.5 * solid_angle(loop), abs=1e-9
            )

    def test_orientation_flip(self):
        fwd = latitude_loop(math.pi / 8, 400)
        assert berry_phase(fwd.reversed(), 3, 0) == pytest.approx(
            -berry_phase(fwd, 3, 0), abs=1e-10
        )

    def test_polar_loop_proportionality(self):
        loop = polar_loop(0.3, 300)
        om = solid_angle(loop)
        assert berry_phase(loop, 1, 0) == pytest.approx(-0.5 * om, abs=1e-6)

    def test_gauge_invariance(self):
        loop = latitude_loop(math.pi / 8, 120)
        verts = loop.vertices[:-1]
        states = [schwinger_state(3, 0, a, p) for p, a in verts]

        def product_phase(ss):
            prod = 1 + 0j
            for k in range(len(ss)):
                prod *= inner_product(ss[k], ss[(k + 1) % len(ss)])
            return -cmath.phase(prod)

        base = product_phase(states)
        phases = [cmath.exp(1j * float(rng.uniform(0, 2 * math.pi))) for _ in states]
        redecorated = [ph * s for ph, s in zip(phases, states)]
        assert abs(product_phase(redecorated) - base) <= 1e-10
        assert abs(base - berry_phase(loop, 3, 0)) <= 1e-12

    def test_polar_loop_matches_per_vertex_states(self):
        # the ascending meridian gives every vertex its own alpha
        loop = polar_loop(0.3, 60)
        verts = loop.vertices[:-1]
        states = [schwinger_state(2, 1, a, p) for p, a in verts]
        prod = 1 + 0j
        for k in range(len(states)):
            prod *= inner_product(states[k], states[(k + 1) % len(states)])
        assert abs(berry_phase(loop, 2, 1) + cmath.phase(prod)) <= 1e-12

    @pytest.mark.parametrize("n, m", [(1, 0), (2, 1), (15, 5), (0, 20)])
    def test_polar_loop_matches_one_block_per_vertex(self, n, m):
        # the vertex states of all alphas in one call, against one hlg_block
        # and one rotation per vertex
        loop = polar_loop(0.3, 300)
        states = np.array([rotate_block(hlg_block(n, m, a), p) for p, a in loop.vertices[:-1]])
        overlaps = np.einsum("ij,ij->i", states.conj(), np.roll(states, -1, axis=0))
        phase = berry_phase(loop, n, m)
        assert abs(wrap_phase(phase + cmath.phase(complex(np.prod(overlaps))))) <= 1e-12
        assert abs(wrap_phase(phase + 0.5 * (n - m) * solid_angle(loop))) <= 1e-6

    @pytest.mark.parametrize("n, m", [(20, 0), (0, 20), (15, 5)])
    def test_order_cap_phase_matches_discrete_solid_angle(self, n, m):
        loop = latitude_loop(math.pi / 8, 2000)
        expected = -0.5 * (n - m) * solid_angle(loop)
        assert abs(wrap_phase(berry_phase(loop, n, m) - expected)) <= 1e-11

    def test_coarse_path_resolution_error(self):
        # three equatorial orientations 2 pi / 3 apart; for n + m = 20 the
        # consecutive overlaps are cos(pi/3)^20 ~ 9.5e-7, below the floor
        path = SpherePath(
            ((0.0, 0.0), (math.pi / 3, 0.0), (2 * math.pi / 3, 0.0), (math.pi, 0.0))
        )
        with pytest.raises(ResolutionError):
            berry_phase(path, 20, 0)
