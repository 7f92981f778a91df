"""Command-line surface: formats, schemas, exit codes, determinism."""

import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

import als
from als import cli as cli_mod
from als.cli import classify_pattern, fold_alpha, main, parse_angle
from als.gstate import inner_product
from als.modes import ORDER_CAP, ModeIndex, hlg_block, hlg_coefficients, hlg_state, level_density, rotate_block
from als.output import fmt
from als.specfun import cell_centres
from als.verify import SUITES
from oracles import hermite_functions, jacobi_eval, lg_density, schema, validate

runner = CliRunner()


def read_grid(path):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline()
    assert header.startswith("# ")
    x_min, x_max, y_min, y_max, nx, ny = header[2:].strip().split(",")
    grid = np.loadtxt(path, delimiter=",", skiprows=1)
    assert grid.shape == (int(ny), int(nx))
    return (float(x_min), float(x_max), float(y_min), float(y_max)), grid


class TestParseAngle:
    def test_plain_float(self):
        assert parse_angle("0.75") == 0.75

    def test_pi_fractions(self):
        assert parse_angle("pi/8") == pytest.approx(math.pi / 8)
        assert parse_angle("3pi/16") == pytest.approx(3 * math.pi / 16)
        assert parse_angle("3*pi/16") == pytest.approx(3 * math.pi / 16)
        assert parse_angle("-pi/4") == pytest.approx(-math.pi / 4)
        assert parse_angle("2pi") == pytest.approx(2 * math.pi)

    def test_rejects_garbage(self):
        import click

        with pytest.raises(click.UsageError):
            parse_angle("three halves")

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "pi/0"])
    def test_rejects_non_finite(self, text):
        import click

        with pytest.raises(click.UsageError):
            parse_angle(text)


class TestFoldAlpha:
    def test_in_range_untouched(self):
        a, n, m, folded = fold_alpha(0.3, 2, 1)
        assert (a, n, m, folded) == (0.3, 2, 1, False)

    def test_period_pi(self):
        a, n, m, folded = fold_alpha(0.3 + math.pi, 2, 1)
        assert a == pytest.approx(0.3) and (n, m) == (2, 1) and folded

    def test_half_period_swaps_mode(self):
        a, n, m, folded = fold_alpha(0.3 + math.pi / 2, 2, 1)
        assert a == pytest.approx(0.3) and (n, m) == (1, 2) and folded

    @settings(deadline=None)
    @given(
        alpha=st.floats(min_value=-4 * math.pi, max_value=4 * math.pi),
        n=st.integers(0, 7),
        m=st.integers(0, 7),
    )
    # an alpha just above pi/2 must be relabeled, not clamped to pi/2:
    # clamping is off by 5e-12 of the largest coefficient
    @example(alpha=math.pi / 2 + 9e-13, n=7, m=7)
    def test_folded_mode_is_the_same_mode(self, alpha, n, m):
        # the relabeling symmetries hold for the defining sum itself, up to
        # a global sign
        a, nn, mm, _ = fold_alpha(alpha, n, m)
        assert 0.0 <= a <= math.pi / 2
        ref = np.array(hlg_coefficients(n, m, alpha))
        got = np.array(hlg_coefficients(nn, mm, a))
        err = min(np.max(np.abs(ref - got)), np.max(np.abs(ref + got)))
        assert err <= 1e-12 * np.max(np.abs(ref))


class TestDensityCommand:
    def test_twisted_ring_output(self, tmp_path):
        out = tmp_path / "ring.csv"
        result = runner.invoke(
            main,
            ["density", "--nr", "0", "--l", "3", "--alpha", "pi/4",
             "--points", "201", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        bounds, grid = read_grid(out)
        assert bounds == (-5.0, 5.0, -5.0, 5.0)
        assert np.all(grid >= 0)
        sidecar = json.loads((tmp_path / "ring.json").read_text())
        validate(sidecar, "density_sidecar")
        assert abs(sidecar["norm_check"] - 1.0) <= 1e-6
        assert sidecar["pattern"]["classification"] == "ring"
        assert sidecar["pattern"]["radial_node_count"] == 0

    def test_folded_alpha_is_recorded(self, tmp_path):
        # alpha = 2 folds to 2 - pi/2 with the Cartesian indices swapped
        out = tmp_path / "folded.csv"
        result = runner.invoke(
            main,
            ["density", "--nr", "1", "--l", "2", "--alpha", "2.0", "--points", "32", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        sidecar = json.loads((tmp_path / "folded.json").read_text())
        validate(sidecar, "density_sidecar")
        assert sidecar["alpha_input"] == 2.0 and sidecar["alpha"] == pytest.approx(2.0 - math.pi / 2)
        assert sidecar["mode_input"] == {"n": 3, "m": 1}
        assert (sidecar["mode"]["n"], sidecar["mode"]["m"]) == (1, 3)

    def test_gaussian_spot(self, tmp_path):
        out = tmp_path / "spot.csv"
        result = runner.invoke(
            main,
            ["density", "--nr", "0", "--l", "0", "--alpha", "0",
             "--points", "101", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        _, grid = read_grid(out)
        peak = np.unravel_index(np.argmax(grid), grid.shape)
        assert peak == (50, 50)

    def test_stripes_vs_ring_classification(self, tmp_path):
        classes = {}
        for tag, alpha in (("hg", "0"), ("lg", "pi/4")):
            out = tmp_path / f"{tag}.csv"
            result = runner.invoke(
                main,
                ["density", "--nr", "0", "--l", "3", "--alpha", alpha,
                 "--points", "201", "--out", str(out)],
            )
            assert result.exit_code == 0, result.output
            classes[tag] = json.loads(
                (tmp_path / f"{tag}.json").read_text()
            )["pattern"]["classification"]
        assert classes == {"hg": "striped", "lg": "ring"}

    def test_beta_flag_with_charge(self, tmp_path):
        out = tmp_path / "b.csv"
        result = runner.invoke(
            main,
            ["density", "--nr", "0", "--l", "1", "--beta", "0.5",
             "--charge", "electron", "--points", "64", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        sidecar = json.loads((tmp_path / "b.json").read_text())
        assert sidecar["alpha"] == pytest.approx(math.pi / 4)

    def test_conflicting_mode_flags(self, tmp_path):
        result = runner.invoke(
            main,
            ["density", "--n", "1", "--m", "0", "--nr", "0", "--l", "1",
             "--alpha", "0", "--out", str(tmp_path / "x.csv")],
        )
        assert result.exit_code == 2

    def test_negative_index_is_usage_error(self, tmp_path):
        result = runner.invoke(
            main,
            ["density", "--n", "-1", "--m", "0", "--alpha", "0",
             "--out", str(tmp_path / "x.csv")],
        )
        assert result.exit_code == 2

    def test_unwritable_path(self):
        result = runner.invoke(
            main,
            ["density", "--nr", "0", "--l", "1", "--alpha", "0", "--points", "32",
             "--out", "/nonexistent-dir/x.csv"],
        )
        assert result.exit_code == 3

    def test_bit_stable_outputs(self, tmp_path):
        args = ["density", "--nr", "1", "--l", "2", "--alpha", "pi/8",
                "--points", "64", "--out"]
        result = runner.invoke(main, args + [str(tmp_path / "a.csv")])
        assert result.exit_code == 0
        result = runner.invoke(main, args + [str(tmp_path / "b.csv")])
        assert result.exit_code == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        a = (tmp_path / "a.csv").read_bytes()
        assert b"\r" not in a  # LF endings only

    def test_rho_h_scales_bounds_and_values(self, tmp_path):
        args = ["density", "--nr", "1", "--l", "2", "--alpha", "pi/8", "--points", "32", "--out"]
        outputs = {}
        for rho in ("1", "2"):
            result = runner.invoke(main, args + [str(tmp_path / f"r{rho}.csv"), "--rho-h", rho])
            assert result.exit_code == 0, result.output
            sidecar = json.loads((tmp_path / f"r{rho}.json").read_text())
            outputs[rho] = read_grid(tmp_path / f"r{rho}.csv") + (sidecar,)
        (b1, g1, s1), (b2, g2, s2) = outputs["1"], outputs["2"]
        assert b2 == tuple(2 * b for b in b1)
        assert [s2["grid"][k] for k in ("x_min", "x_max", "y_min", "y_max")] == list(b2)
        assert np.array_equal(g2, g1 / 4)
        assert s2["norm_check"] == s1["norm_check"]

    @pytest.mark.parametrize(
        "nr, l, alpha, points, note",
        [
            # (5, 8) keeps norm_check 0.999986 inside the default extent 5
            pytest.param(5, 8, "pi/4", 256, "truncated", id="5-8-True"),
            pytest.param(0, 1, "pi/4", 256, None, id="0-1-False"),
            # too few points: the grid sums read 1.284 and 1.00015
            pytest.param(3, 3, "pi/4", 6, "undersampled", id="3-3-undersampled"),
            pytest.param(0, 1, "pi/8", 16, "undersampled", id="0-1-undersampled"),
        ],
    )
    def test_truncation_warning(self, nr, l, alpha, points, note, tmp_path):
        out = tmp_path / "d.csv"
        result = runner.invoke(
            main,
            ["density", "--nr", str(nr), "--l", str(l), "--alpha", alpha,
             "--points", str(points), "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        sidecar = json.loads((tmp_path / "d.json").read_text())
        validate(sidecar, "density_sidecar")
        assert sidecar["truncation_warning"] is (note is not None)
        assert result.output.endswith(")\n" if note is None else f") ({note})\n")

    @pytest.mark.parametrize(
        "nr, l, alpha, points, resolved",
        [
            # an l = 3 ring read as a spot at 6 points; mixed read as spot at 16
            pytest.param(3, 3, "pi/4", 6, "ring", id="3-3"),
            pytest.param(0, 1, "pi/8", 16, "mixed", id="0-1"),
        ],
    )
    def test_undersampled_pattern_is_unresolved(self, nr, l, alpha, points, resolved, tmp_path):
        for n_points, classification in ((points, "unresolved"), (64, resolved)):
            out = tmp_path / f"d{n_points}.csv"
            result = runner.invoke(
                main,
                ["density", "--nr", str(nr), "--l", str(l), "--alpha", alpha,
                 "--points", str(n_points), "--out", str(out)],
            )
            assert result.exit_code == 0, result.output
            sidecar = json.loads((tmp_path / f"d{n_points}.json").read_text())
            validate(sidecar, "density_sidecar")
            assert sidecar["pattern"]["classification"] == classification
            assert f"pattern {classification})" in result.output

    def test_huge_extent_gives_finite_grid(self, tmp_path):
        # x^20 overflows at |x| = 1e20; the Gaussian underflows first
        out = tmp_path / "far.csv"
        result = runner.invoke(
            main,
            ["density", "--nr", "10", "--l", "0", "--alpha", "0",
             "--extent", "1e20", "--points", "8", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        _, grid = read_grid(out)
        assert np.all(np.isfinite(grid))
        sidecar = json.loads((tmp_path / "far.json").read_text())
        assert math.isfinite(sidecar["norm_check"])
        assert sidecar["truncation_warning"] is True

    @pytest.mark.parametrize(
        "nr, l, extent",
        [(5, 8, 5.0), (0, 20, 7.0), (10, 0, 7.0), (5, 10, 7.0), (3, -12, 7.0)],
    )
    def test_laguerre_gauss_closed_form(self, nr, l, extent, tmp_path):
        out = tmp_path / "lg.csv"
        result = runner.invoke(
            main,
            ["density", "--nr", str(nr), f"--l={l}", "--alpha", "pi/4",
             "--extent", str(extent), "--points", "256", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        _, grid = read_grid(out)
        x = cell_centres(256, -extent, extent)
        ref = lg_density(nr, l, x, x)
        assert np.abs(grid - ref).max() <= 1e-13 * ref.max()

    def test_overflowing_sqrt2_extent_is_empty(self, tmp_path):
        # extent^2 is finite, (sqrt2 extent)^2 is not: nothing may overflow
        out = tmp_path / "far.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = runner.invoke(
                main,
                ["density", "--nr", "1", "--l", "2", "--alpha", "0.3",
                 "--extent", "1.3e154", "--points", "64", "--out", str(out)],
            )
        assert result.exit_code == 0, result.output
        sidecar = json.loads((tmp_path / "far.json").read_text())
        assert sidecar["pattern"]["classification"] == "empty"

    def test_all_zero_grid_is_classified_empty(self, tmp_path):
        # every cell center lies where the mode has underflowed
        out = tmp_path / "far.csv"
        result = runner.invoke(
            main,
            ["density", "--nr", "10", "--l", "0", "--alpha", "0",
             "--extent", "1e20", "--points", "8", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        _, grid = read_grid(out)
        assert not grid.any()
        sidecar = json.loads((tmp_path / "far.json").read_text())
        validate(sidecar, "density_sidecar")
        assert sidecar["pattern"] == {
            "classification": "empty",
            "angular_node_count": 0,
            "radial_node_count": 0,
            "center_density": 0.0,
        }

    @pytest.mark.parametrize(
        "args, expected",
        [
            (["--nr", "0", "--l", "3", "--alpha", "0"], ("striped", 2, 0, 0.0)),
            (["--n", "4", "--m", "2", "--alpha", "0"], ("striped", 12, 0, 0.4932986928106345)),
            (["--nr", "0", "--l", "3", "--alpha", "pi/4"], ("ring", 0, 0, 0.0)),
            (["--nr", "2", "--l", "2", "--alpha", "pi/4"], ("ring", 0, 2, 0.0)),
            (["--nr", "5", "--l", "8", "--alpha", "pi/4", "--extent", "7"], ("ring", 0, 5, 0.0)),
            (["--nr", "2", "--l", "0", "--alpha", "pi/4"], ("spot", 0, 2, 1.0311040286723614)),
            (["--nr", "0", "--l", "0", "--alpha", "0"], ("spot", 0, 0, 1.0061221800299995)),
            (["--nr", "1", "--l", "3", "--alpha", "pi/8", "--phi", "0.7"], ("striped", 4, 0, 0.0)),
            (["--nr", "1", "--l", "-2", "--alpha", "1.2", "--points", "333"], ("striped", 2, 0, 0.8690779434706236)),
            (["--nr", "0", "--l", "1", "--alpha", "pi/8", "--points", "64"], ("mixed", 0, 0, 0.0)),
            (["--nr", "3", "--l", "3", "--alpha", "pi/4", "--points", "6"], ("unresolved", 0, 3, 0.0)),
            (["--nr", "10", "--l", "0", "--alpha", "0", "--extent", "1e20", "--points", "8"], ("empty", 0, 0, 0.0)),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, list) else v[0],
    )
    def test_pattern_block(self, args, expected, tmp_path):
        # the whole sidecar pattern, recorded on 128^2 cells unless --points says otherwise;
        # a centre of 0.0 is exact at odd order and rounding noise (below 1e-27) at even l != 0
        points = [] if "--points" in args else ["--points", "128"]
        result = runner.invoke(main, ["density", *args, *points, "--out", str(tmp_path / "d.csv")])
        assert result.exit_code == 0, result.output
        classification, angular, radial, center = expected
        assert json.loads((tmp_path / "d.json").read_text())["pattern"] == {
            "classification": classification,
            "angular_node_count": angular,
            "radial_node_count": radial,
            "center_density": pytest.approx(center, rel=1e-9, abs=1e-24),
        }

    @pytest.mark.parametrize("points, extent", [(64, 5.0), (128, 5.0), (256, 5.0), (512, 7.0)])
    @pytest.mark.parametrize("n, m", [(4, 2), (2, 4)])
    def test_angular_nodes_do_not_depend_on_the_grid(self, n, m, points, extent):
        # HG(4, 2): the peak circle crosses its six nodal lines twice each
        centres = cell_centres(points, -extent, extent)
        vec = hlg_block(n, m, 0.0)
        pattern = classify_pattern(vec, level_density([vec], centres, centres), extent)
        assert (pattern["classification"], pattern["angular_node_count"]) == ("striped", 12)

    @pytest.mark.parametrize("n, m, alpha, phi", [(4, 2, 0.0, 0.0), (5, 8, math.pi / 4, 0.0), (1, 3, math.pi / 8, 0.7), (0, 0, 0.0, 0.0)])
    def test_the_grid_is_read_at_its_brightest_cell_only(self, n, m, alpha, phi):
        centres = cell_centres(128, -5.0, 5.0)
        vec = rotate_block(hlg_block(n, m, alpha), phi)
        grid = level_density([vec], centres, centres)
        peak_at = np.argmax(grid)
        noise = np.random.default_rng(11).uniform(0.0, grid.flat[peak_at], size=grid.shape)
        noise.flat[peak_at] = grid.flat[peak_at]
        assert classify_pattern(vec, noise, 5.0) == classify_pattern(vec, grid, 5.0)

    def test_angular_sampling_resolves_lobes(self, monkeypatch):
        # against six times as many angles: with 1,024 (7, 11) at 0.3 on 128^2
        # reads 8 nodes, and with 2,048 (8, 9) at pi/16 on 512^2 reads 8, not 12
        cases = [(n, 18 - n, alpha, 128, 5.0) for alpha in (0.0, 0.3, math.pi / 8) for n in range(19)]
        cases += [(8, 9, math.pi / 16, 512, 6.0), (9, 8, math.pi / 16, 512, 6.0)]
        grids = []
        for n, m, alpha, points, extent in cases:
            centres = cell_centres(points, -extent, extent)
            vec = hlg_block(n, m, alpha)
            grids.append((vec, level_density([vec], centres, centres), extent))
        blocks = [classify_pattern(*args) for args in grids]
        monkeypatch.setattr(cli_mod, "_ANGLES", 6 * cli_mod._ANGLES)
        assert [classify_pattern(*args) for args in grids] == blocks

    @pytest.mark.parametrize("points, extent", [(128, 5.0), (64, 7.0), (128, 40.0)])
    def test_radial_nodes_read_n_r_for_every_laguerre_gauss_mode(self, points, extent):
        # the expected value is the quantum number itself: n_r rings
        centres = cell_centres(points, -extent, extent)
        misread = []
        for order in range(ORDER_CAP + 1):
            for n in range(order + 1):
                mode = ModeIndex(n, order - n)
                vec = hlg_block(n, order - n, math.pi / 4)
                grid = level_density([vec], centres, centres)
                if classify_pattern(vec, grid, extent)["radial_node_count"] != mode.n_r:
                    misread.append((mode.n_r, mode.l))
        assert not misread

    def test_radial_nodes_far_beyond_the_support(self, tmp_path):
        # the profile is sampled out to sqrt(N + 1) + 4, not to --extent,
        # so a wide grid does not step over the nodes
        out = tmp_path / "d.csv"
        result = runner.invoke(
            main,
            ["density", "--nr", "5", "--l", "8", "--alpha", "pi/4", "--extent", "200",
             "--points", "16", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        assert json.loads((tmp_path / "d.json").read_text())["pattern"]["radial_node_count"] == 5


class TestTableCommand:
    def test_observable_columns(self, tmp_path):
        out = tmp_path / "table.csv"
        result = runner.invoke(
            main,
            ["table", "--nr", "0", "--l", "3", "--alpha-min", "0",
             "--alpha-max", "pi/4", "--steps", "16", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        lines = out.read_text().splitlines()
        header = lines[0].split(",")
        assert header[0] == "alpha_rad"
        rows = [list(map(float, ln.split(","))) for ln in lines[1:]]
        assert len(rows) == 16
        idx = {name: k for k, name in enumerate(header)}
        for row in rows:
            alpha = row[idx["alpha_rad"]]
            assert abs(row[idx["lz_closed_hbar"]] - 3 * math.sin(2 * alpha)) <= 1e-12
            assert abs(row[idx["lz_delta"]]) <= 1e-10
            assert row[idx["energy_closed_omega"]] == 7.0
            assert abs(row[idx["energy_delta"]]) <= 1e-10
            assert row[idx["r2_closed_rhoH2"]] == 2.0
            assert abs(row[idx["r2_delta"]]) <= 1e-10

    def test_order_ten_deltas_stay_at_rounding(self, tmp_path):
        out = tmp_path / "table.csv"
        for charge in ("electron", "positron"):
            result = runner.invoke(
                main, ["table", "--nr", "1", "--l", "8", "--steps", "256", "--charge", charge, "--out", str(out)]
            )
            assert result.exit_code == 0, result.output
            lines = out.read_text().splitlines()
            header = lines[0].split(",")
            deltas = [k for k, name in enumerate(header) if name.endswith("_delta")]
            assert len(deltas) == 3 and len(lines) == 257
            worst = max(abs(float(ln.split(",")[k])) for ln in lines[1:] for k in deltas)
            assert worst <= 5e-12, (charge, worst)
            # the sweep reads Hs as N + 1, not as a Gram matrix
            k = header.index("energy_delta")
            energy = max(abs(float(ln.split(",")[k])) for ln in lines[1:])
            assert energy <= 1.5e-12, (charge, energy)

    def test_energy_and_r2_constant_across_sweep(self, tmp_path):
        out = tmp_path / "table.csv"
        runner.invoke(
            main,
            ["table", "--nr", "1", "--l", "-2", "--steps", "9", "--out", str(out)],
        )
        lines = out.read_text().splitlines()
        header = lines[0].split(",")
        idx = {name: k for k, name in enumerate(header)}
        e_vals = {ln.split(",")[idx["energy_exact_omega"]] for ln in lines[1:]}
        r_vals = set()
        for ln in lines[1:]:
            r_vals.add(round(float(ln.split(",")[idx["r2_exact_rhoH2"]]), 10))
        assert len(r_vals) == 1
        # n_r=1, l=-2, electron: 2 n_r + |l| - sign l + 1 = 2 + 2 - 2 + 1 = 3
        assert all(abs(float(v) - 3.0) < 1e-9 for v in e_vals)

    @pytest.mark.parametrize("charge", ["electron", "positron"])
    def test_order_twenty_energy_delta(self, charge, tmp_path):
        out = tmp_path / "table.csv"
        result = runner.invoke(
            main, ["table", "--nr", "6", "--l", "8", "--steps", "64", "--charge", charge, "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        lines = out.read_text().splitlines()
        k = lines[0].split(",").index("energy_delta")
        worst = max(abs(float(ln.split(",")[k])) for ln in lines[1:])
        assert worst <= 2e-8, (charge, worst)

    def test_omega_and_rho_h_scale_their_columns(self, tmp_path):
        tables = {}
        for tag, units in (("natural", []), ("scaled", ["--omega", "2.5", "--rho-h", "2"])):
            out = tmp_path / f"{tag}.csv"
            result = runner.invoke(
                main, ["table", "--nr", "1", "--l", "2", "--steps", "5", "--out", str(out)] + units
            )
            assert result.exit_code == 0, result.output
            lines = out.read_text().splitlines()
            header = lines[0].split(",")
            tables[tag] = {name: np.array([float(ln.split(",")[k]) for ln in lines[1:]]) for k, name in enumerate(header)}
        natural, scaled = tables["natural"], tables["scaled"]
        for name in natural:
            factor = 2.5 if name.startswith("energy") else 4.0 if name.startswith("r2") else 1.0
            if name.endswith("_delta"):
                assert np.max(np.abs(scaled[name])) <= 1e-10
            else:
                assert np.array_equal(scaled[name], natural[name] * factor), name


class TestVerifyCommand:
    def test_algebra_suite_passes(self, tmp_path):
        out = tmp_path / "report.json"
        result = runner.invoke(
            main, ["verify", "--suites", "algebra", "--max-order", "8", "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        report = json.loads(out.read_text())
        validate(report, "verify_report")
        assert report["summary"]["all_pass"]
        assert report["summary"]["total"] >= 12

    def test_every_suite_passes_at_the_order_cap(self, tmp_path):
        out = tmp_path / "report.json"
        result = runner.invoke(main, ["verify", "--max-order", str(ORDER_CAP), "--out", str(out)])
        assert result.exit_code == 0, result.output
        report = json.loads(out.read_text())
        validate(report, "verify_report")
        assert report["suites"] == list(SUITES) and report["summary"]["all_pass"]

    def test_spectra_suite_passes(self, tmp_path):
        result = runner.invoke(main, ["verify", "--suites", "spectra", "--max-order", "6"])
        assert result.exit_code == 0, result.output

    def test_zero_tolerance_forces_failure(self, tmp_path):
        out = tmp_path / "report.json"
        result = runner.invoke(
            main,
            ["verify", "--suites", "spectra", "--max-order", "3", "--tol", "0",
             "--out", str(out)],
        )
        assert result.exit_code == 1
        report = json.loads(out.read_text())
        validate(report, "verify_report")
        assert not report["summary"]["all_pass"]
        assert report["summary"]["total"] > 0  # complete report still written

    def test_unknown_suite_is_usage_error(self):
        result = runner.invoke(main, ["verify", "--suites", "nonsense"])
        assert result.exit_code == 2

    def test_tol_overrides_every_tolerance(self, tmp_path):
        out = tmp_path / "report.json"
        result = runner.invoke(
            main, ["verify", "--suites", "berry", "--tol", "1e-3", "--out", str(out)]
        )
        assert result.exit_code in (0, 1), result.output
        report = json.loads(out.read_text())
        assert report["tolerance_override"] == 1e-3
        assert report["results"]
        assert all(r["tolerance"] == 1e-3 for r in report["results"])
        # the override also decides pass: the decay ratio (about 1/4) now
        # fails, and the summary counts the rows that pass
        passes = [r["pass"] for r in report["results"]]
        assert passes == [r["residual"] <= 1e-3 for r in report["results"]]
        assert report["summary"]["passed"] == sum(passes) and not all(passes) and any(passes)
        assert result.exit_code == 1

    def test_all_suites_report_serializes(self, tmp_path):
        # exercises every suite's residual types through the JSON writer
        out = tmp_path / "full.json"
        result = runner.invoke(main, ["verify", "--max-order", "4", "--out", str(out)])
        assert result.exit_code == 0, result.output
        report = json.loads(out.read_text())
        validate(report, "verify_report")
        assert report["summary"]["all_pass"]
        assert {r["suite"] for r in report["results"]} == {
            "algebra", "spectra", "observables", "fields", "wigner", "berry",
        }


class TestBerryCommand:
    def test_latitude_report(self, tmp_path):
        out = tmp_path / "berry.json"
        result = runner.invoke(
            main,
            ["berry", "--nr", "0", "--l", "3", "--loop", "latitude",
             "--alpha", "pi/8", "--segments", "500", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        report = json.loads(out.read_text())
        validate(report, "berry_report")
        cap = 2 * math.pi * (1 - math.cos(math.pi / 4))
        assert abs(report["berry_phase"] + 1.5 * cap) <= 1e-3
        assert report["deviation"] <= 1e-6

    def test_polar_loop(self, tmp_path):
        out = tmp_path / "berry.json"
        result = runner.invoke(
            main,
            ["berry", "--n", "1", "--m", "0", "--loop", "polar", "--phi0", "0.4",
             "--segments", "300", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        report = json.loads(out.read_text())
        validate(report, "berry_report")
        assert abs(abs(report["solid_angle"]) - math.pi) <= 1e-8

    @pytest.mark.parametrize("phi0", [1e16, -1e16, 1e17, 1e300])
    def test_polar_loop_at_a_huge_meridian(self, phi0, tmp_path):
        # the loop has period pi in phi0; unreduced, phi0 + pi/2 - t rounds
        # and the return arc collapses (+pi at 1e16, too coarse at 1e17)
        reports = []
        for arg in (phi0, math.fmod(phi0, math.pi)):
            out = tmp_path / f"berry{len(reports)}.json"
            result = runner.invoke(
                main,
                ["berry", "--nr", "0", "--l", "1", "--loop", "polar", f"--phi0={arg!r}",
                 "--segments", "200", "--out", str(out)],
            )
            assert result.exit_code == 0, result.output
            reports.append(json.loads(out.read_text()))
        huge, reduced = reports
        assert huge["loop"]["phi0"] == phi0
        assert (huge["solid_angle"], huge["berry_phase"]) == (reduced["solid_angle"], reduced["berry_phase"])
        assert abs(huge["solid_angle"] + math.pi) <= 1e-12

    def test_beta_latitude_at_pole(self, tmp_path):
        # beta = 1/2 (electron) pins the loop at the sphere pole: zero phase
        out = tmp_path / "berry.json"
        result = runner.invoke(
            main,
            ["berry", "--nr", "0", "--l", "1", "--beta", "0.5",
             "--segments", "200", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        report = json.loads(out.read_text())
        assert report["solid_angle"] == 0.0
        assert abs(report["berry_phase"]) <= 1e-8

    @pytest.mark.parametrize("latitude", [["--beta", "0.4999999999"], ["--alpha", "0.785398163297448"]])
    def test_latitude_next_to_the_pole(self, latitude, tmp_path):
        # a valid latitude whose loop shrinks below 9-digit resolution
        # encloses nothing; it is not a usage error
        out = tmp_path / "berry.json"
        result = runner.invoke(
            main, ["berry", "--nr", "0", "--l", "3", *latitude, "--segments", "200", "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        report = json.loads(out.read_text())
        assert report["solid_angle"] == 0.0
        assert abs(report["berry_phase"]) <= 1e-8

    def test_too_few_segments_is_usage_error(self):
        result = runner.invoke(main, ["berry", "--nr", "0", "--l", "1", "--segments", "2"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("l", [10, -5])
    def test_deviation_is_taken_modulo_2pi(self, l, tmp_path):
        # |l/2| * Omega exceeds pi here, so the raw difference is near 2 pi
        out = tmp_path / "berry.json"
        result = runner.invoke(
            main,
            ["berry", "--nr", "0", f"--l={l}", "--alpha", "pi/8",
             "--segments", "200", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        report = json.loads(out.read_text())
        assert abs(report["berry_phase"] - report["expected_phase"]) > 6.0
        assert report["deviation"] <= 1e-3

    @pytest.mark.parametrize("l, winding", [(10, 1), (-5, -1), (3, 0)])
    def test_winding_counts_whole_turns(self, l, winding, tmp_path):
        out = tmp_path / "berry.json"
        result = runner.invoke(
            main,
            ["berry", "--nr", "0", f"--l={l}", "--alpha", "pi/8",
             "--segments", "200", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        report = json.loads(out.read_text())
        validate(report, "berry_report")
        assert report["winding"] == winding
        turns = report["berry_phase"] - report["expected_phase"] - 2 * math.pi * winding
        assert abs(turns) == pytest.approx(report["deviation"], abs=1e-12)
        assert result.output.splitlines()[0].endswith(f"winding {winding}")

    def test_report_without_winding_validates(self):
        # reports written before the field existed
        report = {
            "loop": {"family": "latitude", "alpha": 0.39}, "segments": 50,
            "mode": {"n": 1, "m": 0, "n_r": 0, "l": 1}, "solid_angle": 1.8,
            "berry_phase": -0.9, "expected_phase": -0.9, "deviation": 0.0,
        }
        validate(report, "berry_report")


class TestDecomposeCommand:
    def test_eigenbasis_input_is_stationary(self, tmp_path):
        prefix = str(tmp_path / "dec")
        result = runner.invoke(
            main,
            ["decompose", "--nr", "0", "--l", "2", "--alpha", "pi/4", "--t", "0.9",
             "--max-order", "4", "--points", "64", "--out-prefix", prefix],
        )
        assert result.exit_code == 0, result.output
        sidecar = json.loads((tmp_path / "dec.json").read_text())
        validate(sidecar, "decompose_sidecar")
        assert sidecar["sum_abs2"] == pytest.approx(1.0, abs=1e-9)
        assert not sidecar["truncation_warning"]
        rows = (tmp_path / "dec_coefficients.csv").read_text().splitlines()[1:]
        big = [r for r in rows if float(r.split(",")[7]) > 1e-9]
        assert len(big) == 1  # single coefficient: the input is an eigenstate
        assert abs(float(big[0].split(",")[7]) - 1.0) <= 1e-9

    def test_split_between_hermite_pair(self, tmp_path):
        prefix = str(tmp_path / "dec")
        result = runner.invoke(
            main,
            ["decompose", "--nr", "0", "--l", "1", "--alpha", "0",
             "--max-order", "4", "--points", "64", "--out-prefix", prefix],
        )
        assert result.exit_code == 0, result.output
        rows = (tmp_path / "dec_coefficients.csv").read_text().splitlines()[1:]
        weights = {}
        for r in rows:
            parts = r.split(",")
            weights[(int(parts[0]), int(parts[1]))] = float(parts[7])
        assert weights[(1, 0)] == pytest.approx(0.5, abs=1e-12)
        assert weights[(0, 1)] == pytest.approx(0.5, abs=1e-12)
        assert sum(weights.values()) == pytest.approx(1.0, abs=1e-9)

    def test_phases_do_not_depend_on_omega(self, tmp_path):
        # --t is in units of 1/omega: the phase is the natural energy times t
        columns = {}
        for omega in ("1", "2"):
            prefix = str(tmp_path / f"w{omega}")
            result = runner.invoke(
                main,
                ["decompose", "--nr", "0", "--l", "1", "--alpha", "0", "--t", "0.5",
                 "--omega", omega, "--max-order", "1", "--points", "16", "--out-prefix", prefix],
            )
            assert result.exit_code == 0, result.output
            lines = (tmp_path / f"w{omega}_coefficients.csv").read_text().splitlines()
            header = lines[0].split(",")
            columns[omega] = {name: [ln.split(",")[k] for ln in lines[1:]] for k, name in enumerate(header)}
        assert columns["2"]["re_c_t"] == columns["1"]["re_c_t"]
        assert columns["2"]["im_c_t"] == columns["1"]["im_c_t"]
        assert [float(e) for e in columns["2"]["energy_omega"]] == [2 * float(e) for e in columns["1"]["energy_omega"]]

    @pytest.mark.parametrize("args", [
        ["--nr", "5", "--l", "10", "--alpha", "pi/8"],
        ["--nr", "0", "--l", "20", "--alpha", "0.3", "--t", "0.5"],
    ])
    def test_density_matches_its_coefficients_at_the_cap(self, args, tmp_path):
        # |sum_t c_t psi_t|^2 from the written coefficients, with each psi_t
        # the paper's finite sum (the unfolded Jacobi prefactors) over the
        # oracle's Hermite functions h_n(sqrt2 x), phi_n(x) = 2^(1/4) h_n(sqrt2 x)
        prefix = str(tmp_path / "dec")
        result = runner.invoke(
            main, ["decompose", *args, "--max-order", str(ORDER_CAP), "--points", "96", "--out-prefix", prefix]
        )
        assert result.exit_code == 0, result.output
        (x_min, x_max, _, _), grid = read_grid(f"{prefix}_density.csv")
        alpha = parse_angle(args[args.index("--alpha") + 1])
        x = cell_centres(96, x_min, x_max)
        h = hermite_functions(ORDER_CAP, math.sqrt(2.0) * x)
        psi = np.zeros(grid.shape, dtype=complex)
        for row in (tmp_path / "dec_coefficients.csv").read_text().splitlines()[1:]:
            n, m, _, _, _, _, _, _, re_ct, im_ct = row.split(",")
            n, m, ct = int(n), int(m), complex(float(re_ct), float(im_ct))
            if abs(ct) <= 1e-14:
                continue
            for k in range(n + m + 1):
                c_k = 1j**k * math.cos(alpha) ** (n - k) * math.sin(alpha) ** (m - k)
                c_k *= jacobi_eval(k, n - k, m - k, -math.cos(2 * alpha))
                scale = math.sqrt(2.0 * math.factorial(n + m - k) * math.factorial(k) / (math.factorial(n) * math.factorial(m)))
                psi += ct * c_k * scale * np.outer(h[k], h[n + m - k])
        ref = np.abs(psi) ** 2
        err = np.abs(grid - ref).max() / ref.max()
        assert err <= 1e-13, err

    def test_benchmark_reference_grid(self, tmp_path):
        # the benchmark's decompose.vs_seed_commit_grid check, with its inputs
        # read from the recorded file, at 1e-13 where it allows 1e-10: a
        # change to the bits of the mode sum fails here first (a term map
        # rebuilt from hlg_block reads 4.6e-13)
        with np.load(Path(__file__).resolve().parents[1] / "bench" / "reference" / "decompose.npz") as npz:
            ref = dict(npz)
        prefix = str(tmp_path / "dec")
        result = runner.invoke(
            main,
            ["decompose", "--nr", str(int(ref["nr"])), f"--l={int(ref['l'])}", "--alpha", repr(float(ref["alpha"])),
             "--t", repr(float(ref["t"])), "--max-order", str(int(ref["max_order"])),
             "--points", str(int(ref["points"])), "--out-prefix", prefix],
        )
        assert result.exit_code == 0, result.output
        _, grid = read_grid(f"{prefix}_density.csv")
        stride = int(ref["stride"])
        err = np.abs(grid[::stride, ::stride] - ref["grid"]).max() / ref["grid"].max()
        assert err <= 1e-13, err

    def test_coefficients_are_the_pairwise_overlaps(self, tmp_path):
        # one gram call over the basis writes the bytes of one inner_product per mode
        prefix = str(tmp_path / "dec")
        result = runner.invoke(
            main,
            ["decompose", "--nr", "2", "--l=-4", "--alpha", "0.3", "--max-order", "16",
             "--points", "8", "--out-prefix", prefix],
        )
        assert result.exit_code == 0, result.output
        alpha = json.loads((tmp_path / "dec.json").read_text())["alpha"]
        mode = ModeIndex.from_twisted(2, -4)
        lg = hlg_state(mode.n, mode.m, 0.25 * math.pi)
        rows = [r.split(",") for r in (tmp_path / "dec_coefficients.csv").read_text().splitlines()[1:]]
        assert len(rows) == 153
        for n, m, _, _, _, re_c, im_c, *_ in rows:
            c = inner_product(hlg_state(int(n), int(m), alpha), lg)
            assert (re_c, im_c) == (fmt(c.real), fmt(c.imag)), (n, m)

    @pytest.mark.parametrize("alpha, folded", [("2.0", True), ("0.3", False)])
    def test_folded_alpha_recorded(self, alpha, folded, tmp_path):
        prefix = str(tmp_path / "dec")
        result = runner.invoke(
            main,
            ["decompose", "--nr", "0", "--l", "1", "--alpha", alpha,
             "--max-order", "2", "--points", "4", "--out-prefix", prefix],
        )
        assert result.exit_code == 0, result.output
        sidecar = json.loads((tmp_path / "dec.json").read_text())
        validate(sidecar, "decompose_sidecar")
        assert 0.0 <= sidecar["alpha"] <= math.pi / 2
        if folded:
            assert sidecar["alpha_input"] == 2.0
            assert sidecar["alpha"] == pytest.approx(2.0 - math.pi / 2, abs=1e-15)
        else:
            assert "alpha_input" not in sidecar
            assert sidecar["alpha"] == 0.3

    def test_truncation_warning_recorded(self, tmp_path):
        prefix = str(tmp_path / "dec")
        result = runner.invoke(
            main,
            ["decompose", "--nr", "2", "--l", "2", "--alpha", "pi/8",
             "--max-order", "3", "--points", "48", "--out-prefix", prefix],
        )
        assert result.exit_code == 0, result.output  # warning, not fatal
        sidecar = json.loads((tmp_path / "dec.json").read_text())
        assert sidecar["truncation_warning"]
        assert sidecar["sum_abs2"] < 1.0 - 1e-6
        assert result.output.rstrip("\n").endswith(" (truncated))"), result.output

    @pytest.mark.parametrize(
        "args, note",
        [
            # the whole basis, but extent 2 holds 1.2% of the l = 20 ring
            pytest.param(["--nr", "0", "--l", "20", "--alpha", "pi/8", "--max-order", "20", "--extent", "2",
                          "--points", "64"], "truncated", id="truncated"),
            # too few points: the grid sum reads 1.284, as for density
            pytest.param(["--nr", "3", "--l", "3", "--alpha", "pi/4", "--points", "6"], "undersampled", id="undersampled"),
        ],
    )
    def test_grid_sets_truncation_warning(self, args, note, tmp_path):
        prefix = str(tmp_path / "dec")
        result = runner.invoke(main, ["decompose", *args, "--out-prefix", prefix])
        assert result.exit_code == 0, result.output
        sidecar = json.loads((tmp_path / "dec.json").read_text())
        validate(sidecar, "decompose_sidecar")
        assert sidecar["sum_abs2"] == pytest.approx(1.0, abs=1e-9)
        assert abs(sidecar["norm_check"] - 1.0) > 1e-6
        assert sidecar["truncation_warning"] is True
        assert result.output.endswith(f" ({note}))\n")


class TestPrecisionAtTheCap:
    """Bounds on the outputs at ORDER_CAP that the term-map layer keeps from being exact.

    Deleting that layer (ROADMAP item 3) tightens them to 1e-10 for the
    table's deltas and to exactly 0 for the off-level coefficients; until
    then, any change that makes either output worse fails here.
    """

    def test_table_deltas(self, tmp_path):
        # order 20; measured 1.41e-8, 7.2e-9 and 1.13e-8
        out = tmp_path / "table.csv"
        result = runner.invoke(main, ["table", "--nr", "6", "--l", "8", "--steps", "64", "--out", str(out)])
        assert result.exit_code == 0, result.output
        table = np.genfromtxt(out, delimiter=",", names=True)
        worst = {name: np.abs(table[name]).max() for name in ("energy_delta", "r2_delta", "lz_delta")}
        assert all(w < 3e-8 for w in worst.values()), worst

    def test_off_level_coefficients(self, tmp_path):
        # measured 3.36e-10; 98 of them are above the 1e-14 cut, so they enter the density
        prefix = str(tmp_path / "dec")
        args = ["decompose", "--nr", "5", "--l", "10", "--alpha", "pi/8", "--max-order", "20", "--points", "32"]
        result = runner.invoke(main, [*args, "--out-prefix", prefix])
        assert result.exit_code == 0, result.output
        c = np.genfromtxt(f"{prefix}_coefficients.csv", delimiter=",", names=True)
        off_level = np.hypot(c["re_c"], c["im_c"])[c["n"] + c["m"] != 20]
        assert len(off_level) == 210 and off_level.max() < 1e-9, off_level.max()


_BAD_INPUTS = [
    ["density", "--nr", "0", "--l", "1", "--alpha", "nan"],
    ["density", "--nr", "0", "--l", "1", "--alpha", "0", "--phi", "nan"],
    ["density", "--nr", "0", "--l", "1", "--alpha", "0", "--omega", "nan"],
    ["density", "--nr", "0", "--l", str(ORDER_CAP + 1), "--alpha", "0"],
    ["density", "--nr", "0", "--l", "1", "--alpha", "0", "--order-cap", "30"],
    ["density", "--nr", "0", "--l", "1", "--alpha", "0", "--points", "1"],
    ["decompose", "--nr", "0", "--l", "1", "--alpha", "0", "--extent", "nan"],
    ["decompose", "--nr", "-1", "--l", "1", "--alpha", "0"],
    ["decompose", "--nr", "0", "--l", "1", "--alpha", "0", "--t", "nan", "--max-order", "2"],
    ["decompose", "--nr", "0", "--l", "1", "--alpha", "0", "--t", "inf", "--max-order", "2"],
    ["table", "--nr", "0", "--l", "1", "--omega", "-1"],
    ["table", "--nr", "0", "--l", "1", "--rho-h", "0"],
    ["verify", "--tol", "nan"],
    ["verify", "--tol", "-1"],
    ["verify", "--max-order", str(ORDER_CAP + 1)],
    ["verify", "--suites", ","],
    ["verify", "--suites", "algebra,algebra"],
    # options of the other loop family
    ["berry", "--nr", "0", "--l", "1", "--loop", "polar", "--alpha", "0.3", "--segments", "50"],
    ["berry", "--nr", "0", "--l", "1", "--loop", "polar", "--beta", "0.3", "--segments", "50"],
    ["berry", "--nr", "0", "--l", "1", "--loop", "latitude", "--phi0", "0.7", "--segments", "50"],
    # inputs whose outputs would not be finite
    ["decompose", "--nr", "0", "--l", "1", "--alpha", "0.3", "--points", "8", "--max-order", "2", "--t", "1e308"],
    ["decompose", "--nr", "0", "--l", "1", "--alpha", "0.3", "--points", "8", "--max-order", "2", "--rho-h", "1e308"],
    ["density", "--nr", "0", "--l", "1", "--alpha", "0.3", "--points", "8", "--rho-h", "1e-320"],
    ["density", "--nr", "0", "--l", "1", "--alpha", "0.3", "--points", "8", "--extent", "1e300"],
    ["decompose", "--nr", "0", "--l", "1", "--alpha", "0.3", "--points", "8", "--max-order", "2", "--extent", "1e300"],
    ["density", "--nr", "0", "--l", "1", "--alpha", "0.3", "--points", "8", "--extent", "1e308"],
    ["table", "--nr", "0", "--l", "1", "--steps", "2", "--omega", "1e308"],
    ["decompose", "--nr", "0", "--l", "1", "--alpha", "0.3", "--points", "8", "--max-order", "2", "--omega", "1e308"],
    # sizes whose arrays (711 PiB) exceed any 64-bit address space: the
    # allocation fails at once and nothing is allocated
    ["table", "--nr", "0", "--l", "1", "--steps", "100000000000000000"],
    ["density", "--nr", "0", "--l", "1", "--alpha", "0", "--points", "100000000000000000"],
    ["decompose", "--nr", "0", "--l", "1", "--alpha", "0", "--max-order", "2", "--points", "100000000000000000"],
    ["berry", "--nr", "0", "--l", "1", "--segments", "100000000000000000"],
    # only density and decompose fold an alpha outside [0, pi/2]
    ["table", "--nr", "0", "--l", "1", "--alpha-max", "2"],
    ["berry", "--nr", "0", "--l", "1", "--alpha", "2"],
]


@pytest.mark.parametrize("args", _BAD_INPUTS, ids=lambda a: " ".join(a))
def test_bad_input_is_usage_error(args, tmp_path):
    out = ["--out-prefix", str(tmp_path / "x")] if args[0] == "decompose" else ["--out", str(tmp_path / "x.csv")]
    result = runner.invoke(main, args + out)
    assert result.exit_code == 2, result.output
    assert not list(tmp_path.iterdir())  # rejected before anything is written


@pytest.mark.parametrize(
    "args",
    [
        ["table", "--nr", "0", "--l", "1", "--steps", "2", "--out", "/nonexistent-dir/x.csv"],
        ["verify", "--suites", "algebra", "--max-order", "1", "--out", "/nonexistent-dir/x.json"],
        ["berry", "--nr", "0", "--l", "1", "--segments", "20", "--out", "/nonexistent-dir/x.json"],
        ["decompose", "--nr", "0", "--l", "1", "--alpha", "0", "--max-order", "1", "--points", "8",
         "--out-prefix", "/nonexistent-dir/x"],
    ],
    ids=lambda a: a[0],
)
def test_unwritable_path_is_io_error(args):
    # density's case is TestDensityCommand::test_unwritable_path
    result = runner.invoke(main, args)
    assert result.exit_code == 3, result.output


# Base flags of each command, and the float flags the contract test draws.
_CONTRACT = {
    "density": (["--nr", "0", "--l", "1", "--alpha", "0.3", "--points", "8"],
                ["--alpha", "--phi", "--extent", "--omega", "--rho-h"]),
    "table": (["--nr", "0", "--l", "1", "--steps", "2"], ["--alpha-min", "--alpha-max", "--omega", "--rho-h"]),
    "decompose": (["--nr", "0", "--l", "1", "--alpha", "0.3", "--points", "8", "--max-order", "2"],
                  ["--alpha", "--t", "--extent", "--omega", "--rho-h"]),
}

_FLOATS = st.one_of(
    st.floats(min_value=-0.5, max_value=1.5),  # normal
    st.floats(min_value=1e100) | st.floats(max_value=-1e100),  # huge, and the infinities
    st.floats(min_value=-2.2e-308, max_value=2.2e-308),  # subnormal (and zero)
    st.just(math.nan),
)


@st.composite
def _cli_calls(draw):
    command = draw(st.sampled_from(sorted(_CONTRACT)))
    flags = draw(st.lists(st.sampled_from(_CONTRACT[command][1]), unique=True, min_size=1, max_size=2))
    return command, {flag: draw(_FLOATS) for flag in flags}


def _assert_finite(path: Path):
    text = path.read_text()
    if path.suffix == ".json":
        json.loads(text, parse_constant=lambda c: pytest.fail(f"{path.name} holds {c}"))
        return
    for token in re.split(r"[,\s#]+", text):
        try:
            value = float(token)
        except ValueError:
            continue
        assert math.isfinite(value), f"{path.name} holds {token}"


@settings(deadline=None, max_examples=180)
@given(call=_cli_calls())
@example(call=("decompose", {"--t": 1e308}))
@example(call=("decompose", {"--rho-h": 1e308}))
@example(call=("density", {"--rho-h": 1e-320}))
@example(call=("density", {"--extent": 1e300}))
@example(call=("decompose", {"--extent": 1e300}))
@example(call=("density", {"--extent": 1e308}))
@example(call=("table", {"--omega": 1e308}))
@example(call=("decompose", {"--omega": 1e308}))
def test_exit_code_contract(call):
    # exit 0 with finite outputs, or exit 2 with nothing written; never a traceback
    command, flags = call
    base, _ = _CONTRACT[command]
    with tempfile.TemporaryDirectory() as tmp:
        out = ["--out-prefix", f"{tmp}/x"] if command == "decompose" else ["--out", f"{tmp}/x.csv"]
        args = [command] + base + [a for flag, v in flags.items() for a in (flag, repr(v))] + out
        result = runner.invoke(main, args)
        assert result.exception is None or isinstance(result.exception, SystemExit), result.exception
        assert result.exit_code in (0, 2), result.output
        written = sorted(Path(tmp).iterdir())
        if result.exit_code == 2:
            assert not written
        for path in written:
            _assert_finite(path)


def test_commands_do_not_import_jsonschema(tmp_path):
    """The schemas are checked by the tests; no command loads a validator."""
    script = f"""
import sys
from als.cli import main
out = {str(tmp_path)!r}
for args in (
    ["density", "--nr", "0", "--l", "1", "--alpha", "0.3", "--points", "8", "--out", out + "/d.csv"],
    ["table", "--nr", "0", "--l", "1", "--steps", "2", "--out", out + "/t.csv"],
    ["verify", "--suites", "algebra", "--max-order", "1", "--out", out + "/v.json"],
    ["berry", "--nr", "0", "--l", "1", "--segments", "20", "--out", out + "/b.json"],
    ["decompose", "--nr", "0", "--l", "1", "--alpha", "0", "--max-order", "1", "--points", "8",
     "--out-prefix", out + "/x"],
):
    main(args, standalone_mode=False)
assert "jsonschema" not in sys.modules, "a command imported jsonschema"
"""
    # the child imports the same als as this process
    src = str(Path(als.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "b.json", "d.csv", "d.json", "t.csv", "v.json", "x.json", "x_coefficients.csv", "x_density.csv",
    ]


def test_commands_do_not_import_numpy_random(tmp_path):
    """The suites draw from stdlib ``random``; no command pays for loading ``numpy.random``."""
    script = f"""
import sys
import numpy
if "numpy.random" in sys.modules:
    sys.exit("numpy itself imports numpy.random")
from als.cli import main
out = {str(tmp_path)!r}
for args in (
    ["--version"],
    ["density", "--nr", "0", "--l", "1", "--alpha", "0.3", "--points", "8", "--out", out + "/d.csv"],
    ["table", "--nr", "0", "--l", "1", "--steps", "2", "--out", out + "/t.csv"],
    ["verify", "--max-order", "2", "--out", out + "/v.json"],
    ["berry", "--nr", "0", "--l", "1", "--segments", "20", "--out", out + "/b.json"],
    ["decompose", "--nr", "0", "--l", "1", "--alpha", "0", "--max-order", "1", "--points", "8",
     "--out-prefix", out + "/x"],
):
    main(args, standalone_mode=False)
assert "numpy.random" not in sys.modules, "a command imported numpy.random"
"""
    src = str(Path(als.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    if "numpy itself imports numpy.random" in result.stderr:
        pytest.skip(f"numpy {np.__version__} imports numpy.random on import")
    assert result.returncode == 0, result.stderr
    assert len(list(tmp_path.iterdir())) == 8


def test_package_root_holds_only_the_version():
    """``import als`` loads no numpy and re-exports nothing: each name is imported from its module."""
    script = """
import json, sys, als
names = [n for n in vars(als) if not n.startswith("__")]
print(json.dumps({"names": names, "numpy": "numpy" in sys.modules, "version": als.__version__}))
"""
    src = str(Path(als.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == {"names": [], "numpy": False, "version": als.__version__}


def test_version_matches_package():
    result = runner.invoke(main, ["--version"])
    assert result.exit_code == 0
    assert result.output == f"als, version {als.__version__}\n"


class TestSchemas:
    def test_all_schemas_load(self):
        for name in ("density_sidecar", "verify_report", "berry_report", "decompose_sidecar"):
            assert schema(name)["type"] == "object"
