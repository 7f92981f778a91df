"""The verify runner and the reach of its suites."""

import json
import math

import numpy as np
import pytest
from click.testing import CliRunner

from als import fields, operators, specfun, verify
from als.cli import main
from als.modes import ORDER_CAP
from oracles import validate

#: The spectra rows that sample the paper's finite sum (``level_sums``).
FINITE_SUM_ROWS = {
    "norm^2 = pi 2^(n+m-1) n! m!",
    "orthonormality of the mode basis",
    "finite sum equals the eigenvector",
}

#: The spectra and observables rows that sample the modes of a level.
LEVEL_ROWS = {
    "Hperp eigenvalue 2(n+1/2), electron",
    "Hperp eigenvalue 2(m+1/2), positron",
    "Has eigenvalue -sign_e l",
    "Casimir eigenvalue ((n+m+1)^2-1)/4 on alpha=0 basis",
    "finite sum equals the eigenvector",
    "rotated-family eigenvalue 2 n_r + |l| + l + 1",
    "<Lz> = l sin(2 alpha)",
    "<r^2> = (2 n_r + |l| + 1)/2, alpha independent",
    "<Hperp> matches the closed-form energy",
    "<Casimir> = j(j+1)",
}


def test_repeated_suite_is_rejected():
    with pytest.raises(ValueError, match="'algebra' is named more than once"):
        verify.run(["algebra", "spectra", "algebra"], max_order=2)


def test_spectra_and_observables_hold_at_the_order_cap():
    rows = verify.suite_spectra(ORDER_CAP) + verify.suite_observables(ORDER_CAP)
    failed = [(r["identity"], r["residual"]) for r in rows if not r["residual"] <= r["tolerance"]]
    assert len(rows) == 14 and not failed, failed


@pytest.fixture
def nan_level_3(monkeypatch):
    """Every Wigner d-matrix of order 3, and so every mode vector and rotation of that level, reads NaN."""
    columns = specfun.wigner_d_columns

    def poisoned(order, cols, betas):
        d = columns(order, cols, betas)
        return np.full_like(d, math.nan) if order == 3 else d

    monkeypatch.setattr(specfun, "wigner_d_columns", poisoned)


def test_nan_level_fails_every_row_that_samples_it(nan_level_3):
    rows = verify.suite_spectra(4) + verify.suite_observables(4)
    failed = {r["identity"] for r in rows if not r["residual"] <= r["tolerance"]}
    assert failed == LEVEL_ROWS
    assert all(math.isnan(r["residual"]) for r in rows if r["identity"] in failed)
    assert {r["identity"] for r in rows if r["residual"] <= r["tolerance"]} == {
        "ellipticity form on dilated modes",
        "energy degeneracy in m (electron) / n (positron)",
        "norm^2 = pi 2^(n+m-1) n! m!",
        "orthonormality of the mode basis",
    }


@pytest.mark.parametrize("scale", [math.nan, 1.0 + 1e-9])
def test_a_perturbed_finite_sum_fails_its_rows(monkeypatch, scale):
    # every coefficient of level 3 times scale: NaN, or a norm off by 2e-9,
    # which the eigenvectors alone (unit by construction) could never show
    level_sums = verify.level_sums

    def perturbed(order, alphas):
        return level_sums(order, alphas) * (scale if order == 3 else 1.0)

    monkeypatch.setattr(verify, "level_sums", perturbed)
    rows = {r["identity"]: r for r in verify.suite_spectra(4)}
    assert {name for name, r in rows.items() if not r["residual"] <= r["tolerance"]} == FINITE_SUM_ROWS
    if math.isnan(scale):
        assert all(math.isnan(rows[name]["residual"]) for name in FINITE_SUM_ROWS)
    else:
        assert rows["norm^2 = pi 2^(n+m-1) n! m!"]["residual"] == pytest.approx(2e-9, rel=1e-3)


def test_nan_level_makes_the_command_fail(nan_level_3, tmp_path):
    out = tmp_path / "report.json"
    result = CliRunner().invoke(main, ["verify", "--suites", "spectra", "--max-order", "3", "--out", str(out)])
    assert result.exit_code == 1, result.output
    assert "FAIL" in result.output and "residual nan" in result.output

    def reject(token):
        raise ValueError(f"{token} is not JSON")

    report = json.loads(out.read_text(), parse_constant=reject)
    validate(report, "verify_report")
    failed = {r["identity"]: r["residual"] for r in report["results"] if not r["pass"]}
    assert set(failed) == LEVEL_ROWS & {r["identity"] for r in report["results"]}
    assert failed and all(residual is None for residual in failed.values())


def test_nan_field_sample_fails_its_row(monkeypatch):
    b_field = fields.b_field

    def poisoned(model, x, y, z):
        # the second sample point of the beta = 0 divergence reads NaN
        out = b_field(model, x, y, z)
        if model.beta == 0.0:
            out[:, 1] = math.nan
        return out

    monkeypatch.setattr(fields, "b_field", poisoned)
    rows = {r["identity"]: r for r in verify.suite_fields(0)}
    row = rows.pop("div B = 0 at beta=0.0")
    assert not row["residual"] <= row["tolerance"] and math.isnan(row["residual"])
    assert all(r["residual"] <= r["tolerance"] for r in rows.values())


def test_fields_derivative_rows_are_exact():
    # the complex-step divergence and curl difference nothing, so every row
    # that reads a derivative sits at rounding, far below the suite's 1e-9
    values = {"A + grad(chi) matches the fixed potential", "fixed potential inside the solenoid"}
    rows = [r for r in verify.suite_fields(0) if r["identity"] not in values]
    assert len(rows) == 8
    assert all(r["residual"] <= 1e-13 for r in rows), rows


#: Every row of ``verify.run(max_order=10)``, in order: (suite, identity, tolerance).
REPORT_ROWS = [
    ("algebra", "[L1,L1] = i eps L_k", 1e-12),
    ("algebra", "[L1,L2] = i eps L_k", 1e-12),
    ("algebra", "[L1,L3] = i eps L_k", 1e-12),
    ("algebra", "[L2,L1] = i eps L_k", 1e-12),
    ("algebra", "[L2,L2] = i eps L_k", 1e-12),
    ("algebra", "[L2,L3] = i eps L_k", 1e-12),
    ("algebra", "[L3,L1] = i eps L_k", 1e-12),
    ("algebra", "[L3,L2] = i eps L_k", 1e-12),
    ("algebra", "[L3,L3] = i eps L_k", 1e-12),
    ("algebra", "[Hs,H1] = 0", 1e-12),
    ("algebra", "[Hs,H2] = 0", 1e-12),
    ("algebra", "[Hs,H3] = 0", 1e-12),
    ("algebra", "[H1,H3] = -2i H2", 1e-12),
    ("algebra", "[H3,H2] = -2i H1", 1e-12),
    ("algebra", "[H2,H1] = -2i H3", 1e-12),
    ("algebra", "Casimir = Hs^2/4 - 1/4", 1e-12),
    ("algebra", "[Hperp,Has] = 0 at alpha=0.0000", 1e-12),
    ("algebra", "[Hperp,Has] = 0 at alpha=0.3927", 1e-12),
    ("algebra", "[Hperp,Has] = 0 at alpha=0.7854", 1e-12),
    ("algebra", "[Casimir, H(phi=4.018, alpha=0.039)] = 0", 1e-12),
    ("algebra", "[Casimir, H(phi=1.728, alpha=0.351)] = 0", 1e-12),
    ("spectra", "Hperp eigenvalue 2(n+1/2), electron", 1e-10),
    ("spectra", "Hperp eigenvalue 2(m+1/2), positron", 1e-10),
    ("spectra", "Has eigenvalue -sign_e l", 1e-10),
    ("spectra", "Casimir eigenvalue ((n+m+1)^2-1)/4 on alpha=0 basis", 1e-10),
    ("spectra", "norm^2 = pi 2^(n+m-1) n! m!", 1e-10),
    ("spectra", "orthonormality of the mode basis", 1e-10),
    ("spectra", "finite sum equals the eigenvector", 1e-10),
    ("spectra", "rotated-family eigenvalue 2 n_r + |l| + l + 1", 1e-10),
    ("spectra", "ellipticity form on dilated modes", 1e-12),
    ("observables", "<Lz> = l sin(2 alpha)", 1e-10),
    ("observables", "<r^2> = (2 n_r + |l| + 1)/2, alpha independent", 1e-10),
    ("observables", "<Hperp> matches the closed-form energy", 1e-10),
    ("observables", "<Casimir> = j(j+1)", 1e-10),
    ("observables", "energy degeneracy in m (electron) / n (positron)", 1e-10),
    ("fields", "div B = 0 at beta=0.0", 1e-9),
    ("fields", "div B = 0 at beta=0.25", 1e-9),
    ("fields", "div B = 0 at beta=0.5", 1e-9),
    ("fields", "div B = 0 at beta=0.75", 1e-9),
    ("fields", "div B = 0 at beta=1.0", 1e-9),
    ("fields", "curl A = B across the gauge family", 1e-9),
    ("fields", "equal d-b gives equal curl", 1e-9),
    ("fields", "A + grad(chi) matches the fixed potential", 1e-9),
    ("fields", "fixed potential inside the solenoid", 1e-9),
    ("fields", "div A' = 0 inside (Coulomb gauge)", 1e-9),
    ("wigner", "rotation expansion reproduces the rotated modes", 1e-10),
    ("wigner", "unitarity of expansion rows", 1e-12),
    ("wigner", "Euler angles solve their defining equations", 1e-12),
    ("wigner", "d(-B) equals transposed d(B)", 1e-12),
    ("berry", "latitude solid angle matches the cap formula", 1e-4),
    ("berry", "l=3 latitude phase = -(3/2) Omega", 1e-3),
    ("berry", "quadratic error decay across segment counts", 0.5),
    ("berry", "l=0 loop has zero phase", 1e-8),
    ("berry", "pole-pinned loop has zero phase", 1e-8),
    ("berry", "reversal flips the solid angle", 1e-10),
    ("berry", "reversal flips the phase", 1e-10),
    ("berry", "polar loop phase = -(l/2) Omega", 1e-3),
]


def test_report_rows_are_pinned():
    report = verify.run(max_order=10)
    assert [(r["suite"], r["identity"], r["tolerance"]) for r in report["results"]] == REPORT_ROWS
    assert report["summary"]["all_pass"]


@pytest.mark.parametrize("suite", verify.SUITES)
def test_suite_rows_are_report_rows_and_run_adds_only_pass(suite):
    rows = verify._SUITE_FUNCS[suite](2)
    assert rows and all(list(r) == ["suite", "identity", "residual", "tolerance"] for r in rows)
    assert all(r["suite"] == suite and type(r["residual"]) is float and type(r["tolerance"]) is float for r in rows)
    report = verify.run([suite], max_order=2)
    assert [{k: v for k, v in r.items() if k != "pass"} for r in report["results"]] == rows
    assert all(list(r) == ["suite", "identity", "residual", "tolerance", "pass"] for r in report["results"])
    assert all(r["pass"] is (r["residual"] <= r["tolerance"]) for r in report["results"])


@pytest.mark.parametrize("max_order", [0, 1, 8])
def test_wigner_suite_stops_at_the_max_order(monkeypatch, max_order):
    # every row stays in the report, each one sampled only up to j = max_order / 2;
    # each level 2j <= 8 takes one whole D-matrix and one gram per draw, two
    # draws, and two D-matrices for d(-B): no element-by-element reads
    orders, grams = [], []
    wigner_D, gram = verify.wigner_D, verify.gram

    def recorded_D(order, A, B, C):
        orders.append(order)
        return wigner_D(order, A, B, C)

    def recorded_gram(bras, kets):
        grams.append(kets)
        return gram(bras, kets)

    monkeypatch.setattr(verify, "wigner_D", recorded_D)
    monkeypatch.setattr(verify, "gram", recorded_gram)
    rows = verify.suite_wigner(max_order)
    assert all(order <= max_order for order in orders), sorted(set(orders))
    levels = min(max_order, 8)
    assert (len(orders), len(grams)) == (4 * levels, 2 * levels)
    assert [(r["suite"], r["identity"], r["tolerance"]) for r in rows] == [row for row in REPORT_ROWS if row[0] == "wigner"]
    assert all(r["residual"] <= r["tolerance"] for r in rows)


@pytest.mark.parametrize("alphas", [verify._ALPHAS, verify._ALPHAS[:2]], ids=["nine", "two"])
def test_level_suites_build_a_fixed_number_of_stacks_per_order(monkeypatch, alphas):
    # each suite weights one stack of the shared operator constants per order
    # and builds no term-map Hamiltonian; h_perp serves the dilation row alone
    constants = [operators.HS, operators.H1, operators.H2, operators.H3, operators.CASIMIR, operators.R2]
    calls, dilation = [], []
    level_matrix, h_perp = verify.level_matrix, verify.h_perp

    def counted(ops, order):
        assert all(any(op is c for c in constants) for op in ops), ops
        calls.append(order)
        return level_matrix(ops, order)

    def refused(*args):
        raise AssertionError(f"a level suite built a term-map Hamiltonian at {args}")

    def dilation_only(alpha, sign):
        dilation.append((alpha, sign))
        return h_perp(alpha, sign)

    monkeypatch.setattr(verify, "level_matrix", counted)
    monkeypatch.setattr(verify, "_ALPHAS", alphas)
    monkeypatch.setattr(verify, "h_as", refused)
    monkeypatch.setattr(verify, "schwinger_operator", refused)
    monkeypatch.setattr(verify, "h_perp", dilation_only)
    order = 4
    spectra = verify.suite_spectra(order)
    assert calls == list(range(order + 1))
    assert len(dilation) == 6  # three betas for each charge, whatever the order
    calls.clear()
    monkeypatch.setattr(verify, "h_perp", refused)
    observables = verify.suite_observables(order)
    assert calls == list(range(order + 1))
    assert all(r["residual"] <= r["tolerance"] for r in spectra + observables)
