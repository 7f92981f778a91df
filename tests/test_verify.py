"""The verify runner and the reach of its suites."""

import itertools
import json
import math

import numpy as np
import pytest
from click.testing import CliRunner

from als import fields, verify
from als.cli import main
from als.modes import ORDER_CAP

#: The spectra and observables rows that sample the modes of a level.
LEVEL_ROWS = {
    "Hperp eigenvalue 2(n+1/2), electron",
    "Hperp eigenvalue 2(m+1/2), positron",
    "Has eigenvalue -sign_e l",
    "Casimir eigenvalue ((n+m+1)^2-1)/4 on alpha=0 basis",
    "norm^2 = pi 2^(n+m-1) n! m!",
    "orthonormality of the mode basis",
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
    failed = [(r.identity, r.residual) for r in rows if not r.passed]
    assert len(rows) == 13 and not failed, failed


@pytest.fixture
def nan_level_3(monkeypatch):
    """Every mode vector of order 3 reads NaN; the level cache is cleared around the patch."""
    block = verify.hlg_block

    def poisoned(n, m, alpha):
        v = block(n, m, alpha)
        return np.full_like(v, math.nan) if n + m == 3 else v

    verify._level.cache_clear()
    monkeypatch.setattr(verify, "hlg_block", poisoned)
    yield
    monkeypatch.undo()
    verify._level.cache_clear()


def test_nan_level_fails_every_row_that_samples_it(nan_level_3):
    rows = verify.suite_spectra(4) + verify.suite_observables(4)
    failed = {r.identity for r in rows if not r.passed}
    assert failed == LEVEL_ROWS
    assert all(math.isnan(r.residual) for r in rows if r.identity in failed)
    assert {r.identity for r in rows if r.passed} == {
        "ellipticity form on dilated modes",
        "energy degeneracy in m (electron) / n (positron)",
    }


def test_nan_level_makes_the_command_fail(nan_level_3, tmp_path):
    out = tmp_path / "report.json"
    result = CliRunner().invoke(main, ["verify", "--suites", "spectra", "--max-order", "3", "--out", str(out)])
    assert result.exit_code == 1, result.output
    assert "FAIL" in result.output and "residual nan" in result.output

    def reject(token):
        raise ValueError(f"{token} is not JSON")

    report = json.loads(out.read_text(), parse_constant=reject)
    failed = {r["identity"]: r["residual"] for r in report["results"] if not r["pass"]}
    assert set(failed) == LEVEL_ROWS & {r["identity"] for r in report["results"]}
    assert failed and all(residual is None for residual in failed.values())


def test_nan_field_sample_fails_its_row(monkeypatch):
    calls = itertools.count()
    b_field = fields.b_field

    def poisoned(model, x, y, z):
        # one call inside the finite differences of the second sample point
        return np.full(3, math.nan) if next(calls) == 6 else b_field(model, x, y, z)

    monkeypatch.setattr(fields, "b_field", poisoned)
    rows = {r.identity: r for r in verify.suite_fields(0)}
    row = rows.pop("div B = 0 at beta=0.0")
    assert not row.passed and math.isnan(row.residual)
    assert all(r.passed for r in rows.values())
