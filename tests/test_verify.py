"""The verify runner and the reach of its suites."""

import pytest

from als import verify
from als.modes import ORDER_CAP


def test_repeated_suite_is_rejected():
    with pytest.raises(ValueError, match="'algebra' is named more than once"):
        verify.run(["algebra", "spectra", "algebra"], max_order=2)


def test_spectra_and_observables_hold_at_the_order_cap():
    rows = verify.suite_spectra(ORDER_CAP) + verify.suite_observables(ORDER_CAP)
    failed = [(r.identity, r.residual) for r in rows if not r.passed]
    assert len(rows) == 13 and not failed, failed
