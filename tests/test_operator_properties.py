"""Property tests of the operator constructors over alpha in [0, pi/2]
and beta in (0, 1)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from als.gstate import op_commutator
from als.modes import beta_to_alpha
from als.operators import dilate, h_as, h_perp, h_phys, schwinger_operator

alphas = st.floats(min_value=0.0, max_value=math.pi / 2)
signs = st.sampled_from((-1, 1))
bad_signs = st.integers().filter(lambda s: s not in (-1, 1))


@settings(deadline=None)
@given(alpha=alphas, sign=signs)
def test_h_perp_is_the_unrotated_schwinger_operator(alpha, sign):
    # same keys in the same order with equal coefficients, so apply() and
    # inner_product() give the same bits through either constructor
    lhs = list(h_perp(alpha, sign).terms.items())
    rhs = list(schwinger_operator(0.0, alpha, sign).terms.items())
    assert lhs == rhs


@settings(deadline=None)
@given(alpha=alphas, sign=signs)
def test_h_perp_commutes_with_h_as(alpha, sign):
    assert op_commutator(h_perp(alpha, sign), h_as(alpha, sign)).max_coeff() <= 1e-12


@settings(deadline=None)
@given(beta=st.floats(min_value=1e-3, max_value=1 - 1e-3), sign=signs)
def test_dilation_takes_h_phys_to_h_perp(beta, sign):
    # U^-1 Hphys(beta) U = Hperp(alpha(beta)) for the symmetrizing dilation U
    lx, ly = math.sqrt(2 * (1 - beta)), math.sqrt(2 * beta)
    diff = dilate(h_phys(beta, sign), lx, ly) - h_perp(beta_to_alpha(beta, sign), sign)
    assert diff.max_coeff() <= 1e-12


@given(alpha=alphas, sign=bad_signs)
def test_constructors_reject_bad_sign(alpha, sign):
    for make in (
        lambda: h_as(alpha, sign),
        lambda: h_perp(alpha, sign),
        lambda: h_phys(0.5, sign),
        lambda: schwinger_operator(0.0, alpha, sign),
    ):
        with pytest.raises(ValueError, match="sign_e"):
            make()
