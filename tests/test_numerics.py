import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from wst.numerics import NEG_INF, star_log_prob
from wst.wfst import EPSILON, Arc, Wfst, total_weight

finite = st.floats(min_value=-50, max_value=50)


def log_sum(*weights):
    """The package's log-sum: the forward sweep over parallel arcs, one np.logaddexp per arc."""
    return total_weight(Wfst(2, 0, 1, [Arc(0, 1, EPSILON, EPSILON, w) for w in weights]))


def test_log_add_equal_weights():
    assert log_sum(0.0, 0.0) == pytest.approx(math.log(2), abs=1e-12)


def test_log_add_neg_inf_identity():
    assert log_sum(NEG_INF, -1.5) == -1.5
    assert log_sum(-1.5, NEG_INF) == -1.5
    assert log_sum(NEG_INF, NEG_INF) == NEG_INF


def test_log_add_probabilities_summing_to_one():
    assert log_sum(math.log(1 / 3), math.log(2 / 3)) == pytest.approx(0.0, abs=1e-12)


def test_log_sum_empty_is_zero_element():
    assert log_sum() == NEG_INF


def test_log_sum_four_quarters():
    assert log_sum(*[math.log(0.25)] * 4) == pytest.approx(0.0, abs=1e-12)


def test_log_sum_derived_value():
    expected = math.log(math.exp(-1) + math.exp(-2) + math.exp(-3))
    assert log_sum(-1.0, -2.0, -3.0) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(-0.592394, abs=1e-6)


def test_log_sum_all_neg_inf():
    assert log_sum(NEG_INF, NEG_INF) == NEG_INF


@pytest.mark.parametrize("a, b", [(math.inf, 1.0), (1.0, math.inf), (math.inf, math.inf), (math.inf, NEG_INF)])
def test_logaddexp_gives_plus_inf_not_nan(a, b):
    """The forward sweep's log-add is +inf on +inf, never NaN; a max-shift log-add gives NaN here."""
    assert np.logaddexp(a, b) == math.inf


@given(finite, finite, finite)
def test_associativity_within_tolerance(a, b, c):
    left = log_sum(log_sum(a, b), c)
    right = log_sum(a, log_sum(b, c))
    assert abs(left - right) <= 1e-12


@given(finite, finite)
def test_commutative(a, b):
    assert log_sum(a, b) == log_sum(b, a)


@given(finite, finite)
def test_monotonicity(a, b):
    # >= rather than >: the increment underflows for widely separated inputs
    assert log_sum(a, b) >= max(a, b)


@given(finite)
def test_monotonicity_equality_iff_neg_inf(a):
    assert log_sum(a, NEG_INF) == a


@given(st.floats(min_value=-700, max_value=700), st.floats(min_value=-700, max_value=700))
def test_no_overflow_up_to_700(a, b):
    r = log_sum(a, b)
    assert math.isfinite(r)
    assert r >= max(a, b)


@given(st.lists(finite, min_size=1, max_size=20))
def test_log_sum_order_independent(vals):
    assert abs(log_sum(*vals) - log_sum(*reversed(vals))) <= 1e-12


def test_star_log_prob_limits():
    assert star_log_prob(0.0, 2) == NEG_INF
    assert star_log_prob(NEG_INF, 2) == 0.0
    assert star_log_prob(NEG_INF, 5) == -math.log(4)
    assert star_log_prob(math.log(0.3), 2) == pytest.approx(math.log(0.7), abs=1e-12)


def test_star_log_prob_uniform():
    assert star_log_prob(math.log(1 / 3), 3) == pytest.approx(math.log(1 / 3), abs=1e-12)


def test_star_log_prob_derived():
    assert star_log_prob(math.log(0.9), 5) == pytest.approx(math.log(0.025), abs=1e-12)
    assert math.log(0.025) == pytest.approx(-3.688879, abs=1e-6)


def test_star_log_prob_blank_takes_all():
    assert star_log_prob(0.0, 3) == NEG_INF


LN_HALF = math.log(0.5)
EDGE_VALUES = [0.0, -0.0, -1e-300, float(np.nextafter(LN_HALF, 0.0)), LN_HALF,
               float(np.nextafter(LN_HALF, -1.0)), -745.0, NEG_INF, 0.5]


def math_log1mexp(b):
    if b >= 0.0:
        return NEG_INF
    if b > LN_HALF:
        return math.log(-math.expm1(b))
    return math.log1p(-math.exp(b))


def assert_close_or_neg_inf(got, want):
    if want == NEG_INF:
        assert got == NEG_INF
    else:
        assert math.isclose(got, want, rel_tol=1e-15, abs_tol=0.0), (got, want)


def test_star_log_prob_array_matches_math_formulas():
    v_size = 7
    out = star_log_prob(np.asarray(EDGE_VALUES).reshape(3, 3), v_size)
    assert out.shape == (3, 3)
    for b, got in zip(EDGE_VALUES, out.ravel()):
        want = math_log1mexp(b) - math.log(v_size - 1)
        assert_close_or_neg_inf(float(got), want)


@pytest.mark.parametrize("b", EDGE_VALUES)
def test_scalar_input_gives_python_float(b):
    for x in (b, np.float64(b)):
        assert type(star_log_prob(x, 4)) is float
        assert_close_or_neg_inf(star_log_prob(x, 4), math_log1mexp(b) - math.log(3))


@pytest.mark.parametrize("v_size", [1, 0])
def test_star_log_prob_needs_two_symbols(v_size):
    with pytest.raises(ValueError, match="vocab_size must be at least 2"):
        star_log_prob(-1.0, v_size)
