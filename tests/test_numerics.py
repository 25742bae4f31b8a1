import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from wst.numerics import NEG_INF, log1mexp, log_add, log_sum, star_log_prob

finite = st.floats(min_value=-50, max_value=50)


def test_log_add_equal_weights():
    assert log_add(0.0, 0.0) == pytest.approx(math.log(2), abs=1e-12)


def test_log_add_neg_inf_identity():
    assert log_add(NEG_INF, -1.5) == -1.5
    assert log_add(-1.5, NEG_INF) == -1.5
    assert log_add(NEG_INF, NEG_INF) == NEG_INF


def test_log_add_probabilities_summing_to_one():
    assert log_add(math.log(1 / 3), math.log(2 / 3)) == pytest.approx(0.0, abs=1e-12)


def test_log_sum_empty_is_zero_element():
    assert log_sum([]) == NEG_INF


def test_log_sum_four_quarters():
    assert log_sum([math.log(0.25)] * 4) == pytest.approx(0.0, abs=1e-12)


def test_log_sum_derived_value():
    expected = math.log(math.exp(-1) + math.exp(-2) + math.exp(-3))
    assert log_sum([-1.0, -2.0, -3.0]) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(-0.592394, abs=1e-6)


def test_log_sum_all_neg_inf():
    assert log_sum([NEG_INF, NEG_INF]) == NEG_INF


@given(finite, finite, finite)
def test_associativity_within_tolerance(a, b, c):
    left = log_add(log_add(a, b), c)
    right = log_add(a, log_add(b, c))
    assert abs(left - right) <= 1e-12


@given(finite, finite)
def test_commutative(a, b):
    assert log_add(a, b) == log_add(b, a)


@given(finite, finite)
def test_monotonicity(a, b):
    # >= rather than >: the increment underflows for widely separated inputs
    assert log_add(a, b) >= max(a, b)


@given(finite)
def test_monotonicity_equality_iff_neg_inf(a):
    assert log_add(a, NEG_INF) == a


@given(st.floats(min_value=-700, max_value=700), st.floats(min_value=-700, max_value=700))
def test_no_overflow_up_to_700(a, b):
    r = log_add(a, b)
    assert math.isfinite(r)
    assert r >= max(a, b)


@given(st.lists(finite, min_size=1, max_size=20))
def test_log_sum_order_independent(vals):
    assert abs(log_sum(vals) - log_sum(list(reversed(vals)))) <= 1e-12


def test_log1mexp_limits():
    assert log1mexp(0.0) == NEG_INF
    assert log1mexp(NEG_INF) == pytest.approx(0.0, abs=1e-15)
    b = math.log(0.3)
    assert log1mexp(b) == pytest.approx(math.log(0.7), abs=1e-12)


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


def test_log1mexp_array_matches_math_formulas():
    out = log1mexp(np.asarray(EDGE_VALUES))
    assert isinstance(out, np.ndarray) and out.shape == (len(EDGE_VALUES),)
    for b, got in zip(EDGE_VALUES, out):
        assert_close_or_neg_inf(float(got), math_log1mexp(b))


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
        assert type(log1mexp(x)) is float
        assert type(star_log_prob(x, 4)) is float
        assert_close_or_neg_inf(log1mexp(x), math_log1mexp(b))


@pytest.mark.parametrize("v_size", [1, 0])
def test_star_log_prob_needs_two_symbols(v_size):
    with pytest.raises(ValueError, match="vocab_size must be at least 2"):
        star_log_prob(-1.0, v_size)
