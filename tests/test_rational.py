import os
import subprocess
import sys
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

import pvcgap
from pvcgap.rational import (
    BACKEND,
    Rat,
    as_rational,
    decimal_str,
    integral,
    parse_rational,
    rational_str,
)


def test_backend_is_reported():
    assert BACKEND == "fraction" and Rat is Fraction


def test_the_environment_does_not_pick_the_rational_type():
    # the rational type is fixed: PVCGAP_RATIONAL is not read
    src = os.path.dirname(os.path.dirname(pvcgap.__file__))
    env = dict(os.environ, PVCGAP_RATIONAL="gmpy2",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = "import fractions, pvcgap; print(pvcgap.Rat is fractions.Fraction)"
    r = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "True"


_values = st.lists(
    st.one_of(
        st.integers(-10**9, 10**9),
        st.fractions(max_denominator=10**6),
        st.just(0),
        st.just(Rat(0)),
    ),
    max_size=12,
)


@given(values=_values)
def test_integral_scales_by_the_lcm_of_the_denominators(values):
    scale, ints = integral(values)
    assert scale == lcm(*(Rat(v).denominator for v in values))
    assert len(ints) == len(values)
    for v, k in zip(values, ints):
        assert type(k) is int and k == v * scale


def test_lowest_terms_and_positive_denominator():
    q = Rat(6, -4)
    assert q.numerator == -3 and q.denominator == 2


@given(
    a=st.integers(-10**6, 10**6),
    b=st.integers(1, 10**6),
    c=st.integers(-10**6, 10**6),
    d=st.integers(1, 10**6),
)
def test_sum_is_reduced(a, b, c, d):
    from math import gcd

    s = Rat(a, b) + Rat(c, d)
    assert s.denominator > 0
    assert gcd(int(s.numerator), int(s.denominator)) == 1


def test_parse_and_render_round_trip():
    assert parse_rational("3/7") == Rat(3, 7)
    assert parse_rational("-12") == Rat(-12)
    assert parse_rational("0.25") == Rat(1, 4)
    assert rational_str(Rat(3, 7)) == "3/7"
    assert rational_str(1) == "1/1"
    with pytest.raises(ValueError):
        parse_rational("abc")


def test_exponent_literals_parse_exactly_within_the_digit_limit():
    assert parse_rational("1e-3") == Rat(1, 1000)
    assert parse_rational("2.5e-1") == parse_rational("0.25") == Rat(1, 4)
    limit = sys.get_int_max_str_digits()
    assert parse_rational(f"1e{limit - 1}") == 10 ** (limit - 1)  # exactly `limit` digits
    for text in (f"1e{limit}", f"1e-{limit}", "1e-5000", "1e-999999999999",
                 "1" * (limit - 1) + "." + "1" * (limit - 1)):  # the digits of both parts
        with pytest.raises(ValueError, match=f"over {limit} digits"):
            parse_rational(text)


def test_floats_are_rejected():
    with pytest.raises(TypeError):
        as_rational(0.5)


def test_decimal_rendering_is_half_even_20_digits():
    assert decimal_str(Rat(1, 3)) == "0.33333333333333333333"
    assert decimal_str(Rat(2, 3)) == "0.66666666666666666667"
    # banker's rounding on the 21st digit: 1/2**21 style tie goes to even
    assert decimal_str(Rat(105, 1000)) == "0.105"
    assert decimal_str(Rat(15, 8)) == "1.875"
