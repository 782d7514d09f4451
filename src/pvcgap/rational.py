"""Exact rational scalars: `Rat` is `fractions.Fraction`.

The moment weights, the LDL^T and the simplex compute on Python integers
over shared denominators; `integral` is the one place a list of rationals
is scaled to integers.  Floats are rejected everywhere: a float argument
is a bug, not a value to be rounded.
"""

from __future__ import annotations

import decimal
import numbers
import sys
from fractions import Fraction
from math import lcm

Rat = Fraction
BACKEND = "fraction"

ZERO = Rat(0)
ONE = Rat(1)


def as_rational(x):
    """Coerce an int, Fraction or 'a/b' string to Rat.

    Floats are rejected outright so no binary rounding can sneak in.
    """
    if type(x) is Rat:
        return x
    if isinstance(x, float):
        raise TypeError(f"refusing float {x!r}; pass an exact rational")
    if isinstance(x, (int, numbers.Rational)):
        return Rat(x)
    if isinstance(x, str):
        return parse_rational(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def parse_rational(text: str):
    """Parse 'a/b', an integer, or an exact decimal literal like '0.25' or '2.5e-1'.

    Like `int` on a typed-out literal, it refuses a numerator or denominator
    past `sys.get_int_max_str_digits()` digits, which no certificate could
    print; an exponent is bounded before `Fraction` expands it."""
    limit = getattr(sys, "get_int_max_str_digits", int)()  # no limit (0) before 3.10.7
    mantissa, _, exp = text.strip().lower().partition("e")
    try:
        big = bool(limit and exp) and abs(int(exp)) > limit + len(mantissa)
        q = ZERO if big else Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational literal: {text!r}") from exc
    top = max(abs(q.numerator), q.denominator)  # 2**(3 limit) < 10**limit below
    if big or limit and top.bit_length() > 3 * limit and top >= 10**limit:
        raise ValueError(f"rational literal {text!r} has over {limit} digits "
                         "in its numerator or denominator")
    return q


def integral(values) -> tuple:
    """(scale, ints): the least positive scale and ints[i] == values[i] * scale.

    `values` holds ints and Rats; scale is the lcm of their denominators.
    """
    scale = lcm(*(v.denominator for v in values))
    return scale, [v.numerator * (scale // v.denominator) for v in values]


def rational_str(q) -> str:
    """Render as 'num/den', always carrying the denominator ('3/7', '1/1')."""
    q = as_rational(q)
    return f"{q.numerator}/{q.denominator}"


def decimal_str(q) -> str:
    """Decimal rendering, 20 significant digits, round-half-even.

    For human eyes only; comparisons in this package are always exact.
    """
    q = as_rational(q)
    with decimal.localcontext() as ctx:
        ctx.prec = 20
        ctx.rounding = decimal.ROUND_HALF_EVEN
        d = decimal.Decimal(q.numerator) / decimal.Decimal(q.denominator)
    return str(d)
