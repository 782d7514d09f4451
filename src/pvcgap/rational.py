"""Exact rational scalars.

The whole toolkit computes over arbitrary-precision rationals stored in
lowest terms with a positive denominator.  Two interchangeable backends
provide that contract: gmpy2's compiled ``mpq`` (picked up automatically
when installed) and the stdlib ``fractions.Fraction`` as the pure-Python
fallback.  gmpy2 has not been timed on this code; the moment weights,
the LDL^T and the simplex compute on Python integers over shared
denominators whatever the backend.
The backend is selected once at import; set ``PVCGAP_RATIONAL=fraction``
or ``PVCGAP_RATIONAL=gmpy2`` to force one.

Floats are rejected everywhere: a float argument is a bug, not a value to
be rounded.
"""

from __future__ import annotations

import decimal
import numbers
import os
from fractions import Fraction

_requested = os.environ.get("PVCGAP_RATIONAL", "").strip().lower()

if _requested in ("", "gmpy2", "gmp"):
    try:
        from gmpy2 import mpq as Rat

        BACKEND = "gmpy2"
    except ImportError:
        if _requested:
            raise
        Rat = Fraction
        BACKEND = "fraction"
elif _requested in ("fraction", "fractions", "python"):
    Rat = Fraction
    BACKEND = "fraction"
else:
    raise ValueError(f"unknown PVCGAP_RATIONAL backend {_requested!r}")

ZERO = Rat(0)
ONE = Rat(1)


def as_rational(x):
    """Coerce an int, backend rational, Fraction or 'a/b' string to Rat.

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
    """Parse 'a/b', an integer, or an exact decimal literal like '0.25'."""
    s = text.strip()
    try:
        f = Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational literal: {text!r}") from exc
    return Rat(f)


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
        d = decimal.Decimal(int(q.numerator)) / decimal.Decimal(int(q.denominator))
    return str(d)
