"""Exact rational scalars.

All geometry in this package is done over Q.  We use gmpy2.mpq when it is
available (it is a drop-in exact rational, noticeably faster than
fractions.Fraction) and fall back to the standard library otherwise.
Both keep values in lowest terms with a positive denominator.
"""

from fractions import Fraction
from math import gcd

try:
    from gmpy2 import mpq as QQ
except ImportError:  # pragma: no cover - exercised only without gmpy2
    QQ = Fraction

ZERO = QQ(0)
ONE = QQ(1)


def rat(value):
    """Coerce ints, strings like '3/4' or '-2', or rationals to QQ."""
    if isinstance(value, str):
        return QQ(*ratio(value.strip()))
    if isinstance(value, float):
        raise TypeError("floats are not exact; pass an int, string or rational")
    return QQ(value)


def ratio(text):
    """(p, q) with q > 0 for the text 'p' or 'p/q', without building the
    rational: Python int syntax on each side of the slash, a negative
    denominator allowed."""
    try:
        if "/" not in text:
            return int(text), 1
        p, q = map(int, text.split("/"))
    except ValueError:
        raise ValueError("%r is not an integer or p/q" % text) from None
    if q == 0:
        raise ValueError("zero denominator in %r" % text)
    return (-p, -q) if q < 0 else (p, q)


def numbered_lines(text):
    """(line number, stripped line) of each non-blank line of a text
    format, numbered over every line of the text from 1."""
    return [(n, ln) for n, ln in enumerate((raw.strip() for raw in text.splitlines()), 1) if ln]


def rat_str(q):
    """Render as 'p' or 'p/q' (lowest terms, q > 0)."""
    q = QQ(q)
    if q.denominator == 1:
        return str(q.numerator)
    return "%d/%d" % (q.numerator, q.denominator)


def ratio_str(x, p):
    """rat_str of x/p for integers x and p > 0, without building the rational."""
    g = gcd(x, p)
    return str(x // g) if g == p else "%d/%d" % (x // g, p // g)


def vec(values):
    return tuple(rat(v) for v in values)
