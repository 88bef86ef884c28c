"""Reference implementations shared by the test modules."""

from fractions import Fraction

from bsing.polyring import PowerSeries1, SeriesError


def power_oracle(s: PowerSeries1, q) -> PowerSeries1:
    """s^q by the O(N^2) double sum of r' s = q s' r, coefficient by
    coefficient: the recurrence series_rational_power used before Miller's."""
    if s[0] != 1:
        raise SeriesError("rational powers require constant term 1")
    q = Fraction(q)
    n = s.order
    r = [Fraction(1)] + [Fraction(0)] * n
    for j in range(n):
        acc = Fraction(0)
        for i in range(j + 1):
            acc += q * (i + 1) * s[i + 1] * r[j - i]
        for i in range(j):
            acc -= (i + 1) * r[i + 1] * s[j - i]
        r[j + 1] = acc / (j + 1)
    return PowerSeries1(r)
