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


def miller_oracle(s: PowerSeries1, q) -> PowerSeries1:
    """s^q by Miller's recurrence over the support of s in Fraction
    arithmetic, every term its own Fraction operation: the loop
    series_rational_power ran before it moved to integers."""
    if s[0] != 1:
        raise SeriesError("rational powers require constant term 1")
    q1 = Fraction(q) + 1
    support = [(i, q1 * i * c, c) for i, c in enumerate(s.coefficients) if i and c]
    r = [Fraction(1)]
    for k in range(1, s.order + 1):
        acc = Fraction(0)
        for i, a, c in support:
            if i > k:
                break
            acc += (a - k * c) * r[k - i]
        r.append(acc / k)
    return PowerSeries1(r)
