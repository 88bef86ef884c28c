import random
from fractions import Fraction

import pytest

from bsing.polyring import (
    ParseError,
    Polynomial,
    PowerSeries1,
    SeriesError,
    VarContext,
    parse_polynomial,
    parse_series,
    quasihomogeneous_components,
    series_integrate_monomial_weighted,
    series_rational_power,
    weighted_degree,
)
from series_oracle import power_oracle

XY = VarContext(("x", "y"), 0)


def poly(s: str, ctx=XY) -> Polynomial:
    return parse_polynomial(s, ctx)


def random_poly(rng: random.Random, ctx=XY, max_deg=4, terms=5) -> Polynomial:
    out = {}
    for _ in range(rng.randint(1, terms)):
        m = tuple(rng.randint(0, max_deg) for _ in range(ctx.arity))
        out[m] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return Polynomial(ctx, out)


class TestParsing:
    def test_basic_terms(self):
        assert poly("x + y^3").terms == {(1, 0): 1, (0, 3): 1}

    def test_f4_normal_form(self):
        assert poly("x^2+y^3").terms == {(2, 0): 1, (0, 3): 1}

    def test_rational_coefficients(self):
        assert poly("2*x*y - 1/3*y^2").terms == {
            (1, 1): Fraction(2),
            (0, 2): Fraction(-1, 3),
        }

    def test_leading_minus_and_constants(self):
        assert poly("-x + 2").terms == {(1, 0): -1, (0, 0): 2}

    def test_implicit_coefficient_product(self):
        assert poly("2x") == poly("2*x")

    def test_unknown_variable(self):
        with pytest.raises(ParseError, match="unknown variable 'z'"):
            poly("x + z")

    def test_syntax_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            poly("x + + y")
        assert "position" in str(err.value)

    def test_parentheses_rejected_at_their_position(self):
        for text, at in (("(x+y)", 0), ("x*(y)", 2), ("x)", 1), ("2(x)", 1)):
            with pytest.raises(ParseError) as err:
                poly(text)
            assert err.value.position == at, text

    def test_dangling_operator(self):
        with pytest.raises(ParseError):
            poly("x +")

    def test_fractional_exponent_rejected(self):
        with pytest.raises(ParseError):
            poly("x^1/2")

    def test_roundtrip_through_str(self):
        rng = random.Random(5)
        for _ in range(25):
            p = random_poly(rng)
            if p.is_zero():
                continue
            assert parse_polynomial(str(p), XY) == p


class TestWeightedDegree:
    def test_a2_weights(self):
        assert weighted_degree(poly("x+y^3"), (1, Fraction(1, 3))) == 1

    def test_constant(self):
        assert weighted_degree(poly("5"), (1, Fraction(1, 3))) == 0

    def test_mixed_marker(self):
        assert weighted_degree(poly("x+y"), (1, Fraction(1, 3))) is None

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            weighted_degree(Polynomial.zero(XY), (1, 1))

    def test_components_split(self):
        comps = quasihomogeneous_components(poly("x+y"), (1, Fraction(1, 3)))
        assert [(d, str(p)) for d, p in comps] == [(Fraction(1, 3), "y"), (Fraction(1), "x")]

    def test_components_single(self):
        comps = quasihomogeneous_components(poly("x+y^3"), (1, Fraction(1, 3)))
        assert len(comps) == 1 and comps[0][0] == 1

    def test_components_empty(self):
        assert quasihomogeneous_components(Polynomial.zero(XY), (1, 1)) == []

    def test_components_partition(self):
        rng = random.Random(11)
        for _ in range(30):
            p = random_poly(rng)
            w = (Fraction(rng.randint(1, 4)), Fraction(1, rng.randint(1, 5)))
            total = Polynomial.zero(XY)
            for _, part in quasihomogeneous_components(p, w):
                total = total + part
            assert total == p


class TestRingLaws:
    def test_exact_ring_laws(self):
        rng = random.Random(23)
        for _ in range(40):
            a, b, c = (random_poly(rng) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)

    def test_leibniz_rule(self):
        rng = random.Random(29)
        for _ in range(40):
            a, b = random_poly(rng), random_poly(rng)
            for i in range(2):
                lhs = (a * b).partial_derivative(i)
                rhs = a.partial_derivative(i) * b + a * b.partial_derivative(i)
                assert lhs == rhs

    def test_substitute_zero(self):
        p = poly("x^2+x*y+y^3")
        q = p.substitute_zero(0)
        assert q.context.names == ("y",)
        assert q.terms == {(3,): 1}


class TestSeries:
    def test_integrate_constant(self):
        w = series_integrate_monomial_weighted(PowerSeries1([1]), 1)
        assert w == PowerSeries1([1])

    def test_integrate_linear_n1(self):
        # substituting w = 1 + b t into (2/(n+2)) t w' + w = 1 + t gives
        # b = (n+2)/(n+4) = 3/5 at n = 1
        w = series_integrate_monomial_weighted(PowerSeries1([1, 1]), 1)
        assert w == PowerSeries1([1, Fraction(3, 5)])

    def test_integrate_quadratic_n2(self):
        # same substitution with w = 1 + b t^2: b = (n+2)/(n+6) = 1/2 at n = 2
        w = series_integrate_monomial_weighted(PowerSeries1([1, 0, 1]), 2)
        assert w == PowerSeries1([1, 0, Fraction(1, 2)])

    def test_integrate_solves_ode_exactly(self):
        rng = random.Random(3)
        for n in (1, 2, 3, 7):
            coeffs = [Fraction(1)] + [
                Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(12)
            ]
            c = PowerSeries1(coeffs)
            w = series_integrate_monomial_weighted(c, n)
            residual = w.t_derivative().scale(Fraction(2, n + 2)) + w - c
            assert residual.is_zero()

    def test_power_identity(self):
        assert series_rational_power(PowerSeries1([1, 0, 0]), Fraction(2, 3)) == PowerSeries1([1, 0, 0])

    def test_power_exact_square(self):
        assert series_rational_power(PowerSeries1([1, 1, 0]), 2) == PowerSeries1([1, 2, 1])

    def test_power_requires_unit_constant(self):
        with pytest.raises(SeriesError):
            series_rational_power(PowerSeries1([2, 1]), Fraction(1, 2))

    def test_power_roundtrip(self):
        rng = random.Random(41)
        for _ in range(20):
            coeffs = [Fraction(1)] + [
                Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(10)
            ]
            s = PowerSeries1(coeffs)
            q = Fraction(rng.randint(1, 5), rng.randint(1, 5))
            assert series_rational_power(series_rational_power(s, q), 1 / q) == s

    def test_parse_series(self):
        assert parse_series("1,1,1/2") == PowerSeries1([1, 1, Fraction(1, 2)])
        with pytest.raises(ParseError):
            parse_series("1,,2")

    def test_binary_ops_truncate_to_shorter(self):
        a = PowerSeries1([1, 2, 3])
        b = PowerSeries1([1, 1])
        assert (a + b).order == 1
        assert (a * b) == PowerSeries1([1, 3])


def _mul_oracle(a: PowerSeries1, b: PowerSeries1) -> PowerSeries1:
    n = min(a.order, b.order)
    return PowerSeries1(
        sum((a[i] * b[k - i] for i in range(k + 1)), Fraction(0)) for k in range(n + 1)
    )


def _seeded_series(rng: random.Random, order: int, sparse: bool) -> PowerSeries1:
    """1 + (four random terms, or a random coefficient at every order)."""
    coeffs = [Fraction(1)] + [Fraction(0)] * order
    slots = rng.sample(range(1, order + 1), min(4, order)) if sparse else range(1, order + 1)
    for j in slots:
        coeffs[j] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 4))
    return PowerSeries1(coeffs)


def _isochore_w(rng: random.Random, n: int, order: int) -> PowerSeries1:
    """w of a 4-term volume coefficient c, as `bsing isochore` builds it."""
    return series_integrate_monomial_weighted(_seeded_series(rng, order, sparse=True), n)


# exponent kinds by the number n of non-boundary variables
EXPONENTS = {
    "2/(n+2)": lambda n: Fraction(2, n + 2),
    "(n+2)/2": lambda n: Fraction(n + 2, 2),
    "negative": lambda n: Fraction(-(2 * n + 1), 3),
    "integer": lambda n: n + 2,
    "zero": lambda n: 0,
}


class TestMillerRecurrence:
    @pytest.mark.parametrize("sparse", [True, False], ids=["sparse", "dense"])
    @pytest.mark.parametrize("kind", EXPONENTS)
    def test_matches_double_sum_oracle(self, kind, sparse):
        rng = random.Random(f"{kind}/{sparse}")
        for n in range(4):
            q = EXPONENTS[kind](n)
            for order in (0, 1, 2, 9, 40):
                s = _seeded_series(rng, order, sparse)
                assert series_rational_power(s, q) == power_oracle(s, q), (n, order)

    @pytest.mark.parametrize("n", range(4))
    def test_matches_oracle_at_order_200(self, n):
        rng = random.Random(200 + n)
        q = Fraction(2, n + 2)
        w = _isochore_w(rng, n, 200)
        assert series_rational_power(w, q) == power_oracle(w, q)
        if n == 3:
            s = _seeded_series(rng, 200, sparse=False)
            assert series_rational_power(s, q) == power_oracle(s, q)

    @pytest.mark.parametrize("kind", ["2/(n+2)", "(n+2)/2", "negative", "integer"])
    def test_roundtrip(self, kind):
        rng = random.Random(kind)
        for n in range(4):
            q = Fraction(EXPONENTS[kind](n))
            for sparse in (True, False):
                w = _isochore_w(rng, n, 60) if sparse else _seeded_series(rng, 25, False)
                assert series_rational_power(series_rational_power(w, q), 1 / q) == w

    @pytest.mark.parametrize("n", range(4))
    def test_v_to_the_n_plus_2_is_w_squared(self, n):
        w = _isochore_w(random.Random(n), n, 60)
        v = series_rational_power(w, Fraction(2, n + 2))
        power = PowerSeries1.constant(1, w.order)
        for _ in range(n + 2):
            power = power * v
        assert power == w * w

    @pytest.mark.parametrize("coeffs", [[2, 1], [0, 1], [-1, 0, 3], [3], [0]])
    def test_constant_term_must_be_one(self, coeffs):
        for q in (Fraction(1, 2), 2, 0):
            with pytest.raises(SeriesError):
                series_rational_power(PowerSeries1(coeffs), q)

    def test_mul_with_zero_coefficients_matches_the_double_sum(self):
        rng = random.Random(7)
        for _ in range(30):
            a = _seeded_series(rng, rng.randint(0, 30), rng.random() < 0.5)
            b = _seeded_series(rng, rng.randint(0, 30), rng.random() < 0.5)
            a = a.scale(rng.choice((0, 1, Fraction(-2, 3))))
            assert a * b == _mul_oracle(a, b)
            assert b * a == _mul_oracle(b, a)
