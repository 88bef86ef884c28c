import hashlib
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
    series_integrate_monomial_weighted,
    series_rational_power,
)
from bsing import cli
from series_oracle import miller_oracle, power_oracle

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


# pieces of the seeded parser corpus: operands and operators alternate,
# with a stray piece in about one slot of seven
CORPUS_OPERANDS = ("x", "y", "z", "2", "0", "3/4", "1/0", "1 / 2", "2x", " x", "x y",
                   "x^2", "y^0", "x ^ 3/4")
CORPUS_OPERATORS = ("+", "-", "*", " + ", " - ", "^", " ", "", "2")
CORPUS_STRAYS = ("(", ")", "$", "^", "*", "-", "\t")
# sha256 of (text, str(result) or (message, position)) over the corpus,
# taken while the parser still ran one loop per term
PARSER_CORPUS_SHA256 = "bebb35ed802148c814bfad1d712d1a2d6f39b5908f5b88b07dffaf23b818aded"


def parser_corpus(n: int = 5000) -> list[str]:
    rng = random.Random(22)
    out = []
    while len(out) < n:
        text = ""
        for k in range(rng.randint(1, 7)):
            pool = (CORPUS_OPERANDS, CORPUS_OPERATORS)[k % 2]
            text += rng.choice(pool if rng.random() < 0.85 else CORPUS_STRAYS)
        if text == text.rstrip():  # trailing whitespace is pinned apart
            out.append(text)
    return out


class TestParserCorpus:
    def test_results_and_errors_match_the_pinned_digest(self):
        h = hashlib.sha256()
        for text in parser_corpus():
            try:
                got = str(poly(text))
            except ParseError as e:
                got = (str(e), e.position)
            h.update(repr((text, got)).encode())
        assert h.hexdigest() == PARSER_CORPUS_SHA256

    def test_a_name_may_follow_any_number_token(self):
        assert poly("x^2y") == poly("x^2*y")
        assert poly("1/2 x") == poly("1/2*x")

    def test_trailing_whitespace_is_ignored(self):
        assert poly("x^2+y^3 ") == poly("x^2+y^3")
        assert poly(" x \t\n") == poly("x")
        for text in ("", " ", "\t\n"):
            with pytest.raises(ParseError) as err:
                poly(text)
            assert (str(err.value), err.value.position) == (
                "empty polynomial (at position 0)", 0)


class TestConstructorContract:
    def test_rejects_a_monomial_of_the_wrong_arity(self):
        with pytest.raises(ValueError, match="arity"):
            Polynomial(XY, {(1, 0, 0): 1})

    def test_rejects_a_negative_exponent(self):
        with pytest.raises(ValueError, match="negative exponent"):
            Polynomial(XY, {(1, -1): 1})

    @pytest.mark.parametrize("e", [1.5, 2.0, Fraction(1), "2", None, True])
    def test_rejects_a_non_integer_exponent(self, e):
        # a float exponent once built x^1.5 + y^2, on which derivatives
        # broke the Fraction invariant of every internal result
        with pytest.raises(ValueError, match="non-integer"):
            Polynomial(XY, {(e, 0): 1, (0, 2): 1})

    def test_merges_duplicates_drops_zero_sums_and_makes_fractions(self):
        p = Polynomial(XY, {(1, 0): 2, (0, 1): 0, (2, 0): Fraction(1, 2)})
        assert p.terms == {(1, 0): 2, (2, 0): Fraction(1, 2)}
        assert all(type(c) is Fraction for c in p.terms.values())
        q = Polynomial(XY, _Pairs(((1, 0), 2), ([1, 0], 3), ((0, 2), 1), ((0, 2), -1)))
        assert q.terms == {(1, 0): 5}
        assert type(q.terms[(1, 0)]) is Fraction


class _Pairs:
    """A terms mapping given as (monomial, coefficient) pairs, so that one
    monomial can repeat (a dict cannot hold the repeat)."""

    def __init__(self, *pairs):
        self._pairs = pairs

    def items(self):
        return iter(self._pairs)


class TestTrustedArithmetic:
    """Results built without the constructor's checks must still satisfy
    them: nonzero Fraction coefficients, equal to a checked rebuild."""

    @staticmethod
    def _assert_clean(p: Polynomial):
        assert all(type(c) is Fraction and c != 0 for c in p._terms.values())
        assert all(len(m) == p.context.arity and min(m) >= 0 for m in p._terms)
        assert Polynomial(p.context, p._terms) == p

    def test_results_hold_only_nonzero_fractions(self):
        rng = random.Random(31)
        for _ in range(200):
            a, b = random_poly(rng), random_poly(rng)
            c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            # b - a.scale(k) cancels at least one term of b whenever a and
            # b share a monomial; a - a and a + (-a) cancel everything
            shared = set(a._terms) & set(b._terms)
            k = b._terms[min(shared)] / a._terms[min(shared)] if shared else c
            results = [
                a + b, a - b, -a, a * b, a.scale(c), a.scale(0),
                a - a, a + (-a), b - a.scale(k),
            ]
            for p in results:
                self._assert_clean(p)
            assert (a - a).is_zero() and a.scale(0).is_zero()
            if shared:
                assert min(shared) not in (b - a.scale(k))._terms

    def test_derivatives_and_restriction_match_the_checked_constructor(self):
        rng = random.Random(43)
        xyz = VarContext(("x", "y", "z"), 0)
        for _ in range(120):
            ctx = rng.choice((XY, xyz))
            p = random_poly(rng, ctx)
            for i in range(ctx.arity):
                checked: dict = {}
                for m, c in p.terms.items():
                    if m[i]:
                        dm = m[:i] + (m[i] - 1,) + m[i + 1:]
                        checked[dm] = checked.get(dm, 0) + c * m[i]
                d = p.partial_derivative(i)
                self._assert_clean(d)
                assert d == Polynomial(ctx, checked)
                restricted = {}
                for m, c in p.terms.items():
                    if not m[i]:
                        restricted[m[:i] + m[i + 1:]] = restricted.get(m[:i] + m[i + 1:], 0) + c
                r = p.substitute_zero(i)
                self._assert_clean(r)
                assert r == Polynomial(ctx.drop(i), restricted)


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

    def test_parse_series_rejects_a_zero_denominator(self):
        with pytest.raises(ParseError, match="zero denominator") as err:
            parse_series("1, 1/0")
        assert err.value.position == 3

    def test_parse_series_reports_positions_in_the_original_text(self):
        for text, at in (("1, x", 3), ("1,  2 , y", 8), (" ,1", 1), ("1,\t", 3)):
            with pytest.raises(ParseError) as err:
                parse_series(text)
            assert err.value.position == at, text
        assert parse_series(" 1 , -1/2 ") == PowerSeries1([1, Fraction(-1, 2)])

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


# coefficient denominators that share the factors 2 and 3, and that are
# pairwise coprime
DENOMINATORS = {"shared": (2, 4, 6, 12, 18), "coprime": (1, 5, 7, 11, 13)}
# exponents that are negative, integers, or have a large denominator
DIFFERENTIAL_EXPONENTS = [
    Fraction(-7, 3), Fraction(-1, 2), -5, -1, 3, 0,
    Fraction(12345, 1000003), Fraction(-2, 2**61 - 1),
]


def _gapped_series(rng: random.Random, order: int, dense: bool, dens) -> PowerSeries1:
    """1 + a coefficient at every order (dense), or at a few orders with
    gaps between them and usually none at t^1."""
    coeffs = [Fraction(1)] + [Fraction(0)] * order
    if dense:
        slots = range(1, order + 1)
    else:
        slots = sorted(rng.sample(range(1, order + 1), min(3, order)))
        if len(slots) > 1 and rng.random() < 0.7:
            slots = slots[1:]
    for j in slots:
        coeffs[j] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.choice(dens))
    return PowerSeries1(coeffs)


class TestIntegerMiller:
    """series_rational_power against the Fraction loop of Miller's recurrence."""

    @pytest.mark.parametrize("dens", DENOMINATORS)
    @pytest.mark.parametrize("dense", [True, False], ids=["dense", "gapped"])
    @pytest.mark.parametrize("q", DIFFERENTIAL_EXPONENTS, ids=str)
    def test_matches_the_fraction_loop(self, q, dense, dens):
        rng = random.Random(f"{q}/{dense}/{dens}")
        for order in (0, 1, 2, 3, 7, 30):
            for _ in range(3):
                s = _gapped_series(rng, order, dense, DENOMINATORS[dens])
                got = series_rational_power(s, q)
                assert got == miller_oracle(s, q), (order, s)
                assert type(got.coefficients) is tuple
                assert all(type(c) is Fraction for c in got.coefficients)


def _assert_public(s: PowerSeries1, coefficients) -> None:
    """s holds a tuple of exact Fractions and equals what the public
    constructor builds from ``coefficients``."""
    assert type(s.coefficients) is tuple and s.coefficients
    assert all(type(c) is Fraction for c in s.coefficients)
    assert s == PowerSeries1(coefficients)


class TestTrustedSeries:
    """Every series built through PowerSeries1._trusted, against the
    public constructor."""

    S = PowerSeries1([1, 0, Fraction(-2, 3), 5])

    def test_pad_truncate_and_shift(self):
        _assert_public(self.S.pad(3), [1, 0, Fraction(-2, 3), 5])
        _assert_public(self.S.pad(6), [1, 0, Fraction(-2, 3), 5, 0, 0, 0])
        _assert_public(self.S.truncate(1), [1, 0])
        _assert_public(self.S.truncate(9), [1, 0, Fraction(-2, 3), 5])
        _assert_public(self.S.shift_t(), [0, 1, 0, Fraction(-2, 3), 5])
        for order in (-1, -3):
            with pytest.raises(ValueError):
                self.S.truncate(order)

    def test_integrate_and_power(self):
        for n in (0, 1, 4):
            c = self.S.pad(8)
            _assert_public(
                series_integrate_monomial_weighted(c, n),
                [x * Fraction(n + 2, n + 2 + 2 * j) for j, x in enumerate(c.coefficients)],
            )
        for q in (Fraction(1, 2), -3, 0):
            got = series_rational_power(self.S, q)
            _assert_public(got, list(power_oracle(self.S, q).coefficients))

    def test_every_series_of_the_isochore_command(self, monkeypatch, capsys):
        built = []
        trusted = PowerSeries1._trusted.__func__

        def spy(cls, coefficients):
            built.append(trusted(cls, coefficients))
            return built[-1]

        monkeypatch.setattr(PowerSeries1, "_trusted", classmethod(spy))
        given = [1, Fraction(-2, 3), 0, Fraction(5, 2), 0, 0, 0]
        for order in (1, 6):  # truncated, then padded
            argv = ["isochore", "--c", "1,-2/3,0,5/2", "--n", "2", "--order", str(order)]
            assert cli.main(argv) == cli.EXIT_OK
            lines = capsys.readouterr().out.splitlines()[1:]
            c, w, power, psi, v = built[-5:]
            named = zip(("c", "w", "v", "psi"), (c, w, v, psi))
            assert lines == [f"{key:<3} = {x}" for key, x in named]
            _assert_public(c, given[: order + 1])
            _assert_public(w, [x * Fraction(2, 2 + j) for j, x in enumerate(c.coefficients)])
            _assert_public(power, list(miller_oracle(w, Fraction(1, 2)).coefficients))
            _assert_public(psi, [0, *power.coefficients])
            _assert_public(v, list(psi.coefficients[1:]))
        assert len(built) == 10
