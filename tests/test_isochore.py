import random
from fractions import Fraction

import pytest

from bsing.boundary import BoundarySingularity
from bsing.isochore import (
    Deformation,
    _coefficients,
    isochore_psi,
    verify_ode_residual,
    versality_check,
)
from bsing.polyring import (
    Polynomial,
    PowerSeries1,
    SeriesError,
    VarContext,
    parse_polynomial,
    series_rational_power,
)
from bsing.quasihomog import NotQuasihomogeneousError

F = Fraction


def random_unit_series(rng, order=20):
    return PowerSeries1(
        [F(1)] + [F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(order)]
    )


class TestIsochorePsi:
    def test_identity_volume_form(self):
        w, psi = isochore_psi(PowerSeries1([1]), 1)
        assert w == PowerSeries1([1])
        assert psi == PowerSeries1([0, 1])

    def test_identity_for_any_n(self):
        for n in (0, 1, 2, 5, 9):
            _, psi = isochore_psi(PowerSeries1([1, 0, 0]), n)
            assert psi == PowerSeries1([0, 1, 0, 0])

    def test_linear_volume_coefficient(self):
        # c = 1 + t, n = 1: w = 1 + (3/5) t and
        # psi = t (1 + (3/5) t)^(2/3) = t + (2/5) t^2 - (1/25) t^3 + ...
        c = PowerSeries1([1, 1, 0, 0, 0])
        w, psi = isochore_psi(c, 1)
        assert w == PowerSeries1([1, F(3, 5), 0, 0, 0])
        assert psi == PowerSeries1(
            [0, 1, F(2, 5), F(-1, 25), F(4, 375), F(-7, 1875)]
        )

    def test_rejects_bad_constant(self):
        with pytest.raises(SeriesError):
            isochore_psi(PowerSeries1([2, 1]), 1)

    @pytest.mark.parametrize("n", [2.0, True, F(2), -1])
    def test_rejects_a_non_integer_n(self, n):
        # 2.0 once failed inside the series code, and True passed as n = 1
        with pytest.raises(ValueError, match="n must be a natural number"):
            isochore_psi(PowerSeries1((1, 2, 3)), n)

    def test_residual_and_normalization(self):
        rng = random.Random(3)
        for n in (1, 2, 3):
            for _ in range(7):
                c = random_unit_series(rng)
                w, psi = isochore_psi(c, n)
                assert verify_ode_residual(c, w, n)
                assert psi[0] == 0 and psi[1] == 1
                # v^(n+2)/2 reproduces w after the round trip
                v = series_rational_power(w, F(2, n + 2))
                assert series_rational_power(v, F(n + 2, 2)) == w

    def test_determinism(self):
        rng = random.Random(8)
        c = random_unit_series(rng)
        assert isochore_psi(c, 2) == isochore_psi(c, 2)

    def test_truncation_is_coefficientwise_local(self):
        rng = random.Random(12)
        c = random_unit_series(rng, order=20)
        _, psi_full = isochore_psi(c, 1)
        _, psi_short = isochore_psi(c.truncate(9), 1)
        assert psi_full.coefficients[:11] == psi_short.coefficients


class TestOdeResidual:
    def test_trivial(self):
        assert verify_ode_residual(PowerSeries1([1]), PowerSeries1([1]), 1)

    def test_correct_solution(self):
        assert verify_ode_residual(
            PowerSeries1([1, 1]), PowerSeries1([1, F(3, 5)]), 1
        )

    def test_wrong_solution_rejected(self):
        # residual of w = 1 + t against c = 1 + t is (2/3 + 1 - 1) t != 0
        assert not verify_ode_residual(PowerSeries1([1, 1]), PowerSeries1([1, 1]), 1)


def family(text, vars_, params, boundary="x"):
    names = tuple(vars_) + tuple(params)
    ctx = VarContext(names, names.index(boundary))
    return Deformation.from_family(parse_polynomial(text, ctx), tuple(params))


class TestVersality:
    def test_f4_full_deformation(self):
        d = family("x^2+y^3+l1*x+l2*y+l3*x*y", ("x", "y"), ("l1", "l2", "l3"))
        rep = versality_check(d)
        assert rep.versal and rep.spanned_dimension == 4
        assert rep.missing_directions == ()

    def test_f4_partial_deformation(self):
        d = family("x^2+y^3+l1*x+l2*y", ("x", "y"), ("l1", "l2"))
        rep = versality_check(d)
        assert not rep.versal
        assert rep.spanned_dimension == 3
        assert rep.missing_directions == ((1, 1),)

    def test_relative_morse_with_constant(self):
        d = family("x+y^2+l1", ("x", "y"), ("l1",))
        rep = versality_check(d)
        assert rep.versal and rep.spanned_dimension == 1

    def test_nonlinear_parameter_dependence(self):
        # only the first-order velocity at lambda = 0 matters
        d = family("x^2+y^3+l1*x+l1^2*y^9", ("x", "y"), ("l1",))
        rep = versality_check(d)
        assert rep.spanned_dimension == 2

    def test_monotone_in_parameters(self):
        base = "x^2+y^3"
        extras = ["l1*x", "l2*y", "l3*x*y"]
        prev = 0
        for k in range(1, 4):
            text = base + "+" + "+".join(extras[:k])
            d = family(text, ("x", "y"), tuple(f"l{i}" for i in range(1, k + 1)))
            dim = versality_check(d).spanned_dimension
            assert dim >= prev
            prev = dim

    def test_full_monomial_basis_is_versal(self):
        d = family(
            "x*y+y^4+l1+l2*y+l3*y^2+l4*y^3",
            ("x", "y"),
            ("l1", "l2", "l3", "l4"),
        )
        assert versality_check(d).versal

    def test_non_quasihomogeneous_base_rejected(self):
        d = family("x+x^2*y+y^4+l1", ("x", "y"), ("l1",))
        with pytest.raises(NotQuasihomogeneousError):
            versality_check(d)

    def test_base_extraction(self):
        d = family("x^2+y^3+l1*x+l2*y^9", ("x", "y"), ("l1", "l2"))
        assert d.base.f == parse_polynomial("x^2+y^3", VarContext(("x", "y"), 0))
        assert [str(v) for v in d.velocities()] == ["x", "y^9"]


def chained_at_zero(p, params, ctx):
    """The oracle: one parameter at a time set to zero and dropped."""
    for q in params:
        p = p.substitute_zero(p.context.index(q))
    return Polynomial(ctx, p.terms)


def seeded_family(rng, rational=False):
    """(F, parameters, base context): a germ in 2 or 3 variables plus 1 to 3
    parameters, all names shuffled, with random terms that carry a
    parameter and random terms that do not.  ``rational`` draws non-integer
    coefficients too, and adds a term in the parameters alone."""
    germ = ["x^2+y^3", "x*y+y^4", "x^3+y^2+z^2"][rng.randrange(3)]
    variables = ["x", "y", "z"][: 3 if "z" in germ else 2]
    params = [f"l{i}" for i in range(rng.randint(1, 3))]
    names = variables + params
    rng.shuffle(names)
    ctx = VarContext(tuple(names), names.index("x"))
    terms = {}
    for _ in range(rng.randint(1, 6)):
        m = tuple(rng.randint(0, 2) for _ in names)
        terms[m] = F(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2, 3, 7]) if rational else 1)
    if rational:
        m = [0] * len(names)
        for _ in range(rng.randint(1, 2)):
            m[names.index(rng.choice(params))] += 1
        terms[tuple(m)] = F(rng.choice([-5, 1, 4]), rng.choice([1, 3]))
    F_poly = parse_polynomial(germ, ctx) + Polynomial(ctx, terms)
    base_names = tuple(n for n in names if n not in params)
    rng.shuffle(params)
    return F_poly, tuple(params), VarContext(base_names, base_names.index("x"))


class TestAtZero:
    def test_matches_chained_substitution(self):
        rng = random.Random(21)
        for _ in range(200):
            F_poly, params, base_ctx = seeded_family(rng)
            base = _coefficients(F_poly, params, base_ctx)[0]
            assert base == chained_at_zero(F_poly, params, base_ctx)
            for p in params:
                v = F_poly.partial_derivative(F_poly.context.index(p))
                v0 = _coefficients(v, params, base_ctx)[0]
                assert v0 == chained_at_zero(v, params, base_ctx)

    def test_deformations_with_parameters_anywhere(self):
        rng = random.Random(22)
        built = 0
        for _ in range(60):
            F_poly, params, base_ctx = seeded_family(rng)
            base = chained_at_zero(F_poly, params, base_ctx)
            if base.is_zero() or base.constant_term() != 0:
                continue
            d = Deformation.from_family(F_poly, params, allow_non_isolated=True)
            assert d.base.f == base
            index = F_poly.context.index
            assert d.velocities() == [
                chained_at_zero(F_poly.partial_derivative(index(p)), params, base_ctx)
                for p in params
            ]
            built += 1
        assert built >= 30

    def test_rational_families_with_parameter_only_terms(self):
        # a lone l_i in the parameter-only term gives velocity i a constant;
        # l_i^2 and l_i*l_j give no velocity
        rng = random.Random(23)
        built = constants = rational = 0
        for _ in range(60):
            F_poly, params, base_ctx = seeded_family(rng, rational=True)
            base = chained_at_zero(F_poly, params, base_ctx)
            if base.is_zero() or base.constant_term() != 0:
                continue
            d = Deformation.from_family(F_poly, params, allow_non_isolated=True)
            assert d.base.f == base
            index = F_poly.context.index
            velocities = d.velocities()
            assert velocities == [
                chained_at_zero(F_poly.partial_derivative(index(p)), params, base_ctx)
                for p in params
            ]
            built += 1
            constants += any(v.constant_term() != 0 for v in velocities)
            rational += any(c.denominator > 1 for v in velocities for c in v.terms.values())
        assert built >= 30 and constants >= 10 and rational >= 10

    def test_a_family_over_another_germ_is_rejected(self):
        names = ("l1", "x", "l2", "y")
        ctx = VarContext(names, 1)
        F_poly = parse_polynomial("x^2+y^3+l1*x+l2*y", ctx)
        other = BoundarySingularity(parse_polynomial("x^2+y^5", VarContext(("x", "y"), 0)))
        with pytest.raises(ValueError, match="does not restrict to the base germ"):
            Deformation(F_poly, ("l2", "l1"), other)
        d = Deformation.from_family(F_poly, ("l2", "l1"))
        assert Deformation(F_poly, ("l1", "l2"), d.base).velocities() == [
            parse_polynomial(v, d.base.ctx) for v in ("x", "y")
        ]

    def test_from_family_reads_the_family_once(self, monkeypatch):
        # from_family hands the list it read to the constructor, which keeps
        # it for the velocities; a hand-built deformation reads F itself,
        # and both still check it
        import bsing.isochore as isochore_module

        calls = []
        real = isochore_module._coefficients

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(isochore_module, "_coefficients", counting)
        ctx = VarContext(("x", "y", "l1", "l2"), 0)
        F_poly = parse_polynomial("x^2+y^3+l1*x+l2*y+l1*l2", ctx)
        d = Deformation.from_family(F_poly, ("l1", "l2"))
        assert versality_check(d).spanned_dimension == 3
        assert len(calls) == 1
        assert Deformation(F_poly, ("l1", "l2"), d.base) == d
        assert len(calls) == 2
        base = d.base.ctx
        for read in ([parse_polynomial("x^2+y^5", base)], [d.base.f * 2]):
            with pytest.raises(ValueError, match="does not restrict to the base germ"):
                Deformation(F_poly, ("l1", "l2"), d.base, read)
        for params, match in ((("l1", "l1"), "distinct"), (("l1", "t"), "belong")):
            with pytest.raises(ValueError, match=match):
                Deformation(F_poly, params, d.base, [d.base.f])
        assert len(calls) == 2
