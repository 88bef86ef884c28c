import random
from collections import Counter
from fractions import Fraction

import pytest

import bsing.boundary as boundary_module
from bsing.boundary import (
    BoundarySingularity,
    InvalidGermError,
    NonIsolatedError,
    _axis_orders,
    check_additivity,
    jacobian_ideal_boundary,
    milnor_numbers,
    restrict_to_boundary,
)
from bsing.corpus import boundary_corpus, random_germ
from bsing.polyring import Polynomial, VarContext, parse_polynomial
from bsing.standard_basis import (
    INFINITE,
    jet_dimension_oracle,
    quotient_basis,
    staircase_quotient,
    standard_basis,
)

XY = VarContext(("x", "y"), 0)
XYZ = VarContext(("x", "y", "z"), 0)


def poly(s, ctx=XY):
    return parse_polynomial(s, ctx)


def bsing(s, ctx=XY, **kw):
    return BoundarySingularity(poly(s, ctx), **kw)


class TestJacobianIdeals:
    def test_a2(self):
        assert jacobian_ideal_boundary(poly("x+y^3")) == [poly("x"), poly("3*y^2")]

    def test_f4(self):
        assert jacobian_ideal_boundary(poly("x^2+y^3")) == [poly("2*x^2"), poly("3*y^2")]

    def test_c3(self):
        assert jacobian_ideal_boundary(poly("x*y+y^3")) == [
            poly("x*y"),
            poly("x+3*y^2"),
        ]

    def test_boundary_generator_matches_the_checked_product(self):
        # x*df/dx is built in one pass; rebuild it as x times df/dx through
        # the checked constructor, with the boundary variable first or not
        rng = random.Random(47)
        uxv = VarContext(("u", "x", "v"), 1)
        for _ in range(120):
            ctx = rng.choice((XY, XYZ, uxv))
            terms = {}
            for _ in range(rng.randint(1, 6)):
                m = tuple(rng.randint(0, 4) for _ in range(ctx.arity))
                if any(m):
                    terms[m] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            f = Polynomial(ctx, terms)
            b = ctx.boundary_index
            checked: dict = {}
            for m, c in f.partial_derivative(b).terms.items():
                xm = m[:b] + (m[b] + 1,) + m[b + 1:]
                checked[xm] = checked.get(xm, 0) + c
            got = jacobian_ideal_boundary(f)[0]
            assert all(type(c) is Fraction and c != 0 for c in got._terms.values())
            assert got == Polynomial(ctx, checked)
            assert got == Polynomial.variable(ctx, b) * f.partial_derivative(b)
            assert Polynomial(ctx, got._terms) == got

    def test_axis_orders(self):
        # the least pure power per axis; a constant counts on every axis
        assert _axis_orders(jacobian_ideal_boundary(poly("x*y + y^42"))) == [1, 41]
        assert _axis_orders(jacobian_ideal_boundary(poly("y^2 - 2*x^2*y + x^4"))) == [2, 1]
        assert _axis_orders(jacobian_ideal_boundary(poly("x*y^2 + y^3"))) is None
        assert _axis_orders([poly("x*y"), poly("1 + x*y")]) == [0, 0]
        assert _axis_orders([poly("x^3 + x*y"), poly("x^2*y + y^5")]) == [3, 5]

    def test_constant_term_rejected(self):
        with pytest.raises(InvalidGermError):
            jacobian_ideal_boundary(poly("1+x"))


class TestRestriction:
    @pytest.mark.parametrize("f", ["x+y^3", "x^2+y^3", "x*y+y^3"])
    def test_substitutes_boundary(self, f):
        r = restrict_to_boundary(poly(f))
        assert r.context.names == ("y",)
        assert r.terms == {(3,): 1}

    def test_boundary_in_middle(self):
        ctx = VarContext(("u", "x", "v"), 1)
        r = restrict_to_boundary(parse_polynomial("u*x + v^2 + u^3", ctx))
        assert r.context.names == ("u", "v")
        assert r == parse_polynomial("v^2 + u^3", VarContext(("u", "v"), None))


class TestMilnorNumbers:
    def test_a4(self):
        assert milnor_numbers(bsing("x+y^5")) == (0, 4, 4)

    def test_b3(self):
        assert milnor_numbers(bsing("x^3+y^2")) == (2, 1, 3)

    def test_f4(self):
        assert milnor_numbers(bsing("x^2+y^3")) == (2, 2, 4)

    def test_c5(self):
        bs = bsing("x*y+y^5")
        assert milnor_numbers(bs) == (1, 4, 5)
        assert check_additivity(bs)

    def test_relative_morse(self):
        bs = bsing("x+y^2")
        assert milnor_numbers(bs) == (0, 1, 1)
        assert check_additivity(bs)

    def test_b2_in_three_variables(self):
        assert milnor_numbers(bsing("x^2+y^2+z^2", XYZ)) == (1, 1, 2)

    def test_non_isolated_rejected_by_default(self):
        with pytest.raises(NonIsolatedError):
            bsing("x")

    def test_non_isolated_raises_after_the_boundary_basis(self, monkeypatch):
        # a rejected germ builds no ambient or restriction basis; one whose
        # boundary ideal holds no pure power of x builds none at all, while
        # (y - x^2)^2, with pure powers x^2 and y on the axes, needs its
        # boundary basis to show that (y - x^2) holds the whole ideal
        calls = []
        real = boundary_module.staircase_quotient

        def counting(gens):
            calls.append(gens)
            return real(gens)

        monkeypatch.setattr(boundary_module, "staircase_quotient", counting)
        for f, bases, inspected in [("x*y^2 + y^3", 0, 1), ("y^2 - 2*x^2*y + x^4", 1, 3)]:
            calls.clear()
            with pytest.raises(NonIsolatedError, match="boundary Milnor number is infinite"):
                bsing(f)
            assert len(calls) == bases, f
            # inspected anyway, an ideal with an axis free of pure powers
            # still builds no basis: for x*y^2 + y^3 only the restriction
            # y^3 has one built, the boundary and ambient ideals have none
            calls.clear()
            bs = bsing(f, allow_non_isolated=True)
            assert len(calls) == inspected, f
            assert (bs.sb_boundary is None) == (bases == 0), f

    def test_non_isolated_markers(self):
        bs = bsing("x", allow_non_isolated=True)
        assert bs.mu_ambient == 0
        assert bs.mu_restriction == INFINITE
        assert bs.mu_boundary == INFINITE

    def test_zero_germ_rejected(self):
        with pytest.raises(InvalidGermError):
            BoundarySingularity(Polynomial.zero(XY))

    def test_nonvanishing_germ_rejected(self):
        with pytest.raises(InvalidGermError):
            bsing("1 + x + y^2")

    def test_additivity_requires_finite(self):
        bs = bsing("x", allow_non_isolated=True)
        with pytest.raises(NonIsolatedError):
            check_additivity(bs)

    def test_additivity_violation_warns_and_fails(self):
        # a wrong mu_{f,H}, preset in the cached_property's slot
        bs = bsing("x^2+y^3")
        bs.__dict__["mu_boundary"] = bs.mu_boundary + 1
        with pytest.warns(RuntimeWarning, match="additivity violated"):
            assert check_additivity(bs) is False


class TestCorpusProperties:
    def test_additivity_and_oracle_on_sample(self):
        # the full 50-germ corpus runs in the acceptance suite; a slice
        # keeps this module's feedback fast
        for bs in boundary_corpus(seed=77, count=12):
            a, r, b = milnor_numbers(bs)
            assert b == a + r
            assert check_additivity(bs)
            assert jet_dimension_oracle(bs.boundary_gens, 16) == b

    def test_invariance_under_boundary_preserving_substitution(self):
        # x -> u*x and y_i -> (invertible linear combination of the y's)
        # plus a multiple of x fixes {x = 0} as a set
        rng = random.Random(99)
        for bs in boundary_corpus(seed=13, count=8):
            ctx = bs.ctx
            n = ctx.arity
            u = Fraction(rng.choice([1, 2, -1, 3]))
            x = Polynomial.variable(ctx, 0)
            images = [x.scale(u)]
            if n == 2:
                a = Fraction(rng.choice([1, -2, 3]))
                rows = [[a]]
            else:
                rows = rng.choice(
                    [[[1, 1], [0, 1]], [[2, 0], [1, 1]], [[1, -1], [1, 1]]]
                )
            for i in range(1, n):
                img = x.scale(Fraction(rng.randint(-2, 2)))
                for j in range(1, n):
                    img = img + Polynomial.variable(ctx, j).scale(
                        Fraction(rows[i - 1][j - 1])
                    )
                images.append(img)
            g = bs.f.substitute(images)
            assert milnor_numbers(BoundarySingularity(g)) == milnor_numbers(bs)


class TestCorpusScreen:
    def test_cap9_certificate_matches_the_jet_oracle(self):
        # the corpus screen: one standard basis modulo m^9 whose highest
        # corner, below 9, certifies m^8 inside the boundary Jacobian ideal,
        # against the jet oracle stabilizing by N = 9
        rng = random.Random(4)
        candidates = [random_germ(rng, 2 if i % 3 else 3) for i in range(1000)]
        # finite mu_{f,H} above 40 lies beyond m^8: both must refuse it
        beyond = [poly("x^6+y^9"), poly("x*y+y^42"), poly("x^3+y^4+z^6", XYZ)]
        for f in beyond:
            assert staircase_quotient(jacobian_ideal_boundary(f))[1].dimension > 40
        kinds = Counter()
        for f in candidates + beyond:
            gens = jacobian_ideal_boundary(f)
            sb = standard_basis(gens, degree_cap=9)
            algebra = quotient_basis(sb)
            screen = algebra.dimension if sb.degree_cap < 9 else INFINITE
            assert screen == jet_dimension_oracle(gens, 9), str(f)
            if screen != INFINITE:
                # the corner is the least degree above the staircase
                top = max((sum(m) for m in algebra.basis_monomials), default=-1)
                assert sb.degree_cap == top + 1 <= 8, str(f)
            kinds["refused" if screen == INFINITE else "zero" if screen == 0 else "finite"] += 1
        assert min(kinds["refused"], kinds["zero"], kinds["finite"]) >= 100, kinds

    @staticmethod
    def _axis_refusals():
        # the candidates of the test above, with the orders of those whose
        # boundary ideal has an axis free of pure powers or only powers >= 9
        rng = random.Random(4)
        candidates = [random_germ(rng, 2 if i % 3 else 3) for i in range(1000)]
        for f in candidates + [poly("x*y + y^42")]:
            orders = _axis_orders(jacobian_ideal_boundary(f))
            if orders is None or max(orders) >= 9:
                yield f, orders

    def test_axis_certificate_refuses_only_cap9_refusals(self):
        # such an ideal has no corner below 9, and most cap-9 refusals
        # (648 of the 1000 candidates) are caught this way
        refused = list(self._axis_refusals())
        for f, _ in refused:
            sb = standard_basis(jacobian_ideal_boundary(f), degree_cap=9)
            assert sb.degree_cap >= 9, str(f)
        assert len(refused) == 610

    def test_axis_certificate_refusals_are_non_isolated(self):
        # an axis free of pure powers proves mu_{f,H} infinite; checked on
        # the plane candidates (the 3-variable ones are left out: the
        # boundary bases of many of them are unbounded work, ROADMAP item 5)
        refused = [f for f, orders in self._axis_refusals()
                   if orders is None and f.context.arity == 2]
        assert len(refused) == 331
        for f in refused:
            _, algebra = staircase_quotient(jacobian_ideal_boundary(f))
            assert algebra.dimension == INFINITE, str(f)
            assert BoundarySingularity(f, allow_non_isolated=True).mu_boundary == INFINITE, str(f)
            with pytest.raises(NonIsolatedError):
                BoundarySingularity(f)

    def test_seeded_corpus_is_pinned(self):
        # germs and (mu_f, mu_{f|H}, mu_{f,H}) as the jet-oracle screen chose them
        want = [
            ("-2*x*y + y^2 - x^4 - x*y^5", XY, (1, 1, 2)),
            ("2*x + 3*x^3 - 3*x^4 - 3*y^5 - 3*x^3*y^3", XY, (0, 4, 4)),
            ("3*y + x*y + x^3*y + 3*x^2*y^2 + 3*x^4*y^2", XY, (0, 0, 0)),
            ("-2*y^2 + 3*x^2*y + 3*x*y^2 + x^2*y^2 + y^5", XY, (3, 1, 4)),
            ("-3*z + 3*x*y - 2*x*y^2*z^2", XYZ, (0, 0, 0)),
            ("6*x^4*y - y^5", XY, (16, 4, 20)),
            ("-3*y*z + x^3 + 3*z^3 - 3*x*z^4 + 2*x*y^2*z^3", XYZ, (2, 1, 3)),
            ("-3*x*y + y^4", XY, (1, 3, 4)),
            ("-x^4 + 2*x^2*y^2 + x^2*y^3 + 2*y^5", XY, (10, 4, 14)),
            ("x^2 + 2*x*y^3 + y^5 - x^2*y^4 - 3*x*y^5", XY, (4, 4, 8)),
            ("3*x*y - y^3 - x^3*y^2 - 3*x*y^4", XY, (1, 2, 3)),
            ("2*y^2 + y^4 + 3*x^5 + 2*x*y^4 + x^3*y^3", XY, (4, 1, 5)),
        ]
        got = [(bs.f, milnor_numbers(bs)) for bs in boundary_corpus(seed=77, count=12)]
        assert got == [(poly(f, ctx), mus) for f, ctx, mus in want]

    def test_screened_basis_describes_the_exact_ideal(self):
        # the corpus keeps its cap-9 screen as the boundary basis; only the
        # tails of the generators may differ from an unscreened build
        rng = random.Random(5)
        for bs in boundary_corpus(seed=77, count=12):
            ref = BoundarySingularity(bs.f)
            assert bs.algebra_boundary == ref.algebra_boundary
            assert bs.sb_boundary.degree_cap == ref.sb_boundary.degree_cap
            assert bs.sb_boundary.leading_monomials == ref.sb_boundary.leading_monomials
            members = [g * Polynomial.monomial(bs.ctx, (rng.randint(0, 2),) * bs.ctx.arity,
                                               rng.randint(1, 3))
                       for g in bs.boundary_gens]
            probes = members + [Polynomial.monomial(bs.ctx, m)
                                for m in bs.algebra_boundary.basis_monomials[-2:]]
            for p in probes:
                assert bs.sb_boundary.contains(p) == ref.sb_boundary.contains(p), str(p)
            assert all(bs.sb_boundary.contains(p) for p in members)

    def test_screened_path_rejects_a_foreign_or_uncertified_basis(self):
        def screened(g):
            gens = jacobian_ideal_boundary(g)
            return gens, standard_basis(gens, degree_cap=9)

        f = poly("x^2 + y^3")
        assert BoundarySingularity(f, _screen=screened(f)).mu_boundary == 4
        # the screen of x^2 + y^2 describes (x^2, y), a strictly larger ideal
        # than (x^2, y^2): it contains f's generators but is not f's basis
        for other in (poly("x^2 + y^2"), poly("x^3 + y^2")):
            with pytest.raises(ValueError, match="not of this germ"):
                BoundarySingularity(f, _screen=screened(other))
        deep = poly("x*y + y^42")
        with pytest.raises(ValueError, match="no corner below"):
            BoundarySingularity(deep, _screen=screened(deep))

    def test_max_mu_below_one_is_rejected(self):
        # only mu = 0 germs would qualify, and those are rationed
        with pytest.raises(ValueError, match="max_mu"):
            boundary_corpus(seed=1, count=5, max_mu=0)
        corpus = boundary_corpus(seed=1, count=5, max_mu=1)
        assert [milnor_numbers(bs)[2] for bs in corpus].count(0) <= 2
        assert all(milnor_numbers(bs)[2] <= 1 for bs in corpus)
