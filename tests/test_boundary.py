import random
from collections import Counter
from fractions import Fraction

import pytest

from bsing.boundary import (
    BoundarySingularity,
    InvalidGermError,
    NonIsolatedError,
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

    def test_max_mu_below_one_is_rejected(self):
        # only mu = 0 germs would qualify, and those are rationed
        with pytest.raises(ValueError, match="max_mu"):
            boundary_corpus(seed=1, count=5, max_mu=0)
        corpus = boundary_corpus(seed=1, count=5, max_mu=1)
        assert [milnor_numbers(bs)[2] for bs in corpus].count(0) <= 2
        assert all(milnor_numbers(bs)[2] <= 1 for bs in corpus)
