import hashlib
import random
from fractions import Fraction

import pytest

from bsing.boundary import BoundarySingularity
from bsing.corpus import quasihomogeneous_corpus
from bsing.polyring import Polynomial, VarContext, parse_polynomial
from bsing.quasihomog import (
    BrieskornClass,
    brieskorn_reduce,
    detect_weights,
    format_t_polynomial,
    gauss_manin_apply,
    spectrum,
)

XY = VarContext(("x", "y"), 0)
XYZ = VarContext(("x", "y", "z"), 0)
F = Fraction


def poly(s, ctx=XY):
    return parse_polynomial(s, ctx)


def setup(s, ctx=XY):
    bs = BoundarySingularity(parse_polynomial(s, ctx))
    w = detect_weights(bs.f)
    return bs, w, spectrum(bs, w)


def random_poly(rng, ctx, max_deg=5, terms=4):
    out = {}
    for _ in range(rng.randint(1, terms)):
        m = tuple(rng.randint(0, max_deg) for _ in range(ctx.arity))
        out[m] = F(rng.randint(-4, 4))
    return Polynomial(ctx, out)


class TestBrieskornClass:
    def test_normalization_drops_zeros(self):
        cls = BrieskornClass({0: {0: F(0)}, 1: {2: F(3)}})
        assert cls.coords == {1: {2: F(3)}}

    def test_add_scale_mul_t(self):
        a = BrieskornClass.basis(0)
        b = a.scale(2).mul_t() + BrieskornClass.basis(1)
        assert b.coords == {0: {1: F(2)}, 1: {0: F(1)}}

    def test_deep_poles_rejected(self):
        with pytest.raises(ValueError):
            BrieskornClass({0: {-2: F(1)}})

    def test_format(self):
        assert format_t_polynomial({}) == "0"
        assert format_t_polynomial({0: F(1), 1: F(-3, 2)}) == "1 - 3/2*t"
        assert format_t_polynomial({-1: F(1, 2)}) == "1/2*t^-1"


class TestReduce:
    def test_basis_monomial_is_already_normal(self):
        bs, w, sp = setup("x^2+y^3")
        for i, e in enumerate(sp.entries):
            cls = brieskorn_reduce(Polynomial.monomial(XY, e.monomial), bs, w)
            assert cls == BrieskornClass.basis(i)

    def test_relative_morse_by_hand(self):
        # f = x + y^2: cofactors (1, y/2), div V = 3/2, s = 3/2, so the
        # class of f is exactly t at the slot of 1
        bs, w, sp = setup("x+y^2")
        assert brieskorn_reduce(bs.f, bs, w) == BrieskornClass({0: {1: F(1)}})

    def test_f4_module_structure(self):
        bs, w, sp = setup("x^2+y^3")
        x_slot = [e.monomial for e in sp.entries].index((1, 0))
        cls = brieskorn_reduce(bs.f * Polynomial.variable(XY, 0), bs, w)
        assert cls == BrieskornClass({x_slot: {1: F(1)}})

    @pytest.mark.parametrize("germ,ctx", [
        ("x^2+y^3", XY),
        ("x*y+y^4", XY),
        ("x^4+y^2", XY),
        ("x^2+y^2+z^2", XYZ),
        ("x^2+y^3+z^2", XYZ),
    ])
    def test_eigen_relation(self, germ, ctx):
        bs, w, sp = setup(germ, ctx)
        for i, e in enumerate(sp.entries):
            g = bs.f * Polynomial.monomial(ctx, e.monomial)
            assert brieskorn_reduce(g, bs, w) == BrieskornClass({i: {1: F(1)}})

    def test_eigen_relation_on_corpus(self):
        for bs, w in quasihomogeneous_corpus(seed=61, count=8):
            sp = spectrum(bs, w)
            for i, e in enumerate(sp.entries):
                g = bs.f * Polynomial.monomial(bs.ctx, e.monomial)
                assert brieskorn_reduce(g, bs, w) == BrieskornClass({i: {1: F(1)}})

    def test_linearity(self):
        rng = random.Random(7)
        bs, w, sp = setup("x^2+y^3")
        for _ in range(10):
            g1, g2 = random_poly(rng, XY), random_poly(rng, XY)
            lhs = brieskorn_reduce(g1 + g2, bs, w)
            rhs = brieskorn_reduce(g1, bs, w) + brieskorn_reduce(g2, bs, w)
            assert lhs == rhs

    def test_termwise_splitting(self):
        rng = random.Random(9)
        bs, w, sp = setup("x*y+y^4")
        for _ in range(8):
            g = random_poly(rng, XY)
            total = BrieskornClass.zero()
            for m, c in g.terms.items():
                total = total + brieskorn_reduce(
                    Polynomial.monomial(XY, m, c), bs, w
                )
            assert total == brieskorn_reduce(g, bs, w)

    def test_confluence_under_generator_permutations(self):
        rng = random.Random(13)
        bs, w, sp = setup("x^2+y^3+z^2", XYZ)
        perms = [(0, 1, 2), (1, 0, 2), (2, 1, 0), (0, 2, 1)]
        for _ in range(8):
            g = random_poly(rng, XYZ, max_deg=4)
            ref = brieskorn_reduce(g, bs, w, generator_order=perms[0])
            for p in perms[1:]:
                assert brieskorn_reduce(g, bs, w, generator_order=p) == ref

    def test_zero_polynomial(self):
        bs, w, sp = setup("x^2+y^3")
        assert brieskorn_reduce(Polynomial.zero(XY), bs, w) == BrieskornClass.zero()


# sha256 over the reprs below, computed while the graded engine still
# split g into Polynomial parts at Fraction degrees and took div V from
# Polynomial derivatives
BOUNDARY_ANYWHERE_SHA256 = "3095cad9e964c97aef9757e8929b736ec2df3b79a032733fafb43f5e30b7daf0"


def test_reductions_with_the_boundary_anywhere_match_the_pinned_digest():
    # div V takes d/dx(x*a_0) at the boundary index and d/dy_i elsewhere:
    # pin the classes with the boundary at each of the three positions,
    # in the default and one permuted generator order (80 reprs; with the
    # boundary at y, x^2*y + y^3 + z^2 restricts to z^2, not isolated)
    h = hashlib.sha256()
    rng = random.Random(2)
    for germ in ("x^2+y^3+z^4", "x^3+y^2+z^3+x*z^2", "x^2*y+y^3+z^2"):
        for b in range(3):
            if (germ, b) == ("x^2*y+y^3+z^2", 1):
                continue
            ctx = VarContext(("x", "y", "z"), b)
            bs = BoundarySingularity(parse_polynomial(germ, ctx))
            w = detect_weights(bs.f)
            for _ in range(5):
                g = random_poly(rng, ctx, max_deg=3, terms=5)
                for order in (None, [2, 0, 1]):
                    cls = brieskorn_reduce(g, bs, w, generator_order=order)
                    h.update(repr(cls).encode())
    assert h.hexdigest() == BOUNDARY_ANYWHERE_SHA256


class TestGaussManin:
    def test_leibniz_on_t_times_basis(self):
        bs, w, sp = setup("x^2+y^3")
        for i, e in enumerate(sp.entries):
            cls = BrieskornClass({i: {1: F(1)}})
            assert gauss_manin_apply(cls, sp) == BrieskornClass.basis(i).scale(e.alpha)

    def test_higher_powers(self):
        # D(t^j w_m) = (j + alpha - 1) t^(j-1) w_m
        bs, w, sp = setup("x^2+y^3")
        a0 = sp.entries[0].alpha
        cls = BrieskornClass({0: {3: F(2)}})
        assert gauss_manin_apply(cls, sp) == BrieskornClass(
            {0: {2: 2 * (3 + a0 - 1)}}
        )

    def test_alpha_one_class_is_killed(self):
        bs, w, sp = setup("x*y+y^3")
        assert sp.alphas()[0] == 1
        out = gauss_manin_apply(BrieskornClass.basis(0), sp)
        assert out == BrieskornClass.zero() and not out.has_pole

    def test_pole_flag(self):
        bs, w, sp = setup("x^2+y^3")
        out = gauss_manin_apply(BrieskornClass.basis(0), sp)
        assert out.has_pole
        assert out.coords == {0: {-1: sp.entries[0].alpha - 1}}

    def test_pole_input_rejected(self):
        bs, w, sp = setup("x^2+y^3")
        polar = gauss_manin_apply(BrieskornClass.basis(0), sp)
        with pytest.raises(ValueError):
            gauss_manin_apply(polar, sp)

    def test_b2_connection_matrix(self):
        bs, w, sp = setup("x^2+y^2+z^2", XYZ)
        diag = []
        for i in range(len(sp)):
            fD = gauss_manin_apply(BrieskornClass.basis(i), sp).mul_t()
            coord = fD.coordinate(i)
            assert set(fD.coords) <= {i}
            diag.append(coord.get(0, F(0)))
        assert diag == [F(1, 2), F(1)]
