from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bsing import CertificateError, quasihomog
from bsing.boundary import BoundarySingularity, NonIsolatedError
from bsing.corpus import family_normal_form, quasihomogeneous_corpus
from bsing.isochore import Deformation, versality_check
from bsing.polyring import Polynomial, VarContext, parse_polynomial
from bsing.quasihomog import (
    NotQuasihomogeneousError,
    ResidueMatrix,
    RootOfUnity,
    brieskorn_reduce,
    detect_weights,
    euler_check,
    monodromy_eigenvalues,
    ordinary_spectrum,
    quotient_coordinates,
    residue_matrix,
    spectrum,
    spectrum_splitting_check,
)

XY = VarContext(("x", "y"), 0)
XYZ = VarContext(("x", "y", "z"), 0)

F = Fraction


def poly(s, ctx=XY):
    return parse_polynomial(s, ctx)


def bsing(s, ctx=XY):
    return BoundarySingularity(poly(s, ctx))


class TestDetectWeights:
    def test_a4(self):
        assert detect_weights(poly("x+y^5")) == (F(1), F(1, 5))

    def test_c4(self):
        assert detect_weights(poly("x*y+y^4")) == (F(3, 4), F(1, 4))

    def test_f4(self):
        assert detect_weights(poly("x^2+y^3")) == (F(1, 2), F(1, 3))

    def test_inconsistent_support(self):
        with pytest.raises(NotQuasihomogeneousError, match="no weight solution"):
            detect_weights(poly("x+x^2"))

    def test_underdetermined_support(self):
        with pytest.raises(NotQuasihomogeneousError, match="underdetermined"):
            detect_weights(poly("x"))

    def test_nonpositive_solution(self):
        # x*y^2 and y force w_x = -1
        with pytest.raises(NotQuasihomogeneousError, match="not positive"):
            detect_weights(poly("x*y^2 + y"))

    def test_scaling_invariance(self):
        f = poly("x^2+y^3")
        assert detect_weights(f.scale(F(7, 3))) == detect_weights(f)


class TestEulerCheck:
    def test_f4(self):
        assert euler_check(poly("x^2+y^3"), (F(1, 2), F(1, 3)))

    def test_bk(self):
        k = 5
        assert euler_check(poly(f"x^{k}+y^2"), (F(1, k), F(1, 2)))

    def test_inhomogeneous(self):
        assert not euler_check(poly("x+y+y^2"), (1, 1))

    def test_detected_weights_always_pass(self):
        for bs, w in quasihomogeneous_corpus(seed=5, count=10):
            assert euler_check(bs.f, w)


class TestSpectrum:
    def test_a3(self):
        bs = bsing("x+y^4")
        assert spectrum(bs, detect_weights(bs.f)).alphas() == [
            F(5, 4),
            F(6, 4),
            F(7, 4),
        ]

    def test_f4(self):
        bs = bsing("x^2+y^3")
        sp = spectrum(bs, detect_weights(bs.f))
        assert sp.alphas() == [F(5, 6), F(7, 6), F(4, 3), F(5, 3)]
        assert [e.monomial for e in sp.entries] == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_b2_in_three_variables(self):
        bs = bsing("x^2+y^2+z^2", XYZ)
        sp = spectrum(bs, detect_weights(bs.f))
        assert sp.alphas() == [F(3, 2), F(2)]
        assert sp.residue_diagonal() == [F(1, 2), F(1)]
        assert residue_matrix(sp) == ResidueMatrix((F(1, 2), F(1)))

    def test_rejects_inhomogeneous_weights(self):
        bs = bsing("x^2+y^3")
        with pytest.raises(NotQuasihomogeneousError):
            spectrum(bs, (F(1, 2), F(1, 2)))

    def test_cardinality_is_boundary_milnor_number(self):
        for bs, w in quasihomogeneous_corpus(seed=21, count=12):
            assert len(spectrum(bs, w)) == bs.mu_boundary

    def test_staircase_mismatch_raises_certificate_error(self, monkeypatch):
        # the weighted staircase is cross-checked against the unweighted
        # boundary quotient; losing a monomial must fail loudly, also
        # under python -O
        bs = bsing("x^2+y^3")
        real = quasihomog.quotient_basis

        def short(sb):
            alg = real(sb)
            return type(alg)(alg.basis_monomials[1:], alg.dimension - 1)

        monkeypatch.setattr(quasihomog, "quotient_basis", short)
        with pytest.raises(CertificateError):
            spectrum(bs, (F(1, 2), F(1, 3)))


class TestOrdinarySpectrum:
    def test_one_variable_cusp(self):
        g = parse_polynomial("y^3", VarContext(("y",), None))
        assert ordinary_spectrum(g, (F(1, 3),)).alphas() == [F(1, 3), F(2, 3)]

    def test_f4_ambient(self):
        assert ordinary_spectrum(poly("x^2+y^3"), (F(1, 2), F(1, 3))).alphas() == [
            F(5, 6),
            F(7, 6),
        ]

    def test_morse_point(self):
        assert ordinary_spectrum(
            poly("x^2+y^2+z^2", XYZ), (F(1, 2),) * 3
        ).alphas() == [F(3, 2)]


class TestSplitting:
    def test_a3_by_hand(self):
        # no ambient spectrum; restriction spectrum {1/4, 2/4, 3/4} + 1
        bs = bsing("x+y^4")
        assert spectrum_splitting_check(bs, detect_weights(bs.f))

    def test_b3_matches_closed_form(self):
        bs = bsing("x^3+y^2")
        w = detect_weights(bs.f)
        assert spectrum(bs, w).alphas() == [F(5, 6), F(7, 6), F(3, 2)]
        assert spectrum_splitting_check(bs, w)

    def test_f4(self):
        bs = bsing("x^2+y^3")
        assert spectrum_splitting_check(bs, detect_weights(bs.f))

    @pytest.mark.parametrize("family,ks", [("A", range(1, 13)), ("B", range(2, 13)), ("C", range(2, 13))])
    def test_families(self, family, ks):
        for k in ks:
            f = family_normal_form(family, k)
            bs = BoundarySingularity(f)
            assert spectrum_splitting_check(bs, detect_weights(f))

    def test_corpus(self):
        for bs, w in quasihomogeneous_corpus(seed=33, count=15):
            assert spectrum_splitting_check(bs, w), str(bs.f)


class TestMonodromy:
    def test_b2_in_three_variables(self):
        bs = bsing("x^2+y^2+z^2", XYZ)
        eig = monodromy_eigenvalues(spectrum(bs, detect_weights(bs.f)))
        assert [e.rotation for e in eig] == [F(0), F(1, 2)]
        assert [str(e) for e in eig] == ["1", "-1"]

    def test_a1(self):
        bs = bsing("x+y^2")
        sp = spectrum(bs, detect_weights(bs.f))
        assert sp.alphas() == [F(3, 2)]
        assert sp.rotations() == [F(1, 2)]

    def test_c2(self):
        bs = bsing("x*y+y^2")
        sp = spectrum(bs, detect_weights(bs.f))
        assert sp.alphas() == [F(1), F(3, 2)]
        assert sorted(sp.rotations()) == [F(0), F(1, 2)]

    def test_rotation_denominators_divide_weight_lcm(self):
        from math import lcm

        for bs, w in quasihomogeneous_corpus(seed=51, count=12):
            bound = lcm(*(x.denominator for x in w))
            for r in spectrum(bs, w).rotations():
                assert bound % r.denominator == 0

    def test_rotation_range_validated(self):
        with pytest.raises(ValueError):
            RootOfUnity(F(3, 2))


class TestQuotientCoordinates:
    def test_staircase_projection(self):
        bs = bsing("x^2+y^3")
        w = detect_weights(bs.f)
        # f itself lies in the Jacobian ideal: residue zero
        assert quotient_coordinates(bs.f, bs, w) == {}
        # a staircase monomial is its own residue
        assert quotient_coordinates(poly("x*y"), bs, w) == {(1, 1): F(1)}
        # 7*x^2 = (7/2) * (x*f_x) modulo nothing else: residue zero
        assert quotient_coordinates(poly("7*x^2"), bs, w) == {}


def deformation_of(bs, term):
    """bs.f + l*term as a one-parameter deformation over bs itself."""
    ctx = VarContext(bs.ctx.names + ("l",), bs.ctx.boundary_index)
    F_poly = parse_polynomial(f"{bs.f} + l*{term}", ctx)
    return Deformation(F_poly, ("l",), bs)


@pytest.fixture
def builds(monkeypatch):
    """Kinds of weighted standard bases built, in order, counted through
    quasihomog.standard_basis (the germ's own unweighted ladder runs in
    bsing.boundary and is not counted)."""
    calls = []
    real = quasihomog.standard_basis

    def counting(gens, order=None, track_representations=False, degree_cap=None):
        calls.append("tracked" if track_representations else "untracked")
        return real(gens, order, track_representations, degree_cap)

    monkeypatch.setattr(quasihomog, "standard_basis", counting)
    return calls


ENGINE_GERMS = [("x^2+y^3", XY), ("x*y+y^4", XY), ("x+y^5", XY), ("x^2+y^3+z^2", XYZ)]


class TestGradedEngine:
    @pytest.mark.parametrize("f,ctx", ENGINE_GERMS)
    def test_one_basis_of_each_kind_per_germ_and_weights(self, builds, f, ctx):
        bs = bsing(f, ctx)
        w = detect_weights(bs.f)
        g = poly("x*y^2 + 3*x^3 + y", ctx)
        for _ in range(2):
            spec = spectrum(bs, w)
            cls = brieskorn_reduce(g, bs, w)
            coords = quotient_coordinates(g, bs, w)
            versality_check(deformation_of(bs, "y"), w)
        assert builds == ["untracked", "tracked"]
        assert len(spec) == bs.mu_boundary
        assert coords == {
            spec.entries[i].monomial: p[0] for i, p in cls.coords.items() if 0 in p
        }

    @pytest.mark.parametrize("f,ctx", ENGINE_GERMS)
    def test_each_generator_order_adds_one_tracked_basis(self, builds, f, ctx):
        bs = bsing(f, ctx)
        w = detect_weights(bs.f)
        g = poly("x^3*y + 2*x*y^2 - y^5 + x^2*y + 5", ctx)
        default = brieskorn_reduce(g, bs, w)
        assert builds == ["tracked"]
        other = list(reversed(range(ctx.arity)))
        for _ in range(2):
            assert brieskorn_reduce(g, bs, w, generator_order=other) == default
        assert builds == ["tracked", "tracked"]
        assert brieskorn_reduce(g, bs, w, generator_order=range(ctx.arity)) == default
        assert builds == ["tracked", "tracked"]

    @pytest.mark.parametrize(
        "first",
        [
            lambda bs, w: versality_check(deformation_of(bs, "y"), w),
            lambda bs, w: brieskorn_reduce(poly("x*y"), bs, w),
            lambda bs, w: quotient_coordinates(poly("x*y"), bs, w),
        ],
        ids=["versality_check", "brieskorn_reduce", "quotient_coordinates"],
    )
    def test_a_fresh_germ_builds_one_weighted_basis(self, builds, first):
        bs = bsing("x^2+y^3")
        w = detect_weights(bs.f)
        first(bs, w)
        assert builds == ["tracked"]
        # the spectrum then reuses the tracked basis's staircase
        assert spectrum(bs, w).alphas() == [F(5, 6), F(7, 6), F(4, 3), F(5, 3)]
        assert builds == ["tracked"]

    @pytest.mark.parametrize("order", [[0, 0], [0], [1, 2], [0, 1, 2]])
    def test_bad_generator_order_raises_every_time(self, builds, order):
        bs = bsing("x^2+y^3")
        w = detect_weights(bs.f)
        for _ in range(2):
            with pytest.raises(ValueError, match="permutation"):
                brieskorn_reduce(poly("x*y"), bs, w, generator_order=order)
        assert builds == []

    def test_non_euler_weights_raise_every_time_and_cache_nothing(self, builds):
        bs = bsing("x^2+y^3")
        bad = (F(1, 2), F(1, 2))
        calls = [
            lambda: spectrum(bs, bad),
            lambda: brieskorn_reduce(poly("x*y"), bs, bad),
            lambda: quotient_coordinates(poly("x*y"), bs, bad),
            lambda: versality_check(deformation_of(bs, "y"), bad),
        ]
        for _ in range(2):
            for call in calls:
                with pytest.raises(NotQuasihomogeneousError):
                    call()
        assert builds == []
        assert bs._graded_engines == {}

    @pytest.mark.parametrize(
        "first,second",
        [
            (
                lambda bs, w: spectrum(bs, w),
                lambda bs, w: brieskorn_reduce(poly("x*y"), bs, w),
            ),
            (
                lambda bs, w: brieskorn_reduce(poly("x*y"), bs, w),
                lambda bs, w: brieskorn_reduce(poly("x*y"), bs, w, generator_order=[1, 0]),
            ),
        ],
        ids=["untracked-then-tracked", "tracked-then-tracked"],
    )
    def test_staircase_disagreement_raises_certificate_error(
        self, monkeypatch, first, second
    ):
        # the second weighted basis of the engine loses a monomial of its
        # staircase: it must be refused, not cached
        bs = bsing("x^2+y^3")
        w = detect_weights(bs.f)
        real = quasihomog.quotient_basis
        seen = []

        def second_short(sb):
            alg = real(sb)
            seen.append(sb)
            if len(seen) == 1:
                return alg
            return type(alg)(alg.basis_monomials[1:], alg.dimension - 1)

        monkeypatch.setattr(quasihomog, "quotient_basis", second_short)
        first(bs, w)
        for _ in range(2):
            with pytest.raises(CertificateError, match="different staircases"):
                second(bs, w)


BP_EXPONENTS = {
    2: [(1, 2), (1, 5), (2, 2), (2, 3), (2, 4), (3, 3), (4, 2)],
    3: [(1, 2, 2), (2, 2, 2), (2, 3, 2), (3, 2, 3)],
}


def weighted_degree_one(exps):
    """Monomials of weighted degree 1 for the weights 1/e_i, pure powers
    excluded: the terms that keep a Brieskorn-Pham germ quasihomogeneous."""
    box = product(*(range(e + 1) for e in exps))
    return [
        m for m in box
        if sum(F(a, e) for a, e in zip(m, exps)) == 1 and sum(1 for a in m if a) > 1
    ]


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(data=st.data())
def test_warm_engine_reduces_like_a_fresh_germ(data):
    # Brieskorn-Pham germs, with a mixed term of the same weighted degree
    # where one exists, so that the Jacobian ideal is not monomial and the
    # tracked bases differ between generator orders
    ctx = data.draw(st.sampled_from([XY, XYZ]))
    exps = data.draw(st.sampled_from(BP_EXPONENTS[ctx.arity]))
    coeff = st.sampled_from([-3, -2, -1, 1, 2, 3])
    terms = {
        tuple(e if j == i else 0 for j in range(ctx.arity)): data.draw(coeff)
        for i, e in enumerate(exps)
    }
    mixed = weighted_degree_one(exps)
    if mixed:
        terms[data.draw(st.sampled_from(mixed))] = data.draw(coeff)
    f = Polynomial(ctx, terms)
    try:
        bs = BoundarySingularity(f)
    except NonIsolatedError:
        assume(False)
    monomial = st.tuples(*[st.integers(0, 4)] * ctx.arity)
    g = Polynomial(ctx, data.draw(st.dictionaries(monomial, coeff, min_size=1, max_size=4)))
    w = detect_weights(f)
    orders = list(permutations(range(ctx.arity)))
    spectrum(bs, w)
    for order in orders:
        brieskorn_reduce(f * g + g, bs, w, generator_order=order)
    for order in orders:
        fresh = brieskorn_reduce(g, BoundarySingularity(f), w, generator_order=order)
        assert brieskorn_reduce(g, bs, w, generator_order=order) == fresh
