import hashlib
import random
from collections import Counter
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import bsing.standard_basis as sb_module
from bsing import CertificateError, quasihomog
from bsing.boundary import BoundarySingularity, NonIsolatedError
from bsing.corpus import family_normal_form, quasihomogeneous_corpus, random_germ
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
from graded_oracle import GradedOracle, versality as versality_oracle

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

    @staticmethod
    def euler_sum(f, w):
        """Reference: build sum_i w_i x_i df/dx_i and compare it with f."""
        acc = Polynomial.zero(f.context)
        for i in range(f.context.arity):
            acc = acc + (Polynomial.variable(f.context, i) * f.partial_derivative(i)).scale(w[i])
        return acc == f

    def test_support_rule_matches_the_euler_sum(self):
        # detected weights, the same weights perturbed on one axis, and a
        # germ with a stray term, on seeded quasihomogeneous germs; random
        # weights on random germs; and the zero polynomial, whose Euler
        # identity holds at any weights
        rng = random.Random(11)
        cases = [(Polynomial.zero(ctx), tuple(F(rng.randint(1, 9), rng.randint(1, 9))
                                              for _ in range(ctx.arity)))
                 for ctx in (XY, XYZ)]
        for bs, w in quasihomogeneous_corpus(seed=13, count=20):
            i = rng.randrange(len(w))
            perturbed = tuple(x * F(8, 7) if j == i else x for j, x in enumerate(w))
            stray = Polynomial.monomial(bs.ctx, tuple(rng.randint(0, 3) for _ in w), 1)
            cases += [(bs.f, w), (bs.f, perturbed), (bs.f + stray, w)]
        for _ in range(40):
            f = random_germ(rng, rng.choice((2, 3)))
            cases.append((f, tuple(F(1, rng.randint(1, 6)) for _ in range(f.context.arity))))
        seen = Counter()
        for f, w in cases:
            want = self.euler_sum(f, w)
            assert euler_check(f, w) == want, (str(f), w)
            seen[want] += 1
        assert min(seen[True], seen[False]) >= 20, seen


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

    def test_staircase_mismatch_raises_certificate_error(self):
        # the graded staircase is cross-checked against the unweighted
        # boundary quotient; a disagreement must fail loudly, also under
        # python -O, and cache nothing
        bs = bsing("x^2+y^3")
        bs.__dict__["mu_boundary"] = 5  # the Poincare series gives 4
        for _ in range(2):
            with pytest.raises(CertificateError, match="unweighted boundary quotient has 5"):
                spectrum(bs, (F(1, 2), F(1, 3)))
        assert bs._graded_engines[(F(1, 2), F(1, 3))]._echelons == {}


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

    def test_non_isolated_with_nonzero_partials(self):
        # (2xy, x^2) is no regular sequence; the counts of degrees 0..2
        # still match the Poincare series, y^3 in degree 3 does not
        with pytest.raises(NonIsolatedError, match="1 monomials in degree 3"):
            ordinary_spectrum(poly("x^2*y"), (F(1, 3), F(1, 3)))

    def test_non_isolated_with_a_zero_partial(self):
        with pytest.raises(NonIsolatedError):
            ordinary_spectrum(poly("x^3"), (F(1, 3), F(1, 2)))

    def test_zero_jacobian_ideal(self):
        # no generator: 1 is a staircase monomial above the top degree
        with pytest.raises(NonIsolatedError, match="1 monomials in degree 0"):
            ordinary_spectrum(Polynomial.zero(XY), (F(1, 3), F(1, 2)))

    def test_weights_are_checked_once_per_call(self, monkeypatch):
        calls = []
        real = quasihomog.check_weights

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(quasihomog, "check_weights", counting)
        ordinary_spectrum(poly("x^2+y^3"), (F(1, 2), F(1, 3)))
        assert len(calls) == 1
        with pytest.raises(ValueError, match="one weight per variable"):
            ordinary_spectrum(poly("x^2+y^3"), (F(1, 2),))
        with pytest.raises(ValueError, match="weights must be positive"):
            ordinary_spectrum(poly("x^2+y^3"), (F(1, 2), F(-1, 3)))
        with pytest.raises(NotQuasihomogeneousError, match="Euler identity fails"):
            ordinary_spectrum(poly("x^2+y^3"), (F(1, 2), F(1, 2)))


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

    def test_the_verdict_is_kept_on_the_engine(self, monkeypatch):
        bs = bsing("x^2+y^3")
        w = detect_weights(bs.f)
        assert spectrum_splitting_check(bs, w)

        def refuse(*args):
            raise AssertionError("a multiset was rebuilt")

        monkeypatch.setattr(quasihomog, "Counter", refuse)
        assert spectrum_splitting_check(bs, w)
        assert bs._graded_engines[w].split is True


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


class _Builds(list):
    """(ideal, degree, generator order) of every echelon built, in order."""

    def of(self, ideal):
        return [(D, order) for i, D, order in self if i is ideal]


@pytest.fixture
def builds(monkeypatch):
    """Echelons built by the graded engines, counted through
    ``_GradedIdeal._build``.  ``builds.seal()``, called once the germs
    exist, makes every later Buchberger-Mora run raise."""
    calls = _Builds()
    real = quasihomog._GradedIdeal._build

    def counting(self, D, order):
        calls.append((self, D, order))
        return real(self, D, order)

    def refuse(*args, **kwargs):
        raise AssertionError("a graded computation ran standard_basis._complete")

    monkeypatch.setattr(quasihomog._GradedIdeal, "_build", counting)
    calls.seal = lambda: monkeypatch.setattr(sb_module, "_complete", refuse)
    return calls


ENGINE_GERMS = [("x^2+y^3", XY), ("x*y+y^4", XY), ("x+y^5", XY), ("x^2+y^3+z^2", XYZ)]


class TestGradedEngine:
    @pytest.mark.parametrize("f,ctx", ENGINE_GERMS)
    def test_one_basis_of_each_kind_per_germ_and_weights(self, builds, f, ctx):
        # one echelon per degree, in the canonical generator order, all of
        # the germ's engine, and no Buchberger-Mora run
        bs = bsing(f, ctx)
        w = detect_weights(bs.f)
        builds.seal()
        g = poly("x*y^2 + 3*x^3 + y", ctx)
        for k in range(2):
            spec = spectrum(bs, w)
            cls = brieskorn_reduce(g, bs, w)
            coords = quotient_coordinates(g, bs, w)
            versality_check(deformation_of(bs, "y"), w)
            if k == 0:
                first = list(builds)
        assert builds == first
        ideal = bs._graded_engines[w]
        assert {i for i, _, _ in builds} == {ideal}
        assert len(set(builds)) == len(builds)
        assert {order for _, order in builds.of(ideal)} == {tuple(range(ctx.arity))}
        assert len(spec) == bs.mu_boundary
        assert coords == {
            spec.entries[i].monomial: p[0] for i, p in cls.coords.items() if 0 in p
        }

    @pytest.mark.parametrize("f,ctx", ENGINE_GERMS)
    def test_second_splitting_check_builds_no_basis(self, builds, f, ctx):
        bs = bsing(f, ctx)
        w = detect_weights(bs.f)
        builds.seal()
        assert spectrum_splitting_check(bs, w)
        # the engine's staircase, then the ordinary spectra of f and f|H
        assert len({i for i, _, _ in builds}) == 3
        assert len(set(builds)) == len(builds)
        first = list(builds)
        assert spectrum_splitting_check(bs, w)
        assert builds == first

    def test_splitting_without_restriction_raises_every_time(self, builds):
        bs = BoundarySingularity(poly("x^3", VarContext(("x",), 0)))
        w = detect_weights(bs.f)
        builds.seal()
        for _ in range(2):
            with pytest.raises(NotQuasihomogeneousError, match="restriction"):
                spectrum_splitting_check(bs, w)
        # the engine's staircase only: no ordinary spectrum is built
        engine = bs._graded_engines[w]
        assert {i for i, _, _ in builds} == {engine}
        assert engine.split is None

    @pytest.mark.parametrize("f,ctx", ENGINE_GERMS)
    def test_each_generator_order_adds_one_tracked_basis(self, builds, f, ctx):
        # a generator order adds its own echelons, each built once
        bs = bsing(f, ctx)
        w = detect_weights(bs.f)
        builds.seal()
        g = poly("x^3*y + 2*x*y^2 - y^5 + x^2*y + 5", ctx)
        default = brieskorn_reduce(g, bs, w)
        canonical, other = tuple(range(ctx.arity)), tuple(reversed(range(ctx.arity)))
        assert {order for _, _, order in builds} == {canonical}
        before = len(builds)
        for _ in range(2):
            assert brieskorn_reduce(g, bs, w, generator_order=list(other)) == default
        added = builds[before:]
        assert added and {order for _, _, order in added} == {other}
        assert len(set(builds)) == len(builds)
        before = len(builds)
        assert brieskorn_reduce(g, bs, w, generator_order=range(ctx.arity)) == default
        assert len(builds) == before

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
        # the first call certifies the staircase in the canonical order
        bs = bsing("x^2+y^3")
        w = detect_weights(bs.f)
        builds.seal()
        first(bs, w)
        built = list(builds)
        assert built and {order for _, _, order in built} == {(0, 1)}
        # the spectrum then reuses that staircase
        assert spectrum(bs, w).alphas() == [F(5, 6), F(7, 6), F(4, 3), F(5, 3)]
        assert builds == built

    @pytest.mark.parametrize("order", [[0, 0], [0], [1, 2], [0, 1, 2]])
    def test_bad_generator_order_raises_every_time(self, builds, order):
        bs = bsing("x^2+y^3")
        w = detect_weights(bs.f)
        for _ in range(2):
            with pytest.raises(ValueError, match="permutation"):
                brieskorn_reduce(poly("x*y"), bs, w, generator_order=order)
        assert builds == []
        assert bs._graded_engines[w]._echelons == {}

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
        "call",
        [
            lambda bs, w: spectrum(bs, w),
            lambda bs, w: brieskorn_reduce(poly("x*y"), bs, w),
            lambda bs, w: quotient_coordinates(poly("x*y"), bs, w),
        ],
        ids=["spectrum", "brieskorn_reduce", "quotient_coordinates"],
    )
    def test_a_staircase_that_loses_a_monomial_raises_and_caches_nothing(
        self, monkeypatch, call
    ):
        # an echelon that wrongly claims 1 as a pivot leaves degree 0 one
        # monomial short of the Poincare series
        bs = bsing("x^2+y^3")
        w = detect_weights(bs.f)
        real = quasihomog._GradedIdeal._build

        def losing(self, D, order):
            columns, index, pivot_columns, pivots, tags = real(self, D, order)
            if D == 0:
                pivot_columns, pivots = [0], {0: (1, {})}
            return columns, index, pivot_columns, pivots, tags

        monkeypatch.setattr(quasihomog._GradedIdeal, "_build", losing)
        for _ in range(2):
            with pytest.raises(CertificateError, match="0 monomials in degree 0"):
                call(bs, w)
        engine = bs._graded_engines[w]
        assert engine._spectrum is None and engine.slot == {}
        assert engine._echelons == {}


class TestWeightsOnce:
    def test_a_cache_hit_checks_no_weights(self, monkeypatch):
        calls = []
        real = quasihomog.check_weights

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(quasihomog, "check_weights", counting)
        bs = bsing("x^2+y^3")
        w = (F(1, 2), F(1, 3))
        first = spectrum(bs, w)
        calls.clear()
        assert spectrum(bs, w) == first
        assert brieskorn_reduce(poly("x*y"), bs, w) == brieskorn_reduce(poly("x*y"), bs, list(w))
        assert calls == []
        assert list(bs._graded_engines) == [w]

    def test_weights_as_given_give_one_spectrum(self):
        bs = bsing("x^2+y^3")
        forms = [(F(1, 2), F(1, 3)), [F(1, 2), F(1, 3)], ("1/2", "1/3")]
        spectra = [spectrum(bs, w) for w in forms]
        assert spectra[0] == spectra[1] == spectra[2]
        assert spectra[0].weights == (F(1, 2), F(1, 3))
        # equal numbers share an engine; strings hash apart and build their own
        assert len(bs._graded_engines) == 2


class TestParts:
    def test_parts_partition_by_increasing_weighted_degree(self):
        rng = random.Random(11)
        for _ in range(30):
            terms = {}
            for _ in range(rng.randint(1, 5)):
                m = (rng.randint(0, 4), rng.randint(0, 4))
                terms[m] = F(rng.randint(1, 6), rng.randint(1, 4))
            w = (F(rng.randint(1, 4)), F(1, rng.randint(1, 5)))
            st = quasihomog._GradedIdeal([poly("x"), poly("y")], w)
            parts = st.parts(terms)
            degrees = [D for D, _ in parts]
            assert degrees == sorted(set(degrees))
            for D, part in parts:
                for m in part:
                    assert F(D, st.scale) == sum(a * e for a, e in zip(w, m))
            assert {m: c for _, part in parts for m, c in part.items()} == terms
            assert sum(len(part) for _, part in parts) == len(terms)


class TestDecompositionCertificates:
    def test_a_corrupted_echelon_row_breaks_the_recomposition(self):
        # a wrong cofactor entry in the cached pivot row of x^2 makes
        # rem + sum cof_j*g_j differ from the part
        bs = bsing("x^2+y^3")
        w = detect_weights(bs.f)
        spectrum(bs, w)
        st = bs._graded_engines[w]
        columns, index, _, pivots, _ = st.echelon(st.degree((2, 0)), st.order())
        _, tail = pivots[index[(2, 0)]]
        tag = next(k for k in tail if k >= len(columns))
        tail[tag] += 1
        with pytest.raises(CertificateError, match="lost exactness"):
            brieskorn_reduce(poly("x^2"), bs, w)

    def test_a_corrupted_echelon_row_breaks_the_certificate_of_every_caller(self):
        # the residue path skips x^2, above the top degree: corrupt the
        # pivot row of y^2 = (1/3)*f_y instead
        bs = bsing("x^2+y^3")
        w = detect_weights(bs.f)
        spectrum(bs, w)
        st = bs._graded_engines[w]
        columns, index, _, pivots, _ = st.echelon(st.degree((0, 2)), st.order())
        _, tail = pivots[index[(0, 2)]]
        tail[next(k for k in tail if k >= len(columns))] += 1
        with pytest.raises(CertificateError, match="lost exactness"):
            quotient_coordinates(poly("y^2 + y"), bs, w)
        with pytest.raises(CertificateError, match="lost exactness"):
            versality_check(deformation_of(bs, "y^2"), w)

    def test_a_lost_staircase_slot_breaks_the_certificate_of_versality(self):
        bs = bsing("x^2+y^3")
        w = detect_weights(bs.f)
        spectrum(bs, w)
        del bs._graded_engines[w].slot[(1, 1)]
        with pytest.raises(CertificateError, match="non-staircase monomial escaped"):
            versality_check(deformation_of(bs, "x*y"), w)

    def test_an_empty_part_has_an_empty_certificate(self):
        bs = bsing("x^2+y^3")
        w = detect_weights(bs.f)
        spectrum(bs, w)
        st = bs._graded_engines[w]
        for D in range(st.top + 2):
            assert st.decompose({}, D, st.order()) == ({}, [{}, {}], 1)

    def test_a_lost_staircase_slot_is_an_escaped_monomial(self):
        bs = bsing("x^2+y^3")
        w = detect_weights(bs.f)
        spectrum(bs, w)
        del bs._graded_engines[w].slot[(1, 1)]
        for call in (quotient_coordinates, brieskorn_reduce):
            with pytest.raises(CertificateError, match="non-staircase monomial escaped"):
                call(poly("x*y"), bs, w)

    @pytest.mark.parametrize("g,f,names", [
        ("u*v^2+u^2", "x^2+y^3", ("u", "v")),
        ("x*y*z", "x^3+y^4", ("x", "y", "z")),
    ], ids=["same_arity", "other_arity"])
    def test_a_foreign_context_is_bad_input(self, g, f, names):
        bs = bsing(f)
        w = detect_weights(bs.f)
        foreign = poly(g, VarContext(names, 0))
        for call in (quotient_coordinates, brieskorn_reduce):
            with pytest.raises(ValueError, match="context"):
                call(foreign, bs, w)


def rational_terms(rng, arity, count, top=4):
    """Up to ``count`` random monomials with rational coefficients."""
    return {tuple(rng.randint(0, top) for _ in range(arity)):
            F(rng.choice([-7, -3, -1, 1, 2, 5]), rng.choice([1, 2, 3, 4, 9]))
            for _ in range(count)}


def rational_germs():
    """Quasihomogeneous germs with non-integer coefficients, at weights
    whose denominators have lcm > 1: hand-picked, and the seeded corpus
    with each coefficient scaled by a random rational."""
    rng = random.Random(21)
    out = []
    for f, ctx in [("3/2*x^2 + 5/7*y^3", XY), ("x^2 + y^4 + 2/3*x*y^2", XY),
                   ("1/2*x*y + 4/9*y^5", XY), ("x^2 - 1/3*y^3 + 7/5*z^2", XYZ),
                   ("2/3*x^3 + y^3 + 1/2*x*y*z + z^3", XYZ)]:
        out.append(bsing(f, ctx))
    for bs, _ in quasihomogeneous_corpus(seed=4, count=12):
        terms = {m: c * F(rng.choice([1, 2, 5, 7]), rng.choice([2, 3, 6]))
                 for m, c in bs.f.terms.items()}
        try:
            out.append(BoundarySingularity(Polynomial(bs.ctx, terms)))
        except NonIsolatedError:
            pass
    return out


class TestGradedOracle:
    """The integer engine against its Fraction elimination in
    ``tests/graded_oracle.py``, value for value and in the same order."""

    def test_the_germs_have_rational_data(self):
        germs = rational_germs()
        assert len(germs) >= 15
        assert sum(any(c.denominator > 1 for c in bs.f.terms.values()) for bs in germs) >= 15
        assert all(quasihomog._engine(bs, detect_weights(bs.f)).scale > 1 for bs in germs)

    def test_reductions_match_the_fraction_oracle(self):
        rng = random.Random(3)
        for bs in rational_germs():
            w = detect_weights(bs.f)
            n = bs.ctx.arity
            oracle = GradedOracle(quasihomog._engine(bs, w))
            g = Polynomial(bs.ctx, rational_terms(rng, n, 5))
            coords = quotient_coordinates(g, bs, w)
            assert list(coords.items()) == list(oracle.coordinates(g).items())
            h = g * bs.f + g
            for order in permutations(range(n)):
                got = brieskorn_reduce(h, bs, w, generator_order=order)
                assert repr(got) == repr(oracle.brieskorn_reduce(h, order))

    def test_decompositions_match_the_fraction_oracle(self):
        # den*part == rem + sum_j cof[j]*G_j with G_j = s_j*g_j
        rng = random.Random(5)
        for bs in rational_germs():
            st = quasihomog._engine(bs, detect_weights(bs.f))
            oracle = GradedOracle(st)
            order = st.order()
            for D in range(st.top + 1):
                stairs = [m for m in quasihomog._monomials(st.W, D) if m in st.slot]
                assert stairs == oracle.staircase(D, order)
            g = Polynomial(bs.ctx, rational_terms(rng, bs.ctx.arity, 8, top=6))
            for D, part in st.parts(g.terms):
                ints, s = sb_module._cleared(part)
                rem, cof, den = st.decompose(ints, D, order)
                want_rem, want_cof = oracle.decompose(part, D, order)
                assert den > 0
                assert {m: F(c, den * s) for m, c in rem.items()} == want_rem
                assert [{q: F(c * s_j, den * s) for q, c in cj.items()}
                        for cj, s_j in zip(cof, st.scales)] == want_cof

    def test_versality_matches_the_fraction_oracle(self):
        # seeded deformations of the rational germs and of F_4: velocities
        # with rational coefficients over several weighted degrees, so the
        # parts' denominators differ, plus terms of order 2 in the parameters
        rng = random.Random(8)
        germs = rational_germs() + [bsing("x^2+y^3")]
        outcomes = Counter()
        for bs in germs:
            w = detect_weights(bs.f)
            st = quasihomog._engine(bs, w)
            stairs = [e.monomial for e in st.spectrum().entries]
            n = bs.ctx.arity
            for _ in range(4):
                k = rng.randint(1, min(len(stairs) + 1, 6))
                names = tuple(f"l{i}" for i in range(k))
                family = VarContext(bs.ctx.names + names, bs.ctx.boundary_index)
                terms = {m + (0,) * k: c for m, c in bs.f.terms.items()}
                for i in range(k):
                    unit = tuple(int(j == i) for j in range(k))
                    velocity = rational_terms(rng, n, 3)
                    velocity[rng.choice(stairs)] = F(rng.choice([-2, 1, 3]), rng.choice([1, 5]))
                    for m, c in velocity.items():
                        terms[m + unit] = c
                    terms[(0,) * n + tuple(2 * x for x in unit)] = F(1, 3)
                d = Deformation(Polynomial(family, terms), names, bs)
                got = versality_check(d, w)
                assert got == versality_oracle(d, st)
                outcomes[got.versal] += 1
        assert outcomes[True] >= 5 and outcomes[False] >= 20


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


def draw_bp_germ(data):
    """A Brieskorn-Pham germ with random coefficients, with a mixed term of
    the same weighted degree where one exists, so that the Jacobian ideal
    is not monomial; non-isolated draws are rejected."""
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
        return BoundarySingularity(f)
    except NonIsolatedError:
        assume(False)


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(data=st.data())
def test_warm_engine_reduces_like_a_fresh_germ(data):
    # the echelons differ between generator orders on the mixed germs
    bs = draw_bp_germ(data)
    f, ctx = bs.f, bs.ctx
    coeff = st.sampled_from([-3, -2, -1, 1, 2, 3])
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


def product_formula(shift, factors):
    """The exponents, with multiplicity and sorted, of
    t^shift * prod (1 - t^a)/(1 - t^b) over (a, b) in ``factors``: each a is
    a multiple k*b, so a factor is the sum of t^(i*b) for i < k."""
    out = Counter({shift: 1})
    for a, b in factors:
        k = a / b
        assert k.denominator == 1
        nxt = Counter()
        for e, c in out.items():
            for i in range(int(k)):
                nxt[e + i * b] += c
        out = nxt
    return sorted(out.elements())


@settings(derandomize=True, database=None, max_examples=20, deadline=None)
@given(data=st.data())
def test_spectra_equal_the_poincare_product_formula(data):
    # an oracle independent of the engine: the closed forms of the
    # boundary and the two ordinary spectra, over Fraction exponents
    bs = draw_bp_germ(data)
    w = detect_weights(bs.f)
    wx, wy = w[0], w[1:]
    one = F(1)
    assert spectrum(bs, w).alphas() == product_formula(
        sum(w), [(one, wx)] + [(1 - v, v) for v in wy])
    assert ordinary_spectrum(bs.f, w).alphas() == product_formula(
        sum(w), [(1 - v, v) for v in w])
    assert ordinary_spectrum(bs.restriction, wy).alphas() == product_formula(
        sum(wy), [(1 - v, v) for v in wy])


def seeded_poly(rng, arity):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        m = tuple(rng.randint(0, 4) for _ in range(arity))
        terms[m] = terms.get(m, 0) + rng.choice([-3, -2, -1, 1, 2, 3])
    return terms


# sha256 over the reprs below, computed with the weighted Buchberger
# engine that the per-degree echelons replaced
GRADED_OUTPUTS_SHA256 = "9d56d30dc65f6d52408b5fc5bc15acfa7898a89829a7e5d55160f9d47714f55e"


def test_graded_outputs_match_the_pinned_digest():
    # staircase coordinates, Brieskorn classes in the default and one
    # permuted generator order, and versality, byte for byte, on the 72
    # germs of quasihomogeneous_corpus(seed=0..5, count=12)
    h = hashlib.sha256()
    for seed in range(6):
        rng = random.Random(seed)
        for bs, w in quasihomogeneous_corpus(seed=seed, count=12):
            ctx, n = bs.ctx, bs.ctx.arity
            g = Polynomial(ctx, seeded_poly(rng, n))
            perm = list(reversed(range(n)))
            family = VarContext(ctx.names + ("l0", "l1"), ctx.boundary_index)
            terms = {m + (0, 0): c for m, c in bs.f.terms.items()}
            for k in range(2):
                for m, c in seeded_poly(rng, n).items():
                    key = m + tuple(int(i == k) for i in range(2))
                    terms[key] = terms.get(key, 0) + c
            d = Deformation(Polynomial(family, terms), ("l0", "l1"), bs)
            out = (
                quotient_coordinates(g, bs, w),
                brieskorn_reduce(g, bs, w),
                brieskorn_reduce(g, bs, w, generator_order=perm),
                versality_check(d, w),
            )
            h.update(repr(out).encode())
    assert h.hexdigest() == GRADED_OUTPUTS_SHA256
