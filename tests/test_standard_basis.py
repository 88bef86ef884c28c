import hashlib
import inspect
import itertools
import math
import random
from fractions import Fraction

import pytest

import bsing.standard_basis as sb_module
from bsing.boundary import (
    BoundarySingularity,
    jacobian_ideal,
    jacobian_ideal_boundary,
    milnor_numbers,
)
from bsing.corpus import NORMAL_FORMS, boundary_corpus, family_normal_form
from bsing.polyring import (
    Polynomial,
    VarContext,
    monomial_divides,
    monomial_key,
    parse_polynomial,
)
from bsing.standard_basis import (
    INFINITE,
    LocalAlgebra,
    StandardBasis,
    jet_dimension_oracle,
    quotient_basis,
    _axis_orders,
    _corner,
    _key,
    _runs,
    staircase_quotient,
    standard_basis,
)
from jet_oracle import jet_membership_oracle
from untruncated import untruncated_basis

XY = VarContext(("x", "y"), 0)
XYZ = VarContext(("x", "y", "z"), 0)
YX = VarContext(("y", "x"), 0)


def poly(s: str, ctx=XY) -> Polynomial:
    return parse_polynomial(s, ctx)


def random_poly(rng, ctx=XY, max_deg=4, terms=4):
    out = {}
    for _ in range(rng.randint(1, terms)):
        m = tuple(rng.randint(0, max_deg) for _ in range(ctx.arity))
        out[m] = Fraction(rng.randint(-5, 5))
    return Polynomial(ctx, out)


def test_package_attribute_is_the_module():
    import bsing

    assert inspect.ismodule(bsing.standard_basis)


class TestLocalOrder:
    def test_one_is_largest(self):
        assert _key((0, 0)) < _key((1, 0))
        assert _key((0, 0)) < _key((0, 5))

    def test_revlex_tie_break_prefers_x(self):
        # same degree: x beats y, so LT(x + y) = x
        assert _key((1, 0)) < _key((0, 1))
        assert min(poly("x+y").terms, key=_key) == (1, 0)

    def test_an_order_argument_is_refused(self):
        # nothing selects another order: a second positional argument, as
        # an order once was, must not bind to a keyword-only flag
        with pytest.raises(TypeError):
            standard_basis([poly("x^2"), poly("y^3")], 9)


class TestMoraNormalForm:
    # the cases of the retired public Mora division, now decided by
    # StandardBasis.contains
    @staticmethod
    def member(p: str, gens: list[str]) -> bool:
        return standard_basis([poly(g) for g in gens]).contains(poly(p))

    def test_direct_division(self):
        assert self.member("x^2", ["x"])

    def test_nondivisible_stays(self):
        # LT(x + y) = x does not divide y, so y is already reduced
        assert not self.member("y", ["x+y"])

    def test_reduction_across_the_tie(self):
        # the mirror image: x reduces by x + y leaving -y, which stays
        assert not self.member("x", ["x+y"])
        assert self.member("x + y", ["x+y"])

    def test_unit_remainder(self):
        assert not self.member("1", ["x", "y"])

    def test_unit_tracking_in_local_ring(self):
        # naive division of x by x - x^2 loops; x = (1 - x)^-1 * (x - x^2)
        # lies in the local ideal only
        assert self.member("x", ["x - x^2"])
        sb = standard_basis([poly("x - x^2")], track_representations=True)
        (rep,) = sb.representations
        assert sb.generators[0] == rep[0] * poly("x - x^2")


class TestStandardBasis:
    def test_f4_ordinary_jacobian(self):
        sb = standard_basis([poly("2*x"), poly("3*y^2")])
        assert sb.leading_monomials == ((1, 0), (0, 2))

    def test_ck_jacobian_completion(self):
        # x*y and x + 3*y^2 force the new element y^3
        sb = standard_basis([poly("x*y"), poly("x + 3*y^2")])
        assert sb.leading_monomials == ((1, 0), (0, 3))

    def test_unit_ideal(self):
        sb = standard_basis([poly("1")])
        assert quotient_basis(sb).dimension == 0

    def test_unit_ideal_with_tail(self):
        sb = standard_basis([poly("3 + y + x^2*y^4")])
        assert quotient_basis(sb).dimension == 0

    def test_inputs_reduce_to_zero(self):
        gens = [poly("x*y"), poly("x + 3*y^2")]
        sb = standard_basis(gens)
        for g in gens:
            assert sb.contains(g)

    def test_representation_tracking(self):
        # besides the fixed ideal, 60 seeded non-homogeneous ones of degree
        # <= 3.  With this seed a partial result of Mora division joins the
        # reducers in 3 of them, and in one the basis depends on the
        # representation that partial result carried
        rng = random.Random(0)
        ideals = [[poly("x*y"), poly("x + 3*y^2")]]
        for _ in range(60):
            gens = []
            for _ in range(rng.randint(2, 3)):
                terms = {}
                for _ in range(rng.randint(1, 3)):
                    m = (rng.randint(0, 3), rng.randint(0, 3))
                    if 1 <= sum(m) <= 3:
                        terms[m] = Fraction(rng.randint(-5, 5))
                gens.append(Polynomial(XY, terms))
            if not all(g.is_zero() for g in gens):
                ideals.append(gens)
        for gens in ideals:
            sb = standard_basis(gens, track_representations=True)
            assert sb.representations is not None
            for g, rep in zip(sb.generators, sb.representations):
                acc = Polynomial.zero(XY)
                for c, src in zip(rep, gens):
                    acc = acc + c * src
                assert acc == g, gens


class TestQuotientBasis:
    def test_f4_boundary_staircase(self):
        sb = standard_basis([poly("x^2"), poly("y^2")])
        alg = quotient_basis(sb)
        assert alg.basis_monomials == ((0, 0), (1, 0), (0, 1), (1, 1))
        assert alg.dimension == 4

    def test_small_staircase(self):
        alg = quotient_basis(standard_basis([poly("x"), poly("y^2")]))
        assert alg.basis_monomials == ((0, 0), (0, 1))
        assert alg.dimension == 2

    def test_infinite_marker(self):
        alg = quotient_basis(standard_basis([poly("x")]))
        assert alg.dimension == INFINITE
        assert not alg.is_finite

    def test_one_algebra_per_basis(self):
        sb = standard_basis([poly("x^3 - y^4"), poly("x*y^2 + x^4")])
        assert quotient_basis(sb) is quotient_basis(sb)
        # the corpus screen's basis is the boundary basis, with its algebra
        for bs in boundary_corpus(seed=77, count=12):
            assert bs.algebra_boundary is quotient_basis(bs.sb_boundary)

    @staticmethod
    def box_staircase(lms, cap):
        """Reference: scan the box of pure-power (or cap) bounds and keep
        what lies below the cap and no leading monomial divides."""
        bounds = []
        for i in range(len(lms[0])):
            pures = [m[i] for m in lms if not any(e for j, e in enumerate(m) if j != i)]
            if cap is not None:
                pures.append(cap)
            if not pures:
                return None
            bounds.append(min(pures))
        return sorted(
            (
                m for m in itertools.product(*(range(b) for b in bounds))
                if (cap is None or sum(m) < cap)
                and not any(monomial_divides(lm, m) for lm in lms)
            ),
            key=monomial_key,
        )

    def test_agrees_with_the_box_scan(self):
        rng = random.Random(41)
        seen = {"infinite": 0, "finite": 0, "capped": 0}
        for _ in range(600):
            arity = rng.randint(1, 3)
            lms = tuple({
                tuple(rng.randint(0, 5) for _ in range(arity))
                for _ in range(rng.randint(1, 5))
            })
            cap = rng.choice((None, None, rng.randint(1, 10)))
            sb = StandardBasis((), lms, degree_cap=cap)
            alg, want = quotient_basis(sb), self.box_staircase(lms, cap)
            if want is None:
                assert alg.dimension == INFINITE and alg.basis_monomials == (), lms
                seen["infinite"] += 1
                continue
            assert alg.basis_monomials == tuple(want), (lms, cap)
            assert alg.dimension == len(want)
            seen["capped" if cap is not None else "finite"] += 1
        assert min(seen.values()) >= 50, seen


class TestStaircaseQuotient:
    def test_certified_cap_agrees_with_uncapped(self):
        gens = [poly("x^3 - y^4"), poly("x*y^2 + x^4")]
        sb_fast, alg_fast = staircase_quotient(gens)
        sb_slow = untruncated_basis(gens)
        assert sb_fast.degree_cap is not None and sb_slow.degree_cap is None
        assert sorted(alg_fast.basis_monomials) == sorted(
            quotient_basis(sb_slow).basis_monomials
        )

    def test_non_isolated_falls_back(self):
        sb, alg = staircase_quotient([poly("x^2")])
        assert alg.dimension == INFINITE

    def test_capped_staircase_equals_uncapped_on_random_ideals(self):
        rng = random.Random(2024)
        certified = {2: 0, 3: 0}
        while min(certified.values()) < 15:
            arity = rng.choice((2, 3))
            ctx = XY if arity == 2 else XYZ
            gens = [
                g for g in (
                    random_poly(rng, ctx, max_deg=4 if arity == 2 else 3, terms=3)
                    for _ in range(arity + rng.randint(0, 1))
                )
                if not g.is_zero()
            ]
            if not gens:
                continue
            sb_fast, alg_fast = staircase_quotient(gens)
            if sb_fast is None or sb_fast.degree_cap is None:
                continue  # no basis or no corner: nothing was capped
            alg_slow = quotient_basis(untruncated_basis(gens))
            assert alg_fast.basis_monomials == alg_slow.basis_monomials, [
                str(g) for g in gens
            ]
            certified[arity] += 1

    def test_certified_basis_spans_the_cap_degree(self):
        # J_(f,H) of x^4+y^5+z^6 is (x^4, y^4, z^5): its staircase reaches
        # degree 3+3+4 = 10, so the highest corner is 11
        gens = jacobian_ideal_boundary(poly("x^4+y^5+z^6", XYZ))
        sb, alg = staircase_quotient(gens)
        assert sb.degree_cap == 11 and alg.dimension == 80
        for m in itertools.product(range(12), repeat=3):
            if sum(m) == 11:
                assert any(monomial_divides(lm, m) for lm in sb.leading_monomials), m

    def test_one_standard_basis_call_per_ideal(self, monkeypatch):
        # at most one standard_basis call per ideal, with no cap given: it
        # records the highest corner when there is one, and None when there
        # is none; an ideal with an axis free of pure powers needs no call
        calls = []
        real = sb_module.standard_basis

        def counting(*args, **kwargs):
            calls.append(kwargs.get("degree_cap"))
            return real(*args, **kwargs)

        monkeypatch.setattr(sb_module, "standard_basis", counting)
        sb, alg = staircase_quotient(jacobian_ideal_boundary(poly("x^4+y^5+z^6", XYZ)))
        assert calls == [None]
        assert sb.degree_cap == 11 and alg.dimension == 80
        calls.clear()
        # the two plane boundary ideals took 1.7 s and 0.9 s as runs of
        # standard_basis, and on ROADMAP item 5's 3-variable ideal every
        # run drops terms and finds no corner, for minutes
        item5 = ["4*y^2*z + 3*x^3*y*z^2", "-x*z^3 + 2*x^2*y^2*z^2 + 3*x*y^3*z^2",
                 "-x^3*y^2*z - x^3*z^3 + 3*x*y^3*z^2"]
        axis_free = [[poly("x^2")], [poly(g, XYZ) for g in item5]]
        axis_free += [jacobian_ideal_boundary(poly(f)) for f in (
            "x + x^2*y + 3*x*y^3 + x^5*y - 3*x^4*y^2 - 2*x*y^5",
            "x^2*y + 3*x^5 - x*y^4 + 2*x^4*y^2 - 2*x^2*y^4")]
        for gens in axis_free:
            assert staircase_quotient(gens) == (None, LocalAlgebra((), INFINITE))
        assert calls == []
        sb, alg = staircase_quotient([poly("x^2 + y^2")])
        assert calls == [None]
        assert sb.degree_cap is None and alg.dimension == INFINITE

    def test_truncation_degree_rises_until_a_corner_or_an_exact_run(self, monkeypatch):
        # without a cap each run truncates below a provisional degree 6, 9,
        # 13, ...; it is repeated while it drops terms and finds no corner
        # below that degree.  Uncapped Mora division on the first ideal (the
        # boundary Jacobian ideal of a germ of boundary_corpus(seed=24))
        # runs for minutes; the last two ideals drop nothing and are exact,
        # and an exact run is final even with its corner at the limit.
        limits = []
        real = sb_module._complete

        def recording(ctx, elems, scales, track, limit, provisional=False):
            limits.append(limit)
            return real(ctx, elems, scales, track, limit, provisional)

        monkeypatch.setattr(sb_module, "_complete", recording)
        cases = [
            (poly("x*z + y^3*z + y^2*z^2 + x^3*y*z + z^5 - y^6", XYZ), [6, 9], 8, 15),
            (poly("x^4*y^4 + x^9 + y^9"), [6, 9, 13, 19], 15, 63),
            (poly("x^4 + y^4"), [6], 6, 12),
            (poly("x^4*y^4"), [6], None, INFINITE),
        ]
        for f, want_limits, corner, mu in cases:
            limits.clear()
            gens = jacobian_ideal_boundary(f)
            sb = standard_basis(gens)
            alg = quotient_basis(sb)
            assert limits == want_limits, str(f)
            assert sb.degree_cap == corner and alg.dimension == mu, str(f)
            if corner is not None:
                assert jet_dimension_oracle(gens, corner + 1) == mu, str(f)
                top = max(sum(m) for m in alg.basis_monomials)
                assert top + 1 == corner, str(f)
        # the run at 9 that used to repeat the exact run of x^4 + y^4 at 6
        # makes the same basis
        gens = jacobian_ideal_boundary(poly("x^4 + y^4"))
        assert standard_basis(gens) == real(XY, *sb_module._inputs(gens), False, 9, True)

    def test_generators_are_converted_once_per_call(self, monkeypatch):
        # the four runs of the rising truncation degree share one conversion
        # of the generators to kernel elements
        runs, conversions = [], []
        real_complete, real_inputs = sb_module._complete, sb_module._inputs

        def counting_complete(*args, **kwargs):
            runs.append(1)
            return real_complete(*args, **kwargs)

        def counting_inputs(*args, **kwargs):
            conversions.append(1)
            return real_inputs(*args, **kwargs)

        monkeypatch.setattr(sb_module, "_complete", counting_complete)
        monkeypatch.setattr(sb_module, "_inputs", counting_inputs)
        gens = jacobian_ideal_boundary(poly("x^4*y^4 + x^9 + y^9"))
        sb = standard_basis(gens)
        assert (len(runs), len(conversions)) == (4, 1)
        # the elements the three earlier runs used give the basis of fresh ones
        assert sb == real_complete(XY, *real_inputs(gens), False, 19, True)
        assert sb.degree_cap == 15 and quotient_basis(sb).dimension == 63

    def test_runs_to_build_the_normal_forms(self, monkeypatch):
        # a deterministic counter: completion runs behind the 60 bases of the
        # 20 normal forms with k <= 7 (67 before an exact provisional run
        # was final)
        calls, runs = [], []
        real_sb, real_complete = sb_module.standard_basis, sb_module._complete

        def counting_sb(*args, **kwargs):
            calls.append(1)
            return real_sb(*args, **kwargs)

        def counting_complete(*args, **kwargs):
            runs.append(1)
            return real_complete(*args, **kwargs)

        monkeypatch.setattr(sb_module, "standard_basis", counting_sb)
        monkeypatch.setattr(sb_module, "_complete", counting_complete)
        for name, family in NORMAL_FORMS.items():
            for k in family.k_values(7):
                BoundarySingularity(family_normal_form(name, k))
        assert (len(calls), len(runs)) == (60, 62)

    def test_uncertified_cap_describes_ideal_plus_cap_power(self):
        # modulo m^4 the ideal (x^4, y^4, z^5) is all of m^4 although no
        # leading monomial divides z^4
        gens = jacobian_ideal_boundary(poly("x^4+y^5+z^6", XYZ))
        sb = standard_basis(gens, degree_cap=4)
        z4 = poly("z^4", XYZ)
        assert not any(monomial_divides(lm, (0, 0, 4)) for lm in sb.leading_monomials)
        assert sb.contains(z4)
        assert not standard_basis(gens).contains(z4)
        assert quotient_basis(sb).dimension == 20  # monomials of degree < 4

    def test_non_isolated_boundary_germ(self):
        # no highest corner appears: runs that drop no term report the
        # infinite quotients.  staircase_quotient, and so BoundarySingularity,
        # builds no basis for these ideals (an axis certifies them), so the
        # runs are made here
        germs = ["x^2*y^2", "x^2*y^3", "x^3*y^2", "x*y^3", "x^3*y^3", "x^2*y^4",
                 "x^4*y^2", "x^4*y^4"]
        cases = [poly(f) for f in germs] + [poly("y^2*z^2+x^3", XYZ)]
        for f in cases:
            for gens in (jacobian_ideal_boundary(f), jacobian_ideal(f)):
                sb = standard_basis(gens)
                assert sb.degree_cap is None, str(f)
                assert quotient_basis(sb).dimension == INFINITE, str(f)
                assert staircase_quotient(gens) == (None, quotient_basis(sb)), str(f)
            bs = BoundarySingularity(f, allow_non_isolated=True)
            assert milnor_numbers(bs) == (INFINITE, INFINITE, INFINITE), str(f)

    def test_zero_ideals_and_no_variables(self):
        point, infinite = LocalAlgebra(((),), 1), LocalAlgebra((), INFINITE)
        nowhere = VarContext((), 0)
        # an empty list is the Jacobian ideal of a germ in no variables
        assert staircase_quotient([]) == (None, point)
        assert staircase_quotient([Polynomial.zero(nowhere)]) == (None, point)
        assert staircase_quotient([Polynomial.zero(XY)]) == (None, infinite)
        assert staircase_quotient([Polynomial.zero(XYZ)] * 3) == (None, infinite)
        # zero generators are dropped before the basis is built
        sb, alg = staircase_quotient([Polynomial.zero(XY), poly("x"), poly("y^2")])
        assert (sb, alg) == (standard_basis([poly("x"), poly("y^2")]), quotient_basis(sb))
        # nonzero constants in no variables: the unit ideal, the zero algebra
        sb, alg = staircase_quotient([Polynomial.zero(nowhere), Polynomial.constant(nowhere, 2)])
        assert (sb.generators, sb.degree_cap) == ((Polynomial.constant(nowhere, 1),), 0)
        assert alg == LocalAlgebra((), 0)

    def test_one_entry_equals_its_standard_basis(self):
        # on an ideal with a pure power on every axis, staircase_quotient is
        # the standard basis and its quotient; with an axis free of them it
        # is the infinite algebra that the basis would also give
        kinds = {"finite": 0, "infinite": 0, "axis-free": 0}
        for gens in _seeded_ideals():
            sb = standard_basis(gens)
            alg = quotient_basis(sb)
            if _axis_orders(gens) is None:
                assert alg.dimension == INFINITE, [str(g) for g in gens]
                assert staircase_quotient(gens) == (None, alg)
                kinds["axis-free"] += 1
                continue
            assert staircase_quotient(gens) == (sb, alg), [str(g) for g in gens]
            kinds["finite" if alg.is_finite else "infinite"] += 1
        assert kinds == {"finite": 28, "infinite": 0, "axis-free": 21}, kinds


class TestMixedContexts:
    # the local kernel reads bare exponent tuples, so a polynomial over
    # another context would be read as one over the first context's names
    def test_standard_basis(self):
        with pytest.raises(ValueError, match="different contexts"):
            standard_basis([poly("x^2"), poly("y^3", XYZ)])

    def test_staircase_quotient(self):
        with pytest.raises(ValueError, match="different contexts"):
            staircase_quotient([poly("x^2"), poly("x^3", YX)])
        with pytest.raises(ValueError, match="different contexts"):
            staircase_quotient([Polynomial.zero(XY), Polynomial.zero(XYZ)])

    def test_contains(self):
        sb = standard_basis([poly("x^2"), poly("y^3")])
        assert sb.contains(poly("x^2"))
        with pytest.raises(ValueError, match="different contexts"):
            sb.contains(poly("x^2", YX))

    def test_jet_dimension_oracle(self):
        # read over one context, x^2 and x^3 over (y, x) = y^3 would give 6
        with pytest.raises(ValueError, match="different contexts"):
            jet_dimension_oracle([poly("x^2"), poly("x^3", YX)])
        with pytest.raises(ValueError, match="different contexts"):
            jet_dimension_oracle(iter([poly("x^2"), poly("y^3", XYZ)]))

    def test_jet_membership_oracle(self):
        # read over (x, y), x^2 over (y, x) would be y^2, not in (x^2, y^3)
        gens = [poly("x^2"), poly("y^3")]
        assert jet_membership_oracle(poly("x^2"), iter(gens))
        with pytest.raises(ValueError, match="different contexts"):
            jet_membership_oracle(poly("x^2", YX), gens)


class TestJetOracle:
    def test_f4_cross_check(self):
        assert jet_dimension_oracle([poly("x^2"), poly("y^2")]) == 4

    def test_ak_boundary_jacobian(self):
        # J = (x, (k+1) y^k) for the germ x + y^(k+1): dimension k
        for k in (1, 3, 5):
            assert jet_dimension_oracle([poly("x"), poly(f"y^{k}").scale(k + 1)]) == k

    def test_infinite(self):
        assert jet_dimension_oracle([poly("x")], 10) == INFINITE

    def test_membership_consistency(self):
        rng = random.Random(31)
        checked = 0
        while checked < 25:
            gens = [g for g in (random_poly(rng, terms=3) for _ in range(2)) if not g.is_zero()]
            if not gens:
                continue
            sb, alg = staircase_quotient(gens)
            if not alg.is_finite:
                continue
            p = random_poly(rng)
            if p.is_zero():
                continue
            assert sb.contains(p) == jet_membership_oracle(p, gens, 18)
            checked += 1

    def test_contains_decides_where_the_tracked_division_hung(self):
        # the retired public division, tracked, did not finish in 40 s on
        # p against these generators, which are not a standard basis
        gens = jacobian_ideal_boundary(
            poly("-3*y*z + x^3 + 3*z^3 - 3*x*z^4 + 2*x*y^2*z^3", XYZ))
        sb, alg = staircase_quotient(gens)
        assert alg.basis_monomials == ((0, 0, 0), (1, 0, 0), (2, 0, 0))
        p = poly("y^2 + x^3 + x*z^2 - 3*x^2*y^2", XYZ)
        for extra, member in (("0", True), ("x", False), ("x^2", False), ("1", False)):
            q = p + poly(extra, XYZ)
            assert sb.contains(q) == jet_membership_oracle(q, gens) == member, extra

    def test_no_variables(self):
        point = VarContext((), None)
        unit = Polynomial.constant(point, 2)
        assert jet_membership_oracle(Polynomial.constant(point, 3), [unit])
        assert jet_membership_oracle(Polynomial.zero(point), [Polynomial.zero(point)])
        assert not jet_membership_oracle(unit, [Polynomial.zero(point)])

    def test_high_degree_membership_under_the_certified_cap(self):
        # a (7,9)-type germ: its staircase reaches degree 14 (x*y^13), so
        # the highest corner certifies m^15; multipliers of degree up to 10
        # take the members past the cap, where contains truncates
        gens = jacobian_ideal_boundary(poly("-2*x^7 - 2*x^5*y^3 - 3*y^9 - x^6*y^4"))
        sb, alg = staircase_quotient(gens)
        assert sb.degree_cap == 15 and alg.dimension == 56
        assert max(sum(m) for m in alg.basis_monomials) == 14
        uncapped = untruncated_basis(gens)
        assert uncapped.degree_cap is None
        rng = random.Random(79)

        def multiplier():
            return Polynomial(XY, {
                (a, rng.randint(0, 10 - a)): Fraction(rng.choice((-3, -2, -1, 1, 2, 3)))
                for a in rng.sample(range(11), rng.randint(1, 3))
            })

        multipliers = [[poly("x^7*y^2"), poly("3*x*y^5 + 2*x^3*y^4")]]
        multipliers += [[multiplier() for _ in gens] for _ in range(5)]
        members = [
            sum((a * g for a, g in zip(mults, gens)), Polynomial.zero(XY))
            for mults in multipliers
        ]
        assert min(p.total_degree() for p in members) > sb.degree_cap
        for member in members:
            box = Polynomial.monomial(XY, (rng.randrange(7), rng.randrange(8)), 1)
            for p, want in ((member, True), (member + box, False)):
                assert sb.contains(p) == want
                assert uncapped.contains(p) == want
                assert jet_membership_oracle(p, gens, 20) == want

    def test_dimension_agreement_on_random_ideals(self):
        rng = random.Random(37)
        checked = 0
        while checked < 50:
            ngens = rng.randint(2, 3)
            gens = [g for g in (random_poly(rng, terms=3) for _ in range(ngens)) if not g.is_zero()]
            if not gens:
                continue
            dim = jet_dimension_oracle(gens, 14)
            if dim == INFINITE or dim > 30:
                continue
            _, alg = staircase_quotient(gens)
            assert alg.dimension == dim, [str(g) for g in gens]
            checked += 1


def _tracking_ideals():
    """The fixed ideal and the 60 seeded ones of test_representation_tracking."""
    rng = random.Random(0)
    ideals = [[poly("x*y"), poly("x + 3*y^2")]]
    for _ in range(60):
        gens = []
        for _ in range(rng.randint(2, 3)):
            terms = {}
            for _ in range(rng.randint(1, 3)):
                m = (rng.randint(0, 3), rng.randint(0, 3))
                if 1 <= sum(m) <= 3:
                    terms[m] = Fraction(rng.randint(-5, 5))
            gens.append(Polynomial(XY, terms))
        if not all(g.is_zero() for g in gens):
            ideals.append(gens)
    return ideals


def _seeded_ideals():
    """Boundary Jacobian ideal of the non-isolated x^4*y^4, then per draw a
    random 2- or 3-variable ideal (mostly unit or non-isolated) and one
    with a pure power per variable under a random tail (mostly finite
    colength, with corners below and at 9)."""
    rng = random.Random(2027)
    ideals = [jacobian_ideal_boundary(poly("x^4*y^4"))]
    for arity in (2, 3) * 12:
        ctx = XY if arity == 2 else XYZ
        gens = [g for g in (random_poly(rng, ctx, 4 if arity == 2 else 3, 3)
                            for _ in range(arity + rng.randint(0, 1))) if not g.is_zero()]
        if gens:
            ideals.append(gens)
        gens = []
        for i in range(arity):
            tail = random_poly(rng, ctx, 4 if arity == 2 else 3, 3)
            power = tuple(rng.randint(2, 5 if arity == 2 else 4) if j == i else 0
                          for j in range(arity))
            gens.append(tail - Polynomial(ctx, {m: c for m, c in tail.terms.items() if sum(m) < 2})
                        + Polynomial.monomial(ctx, power, rng.choice((1, 2, 3))))
        ideals.append(gens)
    return ideals


class TestPinnedIdentity:
    # sha256 of the records below.  Every exact value must survive, down to
    # generators that corner truncation leaves non-primitive (2*x from
    # 2*x + 3*y^9) and the representations of each tracked basis.  It was
    # taken on code that still gave the Fraction kernel's digest of these
    # records plus two division certificates per tracked ideal
    DIGEST = "e7066204c821506d5b33ed9aa13343828226f9f0939a46a492ac227da48cbffe"

    def test_bases_and_certificates_are_unchanged(self):
        records = []
        for bs in boundary_corpus(seed=77, count=12):
            for sb in (bs.sb_boundary, bs.sb_ambient, bs.sb_restriction):
                records.append(
                    None if sb is None else (sb.generators, sb.leading_monomials, sb.degree_cap))
        contents = {math.gcd(*(int(c) for c in g.terms.values()))
                    for r in records if r for g in r[0]}
        assert contents - {1}, "no truncated generator kept its scale"
        for gens in _seeded_ideals():
            for cap in (9, None):
                sb = standard_basis(gens, degree_cap=cap)
                records.append((sb.generators, sb.leading_monomials, sb.degree_cap))
        for gens in _tracking_ideals():
            sb = standard_basis(gens, track_representations=True)
            records.append((sb.generators, sb.representations, sb.leading_monomials))
        assert len(records) == 191
        assert hashlib.sha256(repr(records).encode()).hexdigest() == self.DIGEST


class TestCornerRule:
    def test_corner_matches_the_box_scan(self):
        # the corner and the staircase both come from the runs of one walk;
        # the box scan checks them independently
        rng = random.Random(53)
        seen = {"one": 0, "no pure power": 0, "bound 1": 0, "lowered": 0}
        for _ in range(600):
            arity = rng.randint(1, 3)
            lms = [tuple(rng.randint(0, 5) for _ in range(arity))
                   for _ in range(rng.randint(1, 5))]
            if rng.random() < 0.1:
                lms.append((0,) * arity)
            bound = rng.choice((1, rng.randint(1, 14)))
            box = TestQuotientBasis.box_staircase(lms, bound)
            walk = 1 + max((sum(m) for m in box), default=-1)
            assert _corner(lms, bound) == walk, (lms, bound)
            runs = [p + (e,) for p, top in _runs(lms, bound) for e in range(top)]
            assert sorted(runs, key=monomial_key) == box, (lms, bound)
            seen["one"] += (0,) * arity in lms
            seen["no pure power"] += not all(
                any(lm[i] and sum(lm) == lm[i] for lm in lms) for i in range(arity))
            seen["bound 1"] += bound == 1
            seen["lowered"] += walk < bound
        assert min(seen.values()) >= 30, seen


def _check_pushed(e, gens, tracked):
    """A pushed kernel element is a primitive integer polynomial with
    positive leading coefficient, is its own value, and caches the leading
    monomial, coefficient and ecart of its terms; tracked, its integer
    representation satisfies den*terms == sum(rep[t]*s_t*gens[t])."""
    ctx = gens[0].context
    assert e.terms and all(type(c) is int and c for c in e.terms.values())
    assert all(k[0] == sum(k[1:]) for k in e.terms)
    assert math.gcd(*e.terms.values()) == 1 and e.lam == 1
    value = Polynomial(ctx, {k[:0:-1]: c for k, c in e.terms.items()})
    lm = min(value.terms, key=_key)
    lc = value.terms[lm]
    assert (e.lm[:0:-1], e.lc) == (lm, lc) and lc > 0
    assert e.ecart == value.total_degree() - sum(lm)
    assert (e.rep is not None) == tracked
    if tracked:
        acc = Polynomial.zero(ctx)
        for r, g in zip(e.rep, gens):
            s = math.lcm(*(c.denominator for c in g.terms.values()))
            acc = acc + Polynomial(ctx, {k[:0:-1]: c for k, c in r.items()}) * g.scale(s)
        assert acc == value.scale(e.den)


class TestKernelInvariant:
    def test_pushed_elements_are_primitive_with_fresh_caches(self, monkeypatch):
        pushed = []
        real = sb_module._push

        def recording(basis, lms, e):
            real(basis, lms, e)
            pushed.append(e)

        monkeypatch.setattr(sb_module, "_push", recording)
        runs = [(gens, False, cap) for gens in _seeded_ideals() for cap in (9, None)]
        runs += [(gens, True, None) for gens in _tracking_ideals()]
        checked = {False: 0, True: 0}
        for gens, tracked, cap in runs:
            pushed.clear()
            standard_basis(gens, track_representations=tracked, degree_cap=cap)
            for e in pushed:
                _check_pushed(e, gens, tracked)
            checked[tracked] += len(pushed)
        assert min(checked.values()) >= 100, checked
