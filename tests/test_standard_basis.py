import importlib
import itertools
import random
from fractions import Fraction

import pytest

from bsing.boundary import BoundarySingularity, jacobian_ideal_boundary, milnor_numbers
from bsing.polyring import (
    Polynomial,
    VarContext,
    monomial_divides,
    monomial_key,
    parse_polynomial,
)
from bsing.standard_basis import (
    INFINITE,
    LocalOrder,
    StandardBasis,
    jet_dimension_oracle,
    jet_membership_oracle,
    leading_term,
    mora_normal_form,
    quotient_basis,
    staircase_quotient,
    standard_basis,
)
from untruncated import untruncated_basis

XY = VarContext(("x", "y"), 0)
XYZ = VarContext(("x", "y", "z"), 0)
# the module itself: the package attribute of that name is the function
sb_module = importlib.import_module("bsing.standard_basis")


def poly(s: str, ctx=XY) -> Polynomial:
    return parse_polynomial(s, ctx)


def random_poly(rng, ctx=XY, max_deg=4, terms=4):
    out = {}
    for _ in range(rng.randint(1, terms)):
        m = tuple(rng.randint(0, max_deg) for _ in range(ctx.arity))
        out[m] = Fraction(rng.randint(-5, 5))
    return Polynomial(ctx, out)


class TestLocalOrder:
    def test_one_is_largest(self):
        order = LocalOrder()
        assert order.key((0, 0)) < order.key((1, 0))
        assert order.key((0, 0)) < order.key((0, 5))

    def test_unit_weights_sort_like_the_unweighted_order(self):
        # the untruncated reference bases of the tests rely on this
        rng = random.Random(7)
        for arity in (1, 2, 3):
            monomials = [
                tuple(rng.randint(0, 6) for _ in range(arity)) for _ in range(200)
            ]
            plain, unit = LocalOrder(), LocalOrder((1,) * arity)
            assert sorted(monomials, key=plain.key) == sorted(monomials, key=unit.key)
            assert all(plain.key(m) == unit.key(m) for m in monomials)

    def test_revlex_tie_break_prefers_x(self):
        # same degree: x beats y, so LT(x + y) = x
        order = LocalOrder()
        assert order.key((1, 0)) < order.key((0, 1))
        assert leading_term(poly("x+y"), order) == ((1, 0), 1)

    def test_unweighted_degree_is_an_int(self):
        degree = LocalOrder().degree((2, 3))
        assert degree == 5 and type(degree) is int

    def test_weighted_degree_dominates(self):
        order = LocalOrder((Fraction(1), Fraction(1, 3)))
        # wdeg(y^2) = 2/3 < 1 = wdeg(x): y^2 is the larger monomial
        assert order.key((0, 2)) < order.key((1, 0))


class TestMoraNormalForm:
    def test_direct_division(self):
        r, cofs, unit = mora_normal_form(poly("x^2"), [poly("x")])
        assert (str(r), [str(c) for c in cofs], str(unit)) == ("0", ["x"], "1")

    def test_nondivisible_stays(self):
        # LT(x + y) = x does not divide y, so y is already reduced
        r, cofs, unit = mora_normal_form(poly("y"), [poly("x+y")])
        assert (r, cofs[0].is_zero(), str(unit)) == (poly("y"), True, "1")

    def test_reduction_across_the_tie(self):
        # the mirror image: x reduces by x + y leaving -y
        r, cofs, unit = mora_normal_form(poly("x"), [poly("x+y")])
        assert (str(r), str(cofs[0]), str(unit)) == ("-y", "1", "1")

    def test_unit_remainder(self):
        r, cofs, unit = mora_normal_form(poly("1"), [poly("x"), poly("y")])
        assert str(r) == "1" and all(c.is_zero() for c in cofs)

    def test_unit_tracking_in_local_ring(self):
        # naive division of x by x - x^2 loops; Mora yields unit 1 - x
        r, cofs, unit = mora_normal_form(poly("x"), [poly("x - x^2")])
        assert r.is_zero()
        assert str(unit) == "1 - x"
        assert str(cofs[0]) == "1"

    def test_division_identity_random(self):
        rng = random.Random(17)
        checked = 0
        for _ in range(60):
            p = random_poly(rng)
            gens = [g for g in (random_poly(rng) for _ in range(2)) if not g.is_zero()]
            if p.is_zero() or not gens:
                continue
            r, cofs, unit = mora_normal_form(p, gens)
            lhs = unit * p
            for c, g in zip(cofs, gens):
                lhs = lhs - c * g
            assert lhs == r
            assert unit.constant_term() != 0
            checked += 1
        assert checked >= 40

    def test_idempotence(self):
        rng = random.Random(19)
        for _ in range(20):
            p = random_poly(rng)
            gens = [g for g in (random_poly(rng) for _ in range(2)) if not g.is_zero()]
            if p.is_zero() or not gens:
                continue
            r, _, _ = mora_normal_form(p, gens)
            if r.is_zero():
                continue
            r2, cofs2, unit2 = mora_normal_form(r, gens)
            assert r2 == r and str(unit2) == "1"
            assert all(c.is_zero() for c in cofs2)


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
        gens = [poly("x*y"), poly("x + 3*y^2")]
        sb = standard_basis(gens, track_representations=True)
        assert sb.representations is not None
        for g, rep in zip(sb.generators, sb.representations):
            acc = Polynomial.zero(XY)
            for c, src in zip(rep, gens):
                acc = acc + c * src
            assert acc == g


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
            sb = StandardBasis((), LocalOrder(), lms, degree_cap=cap)
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
            if sb_fast.degree_cap is None:
                continue  # no corner: this was the uncapped path itself
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
        # one standard_basis call per ideal, with no cap given: it records
        # the highest corner when there is one, and None when there is none
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
        sb, alg = staircase_quotient([poly("x^2")])
        assert calls == [None]
        assert sb.degree_cap is None and alg.dimension == INFINITE

    def test_truncation_degree_rises_until_a_corner_or_an_exact_run(self, monkeypatch):
        # without a cap each run truncates below a provisional degree 6, 9,
        # 13, ...; it is repeated while it drops terms and finds no corner
        # below that degree.  Uncapped Mora division on the first ideal (the
        # boundary Jacobian ideal of a germ of boundary_corpus(seed=24))
        # runs for minutes; the last ideal drops nothing and is exact.
        limits = []
        real = sb_module._complete

        def recording(inputs, order, track, limit, provisional=False):
            limits.append(limit)
            return real(inputs, order, track, limit, provisional)

        monkeypatch.setattr(sb_module, "_complete", recording)
        cases = [
            (poly("x*z + y^3*z + y^2*z^2 + x^3*y*z + z^5 - y^6", XYZ), [6, 9], 8, 15),
            (poly("x^4*y^4 + x^9 + y^9"), [6, 9, 13, 19], 15, 63),
            (poly("x^4*y^4"), [6], None, INFINITE),
        ]
        for f, want_limits, corner, mu in cases:
            limits.clear()
            gens = jacobian_ideal_boundary(f)
            sb, alg = staircase_quotient(gens)
            assert limits == want_limits, str(f)
            assert sb.degree_cap == corner and alg.dimension == mu, str(f)
            if corner is not None:
                assert jet_dimension_oracle(gens, corner + 1) == mu, str(f)
                top = max(sum(m) for m in alg.basis_monomials)
                assert top + 1 == corner, str(f)

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

    def test_weighted_order_takes_the_uncapped_path(self):
        # truncation by total degree is not compatible with a weighted order
        gens = [poly("x^3 - y^4"), poly("x*y^2 + x^4")]
        order = LocalOrder((Fraction(1, 3), Fraction(1, 4)))
        sb, alg = staircase_quotient(gens, order)
        assert sb.degree_cap is None
        assert alg == quotient_basis(standard_basis(gens, order))
        with pytest.raises(ValueError):
            standard_basis(gens, order, degree_cap=8)

    def test_non_isolated_boundary_germ(self):
        # no highest corner appears: runs that drop no term report the
        # infinite quotients
        germs = ["x^2*y^2", "x^2*y^3", "x^3*y^2", "x*y^3", "x^3*y^3", "x^2*y^4",
                 "x^4*y^2", "x^4*y^4"]
        cases = [poly(f) for f in germs] + [poly("y^2*z^2+x^3", XYZ)]
        for f in cases:
            bs = BoundarySingularity(f, allow_non_isolated=True)
            assert milnor_numbers(bs) == (INFINITE, INFINITE, INFINITE), str(f)


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
