from fractions import Fraction

import pytest

from bsing import CertificateError, quasihomog
from bsing.boundary import BoundarySingularity
from bsing.corpus import family_normal_form, quasihomogeneous_corpus
from bsing.polyring import VarContext, parse_polynomial
from bsing.quasihomog import (
    NotQuasihomogeneousError,
    ResidueMatrix,
    RootOfUnity,
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
