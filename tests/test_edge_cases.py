"""Coordinate-placement, low-arity and serialization corner cases, and the
public names of the package."""

import json
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import bsing
from bsing.boundary import BoundarySingularity, milnor_numbers
from bsing.isochore import Deformation, versality_check
from bsing.polyring import Polynomial, VarContext, parse_polynomial
from bsing.quasihomog import (
    BrieskornClass,
    brieskorn_reduce,
    detect_weights,
    spectrum,
    spectrum_splitting_check,
)
from bsing.report import Report, build_report, render_spectrum, render_table_row
from bsing.standard_basis import (
    jet_dimension_oracle,
    quotient_basis,
    staircase_quotient,
)
from untruncated import untruncated_basis

F = Fraction

PUBLIC_NAMES = [
    "BoundarySingularity", "BrieskornClass", "CertificateError", "Deformation",
    "DegenerateDegreeError", "INFINITE", "InvalidGermError", "LocalAlgebra",
    "NonIsolatedError", "NotQuasihomogeneousError", "ParseError", "Polynomial",
    "PowerSeries1", "ResidueMatrix", "RootOfUnity", "SeriesError", "Spectrum",
    "StandardBasis", "VarContext", "VersalityReport", "brieskorn_reduce",
    "check_additivity", "detect_weights", "euler_check", "gauss_manin_apply",
    "isochore_psi", "jacobian_ideal", "jacobian_ideal_boundary",
    "jet_dimension_oracle", "milnor_numbers", "monodromy_eigenvalues",
    "ordinary_spectrum", "parse_polynomial", "parse_series", "quotient_basis",
    "quotient_coordinates", "residue_matrix", "restrict_to_boundary",
    "series_integrate_monomial_weighted", "series_rational_power", "spectrum",
    "spectrum_splitting_check", "verify_ode_residual", "versality_check",
]


def test_public_names_are_pinned_and_resolve():
    # adding or removing an export is an explicit edit of this list
    assert sorted(bsing.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(bsing, name) is not None, name


class TestBoundaryNotFirst:
    """The boundary variable need not be the first context variable."""

    YX = VarContext(("y", "x"), 1)

    def test_milnor_triple(self):
        f = parse_polynomial("x^2+y^3", self.YX)
        assert milnor_numbers(BoundarySingularity(f)) == (2, 2, 4)

    def test_spectrum_matches_standard_placement(self):
        f = parse_polynomial("x^2+y^3", self.YX)
        bs = BoundarySingularity(f)
        w = detect_weights(f)
        assert w == (F(1, 3), F(1, 2))
        sp = spectrum(bs, w)
        assert sp.alphas() == [F(5, 6), F(7, 6), F(4, 3), F(5, 3)]
        assert spectrum_splitting_check(bs, w)

    def test_eigen_relation(self):
        f = parse_polynomial("x^2+y^3", self.YX)
        bs = BoundarySingularity(f)
        w = detect_weights(f)
        sp = spectrum(bs, w)
        for i, e in enumerate(sp.entries):
            g = f * Polynomial.monomial(self.YX, e.monomial)
            assert brieskorn_reduce(g, bs, w) == BrieskornClass({i: {1: F(1)}})

    def test_cli_with_flipped_vars(self):
        res = subprocess.run(
            [sys.executable, "-m", "bsing", "spectrum",
             "--f", "x^2+y^3", "--vars", "y,x", "--boundary", "x", "--json"],
            capture_output=True, text=True,
        )
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        alphas = [(r["alpha"]["num"], r["alpha"]["den"]) for r in payload["spectrum"]]
        assert alphas == [(5, 6), (7, 6), (4, 3), (5, 3)]


class TestOneVariableGerm:
    def test_pure_power_milnor_triple(self):
        # restriction of a one-variable germ is the zero-dimensional ring C
        ctx = VarContext(("x",), 0)
        bs = BoundarySingularity(parse_polynomial("x^3", ctx))
        assert milnor_numbers(bs) == (2, 1, 3)

    def test_spectrum(self):
        ctx = VarContext(("x",), 0)
        f = parse_polynomial("x^3", ctx)
        bs = BoundarySingularity(f)
        sp = spectrum(bs, detect_weights(f))
        assert sp.alphas() == [F(1, 3), F(2, 3), F(1)]


class TestParserCorners:
    def test_zero_exponent(self):
        ctx = VarContext(("x", "y"), 0)
        assert parse_polynomial("x^0 + y", ctx).terms == {(0, 0): 1, (0, 1): 1}

    def test_repeated_variable_in_term(self):
        ctx = VarContext(("x", "y"), 0)
        assert parse_polynomial("x*x*y", ctx).terms == {(2, 1): 1}

    def test_cancellation_to_zero(self):
        ctx = VarContext(("x", "y"), 0)
        assert parse_polynomial("x - x", ctx).is_zero()


class TestMilnorReportRoundTrip:
    def test_infinite_marker_survives_json(self):
        ctx = VarContext(("x", "y"), 0)
        bs = BoundarySingularity(parse_polynomial("x", ctx), allow_non_isolated=True)
        report = build_report("x", bs)
        again = Report.from_json(report.to_json())
        assert again == report
        assert again.mu_boundary == float("inf")

    def test_spectrum_renderers_reject_a_milnor_only_report(self):
        ctx = VarContext(("x", "y"), 0)
        bs = BoundarySingularity(parse_polynomial("x^2+y^3", ctx))
        report = build_report("x^2+y^3", bs)
        assert report.weights is None and report.spectrum_rows is None
        with pytest.raises(ValueError, match="spectrum"):
            render_spectrum(report)
        with pytest.raises(ValueError, match="spectrum"):
            render_table_row(report, 1)


class TestVersalityExplicitWeights:
    def test_explicit_weights_accepted(self):
        names = ("x", "y", "l1", "l2", "l3")
        ctx = VarContext(names, 0)
        d = Deformation.from_family(
            parse_polynomial("x^2+y^3+l1*x+l2*y+l3*x*y", ctx), ("l1", "l2", "l3")
        )
        rep = versality_check(d, weights=(F(1, 2), F(1, 3)))
        assert rep.versal

    def test_family_must_restrict_to_base(self):
        ctx = VarContext(("x", "y", "l1"), 0)
        F_poly = parse_polynomial("x^2+y^3+l1*x", ctx)
        good = Deformation.from_family(F_poly, ("l1",))
        with pytest.raises(ValueError):
            Deformation(F_poly, ("l1",), BoundarySingularity(
                parse_polynomial("x^2+y^5", VarContext(("x", "y"), 0))
            ))
        assert good.base.f == parse_polynomial("x^2+y^3", VarContext(("x", "y"), 0))

    def test_repeated_parameter_is_rejected_before_the_base_is_built(self):
        ctx = VarContext(("x", "y", "l1"), 0)
        F_poly = parse_polynomial("x^2+y^3+l1*x", ctx)
        with pytest.raises(ValueError, match="parameters must be distinct"):
            Deformation.from_family(F_poly, ["l1", "l1"])


class TestCertifiedCapStress:
    def test_against_uncapped_on_dense_ideals(self):
        # germs built to stay isolated so the uncapped run terminates fast
        ctx = VarContext(("x", "y"), 0)
        rng = random.Random(4242)
        for _ in range(12):
            a, b = rng.randint(2, 5), rng.randint(2, 5)
            extra = {
                (rng.randint(0, 3), rng.randint(0, 3)): F(rng.randint(-3, 3))
                for _ in range(rng.randint(0, 2))
            }
            terms = {(a, 0): F(1), (0, b): F(1)}
            for m, c in extra.items():
                if sum(m) >= 1:
                    terms[m] = terms.get(m, F(0)) + c
            g1 = Polynomial(ctx, terms)
            g2 = g1.partial_derivative(0) + g1.partial_derivative(1)
            gens = [g for g in (g1, g2) if not g.is_zero()]
            dim = jet_dimension_oracle(gens, 14)
            if dim == float("inf") or dim > 25:
                continue
            _, alg_fast = staircase_quotient(gens)
            alg_slow = quotient_basis(untruncated_basis(gens))
            assert alg_fast.dimension == alg_slow.dimension == dim
            assert alg_fast.basis_monomials == alg_slow.basis_monomials
