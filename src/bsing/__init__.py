"""Exact invariants of isolated boundary singularities.

A boundary singularity is a holomorphic germ f vanishing at the origin
together with a marked hyperplane {x = 0}.  This package computes, in
exact rational arithmetic: the three Milnor numbers and their additivity,
quasihomogeneous weights and the spectrum alpha(m), the residue diagonal
and monodromy eigenvalues, normal-form coordinates of volume forms, the
volume-matching reparametrization psi(t) at a boundary-Morse point, and
infinitesimal isochore versality of deformations.
"""

from .boundary import (
    BoundarySingularity,
    InvalidGermError,
    NonIsolatedError,
    check_additivity,
    jacobian_ideal,
    jacobian_ideal_boundary,
    milnor_numbers,
    restrict_to_boundary,
)
from .isochore import (
    Deformation,
    VersalityReport,
    isochore_psi,
    verify_ode_residual,
    versality_check,
)
from .polyring import (
    ParseError,
    Polynomial,
    PowerSeries1,
    SeriesError,
    VarContext,
    parse_polynomial,
    parse_series,
    series_integrate_monomial_weighted,
    series_rational_power,
)
from .quasihomog import (
    BrieskornClass,
    CertificateError,
    DegenerateDegreeError,
    NotQuasihomogeneousError,
    ResidueMatrix,
    RootOfUnity,
    Spectrum,
    brieskorn_reduce,
    detect_weights,
    euler_check,
    gauss_manin_apply,
    monodromy_eigenvalues,
    ordinary_spectrum,
    quotient_coordinates,
    residue_matrix,
    spectrum,
    spectrum_splitting_check,
)
from .standard_basis import (
    INFINITE,
    LocalAlgebra,
    StandardBasis,
    jet_dimension_oracle,
    jet_membership_oracle,
    mora_normal_form,
    quotient_basis,
)

__version__ = "0.1.0"

__all__ = [
    "BoundarySingularity",
    "BrieskornClass",
    "CertificateError",
    "Deformation",
    "DegenerateDegreeError",
    "INFINITE",
    "InvalidGermError",
    "LocalAlgebra",
    "NonIsolatedError",
    "NotQuasihomogeneousError",
    "ParseError",
    "Polynomial",
    "PowerSeries1",
    "ResidueMatrix",
    "RootOfUnity",
    "SeriesError",
    "Spectrum",
    "StandardBasis",
    "VarContext",
    "VersalityReport",
    "brieskorn_reduce",
    "check_additivity",
    "detect_weights",
    "euler_check",
    "gauss_manin_apply",
    "isochore_psi",
    "jacobian_ideal",
    "jacobian_ideal_boundary",
    "jet_dimension_oracle",
    "jet_membership_oracle",
    "milnor_numbers",
    "monodromy_eigenvalues",
    "mora_normal_form",
    "ordinary_spectrum",
    "parse_polynomial",
    "parse_series",
    "quotient_basis",
    "quotient_coordinates",
    "residue_matrix",
    "restrict_to_boundary",
    "series_integrate_monomial_weighted",
    "series_rational_power",
    "spectrum",
    "spectrum_splitting_check",
    "verify_ode_residual",
    "versality_check",
]
