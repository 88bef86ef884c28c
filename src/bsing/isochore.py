"""Volume-preserving (isochore) deformation theory.

Two computations live here.  First, the reparametrization psi(t) that
normalizes a volume form c(f) dx^dy^n at a boundary-Morse point
f = x + y_1^2 + ... + y_n^2: the substitution x -> x v(f),
y -> y sqrt(v(f)) carries f to psi(f) = t v(t)|_{t=f}, and matching the
Jacobian determinant to c forces w = v^{(n+2)/2} to solve

    (2/(n+2)) t w'(t) + w(t) = c(t),   w(0) = 1.

The solver works coefficientwise and exactly; `verify_ode_residual`
recomputes the residual from scratch.

Second, infinitesimal isochore versality of a deformation F of a
quasihomogeneous boundary singularity: the constant 1 together with the
parameter velocities dF/d(lambda_i) at lambda = 0 must span the quotient
Q = O/J_{f,H}.  The check reduces the velocities to exact staircase
coordinates and row-reduces over the rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .boundary import BoundarySingularity
from .polyring import (
    Monomial,
    Polynomial,
    PowerSeries1,
    Rat,
    SeriesError,
    VarContext,
    monomial_key,
    series_integrate_monomial_weighted,
    series_rational_power,
)
from .quasihomog import _engine, detect_weights
from .standard_basis import _row_echelon


def isochore_psi(c: PowerSeries1, n: int) -> tuple[PowerSeries1, PowerSeries1]:
    """Solve the volume-matching problem for c with c(0) = 1.

    Returns (w, psi): w solves (2/(n+2)) t w' + w = c at c's truncation,
    and psi(t) = t * w(t)^{2/(n+2)} (one order higher, psi(0) = 0,
    psi'(0) = 1).  ``n`` is the number of non-boundary variables.
    """
    if c[0] != 1:
        raise SeriesError("volume coefficient must have c(0) = 1")
    if n < 0:
        raise ValueError("n must be a natural number")
    w = series_integrate_monomial_weighted(c, n)
    v = series_rational_power(w, Fraction(2, n + 2))
    psi = v.shift_t()
    return w, psi


def verify_ode_residual(c: PowerSeries1, w: PowerSeries1, n: int) -> bool:
    """True iff (2/(n+2)) t w' + w - c vanishes identically up to the
    common truncation order."""
    lhs = w.t_derivative().scale(Fraction(2, n + 2)) + w
    return (lhs - c).is_zero()


def _at_zero(p: Polynomial, params: Sequence[str], ctx: VarContext) -> Polynomial:
    """p with every parameter set to zero, over the germ context ``ctx``:
    the terms free of parameters, projected onto the other variables."""
    drop = {p.context.index(q) for q in params}
    keep = [i for i in range(p.context.arity) if i not in drop]
    return Polynomial(ctx, {
        tuple(m[i] for i in keep): c
        for m, c in p.terms.items() if not any(m[i] for i in drop)
    })


@dataclass(frozen=True)
class Deformation:
    """A polynomial family F over variables plus parameters, with its base
    germ F|_{lambda=0} as a boundary singularity."""

    F: Polynomial
    parameters: tuple[str, ...]
    base: BoundarySingularity

    def __post_init__(self):
        names = self.F.context.names
        if len(set(self.parameters)) != len(self.parameters):
            raise ValueError("parameters must be distinct")
        if any(p not in names for p in self.parameters):
            raise ValueError("parameters must belong to the family context")
        if _at_zero(self.F, self.parameters, self.base.ctx) != self.base.f:
            raise ValueError("family does not restrict to the base germ")

    @classmethod
    def from_family(
        cls,
        F: Polynomial,
        parameters: Sequence[str],
        allow_non_isolated: bool = False,
    ) -> "Deformation":
        """Build the base by setting every parameter to zero.  The family's
        context must list the germ variables first, then the parameters."""
        params = tuple(parameters)
        if len(set(params)) != len(params):
            raise ValueError("parameters must be distinct")
        ctx = F.context
        for p in params:
            if p not in ctx.names:
                raise ValueError(f"parameter {p!r} not in the family context")
        var_names = tuple(s for s in ctx.names if s not in params)
        if ctx.boundary_index is None or ctx.names[ctx.boundary_index] in params:
            raise ValueError("boundary variable must be a germ variable")
        boundary = var_names.index(ctx.names[ctx.boundary_index])
        base_ctx = VarContext(var_names, boundary)
        base = BoundarySingularity(
            _at_zero(F, params, base_ctx), allow_non_isolated=allow_non_isolated
        )
        return cls(F, params, base)

    def velocities(self) -> list[Polynomial]:
        """dF/d(lambda_i) at lambda = 0, one polynomial over the germ
        variables per parameter."""
        ctx = self.F.context
        return [
            _at_zero(self.F.partial_derivative(ctx.index(p)), self.parameters, self.base.ctx)
            for p in self.parameters
        ]


@dataclass(frozen=True)
class VersalityReport:
    versal: bool
    spanned_dimension: int
    missing_directions: tuple[Monomial, ...]


def versality_check(
    d: Deformation, weights: Sequence[Rat] | None = None
) -> VersalityReport:
    """Infinitesimal isochore versality over a quasihomogeneous base.

    Reduces {1, dF/d(lambda_1), ...} to staircase coordinates of
    Q = O/J_{f,H} and checks that they span; reports the uncovered
    staircase directions otherwise.  Non-quasihomogeneous bases are
    rejected (detect_weights raises).
    """
    w = weights if weights is not None else detect_weights(d.base.f)
    st = _engine(d.base, w)
    candidates = [Polynomial.constant(d.base.ctx, 1)] + d.velocities()
    coords = [st.coordinates(g) for g in candidates]
    columns = sorted((e.monomial for e in st.spectrum().entries), key=monomial_key)
    col_index = {m: i for i, m in enumerate(columns)}
    rows = [{col_index[m]: c for m, c in cs.items()} for cs in coords if cs]

    # pivot columns are the covered directions
    pivots = _row_echelon(rows)
    spanned = len(pivots)
    missing = tuple(m for m in columns if col_index[m] not in pivots)
    return VersalityReport(
        versal=spanned == len(columns),
        spanned_dimension=spanned,
        missing_directions=missing,
    )
