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
Q = O/J_{f,H}.  The check reduces them on the graded engine to integer
staircase rows, one per candidate, and row-reduces those fraction-free.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
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
from .standard_basis import _echelon


def isochore_psi(c: PowerSeries1, n: int) -> tuple[PowerSeries1, PowerSeries1]:
    """Solve the volume-matching problem for c with c(0) = 1.

    Returns (w, psi): w solves (2/(n+2)) t w' + w = c at c's truncation,
    and psi(t) = t * w(t)^{2/(n+2)} (one order higher, psi(0) = 0,
    psi'(0) = 1).  ``n`` is the number of non-boundary variables.
    """
    if c[0] != 1:
        raise SeriesError("volume coefficient must have c(0) = 1")
    if type(n) is not int or n < 0:  # 2.0 and True are not natural numbers here
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


def _coefficients(p: Polynomial, params: Sequence[str], ctx: VarContext) -> list[Polynomial]:
    """[p at lambda = 0, dp/d(lambda_1) at 0, ...] over the germ context
    ``ctx``, in one pass over p's terms: a term c*x^m whose lambda-part is 1
    or exactly lambda_i adds c*x^m to the first or to the (i+1)-th."""
    lam = [p.context.index(q) for q in params]
    keep = [i for i in range(p.context.arity) if i not in lam]
    out: list[dict[Monomial, Fraction]] = [{} for _ in range(len(lam) + 1)]
    for m, c in p._terms.items():
        e = [m[i] for i in lam]
        if (s := sum(e)) <= 1:
            out[s and 1 + e.index(1)][tuple([m[i] for i in keep])] = c
    return [Polynomial._trusted(ctx, t) for t in out]


def _parameters(F: Polynomial, parameters: Sequence[str]) -> tuple[str, ...]:
    """``parameters`` as a tuple, once checked: distinct, and each a
    variable of F's context (``ValueError``)."""
    params = tuple(parameters)
    if len(set(params)) != len(params):
        raise ValueError("parameters must be distinct")
    for p in params:
        if p not in F.context.names:
            raise ValueError(f"parameter {p!r} does not belong to the family context")
    return params


@dataclass(frozen=True)
class Deformation:
    """A polynomial family F over variables plus parameters, with its base
    germ F|_{lambda=0} as a boundary singularity.  The :func:`_coefficients`
    list of F is read once, at construction, and kept for
    :meth:`velocities`; ``_read`` is private to :meth:`from_family`, which
    hands over the list it already read."""

    F: Polynomial
    parameters: tuple[str, ...]
    base: BoundarySingularity
    _read: InitVar[list[Polynomial] | None] = None
    _velocities: tuple[Polynomial, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self, _read):
        _parameters(self.F, self.parameters)
        read = _read or _coefficients(self.F, self.parameters, self.base.ctx)
        if read[0] != self.base.f:
            raise ValueError("family does not restrict to the base germ")
        object.__setattr__(self, "_velocities", tuple(read[1:]))

    @classmethod
    def from_family(
        cls,
        F: Polynomial,
        parameters: Sequence[str],
        allow_non_isolated: bool = False,
    ) -> "Deformation":
        """Build the base by setting every parameter to zero.  The family's
        context must list the germ variables first, then the parameters."""
        params = _parameters(F, parameters)
        ctx = F.context
        var_names = tuple(s for s in ctx.names if s not in params)
        if ctx.boundary_index is None or ctx.names[ctx.boundary_index] in params:
            raise ValueError("boundary variable must be a germ variable")
        boundary = var_names.index(ctx.names[ctx.boundary_index])
        base_ctx = VarContext(var_names, boundary)
        read = _coefficients(F, params, base_ctx)
        base = BoundarySingularity(read[0], allow_non_isolated=allow_non_isolated)
        return cls(F, params, base, read)

    def velocities(self) -> list[Polynomial]:
        """dF/d(lambda_i) at lambda = 0, one polynomial over the germ
        variables per parameter: the coefficient of lambda_i^1 in F."""
        return list(self._velocities)


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
    columns = sorted((e.monomial for e in st.spectrum().entries), key=monomial_key)
    col_index = {m: i for i, m in enumerate(columns)}
    candidates = [{(0,) * d.base.ctx.arity: 1}] + [v._terms for v in d.velocities()]
    # a candidate's row is its residue times a positive integer
    rows = [{col_index[m]: c for m, c in st.residue(g)[0].items()} for g in candidates]

    # pivot columns are the covered directions
    pivots = _echelon(rows)
    return VersalityReport(
        versal=len(pivots) == len(columns),
        spanned_dimension=len(pivots),
        missing_directions=tuple(m for m in columns if col_index[m] not in pivots),
    )
