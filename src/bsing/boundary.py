"""Boundary singularities: a function germ f with f(0) = 0 together with
the marked hyperplane {x = 0} of its variable context.

Three local algebras are attached to the pair: the ambient quotient by
(df), the quotient of the restriction f|_{x=0} by its own Jacobian ideal,
and the quotient by the boundary Jacobian ideal (x*df/dx, df/dy_1, ...).
Their dimensions are the three Milnor numbers, and the boundary one is
always the sum of the other two when all are finite.

One derivation, :func:`_jacobian_terms`, reads the generators of the three
ideals off f's coefficient dict.  The public generator lists take its
``Fraction`` terms; the germ's standard-basis runs and the corpus screen
take its terms over f's integer multiple, as plain monomial dicts, through
:func:`bsing.standard_basis._staircase`, the kernel's one entry for them.
"""

from __future__ import annotations

import warnings
from functools import cached_property
from typing import Iterator

from .polyring import Polynomial, VarContext, _derivative
from .standard_basis import INFINITE, StandardBasis, _cleared, _staircase, quotient_basis

_SCREEN_CAP = 9  # a screened basis modulo m^9 with a corner below 9 is exact


class InvalidGermError(ValueError):
    """The input is not a germ vanishing at the origin (or is zero)."""


class NonIsolatedError(ValueError):
    """The boundary singularity has infinite Milnor number.  The message is
    ``reason``, then ``hint`` (how to inspect the germ anyway) if given;
    ``reason`` is kept so that a front end can give its own hint."""

    def __init__(self, reason: str, hint: str | None = None):
        super().__init__(reason if hint is None else f"{reason}; {hint}")
        self.reason = reason


def _jacobian_terms(terms: dict, ctx: VarContext) -> Iterator[list[dict]]:
    """The generator terms of J_{f,H}, J_f and J_{f|H}, in the order of
    their generator lists, for the germ f with the coefficient dict
    ``terms`` (``Fraction`` or ``int`` values) over ``ctx``.  The ideals are
    yielded one at a time, so a caller that needs only J_{f,H} derives no
    more.  x*f_x keeps each monomial with x, scaled by its exponent of x;
    J_f shares its f_{y_i} with J_{f,H}; x -> 0 keeps the monomials without
    x and drops their exponent of x, which merges none."""
    b = ctx.boundary_index
    boundary = [{m: c * m[b] for m, c in terms.items() if m[b]}]
    boundary += [_derivative(terms, i) for i in range(ctx.arity) if i != b]
    yield boundary
    yield [*boundary[1:b + 1], _derivative(terms, b), *boundary[b + 1:]]
    rest = {m[:b] + m[b + 1:]: c for m, c in terms.items() if not m[b]}
    yield [_derivative(rest, j) for j in range(ctx.arity - 1)]


def jacobian_ideal_boundary(f: Polynomial) -> list[Polynomial]:
    """Generators [x*df/dx, df/dy_1, ..., df/dy_n] of the boundary
    Jacobian ideal, with x the boundary variable of f's context."""
    ctx = f.context
    if ctx.boundary_index is None:
        raise ValueError("context has no boundary variable")
    if f.constant_term() != 0:
        raise InvalidGermError("f must vanish at the origin")
    return [Polynomial._trusted(ctx, t) for t in next(_jacobian_terms(f._terms, ctx))]


def jacobian_ideal(f: Polynomial) -> list[Polynomial]:
    """Generators (all partial derivatives) of the ordinary Jacobian ideal."""
    return [f.partial_derivative(i) for i in range(f.context.arity)]


def restrict_to_boundary(f: Polynomial) -> Polynomial:
    """Substitute x = 0 and drop the boundary variable from the context."""
    b = f.context.boundary_index
    if b is None:
        raise ValueError("context has no boundary variable")
    return f.substitute_zero(b)


class BoundarySingularity:
    """A germ f with a marked boundary hyperplane, with its standard bases
    and local algebras computed at construction.  What the Milnor numbers
    do not need is built on first access: the ``Polynomial`` generators of
    each basis, the staircase monomials of each algebra, and the Jacobian
    generators (``boundary_gens``, ``ambient_gens``, ``restriction``,
    ``restriction_gens``).

    Immutable after construction, apart from those views and the cache of
    graded engines that the quasihomogeneous computations fill per weight
    vector; rejects non-isolated input (infinite boundary Milnor number) unless
    ``allow_non_isolated`` is set.  The generator terms of each ideal are
    read off f's integer terms by :func:`_jacobian_terms` and go through
    the rules of :func:`bsing.standard_basis.staircase_quotient`, so its
    ``sb_*`` attribute is ``None`` where that builds no basis: for a zero
    ideal, or one with an axis free of pure powers (infinite colength).  A
    non-isolated germ is rejected before the ambient and restriction
    ideals are derived.

    When the boundary algebra is finite, its basis's ``degree_cap`` D is a
    corner: m^D lies in J_{f,H} = (x*f_x, f_y), hence in J_f, which
    contains it, and in J_{f|H}, its image under x -> 0.  So the ambient
    and restriction ideals each take one standard-basis run truncated
    below D, with the leading monomials, corners and staircases of an
    uncapped build (their generator tails past the corner can differ), and
    both their Milnor numbers are finite.  Without a finite boundary
    algebra they take the uncapped path.

    ``_screen = (gens, sb)`` is private to ``boundary_corpus``: ``sb`` is
    the basis modulo m^9 (``_SCREEN_CAP``) of the integer generator terms
    ``gens`` of f's boundary ideal, checked against f's own, its corner
    below the cap certifying it.
    """

    def __init__(self, f: Polynomial, allow_non_isolated: bool = False, *,
                 _screen: tuple[list[dict], StandardBasis] | None = None):
        if f.is_zero():
            raise InvalidGermError("f must be nonzero")
        if f.constant_term() != 0:
            raise InvalidGermError("f must vanish at the origin")
        if f.context.boundary_index is None:
            raise ValueError("context has no boundary variable")
        self.f = f
        self.ctx: VarContext = f.context

        ideals = _jacobian_terms(_cleared(f._terms)[0], self.ctx)
        boundary = next(ideals)
        if _screen is None:
            self.sb_boundary, self.algebra_boundary = _staircase(self.ctx, boundary, None)
        else:
            gens, sb = _screen
            if gens != boundary:
                raise ValueError("screened basis is not of this germ's boundary generators")
            if sb.degree_cap is None or sb.degree_cap >= _SCREEN_CAP:
                raise ValueError(f"screened basis has no corner below {_SCREEN_CAP}")
            self.sb_boundary, self.algebra_boundary = sb, quotient_basis(sb)
        if not allow_non_isolated and self.algebra_boundary.dimension == INFINITE:
            raise NonIsolatedError("boundary Milnor number is infinite",
                                   "pass allow_non_isolated=True to inspect anyway")
        # the boundary corner D caps both other runs: m^D lies in J_{f,H},
        # which lies in J_f and maps onto J_{f|H} under x -> 0
        cap = self.sb_boundary.degree_cap if self.algebra_boundary.is_finite else None
        ambient, restriction = ideals
        self.sb_ambient, self.algebra_ambient = _staircase(self.ctx, ambient, cap)
        # a zero restriction has only zero generators (none in arity 0), which
        # take it to the point algebra or the infinite marker
        self.sb_restriction, self.algebra_restriction = _staircase(
            self.ctx.drop(self.ctx.boundary_index), restriction, cap)
        self._graded_engines: dict = {}

    @cached_property
    def boundary_gens(self) -> list[Polynomial]:
        return jacobian_ideal_boundary(self.f)

    @cached_property
    def ambient_gens(self) -> list[Polynomial]:
        return jacobian_ideal(self.f)

    @cached_property
    def restriction(self) -> Polynomial:
        return restrict_to_boundary(self.f)

    @cached_property
    def restriction_gens(self) -> list[Polynomial]:
        return jacobian_ideal(self.restriction)

    @cached_property
    def mu_ambient(self) -> int | float:
        return self.algebra_ambient.dimension

    @cached_property
    def mu_restriction(self) -> int | float:
        return self.algebra_restriction.dimension

    @cached_property
    def mu_boundary(self) -> int | float:
        return self.algebra_boundary.dimension

    def __repr__(self) -> str:
        return f"BoundarySingularity({self.f}, boundary={self.ctx.names[self.ctx.boundary_index]})"


def milnor_numbers(
    bs: BoundarySingularity,
) -> tuple[int | float, int | float, int | float]:
    """(mu_f, mu_{f|H}, mu_{f,H}); infinite dimensions appear as math.inf."""
    return bs.mu_ambient, bs.mu_restriction, bs.mu_boundary


def check_additivity(bs: BoundarySingularity) -> bool:
    """Whether mu_{f,H} = mu_f + mu_{f|H}.  This is a theorem, so False
    means an implementation bug; a warning is emitted in that case."""
    a, r, b = milnor_numbers(bs)
    if INFINITE in (a, r, b):
        raise NonIsolatedError("additivity needs all three Milnor numbers finite")
    ok = b == a + r
    if not ok:
        warnings.warn(
            f"Milnor additivity violated for f = {bs.f}: {b} != {a} + {r}; "
            "this indicates a bug in the standard-basis layer",
            RuntimeWarning,
            stacklevel=2,
        )
    return ok
