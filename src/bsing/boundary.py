"""Boundary singularities: a function germ f with f(0) = 0 together with
the marked hyperplane {x = 0} of its variable context.

Three local algebras are attached to the pair: the ambient quotient by
(df), the quotient of the restriction f|_{x=0} by its own Jacobian ideal,
and the quotient by the boundary Jacobian ideal (x*df/dx, df/dy_1, ...).
Their dimensions are the three Milnor numbers, and the boundary one is
always the sum of the other two when all are finite.
"""

from __future__ import annotations

import warnings
from functools import cached_property

from .polyring import Polynomial, VarContext
from .standard_basis import INFINITE, StandardBasis, quotient_basis, staircase_quotient

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


def jacobian_ideal_boundary(f: Polynomial) -> list[Polynomial]:
    """Generators [x*df/dx, df/dy_1, ..., df/dy_n] of the boundary
    Jacobian ideal, with x the boundary variable of f's context."""
    ctx = f.context
    if ctx.boundary_index is None:
        raise ValueError("context has no boundary variable")
    if f.constant_term() != 0:
        raise InvalidGermError("f must vanish at the origin")
    b = ctx.boundary_index
    # x*df/dx keeps every monomial with m[b] > 0 and scales it by m[b]
    gens = [Polynomial._trusted(ctx, {m: c * m[b] for m, c in f._terms.items() if m[b]})]
    gens.extend(
        f.partial_derivative(i) for i in range(ctx.arity) if i != b
    )
    return gens


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
    and local algebras computed eagerly.

    Immutable after construction, apart from the cache of graded engines
    that the quasihomogeneous computations fill per weight vector; rejects
    non-isolated input (infinite boundary Milnor number) unless
    ``allow_non_isolated`` is set.  Each ideal goes through
    :func:`bsing.standard_basis.staircase_quotient`, so its ``sb_*``
    attribute is ``None`` where that builds no basis: for a zero ideal, or
    one with an axis free of pure powers (infinite colength).  A
    non-isolated germ is rejected before the ambient and restriction
    ideals are touched.

    When the boundary algebra is finite, its basis's ``degree_cap`` D is a
    corner: m^D lies in J_{f,H} = (x*f_x, f_y), hence in J_f, which
    contains it, and in J_{f|H}, its image under x -> 0.  So the ambient
    and restriction ideals each take one standard-basis run truncated
    below D, with the leading monomials, corners and staircases of an
    uncapped build (their generator tails past the corner can differ), and
    both their Milnor numbers are finite.  Without a finite boundary
    algebra they take the uncapped path.

    ``_screen = (gens, sb)`` is private to ``boundary_corpus``: ``sb`` is
    ``standard_basis(gens, degree_cap=_SCREEN_CAP)`` for the boundary
    generators ``gens`` of f, its corner below the cap certifying it.
    """

    def __init__(self, f: Polynomial, allow_non_isolated: bool = False, *,
                 _screen: tuple[list[Polynomial], StandardBasis] | None = None):
        if f.is_zero():
            raise InvalidGermError("f must be nonzero")
        if f.constant_term() != 0:
            raise InvalidGermError("f must vanish at the origin")
        if f.context.boundary_index is None:
            raise ValueError("context has no boundary variable")
        self.f = f
        self.ctx: VarContext = f.context

        self.boundary_gens = jacobian_ideal_boundary(f)
        if _screen is None:
            self.sb_boundary, self.algebra_boundary = staircase_quotient(self.boundary_gens)
        else:
            gens, sb = _screen
            if gens != self.boundary_gens:
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
        self.ambient_gens = jacobian_ideal(f)
        self.sb_ambient, self.algebra_ambient = staircase_quotient(
            self.ambient_gens, degree_cap=cap)
        self.restriction = restrict_to_boundary(f)
        # a zero restriction has only zero generators (none in arity 0), which
        # staircase_quotient takes to the point algebra or the infinite marker
        self.restriction_gens = jacobian_ideal(self.restriction)
        self.sb_restriction, self.algebra_restriction = staircase_quotient(
            self.restriction_gens, degree_cap=cap)
        self._graded_engines: dict = {}

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
