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
from .standard_basis import INFINITE, StandardBasis, _Elem, _keyed, _staircase, quotient_basis

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


# Kernel elements of the Jacobian ideals, read off f's integer terms on
# kernel keys (deg, e_n, ..., e_1), variable i of n at position n - i:
# d/dx_i lowers the degree and that position by one and multiplies by the
# exponent there, x*d/dx keeps the key, and x -> 0 drops x's position.  An
# element is primitive whatever the scale of its terms, so these are the
# _inputs of the Polynomial generators built above.


def _partial(terms: dict, p: int) -> _Elem:
    """d/dx of the key ``terms``, with x at key position ``p``."""
    return _Elem({(k[0] - 1, *k[1:p], k[p] - 1, *k[p + 1:]): c * k[p]
                  for k, c in terms.items() if k[p]})


def _boundary_elems(terms: dict, n: int, b: int) -> list[_Elem]:
    """The elements of [x*df/dx, df/dy_1, ...] for f with the key ``terms``
    in ``n`` variables, x = x_b."""
    p = n - b
    return [_Elem({k: c * k[p] for k, c in terms.items() if k[p]})] + [
        _partial(terms, n - i) for i in range(n) if i != b]


def _ideal_elems(f: Polynomial) -> tuple[list[_Elem], list[_Elem], list[_Elem]]:
    """The elements of J_{f,H}, J_f and J_{f|H}, in the order of their
    generator lists; J_f shares its df/dy_i with J_{f,H}."""
    terms = _keyed(f)[0]
    n, b = f.context.arity, f.context.boundary_index
    boundary = _boundary_elems(terms, n, b)
    p = n - b
    rest = {k[:p] + k[p + 1:]: c for k, c in terms.items() if not k[p]}
    return (boundary, [*boundary[1:b + 1], _partial(terms, p), *boundary[b + 1:]],
            [_partial(rest, n - 1 - j) for j in range(n - 1)])


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
    ``allow_non_isolated`` is set.  The kernel elements of each ideal are
    read off f's integer terms (:func:`_ideal_elems`) and go through the
    rules of :func:`bsing.standard_basis.staircase_quotient`, so its ``sb_*``
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

    ``_screen = (elems, sb)`` is private to ``boundary_corpus``: ``sb`` is
    the basis modulo m^9 (``_SCREEN_CAP``) of the kernel elements ``elems``
    of f's boundary generators, checked against f's own, its corner below
    the cap certifying it.
    """

    def __init__(self, f: Polynomial, allow_non_isolated: bool = False, *,
                 _screen: tuple[list[_Elem], StandardBasis] | None = None):
        if f.is_zero():
            raise InvalidGermError("f must be nonzero")
        if f.constant_term() != 0:
            raise InvalidGermError("f must vanish at the origin")
        if f.context.boundary_index is None:
            raise ValueError("context has no boundary variable")
        self.f = f
        self.ctx: VarContext = f.context

        boundary, ambient, restriction = _ideal_elems(f)
        if _screen is None:
            self.sb_boundary, self.algebra_boundary = _staircase(self.ctx, boundary, None)
        else:
            elems, sb = _screen
            if [e.terms for e in elems] != [e.terms for e in boundary]:
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
