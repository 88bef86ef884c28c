"""Standard bases of ideals in the local ring at the origin.

The ring is the localization of the polynomial ring at the maximal ideal of
the origin; computations use a local monomial ordering (1 is the largest
monomial) together with Mora's ecart-driven division, which terminates
where naive division would loop.

Membership has one test, :meth:`StandardBasis.contains`: the weak normal
form of p against a standard basis of I is zero iff p lies in I
(Greuel-Pfister, sections 1.6-1.7).  A weak normal form only guarantees
that the *leading* monomial of a nonzero remainder lies outside the
leading ideal; that decides membership, which is all the Milnor-number
layer needs.  Full tail reduction onto the staircase is offered only by
the graded engine in :mod:`bsing.quasihomog`.

One fraction-free kernel runs division, S-polynomials and completion on
integer elements (:class:`_Elem`): primitive integer polynomials with
positive leading coefficient, with leading monomial, leading coefficient
and ecart cached.  Elements and their keys live in this module only.
:func:`_staircase`, the one entry for the Jacobian ideals of a germ, takes
integer coefficient dicts on plain monomials, applies its zero and axis
rules to them, and only then builds elements; :func:`_inputs` clears
``Polynomial`` generators to elements once.  Every basis is built by
:func:`_basis` and keeps the elements of its generators for
:meth:`StandardBasis.contains`; it turns them into ``Polynomial``
generators only when ``generators`` is first read.  A step
replaces h by (lc_g/d)*h - (lc_h/d)*x^q*g, d = gcd(lc_h, lc_g), truncates
and divides out the content, so a value is known up to a rational
multiple, which a basis or a membership test allows.  Tracked, an element carries the
rational lam of its exact value lam*terms and integer representations
rep, den*terms == sum(rep[t]*s_t*input_t) with s_t clearing input t's
denominators; (lam*s_t/den)*rep[t] is divided out once, at the end.

:func:`standard_basis` truncates at the highest corner (Greuel-Pfister,
section 1.7), the least D with m^D in the ideal: 1 + the top degree of the
staircase of the leading monomials (below the truncation degree once a
term was dropped), which :func:`_runs` walks.  The walk runs only once
every variable has a pure-power leading monomial below that degree, and
the basis keeps the last walk's runs for :func:`quotient_basis`, whose
dimension is their total length; the staircase monomials are listed only
when ``basis_monomials`` is first read.

:func:`jet_dimension_oracle` cross-checks quotient dimensions by linear
algebra on jets, with no standard basis.  No package code calls it; it
stays here because the benchmark tracer (``perfbench/tracing.py``) hooks
it by name.  The membership oracle on the same jets is in the tests
(``tests/jet_oracle.py``).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import FrozenInstanceError
from fractions import Fraction
from functools import cached_property
from operator import add, le, sub
from typing import Iterable, Sequence

from .polyring import Monomial, Polynomial, VarContext, _monomials, monomial_key, monomial_mul

INFINITE = math.inf


# -- the fraction-free kernel --------------------------------------------------


def _key(m: Monomial) -> tuple[int, ...]:
    """The one local order, negative-degree reverse-lexicographic, as the
    kernel's key (deg, e_n, ..., e_1) of a monomial: 1 is the largest
    monomial (the least key), and ties go to earlier variables, LT(x + y) = x.
    min() of the keys is the leading monomial, max()[0] the top degree, and
    keys multiply, divide and divide one another exponentwise."""
    return (sum(m), *reversed(m))


def _context(polys: Sequence[Polynomial]) -> VarContext:
    """The context of ``polys``, which must all share it (ValueError)."""
    ctx = polys[0].context
    for p in polys:
        if p.context is not ctx and p.context != ctx:
            raise ValueError("polynomials from different contexts")
    return ctx


class _Elem:
    """A kernel element built from any integer ``terms``: their content
    moves into ``lam`` and ``den``, and a tracked representation ``rep``
    drops its common factor with ``den``.  Untracked, ``lam`` only scales
    a basis element's value (it is 1 until the element is truncated)."""

    __slots__ = ("terms", "lm", "lc", "ecart", "lam", "rep", "den")

    def __init__(self, terms: dict, lam=1, rep: list[dict] | None = None, den: int = 1):
        self.lm = lm = min(terms, default=None)
        c = math.gcd(*terms.values()) or 1
        if terms and terms[lm] < 0:
            c = -c
        if c != 1:
            terms = {k: v // c for k, v in terms.items()}
        self.terms, self.lam, self.lc = terms, lam * c, terms[lm] if terms else 0
        self.ecart = max(terms)[0] - lm[0] if terms else 0
        if rep is not None:
            den *= c
            g = math.gcd(den, *(v for r in rep for v in r.values())) * (-1 if den < 0 else 1)
            if g != 1:
                rep, den = [{k: v // g for k, v in r.items()} for r in rep], den // g
        self.rep, self.den = rep, den


def _keyed(p: Polynomial) -> tuple[dict, int]:
    """The terms of ``p`` on kernel keys, made integral by the least s > 0,
    and s; an integral p (a drawn germ, most generators) keeps its numerators."""
    s = math.lcm(*[c.denominator for c in p._terms.values()])
    if s == 1:
        return {(sum(m), *m[::-1]): c.numerator for m, c in p._terms.items()}, 1
    return {_key(m): c.numerator * (s // c.denominator) for m, c in p._terms.items()}, s


def _inputs(polys: Sequence[Polynomial], track: bool = False) -> tuple[list[_Elem], list[int]]:
    """The elements of ``polys``, made integral by the least s_t > 0, and
    the s_t; tracked, input t has the representation e_t."""
    elems, scales = [], []
    for t, p in enumerate(polys):
        terms, s = _keyed(p)
        one = {(0,) * (p.context.arity + 1): 1}
        rep = [one if u == t else {} for u in range(len(polys))] if track else None
        elems.append(_Elem(terms, Fraction(1, s), rep) if track else _Elem(terms))
        scales.append(s)
    return elems, scales


def _polynomial(ctx: VarContext, terms: dict, scale) -> Polynomial:
    return Polynomial._trusted(ctx, {k[:0:-1]: Fraction(scale * c) for k, c in terms.items()})


def _representation(ctx: VarContext, e: _Elem, scales: list[int]) -> tuple[Polynomial, ...]:
    """The exact representation of e's value lam*terms over the inputs."""
    return tuple(_polynomial(ctx, r, Fraction(e.lam * s, e.den)) for r, s in zip(e.rep, scales))


def _combine(a: int, f: dict, b: int, q: tuple, g: dict, cut=math.inf, p=None) -> tuple[dict, bool]:
    """a*x^p*f - b*x^q*g (p None: x^p = 1) without the terms of x^q*g whose
    key in g has degree >= ``cut``, and whether there was one."""
    if p is not None:
        out = {tuple(map(add, p, k)): a * c for k, c in f.items()}
    else:
        out = {k: a * c for k, c in f.items()} if a != 1 else dict(f)
    dropped = False
    for k, c in g.items():
        if k[0] >= cut:
            dropped = True
            continue
        k = tuple(map(add, q, k))
        v = out.get(k, 0) - b * c
        if v:
            out[k] = v
        else:
            del out[k]
    return out, dropped


def _lin(f: _Elem, p: tuple | None, g: _Elem, q: tuple, bound) -> tuple[_Elem, bool]:
    """a*x^p*f - b*x^q*g with x^p*lm(f) == x^q*lm(g), a = lc_g/d, b = lc_f/d,
    d = gcd(lc_f, lc_g): a Mora step for ``p`` None, else an S-polynomial;
    and whether a nonzero term of degree >= ``bound`` was dropped.  A Mora
    step's f has none, so only g's are cut; a pair is cut afterwards."""
    d = math.gcd(f.lc, g.lc)
    a, b = g.lc // d, f.lc // d
    terms, dropped = _combine(a, f.terms, b, q, g.terms, bound - q[0] if p is None else math.inf, p)
    if p is not None:
        kept = {k: c for k, c in terms.items() if k[0] < bound}
        terms, dropped = kept, len(kept) < len(terms)
    if f.rep is None:
        return _Elem(terms), dropped
    # the value: lam_f*f - (lam_f*lc_f/lc_g)*x^q*g, or x^p*f/lc_f - x^q*g/lc_g
    lam = (f.lam if p is None else Fraction(1, f.lc)) / a
    rep = [_combine(a * g.den, r, b * f.den, q, s, math.inf, p)[0] for r, s in zip(f.rep, g.rep)]
    return _Elem(terms, lam, rep, f.den * g.den), dropped


def _mora(h: _Elem, reducers: list[_Elem], bound) -> tuple[_Elem, bool]:
    """Mora's weak normal form of h against ``reducers`` (extended in
    place) modulo m^bound, and whether a term was dropped.  Among dividing
    reducers it picks minimal ecart, ties to the earliest; a partial result
    of smaller ecart than its reducer joins the reducers, which forces
    termination in the local ring."""
    dropped = False
    while h.terms:
        lm, best = h.lm, None
        for g in reducers:
            if (best is None or g.ecart < best.ecart) and all(map(le, g.lm, lm)):
                best = g
        if best is None:
            break
        if best.ecart > h.ecart:
            reducers.append(h)
        h, cut = _lin(h, None, best, tuple(map(sub, lm, best.lm)), bound)
        dropped = dropped or cut
    return h, dropped


def _push(basis: list[_Elem], lms: list[Monomial], e: _Elem) -> None:
    """Append e, as its own value, and its leading monomial."""
    e.lam = 1
    basis.append(e)
    lms.append(e.lm[:0:-1])


class _Record:
    """The frozen-dataclass behaviour of an output record: ==, hash and
    repr on the public ``_fields`` in order, and no assignment or deletion
    (:class:`dataclasses.FrozenInstanceError`).  Construction fills the
    instance dict directly, so a field may instead be a ``cached_property``,
    built on its first read."""

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class StandardBasis(_Record):
    """Standard basis of a local ideal with its leading-term staircase.

    ``representations``, when tracked, expresses each basis element in the
    generators ``gens`` given to :func:`standard_basis`:
    generators[i] == sum_j representations[i][j] * gens[j].

    ``degree_cap`` D, when set, means the ideal described is
    (generators) + m^D: every monomial of total degree >= D belongs to it,
    whether or not a leading monomial divides it.  :func:`contains` and
    :func:`quotient_basis` honour it.  Below a given cap, and always without
    one, it is the highest corner: m^D lies in the ideal itself.

    ``_elems`` holds the kernel elements of ``generators``, in their order,
    for :meth:`contains`.  A basis built by hand converts its generators
    once, and they must share one context (``ValueError``).  A basis of the
    completion (:meth:`_kept`) holds the elements it kept with their
    scales, and builds the ``Polynomial`` generators only when they are
    first read; its ``_walk`` holds the runs of :func:`_runs` when the
    completion already walked this staircase, so :func:`quotient_basis`
    need not walk again.
    """

    _fields = ("generators", "leading_monomials", "representations", "degree_cap")

    def __init__(
        self,
        generators: tuple[Polynomial, ...],
        leading_monomials: tuple[Monomial, ...],
        representations: tuple[tuple[Polynomial, ...], ...] | None = None,
        degree_cap: int | None = None,
    ):
        vars(self).update(
            generators=generators, leading_monomials=leading_monomials,
            representations=representations, degree_cap=degree_cap, _walk=None,
            _elems=_inputs(generators)[0], _ctx=_context(generators) if generators else None)

    @classmethod
    def _kept(cls, ctx: VarContext, kept: list[_Elem], lms: tuple[Monomial, ...],
              reps, degree_cap: int | None, walk) -> StandardBasis:
        """The basis of the completion's ``kept`` elements, with the values
        lam*terms they have now: later runs may set ``lam`` on elements
        they share, so the scales are read here and not when the
        generators are built."""
        sb = object.__new__(cls)
        vars(sb).update(leading_monomials=lms, representations=reps, degree_cap=degree_cap,
                        _walk=walk, _elems=kept, _ctx=ctx,
                        _scaled=[(e.terms, e.lam) for e in kept])
        return sb

    @cached_property
    def generators(self) -> tuple[Polynomial, ...]:
        return tuple(_polynomial(self._ctx, terms, lam) for terms, lam in self._scaled)

    @cached_property
    def _algebra(self) -> LocalAlgebra:
        """:func:`quotient_basis`."""
        runs = self._walk
        if runs is None:
            runs = _runs(self.leading_monomials, self.degree_cap)
        return LocalAlgebra((), INFINITE) if runs is None else LocalAlgebra._of_runs(runs)

    def contains(self, p: Polynomial) -> bool:
        """Membership of ``p`` in the ideal.  With ``degree_cap`` set, p is
        first truncated below it (p minus its truncation lies in
        m^degree_cap, inside the ideal) and divided modulo m^degree_cap."""
        ctx = self._ctx
        if ctx is not None and p.context is not ctx and p.context != ctx:
            raise ValueError("polynomials from different contexts")
        bound = math.inf if self.degree_cap is None else self.degree_cap
        h = _inputs([p])[0][0]
        if h.terms and h.lm[0] + h.ecart >= bound:
            h = _Elem({k: c for k, c in h.terms.items() if k[0] < bound})
        return not _mora(h, list(self._elems), bound)[0].terms


def standard_basis(
    gens: Sequence[Polynomial],
    *,
    track_representations: bool = False,
    degree_cap: int | None = None,
) -> StandardBasis:
    """Buchberger-Mora completion of ``gens`` to a standard basis.

    All S-polynomials of the result reduce to zero; the leading monomials
    are minimalized (none divides another).  The product and chain
    criteria prune the pair queue.

    ``degree_cap`` D computes a standard basis of (gens) + m^D modulo m^D:
    every S-polynomial and partial remainder is truncated below degree D.
    m^D needs no generators of its own: an S-pair against a degree-D
    monomial has all its terms in degree >= D, and reducing by one is
    truncation.  It cannot be combined with representation tracking.
    When m^D is known to lie in the ideal (a corner of a smaller ideal,
    as :class:`bsing.boundary.BoundarySingularity` passes on), this is
    one run for the ideal itself: it finds the ideal's own corner at or
    below D, with the leading monomials of the uncapped build.

    Without tracked representations the run stops at the highest corner:
    once the leading monomials cover every monomial of degree D (below the
    truncation degree if a term was dropped), m^D lies in I + m^(D+1), so
    in I by Nakayama's lemma, and the run goes on modulo m^D.  Uncapped
    Mora division can take minutes on an ideal of small colength, so
    without a cap truncation runs at the degrees 6, 9, 13, ..., each half
    above the last, from the first one above every axis order of the
    generators (:func:`_axis_orders`; no corner lies at or below those),
    rising for a run that dropped terms and found no corner below it.  The
    result records the corner, else ``None`` if nothing was dropped
    (infinite colength), else the given cap.
    """
    if degree_cap is not None and track_representations:
        raise ValueError("degree_cap would corrupt tracked representations")
    inputs = tuple(gens)
    if all(g.is_zero() for g in inputs):
        raise ValueError("standard basis of the zero ideal is not supported here")
    ctx = _context(inputs)
    return _basis(ctx, *_inputs(inputs, track_representations), track_representations, degree_cap)


def _basis(
    ctx: VarContext, elems: list[_Elem], scales: list[int], track: bool, degree_cap: int | None,
) -> StandardBasis:
    """:func:`standard_basis` of the kernel ``elems``, not all zero, with
    their :func:`_inputs` ``scales`` when tracked: every basis is built
    here.  A rung of the rising degree at or below an axis order would find
    no corner, and one that dropped nothing would repeat step for step at
    any higher rung, so skipping it changes no result."""
    if track or degree_cap is not None:
        return _complete(ctx, elems, scales, track, degree_cap)
    orders = _axis_orders(([k[1:] for k in e.terms] for e in elems), ctx.arity)
    limit = 6
    while limit <= max(orders or [0]):
        limit += limit // 2
    while (sb := _complete(ctx, elems, scales, False, limit, provisional=True)) is None:
        limit += limit // 2
    return sb


def _complete(
    ctx: VarContext, elems: list[_Elem], scales: list[int], track: bool, limit: int | None,
    provisional: bool = False,
) -> StandardBasis | None:
    """One run of :func:`standard_basis` on the :func:`_inputs` ``elems``
    and ``scales``, truncating below ``limit`` unless it is ``None``.  Until
    a ``provisional`` limit drops a term the run is exact: a corner at any
    degree counts, and without one no cap is set.  A provisional run that
    dropped a term and found no corner below its limit returns ``None``; an
    exact one is final even with its corner at the limit, as a higher limit
    would repeat it step for step.  A run leaves ``elems`` fit for the next:
    it only sets ``lam = 1`` on the ones it keeps."""

    def as_unit(e: _Elem) -> StandardBasis | None:
        """{1}, a standard basis once an element has a nonzero constant
        term.  Tracked, only a pure constant is expressible (true for
        homogeneous generators, the tracked use case)."""
        if e.lm[0] or (track and e.ecart):
            return None
        e.lam = Fraction(1, e.lc)
        reps = (_representation(ctx, e, scales),) if track else None
        return StandardBasis._kept(ctx, [_Elem({(0,) * (ctx.arity + 1): 1})],
                                   ((0,) * ctx.arity,), reps, 0, None)

    basis: list[_Elem] = []
    lms: list[Monomial] = []
    for e in elems:
        if e.terms:
            if unit := as_unit(e):
                return unit
            _push(basis, lms, e)
    cap, exact = None, provisional  # the corner found; nothing dropped yet
    walk = None  # the runs of the staircase of lms, below the cap in force

    def corner() -> None:
        """Lower the cap to the highest corner of the leading monomials and
        truncate, keeping its scale, each element with terms on both sides
        of it (the others would come back unchanged).  The staircase is
        walked only when every variable has a pure-power leading monomial
        below the bound: otherwise x_i^(bound-1) is standard (or, with no
        bound, the staircase infinite) and no corner lies below it."""
        nonlocal cap, walk
        walk = None
        if limit is None:
            return
        # leading monomials of a run that dropped nothing are exact
        bound = cap if cap is not None else None if exact else limit
        orders = _axis_orders((lms,), ctx.arity)
        if orders is None or bound is not None and max(orders, default=0) >= bound:
            return
        walk = _runs(lms, bound)
        top = _corner(walk)
        if top == bound:
            return
        cap = top
        for n, e in enumerate(basis):
            if e.lm[0] < top <= e.lm[0] + e.ecart:
                basis[n] = _Elem({k: c for k, c in e.terms.items() if k[0] < top}, e.lam)

    corner()

    def pair(i: int, j: int) -> tuple[tuple[int, ...], int, int]:
        """The queue entry of a pair: the key of lcm(lm_i, lm_j) first."""
        lcm = tuple(map(max, basis[i].lm[1:], basis[j].lm[1:]))
        return (sum(lcm), *lcm), i, j

    queue = [pair(i, j) for j in range(len(basis)) for i in range(j)]
    heapq.heapify(queue)
    done: set[frozenset[int]] = set()
    while queue:
        lcm, i, j = heapq.heappop(queue)
        done.add(frozenset((i, j)))
        f, g = basis[i], basis[j]
        if lcm[0] == f.lm[0] + g.lm[0]:
            continue  # product criterion: coprime leading monomials
        # chain criterion: the pair is redundant once some third element
        # divides the lcm and both cross pairs were already handled
        if any(k != i and k != j and all(map(le, e.lm, lcm))
               and frozenset((i, k)) in done and frozenset((k, j)) in done
               for k, e in enumerate(basis)):
            continue
        bound = math.inf if limit is None else limit if cap is None else cap
        sp, dropped = _lin(f, tuple(map(sub, lcm, f.lm)), g, tuple(map(sub, lcm, g.lm)), bound)
        r, cut = _mora(sp, list(basis), bound)
        exact = exact and (cap is not None or not (dropped or cut))
        if not r.terms:
            continue
        if unit := as_unit(r):
            return unit
        _push(basis, lms, r)
        k = len(basis) - 1
        for t in range(k):
            heapq.heappush(queue, pair(t, k))
        corner()

    if provisional and cap is None and not exact:
        return None
    # minimalize: drop elements whose leading monomial is divisible by
    # another's (the leading ideal, hence the staircase, is unchanged)
    keys = [e.lm for e in basis]
    keep = sorted(
        (i for i, lm in enumerate(keys) if not any(
            all(map(le, m, lm)) and (m != lm or j < i)
            for j, m in enumerate(keys) if j != i)),
        key=lambda i: monomial_key(lms[i]),
    )
    kept = [basis[i] for i in keep]
    reps = tuple(_representation(ctx, e, scales) for e in kept) if track else None
    # a walk after the last push is below the final cap: a lowered cap is
    # its corner, and an unchanged bound is the cap, or the limit of a run
    # that had already dropped a term
    return StandardBasis._kept(ctx, kept, tuple(lms[i] for i in keep), reps,
                               cap if cap is not None or exact else limit, walk)


def _axis_orders(supports: Iterable[Iterable[Monomial]], arity: int) -> list[int] | None:
    """For each variable x_i the least k such that x_i^k lies in one of the
    ``supports`` (the monomials of each generator; the constant monomial
    counts as k = 0 on every axis), or ``None`` when some axis has none.

    ``None`` proves the colength infinite: every generator vanishes on
    that axis, so the ideal lies in the ideal of the axis.  And m^D inside
    the ideal makes every order at most D: restricted to the x_i-axis,
    unit * x_i^D = sum(a_j * g_j) has order at least the least order of the
    g_j there.  Read on leading monomials, a ``None`` or an order >= D
    leaves x_i^(D-1) standard, so no corner lies below D.
    """
    orders: list = [None] * arity
    for support in supports:
        for m in support:
            d = sum(m)
            for i, e in enumerate(m):
                if e == d and (orders[i] is None or d < orders[i]):
                    orders[i] = d
    return None if None in orders else orders


def staircase_quotient(
    gens: Sequence[Polynomial], *, degree_cap: int | None = None,
) -> tuple[StandardBasis | None, "LocalAlgebra"]:
    """Standard basis and staircase of the localized ideal (gens), with
    zero generators dropped.

    No basis (``None``) is built for a zero ideal, whose algebra is the
    point in no variables (an empty list is the Jacobian ideal of a germ
    in no variables) and infinite otherwise, nor for an ideal with an axis
    on which no generator has a pure power (:func:`_axis_orders`): each
    generator vanishes on that axis, so the ideal lies in the axis's ideal
    and its colength is infinite.  Any other ideal takes one call of
    :func:`standard_basis`, which records the highest corner as
    ``degree_cap`` (``None`` for infinite colength).

    ``degree_cap`` D, when set, is passed on to :func:`standard_basis` and
    must be a known corner: m^D must lie in the ideal.  Then the one run
    truncates below D and finds the ideal's own corner, at most D, so the
    basis has the leading monomials, corner and staircase of an uncapped
    build; only generator tails past the corner can differ.
    """
    gens = list(gens)
    return _staircase(_context(gens) if gens else None,
                      [_cleared(g._terms)[0] for g in gens], degree_cap)


def _staircase(
    ctx: VarContext | None, gens: list[dict[Monomial, int]], degree_cap: int | None,
) -> tuple[StandardBasis | None, "LocalAlgebra"]:
    """:func:`staircase_quotient` of the integer coefficient dicts ``gens``
    over ``ctx`` (``None``: no generators, no variables).  The zero and
    axis rules read the dicts; only generators that pass them are built
    into kernel elements, on their keys."""
    arity = ctx.arity if ctx else 0
    live = [t for t in gens if t]
    if not live:
        return None, LocalAlgebra((), INFINITE) if arity else LocalAlgebra(((),), 1)
    if _axis_orders(live, arity) is None:
        return None, LocalAlgebra((), INFINITE)
    elems = [_Elem({(sum(m), *m[::-1]): c for m, c in t.items()}) for t in live]
    sb = _basis(ctx, elems, [], False, degree_cap)
    return sb, quotient_basis(sb)


class LocalAlgebra(_Record):
    """Monomial basis (staircase complement) of a local quotient ring;
    ``dimension`` is math.inf for a non-isolated (infinite) quotient.  An
    algebra of :func:`quotient_basis` lists ``basis_monomials`` only when
    they are first read."""

    _fields = ("basis_monomials", "dimension")

    def __init__(self, basis_monomials: tuple[Monomial, ...], dimension: int | float):
        vars(self).update(basis_monomials=basis_monomials, dimension=dimension)

    @classmethod
    def _of_runs(cls, runs: list[tuple[Monomial, int]]) -> LocalAlgebra:
        """The algebra of the :func:`_runs` ``runs``: its dimension is the
        sum of their lengths, and its monomials are listed when first read."""
        alg = object.__new__(cls)
        vars(alg).update(dimension=sum(top for _, top in runs), _runs=runs)
        return alg

    @cached_property
    def basis_monomials(self) -> tuple[Monomial, ...]:
        """A run holds at most one monomial per degree and prefixes come in
        lexicographic order, so each degree's monomials, reversed, are in
        ``monomial_key`` order."""
        buckets: list[list[Monomial]] = [
            [] for _ in range(max((sum(p) + top for p, top in self._runs), default=0))]
        for prefix, top in self._runs:
            d = sum(prefix)
            for e in range(top):
                buckets[d + e].append(prefix + (e,))
        return tuple(m for bucket in buckets for m in reversed(bucket))

    @property
    def is_finite(self) -> bool:
        return self.dimension != INFINITE


def _runs(lms: Sequence[Monomial], cap: int | None) -> list[tuple[Monomial, int]] | None:
    """The standard monomials of the leading monomials ``lms`` (outside
    their ideal, and of degree below ``cap`` when set) as runs ``(prefix,
    top)``: the monomials ``prefix + (e,)`` for 0 <= e < top.  ``None`` when
    there are infinitely many, i.e. with no cap some variable has no pure
    power among them.

    The walk fixes one exponent at a time.  At depth i it keeps the leading
    monomials that divide the prefix in the first i variables; the exponent
    of variable i stops rising once one of them, with zeros in every later
    variable, divides the prefix, or once the prefix uses up the degree
    budget.  Every branch that is entered holds a standard monomial (its
    prefix padded with zeros), so the work is proportional to the number
    of runs.  Prefixes come in lexicographic order.
    """
    if not lms:
        return None
    leaf = len(lms[0]) - 1
    if not all(map(any, lms)):
        return []  # 1 is leading: the quotient is zero
    if cap is not None:
        budget = cap - 1
    else:
        pures = [min((lm[i] for lm in lms if lm[i] == sum(lm)), default=0)
                 for i in range(leaf + 1)]
        if not all(pures):
            return None
        # a standard monomial stays below every pure power
        budget = sum(pures) - leaf - 1
    runs: list[tuple[Monomial, int]] = []

    def walk(i: int, prefix: Monomial, active: Sequence[Monomial], budget: int) -> None:
        if i == leaf:  # one variable
            if (top := min(min(lm[i] for lm in active), budget + 1)) > 0:
                runs.append((prefix, top))
        elif i < leaf - 1:
            top = min((lm[i] for lm in active if not any(lm[i + 1:])), default=budget + 1)
            for e in range(min(top, budget + 1)):
                walk(i + 1, prefix + (e,), [lm for lm in active if lm[i] <= e], budget - e)
        else:
            # the last variable stops at the least last exponent among the
            # lms with lm[i] <= e, a running minimum; it reaches 0, ending
            # the runs, where variable i stops
            steps = sorted([(lm[i], lm[leaf]) for lm in active])
            k, low = 0, budget + 1
            for e in range(budget + 1):
                while k < len(steps) and steps[k][0] <= e:
                    low = min(low, steps[k][1])
                    k += 1
                if not (top := min(low, budget + 1 - e)):
                    break
                runs.append((prefix + (e,), top))

    walk(0, (), lms, budget)
    return runs


def _corner(runs: list[tuple[Monomial, int]] | None) -> int | None:
    """1 + the top degree of the standard monomials in the :func:`_runs`
    ``runs``, or ``None`` for ``None`` (infinitely many): a run's top
    monomial has degree sum(prefix) + top - 1."""
    if runs is None:
        return None
    return max((sum(prefix) + top for prefix, top in runs), default=0)


def quotient_basis(sb: StandardBasis) -> LocalAlgebra:
    """Monomials outside the leading ideal, or an infinite marker.

    The standard monomials, sorted by :func:`bsing.polyring.monomial_key`,
    come from the runs of :func:`_runs`, whose work is proportional to
    their number.  The dimension is the runs' total length; the monomials
    are listed when ``basis_monomials`` is first read.  The complement is
    finite iff every variable has a pure power among the leading
    monomials.  With ``sb.degree_cap`` D every monomial of degree >= D
    counts as leading (the ideal contains m^D), so the complement is
    always finite.  It is computed once per basis.
    """
    return sb._algebra


# -- the fraction-free row echelon ---------------------------------------------


def _cleared(terms: dict) -> tuple[dict, int]:
    """Rational ``terms`` over the integers: (ints, s), terms == ints/s, with
    s > 0 the least common denominator."""
    s = math.lcm(*(c.denominator for c in terms.values()))
    if s == 1:
        return {k: c.numerator for k, c in terms.items()}, 1
    return {k: c.numerator * (s // c.denominator) for k, c in terms.items()}, s


def _echelon(
    rows: Sequence[dict[int, int]],
    pivots: dict[int, tuple[int, dict[int, int]]] | None = None,
) -> dict[int, tuple[int, dict[int, int]]]:
    """Fraction-free incremental row echelon of sparse integer rows.

    A pivot is (lc, tail), a primitive integer row split like an
    :class:`_Elem` record: its leading coefficient lc > 0, in the pivot
    column, and its other entries.  Each row, consumed, is reduced at its
    leading entry by the pivot of that column (:func:`_eliminate`) until
    its leading column has none; unless it vanishes, it is made primitive
    and becomes that column's pivot.  ``pivots`` (a fresh dict by default) is extended in place and
    returned: the rank is its length and its keys are the pivot columns.
    A pivot row is a multiple of the normalized row of elimination over Q,
    so the pivot columns are the same."""
    if pivots is None:
        pivots = {}
    for row in rows:
        while row:
            lead = min(row)
            v = row.pop(lead)
            if lead not in pivots:
                c = math.gcd(v, *row.values())
                if v < 0:
                    c = -c
                pivots[lead] = (v // c, {k: x // c for k, x in row.items()} if c != 1 else row)
                break
            row = _eliminate(row, v, pivots[lead])[0]
    return pivots


def _eliminate(
    row: dict[int, int], v: int, pivot: tuple[int, dict[int, int]]
) -> tuple[dict[int, int], int]:
    """One fraction-free step: ``row``, whose entry v in the pivot's column
    was taken out, becomes (lc/d)*row - (v/d)*tail, d = gcd(v, lc), in
    place when lc/d is 1; returned with the factor lc/d."""
    lc, tail = pivot
    d = math.gcd(v, lc)
    a = lc // d
    if a != 1:
        row = {k: a * x for k, x in row.items()}
    b = v // d
    for col, x in tail.items():
        nv = row.get(col, 0) - b * x
        if nv:
            row[col] = nv
        else:
            del row[col]
    return row, a


# -- brute-force jet-space oracle ----------------------------------------------


def _jet_rows(
    gens: Sequence[Polynomial], monos: list[Monomial], N: int
) -> list[dict[int, int]]:
    """Integer rows spanning {g * m truncated below degree N} in the
    monomial basis."""
    index = {m: i for i, m in enumerate(monos)}
    rows = []
    for g in gens:
        ints = _cleared(g._terms)[0]
        for m in monos:
            row: dict[int, int] = {}
            for gm, c in ints.items():
                prod = monomial_mul(gm, m)
                if sum(prod) < N:
                    row[index[prod]] = c
            if row:
                rows.append(row)
    return rows


def _stable_jet(
    gens: Sequence[Polynomial], max_jet: int
) -> tuple[int, list[Monomial], dict[int, tuple[int, dict[int, int]]]] | None:
    """For N = 2, 3, ..., max_jet: the echelon of all generator multiples
    truncated below total degree N, inside the space of monomials of
    degree < N.  Returns ``(N, monomials, pivots)`` at the first N whose
    codimension equals that of N-1 (then m^(N-1) lies in I + m^N, so by
    Nakayama in the ideal, and the codimension is the quotient dimension),
    or ``None`` if none up to ``max_jet`` does."""
    arity = gens[0].context.arity
    prev = None
    for N in range(2, max_jet + 1):
        monos = sorted((m for d in range(N) for m in _monomials((1,) * arity, d)),
                       key=monomial_key)
        pivots = _echelon(_jet_rows(gens, monos, N))
        codim = len(monos) - len(pivots)
        if codim == prev:
            return N, monos, pivots
        prev = codim
    return None


def jet_dimension_oracle(
    gens: Sequence[Polynomial], max_jet: int = 16
) -> int | float:
    """Brute-force quotient dimension, independent of standard bases.

    For N = 2, 3, ...: spans all generator multiples truncated below total
    degree N inside the space of monomials of degree < N and takes the
    codimension; returns the value once it repeats for two consecutive N
    (at that point m^N lies in the ideal, so the value is exact), or the
    infinite marker if it has not stabilized by ``max_jet``.
    """
    if max_jet < 1:
        raise ValueError("max_jet must be >= 1")
    gens = list(gens)
    if gens:
        _context(gens)
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return INFINITE
    if gens[0].context.arity == 0:
        return 0  # a nonzero constant generates everything
    stable = _stable_jet(gens, max_jet)
    if stable is None:
        return INFINITE
    _, monos, pivots = stable
    return len(monos) - len(pivots)
