"""Standard bases of ideals in the local ring at the origin.

The ring is the localization of the polynomial ring at the maximal ideal of
the origin; computations use a local monomial ordering (1 is the largest
monomial) together with Mora's ecart-driven division, which terminates
where naive division would loop.  The division certificate is exact:

    unit * p = sum(cofactor_i * G_i) + remainder

with ``unit`` a polynomial of nonzero constant term.

Division is a weak normal form: the guarantee is that the *leading*
monomial of the remainder lies outside the leading ideal of the divisors.
A remainder all of whose terms avoid the leading ideal does not exist with
polynomial data in general (for G = {x + x^2} no polynomial unit turns the
tail of 1 + x into staircase monomials), so full tail reduction is only
offered by the graded engine in :mod:`bsing.quasihomog`.  Weak normal
forms decide ideal membership against a standard basis, which is all the
Milnor-number layer needs.

One fraction-free kernel runs division, S-polynomials and completion on
inputs made integral once.  Its elements (:class:`_Elem`) are primitive
integer polynomials with positive leading coefficient, with leading
monomial, leading coefficient and ecart cached.  A step replaces h by
(lc_g/d)*h - (lc_h/d)*x^q*g, d = gcd(lc_h, lc_g), truncates and divides
out the content, so a value is known up to a rational multiple, which
a basis or a membership test allows.  Tracked, an element carries the
rational lam of its exact value lam*terms and integer representations
rep, den*terms == sum(rep[t]*s_t*input_t) with s_t clearing input t's
denominators; (lam*s_t/den)*rep[t] is divided out once, at the end.

:func:`standard_basis` truncates at the highest corner (Greuel-Pfister,
section 1.7), the least D with m^D in the ideal.  A truncating run finds
it by descending from its truncation degree D while all of degree D-1 is
leading (m^D leading makes m^(D+1) leading); an exact run with no corner
yet walks the staircase.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import add, le, sub
from typing import Iterator, Sequence

from .polyring import (
    Monomial,
    Polynomial,
    VarContext,
    monomial_divides,
    monomial_key,
    monomial_lcm,
    monomial_mul,
)

INFINITE = math.inf


# -- the fraction-free kernel --------------------------------------------------


def _key(m: Monomial) -> tuple[int, ...]:
    """The one local order, negative-degree reverse-lexicographic, as the
    kernel's key (deg, e_n, ..., e_1) of a monomial: 1 is the largest
    monomial (the least key), and ties go to earlier variables, LT(x + y) = x.
    min() of the keys is the leading monomial, max()[0] the top degree, and
    keys multiply, divide and divide one another exponentwise."""
    return (sum(m), *reversed(m))


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


def _inputs(polys: Sequence[Polynomial], track: bool = False) -> tuple[list[_Elem], list[int]]:
    """The elements of ``polys``, made integral by the least s_t > 0, and
    the s_t; tracked, input t has the representation e_t."""
    elems, scales = [], []
    for t, p in enumerate(polys):
        s = math.lcm(*(c.denominator for c in p._terms.values()))
        terms = {_key(m): c.numerator * (s // c.denominator) for m, c in p._terms.items()}
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


def mora_normal_form(
    p: Polynomial, divisors: Sequence[Polynomial]
) -> tuple[Polynomial, list[Polynomial], Polynomial]:
    """Mora weak normal form of ``p`` against ``divisors``.

    Returns ``(remainder, cofactors, unit)`` with the exact identity
    ``unit * p == sum(cofactors[i] * divisors[i]) + remainder`` and
    ``unit(0) != 0``.  The remainder is zero or has leading monomial
    outside the leading ideal of the divisors; against a standard basis
    this decides membership in the localized ideal.  :func:`_mora` states
    the selection rule; ties go to the divisors in their order.
    """
    divisors = list(divisors)
    if not divisors:
        raise ValueError("divisor list must be nonempty")
    ctx = p.context
    zero = Polynomial.zero(ctx)
    for i, g in enumerate(divisors):
        # a divisor with nonzero constant term c is a unit of the local
        # ring: (g/c) * p == (p/c) * g
        if c0 := g.constant_term():
            return zero, [p.scale(1 / c0) if j == i else zero
                          for j in range(len(divisors))], g.scale(1 / c0)
    # inputs (p, divisors...): the remainder is rep[0]*p + sum(rep[1+i]*divisors[i])
    elems, scales = _inputs([p, *divisors], track=True)
    h, _ = _mora(elems[0], [e for e in elems[1:] if e.terms], math.inf)
    rep = _representation(ctx, h, scales)
    return _polynomial(ctx, h.terms, h.lam), [-c for c in rep[1:]], rep[0]


@dataclass(frozen=True)
class StandardBasis:
    """Standard basis of a local ideal with its leading-term staircase.

    ``representations``, when tracked, expresses each basis element in the
    generators ``gens`` given to :func:`standard_basis`:
    generators[i] == sum_j representations[i][j] * gens[j].

    ``degree_cap`` D, when set, means the ideal described is
    (generators) + m^D: every monomial of total degree >= D belongs to it,
    whether or not a leading monomial divides it.  :func:`contains` and
    :func:`quotient_basis` honour it.  Below a given cap, and always without
    one, it is the highest corner: m^D lies in the ideal itself.
    """

    generators: tuple[Polynomial, ...]
    leading_monomials: tuple[Monomial, ...]
    representations: tuple[tuple[Polynomial, ...], ...] | None = None
    degree_cap: int | None = None

    @cached_property
    def _elems(self) -> list[_Elem]:
        return _inputs(self.generators)[0]

    def contains(self, p: Polynomial) -> bool:
        """Membership of ``p`` in the ideal.  With ``degree_cap`` set, p is
        first truncated below it (p minus its truncation lies in
        m^degree_cap, inside the ideal) and divided modulo m^degree_cap."""
        bound = math.inf if self.degree_cap is None else self.degree_cap
        h = _inputs([p])[0][0]
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

    Without tracked representations the run stops at the highest corner:
    once the leading monomials cover every monomial of degree D (below the
    truncation degree if a term was dropped), m^D lies in I + m^(D+1), so
    in I by Nakayama's lemma, and the run goes on modulo m^D.  Uncapped
    Mora division can take minutes on an ideal of small colength, so
    without a cap truncation starts at degree 6, rising by half for a run
    that dropped terms and found no corner below it.  The result records
    the corner, else ``None`` if nothing was dropped (infinite colength),
    else the given cap.
    """
    if degree_cap is not None and track_representations:
        raise ValueError("degree_cap would corrupt tracked representations")
    inputs = tuple(gens)
    if all(g.is_zero() for g in inputs):
        raise ValueError("standard basis of the zero ideal is not supported here")
    if track_representations or degree_cap is not None:
        return _complete(inputs, track_representations, degree_cap)
    limit = 6
    while True:
        sb = _complete(inputs, False, limit, provisional=True)
        if sb.degree_cap != limit:
            return sb
        limit += limit // 2


def _complete(
    inputs: tuple[Polynomial, ...], track_representations: bool, limit: int | None,
    provisional: bool = False,
) -> StandardBasis:
    """One run of :func:`standard_basis`, truncating below ``limit`` unless
    it is ``None``.  Until a ``provisional`` limit drops a term the run is
    exact: a corner at any degree counts, and without one no cap is set."""
    ctx = next(g for g in inputs if not g.is_zero()).context
    track = track_representations
    elems, scales = _inputs(inputs, track)

    def as_unit(e: _Elem) -> StandardBasis | None:
        """{1}, a standard basis once an element has a nonzero constant
        term.  Tracked, only a pure constant is expressible (true for
        homogeneous generators, the tracked use case)."""
        if e.lm[0] or (track and e.ecart):
            return None
        e.lam = Fraction(1, e.lc)
        reps = (_representation(ctx, e, scales),) if track else None
        return StandardBasis((Polynomial.constant(ctx, 1),), ((0,) * ctx.arity,), reps, 0)

    basis: list[_Elem] = []
    lms: list[Monomial] = []
    for e in elems:
        if e.terms:
            if unit := as_unit(e):
                return unit
            _push(basis, lms, e)
    cap, exact = None, provisional  # the corner found; nothing dropped yet

    def corner() -> None:
        """Lower the cap to the highest corner of the leading monomials and
        truncate, keeping its scale, each element with its lm below it."""
        nonlocal cap
        if limit is None:
            return
        # leading monomials of a run that dropped nothing are exact
        bound = cap if cap is not None else None if exact else limit
        if bound is None:
            stairs = _staircase(lms, None)
            if stairs is None:
                return
            top = 1 + max((sum(m) for m in stairs), default=-1)
        elif (top := _corner(lms, bound)) == bound:
            return
        cap = top
        basis[:] = [_Elem({k: c for k, c in e.terms.items() if k[0] < top}, e.lam)
                    if e.lm[0] < top else e for e in basis]

    corner()

    def pair_key(i: int, j: int):
        return _key(monomial_lcm(lms[i], lms[j]))

    queue = [(pair_key(i, j), i, j) for j in range(len(basis)) for i in range(j)]
    heapq.heapify(queue)
    done: set[frozenset[int]] = set()
    while queue:
        _, i, j = heapq.heappop(queue)
        done.add(frozenset((i, j)))
        lcm_ij = monomial_lcm(lms[i], lms[j])
        if monomial_mul(lms[i], lms[j]) == lcm_ij:
            continue  # product criterion
        # chain criterion: the pair is redundant once some third element
        # divides the lcm and both cross pairs were already handled
        if any(k != i and k != j and monomial_divides(lms[k], lcm_ij)
               and frozenset((i, k)) in done and frozenset((k, j)) in done
               for k in range(len(basis))):
            continue
        bound = math.inf if limit is None else limit if cap is None else cap
        lcm, f, g = _key(lcm_ij), basis[i], basis[j]
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
            heapq.heappush(queue, (pair_key(t, k), t, k))
        corner()

    # minimalize: drop elements whose leading monomial is divisible by
    # another's (the leading ideal, hence the staircase, is unchanged)
    keep = sorted(
        (i for i, lm in enumerate(lms) if not any(
            monomial_divides(lms[j], lm) and (lms[j] != lm or j < i)
            for j in range(len(lms)) if j != i)),
        key=lambda i: monomial_key(lms[i]),
    )
    gens = tuple(_polynomial(ctx, basis[i].terms, basis[i].lam) for i in keep)
    reps = tuple(_representation(ctx, basis[i], scales) for i in keep) if track else None
    return StandardBasis(gens, tuple(lms[i] for i in keep), reps,
                         cap if cap is not None or exact else limit)


def staircase_quotient(gens: Sequence[Polynomial]) -> tuple[StandardBasis, "LocalAlgebra"]:
    """Standard basis and staircase of the localized ideal: one call of
    :func:`standard_basis`, which records the highest corner as
    ``degree_cap`` (``None`` for infinite colength)."""
    sb = standard_basis(gens)
    return sb, quotient_basis(sb)


@dataclass(frozen=True)
class LocalAlgebra:
    """Monomial basis (staircase complement) of a local quotient ring."""

    basis_monomials: tuple[Monomial, ...]
    dimension: int | float  # math.inf marks a non-isolated (infinite) quotient

    @property
    def is_finite(self) -> bool:
        return self.dimension != INFINITE


def _staircase(lms: Sequence[Monomial], cap: int | None) -> Iterator[Monomial] | None:
    """The standard monomials of the leading monomials ``lms`` (outside
    their ideal, and of degree below ``cap`` when set); ``None`` when there
    are infinitely many, i.e. with no cap some variable has no pure power
    among them.

    The walk fixes one exponent at a time.  At depth i it keeps the leading
    monomials that divide the prefix in the first i variables; the exponent
    of variable i stops rising once one of them, with zeros in every later
    variable, divides the prefix, or once the prefix uses up the degree
    budget.  Every branch that is entered holds a standard monomial (its
    prefix padded with zeros), so the work is proportional to the output.
    Prefixes come in lexicographic order and the last exponent falls, so
    each branch yields its monomial of highest degree first; callers that
    need an order sort.
    """
    if not lms:
        return None
    arity = len(lms[0])
    # each leading monomial with the index of its last nonzero exponent
    tagged = [(lm, max((i for i, e in enumerate(lm) if e), default=-1)) for lm in lms]
    if any(last < 0 for _, last in tagged):
        return iter(())  # 1 is leading: the quotient is zero
    if cap is not None:
        budget = cap - 1
    else:
        pures = [[lm[i] for lm, last in tagged if last == i and not any(lm[:i])]
                 for i in range(arity)]
        if not all(pures):
            return None
        # a standard monomial stays below every pure power
        budget = sum(min(p) - 1 for p in pures)

    def walk(i: int, prefix: Monomial, active: list, budget: int):
        stop = min((lm[i] for lm, last in active if last <= i), default=budget + 1)
        top = min(stop, budget + 1)
        if i == arity - 1:
            # highest exponent first: a branch's top-degree monomial leads
            for e in range(top - 1, -1, -1):
                yield prefix + (e,)
            return
        for e in range(top):
            yield from walk(
                i + 1, prefix + (e,), [t for t in active if t[0][i] <= e], budget - e
            )

    return walk(0, (), tagged, budget)


def _corner(lms: Sequence[Monomial], bound: int) -> int:
    """1 + the top degree of ``_staircase(lms, bound)``: descend from
    ``bound`` while every monomial of the degree below has a leading
    monomial dividing it (m^D leading makes m^(D+1) leading too)."""
    d = bound
    while d > 0 and all(any(all(map(le, lm, m)) for lm in lms)
                        for m in _of_degree(len(lms[0]), d - 1)):
        d -= 1
    return d


@lru_cache(maxsize=None)
def _of_degree(arity: int, degree: int) -> tuple[Monomial, ...]:
    """The monomials of total degree ``degree`` in ``arity`` variables."""
    if arity == 0:
        return ((),) if degree == 0 else ()
    return tuple((e, *m) for e in range(degree, -1, -1)
                 for m in _of_degree(arity - 1, degree - e))


def quotient_basis(sb: StandardBasis) -> LocalAlgebra:
    """Monomials outside the leading ideal, or an infinite marker.

    The standard monomials come from :func:`_staircase`, whose work is
    proportional to their number, sorted by
    :func:`bsing.polyring.monomial_key`.  The complement is
    finite iff every variable has a pure power among the leading
    monomials.  With ``sb.degree_cap`` D every monomial of degree >= D
    counts as leading (the ideal contains m^D), so the complement is
    always finite.
    """
    monomials = _staircase(sb.leading_monomials, sb.degree_cap)
    if monomials is None:
        return LocalAlgebra((), INFINITE)
    basis = sorted(monomials, key=monomial_key)
    return LocalAlgebra(tuple(basis), len(basis))


# -- brute-force jet-space oracle ----------------------------------------------


def _row_echelon(
    rows: list[dict[int, Fraction]],
    pivots: dict[int, dict[int, Fraction]] | None = None,
) -> dict[int, dict[int, Fraction]]:
    """Exact incremental row echelon over Q of sparse rows.

    Each row is reduced by the pivot rows (normalized to leading entry 1)
    and, unless it vanishes, becomes the pivot of its smallest column.
    ``pivots`` (a fresh dict by default) is extended in place and returned;
    the rank is its length and its keys are the pivot columns."""
    if pivots is None:
        pivots = {}
    for row in rows:
        row = dict(row)
        while row:
            lead = min(row)
            if lead in pivots:
                piv = pivots[lead]
                factor = row[lead]
                for col, val in piv.items():
                    nv = row.get(col, Fraction(0)) - factor * val
                    if nv == 0:
                        row.pop(col, None)
                    else:
                        row[col] = nv
            else:
                inv = 1 / row[lead]
                pivots[lead] = {c: v * inv for c, v in row.items()}
                break
    return pivots


def _jet_rows(
    gens: Sequence[Polynomial], monos: list[Monomial], N: int
) -> list[dict[int, Fraction]]:
    """Rows spanning {g * m truncated below degree N} in the monomial basis."""
    index = {m: i for i, m in enumerate(monos)}
    rows = []
    for g in gens:
        for m in monos:
            row: dict[int, Fraction] = {}
            for gm, c in g._terms.items():
                prod = monomial_mul(gm, m)
                if sum(prod) < N:
                    col = index[prod]
                    row[col] = row.get(col, Fraction(0)) + c
            row = {k: v for k, v in row.items() if v != 0}
            if row:
                rows.append(row)
    return rows


def _stable_jet(
    gens: Sequence[Polynomial], max_jet: int
) -> tuple[int, list[Monomial], dict[int, dict[int, Fraction]]] | None:
    """For N = 2, 3, ..., max_jet: the echelon of all generator multiples
    truncated below total degree N, inside the space of monomials of
    degree < N.  Returns ``(N, monomials, pivots)`` at the first N whose
    codimension equals that of N-1 (then m^(N-1) lies in I + m^N, so by
    Nakayama in the ideal, and the codimension is the quotient dimension),
    or ``None`` if none up to ``max_jet`` does."""
    arity = gens[0].context.arity
    prev = None
    for N in range(2, max_jet + 1):
        monos = sorted((m for d in range(N) for m in _of_degree(arity, d)), key=monomial_key)
        pivots = _row_echelon(_jet_rows(gens, monos, N))
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


def jet_membership_oracle(
    p: Polynomial, gens: Sequence[Polynomial], max_jet: int = 16
) -> bool:
    """Brute-force membership of ``p`` in the localized ideal.

    Valid once the jet dimension has stabilized at N (then m^N is inside
    the ideal): membership is a rank comparison in the degree-< N jet space.
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return p.is_zero()
    stable = _stable_jet(gens, max_jet)
    if stable is None:
        raise ValueError("jet oracle did not stabilize; raise max_jet")
    N, monos, pivots = stable
    index = {m: i for i, m in enumerate(monos)}
    p_row = {index[m]: c for m, c in p._terms.items() if sum(m) < N and c != 0}
    return len(_row_echelon([p_row], dict(pivots))) == len(pivots)
