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

:func:`standard_basis` truncates at the highest corner (Greuel-Pfister,
section 1.7), the least D with m^D in the ideal.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Sequence

from .polyring import (
    Monomial,
    Polynomial,
    monomial_div,
    monomial_divides,
    monomial_key,
    monomial_lcm,
    monomial_mul,
)

INFINITE = math.inf


@dataclass(frozen=True)
class LocalOrder:
    """Negative-degree reverse-lexicographic order.

    Smaller total degree means a *larger* monomial, so 1 is the largest
    monomial; ties are broken reverse-lexicographically with earlier
    variables larger (LT(x + y) = x).
    """

    def key(self, m: Monomial):
        """Sort key; the largest monomial has the smallest key."""
        return (self.degree(m), tuple(reversed(m)))

    def degree(self, m: Monomial) -> int:
        return sum(m)


def leading_term(p: Polynomial, order: LocalOrder) -> tuple[Monomial, Fraction]:
    if p.is_zero():
        raise ValueError("zero polynomial has no leading term")
    m = min(p._terms, key=order.key)
    return m, p._terms[m]


def ecart(p: Polynomial, order: LocalOrder) -> int:
    """Spread between the largest term degree and the leading-term degree."""
    lm, _ = leading_term(p, order)
    top = max(order.degree(m) for m in p._terms)
    return top - order.degree(lm)


def _truncate(p: Polynomial, cap: int) -> Polynomial:
    """Drop terms of total degree >= cap (sound when working modulo the
    cap-degree power of the maximal ideal)."""
    return Polynomial._trusted(
        p.context, {m: c for m, c in p._terms.items() if sum(m) < cap}
    )


def _mora_core(
    p: Polynomial,
    gens: Sequence[Polynomial],
    order: LocalOrder,
    reps: tuple[list[Polynomial], Sequence[list[Polynomial]]] | None = None,
    truncate: Callable[[Polynomial], Polynomial] | None = None,
) -> tuple[Polynomial, list[Polynomial] | None]:
    """Shared Mora division loop; returns ``(remainder, representation)``.

    ``reps = (rep_p, rep_gens)`` writes ``p`` and each divisor over one
    fixed list of inputs: v == sum(rep[t] * inputs[t]).  Every value of the
    loop, the partial results that join the reducers included, carries its
    representation and updates it in the same step as itself, so the
    remainder's is exact.  Without ``reps`` the remainder is only
    guaranteed up to a nonzero rational multiple (partial results are
    rescaled to keep coefficients small), which is what the Buchberger loop
    and membership tests need.

    ``truncate`` (dropping terms of total degree >= D; only without
    ``reps`` may it drop any) divides modulo m^D, applied to ``p`` and
    every partial result: the remainder is then zero iff p lies in
    (gens) + m^D, if the divisors are a standard basis of it modulo m^D."""
    ctx = p.context

    # a divisor with nonzero constant term is a unit of the local ring:
    # (g_i/c) * p - (p/c) * g_i == 0, and naive division by such a divisor
    # would wander for a very long time
    for i, g in enumerate(gens):
        c0 = g.constant_term()
        if c0 != 0:
            if reps is None:
                return Polynomial.zero(ctx), None
            u, q = g.scale(1 / c0), p.scale(1 / c0)
            return Polynomial.zero(ctx), [
                u * a - q * b for a, b in zip(reps[0], reps[1][i])
            ]

    h = p if truncate is None else truncate(p)
    h_rep = None if reps is None else reps[0]
    reducers = [
        (g, *leading_term(g, order), ecart(g, order), None if reps is None else reps[1][i])
        for i, g in enumerate(gens)
        if not g.is_zero()
    ]
    while not h.is_zero():
        lm_h, lc_h = leading_term(h, order)
        usable = [r for r in reducers if monomial_divides(r[1], lm_h)]
        if not usable:
            break
        e_h = ecart(h, order)
        # least ecart; ties go to the earliest reducer, divisors first
        g, lm_g, lc_g, e_g, g_rep = min(usable, key=lambda r: r[3])
        if e_g > e_h:
            reducers.append((h, lm_h, lc_h, e_h, h_rep))
        q, c = monomial_div(lm_h, lm_g), lc_h / lc_g
        h = h - g.mul_monomial(q, c)
        if reps is not None:
            h_rep = [a - b.mul_monomial(q, c) for a, b in zip(h_rep, g_rep)]
        elif not h.is_zero():
            if truncate is not None:
                h = truncate(h)
            if not h.is_zero():
                scale = _primitive_scale(h, order)
                if scale != 1:
                    h = h.scale(scale)
    return h, h_rep


def mora_normal_form(
    p: Polynomial, divisors: Sequence[Polynomial], order: LocalOrder | None = None
) -> tuple[Polynomial, list[Polynomial], Polynomial]:
    """Mora weak normal form of ``p`` against ``divisors``.

    Returns ``(remainder, cofactors, unit)`` with the exact identity
    ``unit * p == sum(cofactors[i] * divisors[i]) + remainder`` and
    ``unit(0) != 0``.  The remainder is zero or has leading monomial
    outside the leading ideal of the divisors; against a standard basis
    this decides membership in the localized ideal.

    Selection rule: among dividing reducers pick minimal ecart (ties:
    original divisors first, then by index).  When the chosen reducer has
    larger ecart than the current partial result, the partial result
    itself joins the reducer set; that is what forces termination in the
    local ring.
    """
    order = order or LocalOrder()
    divisors = list(divisors)
    if not divisors:
        raise ValueError("divisor list must be nonempty")
    # inputs (p, divisors...): the remainder is rep[0]*p + sum(rep[1+i]*divisors[i])
    n = len(divisors) + 1
    e = [[Polynomial.constant(p.context, int(t == k)) for t in range(n)] for k in range(n)]
    r, rep = _mora_core(p, divisors, order, reps=(e[0], e[1:]))
    return r, [-c for c in rep[1:]], rep[0]


def _spoly(
    f: Polynomial, g: Polynomial, order: LocalOrder
) -> Polynomial:
    lm_f, lc_f = leading_term(f, order)
    lm_g, lc_g = leading_term(g, order)
    lcm = monomial_lcm(lm_f, lm_g)
    a = f.mul_monomial(monomial_div(lcm, lm_f), 1 / lc_f)
    b = g.mul_monomial(monomial_div(lcm, lm_g), 1 / lc_g)
    return a - b


def _primitive_scale(p: Polynomial, order: LocalOrder) -> Fraction:
    """Factor lambda such that lambda*p has coprime integer coefficients
    and positive leading coefficient (keeps Buchberger arithmetic small)."""
    coeffs = list(p._terms.values())
    den_lcm = 1
    for c in coeffs:
        den_lcm = den_lcm * c.denominator // math.gcd(den_lcm, c.denominator)
    num_gcd = 0
    for c in coeffs:
        num_gcd = math.gcd(num_gcd, abs(c.numerator * (den_lcm // c.denominator)))
    scale = Fraction(den_lcm, num_gcd)
    if leading_term(p, order)[1] < 0:
        scale = -scale
    return scale


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
    order: LocalOrder
    leading_monomials: tuple[Monomial, ...]
    representations: tuple[tuple[Polynomial, ...], ...] | None = None
    degree_cap: int | None = None

    def contains(self, p: Polynomial) -> bool:
        """Membership of ``p`` in the ideal.  With ``degree_cap`` set, p is
        first truncated below it (p minus its truncation lies in
        m^degree_cap, inside the ideal) and divided modulo m^degree_cap."""
        if p.is_zero():
            return True
        cap = self.degree_cap
        r, _ = _mora_core(
            p, self.generators, self.order,
            truncate=None if cap is None else lambda h: _truncate(h, cap),
        )
        return r.is_zero()


def standard_basis(
    gens: Sequence[Polynomial],
    order: LocalOrder | None = None,
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
    order = order or LocalOrder()
    if degree_cap is not None and track_representations:
        raise ValueError("degree_cap would corrupt tracked representations")
    inputs = tuple(gens)
    if all(g.is_zero() for g in inputs):
        raise ValueError("standard basis of the zero ideal is not supported here")
    if track_representations or degree_cap is not None:
        return _complete(inputs, order, track_representations, degree_cap)
    limit = 6
    while True:
        sb = _complete(inputs, order, False, limit, provisional=True)
        if sb.degree_cap != limit:
            return sb
        limit += limit // 2


def _complete(
    inputs: tuple[Polynomial, ...], order: LocalOrder, track_representations: bool,
    limit: int | None, provisional: bool = False,
) -> StandardBasis:
    """One run of :func:`standard_basis`, truncating below ``limit`` unless
    it is ``None``.  Until a ``provisional`` limit drops a term the run is
    exact: a corner at any degree counts, and without one no cap is set."""
    ctx = next(g for g in inputs if not g.is_zero()).context
    zero = Polynomial.zero(ctx)

    def as_unit(p: Polynomial, rep: list[Polynomial] | None) -> StandardBasis | None:
        """The ideal is everything once an element with nonzero constant
        term shows up; {1} is then a standard basis.  With representation
        tracking this is only expressible when the element is a pure
        constant (true for homogeneous generators, the tracked use case)."""
        c0 = p.constant_term()
        if c0 == 0 or (track_representations and p.total_degree() != 0):
            return None
        return StandardBasis(
            generators=(Polynomial.constant(ctx, 1),),
            order=order,
            leading_monomials=((0,) * ctx.arity,),
            representations=(
                (tuple(c.scale(1 / c0) for c in rep),) if track_representations else None
            ),
            degree_cap=0,
        )

    basis: list[Polynomial] = []
    reps: list[list[Polynomial]] = []

    def push(p: Polynomial, rep: list[Polynomial] | None):
        scale = _primitive_scale(p, order)
        basis.append(p.scale(scale) if scale != 1 else p)
        if track_representations:
            reps.append([c.scale(scale) for c in rep] if scale != 1 else rep)

    for i, g in enumerate(inputs):
        if g.is_zero():
            continue
        rep = [zero] * len(inputs)
        rep[i] = Polynomial.constant(ctx, 1)
        shortcut = as_unit(g, rep)
        if shortcut is not None:
            return shortcut
        push(g, rep)

    lms = [leading_term(g, order)[0] for g in basis]
    cap, exact = None, provisional  # the corner found; nothing dropped yet

    def truncate(p: Polynomial) -> Polynomial:
        nonlocal exact
        if limit is None:
            return p
        q = _truncate(p, limit if cap is None else cap)
        exact = exact and (cap is not None or len(q._terms) == len(p._terms))
        return q

    def corner() -> None:
        """Lower the cap to the highest corner of the leading monomials and
        truncate the elements whose leading monomial lies below it."""
        nonlocal cap
        # leading monomials of a run that dropped nothing are exact
        bound = cap if cap is not None else None if exact else limit
        stairs = None if limit is None else _staircase(lms, bound)
        if stairs is None:
            return
        top = 1 + max((sum(m) for m in stairs), default=-1)
        if bound is None or top < bound:
            cap = top
            basis[:] = [_truncate(g, top) if sum(lm) < top else g
                        for g, lm in zip(basis, lms)]

    corner()

    def pair_key(i: int, j: int):
        return order.key(monomial_lcm(lms[i], lms[j]))

    queue = [
        (pair_key(i, j), i, j)
        for i in range(len(basis))
        for j in range(i + 1, len(basis))
    ]
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
        if any(
            k != i
            and k != j
            and monomial_divides(lms[k], lcm_ij)
            and frozenset((i, k)) in done
            and frozenset((k, j)) in done
            for k in range(len(basis))
        ):
            continue
        sp = truncate(_spoly(basis[i], basis[j], order))
        if sp.is_zero():
            continue
        sp_reps = None
        if track_representations:
            lc_i = basis[i].coefficient(lms[i])
            lc_j = basis[j].coefficient(lms[j])
            qa, qb = monomial_div(lcm_ij, lms[i]), monomial_div(lcm_ij, lms[j])
            sp_reps = ([a.mul_monomial(qa, 1 / lc_i) - b.mul_monomial(qb, 1 / lc_j)
                        for a, b in zip(reps[i], reps[j])], reps)
        r, r_rep = _mora_core(sp, basis, order, reps=sp_reps, truncate=truncate)
        if r.is_zero():
            continue
        shortcut = as_unit(r, r_rep)
        if shortcut is not None:
            return shortcut
        k = len(basis)
        push(r, r_rep)
        lms.append(leading_term(basis[k], order)[0])
        for t in range(k):
            heapq.heappush(queue, (pair_key(t, k), t, k))
        corner()

    # minimalize: drop elements whose leading monomial is divisible by
    # another's (the leading ideal, hence the staircase, is unchanged)
    keep = []
    for i, lm in enumerate(lms):
        dominated = any(
            monomial_divides(lms[j], lm) and (lms[j] != lm or j < i)
            for j in range(len(basis))
            if j != i
        )
        if not dominated:
            keep.append(i)
    keep.sort(key=lambda i: monomial_key(lms[i]))
    kept = [basis[i] for i in keep]
    kept_lms = [lms[i] for i in keep]
    kept_reps = tuple(tuple(reps[i]) for i in keep) if track_representations else None
    return StandardBasis(
        generators=tuple(kept),
        order=order,
        leading_monomials=tuple(kept_lms),
        representations=kept_reps,
        degree_cap=cap if cap is not None or exact else limit,
    )


def staircase_quotient(
    gens: Sequence[Polynomial], order: LocalOrder | None = None
) -> tuple["StandardBasis", "LocalAlgebra"]:
    """Standard basis and staircase of the localized ideal: one call of
    :func:`standard_basis`, which records the highest corner as
    ``degree_cap`` (``None`` for infinite colength)."""
    sb = standard_basis(gens, order)
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


def _monomials_below(arity: int, degree: int) -> list[Monomial]:
    out = []
    def rec(prefix, remaining, slots):
        if slots == 0:
            out.append(tuple(prefix))
            return
        for e in range(remaining + 1):
            rec(prefix + [e], remaining - e, slots - 1)
    rec([], degree - 1, arity)
    return sorted(out, key=monomial_key)


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
        monos = _monomials_below(arity, N)
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
