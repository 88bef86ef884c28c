"""Seeded random corpora for property tests and reproducible fuzzing.

Two generators: arbitrary germs with finite boundary Milnor number (for
the additivity / oracle cross-checks) and quasihomogeneous germs built
from diagonal forms plus compatible mixed monomials (for the spectrum,
splitting and reduction laws).  Everything is driven by a seed so runs
are reproducible.  The table of plane normal-form families lives here too.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, NamedTuple

from .boundary import (
    _SCREEN_CAP,
    BoundarySingularity,
    InvalidGermError,
    NonIsolatedError,
    _jacobian_terms,
)
from .polyring import Monomial, Polynomial, VarContext
from .quasihomog import NotQuasihomogeneousError, detect_weights
from .standard_basis import _staircase

DEFAULT_SEED = 20240

_CONTEXTS = {
    2: VarContext(("x", "y"), 0),
    3: VarContext(("x", "y", "z"), 0),
}


def random_germ(rng: random.Random, arity: int) -> Polynomial:
    """Random nonzero germ with f(0) = 0: a sum of 2 to 6 random terms with
    small integer coefficients and total degrees 1 to 6 (fixed, so seeded
    corpora stay put), drawn off ``rng.getrandbits`` by :func:`_below`."""
    return _germ(_CONTEXTS[arity], _random_terms(rng, arity))


def _below(rng: random.Random, n: int) -> int:
    """A uniform draw from range(n), n > 0, by CPython's ``_randbelow`` rule
    behind ``randint`` and ``choice``: ``getrandbits(n.bit_length())``,
    redrawn while >= n.  So the corpora draw the stdlib calls' values and
    leave ``rng`` in their state (``tests/test_corpus.py::TestStdlibStream``)."""
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def _germ(ctx: VarContext, terms: dict[Monomial, int]) -> Polynomial:
    """The germ of nonzero drawn integer ``terms`` over ``ctx``, unchecked."""
    return Polynomial._trusted(ctx, {m: Fraction(c) for m, c in terms.items()})


def _random_terms(rng: random.Random, arity: int) -> dict[Monomial, int]:
    """The nonzero integer terms of :func:`random_germ`'s draw, redrawn
    while they cancel to zero; ``randint``/``choice`` draws read off
    ``getrandbits`` by :func:`_below`."""
    while True:
        terms: dict[Monomial, int] = {}
        for _ in range(2 + _below(rng, 5)):
            while True:
                m = tuple([_below(rng, 7) for _ in range(arity)])
                if 0 < sum(m) <= 6:
                    break
            c = (-3, -2, -1, 1, 1, 2, 3)[_below(rng, 7)]
            terms[m] = terms.get(m, 0) + c
        if terms := {m: c for m, c in terms.items() if c}:
            return terms


def boundary_corpus(
    seed: int = DEFAULT_SEED,
    count: int = 50,
    max_mu: int = 40,
) -> list[BoundarySingularity]:
    """``count`` germs in 2 or 3 variables with finite mu_{f,H} <= max_mu,
    drawn by :func:`random_germ` (total degree at most 6).

    Candidates are screened first (most random germs are degenerate, and
    building one exactly can take many runs).  The boundary generators are
    read off the drawn integer terms (:func:`bsing.boundary._jacobian_terms`)
    and go through :func:`bsing.standard_basis._staircase` modulo m^9, which
    refuses an ideal with an axis free of pure powers with no basis built;
    otherwise its basis must find its highest corner below 9, certifying
    m^8 inside the ideal, and its staircase size is then mu_{f,H}.  A
    survivor hands those generators, checked against its own, and that
    basis to its germ, which keeps the basis as its boundary basis (its
    tail can differ from an unscreened build's); the basis's corner caps
    the germ's ambient and restriction runs.  Both those Milnor numbers are
    then finite, as J_{f,H} lies in J_f and maps onto J_{f|H} under
    x -> 0.  A few mu = 0 germs are admitted, so ``max_mu`` must be at
    least 1.
    """
    if max_mu < 1:
        raise ValueError("max_mu must be >= 1: the mu = 0 germs are rationed")
    rng = random.Random(seed)
    out: list[BoundarySingularity] = []
    trivial_quota = max(2, count // 10)  # a few mu = 0 germs, not a flood
    while len(out) < count:
        arity = 2 if rng.random() < 0.65 else 3
        ctx, terms = _CONTEXTS[arity], _random_terms(rng, arity)
        gens = next(_jacobian_terms(terms, ctx))
        screen, algebra = _staircase(ctx, gens, _SCREEN_CAP)
        if screen is None or screen.degree_cap >= _SCREEN_CAP:
            continue
        mu = algebra.dimension
        if mu > max_mu:
            continue
        if mu == 0:
            if trivial_quota <= 0:
                continue
            trivial_quota -= 1
        out.append(BoundarySingularity(_germ(ctx, terms), _screen=(gens, screen)))
    return out


def _diagonal_candidates(rng: random.Random, arity: int) -> dict[Monomial, int]:
    """The integer terms of a diagonal quasihomogeneous germ, possibly with
    one compatible mixed monomial of weighted degree 1 (i*b + j*a == a*b
    for x^i*y^j over the diagonal x^a, y^b, and likewise in three
    variables); ``randint``/``choice`` draws read off ``getrandbits`` by
    :func:`_below`."""
    if arity == 2:
        kind = _below(rng, 4)
        if kind == 0:  # regular f, singular restriction
            b = 2 + _below(rng, 7)
            return {(1, 0): 1, (0, b): 1 + _below(rng, 2)}
        if kind == 1:  # x*y + y^k
            k = 2 + _below(rng, 7)
            return {(1, 1): 1, (0, k): (1, 1, 3)[_below(rng, 3)]}
        a, b = 2 + _below(rng, 5), 2 + _below(rng, 5)
        terms = {(a, 0): (1, 1, 2)[_below(rng, 3)], (0, b): (1, 1, 2)[_below(rng, 3)]}
        if kind == 3:
            # mixed monomial i/a + j/b = 1 with i, j >= 1, when one exists
            options = [(i, j) for i in range(1, a) for j in range(1, b) if i * b + j * a == a * b]
            if options:
                m = options[_below(rng, len(options))]
                terms[m] = (-1, 1, 2)[_below(rng, 3)]
        return terms
    exps = [2 + _below(rng, 3), 2 + _below(rng, 3), 2 + _below(rng, 2)]
    if rng.random() < 0.3:
        exps[0] = 1  # regular ambient germ
    terms = {
        tuple(e if i == k else 0 for i in range(3)): (1, 1, 2)[_below(rng, 3)]
        for k, e in enumerate(exps)
    }
    if rng.random() < 0.4:
        a, b, c = exps
        options = [(i, j, k) for i in range(a) for j in range(b) for k in range(c)
                   if 2 <= i + j + k and i * b * c + j * a * c + k * a * b == a * b * c]
        if options:  # i < a, j < b, k < c: no diagonal monomial is hit
            m = options[_below(rng, len(options))]
            terms[m] = (-1, 1)[_below(rng, 2)]
    return terms


def quasihomogeneous_corpus(
    seed: int = DEFAULT_SEED, count: int = 25, max_mu: int = 40
) -> list[tuple[BoundarySingularity, tuple[Fraction, ...]]]:
    """``count`` isolated quasihomogeneous germs with detected weights."""
    rng = random.Random(seed)
    out = []
    seen = set()
    while len(out) < count:
        arity = 2 if rng.random() < 0.7 else 3
        f = _germ(_CONTEXTS[arity], _diagonal_candidates(rng, arity))
        if f in seen:
            continue
        try:
            w = detect_weights(f)
            bs = BoundarySingularity(f)
        except (NotQuasihomogeneousError, NonIsolatedError, InvalidGermError):
            continue
        if bs.mu_boundary > max_mu:  # finite: BoundarySingularity rejects the rest
            continue
        seen.add(f)
        out.append((bs, w))
    return out


class NormalFormFamily(NamedTuple):
    """One family of plane normal forms, boundary variable x first."""

    k_min: int | None  # None: a single form, F_4
    form: str  # the generic form, as printed in table headers
    monomials: Callable[[int | None], tuple[Monomial, ...]]  # the form at k

    def k_values(self, k_max: int | None) -> list[int | None]:
        return [None] if self.k_min is None else list(range(self.k_min, k_max + 1))


# Arnold's simple boundary singularities in two variables, boundary {x = 0}.
NORMAL_FORMS = {
    "A": NormalFormFamily(1, "x + y^(k+1)", lambda k: ((1, 0), (0, k + 1))),
    "B": NormalFormFamily(2, "x^k + y^2", lambda k: ((k, 0), (0, 2))),
    "C": NormalFormFamily(2, "x*y + y^k", lambda k: ((1, 1), (0, k))),
    "F4": NormalFormFamily(None, "x^2 + y^3", lambda k: ((2, 0), (0, 3))),
}


def family_normal_form(family: str, k: int | None) -> Polynomial:
    """The form of ``NORMAL_FORMS[family]`` at k (ignored for F4)."""
    if family not in NORMAL_FORMS:
        raise ValueError(f"unknown family {family!r}")
    fam = NORMAL_FORMS[family]
    if fam.k_min is not None and k < fam.k_min:
        raise ValueError(f"{family}_k needs k >= {fam.k_min}")
    return Polynomial(_CONTEXTS[2], dict.fromkeys(fam.monomials(k), 1))
