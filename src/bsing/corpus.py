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
    _boundary_elems,
)
from .polyring import Monomial, Polynomial, VarContext
from .quasihomog import NotQuasihomogeneousError, detect_weights
from .standard_basis import _axis_orders, _basis, _key, quotient_basis

DEFAULT_SEED = 20240

_CONTEXTS = {
    2: VarContext(("x", "y"), 0),
    3: VarContext(("x", "y", "z"), 0),
}


def random_germ(rng: random.Random, arity: int) -> Polynomial:
    """Random nonzero germ with f(0) = 0: a sum of 2 to 6 random terms with
    small integer coefficients and total degrees 1 to 6 (fixed, so seeded
    corpora stay put)."""
    return Polynomial(_CONTEXTS[arity], _random_terms(rng, arity))


def _random_terms(rng: random.Random, arity: int) -> dict[Monomial, int]:
    """The nonzero integer terms of :func:`random_germ`'s draw, redrawn
    while they cancel to zero."""
    while True:
        terms: dict[Monomial, int] = {}
        for _ in range(rng.randint(2, 6)):
            while True:
                m = tuple(rng.randint(0, 6) for _ in range(arity))
                if 0 < sum(m) <= 6:
                    break
            c = rng.choice([-3, -2, -1, 1, 1, 2, 3])
            terms[m] = terms.get(m, 0) + c
        if terms := {m: c for m, c in terms.items() if c}:
            return terms


def _boundary_supports(ctx: VarContext, terms: dict[Monomial, int]) -> list[list[Monomial]]:
    """The supports of :func:`bsing.boundary.jacobian_ideal_boundary` of
    the germ with nonzero ``terms`` over ``ctx``: x*f_x keeps the monomials
    with x, and f_{y_i} maps m to m - e_i, which is injective, so no
    coefficient cancels."""
    b = ctx.boundary_index
    return [[m for m in terms if m[b]]] + [
        [m[:i] + (m[i] - 1,) + m[i + 1:] for m in terms if m[i]]
        for i in range(ctx.arity) if i != b]


def boundary_corpus(
    seed: int = DEFAULT_SEED,
    count: int = 50,
    max_mu: int = 40,
) -> list[BoundarySingularity]:
    """``count`` germs in 2 or 3 variables with finite mu_{f,H} <= max_mu,
    drawn by :func:`random_germ` (total degree at most 6).

    Candidates are screened first (most random germs are degenerate, and
    building one exactly can take many runs): one standard basis of the
    boundary Jacobian ideal modulo m^9, on kernel elements read off the
    integer terms (:func:`bsing.boundary._boundary_elems`), must find its
    highest corner below 9, certifying m^8 inside the ideal, and its
    staircase size is then mu_{f,H}.  Before it, a candidate is refused
    with nothing built when some axis x_i has no pure power x_i^k with
    k < 9 among the generators (:func:`bsing.standard_basis._axis_orders`):
    with none at all the ideal lies in the axis's ideal, and m^D inside the
    ideal, restricted to the axis, puts a pure power of order at most D
    there.  The generators' supports follow from f's alone
    (:func:`_boundary_supports`).  A survivor hands those elements, checked
    against its own, and that basis to its germ, which keeps the basis as
    its boundary basis (its tail can differ from an unscreened build's);
    the basis's corner caps the germ's ambient and restriction runs.  Both
    those Milnor numbers are then finite, as J_{f,H} lies in J_f and maps
    onto J_{f|H} under x -> 0.  A few mu = 0 germs are admitted, so
    ``max_mu`` must be at least 1.
    """
    if max_mu < 1:
        raise ValueError("max_mu must be >= 1: the mu = 0 germs are rationed")
    rng = random.Random(seed)
    out: list[BoundarySingularity] = []
    trivial_quota = max(2, count // 10)  # a few mu = 0 germs, not a flood
    while len(out) < count:
        arity = 2 if rng.random() < 0.65 else 3
        ctx, terms = _CONTEXTS[arity], _random_terms(rng, arity)
        orders = _axis_orders(_boundary_supports(ctx, terms), arity)
        if orders is None or max(orders) >= _SCREEN_CAP:
            continue
        elems = _boundary_elems({_key(m): c for m, c in terms.items()}, arity, 0)
        screen = _basis(ctx, elems, [], False, _SCREEN_CAP)
        if screen.degree_cap >= _SCREEN_CAP:
            continue
        mu = quotient_basis(screen).dimension
        if mu > max_mu:
            continue
        if mu == 0:
            if trivial_quota <= 0:
                continue
            trivial_quota -= 1
        out.append(BoundarySingularity(Polynomial(ctx, terms), _screen=(elems, screen)))
    return out


def _diagonal_candidates(rng: random.Random, arity: int) -> Polynomial:
    """Diagonal quasihomogeneous germ, possibly with one compatible mixed
    monomial of weighted degree 1."""
    ctx = _CONTEXTS[arity]
    if arity == 2:
        kind = rng.randint(0, 3)
        if kind == 0:  # regular f, singular restriction
            b = rng.randint(2, 8)
            terms = {(1, 0): 1, (0, b): rng.choice([1, 2])}
            return Polynomial(ctx, terms)
        if kind == 1:  # x*y + y^k
            k = rng.randint(2, 8)
            return Polynomial(ctx, {(1, 1): 1, (0, k): rng.choice([1, 1, 3])})
        a, b = rng.randint(2, 6), rng.randint(2, 6)
        terms = {(a, 0): rng.choice([1, 1, 2]), (0, b): rng.choice([1, 1, 2])}
        if kind == 3:
            # mixed monomial i/a + j/b = 1 with i, j >= 1, when one exists
            options = [
                (i, j)
                for i in range(1, a)
                for j in range(1, b)
                if Fraction(i, a) + Fraction(j, b) == 1
            ]
            if options:
                i, j = rng.choice(options)
                terms[(i, j)] = terms.get((i, j), 0) + rng.choice([-1, 1, 2])
        return Polynomial(ctx, terms)
    exps = [rng.randint(2, 4), rng.randint(2, 4), rng.randint(2, 3)]
    if rng.random() < 0.3:
        exps[0] = 1  # regular ambient germ
    terms = {
        tuple(e if i == k else 0 for i in range(3)): rng.choice([1, 1, 2])
        for k, e in enumerate(exps)
    }
    if rng.random() < 0.4:
        a, b, c = exps
        options = [
            (i, j, k)
            for i in range(a)
            for j in range(b)
            for k in range(c)
            if 2 <= i + j + k
            and Fraction(i, a) + Fraction(j, b) + Fraction(k, c) == 1
        ]
        if options:
            m = rng.choice(options)
            terms[m] = terms.get(m, 0) + rng.choice([-1, 1])
    return Polynomial(ctx, terms)


def quasihomogeneous_corpus(
    seed: int = DEFAULT_SEED, count: int = 25, max_mu: int = 40
) -> list[tuple[BoundarySingularity, tuple[Fraction, ...]]]:
    """``count`` isolated quasihomogeneous germs with detected weights."""
    rng = random.Random(seed)
    out = []
    seen = set()
    while len(out) < count:
        arity = 2 if rng.random() < 0.7 else 3
        f = _diagonal_candidates(rng, arity)
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
