"""Seeded random corpora for property tests and reproducible fuzzing.

Two generators: arbitrary germs with finite boundary Milnor number (for
the additivity / oracle cross-checks) and quasihomogeneous germs built
from diagonal forms plus compatible mixed monomials (for the spectrum,
splitting and reduction laws).  Everything is driven by a seed so runs
are reproducible.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .boundary import BoundarySingularity, InvalidGermError, NonIsolatedError
from .polyring import Polynomial, VarContext
from .quasihomog import NotQuasihomogeneousError, detect_weights
from .standard_basis import INFINITE

DEFAULT_SEED = 20240

_CONTEXTS = {
    2: VarContext(("x", "y"), 0),
    3: VarContext(("x", "y", "z"), 0),
}


def random_germ(
    rng: random.Random, arity: int, max_degree: int = 6, max_terms: int = 6
) -> Polynomial:
    """Random nonzero germ with f(0) = 0, small integer coefficients."""
    ctx = _CONTEXTS[arity]
    terms = {}
    for _ in range(rng.randint(2, max_terms)):
        while True:
            m = tuple(rng.randint(0, max_degree) for _ in range(arity))
            if 0 < sum(m) <= max_degree:
                break
        c = rng.choice([-3, -2, -1, 1, 1, 2, 3])
        terms[m] = terms.get(m, 0) + c
    p = Polynomial(ctx, terms)
    if p.is_zero():
        return random_germ(rng, arity, max_degree, max_terms)
    return p


def boundary_corpus(
    seed: int = DEFAULT_SEED,
    count: int = 50,
    max_mu: int = 40,
    max_degree: int = 6,
) -> list[BoundarySingularity]:
    """``count`` germs in 2 or 3 variables with finite mu_{f,H} <= max_mu.

    Candidates are screened with the cheap jet oracle first (degenerate
    germs are the norm among random polynomials and make the standard
    basis needlessly expensive); survivors get the exact construction.
    """
    from .boundary import jacobian_ideal_boundary
    from .standard_basis import jet_dimension_oracle

    rng = random.Random(seed)
    out: list[BoundarySingularity] = []
    trivial_quota = max(2, count // 10)  # a few mu = 0 germs, not a flood
    while len(out) < count:
        arity = 2 if rng.random() < 0.65 else 3
        f = random_germ(rng, arity, max_degree=max_degree)
        screen = jet_dimension_oracle(jacobian_ideal_boundary(f), 9)
        if screen == INFINITE or screen > max_mu:
            continue
        if screen == 0:
            if trivial_quota <= 0:
                continue
            trivial_quota -= 1
        try:
            bs = BoundarySingularity(f)
        except (NonIsolatedError, InvalidGermError):
            continue
        if bs.mu_boundary == INFINITE or bs.mu_boundary > max_mu:
            continue
        if INFINITE in (bs.mu_ambient, bs.mu_restriction):
            continue
        out.append(bs)
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
        if bs.mu_boundary == INFINITE or bs.mu_boundary > max_mu:
            continue
        if INFINITE in (bs.mu_ambient, bs.mu_restriction):
            continue
        seen.add(f)
        out.append((bs, w))
    return out


def family_normal_form(family: str, k: int) -> Polynomial:
    """Plane normal forms: A_k = x + y^(k+1) (k>=1), B_k = x^k + y^2 and
    C_k = x*y + y^k (k>=2), F_4 = x^2 + y^3."""
    ctx = _CONTEXTS[2]
    if family == "A":
        if k < 1:
            raise ValueError("A_k needs k >= 1")
        return Polynomial(ctx, {(1, 0): 1, (0, k + 1): 1})
    if family == "B":
        if k < 2:
            raise ValueError("B_k needs k >= 2")
        return Polynomial(ctx, {(k, 0): 1, (0, 2): 1})
    if family == "C":
        if k < 2:
            raise ValueError("C_k needs k >= 2")
        return Polynomial(ctx, {(1, 1): 1, (0, k): 1})
    if family == "F4":
        return Polynomial(ctx, {(2, 0): 1, (0, 3): 1})
    raise ValueError(f"unknown family {family!r}")
