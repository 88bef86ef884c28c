"""The corpus draw helpers as they were written on ``random.Random``'s
``randint`` and ``choice``, kept verbatim as the reference for the
``getrandbits`` draws of :mod:`bsing.corpus`
(``tests/test_corpus.py::TestStdlibStream``): on one seed both must give
the same terms and leave the generator in the same state.
"""

from __future__ import annotations

import random
from fractions import Fraction

from bsing.corpus import _CONTEXTS
from bsing.polyring import Monomial, Polynomial


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
