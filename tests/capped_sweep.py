"""Germs with a finite boundary Milnor number, shared by the test modules
that check the boundary corner's cap on the ambient and restriction bases."""

import itertools
import random
from fractions import Fraction

from bsing.boundary import jacobian_ideal_boundary
from bsing.corpus import random_germ
from bsing.polyring import Polynomial, VarContext
from bsing.standard_basis import _axis_orders, standard_basis


def capped_sweep() -> list[Polynomial]:
    """Seeded 2- and 3-variable random germs whose boundary ideal has a
    corner below 9 (the corpus screen), then perturbed Brieskorn-Pham germs
    of shapes (8, 11), (6, 11) and (3, 3, 4): pure powers plus two terms of
    weighted degree in (1, 3/2], all with random coefficients."""
    rng = random.Random(31)
    germs = []
    for i in range(240):
        f = random_germ(rng, 2 + i % 2)
        gens = jacobian_ideal_boundary(f)
        orders = _axis_orders([g.terms for g in gens], f.context.arity)
        if orders is not None and max(orders) < 9:
            if standard_basis(gens, degree_cap=9).degree_cap < 9:
                germs.append(f)
    coefficient = (-3, -2, -1, 1, 2, 3)
    for exps in ((8, 11), (6, 11), (3, 3, 4)):
        ctx = VarContext(("x", "y", "z")[:len(exps)], 0)
        upper = [m for m in itertools.product(*(range(e + 1) for e in exps))
                 if 1 < sum(Fraction(a, e) for a, e in zip(m, exps)) <= Fraction(3, 2)]
        for _ in range(3):
            terms = {tuple(e if j == i else 0 for j in range(len(exps))): rng.choice(coefficient)
                     for i, e in enumerate(exps)}
            for m in rng.sample(upper, 2):
                terms[m] = terms.get(m, 0) + rng.choice(coefficient)
            germs.append(Polynomial(ctx, terms))
    return germs
