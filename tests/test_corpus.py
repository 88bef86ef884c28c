"""The corpus draws against the stdlib stream, and the pinned
quasihomogeneous corpus."""

import random
from collections import Counter
from fractions import Fraction

import pytest

import bsing.corpus as corpus_module
import stdlib_draws
from bsing.corpus import (
    _CONTEXTS,
    _diagonal_candidates,
    _random_terms,
    boundary_corpus,
    quasihomogeneous_corpus,
    random_germ,
)
from bsing.polyring import Polynomial

SEEDS = range(40)
DRAWS = 100


class TestStdlibStream:
    """:func:`bsing.corpus._below` reads ``getrandbits`` by the rule of
    ``Random._randbelow``, so the draw helpers give the terms of their
    ``randint``/``choice`` versions (``tests/stdlib_draws.py``) and leave
    the generator in the same state.  A Python whose ``_randbelow`` reads
    the stream otherwise fails here instead of moving the pinned corpora."""

    @pytest.mark.parametrize("arity", [2, 3])
    def test_random_terms(self, arity):
        for seed in SEEDS:
            new, ref = random.Random(seed), random.Random(seed)
            for _ in range(DRAWS):
                terms = _random_terms(new, arity)
                assert list(terms.items()) == list(stdlib_draws._random_terms(ref, arity).items())
                assert all(type(c) is int for c in terms.values())
            assert new.getstate() == ref.getstate(), seed
            f = random_germ(new, arity)
            assert f == Polynomial(_CONTEXTS[arity], stdlib_draws._random_terms(ref, arity))
            assert new.getstate() == ref.getstate(), seed

    @pytest.mark.parametrize("arity", [2, 3])
    def test_diagonal_candidates(self, arity):
        kinds = Counter()
        for seed in SEEDS:
            new, ref = random.Random(seed), random.Random(seed)
            for _ in range(DRAWS):
                terms = _diagonal_candidates(new, arity)
                expected = stdlib_draws._diagonal_candidates(ref, arity).terms
                assert list(terms.items()) == list(expected.items())
                assert all(type(c) is int and c for c in terms.values())
                kinds[_kind(terms)] += 1
            assert new.getstate() == ref.getstate(), seed
        # every branch is drawn, the mixed monomials among them (x*y + y^k
        # is plane only); a lone option (x*y over x^2, y^2) draws below 1
        assert min(kinds.values()) >= 100 and len(kinds) == 6 - arity, kinds

    @pytest.mark.parametrize("seed", [1, 13, 77, 20240])
    def test_corpora(self, seed, monkeypatch):
        got_b = [str(bs.f) for bs in boundary_corpus(seed=seed, count=8)]
        got_q = [(str(bs.f), w) for bs, w in quasihomogeneous_corpus(seed=seed, count=25)]
        monkeypatch.setattr(corpus_module, "_random_terms", stdlib_draws._random_terms)
        monkeypatch.setattr(corpus_module, "_diagonal_candidates",
                            lambda rng, arity: stdlib_draws._diagonal_candidates(rng, arity).terms)
        assert got_b == [str(bs.f) for bs in boundary_corpus(seed=seed, count=8)]
        assert got_q == [(str(bs.f), w) for bs, w in quasihomogeneous_corpus(seed=seed, count=25)]


def _kind(terms) -> str:
    """The branch of :func:`_diagonal_candidates` that drew ``terms``."""
    arity = len(next(iter(terms)))
    if len(terms) > arity:
        return "mixed"
    if (1,) + (0,) * (arity - 1) in terms:
        return "regular"
    return "x*y + y^k" if (1, 1) in terms else "diagonal"


# str(f) and the weights of quasihomogeneous_corpus(seed=20240, count=25)
PINNED_QH_20240 = [
    ("2*y^2 - x^2*y + x^4", ("1/4", "1/2")),
    ("x*y + 3*y^5", ("4/5", "1/5")),
    ("2*x + 2*z^3 + y^4", ("1", "1/4", "1/3")),
    ("x^3 + y^6", ("1/3", "1/6")),
    ("x^3 + z^3 + y^4", ("1/3", "1/4", "1/3")),
    ("x + z^2 - y^2*z + 2*y^4", ("1", "1/4", "1/2")),
    ("y^3 + 2*z^3 + 2*x^4", ("1/4", "1/3", "1/3")),
    ("x^4 + 2*y^5", ("1/4", "1/5")),
    ("y^2 + 2*x^3", ("1/3", "1/2")),
    ("x*y + y^8", ("7/8", "1/8")),
    ("x^2 + x*y^2 + z^3 + 2*y^4", ("1/2", "1/4", "1/3")),
    ("2*y^3 - y^2*z + z^3 + x^4", ("1/4", "1/3", "1/3")),
    ("y^2 + x^5", ("1/5", "1/2")),
    ("z^3 + 2*x^4 + x^3*y + 2*y^4", ("1/4", "1/4", "1/3")),
    ("x + y^3", ("1", "1/3")),
    ("2*x^3 + y^4", ("1/3", "1/4")),
    ("x + y^7", ("1", "1/7")),
    ("x^2 + y^3 + z^3", ("1/2", "1/3", "1/3")),
    ("2*x^5 - x*y^4 + y^5", ("1/5", "1/5")),
    ("z^2 + 2*x^3 + 2*y^3", ("1/3", "1/3", "1/2")),
    ("x + y^8", ("1", "1/8")),
    ("x + y^2", ("1", "1/2")),
    ("y^2 + x^3", ("1/3", "1/2")),
    ("y^2 + 2*z^2 + x^3", ("1/3", "1/2", "1/2")),
    ("x + y^4", ("1", "1/4")),
]

# str(f) and the weights of quasihomogeneous_corpus(seed=61, count=8)
PINNED_QH_61 = [
    ("x*y + y^8", ("7/8", "1/8")),
    ("x + 2*y^5", ("1", "1/5")),
    ("y^4 + x^5", ("1/5", "1/4")),
    ("x + y^7", ("1", "1/7")),
    ("2*x^3 + x^2*y + y^3", ("1/3", "1/3")),
    ("2*x^3 + 2*y^3 + z^3", ("1/3", "1/3", "1/3")),
    ("y^3 + x^5", ("1/5", "1/3")),
    ("y^2 + 2*x^5", ("1/5", "1/2")),
]

class TestPinnedQuasihomogeneousCorpus:
    """The germs and weights of two seeded quasihomogeneous corpora, pinned
    as the stdlib-call draws gave them."""

    @pytest.mark.parametrize("seed, pinned", [(20240, PINNED_QH_20240), (61, PINNED_QH_61)])
    def test_pinned(self, seed, pinned):
        got = quasihomogeneous_corpus(seed=seed, count=len(pinned))
        assert [(str(bs.f), w) for bs, w in got] == [
            (f, tuple(map(Fraction, w))) for f, w in pinned]
