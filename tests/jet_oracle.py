"""Brute-force ideal membership by linear algebra on jets, shared by the
test modules as the oracle of :meth:`bsing.standard_basis.StandardBasis.contains`.

It needs no standard basis: once the jet dimension of the ideal has
stabilized at N (then m^N lies in the localized ideal), membership is a
rank comparison in the space of monomials of degree < N.  The jets come
from the package's :func:`bsing.standard_basis._stable_jet`, which stays
there with :func:`bsing.standard_basis.jet_dimension_oracle` because the
benchmark tracer (``perfbench/tracing.py``) hooks that function by name.
"""

from typing import Sequence

from bsing.polyring import Polynomial
from bsing.standard_basis import _cleared, _context, _echelon, _stable_jet


def jet_membership_oracle(
    p: Polynomial, gens: Sequence[Polynomial], max_jet: int = 16
) -> bool:
    """Brute-force membership of ``p`` in the localized ideal (gens): a
    ValueError for mixed contexts, or if the jets have not stabilized by
    ``max_jet``."""
    gens = list(gens)
    _context([p, *gens])
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return p.is_zero()
    stable = _stable_jet(gens, max_jet)
    if stable is None:
        raise ValueError("jet oracle did not stabilize; raise max_jet")
    N, monos, pivots = stable
    index = {m: i for i, m in enumerate(monos)}
    p_row = _cleared({index[m]: c for m, c in p._terms.items() if sum(m) < N})[0]
    return len(_echelon([p_row], dict(pivots))) == len(pivots)
