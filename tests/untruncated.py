"""Untruncated reference standard bases shared by the test modules."""

from bsing.standard_basis import LocalOrder, standard_basis


def untruncated_basis(gens):
    """Standard basis of ``gens`` without highest-corner truncation.

    ``LocalOrder`` with unit weights has the same sort key as the unweighted
    order, but ``standard_basis`` truncates only under the unweighted one,
    so this run goes to the end uncapped: the reference the capped path is
    checked against."""
    return standard_basis(gens, LocalOrder((1,) * gens[0].context.arity))
