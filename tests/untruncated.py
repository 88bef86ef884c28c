"""Untruncated reference standard bases shared by the test modules."""

from bsing.standard_basis import _complete, _context, _inputs


def untruncated_basis(gens):
    """Standard basis of ``gens`` without highest-corner truncation.

    A single run of the completion without a truncation degree goes to the
    end uncapped: the reference the capped path is checked against."""
    gens = tuple(gens)
    return _complete(_context(gens), *_inputs(gens), False, None)
