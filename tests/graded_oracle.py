"""The graded engine's reductions over Fractions, shared by the test modules.

The engine of :mod:`bsing.quasihomog` computes in integers; this is the
rational elimination it replaced: normalized pivot rows, a remainder and
cofactors reduced with ``Fraction`` arithmetic, and the Brieskorn queue on
``Fraction`` terms.  It uses only the engine's grading (W, scale, generator
degrees) and its certified staircase slots, and builds its own echelons.
:func:`versality` is the Fraction path of the versality check.
"""

from fractions import Fraction

from bsing.isochore import VersalityReport
from bsing.polyring import Monomial, Polynomial, monomial_divides, monomial_key, monomial_mul
from bsing.quasihomog import BrieskornClass, _monomials
from bsing.standard_basis import _cleared, _echelon


def row_echelon(rows: list[dict[int, Fraction]]) -> dict[int, dict[int, Fraction]]:
    """Row echelon over Q of sparse rows: each row is reduced by the pivot
    rows (normalized to leading entry 1) at its leading column and, unless
    it vanishes, becomes the pivot of its smallest column."""
    pivots: dict[int, dict[int, Fraction]] = {}
    for row in rows:
        row = dict(row)
        while row:
            lead = min(row)
            if lead not in pivots:
                inv = 1 / row[lead]
                pivots[lead] = {c: v * inv for c, v in row.items()}
                break
            factor = row[lead]
            for col, val in pivots[lead].items():
                nv = row.get(col, 0) - factor * val
                if nv:
                    row[col] = nv
                else:
                    del row[col]
    return pivots


class GradedOracle:
    """Fraction reductions against the staircase of a certified engine."""

    def __init__(self, engine):
        engine.spectrum()
        self.engine = engine
        self._echelons = {}

    def echelon(self, D: int, order: tuple[int, ...]):
        """(columns, index, pivots, tags) of degree D: the rows q*g_j with a
        unit tag column each, as the engine builds them but over Q."""
        if (D, order) in self._echelons:
            return self._echelons[D, order]
        st = self.engine
        columns = _monomials(st.W, D)
        index = {m: i for i, m in enumerate(columns)}
        n = len(columns)
        rows, tags, leads = [], [], []
        for j in order:
            g = st.gens[j]
            if g.is_zero():
                continue
            for q in _monomials(st.W, D - st.degree(next(iter(g.terms)))):
                if not any(monomial_divides(lm, q) for lm in leads):
                    row = {index[monomial_mul(q, m)]: c for m, c in g.terms.items()}
                    row[n + len(tags)] = Fraction(1)
                    rows.append(row)
                    tags.append((j, q))
            leads.append(min(g.terms, key=lambda m: m[::-1]))
        ech = self._echelons[D, order] = columns, index, row_echelon(rows), tags
        return ech

    def staircase(self, D: int, order: tuple[int, ...]) -> list[Monomial]:
        columns, _, pivots, _ = self.echelon(D, order)
        return [m for i, m in enumerate(columns) if i not in pivots]

    def decompose(self, terms: dict[Monomial, Fraction], D: int, order: tuple[int, ...]):
        """(rem, cof) with terms == rem + sum_j cof[j]*g_j, rem on the
        staircase in column order; the sum is recomposed and checked."""
        columns, index, pivots, tags = self.echelon(D, order)
        n = len(columns)
        row = {index[m]: c for m, c in terms.items()}
        for p in sorted(c for c in pivots if c < n):
            v = row.get(p)
            if v is not None:
                for col, pv in pivots[p].items():
                    nv = row.get(col, 0) - v * pv
                    if nv:
                        row[col] = nv
                    else:
                        del row[col]
        rem = {columns[k]: row[k] for k in sorted(k for k in row if k < n)}
        assert all(m in self.engine.slot for m in rem)
        cof = [{} for _ in self.engine.gens]
        for k, v in row.items():
            if k >= n:
                j, q = tags[k - n]
                cof[j][q] = -v
        back = dict(rem)
        for c, g in zip(cof, self.engine.gens):
            for q, a in c.items():
                for m, b in g.terms.items():
                    qm = monomial_mul(q, m)
                    back[qm] = back.get(qm, 0) + a * b
        assert {m: v for m, v in back.items() if v} == terms
        return rem, cof

    def coordinates(self, g) -> dict[Monomial, Fraction]:
        st, order = self.engine, self.engine.order()
        out = {}
        for D, part in st.parts(g.terms):
            if D > st.top:
                break
            out.update(self.decompose(part, D, order)[0])
        return out

    def brieskorn_reduce(self, g, generator_order=None) -> BrieskornClass:
        """The rewrite r*omega == (1/s) f (div V)*omega per part of degree
        D, s = (D + |W| - scale)/scale, on Fraction terms."""
        st = self.engine
        order = st.order(generator_order)
        b = st.ctx.boundary_index
        ys = [i for i in range(st.ctx.arity) if i != b]
        offset = sum(st.W) - st.scale
        coords: dict[int, dict[int, Fraction]] = {}
        queue = [(0, g.terms)]
        while queue:
            tpow, h = queue.pop()
            for D, part in st.parts(h):
                rem, cof = self.decompose(part, D, order)
                for m, c in rem.items():
                    slot = coords.setdefault(st.slot[m], {})
                    slot[tpow] = slot.get(tpow, Fraction(0)) + c
                if rem == part:
                    continue
                inv_s = Fraction(st.scale, D + offset)
                div = {q: (q[b] + 1) * c * inv_s for q, c in cof[0].items()}
                for i, a in zip(ys, cof[1:]):
                    for q, c in a.items():
                        if q[i]:
                            m = q[:i] + (q[i] - 1,) + q[i + 1 :]
                            div[m] = div.get(m, 0) + q[i] * c * inv_s
                div = {m: c for m, c in div.items() if c}
                if div:
                    queue.append((tpow + 1, div))
        return BrieskornClass(coords)


def versality(d, engine) -> VersalityReport:
    """Versality of the deformation ``d`` over the Fraction path: the
    velocities as dF/dl_i with one parameter set to zero at a time, their
    staircase coordinates over Q, the rows cleared to integers one by one
    and row-reduced by the package's echelon."""
    oracle, F = GradedOracle(engine), d.F
    candidates = [Polynomial.constant(d.base.ctx, 1)]
    for p in d.parameters:
        v = F.partial_derivative(F.context.index(p))
        for q in d.parameters:
            v = v.substitute_zero(v.context.index(q))
        candidates.append(Polynomial(d.base.ctx, v.terms))
    columns = sorted((e.monomial for e in engine.spectrum().entries), key=monomial_key)
    col_index = {m: i for i, m in enumerate(columns)}
    rows = [_cleared({col_index[m]: c for m, c in oracle.coordinates(g).items()})[0]
            for g in candidates]
    pivots = _echelon([row for row in rows if row])
    return VersalityReport(
        versal=len(pivots) == len(columns),
        spanned_dimension=len(pivots),
        missing_directions=tuple(m for m in columns if col_index[m] not in pivots),
    )
