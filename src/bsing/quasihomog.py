"""Quasihomogeneous boundary singularities: weights, spectrum, residue and
monodromy eigenvalues, and exact normal-form coordinates of volume forms.

A germ f is quasihomogeneous when positive rational weights w give every
monomial of f weighted degree 1; equivalently the Euler identity
sum_i w_i x_i df/dx_i = f holds, which places f inside its own boundary
Jacobian ideal J = (x df/dx, df/dy_1, ..., df/dy_n).

Over a monomial basis {e_m} of the quotient Q = O/J, the top-degree form
classes omega_m = e_m dx^dy^n form a basis of the module of volume forms
modulo df^d(forms vanishing on the boundary).  The logarithmic derivative
t d/dt acts diagonally on them with eigenvalue alpha(m) - 1, where

    alpha(m) = sum_i w_i (m_i + 1),

so the spectrum {alpha(m)}, the residue diagonal {alpha(m) - 1} and the
monodromy eigenvalues {exp(-2 pi i alpha(m))} are all exact rationals (or
roots of unity) and are computed here without any floating point.

The reduction of an arbitrary class g dx^dy^n onto the basis uses, per
weighted-homogeneous part of degree d, the exact rewrite

    r * omega == (1/s) f (div V) * omega   with  s = d + |w| - 1,

valid whenever r = V(f) for a weighted-homogeneous vector field
V = a_0 x d/dx + sum a_i d/dy_i tangent to the boundary.  The rewrite is
the Cartan identity df ^ d(i_E i_V omega) = s*r*omega - f(div V)*omega for
the Euler field E (the contracted (n-1)-form vanishes on the boundary, so
its image is zero in the quotient); it is exercised against the
eigenvalue relation and confluence checks in the test suite.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .boundary import BoundarySingularity, NonIsolatedError, jacobian_ideal
from .polyring import (
    Monomial,
    Polynomial,
    Rat,
    _signed_sum,
    check_weights,
    monomial_divides,
    monomial_key,
    monomial_mul,
)
from .standard_basis import INFINITE, _row_echelon


class NotQuasihomogeneousError(ValueError):
    """The operation requires a quasihomogeneous germ."""


class DegenerateDegreeError(ArithmeticError):
    """The rewrite step hit s = d + |w| - 1 = 0 (not reachable for germs
    with positive weights, but checked loudly)."""


class CertificateError(ArithmeticError):
    """An exactness certificate failed: a cross-check between independent
    computations disagrees, which means a bug, not bad input."""


# -- weights -------------------------------------------------------------------


def detect_weights(f: Polynomial) -> tuple[Fraction, ...]:
    """Positive rational weights giving every monomial of f degree 1.

    Solves the linear system {sum_i w_i m_i = 1 for m in support(f)}.
    Raises :class:`NotQuasihomogeneousError` when the system is
    inconsistent, underdetermined, or has a non-positive solution.
    """
    if f.is_zero():
        raise NotQuasihomogeneousError("zero germ has no weights")
    if f.constant_term() != 0:
        raise NotQuasihomogeneousError("germ must vanish at the origin")
    arity = f.context.arity
    # augmented rows (m | 1); column ``arity`` holds the right-hand side
    rows = [{i: Fraction(e) for i, e in enumerate(m) if e} | {arity: Fraction(1)}
            for m in f.support()]
    pivots = _row_echelon(rows)
    if arity in pivots:
        raise NotQuasihomogeneousError(
            "not quasihomogeneous in these coordinates (no weight solution)"
        )
    if len(pivots) < arity:
        raise NotQuasihomogeneousError(
            "weights are underdetermined by the support of f"
        )
    w = [Fraction(0)] * arity
    for col in reversed(range(arity)):  # pivot rows have no entry left of their pivot
        rest = sum(v * w[c] for c, v in pivots[col].items() if col < c < arity)
        w[col] = pivots[col].get(arity, 0) - rest
    if any(x <= 0 for x in w):
        raise NotQuasihomogeneousError(
            f"weight solution {tuple(map(str, w))} is not positive"
        )
    return tuple(w)


def euler_check(f: Polynomial, weights: Sequence[Rat]) -> bool:
    """Exact verification of the Euler identity
    sum_i w_i x_i df/dx_i == f."""
    w = check_weights(weights, f.context.arity)
    acc = Polynomial.zero(f.context)
    for i in range(f.context.arity):
        acc = acc + (Polynomial.variable(f.context, i) * f.partial_derivative(i)).scale(w[i])
    return acc == f


# -- spectrum and monodromy ------------------------------------------------------


@dataclass(frozen=True)
class SpectrumEntry:
    monomial: Monomial
    alpha: Fraction


@dataclass(frozen=True)
class Spectrum:
    """Exact spectrum {alpha(m)} over a monomial basis of the local algebra,
    sorted by alpha and then by monomial."""

    entries: tuple[SpectrumEntry, ...]
    weights: tuple[Fraction, ...]
    names: tuple[str, ...]

    def __post_init__(self):
        keys = [(e.alpha, monomial_key(e.monomial)) for e in self.entries]
        if keys != sorted(keys):
            raise ValueError("spectrum entries must be sorted")
        if any(e.alpha <= 0 for e in self.entries):
            raise ValueError("spectrum values are positive for positive weights")

    def __len__(self) -> int:
        return len(self.entries)

    def alphas(self) -> list[Fraction]:
        return [e.alpha for e in self.entries]

    def residue_diagonal(self) -> list[Fraction]:
        return [e.alpha - 1 for e in self.entries]

    def rotations(self) -> list[Fraction]:
        return [e.alpha % 1 for e in self.entries]


@dataclass(frozen=True)
class RootOfUnity:
    """exp(-2 pi i * rotation) for an exact rotation in [0, 1)."""

    rotation: Fraction

    def __post_init__(self):
        if not 0 <= self.rotation < 1:
            raise ValueError("rotation must lie in [0, 1)")

    def __str__(self) -> str:
        if self.rotation == 0:
            return "1"
        if self.rotation == Fraction(1, 2):
            return "-1"
        return f"e^(-2pi*i*{self.rotation})"


@dataclass(frozen=True)
class ResidueMatrix:
    """Diagonal of the (semisimple) residue operator, indexed like the
    spectrum: entries alpha(m) - 1."""

    diagonal: tuple[Fraction, ...]

    @classmethod
    def from_spectrum(cls, spec: Spectrum) -> "ResidueMatrix":
        return cls(tuple(spec.residue_diagonal()))


def spectrum(bs: BoundarySingularity, weights: Sequence[Rat]) -> Spectrum:
    """Spectrum of the boundary singularity over the staircase basis of
    its boundary Jacobian quotient.

    The staircase comes from the germ's cached graded engine, which
    certifies it by the Poincare series and mu_{f,H} when it is first
    built."""
    return _engine(bs, weights).spectrum()


def ordinary_spectrum(g: Polynomial, weights: Sequence[Rat]) -> Spectrum:
    """Spectrum of an ordinary (no-boundary) isolated quasihomogeneous
    germ, over the staircase of its full Jacobian ideal.  The Poincare
    series certificate proves the quotient finite; a germ whose quotient
    is not raises :class:`NonIsolatedError`."""
    if g.context.arity < 1:
        raise ValueError("ordinary spectrum needs at least one variable")
    w = check_weights(weights, g.context.arity)
    if not euler_check(g, w):
        raise NotQuasihomogeneousError(
            "requires quasihomogeneous germ (Euler identity fails)"
        )
    return _GradedIdeal(jacobian_ideal(g), w).spectrum()


def spectrum_splitting_check(
    bs: BoundarySingularity, weights: Sequence[Rat]
) -> bool:
    """Multiset identity spectrum(f,H) = spectrum(f) + (spectrum(f|H) + 1).

    The +1 shift is where the restriction's classes land after wedging
    with df: a class of weighted degree e on the boundary maps to one of
    degree e + (1 - w_x), whose boundary alpha is e + |w'| + 1 with w' the
    boundary weights.  The two ordinary spectra are built once and kept on
    the germ's graded engine.
    """
    w = check_weights(weights, bs.ctx.arity)
    rel = Counter(spectrum(bs, w).alphas())
    st = _engine(bs, w)
    if st.ordinary is None:
        b = bs.ctx.boundary_index
        w_rest = w[:b] + w[b + 1 :]
        if bs.restriction.is_zero() or not w_rest:
            raise NotQuasihomogeneousError(
                "splitting needs a boundary restriction in >= 1 variable"
            )
        st.ordinary = (ordinary_spectrum(bs.f, w), ordinary_spectrum(bs.restriction, w_rest))
    ambient, restricted = st.ordinary
    amb = Counter(ambient.alphas())
    res = Counter(a + 1 for a in restricted.alphas())
    return rel == amb + res


def monodromy_eigenvalues(spec: Spectrum) -> list[RootOfUnity]:
    """Monodromy eigenvalues exp(-2 pi i alpha(m)) as exact rotations."""
    return [RootOfUnity(r) for r in sorted(spec.rotations())]


def residue_matrix(spec: Spectrum) -> ResidueMatrix:
    return ResidueMatrix.from_spectrum(spec)


# -- Brieskorn-module normal forms ----------------------------------------------


class BrieskornClass:
    """A volume-form class written over the basis {omega_m}: coordinate i
    carries an exact polynomial in t (power -1 flags a first-order pole,
    produced only by the connection operator)."""

    __slots__ = ("coords",)

    def __init__(self, coords: dict[int, dict[int, Fraction]]):
        clean: dict[int, dict[int, Fraction]] = {}
        for i, powers in coords.items():
            entry = {}
            for j, c in powers.items():
                if j < -1:
                    raise ValueError("poles of order > 1 are not representable")
                c = Fraction(c)
                if c != 0:
                    entry[j] = c
            if entry:
                clean[i] = entry
        self.coords = clean

    @classmethod
    def zero(cls) -> "BrieskornClass":
        return cls({})

    @classmethod
    def basis(cls, i: int) -> "BrieskornClass":
        return cls({i: {0: Fraction(1)}})

    @property
    def has_pole(self) -> bool:
        return any(-1 in powers for powers in self.coords.values())

    def is_zero(self) -> bool:
        return not self.coords

    def __add__(self, other: "BrieskornClass") -> "BrieskornClass":
        out = {i: dict(p) for i, p in self.coords.items()}
        for i, powers in other.coords.items():
            tgt = out.setdefault(i, {})
            for j, c in powers.items():
                tgt[j] = tgt.get(j, Fraction(0)) + c
        return BrieskornClass(out)

    def scale(self, c: Rat) -> "BrieskornClass":
        c = Fraction(c)
        return BrieskornClass(
            {i: {j: c * v for j, v in p.items()} for i, p in self.coords.items()}
        )

    def mul_t(self) -> "BrieskornClass":
        """Multiply by t (module structure: t acts as multiplication by f)."""
        return BrieskornClass(
            {i: {j + 1: v for j, v in p.items()} for i, p in self.coords.items()}
        )

    def coordinate(self, i: int) -> dict[int, Fraction]:
        return dict(self.coords.get(i, {}))

    def __eq__(self, other) -> bool:
        return isinstance(other, BrieskornClass) and self.coords == other.coords

    def __repr__(self) -> str:
        return f"BrieskornClass({self.coords})"


def format_t_polynomial(powers: dict[int, Fraction]) -> str:
    """Render {power: coeff} as an exact polynomial in t (t^-1 allowed)."""
    names = {0: "1", 1: "t"}
    return _signed_sum((names.get(j, f"t^{j}"), powers[j]) for j in sorted(powers))


@functools.lru_cache(maxsize=4096)
def _monomials(W: tuple[int, ...], D: int) -> tuple[Monomial, ...]:
    """The monomials of W-degree D, leading first: by reversed exponents."""
    if D < 0:
        return ()
    heads: list[tuple[Monomial, int]] = [((), D)]  # (exponents so far, degree left)
    for Wi in W[:-1]:
        heads = [(m + (e,), r - e * Wi) for m, r in heads for e in range(r // Wi + 1)]
    out = [m + (r // W[-1],) for m, r in heads if r % W[-1] == 0]
    return tuple(sorted(out, key=lambda m: m[::-1]))


# The echelon of J in one degree D: (columns, index, pivot columns, pivots,
# tags).  The columns are the monomials of degree D, leading first, and
# index maps them back; row t is tags[t] = (j, q), the multiple q*gens[j],
# with a unit entry in column len(columns) + t.  The pivot columns are the
# monomial ones, ascending.
_Echelon = tuple[tuple[Monomial, ...], dict[Monomial, int], list[int],
                 dict[int, dict[int, Fraction]], list[tuple[int, Monomial]]]


class _GradedIdeal:
    """The ideal J of weighted-homogeneous ``gens`` at weights w, degree by
    degree (Macaulay matrices); the graded engine of a germ is the one of
    J_{f,H}, cached on it by :func:`_engine`.

    With w scaled to integers W, degree D of J is spanned by the rows q*g_j,
    deg q = D - deg g_j.  Their echelon, columns by reversed exponents and
    rows in a generator order, has the staircase in degree D as its
    non-pivot columns; each row carries a unit tag column, so reducing by
    the pivots gives remainder and cofactors at once.  A row q*g_j is
    skipped when the leading monomial of an earlier generator divides q
    (a Koszul syzygy spans it).  Echelons are cached per (degree, order).

    The staircase is certified by the Poincare series: n generators in n
    variables have a finite quotient iff they are a regular sequence, with
    dimension in degree D the coefficient of t^D in
    prod_j (1 - t^(deg g_j)) / prod_i (1 - t^W_i), a polynomial of degree
    ``top``.  The counts up to top must match, and the next max(W) degrees
    be empty, which puts every monomial above top in J; with ``mu`` given
    the total must be mu.  A failure raises :class:`CertificateError`, or
    :class:`NonIsolatedError` without ``mu``, and caches nothing.
    ``ordinary`` keeps the splitting law's ordinary spectra of the germ.
    """

    def __init__(self, gens: Sequence[Polynomial], w: tuple[Fraction, ...],
                 mu: int | float | None = None):
        self.gens, self.w, self.mu = tuple(gens), w, mu
        self.ctx = self.gens[0].context
        self.scale = math.lcm(*(x.denominator for x in w))
        self.W = tuple(int(x * self.scale) for x in w)
        # gens are homogeneous: a stray term of another degree has no column
        self.degrees = [None if g.is_zero() else self.degree(next(iter(g.terms)))
                        for g in self.gens]
        self.top: int | None = None
        self.slot: dict[Monomial, int] = {}
        self.ordinary: tuple[Spectrum, Spectrum] | None = None
        self._spectrum: Spectrum | None = None
        self._echelons: dict[tuple[int, tuple[int, ...]], _Echelon] = {}

    def degree(self, m: Monomial) -> int:
        return sum(a * b for a, b in zip(self.W, m))

    def order(self, generator_order: Sequence[int] | None = None) -> tuple[int, ...]:
        n = len(self.gens)
        key = tuple(range(n) if generator_order is None else generator_order)
        if sorted(key) != list(range(n)):
            raise ValueError("generator_order must be a permutation")
        return key

    def _build(self, D: int, order: tuple[int, ...]) -> _Echelon:
        columns = _monomials(self.W, D)
        index = {m: i for i, m in enumerate(columns)}
        n = len(columns)
        rows, tags, leads = [], [], []
        for j in order:
            if self.degrees[j] is None:
                continue
            terms = self.gens[j].terms
            for q in _monomials(self.W, D - self.degrees[j]):
                if not any(monomial_divides(lm, q) for lm in leads):
                    row = {index[monomial_mul(q, m)]: c for m, c in terms.items()}
                    row[n + len(tags)] = Fraction(1)
                    rows.append(row)
                    tags.append((j, q))
            leads.append(min(terms, key=lambda m: m[::-1]))
        pivots = _row_echelon(rows)
        return columns, index, sorted(c for c in pivots if c < n), pivots, tags

    def echelon(self, D: int, order: tuple[int, ...]) -> _Echelon:
        if (D, order) not in self._echelons:
            self._echelons[D, order] = self._build(D, order)
        return self._echelons[D, order]

    def spectrum(self) -> Spectrum:
        """The spectrum over the staircase, certified on first use."""
        if self._spectrum is not None:
            return self._spectrum
        if self.mu == INFINITE:
            raise NonIsolatedError("boundary Milnor number is infinite")
        fail = NonIsolatedError if self.mu is None else CertificateError
        live = [d for d in self.degrees if d is not None]
        top = sum(live) - sum(self.W)
        end = max(top + 1, 0) + max(self.W)
        series = [1] + [0] * (end - 1)  # coefficients of t^0 .. t^(end-1)
        for d in live:
            for k in range(end - 1, d - 1, -1):
                series[k] -= series[k - d]
        for Wi in self.W:
            for k in range(Wi, end):
                series[k] += series[k - Wi]
        order = self.order()
        built = {D: self._build(D, order) for D in range(end)}
        stairs: list[Monomial] = []
        for D, (columns, _, _, pivots, _) in built.items():
            free = [m for i, m in enumerate(columns) if i not in pivots]
            want = series[D] if D <= top else 0
            if len(free) != want:
                raise fail(f"graded quotient has {len(free)} monomials in degree {D}, "
                           f"the Poincare series {want}")
            stairs.extend(free)
        if self.mu is not None and len(stairs) != self.mu:
            raise CertificateError(f"graded staircase has {len(stairs)} monomials, "
                                   f"unweighted boundary quotient has {self.mu}")
        self._echelons.update(((D, order), ech) for D, ech in built.items())
        entries = sorted(
            (SpectrumEntry(m, sum((wi * (e + 1) for wi, e in zip(self.w, m)), Fraction(0)))
             for m in stairs),
            key=lambda e: (e.alpha, monomial_key(e.monomial)),
        )
        self._spectrum = Spectrum(tuple(entries), self.w, self.ctx.names)
        self.slot = {e.monomial: i for i, e in enumerate(entries)}
        self.top = top
        return self._spectrum

    def parts(
        self, terms: dict[Monomial, Fraction]
    ) -> list[tuple[int, dict[Monomial, Fraction]]]:
        """``terms`` split into weighted-homogeneous parts (D, part), by
        increasing W-degree D: the order of the weighted degrees D/scale."""
        buckets: dict[int, dict[Monomial, Fraction]] = {}
        for m, c in terms.items():
            buckets.setdefault(self.degree(m), {})[m] = c
        return sorted(buckets.items())

    def decompose(
        self, terms: dict[Monomial, Fraction], D: int, order: tuple[int, ...]
    ) -> tuple[dict[Monomial, Fraction], list[dict[Monomial, Fraction]]]:
        """terms == rem + sum_j cof[j]*gens[j] for the nonzero terms of one
        W-degree D, rem on the staircase in column order and cof[j] of
        W-degree D - deg g_j; the sum is recomposed and checked exactly.
        Needs the certified staircase: call :meth:`spectrum` first."""
        columns, index, pivot_columns, pivots, tags = self.echelon(D, order)
        n = len(columns)
        row = {index[m]: c for m, c in terms.items()}
        for p in pivot_columns:
            v = row.get(p)
            if v is not None:
                for col, pv in pivots[p].items():
                    nv = row.get(col, 0) - v * pv
                    if nv:
                        row[col] = nv
                    else:
                        del row[col]
        rem = {columns[k]: row[k] for k in sorted(k for k in row if k < n)}
        if any(m not in self.slot for m in rem):
            raise CertificateError("non-staircase monomial escaped division")
        cof: list[dict[Monomial, Fraction]] = [{} for _ in self.gens]
        for k, v in row.items():
            if k >= n:
                j, q = tags[k - n]
                cof[j][q] = -v
        back = dict(rem)
        for c, g in zip(cof, self.gens):
            for q, a in c.items():
                for m, b in g._terms.items():
                    qm = monomial_mul(q, m)
                    back[qm] = back.get(qm, 0) + a * b
        if {m: v for m, v in back.items() if v} != terms:
            raise CertificateError("graded decomposition lost exactness")
        return rem, cof

    def coordinates(self, g: Polynomial) -> dict[Monomial, Fraction]:
        """Staircase coordinates of g: its exact residue modulo J.  Parts
        above the top degree lie in J and are skipped."""
        self.spectrum()
        order = self.order()
        out: dict[Monomial, Fraction] = {}
        for D, part in self.parts(g.terms):
            if D > self.top:
                break
            out.update(self.decompose(part, D, order)[0])
        return out


def _engine(bs: BoundarySingularity, weights: Sequence[Rat]) -> _GradedIdeal:
    """The graded engine of bs at these weights, cached on bs by the checked
    weights.  Weights failing the Euler identity raise and cache nothing."""
    w = check_weights(weights, bs.ctx.arity)
    st = bs._graded_engines.get(w)
    if st is None:
        if not euler_check(bs.f, w):
            raise NotQuasihomogeneousError(
                "requires quasihomogeneous f (Euler identity fails for these weights)"
            )
        st = bs._graded_engines[w] = _GradedIdeal(bs.boundary_gens, w, bs.mu_boundary)
    return st


def _check_context(g: Polynomial, bs: BoundarySingularity) -> None:
    if g.context != bs.ctx:
        raise ValueError(f"g is over the context {g.context}, not the germ's {bs.ctx}")


def quotient_coordinates(
    g: Polynomial, bs: BoundarySingularity, weights: Sequence[Rat]
) -> dict[Monomial, Fraction]:
    """Coordinates of g in the staircase basis of Q = O/J_{f,H} (the exact
    residue of g modulo the boundary Jacobian ideal)."""
    _check_context(g, bs)
    return _engine(bs, weights).coordinates(g)


def brieskorn_reduce(
    g: Polynomial,
    bs: BoundarySingularity,
    weights: Sequence[Rat],
    generator_order: Sequence[int] | None = None,
) -> BrieskornClass:
    """Exact coordinates c_i(t) with g dx^dy^n == sum_i c_i(f) omega_i in
    the volume-form module.

    Per weighted-homogeneous part of degree d: split off the staircase
    residue, write the Jacobian part as V(f) for a boundary-tangent
    homogeneous vector field V built from the cofactors, and trade it for
    t * (div V)/s with s = d + |w| - 1, recursing on the strictly smaller
    degree d - 1.
    """
    _check_context(g, bs)
    st = _engine(bs, weights)
    order = st.order(generator_order)
    st.spectrum()
    b = st.ctx.boundary_index
    ys = [i for i in range(st.ctx.arity) if i != b]
    offset = sum(st.W) - st.scale  # s = (D + offset) / scale

    coords: dict[int, dict[int, Fraction]] = {}
    queue: list[tuple[int, dict[Monomial, Fraction]]] = [(0, g.terms)]
    while queue:
        tpow, h = queue.pop()
        for D, part in st.parts(h):
            rem, cof = st.decompose(part, D, order)
            for m, c in rem.items():
                slot = coords.setdefault(st.slot[m], {})
                slot[tpow] = slot.get(tpow, Fraction(0)) + c
            if rem == part:
                continue
            if D + offset == 0:
                raise DegenerateDegreeError(
                    f"rewrite degree s = 0 at weighted degree {Fraction(D, st.scale)}"
                )
            inv_s = Fraction(st.scale, D + offset)
            # div V = d/dx(x*a_0) + sum_i d/dy_i(a_i), times 1/s
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


def gauss_manin_apply(cls: BrieskornClass, spec: Spectrum) -> BrieskornClass:
    """Apply the connection operator coordinatewise:
    D(t^j omega_m) = (j + alpha(m) - 1) t^{j-1} omega_m.

    Input classes must be pole-free; a j = 0 coordinate with alpha != 1
    produces the explicit first-order pole flag t^-1.
    """
    out: dict[int, dict[int, Fraction]] = {}
    for i, powers in cls.coords.items():
        alpha = spec.entries[i].alpha
        for j, c in powers.items():
            if j < 0:
                raise ValueError("class already has a pole")
            factor = j + alpha - 1
            if factor == 0:
                continue
            slot = out.setdefault(i, {})
            slot[j - 1] = slot.get(j - 1, Fraction(0)) + c * factor
    return BrieskornClass(out)
