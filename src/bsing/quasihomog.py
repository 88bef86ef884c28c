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
    _monomials,
    _signed_sum,
    monomial_divides,
    monomial_key,
    monomial_mul,
)
from .standard_basis import INFINITE, _cleared, _context, _echelon, _eliminate


class NotQuasihomogeneousError(ValueError):
    """The operation requires a quasihomogeneous germ."""


class DegenerateDegreeError(ArithmeticError):
    """The rewrite step hit s = d + |w| - 1 = 0 (not reachable for germs
    with positive weights, but checked loudly)."""


class CertificateError(ArithmeticError):
    """An exactness certificate failed: a cross-check between independent
    computations disagrees, which means a bug, not bad input."""


# -- weights -------------------------------------------------------------------


def check_weights(weights: Sequence[Rat], arity: int) -> tuple[Fraction, ...]:
    w = tuple(Fraction(x) for x in weights)
    if len(w) != arity:
        raise ValueError("one weight per variable required")
    if any(x <= 0 for x in w):
        raise ValueError("weights must be positive")
    return w


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
    rows = [{i: e for i, e in enumerate(m) if e} | {arity: 1} for m in f.support()]
    pivots = _echelon(rows)
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
        lc, tail = pivots[col]
        rest = sum(v * w[c] for c, v in tail.items() if c < arity)
        w[col] = Fraction(tail.get(arity, 0) - rest, lc)
    if any(x <= 0 for x in w):
        raise NotQuasihomogeneousError(
            f"weight solution {tuple(map(str, w))} is not positive"
        )
    return tuple(w)


def euler_check(f: Polynomial, weights: Sequence[Rat]) -> bool:
    """Exact verification of the Euler identity
    sum_i w_i x_i df/dx_i == f.  Its left side scales each term of f by
    the weighted degree sum_i w_i m_i of its monomial m, so it holds iff
    every monomial of f has weighted degree 1.  The weights are checked by
    :func:`check_weights` first."""
    return _euler(f, check_weights(weights, f.context.arity))


def _euler(f: Polynomial, w: tuple[Fraction, ...]) -> bool:
    """:func:`euler_check` at weights already checked."""
    return all(sum(a * e for a, e in zip(w, m)) == 1 for m in f._terms)


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
    if not _euler(g, w):
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
    boundary weights.  The two ordinary spectra are computed once, and the
    verdict is kept on the germ's graded engine.
    """
    st = _engine(bs, weights)
    rel = st.spectrum()
    if st.split is None:
        w, b = st.w, bs.ctx.boundary_index
        w_rest = w[:b] + w[b + 1 :]
        if bs.restriction.is_zero() or not w_rest:
            raise NotQuasihomogeneousError(
                "splitting needs a boundary restriction in >= 1 variable"
            )
        ambient = ordinary_spectrum(bs.f, w)
        restricted = ordinary_spectrum(bs.restriction, w_rest)
        st.split = Counter(rel.alphas()) == (
            Counter(ambient.alphas()) + Counter(a + 1 for a in restricted.alphas()))
    return st.split


def monodromy_eigenvalues(spec: Spectrum) -> list[RootOfUnity]:
    """Monodromy eigenvalues exp(-2 pi i alpha(m)) as exact rotations."""
    return [RootOfUnity(r) for r in sorted(spec.rotations())]


def residue_matrix(spec: Spectrum) -> ResidueMatrix:
    return ResidueMatrix(tuple(spec.residue_diagonal()))


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
    def _trusted(cls, coords: dict[int, dict[int, Fraction]]) -> "BrieskornClass":
        """Wrap the coordinates of an internal producer, whose powers are
        >= -1 and whose values are Fractions already: zeros and empty slots
        are dropped, nothing is re-wrapped or re-checked."""
        obj = object.__new__(cls)
        obj.coords = {
            i: entry for i, powers in coords.items()
            if (entry := {j: c for j, c in powers.items() if c})
        }
        return obj

    @classmethod
    def zero(cls) -> "BrieskornClass":
        return cls({})

    @classmethod
    def basis(cls, i: int) -> "BrieskornClass":
        return cls._trusted({i: {0: Fraction(1)}})

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
                tgt[j] = tgt[j] + c if j in tgt else c
        return BrieskornClass._trusted(out)

    def scale(self, c: Rat) -> "BrieskornClass":
        c = Fraction(c)
        return BrieskornClass._trusted(
            {i: {j: c * v for j, v in p.items()} for i, p in self.coords.items()}
        )

    def mul_t(self) -> "BrieskornClass":
        """Multiply by t (module structure: t acts as multiplication by f)."""
        return BrieskornClass._trusted(
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


# The echelon of J in one degree D: (columns, index, pivot columns, pivots,
# tags).  The columns are the monomials of degree D, leading first, and
# index maps them back; row t is tags[t] = (j, q), the multiple q*G_j of an
# integer generator, with a unit entry in column len(columns) + t.  The
# pivot columns are the monomial ones, ascending, and a pivot is a
# primitive integer row (lc, tail) of :func:`standard_basis._echelon`.
_Echelon = tuple[tuple[Monomial, ...], dict[Monomial, int], list[int],
                 dict[int, tuple[int, dict[int, int]]], list[tuple[int, Monomial]]]


class _GradedIdeal:
    """The ideal J of weighted-homogeneous ``gens`` at weights w, degree by
    degree (Macaulay matrices); the graded engine of a germ is the one of
    J_{f,H}, cached on it by :func:`_engine`.

    The engine computes in integers.  With w scaled to integers W, and each
    g_j made integral once as G_j = s_j*g_j, degree D of J is spanned by the
    rows q*G_j, deg q = D - deg g_j.  Their fraction-free echelon, columns
    by reversed exponents and rows in a generator order, has the staircase
    in degree D as its non-pivot columns; each row carries a unit tag
    column, so reducing by the pivots gives remainder and cofactors at
    once.  A row q*G_j is skipped when the leading monomial of an earlier
    generator divides q (a Koszul syzygy spans it).  Echelons are cached
    per (degree, order).

    The staircase is certified by the Poincare series: n generators in n
    variables have a finite quotient iff they are a regular sequence, with
    dimension in degree D the coefficient of t^D in
    prod_j (1 - t^(deg g_j)) / prod_i (1 - t^W_i), a polynomial of degree
    ``top``.  The counts up to top must match, and the next max(W) degrees
    be empty, which puts every monomial above top in J; with ``mu`` given
    the total must be mu.  A failure raises :class:`CertificateError`, or
    :class:`NonIsolatedError` without ``mu``, and caches nothing.
    ``split`` keeps the splitting law's verdict on the germ.
    """

    def __init__(self, gens: Sequence[Polynomial], w: tuple[Fraction, ...],
                 mu: int | float | None = None):
        self.gens, self.w, self.mu = tuple(gens), w, mu
        self.ctx = self.gens[0].context
        self.scale = math.lcm(*(x.denominator for x in w))
        self.W = tuple(int(x * self.scale) for x in w)
        cleared = [_cleared(g._terms) for g in self.gens]
        self.ints = [t for t, _ in cleared]  # G_j
        self.scales = [s for _, s in cleared]  # s_j
        # gens are homogeneous: a stray term of another degree has no column
        self.degrees = [None if not G else self.degree(next(iter(G))) for G in self.ints]
        self.top: int | None = None
        self.slot: dict[Monomial, int] = {}
        self.split: bool | None = None
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
            terms = self.ints[j]
            for q in _monomials(self.W, D - self.degrees[j]):
                if not any(monomial_divides(lm, q) for lm in leads):
                    row = {index[monomial_mul(q, m)]: c for m, c in terms.items()}
                    row[n + len(tags)] = 1
                    rows.append(row)
                    tags.append((j, q))
            leads.append(min(terms, key=lambda m: m[::-1]))
        pivots = _echelon(rows)
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
            (SpectrumEntry(m, Fraction(self.degree(m) + sum(self.W), self.scale))
             for m in stairs),
            key=lambda e: (e.alpha, monomial_key(e.monomial)),
        )
        self._spectrum = Spectrum(tuple(entries), self.w, self.ctx.names)
        self.slot = {e.monomial: i for i, e in enumerate(entries)}
        self.top = top
        return self._spectrum

    def parts(self, terms: dict[Monomial, int]) -> list[tuple[int, dict[Monomial, int]]]:
        """``terms`` split into weighted-homogeneous parts (D, part), by
        increasing W-degree D: the order of the weighted degrees D/scale."""
        buckets: dict[int, dict[Monomial, int]] = {}
        for m, c in terms.items():
            buckets.setdefault(self.degree(m), {})[m] = c
        return sorted(buckets.items())

    def decompose(
        self, terms: dict[Monomial, int], D: int, order: tuple[int, ...]
    ) -> tuple[dict[Monomial, int], list[dict[Monomial, int]], int]:
        """(rem, cof, den) with den*terms == rem + sum_j cof[j]*G_j, den > 0,
        for the nonzero integer terms of one W-degree D: rem on the staircase
        in column order and cof[j] of W-degree D - deg g_j.  den gathers the
        factors of the steps (:func:`standard_basis._eliminate`).  The sum is
        recomposed and checked in integers.  Needs the certified staircase:
        call :meth:`spectrum` first."""
        columns, index, pivot_columns, pivots, tags = self.echelon(D, order)
        n = len(columns)
        row = {index[m]: c for m, c in terms.items()}
        den = 1
        for p in pivot_columns:
            v = row.pop(p, None)
            if v is None:
                continue
            row, a = _eliminate(row, v, pivots[p])
            den *= a
        rem = {columns[k]: row[k] for k in sorted(k for k in row if k < n)}
        if any(m not in self.slot for m in rem):
            raise CertificateError("non-staircase monomial escaped division")
        cof: list[dict[Monomial, int]] = [{} for _ in self.gens]
        for k, v in row.items():
            if k >= n:
                j, q = tags[k - n]
                cof[j][q] = -v
        back = dict(rem)
        for c, G in zip(cof, self.ints):
            for q, a in c.items():
                for m, b in G.items():
                    qm = monomial_mul(q, m)
                    back[qm] = back.get(qm, 0) + a * b
        want = terms if den == 1 else {m: den * c for m, c in terms.items()}
        if {m: v for m, v in back.items() if v} != want:
            raise CertificateError("graded decomposition lost exactness")
        return rem, cof, den

    def coordinates(self, g: Polynomial) -> dict[Monomial, Fraction]:
        """Staircase coordinates of g: its exact residue modulo J.  Parts
        above the top degree lie in J and are skipped."""
        self.spectrum()
        order = self.order()
        ints, den = _cleared(g._terms)
        out: dict[Monomial, Fraction] = {}
        for D, part in self.parts(ints):
            if D > self.top:
                break
            rem, _, a = self.decompose(part, D, order)
            out.update((m, Fraction(c, den * a)) for m, c in rem.items())
        return out


def _engine(bs: BoundarySingularity, weights: Sequence[Rat]) -> _GradedIdeal:
    """The graded engine of bs at these weights, cached on bs by the weights
    as given.  Only a new key is checked (:func:`check_weights` and the
    Euler identity); equal numbers hash alike, so ``1``, ``Fraction(1)``
    and ``1.0`` share an engine.  Weights that fail raise and cache nothing."""
    key = tuple(weights)
    st = bs._graded_engines.get(key)
    if st is None:
        w = check_weights(key, bs.ctx.arity)
        if not _euler(bs.f, w):
            raise NotQuasihomogeneousError(
                "requires quasihomogeneous f (Euler identity fails for these weights)"
            )
        st = bs._graded_engines[key] = _GradedIdeal(bs.boundary_gens, w, bs.mu_boundary)
    return st


def quotient_coordinates(
    g: Polynomial, bs: BoundarySingularity, weights: Sequence[Rat]
) -> dict[Monomial, Fraction]:
    """Coordinates of g in the staircase basis of Q = O/J_{f,H} (the exact
    residue of g modulo the boundary Jacobian ideal)."""
    _context([g, bs.f])
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
    _context([g, bs.f])
    st = _engine(bs, weights)
    order = st.order(generator_order)
    st.spectrum()
    b = st.ctx.boundary_index
    ys = [i for i in range(st.ctx.arity) if i != b]
    offset = sum(st.W) - st.scale  # s = (D + offset) / scale
    # the cofactor of g_j is s_j*cof[j]/den, and 1/s = scale/(D + offset)
    mult = [s * st.scale for s in st.scales]

    coords: dict[int, dict[int, Fraction]] = {}
    # (power of t, integer terms, denominator): t^power * terms/den is left
    queue: list[tuple[int, dict[Monomial, int], int]] = [(0, *_cleared(g._terms))]
    while queue:
        tpow, h, den = queue.pop()
        for D, part in st.parts(h):
            rem, cof, a = st.decompose(part, D, order)
            den_part = den * a
            for m, c in rem.items():
                slot = coords.setdefault(st.slot[m], {})
                slot[tpow] = slot.get(tpow, 0) + Fraction(c, den_part)
            if not any(cof):
                continue
            if D + offset == 0:
                raise DegenerateDegreeError(
                    f"rewrite degree s = 0 at weighted degree {Fraction(D, st.scale)}"
                )
            # div V = d/dx(x*a_0) + sum_i d/dy_i(a_i), times 1/s, over
            # the denominator den_part * (D + offset)
            div = {q: (q[b] + 1) * c * mult[0] for q, c in cof[0].items()}
            for i, c_i, k in zip(ys, cof[1:], mult[1:]):
                for q, c in c_i.items():
                    if q[i]:
                        m = q[:i] + (q[i] - 1,) + q[i + 1 :]
                        div[m] = div.get(m, 0) + q[i] * c * k
            div = {m: c for m, c in div.items() if c}
            if div:
                queue.append((tpow + 1, div, den_part * (D + offset)))
    return BrieskornClass._trusted(coords)


def gauss_manin_apply(cls: BrieskornClass, spec: Spectrum) -> BrieskornClass:
    """Apply the connection operator coordinatewise:
    D(t^j omega_m) = (j + alpha(m) - 1) t^{j-1} omega_m.

    Input classes must be pole-free, with slots 0 <= i < len(spec); a
    j = 0 coordinate with alpha != 1 produces the explicit first-order pole
    flag t^-1.
    """
    out: dict[int, dict[int, Fraction]] = {}
    for i, powers in cls.coords.items():
        if not 0 <= i < len(spec):
            raise ValueError(f"slot {i} is outside the {len(spec)} spectrum slots")
        alpha = spec.entries[i].alpha
        for j, c in powers.items():
            if j < 0:
                raise ValueError("class already has a pole")
            factor = j + alpha - 1
            if factor == 0:
                continue
            slot = out.setdefault(i, {})
            slot[j - 1] = c * factor
    return BrieskornClass._trusted(out)
