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

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .boundary import BoundarySingularity, NonIsolatedError, jacobian_ideal
from .polyring import (
    Monomial,
    Polynomial,
    Rat,
    check_weights,
    monomial_divides,
    monomial_key,
    monomial_weighted_degree,
    quasihomogeneous_components,
    weighted_degree,
)
from .standard_basis import (
    INFINITE,
    LocalAlgebra,
    LocalOrder,
    leading_term,
    quotient_basis,
    standard_basis,
)


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
    rows = [[Fraction(e) for e in m] + [Fraction(1)] for m in f.support()]
    # Gaussian elimination on the augmented matrix
    pivot_cols: list[int] = []
    r = 0
    for col in range(arity):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][col]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                factor = rows[i][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivot_cols.append(col)
        r += 1
    for i in range(r, len(rows)):
        if rows[i][arity] != 0:
            raise NotQuasihomogeneousError(
                "not quasihomogeneous in these coordinates (no weight solution)"
            )
    if len(pivot_cols) < arity:
        raise NotQuasihomogeneousError(
            "weights are underdetermined by the support of f"
        )
    w = [Fraction(0)] * arity
    for i, col in enumerate(pivot_cols):
        w[col] = rows[i][arity]
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


def _alpha(m: Monomial, w: tuple[Fraction, ...]) -> Fraction:
    return sum((wi * (e + 1) for wi, e in zip(w, m)), Fraction(0))


def _spectrum_of(
    alg: LocalAlgebra, w: tuple[Fraction, ...], names: tuple[str, ...]
) -> Spectrum:
    if alg.dimension == INFINITE:
        raise NonIsolatedError("staircase complement is infinite")
    entries = sorted(
        (SpectrumEntry(m, _alpha(m, w)) for m in alg.basis_monomials),
        key=lambda e: (e.alpha, monomial_key(e.monomial)),
    )
    return Spectrum(tuple(entries), w, names)


def spectrum(bs: BoundarySingularity, weights: Sequence[Rat]) -> Spectrum:
    """Spectrum of the boundary singularity over the staircase basis of
    its boundary Jacobian quotient.

    The staircase comes from the germ's cached graded engine, which checks
    it against mu_{f,H} when it is first built; on a fresh engine this
    builds only an untracked weighted standard basis."""
    st = _engine(bs, weights)
    if bs.mu_boundary == INFINITE:
        raise NonIsolatedError("boundary Milnor number is infinite")
    return st.spectrum()


def ordinary_spectrum(g: Polynomial, weights: Sequence[Rat]) -> Spectrum:
    """Spectrum of an ordinary (no-boundary) isolated quasihomogeneous
    germ, over the staircase of its full Jacobian ideal."""
    if g.context.arity < 1:
        raise ValueError("ordinary spectrum needs at least one variable")
    w = check_weights(weights, g.context.arity)
    if not euler_check(g, w):
        raise NotQuasihomogeneousError(
            "requires quasihomogeneous germ (Euler identity fails)"
        )
    live = [p for p in jacobian_ideal(g) if not p.is_zero()]
    if not live:
        raise NonIsolatedError("zero Jacobian ideal")
    alg = quotient_basis(standard_basis(live, LocalOrder(w)))
    return _spectrum_of(alg, w, g.context.names)


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
    ambient, restricted = _engine(bs, w).ordinary_spectra(bs)
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
    if not powers:
        return "0"
    pieces = []
    for j in sorted(powers):
        c = powers[j]
        if j == 0:
            body = str(abs(c))
        else:
            tpart = "t" if j == 1 else f"t^{j}"
            body = tpart if abs(c) == 1 else f"{abs(c)}*{tpart}"
        pieces.append(("-" if c < 0 else "+", body))
    sign, first = pieces[0]
    text = ("-" if sign == "-" else "") + first
    for sign, body in pieces[1:]:
        text += f" {sign} {body}"
    return text


# One reducer of a tracked basis: leading monomial, leading coefficient,
# the basis element g, and its weighted-homogeneous representation (r_j)
# in the canonical Jacobian generators, g == sum_j r_j * jac[j].
_Reducer = tuple[Monomial, Fraction, Polynomial, tuple[Polynomial, ...]]


class _GradedStructure:
    """The graded engine of one quasihomogeneous boundary singularity at
    fixed weights, cached on the germ by :func:`_engine` and built lazily.

    The staircase of Q = O/J_{f,H}, in spectrum order, comes from whichever
    weighted standard basis is built first (``spectrum`` builds an
    untracked one) and must have mu_{f,H} monomials; a basis built later
    must give the same staircase.  Per generator order, ``tracked`` builds
    a tracked basis with homogenized representations, through which
    ``graded_decompose`` splits homogeneous parts exactly into staircase +
    cofactors of the original Jacobian generators.  ``ordinary_spectra``
    keeps the ordinary spectra of f and f|H that the splitting law compares
    against.  A failed check raises :class:`CertificateError` and caches
    nothing.
    """

    def __init__(self, bs: BoundarySingularity, w: tuple[Fraction, ...]):
        self.w = w
        self.ctx = bs.ctx
        self.mu = bs.mu_boundary
        self.order = LocalOrder(w)
        self.jac = bs.boundary_gens
        self._spectrum: Spectrum | None = None
        self._ordinary: tuple[Spectrum, Spectrum] | None = None
        self.slot: dict[Monomial, int] = {}
        self._tracked: dict[tuple[int, ...], tuple[_Reducer, ...]] = {}

    def _set_staircase(self, alg: LocalAlgebra) -> None:
        spec = _spectrum_of(alg, self.w, self.ctx.names)
        if self._spectrum is not None:
            if spec != self._spectrum:
                raise CertificateError(
                    "two weighted standard bases of J_(f,H) have different staircases"
                )
            return
        if len(spec) != self.mu:
            raise CertificateError(
                f"weighted staircase has {len(spec)} monomials, "
                f"unweighted boundary quotient has {self.mu}"
            )
        self._spectrum = spec
        self.slot = {e.monomial: i for i, e in enumerate(spec.entries)}

    def spectrum(self) -> Spectrum:
        if self._spectrum is None:
            self._set_staircase(quotient_basis(standard_basis(self.jac, self.order)))
        return self._spectrum

    def ordinary_spectra(self, bs: BoundarySingularity) -> tuple[Spectrum, Spectrum]:
        """The ordinary spectra of f and of f|H of the germ ``bs`` this
        engine belongs to, the two sides of the splitting law, built on
        first use.  A missing f|H raises before anything is built."""
        if self._ordinary is None:
            b = self.ctx.boundary_index
            w_rest = self.w[:b] + self.w[b + 1 :]
            if bs.restriction.is_zero() or not w_rest:
                raise NotQuasihomogeneousError(
                    "splitting needs a boundary restriction in >= 1 variable"
                )
            self._ordinary = (
                ordinary_spectrum(bs.f, self.w),
                ordinary_spectrum(bs.restriction, w_rest),
            )
        return self._ordinary

    def tracked(self, generator_order: Sequence[int] | None = None) -> tuple[_Reducer, ...]:
        """The reducers of the tracked basis for this generator order
        (default: the canonical one), built on first use."""
        n = len(self.jac)
        key = tuple(range(n) if generator_order is None else generator_order)
        if key in self._tracked:
            return self._tracked[key]
        if sorted(key) != list(range(n)):
            raise ValueError("generator_order must be a permutation")
        sb = standard_basis(
            [self.jac[p] for p in key], self.order, track_representations=True
        )
        if sb.representations is None:
            raise CertificateError("standard basis lost its representations")
        gen_deg = [
            None if g.is_zero() else weighted_degree(g, self.w) for g in self.jac
        ]
        reducers = []
        for gi, rep in zip(sb.generators, sb.representations):
            d_g = weighted_degree(gi, self.w)
            if d_g is None:
                raise CertificateError("standard basis element is not homogeneous")
            row = [Polynomial.zero(self.ctx) for _ in range(n)]
            for used_idx, cof in enumerate(rep):
                j = key[used_idx]
                if cof.is_zero() or gen_deg[j] is None:
                    continue
                target = d_g - gen_deg[j]
                keep = {
                    m: c
                    for m, c in cof.terms.items()
                    if monomial_weighted_degree(m, self.w) == target
                }
                row[j] = Polynomial(self.ctx, keep)
            check = Polynomial.zero(self.ctx)
            for j in range(n):
                check = check + row[j] * self.jac[j]
            if check != gi:
                raise CertificateError("homogenized representation lost exactness")
            reducers.append((*leading_term(gi, self.order), gi, tuple(row)))
        self._set_staircase(quotient_basis(sb))
        self._tracked[key] = tuple(reducers)
        return self._tracked[key]

    def graded_decompose(
        self, part: Polynomial, reducers: tuple[_Reducer, ...]
    ) -> tuple[dict[Monomial, Fraction], list[Polynomial]]:
        """part == sum(rem) + sum_j cof[j]*jac[j], with rem supported on the
        staircase and every cof[j] weighted-homogeneous, by division with
        the reducers of one tracked basis.  Plain division within a fixed
        weighted degree always terminates."""
        rem: dict[Monomial, Fraction] = {}
        cof_sb = [Polynomial.zero(self.ctx) for _ in reducers]
        work = part
        while not work.is_zero():
            lm, lc = leading_term(work, self.order)
            for k, (lm_g, lc_g, g, _) in enumerate(reducers):
                if monomial_divides(lm_g, lm):
                    factor = Polynomial.monomial(
                        self.ctx, tuple(a - b for a, b in zip(lm, lm_g)), lc / lc_g
                    )
                    work = work - factor * g
                    cof_sb[k] = cof_sb[k] + factor
                    break
            else:
                if lm not in self.slot:
                    raise CertificateError("non-staircase monomial escaped division")
                rem[lm] = rem.get(lm, Fraction(0)) + lc
                work = work - Polynomial.monomial(self.ctx, lm, lc)
        cof = [Polynomial.zero(self.ctx) for _ in self.jac]
        for a, (_, _, _, row) in zip(cof_sb, reducers):
            if a.is_zero():
                continue
            for j, r in enumerate(row):
                if not r.is_zero():
                    cof[j] = cof[j] + a * r
        rem = {m: c for m, c in rem.items() if c != 0}
        recomposed = Polynomial(self.ctx, rem)
        for j, g in enumerate(self.jac):
            recomposed = recomposed + cof[j] * g
        if recomposed != part:
            raise CertificateError("graded decomposition lost exactness")
        return rem, cof

    def coordinates(self, g: Polynomial) -> dict[Monomial, Fraction]:
        """Staircase coordinates of g: its exact residue modulo J_{f,H}."""
        reducers = self.tracked()
        out: dict[Monomial, Fraction] = {}
        for _, part in quasihomogeneous_components(g, self.w):
            rem, _ = self.graded_decompose(part, reducers)
            for m, c in rem.items():
                out[m] = out.get(m, Fraction(0)) + c
        return {m: c for m, c in out.items() if c != 0}


def _engine(bs: BoundarySingularity, weights: Sequence[Rat]) -> _GradedStructure:
    """The graded engine of bs at these weights, cached on bs by the checked
    weights.  Weights failing the Euler identity raise and cache nothing."""
    w = check_weights(weights, bs.ctx.arity)
    st = bs._graded_engines.get(w)
    if st is None:
        if not euler_check(bs.f, w):
            raise NotQuasihomogeneousError(
                "requires quasihomogeneous f (Euler identity fails for these weights)"
            )
        st = bs._graded_engines[w] = _GradedStructure(bs, w)
    return st


def quotient_coordinates(
    g: Polynomial, bs: BoundarySingularity, weights: Sequence[Rat]
) -> dict[Monomial, Fraction]:
    """Coordinates of g in the staircase basis of Q = O/J_{f,H} (the exact
    residue of g modulo the boundary Jacobian ideal)."""
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
    st = _engine(bs, weights)
    reducers = st.tracked(generator_order)
    total_w = sum(st.w, Fraction(0))
    b = st.ctx.boundary_index
    ys = [i for i in range(st.ctx.arity) if i != b]
    x = Polynomial.variable(st.ctx, b)

    coords: dict[int, dict[int, Fraction]] = {}
    queue: list[tuple[int, Polynomial]] = [(0, g)]
    while queue:
        tpow, h = queue.pop()
        if h.is_zero():
            continue
        for d, part in quasihomogeneous_components(h, st.w):
            rem, cof = st.graded_decompose(part, reducers)
            for m, c in rem.items():
                slot = coords.setdefault(st.slot[m], {})
                slot[tpow] = slot.get(tpow, Fraction(0)) + c
            rem_poly = Polynomial(st.ctx, rem)
            if part == rem_poly:
                continue
            s = d + total_w - 1
            if s == 0:
                raise DegenerateDegreeError(
                    f"rewrite degree s = 0 at weighted degree {d}"
                )
            div = (cof[0] * x).partial_derivative(b)
            for k, yi in enumerate(ys):
                div = div + cof[1 + k].partial_derivative(yi)
            if not div.is_zero():
                queue.append((tpow + 1, div.scale(1 / s)))
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
