"""Sparse multivariate polynomials over exact rationals, and truncated
univariate power series.

Polynomials live in a :class:`VarContext` that fixes an ordered list of
variable names and marks one of them as the boundary variable (the
hyperplane ``{x = 0}`` that boundary-singularity computations are taken
relative to).  Coefficients are :class:`fractions.Fraction` throughout --
no floating point enters any computation in this package.

Monomials are plain exponent tuples, one entry per context variable.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

Monomial = tuple[int, ...]

Rat = Fraction | int


class ParseError(ValueError):
    """Raised on malformed input; carries the position in the text, if any."""

    def __init__(self, message: str, position: int | None = None):
        suffix = "" if position is None else f" (at position {position})"
        super().__init__(message + suffix)
        self.position = position


class SeriesError(ValueError):
    """Raised when a series operation's precondition on coefficients fails."""


@dataclass(frozen=True)
class VarContext:
    """Ordered variable names with a distinguished boundary variable.

    ``boundary_index`` is None for derived contexts that carry no boundary
    (e.g. the ambient ring of a restriction to the boundary).
    """

    names: tuple[str, ...]
    boundary_index: int | None = 0

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            raise ValueError("variable names must be distinct")
        if any(not n for n in self.names):
            raise ValueError("variable names must be non-empty")
        if self.boundary_index is not None and not (
            0 <= self.boundary_index < len(self.names) or len(self.names) == 0
        ):
            raise ValueError("boundary index out of range")

    @property
    def arity(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        return self.names.index(name)

    def drop(self, i: int) -> "VarContext":
        """Context with variable ``i`` removed (and no boundary marked)."""
        names = self.names[:i] + self.names[i + 1 :]
        return VarContext(names, boundary_index=None)


def monomial_key(m: Monomial) -> tuple:
    """Canonical (graded-lexicographic) sort key: total degree first, then
    earlier variables dominate.  Gives the ordering 1, x, y, x^2, x*y, ..."""
    return (sum(m), tuple(-e for e in m))


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


@functools.lru_cache(maxsize=4096)
def _monomials(W: tuple[int, ...], D: int) -> tuple[Monomial, ...]:
    """The monomials of W-degree D for positive integer weights W, leading
    first: by reversed exponents.  With no variables only 1, of degree 0."""
    if D < 0 or not W:
        return ((),) if D == 0 else ()
    heads: list[tuple[Monomial, int]] = [((), D)]  # (exponents so far, degree left)
    for Wi in W[:-1]:
        heads = [(m + (e,), r - e * Wi) for m, r in heads for e in range(r // Wi + 1)]
    out = [m + (r // W[-1],) for m, r in heads if r % W[-1] == 0]
    return tuple(sorted(out, key=lambda m: m[::-1]))


def monomial_divides(a: Monomial, b: Monomial) -> bool:
    """True if ``a`` divides ``b`` exponentwise."""
    return all(x <= y for x, y in zip(a, b))


def format_monomial(m: Monomial, names: Sequence[str]) -> str:
    parts = []
    for name, e in zip(names, m):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts) if parts else "1"


def _signed_sum(terms: Iterable[tuple[str, Fraction]]) -> str:
    """Join (monomial text, coefficient) pairs as ``2*x - y + 1/2``: the
    coefficient is left out when it is +-1, except for the monomial "1"."""
    text = ""
    for mono, c in terms:
        if mono == "1":
            body = str(abs(c))
        elif abs(c) == 1:
            body = mono
        else:
            body = f"{abs(c)}*{mono}"
        if text:
            text += f" {'-' if c < 0 else '+'} {body}"
        else:
            text = f"-{body}" if c < 0 else body
    return text or "0"


class Polynomial:
    """Immutable sparse polynomial with exact rational coefficients.

    ``terms`` maps exponent tuples to nonzero Fractions; zero coefficients
    are never stored.  All arithmetic is exact.
    """

    __slots__ = ("context", "_terms", "_hash")

    def __init__(self, context: VarContext, terms: Mapping[Monomial, Rat]):
        clean: dict[Monomial, Fraction] = {}
        n = context.arity
        for m, c in terms.items():
            m = tuple(m)
            if len(m) != n:
                raise ValueError(f"monomial {m} does not fit arity {n}")
            if any(type(e) is not int or e < 0 for e in m):
                raise ValueError(f"non-integer or negative exponent in {m}")
            if c := clean.get(m, 0) + Fraction(c):
                clean[m] = c
            else:
                clean.pop(m, None)
        self.context = context
        self._terms = clean
        self._hash: int | None = None

    @classmethod
    def _trusted(cls, context: VarContext, terms: dict[Monomial, Fraction]) -> "Polynomial":
        """Wrap ``terms`` unchecked and uncopied: the caller hands over monomials
        of the context's arity mapped to nonzero Fractions."""
        p = object.__new__(cls)
        p.context, p._terms, p._hash = context, terms, None
        return p

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ctx: VarContext) -> "Polynomial":
        return cls(ctx, {})

    @classmethod
    def constant(cls, ctx: VarContext, c: Rat) -> "Polynomial":
        return cls(ctx, {(0,) * ctx.arity: Fraction(c)})

    @classmethod
    def variable(cls, ctx: VarContext, i: int) -> "Polynomial":
        m = tuple(1 if j == i else 0 for j in range(ctx.arity))
        return cls(ctx, {m: Fraction(1)})

    @classmethod
    def monomial(cls, ctx: VarContext, m: Monomial, c: Rat = 1) -> "Polynomial":
        return cls(ctx, {tuple(m): Fraction(c)})

    # -- basic queries ------------------------------------------------------

    @property
    def terms(self) -> dict[Monomial, Fraction]:
        return dict(self._terms)

    def items(self) -> Iterator[tuple[Monomial, Fraction]]:
        """Terms in canonical graded-lexicographic order."""
        for m in sorted(self._terms, key=monomial_key):
            yield m, self._terms[m]

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def coefficient(self, m: Monomial) -> Fraction:
        return self._terms.get(tuple(m), Fraction(0))

    def constant_term(self) -> Fraction:
        return self._terms.get((0,) * self.context.arity, Fraction(0))

    def support(self) -> list[Monomial]:
        return sorted(self._terms, key=monomial_key)

    def total_degree(self) -> int:
        if not self._terms:
            raise ValueError("zero polynomial has no degree")
        return max(sum(m) for m in self._terms)

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other: "Polynomial"):
        if other.context != self.context:
            raise ValueError("polynomials from different contexts")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        out = dict(self._terms)
        for m, c in other._terms.items():
            if m not in out:
                out[m] = c
            elif v := out[m] + c:
                out[m] = v
            else:
                del out[m]
        return Polynomial._trusted(self.context, out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        out = dict(self._terms)
        for m, c in other._terms.items():
            if m not in out:
                out[m] = -c
            elif v := out[m] - c:
                out[m] = v
            else:
                del out[m]
        return Polynomial._trusted(self.context, out)

    def __neg__(self) -> "Polynomial":
        return Polynomial._trusted(self.context, {m: -c for m, c in self._terms.items()})

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check(other)
        out: dict[Monomial, Fraction] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                m = monomial_mul(m1, m2)
                out[m] = out.get(m, 0) + c1 * c2
        return Polynomial._trusted(self.context, {m: c for m, c in out.items() if c})

    __rmul__ = __mul__

    def scale(self, c: Rat) -> "Polynomial":
        c = Fraction(c)
        if c == 0:
            return Polynomial.zero(self.context)
        return Polynomial._trusted(self.context, {m: c * v for m, v in self._terms.items()})

    # m -> m / x_i on the terms with m[i] > 0, and m -> m without its
    # entry i on those with m[i] == 0, are injective: no two terms merge,
    # so the results hold nonzero Fractions and need no checks

    def partial_derivative(self, i: int) -> "Polynomial":
        return Polynomial._trusted(self.context, {
            m[:i] + (m[i] - 1,) + m[i + 1 :]: c * m[i] for m, c in self._terms.items() if m[i]
        })

    def substitute_zero(self, i: int) -> "Polynomial":
        """Set variable ``i`` to zero and drop it from the context."""
        return Polynomial._trusted(self.context.drop(i), {
            m[:i] + m[i + 1 :]: c for m, c in self._terms.items() if not m[i]
        })

    def substitute(self, images: Sequence["Polynomial"]) -> "Polynomial":
        """Substitute images[i] for variable i; images share one context."""
        if len(images) != self.context.arity:
            raise ValueError("need one image per variable")
        target = images[0].context if images else self.context
        out = Polynomial.zero(target)
        for m, c in self._terms.items():
            term = Polynomial.constant(target, c)
            for i, e in enumerate(m):
                for _ in range(e):
                    term = term * images[i]
            out = out + term
        return out

    # -- equality / hash / display -------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.context == other.context
            and self._terms == other._terms
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.context, frozenset(self._terms.items())))
        return self._hash

    def __str__(self) -> str:
        names = self.context.names
        return _signed_sum((format_monomial(m, names), c) for m, c in self.items())

    def __repr__(self) -> str:
        return f"Polynomial({self})"


# -- parsing -----------------------------------------------------------------

_TOKEN = re.compile(
    r"\s*(?:(?P<number>\d+\s*/\s*\d+|\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*^])|(?P<bad>\S)|\Z)"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, position) of each number, name and operator; whitespace
    is skipped wherever it stands."""
    tokens = []
    # a match starts at every position (a token, a stray character or the
    # end of the text), so the matches tile the text
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {m[kind]!r}", m.start(kind))
        if kind:
            tokens.append((kind, m[kind], m.start(kind)))
    return tokens


def _add_term(terms: dict[Monomial, Fraction], m: Monomial, c: Fraction) -> None:
    """terms += c*m in place, merged as ``Polynomial.__add__`` merges: a
    monomial keeps its place and leaves when its coefficient cancels."""
    if c := terms.get(m, 0) + c:
        terms[m] = c
    else:
        terms.pop(m, None)


def parse_polynomial(text: str, ctx: VarContext) -> Polynomial:
    """Parse ``text`` into a canonical Polynomial over ``ctx``.

    Grammar: terms joined by ``+``/``-``, the first optionally signed; a
    term is a ``*``-joined product of integer or ``p/q`` coefficients and
    ``var[^exp]`` factors.  The ``*`` before a variable may be omitted after
    any number, an exponent included (``x^2y`` is ``x^2*y``); whitespace is
    allowed anywhere.  Raises :class:`ParseError` with a position for
    malformed input and for variable names not declared in the context.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty polynomial", 0)
    terms: dict[Monomial, Fraction] = {}
    sign, coeff, exps = 1, Fraction(1), [0] * ctx.arity
    expect_factor = True  # at the start of a term or after '*'
    i = 0
    while i < len(tokens):
        kind, val, pos = tokens[i]
        i += 1
        # a sign is leading (token 0) or follows a factor, ending its term
        if kind == "op" and val in "+-" and (i == 1 or not expect_factor):
            if not expect_factor:
                _add_term(terms, tuple(exps), sign * coeff)
                if i == len(tokens):
                    raise ParseError("dangling operator", pos)
                coeff, exps, expect_factor = Fraction(1), [0] * ctx.arity, True
            sign = -1 if val == "-" else 1
        elif kind == "op":
            if val != "*" or expect_factor:
                raise ParseError(f"unexpected {val!r}", pos)
            expect_factor = True
        elif not expect_factor and (kind == "number" or tokens[i - 2][0] != "number"):
            # side by side, only a number and a name after it multiply
            raise ParseError("missing operator", pos)
        elif kind == "number":
            num, _, den = val.partition("/")
            if den and int(den) == 0:
                raise ParseError("zero denominator", pos)
            coeff *= Fraction(int(num), int(den or 1))
            expect_factor = False
        else:
            if val not in ctx.names:
                raise ParseError(f"unknown variable {val!r}", pos)
            v, e = ctx.index(val), 1
            if i < len(tokens) and tokens[i][1] == "^":
                if i + 1 == len(tokens) or tokens[i + 1][0] != "number":
                    raise ParseError("expected integer exponent after '^'", tokens[i][2])
                _, val, pos = tokens[i + 1]
                if "/" in val:
                    raise ParseError("exponent must be an integer", pos)
                e, i = int(val), i + 2
            exps[v] += e
            expect_factor = False
    if expect_factor:
        raise ParseError("incomplete term", tokens[-1][2])
    _add_term(terms, tuple(exps), sign * coeff)
    return Polynomial._trusted(ctx, terms)


# -- truncated univariate power series ----------------------------------------

_ZERO = Fraction(0)


class PowerSeries1:
    """Truncated power series in one variable t with Fraction coefficients.

    ``coefficients[j]`` is the coefficient of t^j; the truncation order N is
    ``len(coefficients) - 1``.  Binary operations truncate to the smaller
    order of the operands and never read beyond it.
    """

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: Iterable[Rat]):
        coeffs = tuple(Fraction(c) for c in coefficients)
        if not coeffs:
            raise ValueError("a series needs at least the constant coefficient")
        self.coefficients = coeffs

    @classmethod
    def _trusted(cls, coefficients: tuple[Fraction, ...]) -> "PowerSeries1":
        """Wrap ``coefficients`` unchecked and uncopied: the caller hands over
        a nonempty tuple of Fractions."""
        s = object.__new__(cls)
        s.coefficients = coefficients
        return s

    @classmethod
    def constant(cls, c: Rat, order: int = 0) -> "PowerSeries1":
        return cls([Fraction(c)] + [Fraction(0)] * order)

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    def __getitem__(self, j: int) -> Fraction:
        return self.coefficients[j]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PowerSeries1)
            and self.coefficients == other.coefficients
        )

    def __hash__(self) -> int:
        return hash(self.coefficients)

    def pad(self, order: int) -> "PowerSeries1":
        if order < self.order:
            raise ValueError("pad cannot shrink a series")
        return PowerSeries1._trusted(
            self.coefficients + (_ZERO,) * (order - self.order)
        )

    def truncate(self, order: int) -> "PowerSeries1":
        if order < 0:
            raise ValueError("a series needs at least the constant coefficient")
        return PowerSeries1._trusted(self.coefficients[: order + 1])

    def __add__(self, other: "PowerSeries1") -> "PowerSeries1":
        n = min(self.order, other.order)
        return PowerSeries1(
            [self[j] + other[j] for j in range(n + 1)]
        )

    def __sub__(self, other: "PowerSeries1") -> "PowerSeries1":
        n = min(self.order, other.order)
        return PowerSeries1(
            [self[j] - other[j] for j in range(n + 1)]
        )

    def scale(self, c: Rat) -> "PowerSeries1":
        c = Fraction(c)
        return PowerSeries1([c * a for a in self.coefficients])

    def __mul__(self, other: "PowerSeries1") -> "PowerSeries1":
        n = min(self.order, other.order)
        out = [Fraction(0)] * (n + 1)
        for i in range(n + 1):
            if self[i] == 0:
                continue
            for j in range(n + 1 - i):
                out[i + j] += self[i] * other[j]
        return PowerSeries1(out)

    def t_derivative(self) -> "PowerSeries1":
        """t * d/dt, same truncation order."""
        return PowerSeries1([j * self[j] for j in range(self.order + 1)])

    def shift_t(self) -> "PowerSeries1":
        """Multiply by t (order grows by one, nothing is lost)."""
        return PowerSeries1._trusted((_ZERO,) + self.coefficients)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coefficients)

    def __str__(self) -> str:
        return ", ".join(str(c) for c in self.coefficients)

    def __repr__(self) -> str:
        return f"PowerSeries1([{self}])"


def parse_series(text: str) -> PowerSeries1:
    """Parse comma-separated coefficients ``[-]p[/q]``, with whitespace
    allowed around each: ``1,1,1/2`` is 1 + t + t^2/2.  A malformed
    coefficient or a zero denominator raises :class:`ParseError` at the
    coefficient's position in ``text``."""
    coeffs = []
    start = 0  # of the current part
    for part in text.split(","):
        p = part.strip()
        at = start + len(part) - len(part.lstrip())
        m = re.fullmatch(r"(-?\d+)(?:/(\d+))?", p)
        if not m:
            raise ParseError(f"bad series coefficient {p!r}", at)
        if m[2] and int(m[2]) == 0:
            raise ParseError("zero denominator", at)
        coeffs.append(Fraction(int(m[1]), int(m[2] or 1)))
        start += len(part) + 1
    return PowerSeries1(coeffs)


def series_integrate_monomial_weighted(c: PowerSeries1, n: int) -> PowerSeries1:
    """Solve (2/(n+2)) t w' + w = c with w(0) = c(0), coefficientwise.

    The solution is w(t) = t^{-(n+2)/2} \\int_0^t ((n+2)/2) s^{n/2} c(s) ds,
    whose expansion has w_j = c_j (n+2)/(n+2+2j): substituting w into the
    equation gives, at t^j, w_j (2j/(n+2) + 1) = c_j.
    """
    if n < 0:
        raise ValueError("n must be a natural number")
    return PowerSeries1._trusted(tuple(
        Fraction(cj.numerator * (n + 2), cj.denominator * (n + 2 + 2 * j)) if cj else cj
        for j, cj in enumerate(c.coefficients)
    ))


def series_rational_power(s: PowerSeries1, q: Rat) -> PowerSeries1:
    """s^q for a series with constant term 1, by J. C. P. Miller's recurrence.

    r = s^q solves r' s = q s' r with r_0 = 1; comparing coefficients of
    t^(k-1) gives

        r_k = (1/k) * sum_{1 <= i <= k, s_i != 0} ((q + 1) i - k) s_i r_{k-i}

    (Knuth, *TAOCP* vol. 2, section 4.7).  The sum runs over the support of
    s only, and it runs in integers: with s_i = a_i/d over the lcm d of the
    coefficient denominators, q + 1 = p/m and r_j = num_j/den_j reduced,
    step k puts its terms over L = lcm of the den_{k-i} it reads,

        r_k = sum ((p i - k m) a_i num_{k-i} (L / den_{k-i})) / (L k m d),

    and builds r_k as one Fraction, whose gcd is the only reduction of the
    step.  So the cost is O(N * #supp s) integer multiply-adds and N
    reductions at truncation order N.  Raises :class:`SeriesError` if
    s(0) != 1.
    """
    if s[0] != 1:
        raise SeriesError("rational powers require constant term 1")
    q1 = Fraction(q) + 1
    p, m = q1.numerator, q1.denominator
    d = math.lcm(*(c.denominator for c in s.coefficients))
    support = [
        (i, p * i, c.numerator * (d // c.denominator))
        for i, c in enumerate(s.coefficients) if i and c
    ]
    r = [Fraction(1)]
    num, den = [1], [1]  # r_j = num[j] / den[j], reduced
    active = 0  # support[:active] holds the terms with i <= k
    for k in range(1, s.order + 1):
        if active < len(support) and support[active][0] == k:
            active += 1
        terms = support[:active]
        L = math.lcm(*(den[k - i] for i, _, _ in terms))
        km = k * m
        acc = 0
        for i, pi, a in terms:
            if num[k - i]:
                acc += (pi - km) * a * num[k - i] * (L // den[k - i])
        rk = Fraction(acc, L * km * d)
        r.append(rk)
        num.append(rk.numerator)
        den.append(rk.denominator)
    return PowerSeries1._trusted(tuple(r))
