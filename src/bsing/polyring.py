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


def monomial_divides(a: Monomial, b: Monomial) -> bool:
    """True if ``a`` divides ``b`` exponentwise."""
    return all(x <= y for x, y in zip(a, b))


def monomial_div(a: Monomial, b: Monomial) -> Monomial:
    """Quotient a / b; caller guarantees divisibility."""
    return tuple(x - y for x, y in zip(a, b))


def monomial_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(max(x, y) for x, y in zip(a, b))


def monomial_weighted_degree(m: Monomial, weights: Sequence[Fraction]) -> Fraction:
    return sum((w * e for w, e in zip(weights, m)), Fraction(0))


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
            if len(m) != n:
                raise ValueError(f"monomial {m} does not fit arity {n}")
            if any(e < 0 for e in m):
                raise ValueError(f"negative exponent in {m}")
            c = Fraction(c)
            if c != 0:
                clean[tuple(m)] = clean.get(tuple(m), Fraction(0)) + c
                if clean[tuple(m)] == 0:
                    del clean[tuple(m)]
        self.context = context
        self._terms = clean
        self._hash: int | None = None

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
            out[m] = out.get(m, Fraction(0)) + c
        return Polynomial(self.context, out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        out = dict(self._terms)
        for m, c in other._terms.items():
            out[m] = out.get(m, Fraction(0)) - c
        return Polynomial(self.context, out)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.context, {m: -c for m, c in self._terms.items()})

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check(other)
        out: dict[Monomial, Fraction] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                m = monomial_mul(m1, m2)
                out[m] = out.get(m, Fraction(0)) + c1 * c2
        return Polynomial(self.context, out)

    __rmul__ = __mul__

    def scale(self, c: Rat) -> "Polynomial":
        c = Fraction(c)
        if c == 0:
            return Polynomial.zero(self.context)
        return Polynomial(self.context, {m: c * v for m, v in self._terms.items()})

    def mul_monomial(self, m: Monomial, c: Rat = 1) -> "Polynomial":
        c = Fraction(c)
        return Polynomial(
            self.context, {monomial_mul(m, t): c * v for t, v in self._terms.items()}
        )

    def partial_derivative(self, i: int) -> "Polynomial":
        out: dict[Monomial, Fraction] = {}
        for m, c in self._terms.items():
            if m[i] > 0:
                dm = m[:i] + (m[i] - 1,) + m[i + 1 :]
                out[dm] = out.get(dm, Fraction(0)) + c * m[i]
        return Polynomial(self.context, out)

    def substitute_zero(self, i: int) -> "Polynomial":
        """Set variable ``i`` to zero and drop it from the context."""
        out: dict[Monomial, Fraction] = {}
        for m, c in self._terms.items():
            if m[i] == 0:
                dm = m[:i] + m[i + 1 :]
                out[dm] = out.get(dm, Fraction(0)) + c
        return Polynomial(self.context.drop(i), out)

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
    r"|(?P<op>[-+*^]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            stripped = text[pos:].lstrip()
            at = len(text) - len(stripped)
            raise ParseError(f"unexpected character {stripped[0]!r}", at)
        if m.lastgroup:
            tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
        pos = m.end()
    return tokens


def parse_polynomial(text: str, ctx: VarContext) -> Polynomial:
    """Parse ``text`` into a canonical Polynomial over ``ctx``.

    Grammar: terms joined by ``+``/``-``; a term is a ``*``-joined product
    of integer or ``p/q`` coefficients and ``var[^exp]`` factors (the ``*``
    before a variable may be omitted after a coefficient).  Raises
    :class:`ParseError` with a position for malformed input and for
    variable names not declared in the context.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty polynomial", 0)
    result = Polynomial.zero(ctx)
    i = 0
    sign = 1
    # leading sign
    if tokens[i][0] == "op" and tokens[i][1] in "+-":
        sign = -1 if tokens[i][1] == "-" else 1
        i += 1

    def parse_term(i: int) -> tuple[Fraction, Monomial, int]:
        coeff = Fraction(1)
        exps = [0] * ctx.arity
        saw_factor = False
        expect_factor = True
        while i < len(tokens):
            kind, val, pos = tokens[i]
            if kind == "op" and val in "+-" and not expect_factor:
                break
            if kind == "op" and val == "*":
                if expect_factor:
                    raise ParseError("unexpected '*'", pos)
                expect_factor = True
                i += 1
                continue
            if not expect_factor and kind in ("number", "name"):
                # implicit product like "2x" or "x y" is only allowed
                # between a coefficient and a variable
                if kind == "name" and tokens[i - 1][0] == "number":
                    pass
                else:
                    raise ParseError("missing operator", pos)
            if kind == "number":
                if "/" in val:
                    num, den = val.split("/")
                    if int(den) == 0:
                        raise ParseError("zero denominator", pos)
                    coeff *= Fraction(int(num), int(den))
                else:
                    coeff *= int(val)
                saw_factor = True
                expect_factor = False
                i += 1
            elif kind == "name":
                if val not in ctx.names:
                    raise ParseError(f"unknown variable {val!r}", pos)
                vi = ctx.index(val)
                e = 1
                i += 1
                if i < len(tokens) and tokens[i][0] == "op" and tokens[i][1] == "^":
                    i += 1
                    if i >= len(tokens) or tokens[i][0] != "number":
                        raise ParseError("expected integer exponent after '^'",
                                         tokens[i - 1][2])
                    if "/" in tokens[i][1]:
                        raise ParseError("exponent must be an integer", tokens[i][2])
                    e = int(tokens[i][1])
                    i += 1
                exps[vi] += e
                saw_factor = True
                expect_factor = False
            else:
                raise ParseError(f"unexpected {val!r}", pos)
        if expect_factor or not saw_factor:
            where = tokens[i - 1][2] if i > 0 else 0
            raise ParseError("incomplete term", where)
        return coeff, tuple(exps), i

    while True:
        coeff, mono, i = parse_term(i)
        result = result + Polynomial.monomial(ctx, mono, sign * coeff)
        if i >= len(tokens):
            break
        kind, val, pos = tokens[i]
        if kind == "op" and val in "+-":
            sign = -1 if val == "-" else 1
            i += 1
            if i >= len(tokens):
                raise ParseError("dangling operator", pos)
        else:
            raise ParseError(f"unexpected {val!r}", pos)
    return result


# -- weighted structure --------------------------------------------------------


def check_weights(weights: Sequence[Rat], arity: int) -> tuple[Fraction, ...]:
    w = tuple(Fraction(x) for x in weights)
    if len(w) != arity:
        raise ValueError("one weight per variable required")
    if any(x <= 0 for x in w):
        raise ValueError("weights must be positive")
    return w


def weighted_degree(p: Polynomial, weights: Sequence[Rat]) -> Fraction | None:
    """Common weighted degree of all terms of ``p``, or None if the terms
    have mixed weighted degrees.  Raises on the zero polynomial."""
    if p.is_zero():
        raise ValueError("zero polynomial has no weighted degree")
    w = check_weights(weights, p.context.arity)
    degs = {monomial_weighted_degree(m, w) for m in p._terms}
    if len(degs) == 1:
        return degs.pop()
    return None


def quasihomogeneous_components(
    p: Polynomial, weights: Sequence[Rat]
) -> list[tuple[Fraction, Polynomial]]:
    """Split ``p`` into weighted-homogeneous parts, sorted by increasing
    degree.  Concatenating and summing the parts returns ``p`` exactly."""
    w = check_weights(weights, p.context.arity)
    buckets: dict[Fraction, dict[Monomial, Fraction]] = {}
    for m, c in p._terms.items():
        buckets.setdefault(monomial_weighted_degree(m, w), {})[m] = c
    return [
        (d, Polynomial(p.context, terms)) for d, terms in sorted(buckets.items())
    ]


# -- truncated univariate power series ----------------------------------------


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
        return PowerSeries1(
            self.coefficients + (Fraction(0),) * (order - self.order)
        )

    def truncate(self, order: int) -> "PowerSeries1":
        return PowerSeries1(self.coefficients[: order + 1])

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
        return PowerSeries1((Fraction(0),) + self.coefficients)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coefficients)

    def __str__(self) -> str:
        return ", ".join(str(c) for c in self.coefficients)

    def __repr__(self) -> str:
        return f"PowerSeries1([{self}])"


def parse_series(text: str) -> PowerSeries1:
    """Parse comma-separated rational coefficients: ``1,1,1/2`` is
    1 + t + t^2/2."""
    parts = [p.strip() for p in text.split(",")]
    coeffs = []
    pos = 0
    for p in parts:
        if not re.fullmatch(r"-?\d+(/\d+)?", p):
            raise ParseError(f"bad series coefficient {p!r}", pos)
        coeffs.append(Fraction(p))
        pos += len(p) + 1
    return PowerSeries1(coeffs)


def series_integrate_monomial_weighted(c: PowerSeries1, n: int) -> PowerSeries1:
    """Solve (2/(n+2)) t w' + w = c with w(0) = c(0), coefficientwise.

    The solution is w(t) = t^{-(n+2)/2} \\int_0^t ((n+2)/2) s^{n/2} c(s) ds,
    whose expansion has w_j = c_j (n+2)/(n+2+2j): substituting w into the
    equation gives, at t^j, w_j (2j/(n+2) + 1) = c_j.
    """
    if n < 0:
        raise ValueError("n must be a natural number")
    return PowerSeries1(
        [c[j] * Fraction(n + 2, n + 2 + 2 * j) for j in range(c.order + 1)]
    )


def series_rational_power(s: PowerSeries1, q: Rat) -> PowerSeries1:
    """s^q for a series with constant term 1, by J. C. P. Miller's recurrence.

    r = s^q solves r' s = q s' r with r_0 = 1; comparing coefficients of
    t^(k-1) gives

        r_k = (1/k) * sum_{1 <= i <= k, s_i != 0} ((q + 1) i - k) s_i r_{k-i}

    (Knuth, *TAOCP* vol. 2, section 4.7).  The sum runs over the support of
    s only, so the cost is O(N * #supp s) exact Fraction operations at
    truncation order N.  Raises :class:`SeriesError` if s(0) != 1.
    """
    if s[0] != 1:
        raise SeriesError("rational powers require constant term 1")
    q1 = Fraction(q) + 1
    support = [(i, q1 * i * c, c) for i, c in enumerate(s.coefficients) if i and c]
    r = [Fraction(1)]
    for k in range(1, s.order + 1):
        acc = Fraction(0)
        for i, a, c in support:
            if i > k:
                break
            acc += (a - k * c) * r[k - i]
        r.append(acc / k)
    return PowerSeries1(r)
