"""Report data model shared by the CLI commands.

Rationals are serialized as {"num": p, "den": q} objects and printed as
p/q; infinite Milnor numbers appear as the string "infinite".  Reports
round-trip through JSON exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .boundary import BoundarySingularity, check_additivity, milnor_numbers
from .polyring import Monomial, Polynomial, format_monomial
from .quasihomog import RootOfUnity, Spectrum
from .standard_basis import INFINITE

SCHEMA_VERSION = 1


def rational_to_json(x: Fraction) -> dict:
    return {"num": x.numerator, "den": x.denominator}


def rational_from_json(obj: dict) -> Fraction:
    return Fraction(obj["num"], obj["den"])


def _mu_to_json(mu: int | float | None):
    if mu is None:
        return None
    return "infinite" if mu == INFINITE else int(mu)


def _mu_from_json(value):
    if value is None:
        return None
    return INFINITE if value == "infinite" else int(value)


@dataclass(frozen=True)
class SpectrumRow:
    monomial: Monomial
    monomial_text: str
    alpha: Fraction
    alpha_minus_one: Fraction
    rotation: Fraction

    def to_json_dict(self) -> dict:
        return {
            "monomial": list(self.monomial),
            "monomial_text": self.monomial_text,
            "alpha": rational_to_json(self.alpha),
            "alpha_minus_one": rational_to_json(self.alpha_minus_one),
            "rotation": rational_to_json(self.rotation),
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "SpectrumRow":
        return cls(
            monomial=tuple(obj["monomial"]),
            monomial_text=obj["monomial_text"],
            alpha=rational_from_json(obj["alpha"]),
            alpha_minus_one=rational_from_json(obj["alpha_minus_one"]),
            rotation=rational_from_json(obj["rotation"]),
        )


@dataclass(frozen=True)
class Report:
    """Input echo plus Milnor data, optional spectrum rows and tag."""

    f_text: str
    variables: tuple[str, ...]
    boundary: str
    weights: tuple[Fraction, ...] | None = None
    mu_f: int | float | None = None
    mu_restriction: int | float | None = None
    mu_boundary: int | float | None = None
    additivity_ok: bool | None = None
    spectrum_rows: tuple[SpectrumRow, ...] | None = None
    classification: str | None = None

    def to_json_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "f": self.f_text,
            "vars": list(self.variables),
            "boundary": self.boundary,
            "weights": None
            if self.weights is None
            else [rational_to_json(w) for w in self.weights],
            "milnor": {
                "mu_f": _mu_to_json(self.mu_f),
                "mu_restriction": _mu_to_json(self.mu_restriction),
                "mu_boundary": _mu_to_json(self.mu_boundary),
                "additivity_ok": self.additivity_ok,
            },
            "spectrum": None
            if self.spectrum_rows is None
            else [row.to_json_dict() for row in self.spectrum_rows],
            "classification": self.classification,
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "Report":
        if obj.get("schema") != SCHEMA_VERSION:
            raise ValueError(f"unsupported schema {obj.get('schema')!r}")
        milnor = obj["milnor"]
        return cls(
            f_text=obj["f"],
            variables=tuple(obj["vars"]),
            boundary=obj["boundary"],
            weights=None
            if obj["weights"] is None
            else tuple(rational_from_json(w) for w in obj["weights"]),
            mu_f=_mu_from_json(milnor["mu_f"]),
            mu_restriction=_mu_from_json(milnor["mu_restriction"]),
            mu_boundary=_mu_from_json(milnor["mu_boundary"]),
            additivity_ok=milnor["additivity_ok"],
            spectrum_rows=None
            if obj["spectrum"] is None
            else tuple(SpectrumRow.from_json_dict(r) for r in obj["spectrum"]),
            classification=obj["classification"],
        )

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Report":
        return cls.from_json_dict(json.loads(text))


def spectrum_rows(spec: Spectrum) -> tuple[SpectrumRow, ...]:
    return tuple(
        SpectrumRow(
            monomial=e.monomial,
            monomial_text=format_monomial(e.monomial, spec.names),
            alpha=e.alpha,
            alpha_minus_one=e.alpha - 1,
            rotation=e.alpha % 1,
        )
        for e in spec.entries
    )


def classify_normal_form(f: Polynomial) -> str:
    """Tag exact plane normal forms: A_k = x + y^(k+1), B_k = x^k + y^2,
    C_k = x*y + y^k, F_4 = x^2 + y^3 (x the boundary variable); anything
    else is "unclassified"."""
    ctx = f.context
    if ctx.arity != 2 or ctx.boundary_index is None:
        return "unclassified"
    b = ctx.boundary_index
    v = 1 - b

    def exps(xe: int, ye: int) -> Monomial:
        m = [0, 0]
        m[b], m[v] = xe, ye
        return tuple(m)

    terms = f.terms
    if len(terms) != 2 or any(c != 1 for c in terms.values()):
        return "unclassified"
    support = set(terms)
    if exps(2, 0) in support and exps(0, 3) in support:
        return "F_4"
    if exps(1, 0) in support:
        other = (support - {exps(1, 0)}).pop()
        if other[b] == 0 and other[v] >= 2:
            return f"A_{other[v] - 1}"
        return "unclassified"
    if exps(0, 2) in support:
        other = (support - {exps(0, 2)}).pop()
        if other[v] == 0 and other[b] >= 2:
            return f"B_{other[b]}"
        return "unclassified"
    if exps(1, 1) in support:
        other = (support - {exps(1, 1)}).pop()
        if other[b] == 0 and other[v] >= 2:
            return f"C_{other[v]}"
        return "unclassified"
    return "unclassified"


def build_report(
    f_text: str,
    bs: BoundarySingularity,
    weights: tuple[Fraction, ...] | None = None,
    spec: Spectrum | None = None,
) -> Report:
    mu_a, mu_r, mu_b = milnor_numbers(bs)
    finite = INFINITE not in (mu_a, mu_r, mu_b)
    return Report(
        f_text=f_text,
        variables=bs.ctx.names,
        boundary=bs.ctx.names[bs.ctx.boundary_index],
        weights=weights,
        mu_f=mu_a,
        mu_restriction=mu_r,
        mu_boundary=mu_b,
        additivity_ok=check_additivity(bs) if finite else None,
        spectrum_rows=None if spec is None else spectrum_rows(spec),
        classification=None if weights is None else classify_normal_form(bs.f),
    )


# -- text rendering ----------------------------------------------------------


def _mu_text(mu: int | float | None) -> str:
    if mu is None:
        return "?"
    return "infinite" if mu == INFINITE else str(int(mu))


def render_milnor(report: Report) -> str:
    lines = [
        f"f = {report.f_text}",
        f"boundary: {report.boundary}",
        f"mu_f     = {_mu_text(report.mu_f)}",
        f"mu_f|H   = {_mu_text(report.mu_restriction)}",
        f"mu_(f,H) = {_mu_text(report.mu_boundary)}",
    ]
    if report.additivity_ok is None:
        lines.append("additivity: not applicable (infinite Milnor number)")
    else:
        tag = "ok" if report.additivity_ok else "VIOLATED (bug)"
        lines.append(
            f"additivity: {tag} ({_mu_text(report.mu_boundary)} = "
            f"{_mu_text(report.mu_f)} + {_mu_text(report.mu_restriction)})"
        )
    return "\n".join(lines) + "\n"


def _require_spectrum(report: Report) -> None:
    if report.weights is None or report.spectrum_rows is None:
        raise ValueError(
            "report has no weights or spectrum rows; build it with a spectrum"
        )


def render_spectrum(report: Report) -> str:
    _require_spectrum(report)
    head = [
        f"f = {report.f_text}",
        f"boundary: {report.boundary}",
        "weights: (" + ", ".join(str(w) for w in report.weights) + ")",
        f"mu = ({_mu_text(report.mu_f)}, {_mu_text(report.mu_restriction)}, "
        f"{_mu_text(report.mu_boundary)})",
        f"classification: {report.classification}",
    ]
    rows = [("monomial", "alpha", "alpha-1", "rotation", "monodromy")]
    for r in report.spectrum_rows:
        rows.append(
            (
                r.monomial_text,
                str(r.alpha),
                str(r.alpha_minus_one),
                str(r.rotation),
                str(RootOfUnity(r.rotation)),
            )
        )
    widths = [max(len(row[i]) for row in rows) for i in range(5)]
    table = [
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        for row in rows
    ]
    return "\n".join(head + table) + "\n"


def render_table_row(report: Report, k: int | None = None) -> str:
    _require_spectrum(report)
    spectrum_text = ", ".join(str(r.alpha) for r in report.spectrum_rows)
    prefix = f"k={k}  " if k is not None else ""
    return (
        f"{prefix}f = {report.f_text}  "
        f"weights = ({', '.join(str(w) for w in report.weights)})  "
        f"mu = ({_mu_text(report.mu_f)}, {_mu_text(report.mu_restriction)}, "
        f"{_mu_text(report.mu_boundary)})  "
        f"spectrum = {{{spectrum_text}}}"
    )
