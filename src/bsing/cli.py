"""Command-line front end.

Subcommands: milnor | spectrum | table | isochore | versal | reduce.
Exit codes partition outcomes: 0 success, 1 parse error, 2 non-isolated
input, 3 non-quasihomogeneous input, 4 invalid series input.

Everything is printed as exact rationals (p/q in text, {"num","den"} in
JSON); output is deterministic, so the table command is suitable for
golden-file comparison.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import corpus
from .boundary import BoundarySingularity, InvalidGermError, NonIsolatedError
from .standard_basis import INFINITE
from .isochore import Deformation, versality_check, isochore_psi
from .polyring import (
    ParseError,
    PowerSeries1,
    SeriesError,
    VarContext,
    format_monomial,
    parse_polynomial,
    parse_series,
)
from .quasihomog import (
    NotQuasihomogeneousError,
    brieskorn_reduce,
    detect_weights,
    format_t_polynomial,
    spectrum,
)
from .report import (
    SCHEMA_VERSION,
    Report,
    build_report,
    rational_to_json,
    render_milnor,
    render_spectrum,
    render_table_row,
)

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_NON_ISOLATED = 2
EXIT_NOT_QUASIHOMOGENEOUS = 3
EXIT_BAD_SERIES = 4


class _Parser(argparse.ArgumentParser):
    """argparse flag errors count as parse errors (exit 1)."""

    def error(self, message):
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


def _context(args, params: tuple[str, ...] = ()) -> VarContext:
    """The variables of --vars, then ``params``, with --boundary marked."""
    names = tuple(s.strip() for s in args.vars.split(",") if s.strip())
    if not (names or params):
        raise ParseError("no variables declared")
    if args.boundary not in names:
        raise ParseError(f"boundary variable {args.boundary!r} not in --vars")
    if len(set(names + params)) < len(names + params):
        raise ParseError("variable and parameter names must be distinct")
    return VarContext(names + params, names.index(args.boundary))


def _emit(text: str, args) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_milnor(args) -> int:
    ctx = _context(args)
    f = parse_polynomial(args.f, ctx)
    bs = BoundarySingularity(f, allow_non_isolated=True)
    report = build_report(args.f, bs)
    if args.json:
        _emit(report.to_json() + "\n", args)
    else:
        _emit(render_milnor(report), args)
    if INFINITE in (bs.mu_ambient, bs.mu_restriction, bs.mu_boundary):
        return EXIT_NON_ISOLATED
    return EXIT_OK


def cmd_spectrum(args) -> int:
    ctx = _context(args)
    f = parse_polynomial(args.f, ctx)
    bs = BoundarySingularity(f)
    w = detect_weights(f)
    spec = spectrum(bs, w)
    report = build_report(args.f, bs, weights=w, spec=spec)
    if args.json:
        _emit(report.to_json() + "\n", args)
    else:
        _emit(render_spectrum(report), args)
    return EXIT_OK


def _family_reports(family: str, k_max: int | None) -> list[tuple[int | None, Report]]:
    fam = corpus.NORMAL_FORMS[family]
    if fam.k_min is not None and (k_max is None or k_max < fam.k_min):
        raise ParseError(f"family {family} needs --k-max >= {fam.k_min}")
    rows: list[tuple[int | None, Report]] = []
    for k in fam.k_values(k_max):
        f = corpus.family_normal_form(family, k)
        bs = BoundarySingularity(f)
        w = detect_weights(f)
        spec = spectrum(bs, w)
        text = " + ".join(format_monomial(m, ("x", "y")) for m in fam.monomials(k))
        rows.append((k, build_report(text, bs, weights=w, spec=spec)))
    return rows


def cmd_table(args) -> int:
    family = args.family
    rows = _family_reports(family, args.k_max)
    if args.json:
        payload = {
            "schema": SCHEMA_VERSION,
            "command": "table",
            "family": family,
            "rows": [
                {"k": k, **r.to_json_dict()} for k, r in rows
            ],
        }
        _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args)
    else:
        form = corpus.NORMAL_FORMS[family].form
        lines = [f"# family {family}: f = {form}, boundary {{x = 0}}"]
        lines.extend(render_table_row(r, k) for k, r in rows)
        _emit("\n".join(lines) + "\n", args)
    return EXIT_OK


def cmd_isochore(args) -> int:
    if args.n < 0:
        raise ParseError("--n must be a natural number")
    if args.order is not None and args.order < 0:
        raise ParseError("--order must be a natural number")
    try:
        c = parse_series(args.c)
    except ParseError as e:
        raise SeriesError(str(e)) from e
    if args.order is not None:
        if args.order < c.order:
            c = c.truncate(args.order)
        else:
            c = c.pad(args.order)
    w, psi = isochore_psi(c, args.n)
    v = PowerSeries1(psi.coefficients[1:])  # psi = t * v
    if args.json:
        payload = {
            "schema": SCHEMA_VERSION,
            "command": "isochore",
            "n": args.n,
            "c": [rational_to_json(x) for x in c.coefficients],
            "w": [rational_to_json(x) for x in w.coefficients],
            "v": [rational_to_json(x) for x in v.coefficients],
            "psi": [rational_to_json(x) for x in psi.coefficients],
        }
        _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args)
    else:
        lines = [
            f"n = {args.n}",
            f"c   = {c}",
            f"w   = {w}",
            f"v   = {v}",
            f"psi = {psi}",
        ]
        _emit("\n".join(lines) + "\n", args)
    return EXIT_OK


def cmd_versal(args) -> int:
    params = tuple(s.strip() for s in args.params.split(",") if s.strip())
    if not params:
        raise ParseError("no parameters declared")
    F = parse_polynomial(args.F, _context(args, params))
    d = Deformation.from_family(F, params)
    rep = versality_check(d)
    missing = [
        format_monomial(m, d.base.ctx.names) for m in rep.missing_directions
    ]
    if args.json:
        payload = {
            "schema": SCHEMA_VERSION,
            "command": "versal",
            "F": args.F,
            "params": list(params),
            "base_f": str(d.base.f),
            "mu_boundary": d.base.mu_boundary,
            "versal": rep.versal,
            "spanned_dimension": rep.spanned_dimension,
            "missing_directions": missing,
        }
        _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args)
    else:
        lines = [
            f"F = {args.F}",
            f"parameters: {', '.join(params)}",
            f"base f = {d.base.f}",
            f"mu_(f,H) = {d.base.mu_boundary}",
            f"spanned dimension = {rep.spanned_dimension}",
            f"versal: {'yes' if rep.versal else 'no'}",
        ]
        if missing:
            lines.append(f"missing directions: {', '.join(missing)}")
        _emit("\n".join(lines) + "\n", args)
    return EXIT_OK


def cmd_reduce(args) -> int:
    ctx = _context(args)
    f = parse_polynomial(args.f, ctx)
    g = parse_polynomial(args.g, ctx)
    bs = BoundarySingularity(f)
    w = detect_weights(f)
    cls = brieskorn_reduce(g, bs, w)
    spec = spectrum(bs, w)  # the staircase of the tracked basis above
    if args.json:
        payload = {
            "schema": SCHEMA_VERSION,
            "command": "reduce",
            "f": args.f,
            "g": args.g,
            "slots": [
                {
                    "monomial": format_monomial(e.monomial, ctx.names),
                    "exponents": list(e.monomial),
                    "alpha": rational_to_json(e.alpha),
                    "c": [
                        [p, rational_to_json(v)]
                        for p, v in sorted(cls.coordinate(i).items())
                    ],
                }
                for i, e in enumerate(spec.entries)
            ],
        }
        _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args)
    else:
        lines = [f"f = {args.f}", f"g = {args.g}", "slot  monomial  alpha  c_i(t)"]
        for i, e in enumerate(spec.entries):
            lines.append(
                f"{i}  {format_monomial(e.monomial, ctx.names)}  {e.alpha}  "
                f"{format_t_polynomial(cls.coordinate(i))}"
            )
        _emit("\n".join(lines) + "\n", args)
    return EXIT_OK


@functools.cache
def build_parser() -> _Parser:
    """The argument parser, built once per process and shared by every
    :func:`main` call; parsing leaves no state on it."""
    parser = _Parser(prog="bsing", description=__doc__)
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--vars", default="x,y", help="comma-separated variables")
    shared.add_argument("--boundary", default="x", help="boundary variable")
    shared.add_argument("--json", action="store_true", help="machine-readable output")
    shared.add_argument("--out", default=None, help="write output to a file")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("milnor", parents=[shared], help="Milnor numbers and additivity")
    p.add_argument("--f", required=True, help="the germ, e.g. 'x^2+y^3'")

    p = sub.add_parser("spectrum", parents=[shared], help="spectrum, residue, monodromy")
    p.add_argument("--f", required=True)

    p = sub.add_parser("table", parents=[shared], help="family tables A/B/C/F4")
    p.add_argument("--family", required=True, choices=list(corpus.NORMAL_FORMS))
    p.add_argument("--k-max", dest="k_max", type=int, default=None)

    p = sub.add_parser("isochore", parents=[shared],
                       help="volume-matching series w, v and psi")
    p.add_argument("--c", required=True, help="series coefficients, e.g. '1,1,1/2'")
    p.add_argument("--n", type=int, required=True, help="number of non-boundary variables")
    p.add_argument("--order", type=int, default=None, help="truncation order")

    p = sub.add_parser("versal", parents=[shared], help="infinitesimal isochore versality")
    p.add_argument("--F", required=True, help="family, e.g. 'x^2+y^3+l1*x'")
    p.add_argument("--params", required=True, help="comma-separated parameter names")

    p = sub.add_parser("reduce", parents=[shared],
                       help="volume-form class in the monomial basis")
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # looked up at call time, so a cmd_* rebound after the parser was built
    # (as the benchmark tracer does) is the one that runs
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except InvalidGermError as e:
        print(f"invalid germ: {e}", file=sys.stderr)
        return EXIT_PARSE
    except NonIsolatedError as e:
        print(f"non-isolated: {e}", file=sys.stderr)
        return EXIT_NON_ISOLATED
    except NotQuasihomogeneousError as e:
        print(f"not quasihomogeneous: {e}", file=sys.stderr)
        return EXIT_NOT_QUASIHOMOGENEOUS
    except SeriesError as e:
        print(f"invalid series input: {e}", file=sys.stderr)
        return EXIT_BAD_SERIES


if __name__ == "__main__":
    sys.exit(main())
