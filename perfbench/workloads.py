"""The four workloads of the bsing benchmark.

A workload is built once per run by ``build(mods, seed)``, which does the
set-up (input generation and any warm-up construction) and returns a
function ``make_pass(k)``.  That function returns the fixed op list of
pass ``k``: the same structure on every pass (monomials and slots drawn
by ``_shape``), with coefficients drawn from ``(seed, k)``.  So no pass
repeats the polynomials of another one, two runs with one seed see the
same inputs pass by pass, and seeds do not change the amount of work.

An op is a timed call (``run``) plus an untimed check of its result
(``check``), which returns ``None`` when the result is right and a reason
otherwise.  Ops of one pass share a ``state`` dict, so a later op can use
what an earlier one built (the membership ops use the germ built just
before them).  Expected answers come from closed forms, golden files and
the identities of the paper, never from a second bsing computation of
the same quantity.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "golden"
INF = math.inf


@dataclass
class Op:
    label: str
    run: Callable[[dict], Any]
    check: Callable[[Any, dict], "str | None"]


def _rng(name: str, seed: int, k: int) -> random.Random:
    return random.Random(f"bsing-bench/{name}/{seed}/{k}")


def _shape(name: str) -> random.Random:
    """Draws the structure of the inputs (which monomials, which slots),
    the same for every seed and pass; coefficients come from ``_rng``.
    Seeds then change values but not the amount of work, so runs with
    different seeds stay comparable."""
    return random.Random(f"bsing-bench/{name}/shape")


def _nonzero(rng: random.Random, bound: int = 3) -> int:
    return rng.choice([c for c in range(-bound, bound + 1) if c != 0])


def _mono(exps: tuple[int, ...], i: int, e: int) -> tuple[int, ...]:
    m = [0] * len(exps)
    m[i] = e
    return tuple(m)


def _expect(got, want) -> "str | None":
    return None if got == want else f"got {got!r}, expected {want!r}"


# -- closed forms ----------------------------------------------------------------
#
# A Brieskorn-Pham principal part sum c_i x_i^(e_i) (x = x_0 the boundary
# variable) has weights 1/e_i.  Its Milnor numbers are mu_f = prod(e_i - 1),
# mu_f|H = prod over the non-boundary exponents, mu_(f,H) = their sum, and
# terms of weighted degree > 1 change none of them.  The boundary spectrum
# is {sum_i j_i/e_i : 1 <= j_i < e_i} plus {1 + sum_(i>0) j_i/e_i}, and the
# box {x^i y^j ... : i < e_0, j < e_1 - 1, ...} is a monomial basis of the
# boundary Jacobian quotient (the weighted initial forms x^e0, y^(e1-1), ...
# of its generators are a regular sequence).


def bp_milnor(exps) -> tuple[int, int, int]:
    mu_f = math.prod(e - 1 for e in exps)
    mu_r = math.prod(e - 1 for e in exps[1:])
    return mu_f, mu_r, mu_f + mu_r


def bp_spectrum(exps) -> list[Fraction]:
    def grid(es):
        return [
            sum((Fraction(j, e) for j, e in zip(js, es)), Fraction(0))
            for js in itertools.product(*(range(1, e) for e in es))
        ]

    return sorted(grid(exps) + [1 + a for a in grid(exps[1:])])


def bp_box(exps) -> list[tuple[int, ...]]:
    bounds = [exps[0]] + [e - 1 for e in exps[1:]]
    return list(itertools.product(*(range(b) for b in bounds)))


def c_family_spectrum(k: int) -> list[Fraction]:
    """C_k = x*y + y^k: Morse ambient part {1} and shifted y^k part."""
    return sorted([Fraction(1)] + [1 + Fraction(j, k) for j in range(1, k)])


class _Germs:
    """Polynomial helpers over the contexts of the benchmark."""

    def __init__(self, mods):
        self.P = mods.polyring.Polynomial
        VarContext = mods.polyring.VarContext
        self.ctx = {2: VarContext(("x", "y"), 0), 3: VarContext(("x", "y", "z"), 0)}

    def poly(self, arity: int, terms: dict) -> Any:
        return self.P(self.ctx[arity], terms)

    def perturbed_bp(self, shape, rng, exps, n_terms: int = 2):
        """Pure-power principal part plus ``n_terms`` terms of weighted
        degree in (1, 3/2]; monomials from ``shape``, coefficients seeded."""
        terms = {_mono(exps, i, e): _nonzero(rng) for i, e in enumerate(exps)}
        upper = [
            m for m in itertools.product(*(range(e + 1) for e in exps))
            if 1 < sum(Fraction(a, e) for a, e in zip(m, exps)) <= Fraction(3, 2)
        ]
        for m in shape.sample(upper, min(n_terms, len(upper))):
            terms[m] = terms.get(m, 0) + _nonzero(rng)
        return self.poly(len(exps), terms)

    def random_poly(self, shape, rng, arity, n_terms, max_degree):
        monos = set()
        while len(monos) < n_terms:
            m = tuple(shape.randint(0, max_degree) for _ in range(arity))
            if sum(m) <= max_degree:
                monos.add(m)
        return self.poly(arity, {m: _nonzero(rng) for m in sorted(monos)})


# -- milnor ----------------------------------------------------------------------

MILNOR_2 = [(2, 3), (3, 4), (4, 5), (5, 7), (6, 8), (7, 9), (8, 11), (3, 10),
            (4, 7), (5, 6), (2, 9), (6, 11)]
MILNOR_3 = [(2, 2, 2), (2, 3, 3), (2, 3, 4), (3, 3, 3), (2, 2, 5), (2, 4, 4),
            (3, 3, 4)]
# Non-isolated germs walk the whole cap ladder and then the uncapped
# fallback: about 0.4 s in 2 variables and 4.5 s in 3, against at most
# about 0.25 s for an isolated germ above.  Nine per pass put 18 of them
# in a pool of two passes, so the tail sample (10 beyond it) is one of the
# 2-variable ones, near their middle.
MILNOR_NON_ISOLATED = [{(2, 2): 1}, {(2, 3): 1}, {(3, 2): 1}, {(1, 3): 1},
                       {(3, 3): 1}, {(2, 4): 1}, {(4, 2): 1}, {(4, 4): 1},
                       {(0, 2, 2): 1, (3, 0, 0): 1}]


def build_milnor(mods, seed: int):
    G = _Germs(mods)
    boundary = mods.boundary

    def triple_op(label, key, f, want):
        def run(state):
            bs = boundary.BoundarySingularity(f, allow_non_isolated=True)
            state[key] = bs
            try:
                additive = boundary.check_additivity(bs)
            except boundary.NonIsolatedError:
                additive = "non-isolated"
            return (*boundary.milnor_numbers(bs), additive)

        return Op(label, run, lambda got, state: _expect(got, want))

    def member_op(label, key, p, want):
        def run(state):
            return state[key].sb_boundary.contains(p)

        return Op(label, run, lambda got, state: _expect(got, want))

    def make_pass(k: int) -> list[Op]:
        rng, shape = _rng("milnor", seed, k), _shape("milnor")
        ops = []
        for n, terms in enumerate(MILNOR_NON_ISOLATED):
            arity = len(next(iter(terms)))
            f = G.poly(arity, {m: c * _nonzero(rng) for m, c in terms.items()})
            ops.append(triple_op(f"non-isolated[{n}]", ("ni", n), f,
                                 (INF, INF, INF, "non-isolated")))
        for n, exps in enumerate(MILNOR_2 + MILNOR_3):
            f = G.perturbed_bp(shape, rng, exps)
            key = ("germ", n)
            ops.append(triple_op(f"germ{exps}", key, f, (*bp_milnor(exps), True)))
            gens = boundary.jacobian_ideal_boundary(f)
            arity = len(exps)

            # multipliers of degree <= 2 (2 variables) or constants (3
            # variables): Mora division of members of higher degree is
            # heavy-tailed here, see README.md
            top = 2 if arity == 2 else 0

            def member():
                acc = G.poly(arity, {})
                for g in gens:
                    if shape.random() < 0.7 or acc.is_zero():
                        n_terms = shape.randint(1, 2) if top else 1
                        acc = acc + G.random_poly(shape, rng, arity, n_terms, top) * g
                return acc

            box = bp_box(exps)
            for _ in range(2):
                ops.append(member_op(f"member{exps}", key, member(), True))
            for _ in range(2):
                p = G.poly(arity, {shape.choice(box): _nonzero(rng)}) + member()
                ops.append(member_op(f"non-member{exps}", key, p, False))
        return ops

    return make_pass


# -- qh_forms --------------------------------------------------------------------

QH_FAMILY_K = range(2, 7)
# (a, b) with g = gcd(a, b) in 2..4: x^a + y^b + c*x^i*y^j, i/a + j/b = 1.
# With u = x^(a/g), v = y^(b/g) this is u^g + v^g + c*u^s*v^(g-s), isolated
# iff u^g + c*u^s + 1 has simple roots; c in {-3, -1, 1, 3} ensures that.
QH_MIXED = [(2, 2), (2, 4), (3, 3), (4, 4), (4, 6), (3, 6), (6, 8)]
QH_PURE = [(3, 4), (4, 5), (2, 7), (2, 3, 3)]


@dataclass
class _QhGerm:
    label: str
    bs: Any
    w: tuple
    spectrum: list  # closed-form alphas
    mu: int
    exps: "tuple | None"  # Brieskorn-Pham exponents when J_(f,H) is monomial
    box: "list | None"  # closed-form staircase of those germs
    law_monomial: tuple  # staircase monomial m for the f*e_m law


def build_qh_forms(mods, seed: int):
    G = _Germs(mods)
    qh = mods.quasihomog
    B = mods.boundary.BoundarySingularity
    rng, shape = _rng("qh_forms", seed, -1), _shape("qh_forms")

    specs = []  # (label, f, exps or None, closed-form spectrum)
    for k in QH_FAMILY_K:
        specs.append((f"A_{k}", G.poly(2, {(1, 0): 1, (0, k + 1): 1}), (1, k + 1), None))
        specs.append((f"B_{k}", G.poly(2, {(k, 0): 1, (0, 2): 1}), (k, 2), None))
        specs.append((f"C_{k}", G.poly(2, {(1, 1): 1, (0, k): 1}), None,
                      c_family_spectrum(k)))
    specs.append(("F_4", G.poly(2, {(2, 0): 1, (0, 3): 1}), (2, 3), None))
    for a, b in QH_MIXED:
        g = math.gcd(a, b)
        s = shape.randint(1, g - 1)
        mixed = ((a // g) * s, (b // g) * (g - s))
        f = G.poly(2, {(a, 0): 1, (0, b): 1, mixed: rng.choice([-3, -1, 1, 3])})
        specs.append((f"mixed{(a, b)}", f, None, bp_spectrum((a, b))))
    for exps in QH_PURE:
        f = G.poly(len(exps), {_mono(exps, i, e): _nonzero(rng)
                               for i, e in enumerate(exps)})
        specs.append((f"pure{exps}", f, exps, None))

    germs = []
    for label, f, exps, spectrum in specs:
        bs = B(f)
        w = qh.detect_weights(f)
        if exps is not None:
            spectrum = bp_spectrum(exps)
            box = bp_box(exps)
            law = shape.choice(box)
        else:
            box = None
            law = (0,) * f.context.arity
        germs.append(_QhGerm(label, bs, w, spectrum, len(spectrum), exps, box, law))

    def make_pass(k: int) -> list[Op]:
        rng, shape = _rng("qh_forms", seed, k), _shape("qh_forms/pass")
        ops = []
        for n, germ in enumerate(germs):
            ops.extend(_qh_ops(mods, G, shape, rng, n, germ))
        return ops

    return make_pass


def _slot_of(spec, m):
    return next(i for i, e in enumerate(spec.entries) if e.monomial == m)


def _gauss_manin_reference(coords, alphas):
    out = {}
    for i, powers in coords.items():
        for j, c in powers.items():
            factor = j + alphas[i] - 1
            if factor:
                slot = out.setdefault(i, {})
                slot[j - 1] = slot.get(j - 1, 0) + c * factor
    return out


def _qh_ops(mods, G, shape, rng, n, germ: _QhGerm) -> list[Op]:
    qh = mods.quasihomog
    bs, w = germ.bs, germ.w
    f = bs.f
    arity = f.context.arity
    sk, rk = ("spec", n), ("reduce", n)

    def spectrum_run(state):
        spec = qh.spectrum(bs, w)
        state[sk] = spec
        eig = qh.monodromy_eigenvalues(spec)
        res = qh.residue_matrix(spec)
        return (tuple(spec.alphas()), tuple(e.rotation for e in eig), res.diagonal)

    def spectrum_check(got, state):
        alphas, rotations, diagonal = got
        want = tuple(germ.spectrum)
        return (
            _expect(tuple(sorted(alphas)), want)
            or _expect(rotations, tuple(sorted(a % 1 for a in want)))
            or _expect(diagonal, tuple(a - 1 for a in alphas))
        )

    g = G.random_poly(shape, rng, arity, 3, 5)
    perm = list(range(arity))
    while perm == list(range(arity)):
        shape.shuffle(perm)

    def reduce_run(state):
        cls = qh.brieskorn_reduce(g, bs, w)
        state[rk] = cls
        return cls.coords

    def permuted_run(state):
        return qh.brieskorn_reduce(g, bs, w, generator_order=perm).coords

    law_g = f * G.poly(arity, {germ.law_monomial: 1})

    def law_check(got, state):
        slot = _slot_of(state[sk], germ.law_monomial)
        return _expect(got, {slot: {1: Fraction(1)}})

    def coords_check(got, state):
        spec = state[sk]
        t0 = {spec.entries[i].monomial: p[0]
              for i, p in state[rk].coords.items() if 0 in p}
        return _expect(got, t0)

    gm_input = {
        shape.randrange(germ.mu): {j: Fraction(_nonzero(rng), shape.randint(1, 3))
                                   for j in shape.sample(range(3), 2)}
        for _ in range(2)
    }

    def gm_run(state):
        return qh.gauss_manin_apply(qh.BrieskornClass(gm_input),
                                    state[sk]).coords

    def gm_check(got, state):
        return _expect(got, _gauss_manin_reference(gm_input, state[sk].alphas()))

    ops = [
        Op(f"spectrum {germ.label}", spectrum_run, spectrum_check),
        Op(f"splitting {germ.label}",
           lambda state: qh.spectrum_splitting_check(bs, w),
           lambda got, state: _expect(got, True)),
        Op(f"reduce {germ.label}", reduce_run, lambda got, state: None),
        Op(f"reduce-permuted {germ.label}", permuted_run,
           lambda got, state: _expect(got, state[rk].coords)),
        Op(f"reduce-law {germ.label}",
           lambda state: qh.brieskorn_reduce(law_g, bs, w).coords, law_check),
        Op(f"coords {germ.label}",
           lambda state: qh.quotient_coordinates(g, bs, w), coords_check),
        Op(f"gauss-manin {germ.label}", gm_run, gm_check),
    ]
    if germ.box is not None:
        ops.append(_versal_op(mods, shape, rng, germ))
    return ops


def _versal_op(mods, shape, rng, germ: _QhGerm) -> Op:
    """Deformation f + sum l_i*v_i with v_i = c_i*m_i + (member of J_(f,H))
    over a seeded subset of the box; it is versal iff the subset is the
    whole box minus 1."""
    f = germ.bs.f
    arity = f.context.arity
    one = (0,) * arity
    directions = [m for m in germ.box if m != one]
    chosen = list(directions)
    if shape.random() < 0.6 and chosen:
        for m in shape.sample(chosen, min(len(chosen), shape.randint(1, 2))):
            chosen.remove(m)
    shape.shuffle(chosen)
    # x^e0, y^(e1-1), ... generate J_(f,H) for these germs
    lead = [_mono(one, i, e if i == 0 else e - 1) for i, e in enumerate(germ.exps)]
    names = f.context.names + tuple(f"l{i}" for i in range(len(chosen)))
    ctx = mods.polyring.VarContext(names, 0)
    pad = (0,) * len(chosen)
    terms = {m + pad: c for m, c in f.terms.items()}
    for i, m in enumerate(chosen):
        lam = tuple(1 if j == i else 0 for j in range(len(chosen)))
        v = {m: _nonzero(rng)}
        extra = tuple(a + b for a, b in zip(shape.choice(lead),
                                            (shape.randint(0, 1) for _ in range(arity))))
        v[extra] = v.get(extra, 0) + _nonzero(rng)
        for mono, c in v.items():
            key = mono + lam
            terms[key] = terms.get(key, 0) + c
    F = mods.polyring.Polynomial(ctx, terms)
    d = mods.isochore.Deformation(F, names[arity:], germ.bs)
    missing = set(directions) - set(chosen)
    want = (not missing, 1 + len(chosen), missing)

    def run(state):
        rep = mods.isochore.versality_check(d, germ.w)
        return (rep.versal, rep.spanned_dimension, set(rep.missing_directions))

    return Op(f"versal {germ.label}", run, lambda got, state: _expect(got, want))


# -- cli -------------------------------------------------------------------------

CLI_MILNOR = [(2, 3), (3, 4), (4, 5), (3, 5), (5, 6), (2, 7)]
CLI_SPECTRUM = [(2, 3), (3, 4), (2, 5), (4, 5)]
CLI_REDUCE = [(2, 3), (3, 4), (2, 5)]
CLI_ISOCHORE_ORDERS = [200, 80, 40]
ISOCHORE_CHECKED_ORDER = 30  # prefix on which v^(n+2) = w^2 is checked
CLI_PARSE_ERRORS = ["x^", "x^2+*y", "2/0*x+y^2", "x^2+w^3", "x^2++y^3"]


def _call_cli(mods, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = mods.cli.main(argv)
        except SystemExit as e:
            code = e.code
    return code, out.getvalue()


def _fraction(obj) -> Fraction:
    return Fraction(obj["num"], obj["den"])


def _milnor_text(f_text, mus) -> str:
    a, r, b = mus
    return (
        f"f = {f_text}\nboundary: x\nmu_f     = {a}\nmu_f|H   = {r}\n"
        f"mu_(f,H) = {b}\nadditivity: ok ({b} = {a} + {r})\n"
    )


def _series_from_text(line: str):
    return [Fraction(s) for s in line.split("=", 1)[1].split(",")]


def _series_power(a: list, e: int, order: int) -> list:
    """a^e truncated after t^order, by repeated multiplication."""
    out = [Fraction(1)] + [Fraction(0)] * order
    for _ in range(e):
        out = [sum(a[i] * out[j - i] for i in range(j + 1)) for j in range(order + 1)]
    return out


def build_cli(mods, seed: int):
    G = _Germs(mods)
    golden = {fam: (GOLDEN / f"table_{fam}.txt").read_text()
              for fam in ("A", "B", "C", "F4")}

    def op(label, argv, check):
        return Op(label, lambda state: _call_cli(mods, argv), check)

    def ok(check):
        """Exit code 0 and a stdout check."""
        def wrapped(got, state):
            code, out = got
            if code != 0:
                return f"exit code {code}, expected 0"
            return check(out)
        return wrapped

    def json_alphas(rows):
        return sorted(_fraction(r["alpha"]) for r in rows)

    def make_pass(k: int) -> list[Op]:
        rng, shape = _rng("cli", seed, k), _shape("cli")
        ops = []
        for fam, k_args in (("A", ["--k-max", "4"]), ("B", ["--k-max", "4"]),
                            ("C", ["--k-max", "4"]), ("F4", [])):
            want = golden[fam]
            ops.append(op(f"table {fam}", ["table", "--family", fam, *k_args],
                          ok(lambda out, want=want: _expect(out, want))))
        for fam in ("A", "B", "C"):
            k_max = shape.randint(4, 7)
            want = []
            for kk in range(1 if fam == "A" else 2, k_max + 1):
                if fam == "A":
                    want.append(bp_spectrum((1, kk + 1)))
                elif fam == "B":
                    want.append(bp_spectrum((kk, 2)))
                else:
                    want.append(c_family_spectrum(kk))

            def table_json(out, want=want):
                rows = json.loads(out)["rows"]
                return _expect([json_alphas(r["spectrum"]) for r in rows], want)

            ops.append(op(f"table-json {fam}",
                          ["table", "--family", fam, "--k-max", str(k_max), "--json"],
                          ok(table_json)))
        for n, exps in enumerate(CLI_MILNOR):
            f_text = str(G.perturbed_bp(shape, rng, exps))
            mus = bp_milnor(exps)
            if n % 2 == 0:
                want = _milnor_text(f_text, mus)
                ops.append(op(f"milnor {exps}", ["milnor", "--f=" + f_text],
                              ok(lambda out, want=want: _expect(out, want))))
            else:
                def milnor_json(out, mus=mus):
                    m = json.loads(out)["milnor"]
                    got = (m["mu_f"], m["mu_restriction"], m["mu_boundary"],
                           m["additivity_ok"])
                    return _expect(got, (*mus, True))
                ops.append(op(f"milnor-json {exps}",
                              ["milnor", "--f=" + f_text, "--json"], ok(milnor_json)))
        ni = f"{_nonzero(rng)}*x^2*y^2"

        def non_isolated(got, state):
            code, out = got
            return _expect(code, 2) or _expect(
                [line.split("=")[-1].strip() for line in out.splitlines()[2:5]]
                + out.splitlines()[5:],
                ["infinite"] * 3 + ["additivity: not applicable (infinite Milnor number)"])
        ops.append(op("milnor non-isolated", ["milnor", "--f=" + ni], non_isolated))
        bad = rng.choice(CLI_PARSE_ERRORS)
        ops.append(op("milnor parse-error", ["milnor", "--f=" + bad],
                      lambda got, state: _expect(got, (1, ""))))
        for n, exps in enumerate(CLI_SPECTRUM):
            f_text = str(G.poly(2, {(exps[0], 0): rng.choice([1, 2, 3]),
                                    (0, exps[1]): rng.choice([1, 2, 3])}))
            want = bp_spectrum(exps)
            weights = tuple(Fraction(1, e) for e in exps)
            if n % 2 == 0:
                def spectrum_text(out, want=want, weights=weights):
                    lines = out.splitlines()
                    head = "weights: (" + ", ".join(map(str, weights)) + ")"
                    return _expect(lines[2], head) or _expect(
                        sorted(Fraction(line.split()[1]) for line in lines[6:]), want)
                ops.append(op(f"spectrum {exps}", ["spectrum", "--f=" + f_text],
                              ok(spectrum_text)))
            else:
                def spectrum_json(out, want=want, weights=weights):
                    rep = json.loads(out)
                    return _expect(tuple(_fraction(x) for x in rep["weights"]),
                                   weights) or _expect(json_alphas(rep["spectrum"]), want)
                ops.append(op(f"spectrum-json {exps}",
                              ["spectrum", "--f=" + f_text, "--json"], ok(spectrum_json)))
        for n, order in enumerate(CLI_ISOCHORE_ORDERS):
            n_vars = shape.randint(0, 3)
            coeffs = ["1"] + [str(Fraction(_nonzero(rng), shape.randint(1, 4)))
                              for _ in range(3)]
            argv = ["isochore", "--c=" + ",".join(coeffs), "--n", str(n_vars),
                    "--order", str(order)]

            def isochore_check(out, n_vars=n_vars, as_json=n % 2 == 1, order=order):
                S = mods.polyring.PowerSeries1
                if as_json:
                    rep = json.loads(out)
                    c, w, v, psi = ([_fraction(x) for x in rep[key]]
                                    for key in ("c", "w", "v", "psi"))
                else:
                    lines = out.splitlines()
                    c, w, v, psi = (_series_from_text(line) for line in lines[1:5])
                if not mods.isochore.verify_ode_residual(S(c), S(w), n_vars):
                    return "ODE residual does not vanish"
                # v = w^(2/(n+2)), checked as v^(n+2) = w^2 on a prefix
                head = ISOCHORE_CHECKED_ORDER
                if _series_power(v, n_vars + 2, head) != _series_power(w, 2, head):
                    return "v is not w^(2/(n+2))"
                return _expect((len(c), psi), (order + 1, [Fraction(0)] + v))

            ops.append(op(f"isochore {order}", argv + (["--json"] if n % 2 else []),
                          ok(isochore_check)))
        for n in range(2):
            dropped = rng.choice(["x", "y", "x*y", None])
            params, parts = [], []
            for m in ("x", "y", "x*y"):
                if m != dropped:
                    params.append(f"l{len(params) + 1}")
                    parts.append(f"{rng.randint(1, 3)}*{params[-1]}*{m}")
            F = "x^2+y^3+" + "+".join(parts)
            argv = ["versal", "--F=" + F, "--params", ",".join(params)]
            missing = [] if dropped is None else [dropped]
            if n == 0:
                def versal_text(out, missing=missing):
                    lines = out.splitlines()
                    want = [f"spanned dimension = {4 - len(missing)}",
                            f"versal: {'no' if missing else 'yes'}"]
                    if missing:
                        want.append(f"missing directions: {missing[0]}")
                    return _expect(lines[4:], want)
                ops.append(op("versal F4", argv, ok(versal_text)))
            else:
                def versal_json(out, missing=missing):
                    rep = json.loads(out)
                    return _expect((rep["versal"], rep["missing_directions"]),
                                   (not missing, missing))
                ops.append(op("versal-json F4", argv + ["--json"], ok(versal_json)))
        for n, exps in enumerate(CLI_REDUCE):
            f = G.poly(2, {(exps[0], 0): 1, (0, exps[1]): rng.choice([1, 2])})
            m = shape.choice(bp_box(exps))
            g = f * G.poly(2, {m: 1})
            argv = ["reduce", "--f=" + str(f), "--g=" + str(g)]
            if n % 2 == 0:
                def reduce_text(out, m=m):
                    want_mono = mods.polyring.format_monomial(m, ("x", "y"))
                    for line in out.splitlines()[3:]:
                        _, mono, _, c = line.split("  ")
                        if c != ("t" if mono == want_mono else "0"):
                            return f"slot {mono}: {c}"
                    return None
                ops.append(op(f"reduce {exps}", argv, ok(reduce_text)))
            else:
                def reduce_json(out, m=m):
                    for slot in json.loads(out)["slots"]:
                        want = [[1, {"num": 1, "den": 1}]] if tuple(slot["exponents"]) == m else []
                        if slot["c"] != want:
                            return f"slot {slot['monomial']}: {slot['c']}"
                    return None
                ops.append(op(f"reduce-json {exps}", argv + ["--json"], ok(reduce_json)))
        return ops

    return make_pass


# -- corpus ----------------------------------------------------------------------

CORPUS_CALLS = 12  # of each generator per pass
CORPUS_COUNT = 5


def build_corpus(mods, seed: int):
    corpus = mods.corpus
    INFINITE = mods.standard_basis.INFINITE

    # Ops return each germ with its computed triple (and weights), so the
    # result digest covers the invariants, not only the germs drawn.
    def triple(bs) -> tuple:
        return bs.f, bs.mu_ambient, bs.mu_restriction, bs.mu_boundary

    def triple_problem(f, *mus) -> "str | None":
        if INFINITE in mus or mus[2] != mus[0] + mus[1] or mus[2] > 40:
            return f"{f}: {mus}"
        return None

    def boundary_check(got, state):
        if len(got) != CORPUS_COUNT:
            return f"{len(got)} germs"
        return next(filter(None, (triple_problem(*t) for t in got)), None)

    def qh_check(got, state):
        if len(got) != CORPUS_COUNT:
            return f"{len(got)} germs"
        for t, w in got:
            degrees = {sum((wi * e for wi, e in zip(w, m)), Fraction(0))
                       for m in t[0].terms}
            if degrees != {1} or min(w) <= 0:
                return f"{t[0]}: weights {w}"
        return next(filter(None, (triple_problem(*t) for t, _ in got)), None)

    def make_pass(k: int) -> list[Op]:
        rng = _rng("corpus", seed, k)
        ops = []
        for n in range(CORPUS_CALLS):
            s = rng.randrange(1, 2**31)
            ops.append(Op(f"boundary_corpus[{n}]",
                          lambda state, s=s: [triple(bs) for bs in corpus.boundary_corpus(
                              s, count=CORPUS_COUNT)],
                          boundary_check))
            s = rng.randrange(1, 2**31)
            ops.append(Op(f"quasihomogeneous_corpus[{n}]",
                          lambda state, s=s: [(triple(bs), w) for bs, w in
                                              corpus.quasihomogeneous_corpus(
                                                  s, count=CORPUS_COUNT)],
                          qh_check))
        return ops

    return make_pass


WORKLOADS = {
    "milnor": build_milnor,
    "qh_forms": build_qh_forms,
    "cli": build_cli,
    "corpus": build_corpus,
}
