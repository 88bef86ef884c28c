import json
import math
import random
from fractions import Fraction

import pytest

from bsing import cli
from bsing.corpus import family_normal_form
from bsing.polyring import VarContext, parse_polynomial
from bsing.report import classify_normal_form, dumps_schema1
from test_cli import PINNED_ARGVS

XY = VarContext(("x", "y"), 0)
YX = VarContext(("x", "y"), 1)  # boundary {y = 0}
XYZ = VarContext(("x", "y", "z"), 0)

# (family, k, form, tag), written out by hand; boundary variable x
NORMAL_FORMS = (
    [("A", k, f"x + y^{k + 1}", f"A_{k}") for k in range(1, 9)]
    + [("B", k, f"x^{k} + y^2", f"B_{k}") for k in range(2, 9)]
    + [("C", k, f"x*y + y^{k}", f"C_{k}") for k in range(2, 9)]
    + [("F4", None, "x^2 + y^3", "F_4")]
)


def swap_xy(text: str) -> str:
    return text.translate(str.maketrans("xy", "yx"))


class TestClassifyNormalForm:
    @pytest.mark.parametrize("family,k,text,tag", NORMAL_FORMS)
    def test_family_forms(self, family, k, text, tag):
        f = parse_polynomial(text, XY)
        assert family_normal_form(family, k) == f
        assert classify_normal_form(f) == tag

    @pytest.mark.parametrize("family,k,text,tag", NORMAL_FORMS)
    def test_family_forms_with_boundary_y(self, family, k, text, tag):
        assert classify_normal_form(parse_polynomial(swap_xy(text), YX)) == tag

    @pytest.mark.parametrize(
        "text,ctx",
        [
            ("2*x + y^3", XY),  # non-unit coefficient
            ("x^2 - y^3", XY),
            ("x + y^3 + x*y", XY),  # extra term
            ("x + y", YX),  # A_0 is not in the family
            ("x^2 + y", XY),  # A_1 with the variables swapped
            ("x^2 + y^2 + z^2", XYZ),  # three variables
            ("0", XY),
        ],
    )
    def test_unclassified(self, text, ctx):
        assert classify_normal_form(parse_polynomial(text, ctx)) == "unclassified"


class TestFamilyNormalForm:
    @pytest.mark.parametrize("family,k", [("A", 0), ("B", 1), ("C", 1)])
    def test_k_below_the_minimum(self, family, k):
        with pytest.raises(ValueError, match=f"{family}_k needs k >= {k + 1}"):
            family_normal_form(family, k)

    @pytest.mark.parametrize("family", ["D", "F", "a", ""])
    def test_unknown_family(self, family):
        with pytest.raises(ValueError, match="unknown family"):
            family_normal_form(family, 3)


def _json_dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


# characters json escapes in several ways (short escapes, \u00XX, \uXXXX
# and surrogate pairs) and ones it writes as they are
_CHARS = 'aZ09 /"\\\b\f\n\r\t\x00\x1f\x7f\xe9\xdf\u20ac\u2028\U0001f600'


def _random_value(rng: random.Random, depth: int):
    kind = rng.randrange(9 if depth < 4 else 5)
    if kind == 0:
        return "".join(rng.choice(_CHARS) for _ in range(rng.randrange(6)))
    if kind == 1:
        return rng.choice((0, -1, 7, 2**64, -(3**90), rng.randint(-10**6, 10**6)))
    if kind == 2:
        return rng.choice((True, False, None))
    if kind == 3:
        return rng.choice((0.0, -0.0, 0.1, -2.5, 1e300, 5e-324, math.inf, -math.inf, math.nan,
                           rng.uniform(-1e6, 1e6)))
    if kind == 4:
        return rng.choice(([], (), {}, ""))
    items = [_random_value(rng, depth + 1) for _ in range(rng.randrange(4))]
    if kind == 5:
        return items
    if kind == 6:
        return tuple(items)
    return {"".join(rng.choice(_CHARS) for _ in range(rng.randrange(4))): v for v in items}


class TestSchema1Emitter:
    # dumps_schema1 writes the bytes of json.dumps(indent=2, sort_keys=True)
    # without json's pure-Python encoder
    def test_every_pinned_json_payload_matches_json(self, monkeypatch, capsys):
        payloads = []

        def recording(obj):
            payloads.append(obj)
            return dumps_schema1(obj)

        monkeypatch.setattr(cli, "dumps_schema1", recording)
        for argv in PINNED_ARGVS:
            if "--json" in argv:
                cli.main(argv)
        capsys.readouterr()
        assert len(payloads) == 15
        for obj in payloads:
            assert dumps_schema1(obj) == _json_dumps(obj)

    def test_seeded_values_match_json(self):
        rng = random.Random(5)
        seen = {"empty dict": 0, "empty list": 0, "nested": 0, "quote": 0, "control": 0,
                "non-ascii": 0}
        for _ in range(3000):
            value = _random_value(rng, 0)
            text = dumps_schema1(value)
            assert text == _json_dumps(value), repr(value)
            seen["empty dict"] += "{}" in text
            seen["empty list"] += "[]" in text
            seen["nested"] += "\n      " in text
            seen["quote"] += '\\"' in text
            seen["control"] += "\\u0000" in text or "\\u001f" in text
            seen["non-ascii"] += "\\ud83d\\ude00" in text or "\\u20ac" in text
        assert min(seen.values()) >= 100, seen

    def test_type_error_where_json_raises_and_for_non_str_keys(self):
        for value in (set(), b"x", Fraction(1, 2), 1j, object(), {"a": [frozenset()]},
                      [{"b": ({("t",): 1},)}]):
            with pytest.raises(TypeError):
                _json_dumps(value)
            with pytest.raises(TypeError):
                dumps_schema1(value)
        # json turns these keys into strings; schema 1 has none
        for key in (1, 2.5, True, None):
            assert _json_dumps({key: 1})
            with pytest.raises(TypeError, match="keys must be str"):
                dumps_schema1({key: 1})
            with pytest.raises(TypeError, match="keys must be str"):
                dumps_schema1([{"a": {key: 1}}])
