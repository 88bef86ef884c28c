import pytest

from bsing.corpus import family_normal_form
from bsing.polyring import VarContext, parse_polynomial
from bsing.report import classify_normal_form

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
