import hashlib
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from bsing import cli
from bsing.polyring import PowerSeries1, series_rational_power
from bsing.report import Report, rational_from_json, rational_to_json
from series_oracle import power_oracle

GOLDEN = Path(__file__).parent / "golden"


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "bsing", *args],
        capture_output=True,
        text=True,
    )


class TestMilnorCommand:
    def test_b3(self):
        res = run_cli("milnor", "--f", "x^3+y^2", "--vars", "x,y", "--boundary", "x")
        assert res.returncode == 0
        assert "mu_f     = 2" in res.stdout
        assert "mu_f|H   = 1" in res.stdout
        assert "mu_(f,H) = 3" in res.stdout
        assert "additivity: ok" in res.stdout

    def test_non_isolated_exit_2(self):
        res = run_cli("milnor", "--f", "x", "--vars", "x,y", "--boundary", "x")
        assert res.returncode == 2
        assert "infinite" in res.stdout

    def test_relative_morse(self):
        res = run_cli("milnor", "--f", "x+y^2")
        assert res.returncode == 0
        assert "mu_(f,H) = 1" in res.stdout

    def test_parse_error_exit_1(self):
        res = run_cli("milnor", "--f", "x +")
        assert res.returncode == 1

    def test_unknown_flag_exit_1(self):
        res = run_cli("milnor", "--nonsense")
        assert res.returncode == 1


class TestSpectrumCommand:
    def test_f4_rows(self):
        res = run_cli("spectrum", "--f", "x^2+y^3")
        assert res.returncode == 0
        for alpha in ("5/6", "7/6", "4/3", "5/3"):
            assert alpha in res.stdout
        assert "classification: F_4" in res.stdout

    def test_c3(self):
        res = run_cli("spectrum", "--f", "x*y+y^3", "--json")
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        alphas = [(r["alpha"]["num"], r["alpha"]["den"]) for r in payload["spectrum"]]
        assert alphas == [(1, 1), (4, 3), (5, 3)]
        assert payload["classification"] == "C_3"

    def test_not_quasihomogeneous_exit_3(self):
        res = run_cli("spectrum", "--f", "x+y+y^2")
        assert res.returncode == 3

    def test_json_report_roundtrip(self):
        res = run_cli("spectrum", "--f", "x^2+y^3", "--json")
        report = Report.from_json(res.stdout)
        assert Report.from_json(report.to_json()) == report
        assert report.mu_boundary == 4


class TestTableCommand:
    def test_golden_files(self):
        for family, k_args in [
            ("A", ["--k-max", "4"]),
            ("B", ["--k-max", "4"]),
            ("C", ["--k-max", "4"]),
            ("F4", []),
        ]:
            res = run_cli("table", "--family", family, *k_args)
            assert res.returncode == 0
            golden = (GOLDEN / f"table_{family}.txt").read_text()
            assert res.stdout == golden

    def test_byte_stability(self):
        a = run_cli("table", "--family", "B", "--k-max", "6")
        b = run_cli("table", "--family", "B", "--k-max", "6")
        assert a.stdout == b.stdout

    def test_k_min_enforced(self):
        res = run_cli("table", "--family", "B", "--k-max", "1")
        assert res.returncode == 1

    def test_json_rows(self):
        res = run_cli("table", "--family", "A", "--k-max", "2", "--json")
        payload = json.loads(res.stdout)
        assert payload["schema"] == 1
        assert [row["k"] for row in payload["rows"]] == [1, 2]


class TestIsochoreCommand:
    def test_trivial(self):
        res = run_cli("isochore", "--c", "1", "--n", "1", "--order", "5")
        assert res.returncode == 0
        assert "psi = 0, 1, 0, 0, 0, 0, 0" in res.stdout

    def test_linear(self):
        res = run_cli("isochore", "--c", "1,1", "--n", "1", "--order", "5")
        assert res.returncode == 0
        assert "w   = 1, 3/5, 0, 0, 0, 0" in res.stdout
        assert "psi = 0, 1, 2/5, -1/25" in res.stdout

    def test_json_v_is_the_rational_power_of_w(self):
        res = run_cli("isochore", "--c", "1,2,-1/3", "--n", "2", "--order", "6", "--json")
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        w = PowerSeries1(rational_from_json(x) for x in payload["w"])
        v = series_rational_power(w, Fraction(2, 4))
        assert payload["v"] == [rational_to_json(x) for x in v.coefficients]
        assert payload["psi"] == [rational_to_json(Fraction(0))] + payload["v"]

    @pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
    @pytest.mark.parametrize("n", [0, 3])
    def test_order_200_output_matches_the_oracle(self, n, as_json):
        c_text = "1,-2/3,0,5,0,0,0,1/7"
        res = run_cli(
            "isochore", "--c", c_text, "--n", str(n), "--order", "200",
            *(["--json"] if as_json else []),
        )
        assert res.returncode == 0
        c = [Fraction(x) for x in c_text.split(",")] + [Fraction(0)] * 193
        w = [cj * Fraction(n + 2, n + 2 + 2 * j) for j, cj in enumerate(c)]
        v = list(power_oracle(PowerSeries1(w), Fraction(2, n + 2)).coefficients)
        series = {"c": c, "w": w, "v": v, "psi": [Fraction(0)] + v}
        if as_json:
            payload = {"schema": 1, "command": "isochore", "n": n}
            payload.update(
                (key, [rational_to_json(x) for x in xs]) for key, xs in series.items()
            )
            expected = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        else:
            lines = [f"n = {n}"] + [
                f"{key:<3} = {', '.join(map(str, xs))}" for key, xs in series.items()
            ]
            expected = "\n".join(lines) + "\n"
        assert res.stdout == expected
        assert res.stderr == ""

    def test_bad_constant_exit_4(self):
        res = run_cli("isochore", "--c", "2,1", "--n", "1")
        assert res.returncode == 4

    def test_malformed_series_exit_4(self):
        res = run_cli("isochore", "--c", "1,,3", "--n", "1")
        assert res.returncode == 4


class TestVersalCommand:
    def test_f4_versal(self):
        res = run_cli(
            "versal", "--F", "x^2+y^3+l1*x+l2*y+l3*x*y", "--params", "l1,l2,l3"
        )
        assert res.returncode == 0
        assert "versal: yes" in res.stdout

    def test_f4_not_versal(self):
        res = run_cli("versal", "--F", "x^2+y^3+l1*x", "--params", "l1")
        assert res.returncode == 0
        assert "versal: no" in res.stdout
        assert "missing directions: y, x*y" in res.stdout

    def test_morse_with_constant(self):
        res = run_cli("versal", "--F", "x+y^2+l1", "--params", "l1")
        assert res.returncode == 0
        assert "versal: yes" in res.stdout

    def test_non_quasihomogeneous_exit_3(self):
        res = run_cli("versal", "--F", "x+x^2*y+y^4+l1", "--params", "l1")
        assert res.returncode == 3


class TestReduceCommand:
    def test_module_structure(self):
        res = run_cli("reduce", "--f", "x^2+y^3", "--g", "x^2+y^3", "--json")
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        slot_of_one = payload["slots"][0]
        assert slot_of_one["monomial"] == "1"
        assert slot_of_one["c"] == [[1, {"num": 1, "den": 1}]]

    def test_text_output(self):
        res = run_cli("reduce", "--f", "x^2+y^3", "--g", "x*y")
        assert res.returncode == 0
        assert "x*y  5/3  1" in res.stdout


class TestOutFlag:
    def test_writes_file(self, tmp_path):
        target = tmp_path / "report.json"
        res = run_cli("milnor", "--f", "x^2+y^3", "--json", "--out", str(target))
        assert res.returncode == 0
        assert res.stdout == ""
        payload = json.loads(target.read_text())
        assert payload["milnor"]["mu_boundary"] == 4


class TestMainInProcess:
    """The parser is built once per process; nothing of one main() call
    may reach the next."""

    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_flag_error_then_good_call(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["milnor", "--f", "x^2+y^3", "--nonsense"])
        assert exc.value.code == cli.EXIT_PARSE
        assert "unrecognized arguments: --nonsense" in capsys.readouterr().err
        assert cli.main(["milnor", "--f", "x^2+y^3"]) == cli.EXIT_OK
        out, err = capsys.readouterr()
        assert "mu_(f,H) = 4" in out and err == ""

    def test_out_file_then_stdout(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        argv = ["milnor", "--f", "x^2+y^3", "--json"]
        assert cli.main([*argv, "--out", str(target)]) == cli.EXIT_OK
        assert capsys.readouterr().out == ""
        assert cli.main(argv) == cli.EXIT_OK
        assert json.loads(capsys.readouterr().out) == json.loads(target.read_text())
        target.unlink()
        assert cli.main(["isochore", "--c", "1,1", "--n", "1"]) == cli.EXIT_OK
        assert capsys.readouterr().out.startswith("n = 1\n")
        assert not target.exists()

    def test_flags_of_one_call_do_not_reach_the_next(self, capsys):
        plain = ["milnor", "--f", "x^2+y^3"]
        assert cli.main(plain) == cli.EXIT_OK
        first = capsys.readouterr().out
        argv = ["milnor", "--f", "y^2+x^3+z^2", "--vars", "x,y,z", "--boundary", "y", "--json"]
        assert cli.main(argv) == cli.EXIT_OK
        assert json.loads(capsys.readouterr().out)["boundary"] == "y"
        assert cli.main(plain) == cli.EXIT_OK
        assert capsys.readouterr().out == first
        assert cli.main(["table", "--family", "A", "--k-max", "1"]) == cli.EXIT_OK
        capsys.readouterr()
        assert cli.main(["table", "--family", "A"]) == cli.EXIT_PARSE
        assert "needs --k-max >= 1" in capsys.readouterr().err

    def test_trailing_whitespace_in_f_is_ignored_and_echoed(self, capsys):
        assert cli.main(["milnor", "--f", "x^2+y^3 "]) == cli.EXIT_OK
        out, err = capsys.readouterr()
        lines = out.splitlines()
        assert lines[0] == "f = x^2+y^3 "
        assert lines[2:] == ["mu_f     = 2", "mu_f|H   = 2", "mu_(f,H) = 4",
                             "additivity: ok (4 = 2 + 2)"]
        assert err == ""

    def test_zero_denominator_in_a_series_exits_4(self, capsys):
        assert cli.main(["isochore", "--c", "1,1/0", "--n", "1"]) == cli.EXIT_BAD_SERIES
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "invalid series input: zero denominator (at position 2)\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["spectrum", "--f", "x^2*y^2"],
            ["reduce", "--f", "x^2*y^2", "--g", "x"],
            ["versal", "--F", "x^2*y^2+l1*x", "--params", "l1"],
        ],
        ids=["spectrum", "reduce", "versal"],
    )
    def test_non_isolated_germs_are_sent_to_milnor(self, argv, capsys):
        assert cli.main(argv) == cli.EXIT_NON_ISOLATED
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("non-isolated: boundary Milnor number is infinite; "
                       "bsing milnor inspects non-isolated germs\n")
        assert cli.main(["milnor", "--f", "x^2*y^2"]) == cli.EXIT_NON_ISOLATED
        assert "mu_(f,H) = infinite" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["isochore", "--c", "1,1", "--n", "-1"],
            ["isochore", "--c", "1,1,1", "--n", "1", "--order", "-1"],
            ["versal", "--F", "x^2+y^3+x*l", "--params", "x"],
            ["milnor", "--f", "x^2", "--boundary", "z"],
            ["versal", "--F", "x^2+y^3", "--params", ""],
            ["table", "--family", "B", "--k-max", "1"],
        ],
        ids=["negative-n", "negative-order", "parameter-repeats-a-variable",
             "boundary-not-a-variable", "no-parameters", "k-max-below-family"],
    )
    def test_bad_flag_values_are_parse_errors(self, argv, capsys):
        assert cli.main(argv) == cli.EXIT_PARSE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("parse error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        # a flag has no text position to point at
        assert "(at position" not in err


# every command in text and JSON and every exit code from 0 to 4; flag
# errors are left out because argparse words them differently across
# Python versions
PINNED_ARGVS = [
    ["milnor", "--f", "x^2+y^3"],
    ["milnor", "--f", "x^2+y^3", "--json"],
    ["milnor", "--f", "x^3+y^2"],
    ["milnor", "--f", "2x^3 - 1/2*y^2", "--json"],
    ["milnor", "--f", "x+y^2"],
    ["milnor", "--f", "y^2+x^3+z^2", "--vars", "x,y,z", "--boundary", "y"],
    ["milnor", "--f", "y^2+x^3+z^2", "--vars", "x,y,z", "--boundary", "y", "--json"],
    ["milnor", "--f", "x^2*y^2"],
    ["milnor", "--f", "x^2*y^2", "--json"],
    ["milnor", "--f", "x"],
    ["milnor", "--f", "x^2+y^3+1"],
    ["milnor", "--f", "0"],
    ["milnor", "--f", "x +"],
    ["milnor", "--f", "x^"],
    ["milnor", "--f", "x^2+*y"],
    ["milnor", "--f", "2/0*x+y^2"],
    ["milnor", "--f", "x^2+w^3"],
    ["milnor", "--f", "x^2++y^3"],
    ["milnor", "--f", "(x+y)"],
    ["milnor", "--f", "x y"],
    ["milnor", "--f", ""],
    ["milnor", "--f", "x^2+y^3", "--boundary", "z"],
    ["spectrum", "--f", "x^2+y^3"],
    ["spectrum", "--f", "x^2+y^3", "--json"],
    ["spectrum", "--f", "x*y+y^3"],
    ["spectrum", "--f", "x*y+y^3", "--json"],
    ["spectrum", "--f", "2*x^2+3*y^5"],
    ["spectrum", "--f", "x+y+y^2"],
    ["spectrum", "--f", "x^2*y^2"],
    ["table", "--family", "A", "--k-max", "3"],
    ["table", "--family", "A", "--k-max", "3", "--json"],
    ["table", "--family", "B", "--k-max", "3"],
    ["table", "--family", "C", "--k-max", "3", "--json"],
    ["table", "--family", "F4"],
    ["table", "--family", "F4", "--json"],
    ["table", "--family", "B", "--k-max", "1"],
    ["isochore", "--c", "1", "--n", "1", "--order", "5"],
    ["isochore", "--c", "1,1", "--n", "1", "--order", "5", "--json"],
    ["isochore", "--c", "1,2,-1/3", "--n", "2", "--order", "6"],
    ["isochore", "--c", "1,2,-1/3", "--n", "2", "--order", "6", "--json"],
    ["isochore", "--c", "1,-2/3,0,5", "--n", "0"],
    ["isochore", "--c", "1,1,1", "--n", "1", "--order", "1"],
    ["isochore", "--c", "2,1", "--n", "1"],
    ["isochore", "--c", "1,,3", "--n", "1"],
    ["isochore", "--c", "1,x", "--n", "1"],
    ["isochore", "--c", "1,1", "--n", "-1"],
    ["versal", "--F", "x^2+y^3+l1*x+l2*y+l3*x*y", "--params", "l1,l2,l3"],
    ["versal", "--F", "x^2+y^3+l1*x+l2*y+l3*x*y", "--params", "l1,l2,l3", "--json"],
    ["versal", "--F", "x^2+y^3+l1*x", "--params", "l1"],
    ["versal", "--F", "x^2+y^3+l1*x", "--params", "l1", "--json"],
    ["versal", "--F", "x+y^2+l1", "--params", "l1"],
    ["versal", "--F", "x+x^2*y+y^4+l1", "--params", "l1"],
    ["versal", "--F", "x^2+y^3", "--params", ""],
    ["reduce", "--f", "x^2+y^3", "--g", "x^2+y^3", "--json"],
    ["reduce", "--f", "x^2+y^3", "--g", "x*y"],
    ["reduce", "--f", "x^3+y^2", "--g", "1+x*y+y^2"],
    ["reduce", "--f", "x^3+y^2", "--g", "1+x*y+y^2", "--json"],
    ["reduce", "--f", "x+y+y^2", "--g", "1"],
    ["reduce", "--f", "x^2+y^3", "--g", "x+"],
]
# sha256 of (argv, exit code, stdout, stderr) over PINNED_ARGVS, taken
# before the six commands shared one output path; retaken when the
# non-isolated stderr line of `spectrum --f x^2*y^2` began to point at
# `bsing milnor` instead of a Python keyword (no other byte changed)
CLI_BYTES_SHA256 = "9fca3baeeb1ee4ba215d2dd6eccfa2f23c44773fb3e04fd474464736a46d2f80"


def test_cli_bytes_match_the_pinned_digest(capsys):
    h = hashlib.sha256()
    codes = set()
    for argv in PINNED_ARGVS:
        code = cli.main(argv)
        out, err = capsys.readouterr()
        codes.add(code)
        h.update(repr((argv, code, out, err)).encode())
    assert codes == {0, 1, 2, 3, 4}
    assert h.hexdigest() == CLI_BYTES_SHA256
