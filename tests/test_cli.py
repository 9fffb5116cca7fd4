"""Command-line behavior: output formats, exit codes, JSON exactness."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from pushkit import bundle_ring, elaborate, expand_elementary, parse_expression, segre_oracle
from pushkit import ClassExpr, Polynomial, series_inverse
from pushkit.cli import run
from pushkit.errors import UsageError

from helpers import literal_sum

SRC = Path(__file__).resolve().parents[1] / "src"


def _python(*args: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that finds pushkit on ``src``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def _poly_from_text(text: str, rank: int, cutoff: int):
    return elaborate(parse_expression(text, rank, allow_u=True), rank, cutoff).payload


def _poly_from_json(text: str, rank: int):
    table = bundle_ring(rank)
    rebuilt = table.zero()
    for term in json.loads(text)["terms"]:
        num, den = term["coeff"].split("/")
        piece = table.const(Fraction(int(num), int(den)))
        for name, exp in term["exps"].items():
            piece = piece * table.var(name).pow(exp)
        rebuilt = rebuilt + piece
    return rebuilt


def test_push_text_output(capsys):
    assert run(["push", "--rank", "3", "--max-degree", "6", "inv(1-x)"]) == 0
    out = capsys.readouterr().out
    lines = {line.split(" = ")[0]: line.split(" = ", 1)[1] for line in out.splitlines() if " = " in line}
    assert lines["valid_through"] == "4"
    chern = _poly_from_text(lines["chern_form"], 3, 4)
    assert chern == segre_oracle(3, 4)
    assert "checks:" in out and "presentation_oracle=pass" in out


def test_push_json_round_trip(capsys):
    assert run(["push", "--rank", "3", "--max-degree", "6", "--format", "json", "inv(1-x)"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rank"] == 3
    assert payload["cutoff"] == 6
    assert payload["valid_through"] == 4
    assert payload["checks"] == {"fixed_point_sample": "pass", "presentation_oracle": "pass"}
    assert _poly_from_json(json.dumps(payload), 3) == segre_oracle(3, 4)
    # exactness: every coefficient is a string, nothing is a float
    def no_floats(node):
        if isinstance(node, float):
            return False
        if isinstance(node, dict):
            return all(no_floats(v) for v in node.values())
        if isinstance(node, list):
            return all(no_floats(v) for v in node)
        return True

    assert no_floats(payload)


def test_push_tex_output(capsys):
    assert run(["push", "--rank", "3", "--max-degree", "5", "--format", "tex", "x^3"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "-c_{1}"


def test_push_renders_the_input_echo_only_in_text(capsys, monkeypatch):
    # JSON and TeX print no "input =" line, so they render no polynomial
    calls, render = [], Polynomial.render
    monkeypatch.setattr(Polynomial, "render", lambda self: calls.append(self) or render(self))
    argv = ["push", "--rank", "2", "--max-degree", "3", "--", "(2 - y)^3 inv(1 + x)"]
    for fmt in ("json", "tex"):
        assert run([*argv[:-2], "--format", fmt, *argv[-2:]]) == 0
    capsys.readouterr()
    assert calls == []
    assert run(argv) == 0
    assert capsys.readouterr() == (
        "input = -8 x^3 - 12 x^2 y - 6 x y^2 - y^3 + 8 x^2 + 12 x y + 6 y^2 - 8 x - 12 y + 8\n"
        "chern_form = -c1^2 + c2 - 2 c1 + 4\nvalid_through = 2\n"
        "checks: fixed_point_sample=pass presentation_oracle=pass\n"
        "u_form = -u1^2 - u1 u2 - u2^2 - 2 u1 - 2 u2 + 4\n", "")
    assert len(calls) == 3


def test_push_default_cutoff_is_rank_plus_three(capsys):
    assert run(["push", "--rank", "2", "x"]) == 0
    payload = capsys.readouterr().out
    assert "valid_through = 4" in payload  # (2 + 3) - (2 - 1)


def test_localize_output(capsys):
    assert run(["localize", "--rank", "3", "--max-degree", "6", "inv(1+y)"]) == 0
    out = capsys.readouterr().out
    u_line = next(line for line in out.splitlines() if line.startswith("u_form = "))
    value = _poly_from_text(u_line.removeprefix("u_form = "), 3, 4)
    table = bundle_ring(3)
    from pushkit import root_generators, series_inverse

    product = table.one()
    for u in root_generators(table):
        product = product.mul_trunc(series_inverse(1 + u, 6), 6)
    assert value == product.truncate(4)
    assert "valid_through = 4" in out


@pytest.mark.parametrize("rank, degree", [(12, 16), (20, 23)])
def test_localize_at_high_rank_is_the_segre_series_in_the_roots(capsys, rank, degree):
    # ranks far beyond the literal sum, whose numerator grows like rank!
    argv = ["localize", "--rank", str(rank), "--max-degree", str(degree), "inv(1-x)"]
    assert run(argv) == 0
    valid_through = degree - rank + 1
    table = bundle_ring(rank)
    expected = [
        f"input = {series_inverse(table.one() - table.var('x'), degree).render()}",
        f"u_form = {expand_elementary(segre_oracle(rank, valid_through)).render()}",
        f"valid_through = {valid_through}",
    ]
    out = capsys.readouterr().out
    # megabytes of text: report the first differing line and offset at once,
    # before the full comparison, whose failure report takes minutes to build
    lines, wanted = out.split("\n"), [*expected, ""]
    lengths, wanted_lengths = [len(line) for line in lines], [len(line) for line in wanted]
    if lengths != wanted_lengths:
        pytest.fail(f"line lengths {lengths} != {wanted_lengths}")
    for n, (line, want) in enumerate(zip(lines, wanted)):
        if line != want:
            at = next(k for k, (a, b) in enumerate(zip(line, want)) if a != b)
            pytest.fail(f"line {n} differs at offset {at}: {line[at:at + 60]!r} != {want[at:at + 60]!r}")
    assert out == "\n".join(expected) + "\n"


def test_table_output(capsys):
    assert run(["table", "--rank", "3", "--from", "0", "--to", "5"]) == 0
    out = capsys.readouterr().out.splitlines()
    table = bundle_ring(3)
    c1, c2, c3 = (table.var(n) for n in ("c1", "c2", "c3"))
    expected = [
        table.zero(),
        table.zero(),
        table.one(),
        -c1,
        c1 * c1 - c2,
        -c1.pow(3) + 2 * c1 * c2 - c3,
    ]
    assert len(out) == 6
    for k, line in enumerate(out):
        assert line.startswith(f"f_*(x^{k}) = ")
        assert _poly_from_text(line.split(" = ", 1)[1], 3, 6) == expected[k]


def test_verify_command(capsys):
    assert run(["verify", "--rank", "3", "--max-degree", "6"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 4
    assert "FAIL" not in out
    assert run(["verify", "--rank", "1", "--max-degree", "4"]) == 0


def test_usage_and_parse_errors_exit_two(capsys):
    assert run(["push", "--rank", "3", "q4"]) == 2
    assert "q4 is out of range" in capsys.readouterr().err
    assert run(["push", "--rank", "3", "x^-1"]) == 2
    capsys.readouterr()
    assert run(["push", "--rank", "3", "u1"]) == 2
    capsys.readouterr()
    assert run(["push", "--rank", "3", "inv(x)"]) == 2
    capsys.readouterr()
    assert run(["push", "--rank", "0", "x"]) == 2
    capsys.readouterr()
    assert run(["table", "--rank", "3", "--from", "4", "--to", "2"]) == 2
    capsys.readouterr()
    assert run(["nonsense"]) == 2
    capsys.readouterr()
    assert run(["push"]) == 2
    capsys.readouterr()


_TOO_LONG = (
    "usage error: a coefficient would have more than 4,300 digits, "
    "Python's limit for printing an integer\n"
)


def test_unprintable_coefficient_exits_two(capsys):
    # 2^14000 has 4,215 digits and prints; its square does not
    for command in (["push", "2^14000 2^14000 x"], ["localize", "2^14000 2^14000 y"]):
        assert run([command[0], "--rank", "2", *command[1:]]) == 2
        assert capsys.readouterr() == ("", _TOO_LONG)


def test_power_with_an_unprintable_constant_term_is_refused_before_computing(capsys):
    huge = "1" + "0" * 400  # far past the largest float
    for text in ("2^100000000000", "(2+x)^100000000000", "(1/3)^9100 x", "2^20000 x", f"2^{huge}"):
        assert run(["push", "--rank", "2", "--", text]) == 2
        assert capsys.readouterr() == ("", _TOO_LONG)
    # a constant term of 0 or 1 stays printable, however large the exponent
    for text, answer in ((f"x^{huge}", "chern_form = 0"), (f"1^{huge} x", "chern_form = 1")):
        assert run(["push", "--rank", "2", "--", text]) == 0
        assert answer in capsys.readouterr().out


def test_inverse_is_refused_at_its_first_unprintable_degree(capsys):
    # the degree-5 coefficient of inv(1 - 10^1000 x) is 10^5000: the inverse
    # stops there instead of building the degrees above it
    for degree in ("5", "3000"):
        assert run(["push", "--rank", "1", "--max-degree", degree, "--format", "json",
                    "--", "inv(1 - 10^1000 x)"]) == 2
        assert capsys.readouterr() == ("", _TOO_LONG)
    # an inverse is refused on its own coefficients, even where a product
    # would truncate them away; through degree 4 they all print
    assert run(["push", "--rank", "1", "--max-degree", "5", "--", "x inv(1 - 10^1000 x)"]) == 2
    assert capsys.readouterr() == ("", _TOO_LONG)
    assert run(["push", "--rank", "1", "--max-degree", "4", "--", "inv(1 - 10^1000 x)"]) == 0
    assert capsys.readouterr().err == ""


def test_power_with_growing_coefficients_is_refused_by_its_kernel(capsys):
    # C(N, k) for k <= D has about k log10 N digits, and c0^N about N log10 c0,
    # past the limit here however small the other coefficients are; elaborate
    # itself refuses, at the first unprintable degree (degree 5 of
    # (1 + 10^1000 x)^5), or while squaring 10^1000 x, before anything prints
    cases = [("2", str(degree), f"(1+x)^1{'0' * zeros}") for zeros, degree in ((1000, 10), (2000, 10), (400, 12))]
    cases += [("2", "5", f"(1{'0' * 1000} + x)^5"), ("1", "100", f"(1{'0' * 4000} + x)^100")]
    cases += [("1", "5", "(1 + 10^1000 x)^5"), ("1", "100000", "(10^1000 x)^50000")]
    for rank, degree, text in cases:
        with pytest.raises(UsageError):
            elaborate(parse_expression(text, int(rank)), int(rank), int(degree))
        assert run(["push", "--rank", rank, "--max-degree", degree, "--", text]) == 2
        assert capsys.readouterr() == ("", _TOO_LONG)


def test_power_with_printable_coefficients_answers_as_its_expansion(capsys):
    # C(10^400, 4) has about 1,600 digits; 2^3000 x^5 is used at most once through
    # degree 5, 10^1000 x at most four times through degree 4, and at most twice
    # through any degree when squared; a power lying wholly above the cutoff is 0,
    # however large its coefficients or C(N, 10) are
    n = 10**400
    cases = [
        (4, f"(1+x)^{n}", " + ".join(f"{math.comb(n, k)} x^{k}" for k in range(5))),
        (4, "(1 + 10^1000 x)^5", " + ".join(f"{math.comb(5, k) * 10**(1000 * k)} x^{k}" for k in range(5))),
        (2, "(10^2200 x + x^2)^3", "0"),
        (5, "(1 + x + 2^3000 x^5)^1000", f"{1000 * 2**3000} x^5 + (1+x)^1000"),
        (5, "(10^1000 x)^2", "10^2000 x^2"),
        (5, "(10^1000 x)^0", "1"),
        (10, f"x^1{'0' * 1000}", "0"),
    ]
    for degree, power, expansion in cases:
        outputs = []
        for text in (power, expansion):
            assert run(["push", "--rank", "2", "--max-degree", str(degree), "--", text]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1] and outputs[0].err == ""
        assert "presentation_oracle=pass" in outputs[0].out


def test_wrong_presentation_oracle_fails_every_command(capsys, monkeypatch):
    import pushkit.gysin

    fold = pushkit.gysin._fold

    def wrong(buckets, rank, width):  # the oracle's packed sum plus 1 on its constant term
        out = fold(buckets, rank, width)
        out[0] = out.get(0, 0) + 1
        return out

    monkeypatch.setattr(pushkit.gysin, "_fold", wrong)
    assert run(["push", "--rank", "3", "x^2"]) == 1
    assert "presentation_oracle=fail" in capsys.readouterr().out
    assert run(["table", "--rank", "3", "--from", "0", "--to", "2"]) == 1
    capsys.readouterr()
    assert run(["verify", "--rank", "2", "--max-degree", "5"]) == 1
    assert "FAIL hyperplane_powers: first mismatch at x^0\n" in capsys.readouterr().out


def test_internal_value_error_is_not_a_usage_error(capsys, monkeypatch):
    import pushkit.cli

    def broken(*args, **kwargs):
        raise ValueError("broken invariant")

    monkeypatch.setattr(pushkit.cli, "pushforward", broken)
    assert run(["push", "--rank", "2", "x"]) == 1
    assert capsys.readouterr().err == "internal error: broken invariant\n"


def _shift_top_coefficient(monkeypatch):
    """Make ``pushforward`` answer its closed form plus 1 on its top-degree term."""
    import pushkit.gysin

    result = pushkit.gysin._result

    def shifted(table, packed, d, width):
        value = result(table, packed, d, width)
        mon, _ = value.sorted_terms()[0]
        return value + Polynomial(value.table, {mon: 1})

    monkeypatch.setattr(pushkit.gysin, "_result", shifted)


def test_failed_check_is_a_verification_failure(capsys, monkeypatch):
    # a failed check is reported in the output with exit 1, not as an internal error
    import pushkit.gysin

    monkeypatch.setattr(pushkit.gysin, "fixed_point_sample", lambda phi, rank, chern_form: False)
    assert run(["push", "--rank", "2", "x"]) == 1
    captured = capsys.readouterr()
    assert "checks: fixed_point_sample=fail presentation_oracle=pass\n" in captured.out
    assert captured.err == ""


def test_wrong_closed_form_fails_the_fixed_point_sample(capsys, monkeypatch):
    # a wrong answer, not a broken check: the sum at the sample point catches it
    import pushkit.gysin

    _shift_top_coefficient(monkeypatch)
    x = bundle_ring(3).var("x")
    assert pushkit.gysin.pushforward(ClassExpr(x.pow(4)), 3).checks["fixed_point_sample"] == "fail"
    assert run(["push", "--rank", "3", "x^3"]) == 1
    captured = capsys.readouterr()
    assert "fixed_point_sample=fail" in captured.out and captured.err == ""


def test_wrong_closed_form_fails_every_push_format(capsys, monkeypatch):
    _shift_top_coefficient(monkeypatch)
    argv = ["push", "--rank", "4", "--max-degree", "8", "inv(1-x)"]
    assert run([*argv[:-1], "--format", "json", argv[-1]]) == 1
    assert json.loads(capsys.readouterr().out)["checks"]["fixed_point_sample"] == "fail"
    assert run([*argv[:-1], "--format", "tex", argv[-1]]) == 1
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "rank, degree, text",
    [(4, 10, "(q1 q2 y^3) inv(1+y)"), (12, 20, "q3 q5 y^8 inv(1+y)")],
)
def test_shifted_top_coefficient_on_a_q_class_fails_the_fixed_point_sample(
    capsys, monkeypatch, rank, degree, text
):
    # no presentation oracle runs for a q class: the sample check alone catches it
    argv = ["push", "--rank", str(rank), "--max-degree", str(degree), "--format", "json", text]
    assert run(argv) == 0
    assert json.loads(capsys.readouterr().out)["checks"] == {"fixed_point_sample": "pass"}
    _shift_top_coefficient(monkeypatch)
    assert run(argv) == 1
    assert json.loads(capsys.readouterr().out)["checks"] == {"fixed_point_sample": "fail"}


def test_push_runs_no_divided_differences(capsys, monkeypatch):
    # exact division and the symmetric reduction are test references only
    from pushkit import polyring, symfun

    def forbidden(*args, **kwargs):
        raise AssertionError("the pipeline ran a divided-difference reference")

    monkeypatch.setattr(polyring, "divide_exact_linear", forbidden)
    monkeypatch.setattr(symfun, "reduce_to_elementary", forbidden)
    assert run(["push", "--rank", "6", "--max-degree", "12", "--format", "json", "inv(1-x)"]) == 0
    assert _poly_from_json(capsys.readouterr().out, 6) == segre_oracle(6, 7)
    assert run(["push", "--rank", "6", "--max-degree", "7", "q2 y^4 + c1 q1 y^5"]) == 0
    out = capsys.readouterr().out
    chern = _poly_from_text(out.split("chern_form = ")[1].splitlines()[0], 6, 2)
    phi = _poly_from_text("q2 y^4 + c1 q1 y^5", 6, 7)
    assert expand_elementary(chern) == literal_sum(phi, 6)
    assert "checks: fixed_point_sample=pass\n" in out


@pytest.mark.parametrize("rank, degree", [(16, 20), (20, 24)])
def test_push_json_at_high_rank_is_the_segre_series(capsys, rank, degree):
    argv = ["push", "--rank", str(rank), "--max-degree", str(degree), "--format", "json", "inv(1-x)"]
    assert run(argv) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["checks"] == {"fixed_point_sample": "pass", "presentation_oracle": "pass"}
    assert _poly_from_json(out, rank) == segre_oracle(rank, degree - rank + 1)


def test_asymmetric_localization_exits_one(capsys):
    assert run(["localize", "--rank", "3", "u1 y^2"]) == 1
    err = capsys.readouterr().err
    assert "verification failure" in err


def test_symmetric_root_coefficient_localizes(capsys):
    assert run(["localize", "--rank", "3", "(u1+u2+u3) y^2"]) == 0
    out = capsys.readouterr().out
    assert "u_form = u1 + u2 + u3" in out


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    capsys.readouterr()


def test_expression_with_leading_minus_follows_double_dash(capsys):
    assert run(["push", "--rank", "3", "--", "-x^3"]) == 0
    assert "chern_form = c1" in capsys.readouterr().out


_CHECKS_LINE = "checks: fixed_point_sample=pass presentation_oracle=pass\n"
_MIXED_INPUT_OUTPUT = [
    (["push", "--rank", "2", "x y"],
     "input = x y\nchern_form = c1\nvalid_through = 4\n" + _CHECKS_LINE + "u_form = u1 + u2\n"),
    (["push", "--rank", "2", "--format", "json", "x y"],
     '{\n  "rank": 2,\n  "cutoff": 5,\n  "valid_through": 4,\n  "terms": [\n    {\n'
     '      "coeff": "1/1",\n      "exps": {\n        "c1": 1\n      }\n    }\n  ],\n'
     '  "checks": {\n    "fixed_point_sample": "pass",\n    "presentation_oracle": "pass"\n  }\n}\n'),
    (["push", "--rank", "2", "--format", "tex", "x y"], "c_{1}\n"),
    (["push", "--rank", "2", "x + y"],
     "input = x + y\nchern_form = 0\nvalid_through = 4\n" + _CHECKS_LINE + "u_form = 0\n"),
    (["localize", "--rank", "2", "x + y"], "input = x + y\nu_form = 0\nvalid_through = 4\n"),
    (["push", "--rank", "3", "--", "q1 x^3 - y^2 c1"],
     "input = x^3 q1 - y^2 c1\nchern_form = -c2 - c1\nvalid_through = 4\n"
     "checks: fixed_point_sample=pass\nu_form = -u1 u2 - u1 u3 - u2 u3 - u1 - u2 - u3\n"),
    (["push", "--rank", "2", "x^2 + x y"],
     "input = x^2 + x y\nchern_form = 0\nvalid_through = 4\n" + _CHECKS_LINE + "u_form = 0\n"),
    (["push", "--rank", "4", "--", "x^3 y"],
     "input = x^3 y\nchern_form = c1\nvalid_through = 4\n" + _CHECKS_LINE + "u_form = u1 + u2 + u3 + u4\n"),
    (["push", "--rank", "3", "--max-degree", "6", "--", "inv(1 + c1 x + c2 x^2 - y q1) + 2/3 x y c1"],
     "input = -x^3 c1^3 + 2 x^3 c1 c2 + 3 x^2 y q1 c1^2 - 2 x^2 y q1 c2 - 3 x y^2 q1^2 c1 + y^3 q1^3"
     " + x^2 c1^2 - x^2 c2 - 2 x y q1 c1 + y^2 q1^2 + 2/3 x y c1 - x c1 + y q1 + 1\n"
     "chern_form = c1^4 + c1^2 c2 + 4 c1 c3 - 3 c2^2 + c1^2 - 2 c2 - 2/3 c1 - 1\nvalid_through = 4\n"
     "checks: fixed_point_sample=pass\nu_form = u1^4 + 5 u1^3 u2 + 5 u1^3 u3 + 5 u1^2 u2^2 + 15 u1^2 u2 u3"
     " + 5 u1^2 u3^2 + 5 u1 u2^3 + 15 u1 u2^2 u3 + 15 u1 u2 u3^2 + 5 u1 u3^3 + u2^4 + 5 u2^3 u3 + 5 u2^2 u3^2"
     " + 5 u2 u3^3 + u3^4 + u1^2 + u2^2 + u3^2 - 2/3 u1 - 2/3 u2 - 2/3 u3 - 1\n"),
    (["push", "--rank", "3", "--max-degree", "6", "--format", "json", "--", "x^2 y c2 - 1/2 x y^3"],
     '{\n  "rank": 3,\n  "cutoff": 6,\n  "valid_through": 4,\n  "terms": [\n    {\n'
     '      "coeff": "1/1",\n      "exps": {\n        "c1": 1,\n        "c2": 1\n      }\n    },\n'
     '    {\n      "coeff": "1/2",\n      "exps": {\n        "c1": 2\n      }\n    },\n'
     '    {\n      "coeff": "-1/2",\n      "exps": {\n        "c2": 1\n      }\n    }\n  ],\n'
     '  "checks": {\n    "fixed_point_sample": "pass",\n    "presentation_oracle": "pass"\n  }\n}\n'),
]


@pytest.mark.parametrize("args,stdout", _MIXED_INPUT_OUTPUT,
                         ids=[" ".join(args) for args, _ in _MIXED_INPUT_OUTPUT])
def test_input_in_both_x_and_y_prints_pinned_bytes(capsys, args, stdout):
    # the echo shows the class as built; the evaluators read y as -x
    assert run(args) == 0
    assert capsys.readouterr() == (stdout, "")


def test_max_degree_below_fiber_dimension_exits_two(capsys):
    for command in (["push", "x^2"], ["localize", "y^2"], ["verify"]):
        assert run([command[0], "--rank", "5", "--max-degree", "2", *command[1:]]) == 2
        assert "max degree must be at least rank - 1" in capsys.readouterr().err
    assert run(["push", "--rank", "5", "--max-degree", "4", "x^4"]) == 0
    assert "valid_through = 0" in capsys.readouterr().out


def test_module_entry_point_runs_without_warning():
    proc = _python("-m", "pushkit.cli", "push", "--rank", "2", "x")
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert "chern_form = 1" in proc.stdout


def test_package_entry_point_runs_without_warning():
    proc = _python("-m", "pushkit", "push", "--rank", "2", "x")
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert "chern_form = 1" in proc.stdout


def test_library_import_loads_no_front_end():
    code = "import sys, pushkit; print(sorted({'pushkit.cli', 'concurrent.futures'} & set(sys.modules)))"
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


PUBLIC_API = [
    "ArityError", "ClassExpr", "ExponentError", "ExprAst", "FixedPointChart", "GradingError",
    "LocalizationResult", "Monomial", "NotDivisibleError", "NotInvertibleError", "ParseError",
    "Polynomial", "PushforwardResult", "PushkitError", "SymmetryError", "TableMismatchError",
    "UnboundVariableError", "UnsupportedVariableError", "VariableTable", "VerificationCheck",
    "VerificationReport", "bundle_ring", "complete_homogeneous", "divide_exact_linear",
    "elaborate", "elementary_symmetric", "expand_elementary", "fixed_point_charts",
    "is_symmetric", "localize", "parse_expression", "presentation_oracle", "pushforward",
    "reduce_to_elementary", "relation_check", "root_generators", "segre_oracle",
    "series_inverse", "verify_classical",
]


def test_public_api_is_pinned():
    # a name leaves or joins the API only with this list, README and CHANGES.md
    import importlib

    import pushkit

    assert sorted(pushkit.__all__) == PUBLIC_API
    for module in ("", ".errors", ".polyring", ".symfun", ".localization", ".gysin", ".expressions", ".cli"):
        mod = importlib.import_module("pushkit" + module)
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"pushkit{module}.{name}"
