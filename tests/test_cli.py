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
from pushkit import series_inverse
from pushkit.cli import run

SRC = Path(__file__).resolve().parents[1] / "src"


def _python(*args: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that finds pushkit on ``src``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def _poly_from_text(text: str, rank: int, cutoff: int):
    return elaborate(parse_expression(text, rank, allow_u=True), rank, cutoff).payload


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
    assert payload["checks"]["weyl_invariance"] == "pass"
    table = bundle_ring(3)
    rebuilt = table.zero()
    for term in payload["terms"]:
        num, den = term["coeff"].split("/")
        piece = table.const(Fraction(int(num), int(den)))
        for name, exp in term["exps"].items():
            piece = piece * table.var(name).pow(exp)
        rebuilt = rebuilt + piece
    assert rebuilt == segre_oracle(3, 4)
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
    assert capsys.readouterr().out == "\n".join(expected) + "\n"


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


def test_power_with_growing_coefficients_is_refused_before_computing(capsys, monkeypatch):
    # C(N, k) for k <= D has about k log10 N digits, and c0^N about N log10 c0,
    # past the limit here however small the other coefficients are
    from pushkit.polyring import Polynomial

    def forbidden(self, exponent, cutoff=None):
        raise AssertionError("the power was computed before it was refused")

    monkeypatch.setattr(Polynomial, "pow", forbidden)
    cases = [("2", str(degree), f"(1+x)^1{'0' * zeros}") for zeros, degree in ((1000, 10), (2000, 10), (400, 12))]
    cases += [("2", "5", f"(1{'0' * 1000} + x)^5"), ("1", "100", f"(1{'0' * 4000} + x)^100")]
    for rank, degree, text in cases:
        assert run(["push", "--rank", rank, "--max-degree", degree, "--", text]) == 2
        assert capsys.readouterr() == ("", _TOO_LONG)


def test_power_with_printable_coefficients_answers_as_its_expansion(capsys):
    # C(10^400, 4) has about 1,600 digits; 2^3000 x^5 is used at most once through
    # degree 5, and 10^1000 x at most twice through any degree when squared; a power
    # of x past the cutoff is 0, however large C(N, 10) is
    n = 10**400
    cases = [
        (4, f"(1+x)^{n}", " + ".join(f"{math.comb(n, k)} x^{k}" for k in range(5))),
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

    oracle = pushkit.gysin.presentation_oracle

    def wrong(expr, rank):
        return oracle(expr, rank) + 1

    monkeypatch.setattr(pushkit.gysin, "presentation_oracle", wrong)
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


def test_broken_expand_back_guard_is_an_internal_error(capsys, monkeypatch):
    import pushkit.gysin

    monkeypatch.setattr(pushkit.gysin, "expand_elementary", lambda chern_form: None)
    assert run(["push", "--rank", "2", "x"]) == 1
    assert capsys.readouterr().err == (
        "internal error: internal invariant broken: Chern form does not expand back\n"
    )


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
