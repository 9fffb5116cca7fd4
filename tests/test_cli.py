"""Command-line behavior: output formats, exit codes, JSON exactness."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from pushkit import bundle_ring, elaborate, parse_expression, segre_oracle
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


def test_push_no_verify_skips_oracle(capsys):
    assert run(["push", "--rank", "3", "--no-verify", "x^2"]) == 0
    out = capsys.readouterr().out
    assert "presentation_oracle" not in out


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
