"""Acceptance suite: every criterion exercised at its stated size, with one
printed pass/fail line per criterion.  All comparisons are exact."""

from __future__ import annotations

import json
import random
from contextlib import contextmanager
from fractions import Fraction

import pytest

from pushkit import (
    ClassExpr,
    PushkitError,
    bundle_ring,
    complete_homogeneous,
    elaborate,
    expand_elementary,
    fixed_point_charts,
    is_symmetric,
    localize,
    parse_expression,
    presentation_oracle,
    pushforward,
    reduce_to_elementary,
    root_generators,
    segre_oracle,
    series_inverse,
)
from pushkit.cli import run

from helpers import localize_divided_differences, random_chern_poly, random_fiber_poly, relation_check
from helpers import graded_parts, random_poly, random_x_class


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"[{number}/8] {name}: FAIL")
        raise
    print(f"[{number}/8] {name}: PASS")


def _elaborated(text: str, rank: int, cutoff: int):
    return elaborate(parse_expression(text, rank, allow_u=True), rank, cutoff).payload


def test_criterion_1_localized_inverse_series_rank_three(capsys):
    with criterion(1, "rank-3 localized series matches the root product expansion"):
        assert run(["localize", "--rank", "3", "--max-degree", "8", "inv(1+y)"]) == 0
        out = capsys.readouterr().out
        u_line = next(line for line in out.splitlines() if line.startswith("u_form = "))
        value = _elaborated(u_line.removeprefix("u_form = "), 3, 6)
        assert "valid_through = 6" in out

        # independent expansion: the product of the three geometric series
        table = bundle_ring(3)
        product = table.one()
        for u in root_generators(table):
            product = product.mul_trunc(series_inverse(1 + u, 6), 6)
        expected = product.truncate(6)
        assert value == expected
        for d in range(7):
            assert value.homogeneous_component(d) == expected.homogeneous_component(d), d


def test_criterion_2_pushforward_of_geometric_series_rank_three(capsys):
    with criterion(2, "rank-3 pushforward of the geometric series is the Segre series"):
        code = run(
            ["push", "--rank", "3", "--max-degree", "8", "--format", "json", "inv(1-x)"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["valid_through"] == 6
        assert all(v == "pass" for v in payload["checks"].values())

        table = bundle_ring(3)
        rebuilt = table.zero()
        for term in payload["terms"]:
            num, den = term["coeff"].split("/")
            piece = table.const(Fraction(int(num), int(den)))
            for name, exp in term["exps"].items():
                piece = piece * table.var(name).pow(exp)
            rebuilt = rebuilt + piece

        oracle = segre_oracle(3, 5)
        for d in range(6):
            assert rebuilt.homogeneous_component(d) == oracle.homogeneous_component(d), d

        # frozen low-degree values, checked term by term
        c1, c2, c3 = (table.var(n) for n in ("c1", "c2", "c3"))
        assert rebuilt.homogeneous_component(0) == table.one()
        assert rebuilt.homogeneous_component(1) == -c1
        assert rebuilt.homogeneous_component(2) == c1 * c1 - c2
        assert rebuilt.homogeneous_component(3) == -c1.pow(3) + 2 * c1 * c2 - c3
        assert rebuilt.homogeneous_component(4) == (
            c1.pow(4) - 3 * c1.pow(2) * c2 + c2.pow(2) + 2 * c1 * c3
        )


@pytest.mark.parametrize("rank", [1, 2, 3, 4, 5, 6])
def test_criterion_3_segre_identity_all_ranks(rank):
    with criterion(3, f"Segre identity at rank {rank} (cutoff rank + 4)"):
        cutoff = rank + 4
        table = bundle_ring(rank)
        geometric = series_inverse(table.one() - table.var("x"), cutoff)
        result = pushforward(ClassExpr(geometric, cutoff), rank)
        assert result.valid_through == 5
        oracle = segre_oracle(rank, 5)
        for d in range(6):
            assert result.chern_form.homogeneous_component(d) == oracle.homogeneous_component(
                d
            ), (rank, d)


def test_criterion_4_restriction_and_euler_tables_rank_three():
    with criterion(4, "rank-3 restriction maps and Euler classes"):
        table = bundle_ring(3)
        u1, u2, u3 = root_generators(table)
        charts = fixed_point_charts(3)
        for j, chart in enumerate(charts, start=1):
            assert chart.restriction["y"] == table.var(f"u{j}")
        assert charts[0].euler == (u2 - u1) * (u3 - u1)
        assert charts[1].euler == (u1 - u2) * (u3 - u2)
        assert charts[2].euler == (u1 - u3) * (u2 - u3)


def test_criterion_5_chart_relation_all_ranks():
    with criterion(5, "restricted Whitney relation at ranks 1..6"):
        for rank in range(1, 7):
            assert relation_check(rank), rank


def test_criterion_6_oracle_triangle_suite():
    with criterion(6, "oracle triangle: 200 random classes plus the monomial family"):
        rng = random.Random(20240610)
        for n in range(200):
            rank = 1 + (n % 5)
            p = random_x_class(rng, rank, max_x_degree=8)
            expr = ClassExpr(p)
            via_sum = pushforward(expr, rank).chern_form
            via_presentation = presentation_oracle(expr, rank)
            assert via_sum == via_presentation, (rank, p.render())

        # Monomial family, verified against the divided-difference reference.
        # With y restricting to u_j at the j-th point, the closed form carries
        # the parity of the fiber dimension (y = -x): the sum equals
        # (-1)^(rank-1) h_m, which is h_m itself at every odd rank, including
        # the rank-3 worked case.  In the hyperplane variable x the family is
        # sign-uniform: the pushforward of x^(rank-1+m) is (-1)^m h_m for all
        # ranks, the degree-m Segre class.
        for rank in range(1, 6):
            table = bundle_ring(rank)
            y, x = table.var("y"), table.var("x")
            roots = root_generators(table)
            parity = 1 if rank % 2 == 1 else -1
            for m in range(6):
                value = localize(y.pow(rank - 1 + m), rank).value
                reference = localize_divided_differences(y.pow(rank - 1 + m), rank)
                h_m = complete_homogeneous(m, roots)
                assert value == reference, (rank, m)
                assert value == parity * h_m, (rank, m)
                if rank % 2 == 1:
                    assert value == h_m, (rank, m)
                x_value = localize(x.pow(rank - 1 + m), rank).value
                assert x_value == (1 if m % 2 == 0 else -1) * h_m, (rank, m)


def test_criterion_7_structural_invariants():
    with criterion(7, "Weyl invariance, exact divisions, degree shift, reduction round trip"):
        rng = random.Random(77001)

        # Every localization output is Weyl invariant; every run completes,
        # which certifies zero remainders in every exact division.
        for n in range(60):
            rank = 1 + (n % 4)
            phi = random_fiber_poly(rng, rank)
            result = localize(phi, rank)
            assert is_symmetric(result.value)

        # Degree-shift bookkeeping on homogeneous inputs.
        for n in range(40):
            rank = 1 + (n % 4)
            phi = random_fiber_poly(rng, rank)
            for d, part in graded_parts(phi):
                value = localize(part, rank).value
                if d < rank - 1:
                    assert value.is_zero()
                elif not value.is_zero():
                    assert value.is_homogeneous_of_degree(d - (rank - 1))

        # Symmetric-reduction round trip on 200 random symmetric polynomials.
        for n in range(200):
            rank = 1 + (n % 5)
            g = random_chern_poly(rng, rank)
            expanded = expand_elementary(g)
            assert is_symmetric(expanded)
            assert reduce_to_elementary(expanded) == g, (rank, g.render())


def test_criterion_8_front_end_robustness():
    with criterion(8, "parser fuzz (10^4 byte strings) and 200 print round trips"):
        rng = random.Random(88333)
        seeds = [
            "inv(1-x)", "x^2", "c1 x", "q2+y", "u1 u2", "3/4", "(1+x)(1-x)",
            "push", "inv", "^", "1/0", "x^-1",
        ]
        for n in range(10_000):
            if n % 3 == 0:
                text = rng.randbytes(rng.randint(0, 30)).decode("latin-1")
            elif n % 3 == 1:
                base = rng.choice(seeds)
                chars = list(base)
                for _ in range(rng.randint(0, 4)):
                    pos = rng.randrange(0, max(1, len(chars)))
                    chars.insert(pos, chr(rng.randint(32, 126)))
                text = "".join(chars)
            else:
                alphabet = "xyqcu0123456789+-*/^() inv"
                text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 25)))
            try:
                parse_expression(text, 3, allow_u=True)
            except PushkitError as exc:
                offset = getattr(exc, "offset", None)
                assert isinstance(offset, int) and 0 <= offset <= len(text), repr(text)
            # anything else would be a crash and fail the test

        # parse/print round trip on 200 random polynomials
        for n in range(200):
            rank = 1 + (n % 4)
            table = bundle_ring(rank)
            pool = ["y"] + [f"q{i}" for i in range(1, rank)]
            pool += [f"c{i}" for i in range(1, rank + 1)]
            pool += [f"u{i}" for i in range(1, rank + 1)]
            p = random_poly(rng, table, pool, max_terms=5, max_exp=3)
            text = p.render()
            ast = parse_expression(text, rank, allow_u=True)
            assert elaborate(ast, rank, max(p.degree(), 0)).payload == p, text
