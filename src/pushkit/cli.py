"""Command-line front end.

Subcommands:

    push      --rank R --max-degree D [--format text|json|tex] EXPR
    localize  --rank R --max-degree D EXPR
    table     --rank R --from K0 --to K1
    verify    --rank R --max-degree D

Exit codes: 0 on success, 1 on a verification failure (a check recorded as
"fail", such as ``fixed_point_sample``, or a ``localize`` value that is not
symmetric in the roots) or an internal error, 2 on usage or parse errors.
A --rank outside 1..64 exits 2 before EXPR is read: above 64 the sample
check's integer point alone takes seconds (9 s at rank 300).
When --max-degree is omitted it defaults to rank + 3; it must be at least
rank - 1, the fiber dimension.  JSON output serializes every coefficient as
a "p/q" string so arbitrary precision survives any JSON reader; no floats
appear anywhere.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from collections.abc import Sequence

from .errors import (
    ArityError,
    NotInvertibleError,
    ParseError,
    PushkitError,
    SymmetryError,
    UnsupportedVariableError,
    UsageError,
)
from .expressions import elaborate, parse_expression
from .gysin import ClassExpr, pushforward, verify_classical
from .localization import bundle_ring, localize
from .polyring import Polynomial, _Value, _refuse_unprintable, _render_terms

__all__ = ["OutputRecord", "run", "main"]


class OutputRecord(_Value):
    """Printable record of one computation: the result polynomial plus the
    bookkeeping that makes the output reproducible (echo of the input class
    as built, validity bound, check outcomes)."""

    __slots__ = ("rank", "cutoff", "valid_through", "input_echo", "polynomial", "checks", "label")

    def __init__(self, rank: int, cutoff: int, valid_through: int | None, input_echo: str, polynomial: Polynomial,
                 checks: tuple[tuple[str, str], ...] = (), label: str = "chern_form") -> None:
        _Value.__init__(self, rank, cutoff, valid_through, input_echo, polynomial, checks, label)

    def to_json_dict(self) -> dict:
        names = self.polynomial.table.names
        return {
            "rank": self.rank,
            "cutoff": self.cutoff,
            "valid_through": self.valid_through,
            "terms": [
                {"coeff": f"{coeff.numerator}/{coeff.denominator}", "exps": {names[i]: e for i, e in mon}}
                for mon, coeff in self.polynomial.sorted_terms()
            ],
            "checks": dict(self.checks),
        }

    def render_text(self) -> str:
        lines = [
            f"input = {self.input_echo}",
            f"{self.label} = {self.polynomial.render()}",
            f"valid_through = {self.valid_through}",
        ]
        if self.checks:
            lines.append("checks: " + " ".join(f"{k}={v}" for k, v in self.checks))
        return "\n".join(lines)

    def render_tex(self) -> str:
        return _render_terms(self.polynomial, _tex_coeff, _tex_name, _tex_power)


def _tex_coeff(mag: int | Fraction) -> str:
    if mag.denominator == 1:
        return str(mag.numerator)
    return f"\\frac{{{mag.numerator}}}{{{mag.denominator}}}"


def _tex_name(name: str) -> str:
    return f"{name[0]}_{{{name[1:]}}}" if name[-1].isdigit() else name


def _tex_power(base: str, e: int) -> str:
    return f"{base}^{{{e}}}"


def _refuse_unprinted(*polys: Polynomial) -> None:
    """The print-time check: ``polyring._refuse_unprintable`` on every coefficient printed."""
    for p in polys:
        _refuse_unprintable(p._terms.values(), den=p._den)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pushkit",
        description=(
            "Exact pushforwards along a projectivized vector bundle, computed by "
            "summing over torus fixed points and verified against classical formulas."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, with_degree: bool = True) -> None:
        p.add_argument("--rank", type=int, required=True, help="rank of the bundle (>= 1)")
        if with_degree:
            p.add_argument(
                "--max-degree",
                type=int,
                default=None,
                help="series cutoff; defaults to rank + 3",
            )

    push = sub.add_parser("push", help="compute the pushforward of EXPR")
    add_common(push)
    push.add_argument("--format", choices=("text", "json", "tex"), default="text")
    push.add_argument("expr", metavar="EXPR")

    loc = sub.add_parser("localize", help="print the pushforward's closed form read in the roots u_i")
    add_common(loc)
    loc.add_argument("expr", metavar="EXPR")

    tab = sub.add_parser("table", help="print the pushforward of x^k for a range of k")
    add_common(tab, with_degree=False)
    tab.add_argument("--from", dest="start", type=int, required=True, metavar="K0")
    tab.add_argument("--to", dest="stop", type=int, required=True, metavar="K1")

    ver = sub.add_parser("verify", help="run the classical cross-check suite")
    add_common(ver)
    return parser


def _validated_rank(args: argparse.Namespace) -> int:
    rank = args.rank
    if rank < 1:
        raise UsageError("rank must be >= 1")
    if rank > 64:
        raise UsageError("rank must be <= 64")
    return rank


def _effective_degree(args: argparse.Namespace, rank: int) -> int:
    degree = args.max_degree if args.max_degree is not None else rank + 3
    if degree < rank - 1:
        raise UsageError(f"max degree must be at least rank - 1 = {rank - 1}, the fiber dimension")
    return degree


def _cmd_push(args: argparse.Namespace) -> int:
    rank = _validated_rank(args)
    degree = _effective_degree(args, rank)
    ast = parse_expression(args.expr, rank)
    cls = elaborate(ast, rank, degree)
    result = pushforward(cls, rank)
    # only text prints the echo and u_form; the property builds u_form, so it is read once
    echoed = (cls.payload, result.u_form) if args.format == "text" else ()
    _refuse_unprinted(result.chern_form, *echoed)
    record = OutputRecord(
        rank=rank,
        cutoff=degree,
        valid_through=result.valid_through,
        input_echo=cls.payload.render() if echoed else "",
        polynomial=result.chern_form,
        checks=tuple(result.checks.items()),
    )
    if args.format == "json":
        import json  # only here: no other command pays for importing it

        print(json.dumps(record.to_json_dict(), indent=2))
    elif args.format == "tex":
        print(record.render_tex())
    else:
        print(record.render_text())
        print(f"u_form = {echoed[1].render()}")
    return 1 if any(v == "fail" for _, v in record.checks) else 0


def _cmd_localize(args: argparse.Namespace) -> int:
    rank = _validated_rank(args)
    degree = _effective_degree(args, rank)
    ast = parse_expression(args.expr, rank, allow_u=True)
    cls = elaborate(ast, rank, degree)
    result = localize(cls.payload, rank, degree)
    _refuse_unprinted(cls.payload, result.value)
    record = OutputRecord(
        rank=rank,
        cutoff=degree,
        valid_through=result.valid_through,
        input_echo=cls.payload.render(),
        polynomial=result.value,
        label="u_form",
    )
    print(record.render_text())
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    rank = _validated_rank(args)
    if args.start < 0 or args.stop < args.start:
        raise UsageError("need 0 <= K0 <= K1")
    table = bundle_ring(rank)
    x = table.var("x")
    failed = False
    for k in range(args.start, args.stop + 1):
        result = pushforward(ClassExpr(x.pow(k)), rank)
        _refuse_unprinted(result.chern_form)
        if any(v == "fail" for v in result.checks.values()):
            failed = True
        print(f"f_*(x^{k}) = {result.chern_form.render()}")
    return 1 if failed else 0


def _cmd_verify(args: argparse.Namespace) -> int:
    rank = _validated_rank(args)
    degree = _effective_degree(args, rank)
    report = verify_classical(rank, degree)
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        detail = f": {check.detail}" if check.detail else ""
        print(f"{status} {check.name}{detail}")
    total = len(report.checks)
    passed = sum(1 for c in report.checks if c.passed)
    print(f"{passed}/{total} checks passed (rank {rank}, max degree {degree})")
    return 0 if report.ok else 1


def _print_positioned(exc: Exception, text: str | None) -> None:
    print(f"error: {exc}", file=sys.stderr)
    offset = getattr(exc, "offset", None)
    if offset is not None and text is not None and "\n" not in text:
        print(f"  {text}", file=sys.stderr)
        print("  " + " " * min(offset, len(text)) + "^", file=sys.stderr)


def run(argv: Sequence[str]) -> int:
    """Dispatch one command line; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 0

    handlers = {
        "push": _cmd_push,
        "localize": _cmd_localize,
        "table": _cmd_table,
        "verify": _cmd_verify,
    }
    expr_text = getattr(args, "expr", None)
    try:
        return handlers[args.command](args)
    except (ParseError, ArityError, NotInvertibleError, UnsupportedVariableError) as exc:
        _print_positioned(exc, expr_text)
        return 2
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except SymmetryError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    except (PushkitError, ValueError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("internal error: out of memory", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
