"""The benchmark's workloads: the operations each one runs, generated from a
seed; how an operation is executed; and how its answer is checked.

Every workload is a closed loop with one client: the next operation starts
only after the previous one has returned.  In-process operations parse,
elaborate and push forward one expression string with ``verify=True``;
``cli_mixed`` operations are whole ``pushkit`` processes.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import pushkit.expressions as expressions
import pushkit.gysin as gysin
from pushkit.cli import OutputRecord
from pushkit.symfun import expand_elementary

import model
from model import ClassSpec, general_class, power_class, segre_class

ROOT = Path(__file__).resolve().parent.parent
CLI_MAIN = "from pushkit.cli import main; main()"
BOOT = str(Path(__file__).resolve().parent / "boot.py")
CLI_TIMEOUT_S = 120


@dataclass(frozen=True)
class Op:
    """One operation.  ``command`` is "pushforward" for an in-process call,
    otherwise a ``pushkit`` subcommand; ``start``/``stop`` are the range of
    ``table``."""

    rank: int
    cutoff: int
    spec: ClassSpec | None = None
    command: str = "pushforward"
    fmt: str = "text"
    start: int = 0
    stop: int = 0

    @property
    def label(self) -> str:
        what = self.spec.text if self.spec is not None else f"x^{self.start}..x^{self.stop}"
        fmt = f" --format {self.fmt}" if self.command == "push" else ""
        return f"{self.command}{fmt} rank {self.rank} cutoff {self.cutoff}: {what}"

    def cli_args(self) -> list[str]:
        rank = ["--rank", str(self.rank)]
        if self.command == "table":
            return ["table", *rank, "--from", str(self.start), "--to", str(self.stop)]
        degree = ["--max-degree", str(self.cutoff)]
        if self.command == "verify":
            return ["verify", *rank, *degree]
        # "--" keeps an expression that starts with "-" from reading as an option.
        if self.command == "localize":
            return ["localize", *rank, *degree, "--", self.spec.text]
        return ["push", *rank, *degree, "--format", self.fmt, "--", self.spec.text]


# -- the workloads ---------------------------------------------------------

Q1_Q2_Y3 = general_class([(Fraction(1), (("q1", 1), ("q2", 1), ("y", 3)))])

# Random classes per rank: (largest term degree, support band in root
# monomials at one fixed point; see model.restricted_support).  The bands
# keep each random class in a known cost band, away from the operations the
# latency percentiles fall on: at rank 5 cheaper than inv(1-x) at rank 5, at
# rank 6 cheaper than x^8 at rank 6, at rank 7 dearer than inv(1-x) at
# rank 6.  No band keeps a rank-6 class cheaper than inv(1-x) at rank 5, so
# rank_ladder runs that class only three times a pass.
LADDER_RANDOM = {5: (8, (10, 40)), 6: (5, (2, 4)), 7: (10, (20, 30))}
CLI_RANDOM = {
    1: (4, (1, 4)), 2: (5, (1, 20)), 3: (6, (1, 30)), 4: (7, (5, 40)), 5: (8, (10, 40)),
    6: (5, (2, 7)),
}


def rank_ladder(seed: int) -> list[Op]:
    """Twelve rounds, each running inv(1-x), x^(r+2) and the random class at
    rank 5 and inv(1-x) and x^8 at rank 6; the random rank-6 class ends three
    rounds and each rank-7 class one, spread over the pass.

    Sorted by latency, the 66 samples are 24 cheap rank-5 ones, the three
    random rank-6 ones, twelve of inv(1-x) at rank 5, twelve of x^8 at
    rank 6, twelve of inv(1-x) at rank 6 and three at rank 7.  The median
    then falls on the sixth and seventh of the twelve of inv(1-x) at rank 5
    and the tail (ten samples beyond it) on the fifth of the twelve of
    inv(1-x) at rank 6, on fixed classes for every seed."""
    rng = random.Random(seed)
    by_rank = {}
    for rank, (max_degree, band) in LADDER_RANDOM.items():
        cutoff = rank + 3
        by_rank[rank] = [
            Op(rank, cutoff, segre_class()),
            Op(rank, cutoff, power_class(rank + 2)),
            Op(rank, cutoff, model.random_fiber_class(rng, rank, max_degree, band)),
        ]
    inv6, x8, rand6 = by_rank[6]
    inv7, x9, rand7 = by_rank[7]
    ends = {1: [inv7], 3: [rand6], 5: [x9], 7: [rand6], 9: [rand7], 11: [rand6]}
    ops = []
    for k in range(12):
        ops += by_rank[5] + [inv6, x8] + ends.get(k, [])
    return ops


# Random classes of deep_series, each times inv(1 + a y): (rank, cutoff,
# support band).  At these cutoffs every draw is cheaper than the cheapest
# fixed operation, so the latency percentiles fall on fixed operations.
DEEP_RANDOM = (
    (2, 26, (2, 10)), (3, 14, (4, 30)), (2, 20, (2, 10)), (3, 14, (4, 30)),
    (2, 16, (2, 10)), (3, 12, (4, 30)),
)


def deep_series(seed: int) -> list[Op]:
    """Five fixed operations and six seeded random ones; the cheapest fixed
    one and inv(1 + c1 x + c2 x^2 - y q1) run three times a pass.  With
    three passes, sorted by latency, the 45 samples are eighteen random
    ones, nine of (q1 q2 y^3) inv(1 + y) at rank 4, three of inv(1-x) at
    (2, 40), nine of inv(1 + c1 x + c2 x^2 - y q1) and six of the dearest
    two.  The median then falls on the fifth of the nine of
    (q1 q2 y^3) inv(1 + y) and the tail (ten samples beyond it) on the
    fifth of the nine of inv(1 + c1 x + c2 x^2 - y q1), each in the middle
    of its group."""
    rng = random.Random(seed)
    one = (Fraction(1), ())
    q_series = Op(4, 14, general_class(list(Q1_Q2_Y3.terms), [one, (Fraction(1), (("y", 1),))]))
    chern_series = Op(3, 20, general_class([one], [
        one,
        (Fraction(1), (("c1", 1), ("x", 1))),
        (Fraction(1), (("c2", 1), ("x", 2))),
        (Fraction(-1), (("y", 1), ("q1", 1))),
    ]))
    rand = [
        Op(rank, cutoff, model.random_series_class(rng, rank, cutoff, band))
        for rank, cutoff, band in DEEP_RANDOM
    ]
    return [
        Op(2, 40, segre_class()),
        q_series,
        chern_series,
        Op(3, 24, segre_class()),
        rand[0],
        q_series,
        chern_series,
        rand[4],
        Op(4, 16, segre_class()),
        rand[1],
        rand[2],
        chern_series,
        q_series,
        rand[3],
        rand[5],
    ]


def cli_mixed(seed: int) -> list[Op]:
    rng = random.Random(seed)
    fmts = ("text", "json", "tex")
    ranks = range(1, 7)
    # The ROADMAP Baseline row: push --rank 6 --max-degree 12 "inv(1-x)".
    ops = [Op(6, 12, segre_class(), "push", "text")]
    ops += [Op(r, r + 3, segre_class(), "push", fmts[r % 3]) for r in ranks]
    ops += [Op(r, r + 3, power_class(r - 1 + rng.randint(0, 3)), "push", "json") for r in ranks]
    ops += [Op(r, r + 3, Q1_Q2_Y3, "push", fmts[r % 3]) for r in range(3, 7)]
    # With these two, twelve samples of fixed rank-6 classes at cutoff 9 lie
    # below the three of cutoff 12, so the tail (ten samples beyond it)
    # falls among them and not on a seeded class.
    ops += [Op(6, 9, Q1_Q2_Y3, "push", "json"), Op(6, 9, segre_class(), "localize")]
    ops += [
        Op(r, r + 3, model.random_fiber_class(rng, r, *CLI_RANDOM[r]), "push", fmts[(r + 1) % 3])
        for r in ranks
    ]
    ops += [
        Op(r, r + 3, model.random_fiber_class(rng, r, *CLI_RANDOM[r]), "localize")
        for r in (2, 3, 4)
    ]
    ops += [Op(r, 0, command="table", start=0, stop=8) for r in (2, 4)]
    ops.append(Op(2, 5, command="verify"))
    return ops


WORKLOADS = {"cli_mixed": cli_mixed, "rank_ladder": rank_ladder, "deep_series": deep_series}
# Seconds one pass takes on the reference machine (2-core x86-64 VM,
# CPython 3.11) in its fast spells; a run makes round(--seconds /
# PASS_SECONDS) passes.
PASS_SECONDS = {"cli_mixed": 8.0, "rank_ladder": 16.0, "deep_series": 8.5}


# -- execution -------------------------------------------------------------


def run_in_process(op: Op):
    """Parse, elaborate and push forward, looking each function up on its
    module at call time so that installed trace wrappers are used."""
    ast = expressions.parse_expression(op.spec.text, op.rank)
    cls = expressions.elaborate(ast, op.rank, op.cutoff)
    return gysin.pushforward(cls, op.rank)


def cli_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("PUSHKIT_THREADS", None)
    return env


def run_cli(op: Op, trace_out: str | None = None) -> subprocess.CompletedProcess:
    """One ``pushkit`` process.  The checkout is not installed, so there is
    no console script, and ``python -m pushkit.cli`` warns on stderr; the
    entry point is called directly.  A traced run starts it from the
    benchmark's bootstrap."""
    if trace_out is None:
        cmd = [sys.executable, "-c", CLI_MAIN, *op.cli_args()]
    else:
        cmd = [sys.executable, BOOT, trace_out, *op.cli_args()]
    return subprocess.run(
        cmd, cwd=ROOT, env=cli_env(), capture_output=True, text=True, timeout=CLI_TIMEOUT_S
    )


@dataclass(frozen=True)
class Answer:
    """The parts of a pushforward result the answer check reads."""

    chern_form: object  # Polynomial
    valid_through: int | None
    checks: dict


def slim(result):
    """Drop the parts of an in-process result the check does not read."""
    if isinstance(result, gysin.PushforwardResult):
        return Answer(result.chern_form, result.valid_through, dict(result.checks))
    return result


def timed(fn, *args):
    """(seconds, result or the exception raised)."""
    start = time.perf_counter()
    try:
        out = fn(*args)
    except Exception as exc:  # an operation that raises counts as failed
        out = exc
    return time.perf_counter() - start, out


# -- answer checks ---------------------------------------------------------


@dataclass(frozen=True)
class Expected:
    chern_form: object  # Polynomial
    valid_through: int | None


def expected_answer(op: Op) -> Expected | None:
    if op.spec is None:
        return None
    return Expected(
        model.expected_chern_form(op.spec, op.rank, op.cutoff), op.cutoff - (op.rank - 1)
    )


def _no_failed_check(checks) -> str | None:
    failed = [name for name, outcome in checks if outcome != "pass"]
    return f"checks not passed: {failed}" if failed else None


def check_in_process(op: Op, expected: Expected, result) -> str | None:
    """None when the answer is right, else what is wrong."""
    if isinstance(result, Exception):
        return f"raised {result!r}"
    if result.valid_through != expected.valid_through:
        return f"valid_through {result.valid_through} != {expected.valid_through}"
    if result.chern_form != expected.chern_form:
        return "chern_form differs from the oracle"
    return _no_failed_check(result.checks.items())


def _text_fields(stdout: str) -> dict[str, str]:
    fields = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            fields[key] = value
    return fields


def check_cli(op: Op, expected: Expected | None, proc) -> str | None:
    """None when the process exited 0, wrote nothing on stderr and printed
    the right answer; else what is wrong."""
    if isinstance(proc, Exception):
        return f"raised {proc!r}"
    if proc.returncode != 0:
        return f"exit code {proc.returncode}: {proc.stderr.strip()[:200]}"
    if proc.stderr:
        return f"unexpected stderr: {proc.stderr.strip()[:200]}"
    out = proc.stdout
    if op.command == "table":
        want = [
            f"f_*(x^{k}) = {model.segre_part(op.rank, k - (op.rank - 1)).render()}"
            for k in range(op.start, op.stop + 1)
        ]
        return None if out.splitlines() == want else "table differs from the oracle"
    if op.command == "verify":
        lines = out.splitlines()
        total = len(lines) - 1
        summary = f"{total}/{total} checks passed (rank {op.rank}, max degree {op.cutoff})"
        ok = total >= 3 and lines[-1] == summary and all(l.startswith("PASS ") for l in lines[:-1])
        return None if ok else "verify reported a failed check"
    chern = expected.chern_form
    if op.command == "push" and op.fmt == "json":
        doc = json.loads(out)
        if doc["valid_through"] != expected.valid_through:
            return "valid_through differs"
        if model.polynomial_from_json_terms(doc["terms"], op.rank) != chern:
            return "chern_form differs from the oracle"
        return _no_failed_check(doc["checks"].items())
    if op.command == "push" and op.fmt == "tex":
        record = OutputRecord(op.rank, op.cutoff, expected.valid_through, "", chern)
        return None if out.strip() == record.render_tex() else "tex differs from the oracle"
    fields = _text_fields(out)
    if fields.get("input") != model.build_payload(op.spec, op.rank, op.cutoff).render():
        return "input echo differs"
    if fields.get("valid_through") != str(expected.valid_through):
        return "valid_through differs"
    if fields.get("u_form") != expand_elementary(chern).render():
        return "u_form differs from the oracle"
    if op.command == "localize":
        return None
    if fields.get("chern_form") != chern.render():
        return "chern_form differs from the oracle"
    checks_line = [l for l in out.splitlines() if l.startswith("checks: ")]
    if not checks_line:
        return "no checks line"
    return _no_failed_check(item.split("=") for item in checks_line[0][8:].split())
