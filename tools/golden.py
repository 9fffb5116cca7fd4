"""Write the golden corpus that ``tests/test_golden.py`` replays.

    python3 tools/golden.py

Runs each command of the corpus through ``pushkit.cli.run`` in this
process, from the checkout's ``src/``, and writes ``tests/golden.json``:
per command its argv, its exit code and the sha256 of its standard output
and of its standard error, each as UTF-8 text.  The commands are the
benchmark's ``cli_mixed`` commands of seeds 1, 7 and 42 (93 in all, read
from ``perfbench/workloads.py``), ``verify`` at ranks 16 and 32, and one
refusal per exit path of ``cli.run``: a rank above 64, a --max-degree one
below the fiber dimension, a parse error, a coefficient too long to print,
and a ``localize`` whose answer is not symmetric in the roots.  Rational
coefficients get their own commands: the six random classes of ``deep_series`` seed 1 as JSON pushes, two rational
classes at ranks 3 and 4 in every format, a rational ``localize`` and a
rational series refused as unprintable.  Five more commands show the
degree recursion of a truncated power, a generator above the cutoff and a
``localize`` whose answer mixes roots with substituted c_i.  The heavy JSON
pushes of the ROADMAP Baseline and ``verify`` at rank 64 take about
0.4-1.3 s each, over the corpus test's budget of 1.5 s, and are left out.
The argv lists are written out literally, so the test reads only the data
file.  A change that alters printed output regenerates the file, and names
each command whose bytes changed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "golden.json"
SEEDS = (1, 7, 42)
EXTRA = [
    ["verify", "--rank", "16"],
    ["verify", "--rank", "32", "--max-degree", "35"],
    ["push", "--rank", "65", "x"],  # a usage error
    ["push", "--rank", "3", "--max-degree", "1", "--", "x"],  # a usage error: one below the fiber dimension
    ["push", "--rank", "3", "--", "x +"],  # a parse error
    ["push", "--rank", "2", "--", "2^14000 2^14000 x"],  # an unprintable coefficient
    ["localize", "--rank", "2", "--", "u1 x"],  # not symmetric in the roots
    *(["push", "--rank", str(rank), "--format", fmt, "--", text]
      for text in ("1/2 x^4 - 3/4 q1 y^2", "inv(3 + 2 x)") for rank in (3, 4) for fmt in ("text", "json", "tex")),
    ["localize", "--rank", "3", "--max-degree", "8", "--", "inv(1 + 4/3 y)"],
    ["push", "--rank", "2", "--", "inv(1 - 1/10^1000 x)"],  # an unprintable rational coefficient
    # truncated powers through the degree recursion: n > 0, c0 != 1, c0 < 0
    ["push", "--rank", "4", "--max-degree", "20", "--format", "json", "--", "(1 + x + c1)^12"],
    ["push", "--rank", "3", "--max-degree", "12", "--format", "json", "--", "(1/3 + x)^5"],
    ["push", "--rank", "2", "--max-degree", "6", "--", "(-2 + x)^3"],
    ["push", "--rank", "3", "--max-degree", "2", "--format", "json", "--", "c3 + x^2"],  # c3 above the cutoff
    ["localize", "--rank", "2", "--max-degree", "3", "--", "(u1^2 + u2^2) x + c1^2 x"],  # roots beside c_i
]


def record(run, argv: list[str]) -> dict:
    """One command's entry: argv, exit code and the sha256 of each stream."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return {
        "argv": argv,
        "exit": code,
        "stdout": hashlib.sha256(out.getvalue().encode()).hexdigest(),
        "stderr": hashlib.sha256(err.getvalue().encode()).hexdigest(),
    }


def commands() -> list[list[str]]:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import model
    from workloads import DEEP_RANDOM, Op, cli_mixed

    rng = random.Random(1)  # deep_series(1) draws its random classes so, in this order
    rational = [Op(rank, cutoff, model.random_series_class(rng, rank, cutoff, band), "push", "json")
                for rank, cutoff, band in DEEP_RANDOM]
    return [op.cli_args() for seed in SEEDS for op in cli_mixed(seed)] + [op.cli_args() for op in rational] + EXTRA


def main() -> int:
    argvs = commands()
    from pushkit.cli import run

    entries = [json.dumps(record(run, argv)) for argv in argvs]
    DATA.write_text("[\n" + ",\n".join(entries) + "\n]\n")  # one command a line
    print(f"wrote {len(argvs)} commands to {DATA.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
