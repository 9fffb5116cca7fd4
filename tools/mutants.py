"""Run the recorded mutants against the tier-1 suite, one at a time.

    python3 tools/mutants.py

Each mutant in ``tools/mutants.json`` names a file under the repository
root, an exact old text, the new text that replaces it, and the CHANGES.md
line that first recorded it.  The script copies what tier-1 reads (``src/``,
``tests/``, ``demos/``, ``perfbench/``, ``tools/`` and ``pyproject.toml``)
into a temporary directory and runs tier-1 there once unchanged; if that run
fails, it stops with exit status 2.  It then applies one mutant at a time
to the copy, runs tier-1 with ``-x`` under a timeout of 600 s and an
address-space cap of 3,000,000 KiB, and restores the file.  One run at a
time: the suite itself starts subprocesses.  The mutant runs deselect
``SELF_CHECK``, the test that each recorded old text is in its file, which
any mutant in place fails; the unchanged run keeps it.

Each mutant is reported as one of:
- killed: tier-1 failed, with the whole id of the first failing test and the
  seconds taken;
- survived: tier-1 passed with the mutant in place;
- timed out: tier-1 ran past the timeout and was stopped;
- stale: the old text is not in the file exactly once, so nothing ran.

The exit status is 0 when every mutant was killed and 1 otherwise.  Only
the standard library and pytest are used.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DATA = Path(__file__).resolve().with_name("mutants.json")
COPIED = ("src", "tests", "demos", "perfbench", "tools", "pyproject.toml")
TIER1 = ("-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--continue-on-collection-errors")
SELF_CHECK = "tests/test_mutants.py::test_every_recorded_mutant_names_its_file_text_and_source"
TIMEOUT_S = 600.0
MEMORY_BYTES = 3_000_000 * 1024  # as `ulimit -v 3000000`
# "FAILED <id> - <message>": a parametrized id runs to the first "]" before " - ",
# since the id itself may hold " - "
_FIRST_FAILURE = re.compile(r"^(?:FAILED|ERROR) (\S+?\[.*?\]|\S+)(?: - |$)", re.MULTILINE)


def _cap_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_BYTES, MEMORY_BYTES))


def tier1(copy: Path, timeout: float, *extra: str) -> tuple[str, float, str]:
    """Run tier-1 in ``copy``, with pytest options ``extra``: (killed, survived
    or timed out; seconds; the first failing test, or the tail of the output
    when none is named)."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    start = time.monotonic()
    proc = subprocess.Popen([sys.executable, *TIER1, *extra], cwd=copy, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True, start_new_session=True,
                            preexec_fn=_cap_memory)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the suite's own subprocesses too
        proc.communicate()
        return "timed out", time.monotonic() - start, ""
    seconds = time.monotonic() - start
    if proc.returncode == 0:
        return "survived", seconds, ""
    first, tail = _FIRST_FAILURE.search(out), out.strip().splitlines()
    return "killed", seconds, first.group(1) if first else (tail[-1] if tail else "")


def run(mutants: list[dict[str, str]], root: Path = ROOT,
        timeout: float = TIMEOUT_S) -> list[tuple[dict[str, str], str, float, str]]:
    """Apply each mutant in turn to a copy of ``root`` and run tier-1 on it.
    Prints a line per mutant as it is found and returns (mutant, outcome,
    seconds, detail) per mutant; raises RuntimeError when the unchanged
    copy fails."""
    results = []
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp)
        for name in COPIED:
            source = root / name
            if source.is_dir():
                shutil.copytree(source, copy / name, ignore=shutil.ignore_patterns(
                    "__pycache__", ".hypothesis", ".pytest_cache"))
            elif source.is_file():
                shutil.copy2(source, copy / name)
        outcome, seconds, detail = tier1(copy, timeout)
        if outcome != "survived":
            raise RuntimeError(f"tier-1 {outcome} on the unchanged copy after {seconds:.1f} s: {detail}")
        print(f"unchanged copy passes tier-1 in {seconds:.1f} s")
        for mutant in mutants:
            target = copy / mutant["file"]
            text = target.read_text() if target.is_file() else ""
            found = text.count(mutant["old"])
            if found != 1:
                result = (mutant, "stale", 0.0, f"old text found {found} times in {mutant['file']}")
            else:
                target.write_text(text.replace(mutant["old"], mutant["new"]))
                try:
                    result = (mutant, *tier1(copy, timeout, "--deselect", SELF_CHECK))
                finally:
                    target.write_text(text)
            results.append(result)
            _, outcome, seconds, detail = result
            print(f"{outcome:<10} {seconds:6.1f} s  {mutant['name']}: {detail}  [{mutant['source']}]")
    return results


def main(argv: list[str] | None = None) -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args(argv)
    try:
        results = run(json.loads(DATA.read_text()))
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 2
    counts = {outcome: sum(r[1] == outcome for r in results)
              for outcome in ("killed", "survived", "timed out", "stale")}
    print(f"{len(results)} mutants: " + ", ".join(f"{n} {outcome}" for outcome, n in counts.items()))
    return 0 if counts["killed"] == len(results) else 1


if __name__ == "__main__":
    sys.exit(main())
