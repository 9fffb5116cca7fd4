"""Every command of the golden corpus prints the bytes it printed when the
corpus was written (``tools/golden.py``)."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

from pushkit.cli import run

CORPUS = json.loads((Path(__file__).resolve().parent / "golden.json").read_text())


def test_every_corpus_command_prints_its_recorded_bytes():
    assert len(CORPUS) == 125
    for entry in CORPUS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(entry["argv"])
        got = {"exit": code, **{name: hashlib.sha256(stream.getvalue().encode()).hexdigest()
                                for name, stream in (("stdout", out), ("stderr", err))}}
        assert got == {key: entry[key] for key in got}, (
            f"first command that differs: {entry['argv']}\n"
            f"stdout starts: {out.getvalue()[:400]!r}\nstderr starts: {err.getvalue()[:400]!r}")
