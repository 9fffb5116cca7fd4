"""The mutation harness ``tools/mutants.py`` on a tiny fixture project."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

HARNESS_PATH = Path(__file__).resolve().parent.parent / "tools" / "mutants.py"


def _harness():
    spec = importlib.util.spec_from_file_location("mutants_harness", HARNESS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_harness_reports_killed_survived_and_stale_mutants(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("PYTEST_DISABLE_PLUGIN_AUTOLOAD", "1")  # the fixture needs no plugin
    (tmp_path / "src").mkdir()
    (tmp_path / "tests").mkdir()
    (tmp_path / "pyproject.toml").write_text("[tool.pytest.ini_options]\ntestpaths = [\"tests\"]\n")
    module = "def double(x):\n    return 2 * x\n\n\ndef negate(x):\n    return -x\n"
    (tmp_path / "src" / "fixture_mod.py").write_text(module)
    (tmp_path / "tests" / "test_fixture.py").write_text(
        "import pytest\nfrom fixture_mod import double, negate\n\n\ndef test_double():\n    assert double(3) == 6\n\n\n"
        "@pytest.mark.parametrize('x', [1], ids=['x - 1'])\ndef test_negate(x):\n    assert negate(x) == -1\n")
    source = "src/fixture_mod.py"
    mutants = [
        {"name": "no-op", "file": source, "old": "2 * x", "new": "2 * x", "source": "fixture"},
        {"name": "gone", "file": source, "old": "3 * x", "new": "4 * x", "source": "fixture"},
        {"name": "triple", "file": source, "old": "2 * x", "new": "3 * x", "source": "fixture"},
        {"name": "identity", "file": source, "old": "-x", "new": "x", "source": "fixture"},
    ]
    results = _harness().run(mutants, root=tmp_path, timeout=120)
    assert [(mutant["name"], outcome) for mutant, outcome, _, _ in results] == [
        ("no-op", "survived"), ("gone", "stale"), ("triple", "killed"), ("identity", "killed")]
    assert results[1][3] == "old text found 0 times in src/fixture_mod.py"
    assert results[2][3] == "tests/test_fixture.py::test_double"
    assert results[3][3] == "tests/test_fixture.py::test_negate[x - 1]"  # the whole id, " - " and all
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5 and lines[0].startswith("unchanged copy passes tier-1")
    # the project itself is left as it was
    assert (tmp_path / source).read_text() == module


def test_every_recorded_mutant_names_its_file_text_and_source():
    harness = _harness()
    mutants = json.loads(harness.DATA.read_text())
    assert len({mutant["name"] for mutant in mutants}) == len(mutants)
    for mutant in mutants:
        assert mutant.keys() == {"name", "file", "old", "new", "source"}
        assert (harness.ROOT / mutant["file"]).is_file() and mutant["old"] != mutant["new"]
        # a refactor that rewrites a mutated line must rewrite its mutant too
        assert (harness.ROOT / mutant["file"]).read_text().count(mutant["old"]) == 1, mutant["name"]
        assert mutant["source"].startswith("CHANGES.md:")
