"""Tests of the benchmark itself (not part of the tier-1 suite):

    python3 -m pytest -q perfbench

They take about a minute and a half, most of it in the checks that trace
real pushforwards.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import pytest  # noqa: E402

import model  # noqa: E402
import workloads  # noqa: E402
from run import tail  # noqa: E402
from spans import Tracer, layer_metrics, op_profile, self_times  # noqa: E402
from speed import REFERENCE_S, Clock  # noqa: E402
from workloads import Op, check_cli, check_in_process, expected_answer  # noqa: E402

COUNT_UNITS = ("count", "bytes")


def small_ops() -> list[Op]:
    """Cheap operations from every generator: ranks up to 4 only."""
    ops = workloads.deep_series(3) + workloads.rank_ladder(3)[:3]
    ops += [op for op in workloads.cli_mixed(3) if op.command == "push" and op.rank <= 4]
    return [replace(op, command="pushforward") for op in ops if op.rank <= 5 and op.cutoff <= 20]


def fake_proc(stdout: str, returncode: int = 0, stderr: str = ""):
    return subprocess.CompletedProcess([], returncode, stdout, stderr)


def test_oracle_accepts_the_program_answers():
    for op in small_ops():
        result = workloads.run_in_process(op)
        assert check_in_process(op, expected_answer(op), result) is None, op.label


def test_q_classes_are_checked_although_the_program_skips_its_oracle():
    op = Op(4, 7, workloads.Q1_Q2_Y3)
    result = workloads.run_in_process(op)
    assert "presentation_oracle" not in result.checks
    assert check_in_process(op, expected_answer(op), result) is None
    wrong = replace(result, chern_form=result.chern_form + 1)
    assert check_in_process(op, expected_answer(op), wrong) is not None


@pytest.mark.parametrize("spec", [model.segre_class(), model.power_class(6)])
def test_perturbed_in_process_answer_is_a_failure(spec):
    op = Op(4, 8, spec)
    result = workloads.run_in_process(op)
    expected = expected_answer(op)
    assert check_in_process(op, expected, result) is None
    c1 = result.chern_form.table.var("c1")
    assert check_in_process(op, expected, replace(result, chern_form=result.chern_form + c1))
    assert check_in_process(op, expected, replace(result, valid_through=3))
    assert check_in_process(op, expected, replace(result, checks={"presentation_oracle": "fail"}))
    assert check_in_process(op, expected, ValueError("boom"))


@pytest.mark.parametrize("fmt", ["text", "json", "tex"])
def test_perturbed_cli_answer_is_a_failure(fmt):
    op = Op(3, 6, model.segre_class(), "push", fmt)
    expected = expected_answer(op)
    proc = workloads.run_cli(op)
    assert check_cli(op, expected, proc) is None
    if fmt == "json":
        doc = json.loads(proc.stdout)
        doc["terms"][0]["coeff"] = str(Fraction(doc["terms"][0]["coeff"]) + 1)
        perturbations = [json.dumps(doc)]
    elif fmt == "tex":
        perturbations = [proc.stdout.replace(" + 1\n", " + 2\n")]
    else:
        perturbations = [
            proc.stdout.replace(f"{field} = ", f"{field} = 2 + ", 1)
            for field in ("input", "chern_form", "u_form")
        ]
    for perturbed in perturbations:
        assert perturbed != proc.stdout
        assert check_cli(op, expected, fake_proc(perturbed)) is not None
    assert check_cli(op, expected, fake_proc(proc.stdout, stderr="warning\n")) is not None
    assert check_cli(op, expected, fake_proc(proc.stdout, returncode=1)) is not None


def test_perturbed_table_and_verify_output_is_a_failure():
    table = Op(3, 0, command="table", start=0, stop=5)
    proc = workloads.run_cli(table)
    assert check_cli(table, None, proc) is None
    assert check_cli(table, None, fake_proc(proc.stdout.replace("c1", "c2"))) is not None
    verify = Op(2, 5, command="verify")
    proc = workloads.run_cli(verify)
    assert check_cli(verify, None, proc) is None
    assert check_cli(verify, None, fake_proc(proc.stdout.replace("PASS", "FAIL", 1))) is not None


def test_generation_is_seeded():
    for build in workloads.WORKLOADS.values():
        assert [op.label for op in build(5)] == [op.label for op in build(5)]
    seeds = {tuple(op.label for op in workloads.rank_ladder(s)) for s in range(6)}
    assert len(seeds) > 1


def test_self_time_subtracts_direct_children():
    spans = [
        ["a", 0.0, 10.0, -1, "0", None],
        ["b", 1.0, 4.0, 0, "0", None],
        ["c", 2.0, 3.0, 1, "0", None],
    ]
    assert self_times(spans) == [7.0, 2.0, 1.0]


def test_scaled_times_cancel_the_machine_speed():
    clock = Clock()
    clock.raw = [1.0, 2.0, 3.0]
    clock.refs = [REFERENCE_S] * 4
    assert clock.scaled() == [1.0, 2.0, 3.0]
    clock.refs = [2 * REFERENCE_S] * 4  # a machine at half speed
    assert clock.scaled() == [0.5, 1.0, 1.5]


def test_tail_has_ten_samples_beyond_it():
    xs = [float(i) for i in range(1, 41)]
    assert tail(xs) == (30.0, 75.0)
    assert tail(xs[:5]) == (5.0, 100.0)


def traced_counts(ops: list[Op]) -> tuple[dict, Tracer]:
    tracer = Tracer()
    tracer.install()
    try:
        for i, op in enumerate(ops):
            tracer.op = str(i)
            workloads.run_in_process(op)
    finally:
        tracer.uninstall()
    counts = {k: v for k, v in layer_metrics(tracer.spans).items() if not k.endswith("_s")}
    return counts, tracer


def test_rank7_counts_repeat_and_match_the_roadmap_baseline():
    op = Op(7, 10, model.segre_class())
    workloads.run_in_process(op)  # fill the rank-7 caches
    first, tracer = traced_counts([op])
    second, _ = traced_counts([op])
    assert first == second
    prof = op_profile(tracer.spans, "0")
    assert prof["numerator_terms"] == 25200
    assert prof["u_form_terms"] == 330
    assert prof["divide_calls"] == 21
    assert first["polyring.divide_terms_max"] == 47040
    assert first["symfun.is_symmetric_calls"] == 2


def test_traced_runs_with_one_seed_give_identical_counts():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    count_names = [m["name"] for m in bench["per_layer"] if m["unit"] in COUNT_UNITS]
    runs = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "cli_mixed", "--seed", "4",
             "--seconds", "1", "--trace", "1"],
            cwd=ROOT, capture_output=True, text=True, timeout=170,
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        runs.append({name: result["metrics"][name]["value"] for name in count_names})
    assert runs[0] == runs[1]
    assert runs[0]["cli.output_bytes"] > 0


def test_traced_series_inversions_are_the_program_s_own():
    """The answer check inverts series too; none of its calls may be traced."""
    seed = 6
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "deep_series", "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["failed"] == 0
    spans = json.loads((ROOT / ".perfbench" / f"deep_series-seed{seed}-trace1.json").read_text())["spans"]
    inverses = [s for s in spans if s[0] == "polyring.series_inverse"]
    assert inverses
    for name, _start, _end, parent, op, _count in inverses:
        while parent >= 0 and spans[parent][0] != "expressions.elaborate":
            parent = spans[parent][3]
        assert parent >= 0, f"series_inverse span of op {op} outside expressions.elaborate"
        assert spans[parent][4] == op


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "deep_series", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
