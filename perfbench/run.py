"""pushkit's benchmark: one command per workload run, every answer checked.

    python3 perfbench/run.py --workload rank_ladder --seed 1 --seconds 23 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 23 --trace 0

Run from the root of a checkout (it imports pushkit from ``src/``);
``--workload all`` runs every workload in turn, each in its own process.

With ``--trace 0`` it measures the end-to-end metrics of BENCHMARK.json:
set-up, then whole passes over the workload's operations.  The number of
passes is ``--seconds`` divided by the workload's nominal pass time,
rounded, so every run of one workload does the same work whatever the
machine's speed.  Every time is scaled to a fixed machine speed by a
reference loop timed around it (speed.py).  With ``--trace 1`` it runs
every operation once untraced and once traced and reports the per-layer
metrics, summed over set-up and the traced operations.

The last line of standard output is the JSON result; the lines before it
are a readable report.  Spans, latencies and the run record are written to
``.perfbench/`` in the checkout.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import warm
from speed import REFERENCE_S, Clock
from spans import Tracer, layer_metrics, op_profile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
CLI_SETUP_SAMPLES = 11
# Ranks whose caches each in-process workload fills, and the number of
# set-up samples a run takes (the first is the run's own set-up).
IN_PROCESS = {"rank_ladder": ((5, 6, 7), 3), "deep_series": ((2, 3, 4), 11)}
RANK7_SEGRE = (7, "inv(1-x)")  # the ROADMAP stage-profile row

NOT_COVERED = [
    'push --rank 8 --max-degree 8 "x^7" (54 s): too long to repeat in every run',
    "tier-1 suite wall time (~22 s): a test-suite time, not a benchmark metric",
]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except OSError:
        return "unknown (git not available)"
    return out.stdout.strip() or "unknown"


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with at least ten
    samples above it; the maximum when there are ten samples or fewer."""
    xs = sorted(latencies)
    k = len(xs) - 10 if len(xs) > 10 else len(xs)
    return xs[k - 1], 100.0 * k / len(xs)


def child_setup_sample(cmd: list[str], env: dict) -> float:
    """Set-up seconds of a fresh interpreter: printed by the child for an
    in-process workload, wall time of the whole process otherwise."""
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    wall = time.perf_counter() - start
    if proc.returncode != 0 or proc.stderr:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout) if proc.stdout.strip() else wall


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "pushkit" / "__init__.py").is_file():
        print(f"error: no pushkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    os.environ.pop("PUSHKIT_THREADS", None)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    if args.workload == "all":
        return run_all(args, names)
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; one of {names} or all", file=sys.stderr)
        return 2

    tracer = Tracer() if args.trace else None
    in_process = args.workload in IN_PROCESS
    setup = Clock()
    import_s = None
    if in_process:
        ranks, n_samples = IN_PROCESS[args.workload]

        def on_import():
            # The benchmark's modules bind pushkit functions by name, and
            # uninstall() restores names in pushkit modules only; so they are
            # imported before any function is wrapped, and the answer check
            # never runs through the trace wrappers.
            import workloads  # noqa: F401

            if tracer:
                tracer.install()

        def on_rank(rank):
            tracer.op = f"setup rank {rank}"

        import_s, own = warm.warm(ranks, on_import, on_rank if tracer else None)
        setup.add(own)
    import workloads  # imports pushkit, so only after set-up has timed the import

    if tracer is not None and import_s is not None:
        tracer.add("cli.import", 0.0, import_s)  # the in-process import of pushkit
    env = workloads.cli_env()
    if not args.trace:
        if in_process:
            probe = [sys.executable, str(HERE / "warm.py"), *map(str, ranks)]
            n_more = n_samples - 1
        else:
            probe = [sys.executable, "-c", "import pushkit"]
            n_more = CLI_SETUP_SAMPLES
        # Half the samples are taken before the timed passes and half after,
        # so that one slow spell of the machine does not hit them all.
        for _ in range(n_more // 2):
            setup.add(child_setup_sample(probe, env))

    ops = workloads.WORKLOADS[args.workload](args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    child_spans = str(OUT_DIR / f"child-{os.getpid()}.json")

    def run_op(i: int, traced: bool) -> tuple[int, float, object]:
        op = ops[i]
        if not traced:
            execute = workloads.run_in_process if in_process else workloads.run_cli
            return (i, *workloads.timed(execute, op))
        tracer.op = str(i)
        if not in_process:
            out = (i, *workloads.timed(workloads.run_cli, op, child_spans))
            if os.path.exists(child_spans):  # absent if the child died early
                with open(child_spans) as fh:
                    tracer.merge(json.load(fh)["spans"])
                os.remove(child_spans)
            return out
        tracer.install()
        try:
            return (i, *workloads.timed(workloads.run_in_process, op))
        finally:
            tracer.uninstall()

    def run_kept(i: int, traced: bool) -> tuple[int, float, object]:
        # Keep only what the answer check reads, so that stored results do
        # not add to the peak memory of later operations.
        i, dt, res = run_op(i, traced)
        return i, dt, workloads.slim(res)

    if not args.trace:
        passes = max(1, round(args.seconds / workloads.PASS_SECONDS[args.workload]))
        clock = Clock()
        samples = []
        for _ in range(passes):
            for i in range(len(ops)):
                samples.append(run_kept(i, False))
                clock.add(samples[-1][1])
        samples = [(i, dt, res) for (i, _, res), dt in zip(samples, clock.scaled())]
        for _ in range(n_more - n_more // 2):
            setup.add(child_setup_sample(probe, env))
    else:
        # Each operation runs once untraced and once traced, in alternating
        # order, so a drift during the run does not bias the overhead ratio.
        tracer.uninstall()
        plain, traced = [], []
        for i in range(len(ops)):
            for on in ((i % 2 == 1), (i % 2 == 0)):
                (traced if on else plain).append(run_kept(i, on))
        samples = plain + traced
    setup_samples = setup.scaled()
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0

    # Answer checks, outside the timed region.
    expected = [workloads.expected_answer(op) for op in ops]
    check = workloads.check_in_process if in_process else workloads.check_cli
    failures = []
    for i, _dt, res in samples:
        problem = check(ops[i], expected[i], res)
        if problem:
            failures.append((ops[i].label, problem))
    attempted, failed = len(samples), len(failures)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }
    print(f"pushkit benchmark: {json.dumps(record)}")
    print(f"operations per pass: {len(ops)}; attempted {attempted}, failed {failed}")
    for label, problem in failures[:10]:
        print(f"  FAILED {label}: {problem}")

    latencies = [dt for _, dt, _ in samples]
    if not args.trace:
        tail_value, tail_pct = tail(latencies)
        values = {
            "setup_s": statistics.median(setup_samples),
            "ops_per_s": (attempted - failed) / sum(latencies),
            "latency_p50_s": statistics.median(latencies),
            "latency_tail_s": tail_value,
            "peak_rss_mb": peak_rss_mb,
        }
        print(f"  set-up samples (s): {[round(s, 4) for s in setup_samples]}; "
              f"unscaled {[round(s, 4) for s in setup.raw]}")
        print(f"  unscaled: latency median {statistics.median(clock.raw):.6g} s, "
              f"ops_per_s {(attempted - failed) / sum(clock.raw):.6g} 1/s; reference loop "
              f"median {statistics.median(clock.refs):.6g} s (nominal {REFERENCE_S} s)")
        print(f"  latency_tail_s is p{tail_pct:.1f} of {len(latencies)} samples")
        print(f"  failed_ratio = {failed / attempted:.4f} ratio ({failed}/{attempted})")
        spans_out = None
    else:
        # Layers a workload does not use (cli.* in process) read 0.
        values = {m["name"]: 0 for m in bench["per_layer"]} | layer_metrics(tracer.spans)
        if not in_process:
            values["cli.output_bytes"] = sum(
                len(res.stdout.encode()) for _, _, res in traced if not isinstance(res, Exception)
            )
        traced_s = sum(dt for _, dt, _ in traced)
        plain_s = sum(dt for _, dt, _ in plain)
        values["trace.overhead_ratio"] = traced_s / plain_s
        spans_out = tracer.spans
        print(f"  traced operations {traced_s:.3f} s, untraced {plain_s:.3f} s")

    baseline_report(args, ops, samples, setup_samples, tracer)
    for row in NOT_COVERED:
        print(f"  ROADMAP Baseline row not covered: {row}")

    metrics = {}
    for m in bench["per_layer" if args.trace else "end_to_end"]:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"  {m['name']} = {metrics[m['name']]['value']:.6g} {m['unit']}")
    with open(OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(
            {"record": record, "ops": [op.label for op in ops],
             "latencies": [[i, dt] for i, dt, _ in samples], "setup_samples": setup_samples,
             "unscaled": None if args.trace else {"latencies": clock.raw, "setup": setup.raw},
             "failures": failures, "spans": spans_out},
            fh,
        )
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


def run_all(args, names: list[str]) -> int:
    """Run every workload in its own process, print each report, then one
    line per metric and a JSON line whose metric names carry the workload."""
    results = {}
    for name in names:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        *report, last = proc.stdout.splitlines()
        print(f"== {name}", *report, sep="\n")
        results[name] = json.loads(last)
    metrics = {}
    print("== all workloads")
    for name, res in results.items():
        print(f"  {name}: failed_ratio = {res['failed'] / res['attempted']:.4f} ratio")
        for metric, m in res["metrics"].items():
            metrics[f"{name}.{metric}"] = m
            print(f"  {name}: {metric} = {m['value']:.6g} {m['unit']}")
    total = {
        "correct": all(res["correct"] for res in results.values()),
        "attempted": sum(res["attempted"] for res in results.values()),
        "failed": sum(res["failed"] for res in results.values()),
        "metrics": metrics,
    }
    print(json.dumps(total))
    return 0


def baseline_report(args, ops, samples, setup_samples, tracer) -> None:
    """Print the ROADMAP Baseline rows this run covers, next to its figures."""
    def op_latencies(pred):
        return [dt for i, dt, _ in samples if pred(ops[i])]

    if args.workload == "cli_mixed" and not args.trace:
        print(f"  ROADMAP Baseline: python -c 'import pushkit' 0.14 s; "
              f"here median {statistics.median(setup_samples):.3f} s")
        row = op_latencies(lambda op: op.command == "push" and op.cutoff == 12)
        print(f"  ROADMAP Baseline: push --rank 6 --max-degree 12 inv(1-x) 2.9 s; "
              f"here median {statistics.median(row):.3f} s of {len(row)}")
    if args.workload != "rank_ladder":
        return
    index = next(i for i, op in enumerate(ops) if (op.rank, op.spec.text) == RANK7_SEGRE)
    if not args.trace:
        row = op_latencies(lambda op: op is ops[index])
        print(f"  rank 7 cutoff 10 inv(1-x) in process: median {statistics.median(row):.3f} s "
              f"of {len(row)}")
        return
    prof = op_profile(tracer.spans, str(index))
    setup7 = op_profile(tracer.spans, "setup rank 7")["setup_s"]
    print("  ROADMAP Baseline stage profile, inv(1-x) at rank 7, cutoff 10 (traced):")
    print(f"    charts + cofactors       {setup7:.3f} s   (Baseline 3.1 s)")
    print(f"    cofactor products        {prof['cofactor_products_s']:.3f} s   (Baseline 0.53 s)")
    print(f"    Vandermonde division     {prof['vandermonde_division_s']:.3f} s   (Baseline 4.0 s)")
    print(f"    symmetry + reduction     {prof['symmetry_s']:.3f} s   (Baseline 0.05 s)")
    print(f"    numerator terms {prof['numerator_terms']} (Baseline 25200), "
          f"u_form terms {prof['u_form_terms']} (Baseline 330), "
          f"divisions {prof['divide_calls']}")


if __name__ == "__main__":
    sys.exit(main())
