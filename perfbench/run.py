"""End-to-end and per-layer benchmark for puiseuxform.

Run from the repository root:

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

It imports the package from ``src/`` of the same checkout, runs the
workload's known-defect cases once and then a fixed number of passes over
its other cases (``--seconds`` over ``workloads.PASS_S``, the seconds a
pass took at the seed commit), one case at a time, and checks every
verdict against its known answer.  The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1``.  The line before it is a JSON record of the
run environment and of what each number is.

``--trace 1`` runs every case twice back to back, once plainly and once
with every layer function wrapped (tracer.py), in half the passes.  It
checks that the counters of both runs agree and writes the spans to
``perfbench/out/``.

``--smoke`` runs one tiny pass (test_smoke.py uses it).  Exit status is
1 when a verdict is wrong, the counters do not repeat, or ``src/`` is
missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 15
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import puiseuxform.cli.main; "
    "print(time.perf_counter() - t)"
)


def _tail(values):
    """The highest-ranked sample with ten samples beyond it, as (value, pct).

    With ten samples or fewer no sample qualifies, and the maximum is used
    (pct 100); the record states the sample count either way.
    """
    s = sorted(values)
    idx = len(s) - 11 if len(s) > 10 else len(s) - 1
    return s[idx], round(100.0 * (idx + 1) / len(s), 1)


def _git_sha():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _timed(run, spec):
    """One case after a full garbage collection, with its time.

    The collection makes the collector's work inside a case depend on that
    case alone, not on the shuffled order.
    """
    gc.collect()
    t0 = time.perf_counter()
    out = run(spec)
    return out, time.perf_counter() - t0


def _run_cases(cases, run, probes):
    """Run ``cases`` one at a time; return outcomes, case times and probe results.

    ``probes`` holds ``(count, probe)`` pairs: ``count`` calls of
    ``probe(outcome)`` are spread evenly over the cases, each on the
    outcome of the case before it, so that they sample the whole run.
    """
    outcomes, times, results = [], [], [[] for _ in probes]
    n = len(cases)
    for j, spec in enumerate(cases):
        out, dt = _timed(run, spec)
        outcomes.append(out)
        times.append(dt)
        for (count, probe), res in zip(probes, results):
            res.extend(probe(out) for _ in range((j + 1) * count // n - j * count // n))
    return outcomes, times, results


def _run_paired(cases, run, t):
    """Run each case plainly and under tracer ``t`` back to back.

    Which of the two goes first alternates from case to case, so drift of
    the machine's speed and order effects cancel out of the overhead.
    Returns both lists of outcomes.
    """
    plain, traced = [], []
    for j, spec in enumerate(cases):
        for with_trace in (False, True) if j % 2 == 0 else (True, False):
            if not with_trace:
                plain.append(_timed(run, spec)[0])
                continue
            t.close_open_spans()
            t.case = j
            t.install()
            try:
                traced.append(_timed(run, spec)[0])
            finally:
                t.uninstall()
    return plain, traced


def _in_process_s(outcomes) -> float:
    """Time spent in the package in this process: building and judging cases."""
    return sum(o.verdict_s + (o.gen_s or 0.0) for o in outcomes)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "puiseuxform" / "__init__.py").is_file():
        print("perfbench: no src/puiseuxform under %s" % ROOT, file=sys.stderr)
        return 1
    sys.path.insert(0, str(ROOT / "src"))
    import tracer
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print("perfbench: unknown workload %r" % args.workload, file=sys.stderr)
        return 1
    make_specs, run = workloads.WORKLOADS[args.workload]
    specs, defects = make_specs(args.seed, args.smoke)
    if args.setup_only:
        return 0

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    repeats = 1 if args.smoke else SETUP_REPEATS
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": sys.version.split()[0],
        "git_sha": _git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "cases_per_pass": len(specs),
    }
    if args.workload == "coeffs":
        record["case_limit_s"] = workloads.COEFF_LIMIT_S

    passes = 1 if args.smoke else max(
        1, round(args.seconds / workloads.PASS_S[args.workload]))
    if args.trace:
        # Each case runs twice, plainly and traced, in an order that
        # alternates; a one-case workload needs two passes for both orders.
        passes = max(1, passes // 2, 2 // len(specs))
    record["passes"] = passes
    record["defect_cases"] = len(defects)
    cases = defects + specs * passes

    if args.trace:
        t = tracer.Tracer()
        outcomes, traced = _run_paired(cases, run, t)
    else:
        setup_argv = [str(Path(__file__)), "--workload", args.workload, "--seed",
                      str(args.seed), "--seconds", "0", "--setup-only"]
        setup_argv += ["--smoke"] if args.smoke else []
        samples = 0 if args.workload == "cli" else (
            2 if args.smoke else workloads.CLI_SAMPLES)
        outcomes, times, (setup, cli) = _run_cases(cases, run, [
            (repeats, lambda _out: workloads.timed_child(setup_argv)),
            (samples, lambda out: workloads.polygon_call(out.form)),
        ])

    wrong = [o for o in outcomes if o.problems]
    timed_out = [o.case for o in outcomes if o.timed_out]
    failed = len(wrong) + len(timed_out)
    record["fail_frac"] = failed / len(outcomes)
    record["timed_out"] = timed_out
    record["wrong"] = {o.case: o.problems for o in wrong}

    if args.trace:
        mismatched = [
            a.case for a, b in zip(outcomes, traced)
            if (a.timed_out, a.counts) != (b.timed_out, b.counts)
        ]
        record["counts_repeat"] = not mismatched
        if mismatched:
            print("counters differ between passes: %s" % mismatched, file=sys.stderr)
        metrics = t.layer_metrics()
        with workloads.time_limit(workloads.CHILD_LIMIT_S):
            metrics["cli.import_ms"] = 1000 * statistics.median(float(
                subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=workloads.CHILD_ENV,
                               cwd=ROOT, capture_output=True, check=True, text=True).stdout)
                for _ in range(repeats))
        # Over the in-process work of the cases that finish: a case stopped
        # by its limit takes the limit either way, and a child process (cli)
        # is not traced.
        n = len(defects)
        metrics["trace.overhead_frac"] = (
            _in_process_s(traced[n:]) / _in_process_s(outcomes[n:]) - 1)
        out_dir = ROOT / "perfbench" / "out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / ("spans-%s-seed%d.json" % (args.workload, args.seed))
        t.dump(spans_path)
        record["spans"] = str(spans_path.relative_to(ROOT))
        correct = not wrong and not mismatched
    else:
        if args.workload == "cli":
            cli = outcomes
        else:
            wrong += [o for o in cli if o.problems]
            record["wrong"] = {o.case: o.problems for o in wrong}
        # Timings cover the same cases whatever their speed: every case but
        # the known-defect ones, a case stopped by its limit at the time it
        # ran.  The defect cases count only in done_frac.
        timed, timed_s = outcomes[len(defects):], times[len(defects):]
        record["defect_s"] = sum(times[:len(defects)])
        timings = {
            "verdict_ms": [1000 * o.verdict_s for o in timed],
            "gen_ms": [1000 * o.gen_s for o in timed if o.gen_s is not None],
            "cli_ms": [1000 * o.cli_s for o in cli],
        }
        metrics = {}
        record["tails"] = {}
        for name, values in timings.items():
            value, pct = _tail(values)
            metrics[name + ".p50"] = statistics.median(values)
            metrics[name + ".tail"] = value
            record["tails"][name] = {"pct": pct, "n": len(values)}
        metrics["cases_per_s"] = sum(not o.timed_out for o in timed) / sum(timed_s)
        metrics["done_frac"] = 1 - record["fail_frac"]
        metrics["setup_s"] = statistics.median(setup)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        correct = not wrong

    for o in wrong:
        print("WRONG %s: %s" % (o.case, "; ".join(o.problems)), file=sys.stderr)
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
