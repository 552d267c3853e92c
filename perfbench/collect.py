"""Run the benchmark over several seeds and summarise it, from the repository root:

    python3 perfbench/collect.py --workloads corpus,cli --seeds 1-10 \\
        --out perfbench/results/BENCH_x.json

For each workload it runs ``run.py --trace 0`` once per seed, one run at a
time, and reports each end-to-end metric's median, quartiles and spread
(quartile distance over median) next to the bound in BENCHMARK.json.
With ``--traced`` it adds one ``--trace 1`` run per workload on the first
seed.  Exit status is 1 when any run fails or is judged incorrect.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr)
        return {"seed": seed, "exit": proc.returncode, "wall_s": wall}
    return {"seed": seed, "exit": 0, "wall_s": wall,
            "record": json.loads(lines[-2])["record"], "result": json.loads(lines[-1])}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", required=True, help="comma-separated names")
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10")
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--out", help="write the runs and summary here as JSON")
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {"run_seconds": bench["run_seconds"], "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in _seeds(args.seeds):
            runs.append(_run(workload, seed, bench["run_seconds"], 0))
            r = runs[-1]
            print("%s seed %d: exit %d, %.1f s" % (workload, seed, r["exit"], r["wall_s"]),
                  file=sys.stderr)
        good = [r for r in runs if r["exit"] == 0 and r["result"]["correct"]]
        ok = ok and len(good) == len(runs)
        summary = {}
        for name, bound in bounds.items():
            values = [r["result"]["metrics"][name]["value"] for r in good]
            if len(values) < 2:
                continue
            q1, med, q3 = statistics.quantiles(values, n=4)
            summary[name] = {"median": med, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / med if med else None, "bound": bound}
            print("%-8s %-16s median %12.4f  spread %.3f  bound %.2f"
                  % (workload, name, med, summary[name]["spread"] or 0, bound))
        entry = {"runs": runs, "summary": summary}
        if args.traced:
            entry["traced"] = _run(workload, _seeds(args.seeds)[0], bench["run_seconds"], 1)
            ok = ok and entry["traced"]["exit"] == 0
        report["workloads"][workload] = entry
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
