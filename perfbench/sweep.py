"""Run every workload over several seeds and check that the benchmark is steady.

    python3 perfbench/sweep.py                       # all workloads, seeds 1-10, untraced
    python3 perfbench/sweep.py --seeds 1 2 3 --trace 1 --workloads form-scan

Runs perfbench/run.py once per (workload, seed), one run at a time, and
prints every metric by name with its unit: the median over seeds and the
spread, the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median.

Checks, and exits 1 when one fails:
  * every run is correct;
  * untraced: each end-to-end spread is within its bound in
    BENCHMARK.json (a spread above a third of the bound is
    reported as not steady enough);
  * traced: the count metrics repeat exactly across seeds on the
    seed-independent workloads.

All results are written to .bench_build/perfbench/sweep-<time>.json.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds, trace):
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    q1, _, q3 = quantiles(values, n=4)
    mid = median(values)
    return (q3 - q1) / mid if mid else 0.0


def main(argv=None):
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", default=list(workloads.WORKLOADS))
    ap.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    specs = bench["per_layer"] if args.trace else bench["end_to_end"]
    ok = True
    results = {}
    for w in args.workloads:
        runs = []
        for seed in args.seeds:
            t0 = time.monotonic()
            r = run_once(w, seed, args.seconds, args.trace)
            runs.append(r)
            print(f"{w} seed {seed}: correct={r['correct']} in {time.monotonic() - t0:.1f} s",
                  file=sys.stderr)
            ok &= r["correct"]
        results[w] = runs
        print(f"\n{w} ({len(runs)} seeds, --trace {args.trace})")
        for m in specs:
            vals = [r["metrics"][m["name"]]["value"] for r in runs]
            line = f"  {m['name']:<30} {median(vals):>14.6g} {m['unit']:<6}"
            if len(vals) >= 2:
                s = spread(vals)
                line += f" spread {s:7.2%}"
                bound = m.get("bound")
                if bound is not None:
                    if s > bound:
                        line += f"  OVER BOUND {bound:.0%}"
                        ok = False
                    elif s > bound / 3:
                        line += f"  above a third of bound {bound:.0%}"
            if args.trace and m["name"] in spans.COUNT_METRICS and len(set(vals)) > 1:
                if w in workloads.SEED_INDEPENDENT:
                    line += "  COUNT DIFFERS ACROSS SEEDS"
                    ok = False
                else:
                    line += "  (seed-dependent)"
            print(line)

    out = ROOT / ".bench_build" / "perfbench" / f"sweep-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"args": vars(args), "results": results}, indent=1))
    print(f"\nresults in {out.relative_to(ROOT)}; {'all checks passed' if ok else 'CHECKS FAILED'}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
