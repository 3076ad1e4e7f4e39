"""Benchmark entry point: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload form-scan --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Every repetition of the workload runs
in a fresh interpreter (perfbench/child.py), one at a time, so field
tables and Hermitian-model caches start cold as in every CLI call.  A run
repeats the workload while another repetition still fits in ``--seconds``
(at least once).  Untraced runs also start an import-only child before
each repetition, and more at the end, until set-up time has
MIN_SETUP_SAMPLES samples.  With ``--trace 1`` untraced and traced
repetitions alternate: the traced ones give the per-layer metrics, and
the two together the tracing overhead.  Times are in normalized seconds
(perfbench/probe.py); each repetition's plain seconds go to stderr.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: medians over the repetitions
of the end-to-end metrics in BENCHMARK.json (``--trace 0``) or of its
per-layer metrics (``--trace 1``).  ``--reduced`` runs small inputs, for
the smoke test (perfbench/smoke.py).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_build" / "perfbench"
MIN_SETUP_SAMPLES = 9  # imports timed per untraced run, in fresh interpreters
HARD_LIMIT_S = 170.0  # a run must end within 180 s


class ChildError(RuntimeError):
    pass


def _env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    # one process, no extra threads: numpy's BLAS pool stays at one thread
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(spec, t_start):
    timeout = HARD_LIMIT_S - (time.monotonic() - t_start)
    if timeout <= 0:
        raise ChildError("out of time")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
            cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildError(f"repetition timed out after {exc.timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildError(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    if proc.stderr.strip():
        print(proc.stderr.strip(), file=sys.stderr)
    return json.loads(lines[-1])


def _metric_specs():
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    return bench["end_to_end"], bench["per_layer"]


def measure(args):
    t_start = time.monotonic()
    OUT.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-{args.seed}"
    spec = {
        "workload": args.workload, "seed": args.seed, "reduced": args.reduced,
        "trace": False, "spans": None, "tmp": str(OUT / f"curve-{tag}.json"),
        "import_only": False,
    }
    setups = []

    def sample_setup():
        setups.append(run_child(dict(spec, import_only=True), t_start)["setup_s"])

    plain, traced, layer_runs = [], [], []
    longest = 0.0
    while True:
        t_rep = time.monotonic()
        if not args.trace:
            sample_setup()  # spread over the run, not bunched at its start
        rep = run_child(spec, t_start)
        plain.append(rep)
        setups.append(rep["setup_s"])
        if args.trace:
            path = OUT / f"spans-{tag}-{len(traced)}.json"
            traced.append(run_child(dict(spec, trace=True, spans=str(path)), t_start))
            with open(path) as fh:
                recorded = json.load(fh)
            layer_runs.append(spans.derive(recorded["spans"]))
        longest = max(longest, time.monotonic() - t_rep)
        print(
            f"{args.workload} seed {args.seed} rep {len(plain)}: wall_s {rep['wall_s']:.3f} "
            f"(plain {rep['wall_plain_s']:.3f}) setup_s {rep['setup_s']:.3f} "
            f"(plain {rep['setup_plain_s']:.3f})"
            + (f" traced wall_s {traced[-1]['wall_s']:.3f}" if traced else ""),
            file=sys.stderr,
        )
        if time.monotonic() - t_start + longest > args.seconds:
            break
    # may run a few seconds past --seconds: repetitions come first
    while not args.trace and len(setups) < MIN_SETUP_SAMPLES:
        sample_setup()

    reps = plain + traced
    attempted = sum(r["attempted"] for r in reps)
    failures = [f for r in reps for f in r["failures"]]
    for msg in dict.fromkeys(failures):
        print(f"FAILED {msg}", file=sys.stderr)
    correct = not failures

    end_to_end, per_layer = _metric_specs()
    if args.trace:
        values, differing = spans.combine(layer_runs)
        if values is None:
            print(f"count metric {differing} differs between traced runs", file=sys.stderr)
            correct = False
            values = layer_runs[0]
        untraced = median(r["wall_s"] for r in plain)
        values["trace.overhead_frac"] = median(r["wall_s"] for r in traced) / untraced - 1
        wanted = per_layer
    else:
        values = {
            "wall_s": median(r["wall_s"] for r in plain),
            "setup_s": median(setups),
            "peak_rss_mib": median(r["peak_rss_mib"] for r in plain),
            "ok_rate": 1 - len(failures) / attempted,
        }
        wanted = end_to_end
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    return {"correct": correct, "attempted": attempted, "failed": len(failures), "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reduced", action="store_true", help="small inputs, for the smoke test")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "hermplane" / "cli.py").is_file():
        sys.exit(f"no hermplane sources under {ROOT / 'src'}; run from a full checkout")
    try:
        result = measure(args)
    except ChildError as exc:
        sys.exit(f"benchmark aborted: {exc}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
