"""Smoke test of the benchmark harness (about a minute).

    python3 perfbench/smoke.py

Checks that
  * every workload runs end to end on reduced inputs, traced and
    untraced, and reports exactly the metrics BENCHMARK.json names;
  * the oracle accepts each reduced operation's real output and rejects
    it against a deliberately wrong expected value;
  * self times are derived from spans as documented;
  * the benchmark fails, printing no result, in a directory that holds
    only BENCHMARK.json and perfbench/.
Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".bench_build" / "perfbench" / "smoke"


def _fail(msg):
    sys.exit(f"smoke: FAILED: {msg}")


def _run(cwd, *args):
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_workloads_run():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in workloads.WORKLOADS:
        for trace, specs in (("0", bench["end_to_end"]), ("1", bench["per_layer"])):
            args = ("--workload", w, "--seed", "7", "--seconds", "1", "--trace", trace)
            proc = _run(ROOT, *args, "--reduced")
            if proc.returncode != 0:
                _fail(f"{w} --trace {trace} exited {proc.returncode}: {proc.stderr[-2000:]}")
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                _fail(f"{w}: result keys {sorted(res)}")
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                _fail(f"{w} --trace {trace}: {res} {proc.stderr[-2000:]}")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != {m["name"]: m["unit"] for m in specs}:
                _fail(f"{w} --trace {trace}: metrics {got}")
        print(f"smoke: {w} runs traced and untraced")


def _perturb(v):
    if isinstance(v, bool):
        return not v
    if isinstance(v, int):
        return v + 1
    if isinstance(v, list):
        return [_perturb(v[0])] + v[1:] if v else [-1]
    if isinstance(v, tuple):
        i = 1 if len(v) > 1 else 0  # element 0 is usually the exit code
        return v[:i] + (_perturb(v[i]),) + v[i + 1 :]
    raise TypeError(f"cannot perturb {v!r}")


def check_oracle_rejects_wrong_values():
    sys.path.insert(0, str(ROOT / "src"))
    import hermplane.cli as cli
    import probe
    from child import check_all, run_ops

    SCRATCH.mkdir(parents=True, exist_ok=True)
    for w in workloads.WORKLOADS:
        ops = workloads.build(w, 7, True, str(SCRATCH / "curve.json"))
        outputs, _, _ = run_ops(cli, ops, probe.python_only())
        bad = check_all(ops, outputs)
        if bad:
            _fail(f"{w}: oracle rejects correct output: {bad}")
        for op, output in zip(ops, outputs):
            want = op.expected()
            op.expect = _perturb(want)
            if not check_all([op], [output]):
                _fail(f"{w}: oracle accepts {op.expect!r} for {' '.join(op.argv)}")
            op.expect = want
        print(f"smoke: {w} oracle rejects {len(ops)} wrong expected values")


def check_self_times():
    # cli [0,10] > search.scan [1,9] > {intersection [2,4] > evaluate [2.5,3.5],
    #                                    factor [5,8]}
    recorded = [
        ["cli", 0.0, 10.0, -1, 0, {}],
        ["search.scan", 1.0, 9.0, 0, 0, {"forms": 100, "achievers": 1}],
        ["plane.intersection", 2.0, 4.0, 1, 0, {}],
        ["plane.evaluate", 2.5, 3.5, 2, 0, {"points": 21}],
        ["plane.factor", 5.0, 8.0, 1, 0, {"scanned": 40, "divides": 10}],
    ]
    m = spans.derive(recorded)
    want = {
        "cli.self_s": 2.0,
        "search.scan.self_s": 3.0,
        "search.forms_per_s": 12.5,
        "search.reverify_ratio": 1.0,
        "plane.evaluate.s": 1.0,
        "plane.points_evaluated": 21,
        "plane.factor.s": 3.0,
        "plane.factor.survivor_ratio": 0.25,
    }
    for k, v in want.items():
        if abs(m[k] - v) > 1e-12:
            _fail(f"derive: {k} = {m[k]}, expected {v}")
    print("smoke: self times and ratios derive from spans")


def check_fails_without_sources():
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(bare, "--workload", "form-scan", "--seed", "1", "--seconds", "1", "--trace", "0")
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        _fail(f"ran without sources: exit {proc.returncode}, stdout {proc.stdout!r}")
    print("smoke: without sources the benchmark exits", proc.returncode, "and prints no result")


if __name__ == "__main__":
    check_self_times()
    check_fails_without_sources()
    check_oracle_rejects_wrong_values()
    check_workloads_run()
    print("smoke: all checks passed")
