"""Check that probe-normalized time moves by the same share as plain time.

    python3 perfbench/validate.py --workload form-scan --rounds 6

Builds copies of the program under .bench_build/perfbench/validate/: the
program as it is (``base``) and two padded variants whose ``cli.main``
does a fixed amount of extra work after each operation:

  * ``python``: a pure-Python integer loop;
  * ``memory``: streams a 192 MiB array once per pass, far past the L2
    cache, evicting the program's data (the array is allocated on the
    first call).

The padding is about 15 % of the workload's time.  Children of the three
copies then run in turn, in a rotating order, for ``--rounds`` rounds.
For each variant the script prints the median over rounds of its
time ÷ the base time − 1, in plain and in normalized seconds, and the
same from the fastest run of each copy.  If the normalization keeps the
share of a change, the normalized and plain shares agree within the
noise of the plain one.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_build" / "perfbench" / "validate"

PADDING = {
    "python": '''

_unpadded_main = main


def main(argv=None):
    rc = _unpadded_main(argv)
    acc = 0
    for i in range({n}):
        acc = (acc * 31 + i) % 1000003
    return rc
''',
    "memory": '''

_unpadded_main = main
_buf = []


def main(argv=None):
    import numpy as np

    rc = _unpadded_main(argv)
    if not _buf:
        _buf.append(np.ones(24 << 20))
    for _ in range({n}):
        _buf[0].sum()
    return rc
''',
}

# (loop steps, 192 MiB passes) per operation: about 15 % of each workload
SIZES = {
    "split-survey": (4_700_000, 18),
    "form-scan": (2_100_000, 8),
    "family-verify": (230_000, 1),
    "large-plane": (9_400_000, 36),
}


def build(workload):
    steps, passes = SIZES[workload]
    shutil.rmtree(OUT, ignore_errors=True)
    for name, n in (("base", None), ("python", steps), ("memory", passes)):
        root = OUT / name
        shutil.copytree(ROOT / "src", root / "src", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(HERE, root / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        if n is not None:
            with open(root / "src" / "hermplane" / "cli.py", "a") as fh:
                fh.write(PADDING[name].format(n=n))
    return ["base", "python", "memory"]


def run(name, workload):
    root = OUT / name
    spec = {
        "workload": workload, "seed": 1, "reduced": False, "trace": False, "spans": None,
        "tmp": str(root / "curve.json"), "import_only": False,
    }
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "child.py"), json.dumps(spec)],
        cwd=root, env=env, capture_output=True, text=True, timeout=170, check=True,
    )
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if out["failures"]:
        sys.exit(f"{name}: {out['failures']}")
    return out["wall_plain_s"], out["wall_s"]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--rounds", type=int, default=6)
    args = ap.parse_args(argv)

    names = build(args.workload)
    times = {name: [] for name in names}
    for r in range(args.rounds):
        k = r % len(names)
        for name in names[k:] + names[:k]:
            times[name].append(run(name, args.workload))
            plain, norm = times[name][-1]
            print(f"round {r} {name}: plain {plain:.3f} s, normalized {norm:.3f} s", file=sys.stderr)

    base = times["base"]
    for name in names[1:]:
        line = f"{args.workload} {name}:"
        for i, unit in ((0, "plain"), (1, "normalized")):
            per_round = median(v[i] / b[i] - 1 for b, v in zip(base, times[name]))
            fastest = min(v[i] for v in times[name]) / min(b[i] for b in base) - 1
            line += f"  {unit} share {per_round:+.3f} (fastest runs {fastest:+.3f})"
        print(line)
    shutil.rmtree(OUT)


if __name__ == "__main__":
    main()
