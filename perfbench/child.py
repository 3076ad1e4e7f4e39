"""One repetition of a workload, in a fresh interpreter.

Usage (run.py starts it; the argument is one JSON object):

    python3 perfbench/child.py '{"workload": "form-scan", "seed": 1,
        "reduced": false, "trace": false, "spans": null, "tmp": "...",
        "import_only": false}'

Imports ``hermplane.cli`` and times the import (``setup_s``); unless
``import_only``, then runs the workload's operations one after another
through ``hermplane.cli.main``, times them (``wall_s``), reads this
process's peak resident memory, and only then checks each output against
its known answer.  ``wall_s`` and ``setup_s`` are in probe-normalized
seconds (perfbench/probe.py), ``*_plain_s`` in plain seconds.  With
``trace`` the modules are wrapped after import and the spans are written
to the ``spans`` path.  The last line of standard
output is a JSON object with the results.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time

import probe
import workloads
from spans import Tracer


def run_ops(cli, ops, clock, tracer=None):
    """Run each operation through cli.main, one after another, timed by `clock`.

    Returns [(exit code, stdout, exception)], one entry per operation, and
    the plain and normalized seconds of all of them.
    """
    outputs = []
    plain = norm = 0.0
    for i, op in enumerate(ops):
        if tracer:
            tracer.op = i
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc, p, n = clock.time(cli.main, op.argv)
            plain, norm, raised = plain + p, norm + n, None
        except (Exception, SystemExit) as exc:  # a failed operation, not a crash
            rc, raised = None, repr(exc)
        outputs.append((rc, out.getvalue(), raised))
    return outputs, plain, norm


def check_all(ops, outputs):
    """One message per operation that raised or gave a wrong answer."""
    failures = []
    for op, (rc, out, raised) in zip(ops, outputs):
        msg = f"raised {raised}" if raised else workloads.check(op, rc, out)
        if msg:
            failures.append(f"{' '.join(op.argv)}: {msg}")
    return failures


def main():
    spec = json.loads(sys.argv[1])
    tracer = Tracer() if spec["trace"] else None

    def load():
        t0 = time.perf_counter()
        if tracer:
            import hermplane.field  # noqa: F401  (timed on its own)

            tracer.mark("field.import", t0, time.perf_counter())
        import hermplane.cli

        return hermplane.cli

    cli, setup_plain_s, setup_s = probe.python_only().time(load)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        sys.exit(f"hermplane imported from {cli.__file__}, not from {src}")
    if spec["import_only"]:
        print(json.dumps({"setup_s": setup_s, "setup_plain_s": setup_plain_s}))
        return

    ops = workloads.build(spec["workload"], spec["seed"], spec["reduced"], spec["tmp"])
    if tracer:
        for target in tracer.install():
            print(f"trace target not found: {target}", file=sys.stderr)

    outputs, wall_plain_s, wall_s = run_ops(cli, ops, probe.full(), tracer)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if tracer:
        tracer.uninstall()  # the checks below must not add spans
        with open(spec["spans"], "w") as fh:
            json.dump({"spans": tracer.spans}, fh)
    failures = check_all(ops, outputs)
    with contextlib.suppress(FileNotFoundError):
        os.remove(spec["tmp"])
    print(
        json.dumps(
            {
                "setup_s": setup_s,
                "setup_plain_s": setup_plain_s,
                "wall_s": wall_s,
                "wall_plain_s": wall_plain_s,
                "peak_rss_mib": peak_rss_mib,
                "attempted": len(ops),
                "failures": failures,
            }
        )
    )


if __name__ == "__main__":
    main()
