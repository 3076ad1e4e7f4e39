"""Span recording for a traced run, and the per-layer metrics derived from it.

A traced child process wraps the public functions of each hermplane
module after import.  ``from .field import make_field`` binds a separate
name in every importing module, so each target is rebound under every
name that refers to it in any loaded ``hermplane`` module; methods are
replaced on their class.  Spans are kept in memory as

    [name, start, end, parent index or -1, operation id, attrs]

and written out when the run ends.  ``derive`` turns them into metrics: a
span's self time is its duration minus the durations of its direct
children, which never overlap because everything runs on one thread.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from functools import wraps
from statistics import median


def _table_bytes(spec):
    tabs = (spec._exp, spec._log, spec._dig, spec._neg, spec._pw, spec._add_tab)
    return sum(t.nbytes for t in tabs if t is not None)


def _field_build(args, kwargs, result):
    spec = args[0]
    return {"elements": spec.order, "table_bytes": _table_bytes(spec)}


def _split_count(args, kwargs, result):
    return {"A_tested": result.q - 1}


def _evaluate_all(args, kwargs, result):
    Q = args[0].field.order
    return {"points": Q * Q + Q + 1}


def _factor(args, kwargs, result):
    return {
        "scanned": result.scanned,
        "budget_exceeded": int(result.status == "budget-exceeded"),
    }


def _scan(args, kwargs, result):
    return {"forms": result.total_forms_scanned, "achievers": len(result.achievers)}


# (module, attribute, span name, attrs taken from the arguments and result)
TARGETS = (
    ("hermplane.field", "FieldSpec.__init__", "field.build", _field_build),
    ("hermplane.unipoly", "count_distinct_roots", "unipoly.roots", None),
    ("hermplane.unipoly", "roots_in_field", "unipoly.roots", None),
    ("hermplane.plane", "evaluate_all", "plane.evaluate", _evaluate_all),
    ("hermplane.plane", "zero_mask", "plane.evaluate", None),
    ("hermplane.plane", "points_on", "plane.points_on", None),
    ("hermplane.plane", "intersection", "plane.intersection", None),
    ("hermplane.plane", "reducibility_search", "plane.factor", _factor),
    ("hermplane.constructions", "build", "constructions.build", None),
    ("hermplane.splitting", "count_splitting_A", "splitting.count", _split_count),
    ("hermplane.splitting", "serre_split_threshold", "splitting.threshold", None),
    ("hermplane.search", "exhaustive_negative_search", "search.scan", _scan),
    ("hermplane.serialize", "save_curve", "serialize", None),
    ("hermplane.serialize", "load_curve", "serialize", None),
    ("hermplane.serialize", "curve_to_dict", "serialize", None),
    ("hermplane.reproduce", "run_all", "reproduce.check", None),
    ("hermplane.cli", "main", "cli", None),
)

# Counted, not spanned: divides() runs once per candidate factor, and only
# the calls made directly under a factor search are prefilter survivors.
COUNTED = (("hermplane.plane", "divides", "plane.factor", "divides"),)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = -1
        self._undo = []

    def mark(self, name, start, end):
        """Record a span timed by the caller (imports, before wrapping)."""
        self.spans.append([name, start, end, -1, -1, {}])

    def _wrap(self, name, fn, attrs):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, {}]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if attrs is not None:
                rec[5].update(attrs(args, kwargs, result))
            return result

        return wrapper

    def _counter(self, enclosing, key, fn):
        spans, stack = self.spans, self.stack

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and spans[stack[-1]][0] == enclosing:
                counts = spans[stack[-1]][5]
                counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def _rebind(self, modname, attr, make):
        """Replace `attr` of `modname` everywhere it is bound; False if absent."""
        owner = sys.modules.get(modname)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name, None)
            if cls is None or meth not in vars(cls):
                return False
            orig = vars(cls)[meth]
            setattr(cls, meth, make(orig))
            self._undo.append((cls, meth, orig))
            return True
        orig = getattr(owner, attr, None)
        if orig is None:
            return False
        new = make(orig)
        for name, mod in list(sys.modules.items()):
            if name != "hermplane" and not name.startswith("hermplane."):
                continue
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, new)
                    self._undo.append((mod, key, orig))
        return True

    def install(self):
        """Wrap every target; returns the targets that were not found."""
        missing = []
        for modname, attr, name, attrs in TARGETS:
            if not self._rebind(modname, attr, lambda f: self._wrap(name, f, attrs)):
                missing.append(f"{modname}.{attr}")
        for modname, attr, enclosing, key in COUNTED:
            if not self._rebind(modname, attr, lambda f: self._counter(enclosing, key, f)):
                missing.append(f"{modname}.{attr}")
        return missing

    def uninstall(self):
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()


# ---------------------------------------------------------------------------
# metrics from spans
# ---------------------------------------------------------------------------

# Metrics that must repeat exactly between runs of the same inputs.
COUNT_METRICS = (
    "field.build.count",
    "field.build.elements",
    "field.table_mib",
    "splitting.count.calls",
    "splitting.A_tested",
    "plane.intersection.calls",
    "plane.points_evaluated",
    "plane.factor.calls",
    "plane.factor.forms_scanned",
    "plane.factor.budget_exceeded",
    "search.forms_scanned",
    "unipoly.roots.calls",
)


def derive(spans):
    """Per-layer metrics of one traced run (every metric, zero when unused)."""
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * n
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]

    calls = defaultdict(int)  # outermost spans only
    total = defaultdict(float)  # outermost spans only
    self_s = defaultdict(float)
    attr = defaultdict(int)
    for i, s in enumerate(spans):
        name = s[0]
        self_s[name] += dur[i] - child[i]
        for key, val in s[5].items():
            attr[name, key] += val
        p = s[3]
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            calls[name] += 1
            total[name] += dur[i]

    scan_s = total["search.scan"]
    forms = attr["search.scan", "forms"]
    scanned = attr["plane.factor", "scanned"]
    search_intersections = sum(
        1 for s in spans if s[0] == "plane.intersection" and s[3] >= 0
        and spans[s[3]][0] == "search.scan"
    )
    return {
        "field.build.count": calls["field.build"],
        "field.build.elements": attr["field.build", "elements"],
        "field.build.s": total["field.build"],
        "field.table_mib": attr["field.build", "table_bytes"] / 2**20,
        "field.import_s": total["field.import"],
        "splitting.count.calls": calls["splitting.count"],
        "splitting.A_tested": attr["splitting.count", "A_tested"],
        "splitting.count.self_s": self_s["splitting.count"],
        "splitting.threshold.s": total["splitting.threshold"],
        "plane.intersection.calls": calls["plane.intersection"],
        "plane.points_evaluated": attr["plane.evaluate", "points"],
        "plane.evaluate.s": total["plane.evaluate"],
        "plane.points_on.s": total["plane.points_on"],
        "plane.factor.calls": calls["plane.factor"],
        "plane.factor.forms_scanned": scanned,
        "plane.factor.budget_exceeded": attr["plane.factor", "budget_exceeded"],
        "plane.factor.s": total["plane.factor"],
        "plane.factor.survivor_ratio": (
            attr["plane.factor", "divides"] / scanned if scanned else 0.0
        ),
        "search.forms_scanned": forms,
        "search.scan.self_s": self_s["search.scan"],
        "search.forms_per_s": forms / scan_s if scan_s else 0.0,
        "search.reverify_ratio": (
            attr["search.scan", "achievers"] / search_intersections
            if search_intersections else 0.0
        ),
        "unipoly.roots.calls": calls["unipoly.roots"],
        "unipoly.roots.s": total["unipoly.roots"],
        "constructions.build.self_s": self_s["constructions.build"],
        "serialize.s": total["serialize"],
        "reproduce.check.self_s": self_s["reproduce.check"],
        "cli.self_s": self_s["cli"],
    }


def combine(runs):
    """Median of each metric over traced runs; None when a count differs."""
    out = {}
    for key in runs[0]:
        vals = [r[key] for r in runs]
        if key in COUNT_METRICS and len(set(vals)) > 1:
            return None, key
        out[key] = median(vals)
    return out, None
