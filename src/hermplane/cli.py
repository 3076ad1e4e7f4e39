"""Command-line interface.

Every command is deterministic: the same arguments always produce
byte-identical output.  Exit codes: 0 success, 1 a verification that
was asked for did not hold, 2 usage error or invalid parameters
(including work refused as too large, such as a negative search over
its scan budget) or out of memory, 130 interrupted (Ctrl-C), 141 stdout
closed by its reader (128 + SIGPIPE), with nothing printed.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from functools import cache
from math import lgamma, log

from .constructions import ConstructionError, FAMILIES, build, measure
from .field import MAX_ORDER, FieldError, prime_power
from .plane import hermitian_model, hermitian_point_count, hermitian_points, intersection
from .search import SearchBudgetError, exhaustive_negative_search
from .serialize import (
    curve_to_dict,
    format_points,
    json_lines,
    json_lines_at,
    json_text,
    load_curve,
    save_curve,
)
from .splitting import (
    count_splitting_A,
    genus_Fd,
    ramification_allowance,
    serre_split_threshold,
    survey_split,
)
from . import reproduce

# points formatted per write when `hermitian-points` streams json lines
_EMIT_CHUNK = 1 << 14

# ---------------------------------------------------------------------------
# output plumbing: a list of flat dicts rendered as json-lines / csv / table
# ---------------------------------------------------------------------------

def _emit(records, fmt, stream=None):
    """Write records as json lines, csv or an aligned table.

    The json lines of one call go out in one write, rendered by
    `serialize.json_lines`: the JSON text rules (key order, separators)
    live in `serialize` only.  An `Encoded` value is its own JSON text
    in every format.
    """
    stream = stream or sys.stdout
    records = list(records)
    if not records:
        return
    if fmt == "json":
        stream.write(json_lines(records))
        return
    keys = list(records[0])
    for r in records[1:]:
        for k in r:
            if k not in keys:
                keys.append(k)
    rows = [[_cell(r.get(k, "")) for k in keys] for r in records]
    if fmt == "csv":
        w = csv.writer(stream, lineterminator="\n")
        w.writerow(keys)
        w.writerows(rows)
        return
    widths = [max(len(k), *(len(row[i]) for row in rows)) for i, k in enumerate(keys)]
    stream.write("  ".join(k.ljust(w) for k, w in zip(keys, widths)).rstrip() + "\n")
    for row in rows:
        stream.write("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() + "\n")


def _cell(v):
    if isinstance(v, (dict, list, tuple)):
        return json_text(v)
    return str(v)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_hermitian_points(args):
    if not args.emit_points:
        n = hermitian_point_count(args.q, args.model)
        _emit([{"q": args.q, "model": args.model, "points": n}], args.format)
        return 0
    spec, idx = hermitian_model(args.q, args.model).field, hermitian_points(args.q, args.model)
    rec = {"q": args.q, "model": args.model}
    if args.format != "json":
        # a table or csv needs every row at once for its columns
        _emit(({**rec, "point": P} for P in format_points(spec, idx)), args.format)
        return 0
    # json lines go out _EMIT_CHUNK points at a time, each point between
    # the fixed text of its record
    lines, names = json_lines_at(rec, "point"), {}  # each element formatted once
    for i in range(0, len(idx), _EMIT_CHUNK):
        sys.stdout.write(lines(format_points(spec, idx[i : i + _EMIT_CHUNK], names)))
    return 0


def cmd_intersect(args):
    f, recorded = load_curve(args.curve)
    # an explicit --model wins over the file's, and H1 is the default
    model = args.model or recorded or "H1"
    h = hermitian_model(args.q, model)
    if f.field is not h.field:
        raise ConstructionError(
            f"curve lives over order {f.field.order}, expected {h.field.order}"
        )
    rep = intersection(h, f)
    rec = {
        "q": args.q,
        "model": model,
        "degree": f.degree,
        "count": rep.count,
        "degenerate": rep.degenerate,
    }
    if args.emit_points:
        rec["points"] = format_points(h.field, rep.points)
    _emit([rec], args.format)
    return 0


def cmd_construct(args):
    desc, form = build(args.family, args.q, d=args.d, alpha=args.alpha)
    if args.output:
        save_curve(args.output, form, model=desc.model)
    rec = dict(desc.to_dict(), terms=curve_to_dict(form)["terms"])
    _emit([rec], args.format)
    return 0


def cmd_verify(args):
    desc, _, rep = measure(args.family, args.q, d=args.d, alpha=args.alpha)
    target = desc.d * (args.q + 1)
    achieved = rep.count == target and not rep.degenerate
    _emit(
        [
            {
                "family": args.family,
                "q": args.q,
                "d": desc.d,
                "model": desc.model,
                "target": target,
                "count": rep.count,
                "achieved": achieved,
            }
        ],
        args.format,
    )
    return 0 if achieved else 1


def cmd_split_count(args):
    rep = count_splitting_A(args.q, args.d)
    rec = {
        "q": rep.q,
        "d": rep.d,
        "count": rep.count,
        "witnesses": list(rep.witnesses),
    }
    if rep.closed_form is not None:
        rec["closed_form"] = rep.closed_form
        rec["agree"] = rep.agree
    _emit([rec], args.format)
    return 0 if rep.agree is not False else 1


def cmd_survey(args):
    rows = survey_split(args.d, args.q_max, gcd_filter=args.gcd_filter)
    _emit([{"q": q, "count": n} for q, n in rows], args.format)
    return 0


def cmd_thresholds(args):
    # every output format prints these integers in decimal, which Python
    # refuses past its digit limit (0 means no limit).  For d >= 6 the genus
    # exceeds (d-2)!, so a d whose (d-2)! is a digit past the limit is refused
    # before the factorials are built; lgamma takes a float, and (10^9)!
    # already has more digits than any limit
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    recs = []
    for d in args.d:
        too_long = ValueError(
            f"d={d} gives integers of more than {limit} digits, "
            "the limit for printing an integer"
        )
        if limit and d >= 6 and lgamma(min(d, 10**9) - 1) / log(10) >= limit + 1:
            raise too_long
        rec = {
            "d": d,
            "genus": genus_Fd(d),
            "ramification": ramification_allowance(d),
            "threshold": serre_split_threshold(d),
        }
        if limit and max(rec.values()) >= 10**limit:
            raise too_long
        recs.append(rec)
    _emit(recs, args.format)
    return 0


def cmd_negative_search(args):
    kwargs = {"model": args.model}
    if args.budget is not None:
        kwargs["budget"] = args.budget
    rep = exhaustive_negative_search(args.q, args.d, **kwargs)
    _emit([rep.to_dict() if args.emit_points else rep.summary()], args.format)
    return 0


def cmd_reproduce_paper(args):
    records = reproduce.run_all(only=args.only)
    if not args.timings:
        records = [
            {k: v for k, v in r.items() if k != "millis"} for r in records
        ]
    _emit(records, args.format)
    sys.stdout.flush()  # the summary follows the records, or none if stdout is closed
    failed = sum(1 for r in records if not r["pass"])
    _emit(
        [{"claims": len(records), "failed": failed}],
        args.format,
        stream=sys.stderr,
    )
    return 0 if failed == 0 else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

@cache
def _build_parser():
    """The parser, built once per process; `main` dispatches to cmd_<command>."""
    parser = argparse.ArgumentParser(
        prog="hermplane",
        description="plane curves with many rational Hermitian intersections",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument(
            "--format", choices=("json", "csv", "table"), default="table"
        )

    p = sub.add_parser("hermitian-points", help="count or list Hermitian points")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--model", choices=("H1", "H2"), default="H1")
    p.add_argument("--emit-points", action="store_true")
    common(p)

    p = sub.add_parser("intersect", help="intersect a curve file with a Hermitian model")
    p.add_argument("--curve", required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument(
        "--model", choices=("H1", "H2"), help="default: the curve file's model, else H1"
    )
    p.add_argument("--emit-points", action="store_true")
    common(p)

    for name in ("construct", "verify"):
        p = sub.add_parser(name, help=f"{name} a curve from a named family")
        p.add_argument("--family", choices=FAMILIES, required=True)
        p.add_argument("--q", type=int, required=True)
        p.add_argument("--d", type=int)
        p.add_argument("--alpha", help="field element, e.g. 'w^3' or '[1,2]'")
        if name == "construct":
            p.add_argument("--output", help="write the curve to this file")
        common(p)

    p = sub.add_parser("split-count", help="count splitting values A for A t^d + t + 1")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    common(p)

    p = sub.add_parser("survey", help="splitting counts over a range of prime powers")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--q-max", type=int, required=True)
    p.add_argument("--gcd-filter", type=int, default=None)
    common(p)

    p = sub.add_parser("thresholds", help="genus and guaranteed-splitting thresholds")
    p.add_argument("--d", type=int, nargs="+", default=[5, 6])
    common(p)

    p = sub.add_parser(
        "negative-search", help="exhaustively scan forms of degree d for achievers"
    )
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--model", choices=("H1", "H2"), default="H2")
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--emit-points", action="store_true", help="include achiever forms")
    common(p)

    p = sub.add_parser(
        "reproduce-paper", help="run the full verification matrix"
    )
    p.add_argument("--only", help="run only check groups whose name contains this")
    p.add_argument("--timings", action="store_true", help="include per-claim millis")
    common(p)

    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        q = getattr(args, "q", None)
        if q is not None:
            if q > MAX_ORDER:
                raise ValueError(f"--q {q} exceeds the largest field order {MAX_ORDER}")
            try:
                prime_power(q)
            except FieldError:
                raise ValueError(f"--q must be a prime power >= 2 (got {q})") from None
        code = globals()["cmd_" + args.command.replace("-", "_")](args)
        sys.stdout.flush()  # a closed stdout shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader is gone: the exit flush writes what is left to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, SearchBudgetError, OSError) as exc:
        # ConstructionError and FieldError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
