"""The benchmark's workloads: hermplane CLI operations with known answers.

An operation is an argv for ``hermplane.cli.main`` (always with
``--format json``), a function that turns the exit code and the parsed
JSON-lines output into an observed value, and the expected value.  An
expected value is either a constant or a function evaluated after the
timed region, for answers that come from a second method in the package
itself (the monomial fast count).

This module imports only the standard library, so the parent process of a
run never loads hermplane.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from math import gcd
from typing import Any, Callable

WORKLOADS = ("split-survey", "form-scan", "family-verify", "large-plane")

# Workloads whose operations do not depend on the seed; their count
# metrics must repeat exactly across seeds.
SEED_INDEPENDENT = ("split-survey", "form-scan", "large-plane")


@dataclass
class Op:
    argv: list
    observe: Callable[[int, list], Any]
    expect: Any  # a value, or a zero-argument callable returning it

    def expected(self):
        return self.expect() if callable(self.expect) else self.expect


def check(op: Op, rc: int, stdout: str):
    """None when the output matches the expected value, else a message."""
    try:
        records = [json.loads(ln) for ln in stdout.splitlines() if ln.strip()]
        observed = op.observe(rc, records)
    except Exception as exc:  # malformed output is a failed operation
        return f"unparsable output: {exc!r}"
    want = op.expected()
    if observed != want:
        return f"observed {observed!r}, expected {want!r}"
    return None


# ---------------------------------------------------------------------------
# independent reference values
# ---------------------------------------------------------------------------

def _prime_powers(hi: int) -> list[int]:
    sieve = bytearray([1]) * (hi + 1)
    sieve[:2] = b"\0\0"
    for i in range(2, int(hi**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    out = []
    for p in range(2, hi + 1):
        if sieve[p]:
            v = p
            while v <= hi:
                out.append(v)
                v *= p
    return sorted(out)


def _swept(q_max: int, gcd_filter: int) -> list[int]:
    return [q for q in _prime_powers(q_max) if gcd(q, gcd_filter) == 1]


# The paper's quintic positives, and the sextic zeros past 1877 that
# contradict its claim; the latter is the observed value, checked as such.
QUINTIC_POSITIVES_TO_131 = [67, 79, 83, 101, 103, 107, 109, 113, 121, 127]
SEXTIC_ZEROS_PAST_1877 = [2083, 2179, 2197]


# ---------------------------------------------------------------------------
# observers
# ---------------------------------------------------------------------------

def _only(records):
    if len(records) != 1:
        raise ValueError(f"expected one record, got {len(records)}")
    return records[0]


def _survey(lo_check):
    def observe(rc, records):
        rows = {r["q"]: r["count"] for r in records}
        return (rc, sorted(rows), lo_check(rows))

    return observe


def _sextic(rows):
    return rows[1877], sorted(q for q, n in rows.items() if q > 1877 and n == 0)


def _quintic(rows):
    pos = sorted(q for q, n in rows.items() if n > 0 and q <= 131)
    return pos, rows[131], sorted(q for q, n in rows.items() if q > 131 and n == 0)


def _thresholds(rc, records):
    return rc, [(r["d"], r["genus"], r["threshold"]) for r in records]


def _split_count(rc, records):
    return rc, _only(records)["count"]


def _verify(rc, records):
    r = _only(records)
    return rc, r["count"], r["achieved"]


def _points(rc, records):
    return rc, _only(records)["points"]


def _negative_search(rc, records):
    r = _only(records)
    return rc, r["total_forms_scanned"], len(r["irreducible_achievers"]), r["complete"]


def _reproduce(rc, records):
    failed = sorted(r["claim_id"] for r in records if not r["pass"])
    return rc, failed, len(records)


def _construct(rc, records):
    return rc, _only(records)["d"]


def _intersect(rc, records):
    r = _only(records)
    return rc, r["count"], r["degenerate"]


# ---------------------------------------------------------------------------
# operation builders
# ---------------------------------------------------------------------------

def _argv(*words):
    return [str(w) for w in words] + ["--format", "json"]


def _verify_op(family, q, d, extra=()):
    return Op(
        _argv("verify", "--family", family, "--q", q, *extra),
        _verify,
        (0, d * (q + 1), True),
    )


def _monomial_op(q, d, alpha):
    def expect():
        from hermplane.constructions import ambient, monomial_fast_count
        from hermplane.serialize import parse_element

        n = monomial_fast_count(q, d, parse_element(ambient(q), alpha))
        achieved = n == d * (q + 1)
        return (0 if achieved else 1, n, achieved)

    return Op(
        _argv("verify", "--family", "monomial", "--q", q, "--d", d, "--alpha", alpha),
        _verify,
        expect,
    )


def _survey_op(d, q_max, gcd_filter, lo_check, expected_lo):
    return Op(
        _argv("survey", "--d", d, "--q-max", q_max, "--gcd-filter", gcd_filter),
        _survey(lo_check),
        (0, _swept(q_max, gcd_filter), expected_lo),
    )


def _negative_op(q, d, total):
    return Op(
        _argv("negative-search", "--q", q, "--d", d, "--emit-points"),
        _negative_search,
        (0, total, 0, True),
    )


def _reproduce_op(group, n_claims):
    return Op(_argv("reproduce-paper", "--only", group), _reproduce, (0, [], n_claims))


def _round_trip(q, curve_path):
    return [
        Op(
            _argv("construct", "--family", "degree-q", "--q", q, "--output", curve_path),
            _construct,
            (0, q),
        ),
        Op(
            _argv("intersect", "--curve", curve_path, "--q", q, "--model", "H1"),
            _intersect,
            (0, q * (q + 1), False),
        ),
    ]


def _split_survey(seed, reduced, tmp):
    if reduced:
        return [
            _survey_op(5, 131, 20, _quintic, (QUINTIC_POSITIVES_TO_131, 0, [])),
            Op(_argv("split-count", "--q", 1877, "--d", 6), _split_count, (0, 0)),
            Op(_argv("thresholds", "--d", 5), _thresholds, (0, [(5, 4, 233)])),
        ]
    return [
        _survey_op(6, 2500, 30, _sextic, (0, SEXTIC_ZEROS_PAST_1877)),
        _survey_op(5, 500, 20, _quintic, (QUINTIC_POSITIVES_TO_131, 0, [])),
        Op(
            _argv("thresholds", "--d", 5, 6),
            _thresholds,
            (0, [(5, 4, 233), (6, 49, 10766)]),
        ),
    ]


def _form_scan(seed, reduced, tmp):
    if reduced:
        return [_negative_op(2, 2, 1365), _reproduce_op("sporadic-cubics", 4)]
    return [
        _negative_op(2, 2, 1365),
        _negative_op(3, 2, 66430),
        _negative_op(2, 3, 349525),
        _reproduce_op("secant-fan", 6),
        _reproduce_op("sporadic-cubics", 4),
    ]


def _family_verify(seed, reduced, tmp):
    rng = random.Random(seed)
    if reduced:
        q = 4
        ops = [
            _verify_op("even-half", 8, 4),
            _verify_op("degree-q", q, q),
            _verify_op("full-point", q, q * q - q + 1),
            _verify_op("sporadic-quartic", 5, 4),
        ]
        d = rng.randint(q + 1, q * q - q)
        ops.append(_verify_op("secant-fan", q, d, ("--d", d)))
        ops.append(_monomial_op(q, 3, f"w^{rng.randrange(1, q * q - 1)}"))
        return ops + _round_trip(q, tmp)
    ops = []
    for q in (16, 32):
        ops.append(_verify_op("even-half", q, q // 2))
        ops.append(_verify_op("degree-q", q, q))
    for q in (25, 27, 29, 31):
        ops.append(_verify_op("odd-half", q, (q + 1) // 2))
    for d in rng.sample(range(9, 57), 5):  # secant fans at q=8: 9 <= d <= 56
        ops.append(_verify_op("secant-fan", 8, d, ("--d", d)))
    for q in (13, 17, 19, 25):
        ops.append(_verify_op("sporadic-quartic", q, 4))
    ops.append(_verify_op("full-point", 8, 57))
    ops.append(_monomial_op(16, 5, f"w^{rng.randrange(1, 255)}"))
    ops.append(_monomial_op(32, 6, f"w^{rng.randrange(1, 1023)}"))
    ops += _round_trip(16, tmp)
    ops.append(_reproduce_op("monomial-fast-path", 6))
    return ops


def _large_plane(seed, reduced, tmp):
    q = 8 if reduced else 64
    return [
        _monomial_op(q, 5, "w"),
        Op(_argv("hermitian-points", "--q", q), _points, (0, q**3 + 1)),
    ]


_BUILDERS = {
    "split-survey": _split_survey,
    "form-scan": _form_scan,
    "family-verify": _family_verify,
    "large-plane": _large_plane,
}


def build(name: str, seed: int, reduced: bool, tmp: str) -> list[Op]:
    """The operations of workload `name`; `tmp` is a scratch curve file path."""
    return _BUILDERS[name](seed, reduced, tmp)
