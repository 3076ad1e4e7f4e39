"""Acceptance suite: every headline quantitative claim, with the exact
expected values and a wall-clock budget per criterion.

Each test drives the shared verification registry in
hermplane.reproduce, so the numbers asserted here are produced by the
same code path as the `reproduce-paper` command.
"""

import hashlib
import json
import time

import numpy as np
import pytest

from hermplane import cli, reproduce, search
from hermplane.plane import ReducibilityResult


def _run(fn, budget_seconds):
    t0 = time.monotonic()
    records = list(reproduce.records(fn))
    elapsed = time.monotonic() - t0
    assert elapsed < budget_seconds, f"took {elapsed:.1f}s, budget {budget_seconds}s"
    return records


def _assert_all_pass(records):
    failed = [
        (r["claim_id"], r["expected"], r["observed"])
        for r in records
        if not r["pass"]
    ]
    assert failed == []


# 1. Hermitian point counts, both models, q in {2,3,4,5,7,8,9}
def test_hermitian_point_counts():
    records = _run(reproduce.check_hermitian_point_counts, 5)
    assert len(records) == 14
    _assert_all_pass(records)


# 2. cubic split counts equal floor((q-2)/6) for every prime power q <= 64
def test_cubic_split_count_closed_form():
    _assert_all_pass(_run(reproduce.check_n3_closed_form, 1))


# 3. quartic split counts equal the piecewise closed form for q <= 64
def test_quartic_split_count_closed_form():
    records = _run(reproduce.check_n4_closed_form, 2)
    _assert_all_pass(records)
    spot = {r["claim_id"]: r["observed"] for r in records}
    assert spot["quartic-split-count-q16"] == 1
    assert spot["quartic-split-count-q23"] == 1
    assert spot["quartic-split-count-q8"] == 0
    assert spot["quartic-split-count-q25"] == 0


# 4. existence criteria for d = p^e and d = p^e + 1 match brute force
def test_split_existence_criteria():
    _assert_all_pass(_run(reproduce.check_existence_criteria, 5))


# 5. exhaustive searches: no irreducible achiever at (2,2), (3,2), (2,3)
def test_exhaustive_negative_searches():
    records = _run(reproduce.check_negative_searches, 180)
    _assert_all_pass(records)
    scanned = {r["claim_id"]: r["observed"][0] for r in records}
    assert scanned["negative-search-q2-d2"] == 1365
    assert scanned["negative-search-q3-d2"] == 66430
    assert scanned["negative-search-q2-d3"] == 349525


def test_undecided_achievers_break_the_negative(monkeypatch):
    # achievers not proved reducible break the negative: with the secant
    # vote hiding every line factor, the d <= 3 achievers pass as
    # irreducible witnesses; with the line test left open as well, they
    # are in neither class.  Either way none is ruled out
    monkeypatch.setattr(
        search,
        "_full_secants",
        lambda spec, on, monos, batch, points: np.zeros((len(batch), len(on)), bool),
    )
    records = list(reproduce.records(reproduce.check_negative_searches))
    assert [r["pass"] for r in records] == [False] * 3
    assert all(r["observed"][1] > 0 for r in records)
    monkeypatch.setattr(
        search,
        "reducibility_search",
        lambda form, lines: ReducibilityResult("open", open=(2,)),
    )
    records = list(reproduce.records(reproduce.check_negative_searches))
    assert [r["pass"] for r in records] == [False] * 3
    assert all(r["observed"][1] > 0 for r in records)


# 6. sporadic cubics: count 3(q+1) and certified absolutely irreducible
def test_sporadic_cubics():
    _assert_all_pass(_run(reproduce.check_sporadic_cubics, 10))


# 7. sporadic quartics: some canonical primitive omega yields 4(q+1)
def test_sporadic_quartics():
    _assert_all_pass(_run(reproduce.check_sporadic_quartics, 60))


# 8. secant fan: d(q+1) for the full degree range at q in {3,4,5},
#    irreducibility certified for the degree <= 5 cases
def test_secant_fan():
    _assert_all_pass(_run(reproduce.check_secant_fan, 120))


# 9. full-point curve: all q^3+1 Hermitian points for q in {3,4,5};
#    at q=2 the 9 points of a reducible cubic, as the (2,3) search says
def test_full_point_curve():
    records = _run(reproduce.check_full_point_curve, 30)
    _assert_all_pass(records)
    q2 = [r for r in records if r["claim_id"] == "full-point-curve-q2"]
    assert [r["observed"] for r in q2] == [(9, "reducible")]


# 10. degree-q curve: q(q+1) for q in {3,4,5,7}
def test_degree_q_curve():
    _assert_all_pass(_run(reproduce.check_degree_q_curve, 30))


# 11. even-half curve: (q/2)(q+1) for q in {4,8,16}
def test_even_half_curve():
    _assert_all_pass(_run(reproduce.check_even_half, 60))


# 12. odd-half curve: ((q+1)/2)(q+1) for q in {17,19,23,25,27,29};
#    the family has parameters at q = 7, 11, 13 and none at q = 3, 5, 9
def test_odd_half_curve():
    records = _run(reproduce.check_odd_half, 120)
    _assert_all_pass(records)


@pytest.mark.parametrize("params, failing", [(None, (7, 11, 13)), ((1, 1, 1), (3, 5, 9))])
def test_odd_half_params_records_can_fail(monkeypatch, params, failing):
    monkeypatch.setattr(reproduce, "odd_half_params", lambda q: params)
    records = [r for r in reproduce.records(reproduce.check_odd_half) if "params-q" in r["claim_id"]]
    assert [r["claim_id"] for r in records if not r["pass"]] == [
        f"odd-half-params-q{q}-report" for q in failing
    ]


# 13. quintic splitting survey over gcd(q,20)=1:
#    positives below 131 are exactly the ten listed prime powers,
#    N_5(131)=0, and no zero count in (131, 500]
def test_quintic_survey():
    _assert_all_pass(_run(reproduce.check_quintic_survey, 60))


# 14. sextic splitting survey over gcd(q,30)=1: N_6(1877)=0, and the zero
#    counts in (1877, 2500] are exactly at q in {2083, 2179, 2197}, found
#    by the splitting engine's sweep and again by the independent fiber
#    count (the older claim of no zero past 1877 is refuted by both)
def test_sextic_survey():
    records = _run(reproduce.check_sextic_survey, 120)
    spot = {r["claim_id"]: r for r in records}
    assert spot["sextic-survey-n6-1877"]["pass"]
    assert sorted(spot) == [
        "sextic-fiber-count-1877-2500",
        "sextic-survey-n6-1877",
        "sextic-survey-zeros-1877-2500",
    ]
    _assert_all_pass(records)


# 15. splitting-field genus and guaranteed-splitting thresholds
def test_genus_and_thresholds():
    records = _run(reproduce.check_genus_and_thresholds, 1)
    _assert_all_pass(records)


# 16. property suites: Euler identity on 1000 seeded random forms;
#    monomial fast path vs enumeration exhaustive for q <= 8, d <= 6;
#    rho-parametrization root identities exhaustive for q <= 16, d <= 6;
#    norm/trace algebra exhaustive for q <= 16
def test_property_suites():
    t0 = time.monotonic()
    records = []
    records += reproduce.records(reproduce.check_euler_identity)
    records += reproduce.records(reproduce.check_monomial_fast_path)
    records += reproduce.records(reproduce.check_rho_parametrization)
    records += reproduce.records(reproduce.check_norm_trace)
    elapsed = time.monotonic() - t0
    assert elapsed < 60, f"took {elapsed:.1f}s, budget 60s"
    _assert_all_pass(records)


def test_monomial_fast_path_reports_an_off_count(monkeypatch):
    # the batched count must still compare every alpha: a fast count off by
    # one is a mismatch at every (q, d, alpha)
    exact = reproduce.monomial_fast_count
    monkeypatch.setattr(reproduce, "monomial_fast_count", lambda q, d, alpha: exact(q, d, alpha) + 1)
    records = list(reproduce.records(reproduce.check_monomial_fast_path))
    assert [r["pass"] for r in records] == [False] * 6
    assert [len(r["observed"]) for r in records] == [5 * (q * q - 1) for q in (2, 3, 4, 5, 7, 8)]
    assert all(fast == full + 1 for r in records for _, _, fast, full in r["observed"])


def test_rho_records_report_a_wrong_root(monkeypatch):
    # the root set is found once per (d, rho); a t2 off by one encoding is
    # no root of a t^d + t + 1, so every q's record fails
    exact = reproduce.rho_parametrization

    def off(q, d, rho):
        parts = exact(q, d, rho)
        return None if parts is None else (parts[0], parts[1], parts[2] + 1)

    monkeypatch.setattr(reproduce, "rho_parametrization", off)
    records = list(reproduce.records(reproduce.check_rho_parametrization))
    assert [r["claim_id"] for r in records] == [
        f"rho-parametrization-q{q}" for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)
    ]
    assert not any(r["pass"] for r in records)


def test_records_time_each_claim_from_the_previous_yield(monkeypatch):
    # a claim's millis are the check's own time since its previous claim;
    # the 100 s the consumer spends between two records are not counted
    now = [0.0]
    monkeypatch.setattr(reproduce.time, "monotonic", lambda: now[0])

    def check():
        now[0] += 5
        yield "first", 1, 1
        now[0] += 2
        yield "second", 1, 2

    records = []
    for r in reproduce.records(check):
        records.append(r)
        now[0] += 100
    assert [r["millis"] for r in records] == [5000.0, 2000.0]
    assert [(r["claim_id"], r["pass"]) for r in records] == [("first", True), ("second", False)]


# sha256 of the whole matrix's `reproduce-paper --format json` stdout: a
# change that adds or alters a record updates it
MATRIX_SHA256 = "a334944ec88f10e6a0f4ecf94adccc292bca9941d560f0483e7d338f4686e65c"


def test_reproduce_paper_is_pinned(capsys):
    assert cli.main(["reproduce-paper", "--format", "json"]) == 0
    out, err = capsys.readouterr()
    assert hashlib.sha256(out.encode()).hexdigest() == MATRIX_SHA256
    assert err == '{"claims": 107, "failed": 0}\n'
    ids = [json.loads(line)["claim_id"] for line in out.splitlines()]
    assert len(ids) == len(set(ids)) == 107
