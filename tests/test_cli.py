import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hermplane import cli
from hermplane.cli import main
from hermplane.plane import hermitian_model, hermitian_points, monomials
from hermplane.search import SearchReport, exhaustive_negative_search
from hermplane.serialize import Encoded, format_element, format_points, load_curve


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_hermitian_points_table(capsys):
    code, out, _ = run(capsys, "hermitian-points", "--q", "3", "--model", "H2")
    assert code == 0
    assert "28" in out


def test_hermitian_points_emit(capsys):
    code, out, _ = run(
        capsys, "hermitian-points", "--q", "2", "--emit-points", "--format", "json"
    )
    assert code == 0
    lines = [json.loads(l) for l in out.strip().splitlines()]
    assert len(lines) == 9
    assert all("point" in r for r in lines)


def _value(f, xyz):
    """The encoding of f(x, y, z), term by term in scalar arithmetic."""
    spec, acc = f.field, 0
    for m, c in f.terms.items():
        for v, e in zip(xyz, m):
            c = spec.mul(c, spec.pow(v, e))
        acc = spec.add(acc, c)
    return acc


def _printed_points(forms):
    """The common points of `forms` as --emit-points prints them, one point
    at a time: in enumeration order, each scaled so that its first nonzero
    coordinate is 1, each coordinate printed by format_element."""
    spec = forms[0].field
    Q = spec.order
    charts = [(x, y, 1) for x in range(Q) for y in range(Q)]
    charts += [(x, 1, 0) for x in range(Q)] + [(1, 0, 0)]
    out = []
    for xyz in charts:
        if any(_value(f, xyz) for f in forms):
            continue
        inv = spec.inv(next(v for v in xyz if v))
        coords = (format_element(spec, spec.mul(inv, v)) for v in xyz)
        out.append("[" + ":".join(coords) + "]")
    return out


@pytest.mark.parametrize("model", ["H1", "H2"])
@pytest.mark.parametrize("q", [2, 3, 4])
def test_hermitian_points_emit_match_brute_force(capsys, q, model):
    code, out, _ = run(
        capsys, "hermitian-points", "--q", str(q), "--model", model,
        "--emit-points", "--format", "json",
    )
    assert code == 0
    points = [json.loads(line)["point"] for line in out.splitlines()]
    assert len(points) == q**3 + 1
    assert points == _printed_points([hermitian_model(q, model)])


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_hermitian_points_json_lines_are_json_dumps(capsys, monkeypatch, q):
    # each line is the record json.dumps writes, written whole or in chunks
    for model in ("H1", "H2"):
        h = hermitian_model(q, model)
        points = format_points(h.field, hermitian_points(q, model))
        want = "".join(
            json.dumps({"q": q, "model": model, "point": P}, sort_keys=True) + "\n"
            for P in points
        )
        for chunk in (cli._EMIT_CHUNK, 100):
            monkeypatch.setattr(cli, "_EMIT_CHUNK", chunk)
            code, out, _ = run(
                capsys, "hermitian-points", "--q", str(q), "--model", model,
                "--emit-points", "--format", "json",
            )
            assert code == 0
            assert out == want, (model, chunk)


def test_intersect_emit_points_match_brute_force(capsys, tmp_path):
    path = str(tmp_path / "curve.json")
    assert main(["construct", "--family", "degree-q", "--q", "3", "--output", path]) == 0
    capsys.readouterr()
    code, out, _ = run(
        capsys, "intersect", "--curve", path, "--q", "3", "--emit-points", "--format", "json"
    )
    assert code == 0
    rec = json.loads(out)
    assert rec["count"] == len(rec["points"]) == 12
    assert rec["points"] == _printed_points([hermitian_model(3, "H1"), load_curve(path)[0]])


@pytest.mark.parametrize("model", ["H1", "H2"])
def test_hermitian_points_beyond_the_full_plane_limit(capsys, model):
    code, out, _ = run(
        capsys, "hermitian-points", "--q", "128", "--model", model, "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["points"] == 128**3 + 1


def _raising(exc):
    def fn(args):
        raise exc

    return fn


@pytest.mark.parametrize(
    "fn, code, message",
    [
        (_raising(MemoryError("Unable to allocate 2.00 GiB")), 2, "error: out of memory"),
        (_raising(KeyboardInterrupt()), 130, "error: interrupted"),
    ],
    ids=["memory", "interrupt"],
)
def test_exit_codes_for_exhaustion(capsys, monkeypatch, fn, code, message):
    monkeypatch.setattr(cli, "cmd_hermitian_points", fn)
    got, out, err = run(capsys, "hermitian-points", "--q", "3")
    assert got == code
    assert out == ""
    assert message in err


def test_negative_search_over_budget_is_usage_error(capsys):
    code, out, err = run(capsys, "negative-search", "--q", "4", "--d", "3")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "exceed the budget" in err
    assert "Traceback" not in err


def test_negative_search_budget_past_int64_is_usage_error(capsys):
    # the space fits this budget, but its form indices would leave int64
    code, out, err = run(capsys, "negative-search", "--q", "7", "--d", "6", "--budget", str(10**50))
    assert code == 2
    assert out == ""
    assert err.startswith("error: budget 1" + "0" * 50 + " would scan ")
    assert err.endswith("past the largest form index 9223372036854775807\n")


@pytest.mark.parametrize("d", ["150", "1000000"])
def test_negative_search_refuses_a_huge_space_before_listing_it(capsys, monkeypatch, d):
    # past the budget by its 2^(M-1) bound, a space whose count would not
    # print is refused without the count or the monomial list
    from hermplane import search

    def unreachable(d):
        raise AssertionError("monomials listed before the budget refusal")

    monkeypatch.setattr(search, "monomials", unreachable)
    code, out, err = run(capsys, "negative-search", "--q", "2", "--d", d)
    assert code == 2
    assert out == ""
    assert err.startswith("error: more than 2^")
    assert "exceed the budget 10000000" in err


def test_thresholds_refuses_a_huge_d_before_building_it(capsys, monkeypatch):
    def unreachable(d):
        raise AssertionError("genus built before the digit refusal")

    monkeypatch.setattr(cli, "genus_Fd", unreachable)
    code, out, err = run(capsys, "thresholds", "--d", "1000000")
    assert code == 2
    assert out == ""
    assert err == (
        "error: d=1000000 gives integers of more than 4300 digits, "
        "the limit for printing an integer\n"
    )


def test_exponents_past_int64_reduce_mod_the_group_order(capsys, tmp_path):
    # d = 7 + 15 * 2^58 has the exponents of d = 7 mod Q-1 = 15
    d = str(7 + 15 * 2**58)
    code, out, _ = run(
        capsys, "verify", "--family", "monomial", "--q", "4", "--d", d, "--alpha", "2",
        "--format", "json",
    )
    from hermplane.constructions import monomial_fast_count

    assert code == 1
    assert json.loads(out)["count"] == 5 == monomial_fast_count(4, int(d), 2)
    code, out, _ = run(capsys, "split-count", "--q", "4", "--d", str(10**21), "--format", "json")
    assert code == 0
    assert json.loads(out)["count"] == 0
    path = tmp_path / "m.json"
    run(capsys, "construct", "--family", "monomial", "--q", "4", "--d", "7", "--alpha", "2",
        "--output", str(path))
    data = json.loads(path.read_text())
    shift = 15 * 10**20
    data["degree"] += shift
    for term in data["terms"]:
        term["j" if term["j"] else "k"] += shift
    path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "intersect", "--curve", str(path), "--q", "4", "--format", "json")
    assert code == 0
    assert json.loads(out)["count"] == 5


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--d", "0"], "degree d must be >= 1 (got 0)"),
        (["--d", "-1"], "degree d must be >= 1 (got -1)"),
        (["--d", "2", "--budget", "0"], "budget must be >= 1 (got 0)"),
        (["--d", "2", "--budget", "-5"], "budget must be >= 1 (got -5)"),
    ],
)
def test_negative_search_bad_degree_or_budget_is_usage_error(capsys, argv, message):
    code, out, err = run(capsys, "negative-search", "--q", "2", *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_negative_search_without_emit_points_serializes_no_achiever(capsys, monkeypatch):
    def refuse(self):
        raise AssertionError("achievers serialized without --emit-points")

    monkeypatch.setattr(SearchReport, "to_dict", refuse)
    code, out, _ = run(capsys, "negative-search", "--q", "3", "--d", "2")
    assert code == 0
    assert out == (
        "q  d  model  target  total_forms_scanned  complete\n"
        "3  2  H2     8       66430                True\n"
    )


def test_verify_success_and_failure_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "--family", "sporadic-cubic", "--q", "5")
    assert code == 0
    assert "18" in out
    # out-of-table q is a usage error, not a verification failure
    code, _, err = run(capsys, "verify", "--family", "sporadic-cubic", "--q", "9")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "--family", "degree-q", "--q", "4", "--d", "9"], "degree-q at q=4 has degree 4, not d=9"),
        (["construct", "--family", "sporadic-cubic", "--q", "5", "--d", "4"], "sporadic-cubic at q=5 has degree 3"),
        (["verify", "--family", "full-point", "--q", "4", "--alpha", "w"], "full-point takes no alpha"),
        (["construct", "--family", "secant-fan", "--q", "3", "--d", "4", "--alpha", "w"], "secant-fan takes no alpha"),
    ],
)
def test_build_refuses_arguments_the_family_does_not_take(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert message in err


def test_verify_accepts_the_family_degree(capsys):
    code, out, _ = run(capsys, "verify", "--family", "degree-q", "--q", "4", "--d", "4", "--format", "json")
    assert code == 0
    assert json.loads(out)["d"] == 4


def test_verify_json_record(capsys):
    code, out, _ = run(
        capsys, "verify", "--family", "even-half", "--q", "4", "--format", "json"
    )
    assert code == 0
    rec = json.loads(out)
    assert rec["count"] == rec["target"] == 10
    assert rec["achieved"] is True


def test_construct_round_trips_through_intersect(capsys, tmp_path):
    path = str(tmp_path / "curve.json")
    code, out, _ = run(
        capsys,
        "construct", "--family", "degree-q", "--q", "3",
        "--output", path, "--format", "json",
    )
    assert code == 0
    code, out, _ = run(
        capsys, "intersect", "--curve", path, "--q", "3", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["count"] == 12


def _monomial_curve_file(capsys, tmp_path):
    # a monomial curve over F_25 whose file records H2: 12 points on H2,
    # 6 on H1
    path = str(tmp_path / "m.json")
    code, _, _ = run(
        capsys, "construct", "--family", "monomial", "--q", "5", "--d", "3",
        "--alpha", "w", "--output", path,
    )
    assert code == 0
    assert json.loads(Path(path).read_text())["model"] == "H2"
    return path


def test_intersect_defaults_to_the_curve_file_model(capsys, tmp_path):
    path = _monomial_curve_file(capsys, tmp_path)
    code, out, _ = run(capsys, "intersect", "--curve", path, "--q", "5", "--format", "json")
    assert code == 0
    rec = json.loads(out)
    assert (rec["model"], rec["count"]) == ("H2", 12)
    code, out, _ = run(
        capsys, "verify", "--family", "monomial", "--q", "5", "--d", "3", "--alpha", "w",
        "--format", "json",
    )
    assert json.loads(out)["count"] == rec["count"]


def test_intersect_explicit_model_wins_over_the_file(capsys, tmp_path):
    path = _monomial_curve_file(capsys, tmp_path)
    code, out, _ = run(
        capsys, "intersect", "--curve", path, "--q", "5", "--model", "H1", "--format", "json"
    )
    assert code == 0
    rec = json.loads(out)
    assert (rec["model"], rec["count"]) == ("H1", 6)


# what `construct --format json` prints besides the terms: each parameter
# is an element of F_{q^2} printed as its coefficient vector
_CONSTRUCTED = [
    (["secant-fan", "--q", "3", "--d", "5"],
     {"family": "SecantFan", "q": 3, "d": 5, "model": "H1",
      "parameters": {"alpha": [1, 0], "b": [[1, 0], [2, 0], [1, 1], [2, 1], [1, 2]]}}),
    (["full-point", "--q", "2"],
     {"family": "FullPoint", "q": 2, "d": 3, "model": "H1", "parameters": {}}),
    (["degree-q", "--q", "5"],
     {"family": "DegreeQ", "q": 5, "d": 5, "model": "H1", "parameters": {"alpha": [1, 1]}}),
    (["even-half", "--q", "8"],
     {"family": "EvenHalf", "q": 8, "d": 4, "model": "H1",
      "parameters": {"alpha": [0, 1, 0, 0, 0, 1]}}),
    (["odd-half", "--q", "7"],
     {"family": "OddHalf", "q": 7, "d": 4, "model": "H2",
      "parameters": {"alpha": [1, 0], "beta": [1, 0], "gamma": [2, 0]}}),
    (["monomial", "--q", "5", "--d", "3", "--alpha", "w"],
     {"family": "Monomial", "q": 5, "d": 3, "model": "H2", "parameters": {"alpha": [1, 1]}}),
    (["sporadic-cubic", "--q", "4"],
     {"family": "SporadicCubic", "q": 4, "d": 3, "model": "H2", "parameters": {}}),
    (["sporadic-quartic", "--q", "9"],
     {"family": "SporadicQuartic", "q": 9, "d": 4, "model": "H2",
      "parameters": {"omega": [0, 1, 0, 0]}}),
    (["degree-q", "--q", "5", "--alpha", "w^5"],
     {"family": "DegreeQ", "q": 5, "d": 5, "model": "H1", "parameters": {"alpha": [1, 4]}}),
    (["monomial", "--q", "7", "--d", "4", "--alpha", "w^7"],
     {"family": "Monomial", "q": 7, "d": 4, "model": "H2", "parameters": {"alpha": [2, 6]}}),
]


@pytest.mark.parametrize(
    "args, expected", _CONSTRUCTED, ids=["-".join(a).replace("--", "") for a, _ in _CONSTRUCTED]
)
def test_construct_prints_its_parameters(capsys, args, expected):
    code, out, err = run(capsys, "construct", "--family", *args, "--format", "json")
    assert code == 0 and err == ""
    rec = json.loads(out)
    assert rec.pop("terms")
    assert rec == expected


@pytest.mark.parametrize("q, d, k", [(3, 2, 1), (4, 3, 7), (5, 3, 7), (7, 4, 7), (8, 3, 5)])
def test_benchmark_monomial_oracle_matches_verify(capsys, q, d, k):
    # the expected count of a monomial benchmark op, computed through the
    # imports the benchmark's workloads use, equals what verify prints
    from hermplane.constructions import ambient, monomial_fast_count
    from hermplane.serialize import parse_element

    n = monomial_fast_count(q, d, parse_element(ambient(q), f"w^{k}"))
    code, out, _ = run(
        capsys, "verify", "--family", "monomial", "--q", str(q), "--d", str(d),
        "--alpha", f"w^{k}", "--format", "json",
    )
    assert json.loads(out)["count"] == n
    assert code == (0 if n == d * (q + 1) else 1)


def test_intersect_wrong_field_is_usage_error(capsys, tmp_path):
    path = str(tmp_path / "curve.json")
    run(capsys, "construct", "--family", "degree-q", "--q", "3", "--output", path)
    code, _, err = run(capsys, "intersect", "--curve", path, "--q", "4")
    assert code == 2


def test_construct_rejects_out_of_range_alpha(capsys):
    # F_9: encodings lie in [0, 9) and coefficients in [0, 3)
    for alpha in ("301", "[4,0]"):
        code, out, err = run(
            capsys,
            "construct", "--family", "monomial", "--q", "3", "--d", "2",
            "--alpha", alpha,
        )
        assert code == 2
        assert out == ""
        assert "outside" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["construct", "--family", "monomial", "--q", "3", "--d", "2", "--alpha", "abc"],
            "cannot read 'abc' as a field element: expected "
            "'[c0,c1,...]', 'w', 'w^k' or an integer encoding",
        ),
        (
            ["verify", "--family", "monomial", "--q", "3", "--d", "2", "--alpha", "w^x"],
            "cannot read 'w^x' as a field element",
        ),
        (
            ["construct", "--family", "monomial", "--q", "3", "--d", "2", "--alpha", "[1,a]"],
            "cannot read '[1,a]' as a field element",
        ),
        (["survey", "--d", "5", "--q-max", "50", "--gcd-filter", "0"], "gcd filter must be >= 1 (got 0)"),
        (["survey", "--d", "5", "--q-max", "50", "--gcd-filter", "-6"], "gcd filter must be >= 1 (got -6)"),
        (
            ["survey", "--d", "6", "--q-max", "16777217"],
            "survey q_max 16777217 exceeds the largest field order 16777216",
        ),
        (
            ["thresholds", "--d", "5", "1000"],
            "d=1000 gives integers of more than 4300 digits, the limit for printing an integer",
        ),
        (["survey", "--d", "1", "--q-max", "1"], "need d >= 2"),
        (["survey", "--d", "1", "--q-max", "100"], "need d >= 2"),
        (
            ["survey", "--d", "6", "--q-max", "131072"],
            "survey q_max 131072 sweeps 131072 = 2^17, past the largest extension degree 16",
        ),
        (["survey", "--d", "6", "--q-max", "1"], "survey q_max 1 sweeps no prime power"),
        (["survey", "--d", "6", "--q-max", "-5"], "survey q_max -5 sweeps no prime power"),
        (
            ["survey", "--d", "5", "--q-max", "3", "--gcd-filter", "6"],
            "survey q_max 3 sweeps no prime power coprime to the gcd filter 6",
        ),
    ],
)
def test_unreadable_or_empty_input_is_usage_error(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {message}")


def test_intersect_rejects_out_of_range_coefficient(capsys, tmp_path):
    path = tmp_path / "curve.json"
    run(capsys, "construct", "--family", "degree-q", "--q", "3", "--output", str(path))
    data = json.loads(path.read_text())
    for bad in ("[3,0]", 9):
        data["terms"][0]["coeff"] = bad
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "intersect", "--curve", str(path), "--q", "3")
        assert code == 2
        assert out == ""
        assert "outside" in err


@pytest.mark.parametrize(
    "data, key",
    [
        ({"p": 3}, "'m'"),
        ({"p": 3, "m": 2, "degree": 1, "terms": [{"i": 1, "j": 0, "k": 0}]}, "'coeff'"),
        ([3, 2], "not a JSON object"),
        ({"p": 3, "m": 2, "degree": 1, "terms": [7]}, "not a JSON object"),
        ({"p": 9.0, "m": 1, "degree": 1, "terms": []}, "9.0 is not an integer"),
        ({"p": 4, "m": 2, "degree": 1, "terms": []}, "characteristic 4 is not prime"),
        ({"p": 3, "m": 2, "degree": 1, "terms": [{"i": "1", "j": 0, "k": 0, "coeff": 1}]},
         "'i' = '1' is not an integer"),
        ({"p": 3, "m": 2, "degree": 1, "terms": None}, "'terms' = None is not a list"),
        ({"p": 3, "m": 2, "degree": 1.0, "terms": [{"i": 1, "j": 0, "k": 0, "coeff": 1}]},
         "'degree' = 1.0 is not an integer"),
        ({"p": 3, "m": 2, "degree": 1, "terms": [{"i": 1, "j": 0, "k": 0, "coeff": True}]},
         "cannot build a field element from True"),
        ({"p": 3, "m": 2, "degree": 1, "terms": [{"i": 1, "j": 0, "k": 0, "coeff": [True]}]},
         "coefficient True is not an integer"),
        ({"p": 3, "m": 2, "degree": 1, "terms": [{"i": 1, "j": 0, "k": 0, "coeff": 3.0}]},
         "cannot build a field element from 3.0"),
        ({"p": 3, "m": 2, "degree": 1, "terms": []}, "zero form"),
        ({"p": 3, "m": 2, "degree": 1, "terms": [{"i": 1, "j": 0, "k": 0, "coeff": "0"}]},
         "zero form"),
        ({"p": 3, "m": 2, "degree": 1, "terms": [{"i": 1, "j": 0, "k": 0, "coeff": 1}],
          "model": "H3"}, "curve 'model' = 'H3' is not 'H1' or 'H2'"),
        ({"p": 3, "m": 2, "degree": 1, "terms": [{"i": 1, "j": 0, "k": 0, "coeff": 1}],
          "model": None}, "curve 'model' = None is not 'H1' or 'H2'"),
        ({"p": 3, "m": 2, "degree": 1, "terms": [{"i": 1, "j": 0, "k": 0, "coeff": 1},
                                                 {"i": 0, "j": 1, "k": 0, "coeff": 1},
                                                 {"i": 1, "j": 0, "k": 0, "coeff": 2}]},
         "curve lists the monomial (1, 0, 0) twice"),
    ],
)
def test_intersect_rejects_malformed_curve_file(capsys, tmp_path, data, key):
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "intersect", "--curve", str(path), "--q", "3")
    assert code == 2
    assert out == ""
    assert key in err
    assert "Traceback" not in err


_Q_COMMANDS = [
    ["hermitian-points"],
    ["intersect", "--curve", "no-such-file.json"],
    ["construct", "--family", "degree-q"],
    ["verify", "--family", "degree-q"],
    ["split-count", "--d", "3"],
    ["negative-search", "--d", "2"],
]


@pytest.mark.parametrize("q", [-2, 0, 1, 6])
@pytest.mark.parametrize("command", _Q_COMMANDS, ids=lambda c: c[0])
def test_q_must_be_a_prime_power(capsys, command, q):
    code, out, err = run(capsys, *command, "--q", str(q))
    assert code == 2
    assert out == ""
    assert err == f"error: --q must be a prime power >= 2 (got {q})\n"


@pytest.mark.parametrize("q", [16777259, 2**40])
@pytest.mark.parametrize("command", _Q_COMMANDS, ids=lambda c: c[0])
def test_q_above_the_largest_field_order_is_refused(capsys, command, q):
    # 16777259 is prime: the refusal names the bound, not "prime power"
    code, out, err = run(capsys, *command, "--q", str(q))
    assert code == 2
    assert out == ""
    assert err == f"error: --q {q} exceeds the largest field order 16777216\n"


# split-count works in F_4099 itself; intersect stops at its missing file
@pytest.mark.parametrize(
    "command",
    [c for c in _Q_COMMANDS if c[0] not in ("intersect", "split-count")],
    ids=lambda c: c[0],
)
def test_q_whose_square_is_too_large_is_refused(capsys, command):
    code, out, err = run(capsys, *command, "--q", "4099")
    assert code == 2
    assert out == ""
    assert err == "error: field order 4099^2 exceeds 16777216\n"


def test_split_count(capsys):
    code, out, _ = run(capsys, "split-count", "--q", "16", "--d", "4", "--format", "json")
    assert code == 0
    rec = json.loads(out)
    assert rec["count"] == 1 and rec["agree"] is True


def test_survey_csv(capsys):
    code, out, _ = run(
        capsys,
        "survey", "--d", "5", "--q-max", "131", "--gcd-filter", "20",
        "--format", "csv",
    )
    assert code == 0
    assert out.strip().splitlines()[-1] == "131,0"


def test_thresholds(capsys):
    # d = 40 is the closed form, not a walk over about 4g values of q
    code, out, _ = run(capsys, "thresholds", "--d", "5", "40", "--format", "json")
    assert code == 0
    rec, large = map(json.loads, out.splitlines())
    assert rec["genus"] == 4 and rec["threshold"] == 233
    assert large["d"] == 40 and large["threshold"] == int(
        "134424049881383775589406094256858077059657352297874609290098797861744260810386164206796800000005"
    )


def test_negative_search(capsys):
    code, out, _ = run(
        capsys, "negative-search", "--q", "2", "--d", "2", "--format", "json"
    )
    assert code == 0
    rec = json.loads(out)
    assert rec["total_forms_scanned"] == 1365 and rec["complete"] is True


# sha256 of `negative-search --emit-points --format json` at (q, d, model),
# from when the search built every achiever as a form and each class list
# serialized its forms again; (2, 3) has d = q + 1 > q, so its achievers
# are classified as forms, and the others' line factors in bulk
EMITTED_ACHIEVERS = {
    (3, 2, "H2"): (945, "b44f6738f47852d2b539e431c3269088e6221654beca435f2059b397d22a8c37"),
    (2, 2, "H1"): (12, "1eb256486b999925289ad20a03575b5ec4d6140d3bd1a238177abe35bc8147d5"),
    (2, 2, "H2"): (12, "285dc839c9acf9afcdb38174c84822873366ad7b64549389f4866776a03c6c99"),
    (2, 3, "H1"): (4, "140751319867d10c82a0b9f23f3b7b6bc97f10dc5334ae5fe375fb1b54aca29b"),
    (2, 3, "H2"): (4, "0a6e800e2c5528df648b64cf8b2725beb4d929fa926cb6b3da8797ccb1d20b62"),
}


def test_negative_search_emit_points_bytes(capsys):
    # each achiever in `achievers` and in its class list prints exactly as
    # it did when the search kept forms
    for (q, d, model), (n, digest) in EMITTED_ACHIEVERS.items():
        code, out, _ = run(
            capsys, "negative-search", "--q", str(q), "--d", str(d), "--model", model,
            "--emit-points", "--format", "json",
        )
        assert code == 0
        assert len(json.loads(out)["achievers"]) == n, (q, d, model)
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (q, d, model)


def _reference_rendering(record, fmt):
    """record as json lines, csv or a table, its lists by plain json.dumps."""
    if fmt == "json":
        return json.dumps(record, sort_keys=True) + "\n"
    keys = list(record)
    cells = [json.dumps(v, sort_keys=True) if isinstance(v, list) else str(v) for v in record.values()]
    if fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([keys, cells])
        return buf.getvalue()
    widths = [max(len(k), len(c)) for k, c in zip(keys, cells)]
    return "".join(
        "  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() + "\n"
        for row in (keys, cells)
    )


@pytest.mark.parametrize("model", ["H1", "H2"])
@pytest.mark.parametrize("q, d", [(2, 2), (3, 2), (2, 3)])
def test_negative_search_renders_as_plain_json_dumps(capsys, q, d, model):
    # the record rebuilt from the report's rows and statuses: each form as
    # its nonzero [[i, j, k], c] terms in ascending monomial order
    rep = exhaustive_negative_search(q, d, model)
    forms = [
        [[list(m), c] for m, c in sorted(zip(monomials(d), row)) if c]
        for row in rep.achievers.tolist()
    ]
    status = rep.status.tolist()
    full = dict(
        rep.summary(),
        achievers=forms,
        irreducible_achievers=[f for f, s in zip(forms, status) if s == "irreducible"],
        reducible_achievers=[f for f, s in zip(forms, status) if s == "factor"],
    )
    for emit, record in (([], rep.summary()), (["--emit-points"], full)):
        for fmt in ("json", "table", "csv"):
            code, out, err = run(
                capsys, "negative-search", "--q", str(q), "--d", str(d), "--model", model,
                *emit, "--format", fmt,
            )
            assert (code, err) == (0, "")
            assert out == _reference_rendering(record, fmt), (emit, fmt)


def test_encoded_values_render_as_the_record_they_decode_to(capsys):
    # marked values first, last, adjacent and between plain ones
    mixed = {
        "a": Encoded('[[1, 2], {"x": "y"}]'),
        "b": Encoded('{"j": null, "k": [3]}'),
        "c": 7,
        "d": "text, with \"quotes\"",
        "e": Encoded("12"),
        "f": [1, (2, 3)],
        "g": {"z": 1, "a": [True, None]},
        "h": Encoded("[]"),
    }
    plain = {k: json.loads(v) if isinstance(v, Encoded) else v for k, v in mixed.items()}
    for fmt in ("json", "table", "csv"):
        cli._emit([mixed, plain], fmt)
        got = capsys.readouterr().out.splitlines()
        assert got[-1] == got[-2], fmt
    cli._emit([mixed], "json")
    assert capsys.readouterr().out == json.dumps(plain, sort_keys=True) + "\n"


def test_reproduce_paper_filter(capsys):
    code, out, err = run(
        capsys, "reproduce-paper", "--only", "genus", "--format", "json"
    )
    assert code == 0
    recs = [json.loads(l) for l in out.strip().splitlines()]
    assert len(recs) == 6
    assert all(r["pass"] for r in recs)
    assert "millis" not in recs[0]


def test_reproduce_paper_filter_matching_nothing_is_usage_error(capsys):
    code, out, err = run(capsys, "reproduce-paper", "--only", "nosuchgroup")
    assert code == 2
    assert out == ""
    assert "'nosuchgroup'" in err and "claims" not in err


def test_deterministic_output(capsys):
    _, out1, _ = run(capsys, "split-count", "--q", "23", "--d", "4", "--format", "csv")
    _, out2, _ = run(capsys, "split-count", "--q", "23", "--d", "4", "--format", "csv")
    assert out1 == out2


def test_unknown_command_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


_IMPORT_GUARD = """
import contextlib, io, sys
import hermplane.cli
assert "sympy" not in sys.modules, "import hermplane.cli loaded sympy"
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [
        hermplane.cli.main(argv.split())
        for argv in ("negative-search --q 2 --d 3", "reproduce-paper --only sporadic-cubics")
    ]
assert codes == [0, 0], codes
assert "numpy.random" not in sys.modules, "the form scan loaded numpy.random"
from hermplane import reproduce
recs = reproduce.run_all("sextic-survey")
print(len(recs), all(r["pass"] for r in recs), "sympy" in sys.modules)
"""


def test_cli_import_leaves_sympy_out():
    # no hermplane code loads sympy, not even the crosscheck record of the
    # sextic survey, and no form scan or line certificate loads numpy.random
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_GUARD],
        env=env, capture_output=True, text=True, check=True,
    )
    assert done.stdout == "3 True False\n"


_NUMPY_MA_GUARD = """
import contextlib, io, sys
import hermplane.cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [
        hermplane.cli.main(argv.split())
        for argv in (
            "hermitian-points --q 8",
            "verify --family monomial --q 8 --d 5 --alpha w",
            "negative-search --q 2 --d 2",
        )
    ]
print(codes, "numpy.ma" in sys.modules)
"""


def test_plane_commands_leave_numpy_ma_out():
    # some numpy calls load numpy.ma lazily: in numpy 2.4 a first plain
    # np.unique takes about 16 ms, most of it that import
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-c", _NUMPY_MA_GUARD],
        env=env, capture_output=True, text=True, check=True,
    )
    assert done.stdout == "[0, 1, 0] False\n"


@pytest.mark.parametrize(
    "argv, lines",
    [
        # about 18 MB of json lines, far more than a pipe holds; the reader
        # takes one line and closes
        ("hermitian-points --q 64 --emit-points --format json", 1),
        # a short table, which only a flush writes, into a pipe whose
        # reader is closed before the command starts: no summary follows
        ("reproduce-paper --only genus --format table", 0),
    ],
    ids=["listing", "table"],
)
def test_closed_stdout_exits_141_quietly(argv, lines):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("PYTHONUNBUFFERED", None)
    r, w = os.pipe()
    if not lines:
        os.close(r)
    proc = subprocess.Popen(
        [sys.executable, "-m", "hermplane.cli", *argv.split()],
        stdout=w, stderr=subprocess.PIPE, env=env,
    )
    os.close(w)
    if lines:
        with open(r) as reader:
            assert reader.readline().startswith('{"model": "H1", "point": ')
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 141
    assert err == b""
