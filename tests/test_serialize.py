import json

import pytest

import numpy as np

from hermplane.field import FieldError, field_of_order
from hermplane.plane import TernaryForm, hermitian_model
from hermplane.serialize import (
    Encoded,
    curve_from_dict,
    curve_to_dict,
    format_element,
    json_line,
    json_lines,
    json_lines_at,
    load_curve,
    parse_element,
    save_curve,
)


def test_format_element_styles():
    # zero prints as "0", everything else as its coefficient vector
    spec = field_of_order(9)
    assert format_element(spec, 0) == "0"
    assert format_element(spec, 5) == "[2,1]"
    assert format_element(spec, 3) == "[0,1]"


def test_parse_element_accepts_many_shapes():
    spec = field_of_order(9)
    g = spec.generator
    assert parse_element(spec, "w") == g
    assert parse_element(spec, "w^3") == spec.pow(g, 3)
    assert parse_element(spec, "[2,1]") == 5
    assert parse_element(spec, "0") == 0
    assert parse_element(spec, 7) == 7
    assert parse_element(spec, np.int64(7)) == 7
    assert parse_element(spec, [1, 2]) == 7
    assert parse_element(spec, "8") == 8
    assert parse_element(spec, "[2,2]") == 8


def test_parse_format_round_trip():
    spec = field_of_order(25)
    for v in range(spec.order):
        assert parse_element(spec, format_element(spec, v)) == v
    # "w^k" for k < 24 names each nonzero element once, w^(k+1) = w^k * w
    powers = [parse_element(spec, f"w^{k}") for k in range(spec.order - 1)]
    assert sorted(powers) == list(range(1, spec.order))
    for a, b in zip(powers, powers[1:]):
        assert b == spec.mul(a, spec.generator)


def test_parse_element_rejects_garbage():
    # out-of-range input is refused, not reduced: "301" does not mean 1
    spec = field_of_order(9)
    for text in ("xyz", "9", "301", "-1", "[4,0]", "[1,-1]", 9, [3], [1, 0, 0]):
        with pytest.raises((FieldError, ValueError)):
            parse_element(spec, text)
    # JSON reads true as a bool and 3.0 as a float: neither is an element
    for text in (True, 3.0, None, [True], [1.0]):
        with pytest.raises(ValueError, match="cannot build a field element|not an integer"):
            parse_element(spec, text)
    with pytest.raises(ValueError, match="^cannot build a field element from 3.0$"):
        parse_element(spec, 3.0)


def test_curve_dict_round_trip():
    h = hermitian_model(3, "H1")
    d = curve_to_dict(h, model="H1")
    assert d["p"] == 3 and d["m"] == 2 and d["degree"] == 4
    g = curve_from_dict(d)
    assert g == h


def test_curve_file_round_trip(tmp_path):
    spec = field_of_order(16)
    f = TernaryForm(spec, 3, {(3, 0, 0): 1, (0, 2, 1): 7, (0, 0, 3): 2})
    path = tmp_path / "curve.json"
    save_curve(path, f, model="H2")
    g, model = load_curve(path)
    assert g == f
    assert model == "H2"
    data = json.loads(path.read_text())
    assert data["model"] == "H2"


def test_curve_file_round_trip_is_canonical(tmp_path):
    # save -> load -> save produces byte-identical files
    spec = field_of_order(9)
    f = TernaryForm(spec, 2, {(2, 0, 0): 4, (0, 1, 1): 8})
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    save_curve(p1, f)
    g, model = load_curve(p1)
    assert model is None
    save_curve(p2, g)
    assert p1.read_text() == p2.read_text()


def test_load_rejects_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"p": 3}')
    with pytest.raises((KeyError, ValueError)):
        load_curve(path)
    # p = 4 is refused, not read as F_16 = F_{2^4}
    term = {"i": 1, "j": 0, "k": 0, "coeff": "1"}
    for p, m, message in [
        (4, 2, "characteristic 4 is not prime"),
        (2.0, 4, "curve 'p' = 2.0 is not an integer"),
        (2, 4.0, "curve 'm' = 4.0 is not an integer"),
        (True, 4, "curve 'p' = True is not an integer"),
    ]:
        path.write_text(json.dumps({"p": p, "m": m, "degree": 1, "terms": [term]}))
        with pytest.raises(ValueError, match=message):
            load_curve(path)


@pytest.mark.parametrize(
    "record",
    [
        {},
        {"q": 3},
        {"b": [1, {"y": 2, "x": None}], "a": "\u00e9\n", "c": 1.5, "d": True},
        {"z": Encoded("[1, 2]")},
        {"z": Encoded("[1, 2]"), "a": Encoded('{"k": "v"}')},
        {"m": Encoded("[]"), "a": 1, "b": 2, "x": Encoded("3"), "y": [4], "zz": Encoded("null")},
    ],
)
def test_json_line_is_json_dumps_of_the_decoded_record(record):
    plain = {k: json.loads(v) if isinstance(v, Encoded) else v for k, v in record.items()}
    assert json_line(record) == json.dumps(plain, sort_keys=True)
    assert json_lines([record, plain]) == 2 * (json.dumps(plain, sort_keys=True) + "\n")


def test_json_lines_at_varies_one_value():
    # the fixed text around the value holds for every value, quoted or not
    values = ["[0:1:[1,2]]", 'a "b" \\ \x00', Encoded("[1, 2]"), 7, None]
    rec = {"q": 64, "model": "H1"}
    want = "".join(
        json.dumps({**rec, "point": json.loads(v) if isinstance(v, Encoded) else v}, sort_keys=True)
        + "\n"
        for v in values
    )
    assert json_lines_at(rec, "point")(values) == want
    assert json_lines_at(rec, "a")([]) == ""
