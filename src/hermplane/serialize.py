"""Text and JSON encodings for field elements and plane curves.

Field elements are integer encodings here as everywhere in the package.
They print as coefficient vectors "[c0,c1,...]" against the canonical
modulus, and "0" is the zero element; they are read from that form, from
generator powers "w^k" and from integer encodings.  Points, held as
enumeration indices everywhere else, print as "[x:y:z]" scaled so that
the first nonzero coordinate is 1.  Curves serialize to JSON with their
field, degree, optional model tag and sparse term list; a curve file
that is not exactly that (a non-integer exponent or degree, a boolean
coefficient, a monomial listed twice, the zero form, a model other than
H1 or H2) is a ValueError.

Every JSON line the CLI writes is rendered here (`json_line`,
`json_lines`, `json_lines_at`), the way `json.dumps(record,
sort_keys=True)` renders it: keys sorted, separators ", " and ": ".  A
value that is already JSON text is marked `Encoded` and written
verbatim, so a large value is encoded once however many records or
lists repeat it.  The key order and separators live in this module only.
"""

from __future__ import annotations

import json

import numpy as np

from .field import FieldSpec, make_field
from .plane import TernaryForm, point_coords

# the one encoder of every CLI record, json.dumps(..., sort_keys=True)'s
_ENCODER = json.JSONEncoder(sort_keys=True)


class Encoded(str):
    """Text that is already the JSON of a value: written verbatim."""

    __slots__ = ()


def json_text(value) -> str:
    """The JSON text of value; an Encoded value is its own text."""
    return value if isinstance(value, Encoded) else _ENCODER.encode(value)


def json_list(texts) -> Encoded:
    """The JSON array whose items have the JSON texts `texts`."""
    return Encoded("[" + ", ".join(texts) + "]")


def json_line(record: dict) -> str:
    """record as `json.dumps(record, sort_keys=True)` renders it, with each
    Encoded value spliced in verbatim.

    Each run of plain values between two Encoded ones, in key order, is
    encoded in one call as an object whose braces are cut off.
    """
    parts, plain = [], {}
    for key in sorted(record):
        value = record[key]
        if isinstance(value, Encoded):
            if plain:
                parts.append(_ENCODER.encode(plain)[1:-1])
                plain = {}
            parts.append(f"{_ENCODER.encode(key)}: {value}")
        else:
            plain[key] = value
    if plain:
        parts.append(_ENCODER.encode(plain)[1:-1])
    return "{" + ", ".join(parts) + "}"


def json_lines(records) -> str:
    """The json_line of each record, each ended by a newline."""
    return "".join([json_line(r) + "\n" for r in records])


def json_lines_at(record: dict, key: str):
    """A function from values to the json_lines of record with each value
    at `key` in turn.

    The record is encoded once, around a NUL that the encoder never
    writes raw, and each line is the text before it, the value's JSON and
    the text after it.
    """
    head, _, tail = json_line({**record, key: Encoded("\0")}).partition("\0")
    return lambda values: "".join([f"{head}{json_text(v)}{tail}\n" for v in values])


def format_element(spec: FieldSpec, x: int) -> str:
    if x == 0:
        return "0"
    return "[" + ",".join(str(c) for c in spec.to_coeffs(x)) + "]"


def format_points(spec: FieldSpec, idx, names=None) -> list[str]:
    """The points of enumeration indices idx as "[x:y:z]", each scaled by
    the inverse of its first nonzero coordinate.

    Each distinct coordinate is formatted once, and once over all the calls
    that share `names`, a dict from encodings to their text that this call
    fills in: the calls over the chunks of one listing pass one dict.
    """
    X, Y, Z = point_coords(spec.order, idx)
    inv = spec.pow_v(np.where(X != 0, X, np.where(Y != 0, Y, Z)), -1)
    coords = np.stack([spec.mul_v(v, inv) for v in (X, Y, Z)], axis=-1)
    values, at = np.unique(coords, return_inverse=True)
    names = {} if names is None else names
    text = [names.get(v) or names.setdefault(v, format_element(spec, v)) for v in values.tolist()]
    return ["[" + ":".join(text[i] for i in xyz) + "]" for xyz in at.reshape(-1, 3).tolist()]


def _is_int(x) -> bool:
    """An integer that is not a bool: JSON true is not the element 1."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def parse_element(spec: FieldSpec, text) -> int:
    """The encoding of "[c0,c1,...]", "w^k", "w", a plain integer encoding,
    or a list of coefficients.

    Integer encodings must lie in [0, order) and coefficients in [0, p);
    anything else is a ValueError rather than a silent reduction.
    """
    if isinstance(text, str):
        raw = text.strip()
        if raw == "w":
            return spec.generator
        if raw.startswith("[") and not raw.endswith("]"):
            raise ValueError(f"unbalanced coefficient vector {raw!r}")
        try:
            if raw.startswith("w^"):
                return spec.pow(spec.generator, int(raw[2:]))
            if raw.startswith("["):
                text = [int(c) for c in raw[1:-1].split(",") if c.strip() != ""]
            else:
                text = int(raw)
        except ValueError:
            raise ValueError(
                f"cannot read {raw!r} as a field element: expected "
                "'[c0,c1,...]', 'w', 'w^k' or an integer encoding"
            ) from None
    if isinstance(text, (list, tuple)):
        for c in text:
            if not _is_int(c):
                raise ValueError(f"coefficient {c!r} is not an integer")
            if not 0 <= c < spec.p:
                raise ValueError(
                    f"coefficient {c} is outside [0, {spec.p}) for F_{spec.order}"
                )
        return spec.from_coeffs(text)
    if not _is_int(text):
        raise ValueError(f"cannot build a field element from {text!r}")
    if not 0 <= text < spec.order:
        raise ValueError(
            f"element encoding {text} is outside [0, {spec.order}) for F_{spec.order}"
        )
    return int(text)


def curve_to_dict(form: TernaryForm, model: str | None = None) -> dict:
    spec = form.field
    d = {
        "p": spec.p,
        "m": spec.m,
        "degree": form.degree,
        "terms": [
            {"i": i, "j": j, "k": k, "coeff": format_element(spec, c)}
            for (i, j, k), c in sorted(form.terms.items())
        ],
    }
    if model is not None:
        d["model"] = model
    return d


def _require(obj, keys, what):
    """The values of `keys` in the JSON object `obj`, or a ValueError;
    every key but the last must hold an integer."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} is not a JSON object")
    for key in keys:
        if key not in obj:
            raise ValueError(f"{what} has no {key!r} key")
    for key in keys[:-1]:
        if type(obj[key]) is not int:
            raise ValueError(f"{what} {key!r} = {obj[key]!r} is not an integer")
    return [obj[key] for key in keys]


def curve_from_dict(data: dict) -> TernaryForm:
    p, m, degree, raw_terms = _require(data, ("p", "m", "degree", "terms"), "curve")
    if not isinstance(raw_terms, list):
        raise ValueError(f"curve 'terms' = {raw_terms!r} is not a list")
    spec = make_field(p, m)
    terms = {}
    for t in raw_terms:
        i, j, k, coeff = _require(t, ("i", "j", "k", "coeff"), "curve term")
        if (i, j, k) in terms:
            raise ValueError(f"curve lists the monomial {(i, j, k)} twice")
        terms[(i, j, k)] = parse_element(spec, coeff)
    form = TernaryForm(spec, degree, terms)
    if form.is_zero():
        raise ValueError("curve is the zero form, which vanishes at every point")
    if "model" in data and data["model"] not in ("H1", "H2"):
        raise ValueError(f"curve 'model' = {data['model']!r} is not 'H1' or 'H2'")
    return form


def save_curve(path, form: TernaryForm, model: str | None = None):
    with open(path, "w") as fh:
        json.dump(curve_to_dict(form, model), fh, indent=2)
        fh.write("\n")


def load_curve(path) -> tuple[TernaryForm, str | None]:
    """The curve in a file and the Hermitian model it records, or None."""
    with open(path) as fh:
        data = json.load(fh)
    return curve_from_dict(data), data.get("model")
