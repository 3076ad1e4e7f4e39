"""Text and JSON encodings for field elements and plane curves.

Field elements print as coefficient vectors "[c0,c1,...]" against the
canonical modulus, and "0" is the zero element; they are read from that
form, from generator powers "w^k" and from integer encodings.  Points,
held as enumeration indices everywhere else, print as "[x:y:z]" scaled so
that the first nonzero coordinate is 1.  Curves serialize to JSON with
their field, degree, model tag and sparse term list.
"""

from __future__ import annotations

import json

import numpy as np

from .field import FieldElem, FieldSpec, make_field
from .plane import TernaryForm, point_coords


def format_element(x: FieldElem) -> str:
    if x.val == 0:
        return "0"
    return "[" + ",".join(str(c) for c in x.coeffs()) + "]"


def format_points(spec: FieldSpec, idx) -> list[str]:
    """The points of enumeration indices idx as "[x:y:z]", each scaled by
    the inverse of its first nonzero coordinate."""
    X, Y, Z = point_coords(spec.order, idx)
    inv = spec.pow_v(np.where(X != 0, X, np.where(Y != 0, Y, Z)), -1)
    coords = zip(*(spec.mul_v(v, inv).tolist() for v in (X, Y, Z)))
    return ["[" + ":".join(format_element(FieldElem(spec, v)) for v in xyz) + "]" for xyz in coords]


def parse_element(spec: FieldSpec, text) -> FieldElem:
    """Accepts "[c0,c1,...]", "w^k", "w", a plain integer encoding, or a
    list of coefficients.

    Integer encodings must lie in [0, order) and coefficients in [0, p);
    anything else is a ValueError rather than a silent reduction.
    """
    if isinstance(text, FieldElem):
        return spec.elem(text)
    if isinstance(text, str):
        raw = text.strip()
        if raw == "w":
            return spec.gen()
        if raw.startswith("[") and not raw.endswith("]"):
            raise ValueError(f"unbalanced coefficient vector {raw!r}")
        try:
            if raw.startswith("w^"):
                return FieldElem(spec, spec.pow(spec.gen().val, int(raw[2:])))
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
            if not 0 <= c < spec.p:
                raise ValueError(
                    f"coefficient {c} is outside [0, {spec.p}) for F_{spec.order}"
                )
    elif isinstance(text, int) and not 0 <= text < spec.order:
        raise ValueError(
            f"element encoding {text} is outside [0, {spec.order}) for F_{spec.order}"
        )
    return spec.elem(text)


def curve_to_dict(form: TernaryForm, model: str | None = None) -> dict:
    spec = form.field
    d = {
        "p": spec.p,
        "m": spec.m,
        "degree": form.degree,
        "terms": [
            {"i": i, "j": j, "k": k, "coeff": format_element(FieldElem(spec, c))}
            for (i, j, k), c in sorted(form.terms.items())
        ],
    }
    if model is not None:
        d["model"] = model
    return d


def _require(obj, keys, what):
    """The values of `keys` in the JSON object `obj`, or a ValueError."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} is not a JSON object")
    for key in keys:
        if key not in obj:
            raise ValueError(f"{what} has no {key!r} key")
    return [obj[key] for key in keys]


def curve_from_dict(data: dict) -> TernaryForm:
    p, m, degree, raw_terms = _require(data, ("p", "m", "degree", "terms"), "curve")
    for key, v in (("p", p), ("m", m)):
        if type(v) is not int:
            raise ValueError(f"curve {key!r} = {v!r} is not an integer")
    spec = make_field(p, m)
    terms = {}
    for t in raw_terms:
        i, j, k, coeff = _require(t, ("i", "j", "k", "coeff"), "curve term")
        terms[(i, j, k)] = parse_element(spec, coeff).val
    return TernaryForm(spec, degree, terms)


def save_curve(path, form: TernaryForm, model: str | None = None):
    with open(path, "w") as fh:
        json.dump(curve_to_dict(form, model), fh, indent=2)
        fh.write("\n")


def load_curve(path) -> TernaryForm:
    with open(path) as fh:
        return curve_from_dict(json.load(fh))
