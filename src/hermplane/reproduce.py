"""The full verification matrix: every headline quantitative claim the
package reproduces, as a list of named checks with expected and observed
values.

Each check is a generator of (claim_id, expected, observed) triples;
`records` times them and turns them into records {claim_id, expected,
observed, pass, millis}, and `run_all` runs the checks in a fixed order.
The test suite and the command line `reproduce-paper` command both drive
this registry, so a claim is verified by exactly one piece of code.

The family records build their curves and count them against H_q the
way `hermplane verify` does, through `constructions.measure`; their
expected values are written out here, not read from the descriptors, so
each check stays independent of the construction it checks.
"""

from __future__ import annotations

import random
import time

import numpy as np

from .constructions import (
    ConstructionError,
    ambient,
    measure,
    monomial_curve,
    monomial_fast_count,
    odd_half_params,
)
from .field import (
    norm_preimages,
    norm_to_subfield,
    prime_power,
    subfield_elements,
    trace_to_subfield,
)
from .plane import (
    TernaryForm,
    absolute_irreducibility_status,
    form_values,
    hermitian_model,
    intersection_counts,
    monomials,
    partials,
    point_coords,
)
from .search import exhaustive_negative_search
from .splitting import (
    _exact_log,
    count_splitting_A,
    exists_split_pe,
    exists_split_pe_plus_one,
    genus_Fd,
    n3_closed_form,
    n4_closed_form,
    pe_transform_roots,
    prime_powers,
    rho_parametrization,
    serre_split_threshold,
    survey_split,
)
from .unipoly import UniPoly, roots_in_field


def _certified(family, q, d=None):
    """(count, status): the family's curve measured against H_q, then
    certified from its Hermitian zeros."""
    _, f, rep = measure(family, q, d)
    return rep.count, absolute_irreducibility_status(f, rep).status


# ---------------------------------------------------------------------------
# individual checks; each yields one or more (claim_id, expected, observed)
# ---------------------------------------------------------------------------

def check_hermitian_point_counts():
    """q^3 + 1, counted by evaluating h at every point of the plane, with no
    use of the fiber table the rest of the package reads the points from."""
    for q in (2, 3, 4, 5, 7, 8, 9):
        for model in ("H1", "H2"):
            h, Q = hermitian_model(q, model), q * q
            plane = point_coords(Q, np.arange(Q * Q + Q + 1))
            values = form_values(h.field, tuple(h.terms.values()), tuple(h.terms), *plane)
            yield f"hermitian-points-{model}-q{q}", q**3 + 1, int(np.count_nonzero(values == 0))


def check_n3_closed_form():
    bad = [q for q in prime_powers(2, 64) if count_splitting_A(q, 3).count != n3_closed_form(q)]
    yield "cubic-split-count-closed-form-q<=64", [], bad


def check_n4_closed_form():
    bad = [q for q in prime_powers(2, 64) if count_splitting_A(q, 4).count != n4_closed_form(q)]
    yield "quartic-split-count-closed-form-q<=64", [], bad
    for q, want in ((16, 1), (23, 1), (8, 0), (25, 0)):
        yield f"quartic-split-count-q{q}", want, n4_closed_form(q)


_EXISTENCE_GRID = {
    2: [2, 4, 8, 16, 32],
    3: [2, 4, 8, 16, 32, 64, 3, 9, 27, 81],
    4: [4, 16, 64, 3, 9, 27, 81],
    5: [5, 25, 4, 16, 64],
    9: [3, 9, 27, 81],
}


def _exists_by_criterion(q, d):
    if _exact_log(d, prime_power(q)[0]) is not None:
        return exists_split_pe(q, d)
    return exists_split_pe_plus_one(q, d)


def check_existence_criteria():
    for d, qs in _EXISTENCE_GRID.items():
        bad = []
        for q in qs:
            want = count_splitting_A(q, d).count > 0
            got = _exists_by_criterion(q, d)
            if want != got:
                bad.append((q, want, got))
        yield f"split-existence-criterion-d{d}", [], bad


def check_negative_searches():
    for (q, d), total in (((2, 2), 1365), ((3, 2), 66430), ((2, 3), 349525)):
        rep = exhaustive_negative_search(q, d)
        # only achievers proved reducible are ruled out; one the factor
        # certificate leaves open breaks the negative like an irreducible one
        open_achievers = len(rep.achievers) - len(rep.reducible_achievers)
        obs = (rep.total_forms_scanned, open_achievers, rep.complete)
        yield f"negative-search-q{q}-d{d}", (total, 0, True), obs


def check_sporadic_cubics():
    for q in (3, 4, 5, 7):
        want = (3 * (q + 1), "absolutely-irreducible")
        yield f"sporadic-cubic-q{q}", want, _certified("sporadic-cubic", q)


def check_sporadic_quartics():
    for q in (5, 9, 11, 13, 17, 19, 25):
        yield f"sporadic-quartic-q{q}", 4 * (q + 1), measure("sporadic-quartic", q)[2].count


def check_secant_fan():
    for q in (3, 4, 5):
        bad = [
            d
            for d in range(q + 1, q * q - q + 1)
            if measure("secant-fan", q, d)[2].count != d * (q + 1)
        ]
        yield f"secant-fan-counts-q{q}", [], bad
    for q, d in ((3, 4), (3, 5), (4, 5)):
        status = _certified("secant-fan", q, d)[1]
        yield f"secant-fan-irreducible-q{q}-d{d}", "absolutely-irreducible", status


def check_full_point_curve():
    for q in (3, 4, 5):
        yield f"full-point-curve-q{q}", q**3 + 1, measure("full-point", q)[2].count
    # at q = 2 the degree is q^2 - q + 1 = 3, and no irreducible cubic
    # meets H_2 in 9 points (negative-search-q2-d3)
    yield "full-point-curve-q2", (9, "reducible"), _certified("full-point", 2)


def check_degree_q_curve():
    for q in (3, 4, 5, 7):
        yield f"degree-q-curve-q{q}", q * (q + 1), measure("degree-q", q)[2].count


def check_even_half():
    for q in (4, 8, 16):
        yield f"even-half-curve-q{q}", (q // 2) * (q + 1), measure("even-half", q)[2].count


def check_odd_half():
    for q in (17, 19, 23, 25, 27, 29):
        try:
            want, count = ((q + 1) // 2) * (q + 1), measure("odd-half", q)[2].count
        except ConstructionError:
            want, count = "params", None
        yield f"odd-half-curve-q{q}", want, count
    # small odd q: outcome recorded, not asserted
    for q in (3, 5, 7, 9, 11, 13):
        obs = "no-params" if odd_half_params(q) is None else "params"
        yield f"odd-half-params-q{q}-report", obs, obs


def check_quintic_survey():
    rows = survey_split(5, 131, gcd_filter=20)
    yield (
        "quintic-survey-positives-below-131",
        [67, 79, 83, 101, 103, 107, 109, 113, 121, 127],
        [q for q, n in rows if n > 0],
    )
    yield "quintic-survey-n5-131", 0, count_splitting_A(131, 5).count
    rows = survey_split(5, 500, gcd_filter=20)
    yield "quintic-survey-no-zeros-131-500", [], [q for q, n in rows if q > 131 and n == 0]


SEXTIC_ZEROS_PAST_1877 = [2083, 2179, 2197]


def check_sextic_survey():
    """N_6(1877) = 0 and the zeros of N_6 in (1877, 2500], gcd(q, 30) = 1.

    The zero set is asserted twice: by the splitting engine's sweep and
    by the independent fiber count of `crosscheck`.
    """
    # only this check runs the crosscheck, so the CLI does not import it
    from .crosscheck import fiber_survey

    yield "sextic-survey-n6-1877", 0, count_splitting_A(1877, 6).count
    rows = survey_split(6, 2500, gcd_filter=30)
    zeros_above = [q for q, n in rows if q > 1877 and n == 0]
    yield "sextic-survey-zeros-1877-2500", SEXTIC_ZEROS_PAST_1877, zeros_above
    fibers = dict(fiber_survey(6, 1877, 2500, gcd_filter=30))
    fiber_zeros = [q for q, n in fibers.items() if q > 1877 and n == 0]
    yield (
        "sextic-fiber-count-1877-2500",
        (0, SEXTIC_ZEROS_PAST_1877),
        (fibers[1877], fiber_zeros),
    )


def check_genus_and_thresholds():
    for d, g in ((3, 0), (4, 0), (5, 4), (6, 49)):
        yield f"splitting-field-genus-d{d}", g, genus_Fd(d)
    for d, thr in ((5, 233), (6, 10766)):
        yield f"split-threshold-d{d}", thr, serre_split_threshold(d)


def check_euler_identity():
    """X f_X + Y f_Y + Z f_Z = d f for 1000 seeded random forms."""
    rng = random.Random(20260826)
    variables = {
        q: [TernaryForm(ambient(q), 1, {m: 1}) for m in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
        for q in (2, 3, 4, 5)
    }
    bad = 0
    for _ in range(1000):
        q = rng.choice((2, 3, 4, 5))
        spec = ambient(q)
        d = rng.randint(1, 4)
        terms = {}
        for m in monomials(d):
            if rng.random() < 0.5:
                terms[m] = rng.randrange(1, spec.order)
        if not terms:
            terms = {(d, 0, 0): 1}
        f = TernaryForm(spec, d, terms)
        x, y, z = variables[q]
        fx, fy, fz = partials(f)
        lhs = x * fx + y * fy + z * fz
        rhs = f.scale(d % spec.p)
        if not lhs.same_terms(rhs):
            bad += 1
    yield "euler-identity-1000-random-forms", 0, bad


def check_monomial_fast_path():
    """Fast count equals full enumeration for every alpha, q <= 8, d <= 6.

    The curves of one (q, d) are counted against H2 as one batch."""
    for q in (2, 3, 4, 5, 7, 8):
        spec = ambient(q)
        h = hermitian_model(q, "H2")
        bad = []
        for d in range(2, 7):
            alphas = range(1, spec.order)
            forms = [monomial_curve(q, d, alpha) for alpha in alphas]
            monos = sorted(set().union(*(f.terms for f in forms)))
            batch = [[f.terms.get(m, 0) for m in monos] for f in forms]
            fulls = intersection_counts(h, monos, batch).tolist()
            for alpha, full in zip(alphas, fulls):
                fast = monomial_fast_count(q, d, alpha)
                if fast != full:
                    bad.append((d, alpha, fast, full))
        yield f"monomial-fast-path-q{q}", [], bad


def check_rho_parametrization():
    """Root identities for every non-degenerate rho, q <= 16, d <= 6."""
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16):
        spec = ambient(q)
        p = spec.p
        bad = []
        for d in range(2, 7):
            for r in range(spec.order):
                parts = rho_parametrization(q, d, r)
                if parts is None:
                    continue
                a, t1, t2 = parts
                f = UniPoly(spec, [1, 1] + [0] * (d - 2) + [a])
                for t in (t1, t2):
                    if f.evaluate(t) != 0:
                        bad.append((d, r))
                # d a power of the characteristic: full root set via B
                if _exact_log(d, p) is not None:
                    bt = pe_transform_roots(q, d, r)
                    if bt is not None:
                        _, roots = bt
                        if any(f.evaluate(x) != 0 for x in roots):
                            bad.append(("pe-roots", d, r))
                        if len(set(roots)) != d:
                            bad.append(("pe-distinct", d, r))
                # d = p^e + 1: the ratio of a third root satisfies
                # ((sigma-1)/(sigma-rho))^{d-2} = rho
                if _exact_log(d - 1, p) is not None:
                    others = [x for x in roots_in_field(f, spec.order) if x not in (t1, t2)]
                    for t3 in others:
                        sig = spec.mul(t3, spec.inv(t1))
                        den = spec.sub(sig, r)
                        if den == 0:
                            continue
                        lhs = spec.pow(
                            spec.mul(spec.sub(sig, 1), spec.inv(den)), d - 2
                        )
                        if lhs != r:
                            bad.append(("ratio", d, r, t3))
        yield f"rho-parametrization-q{q}", [], bad


def check_norm_trace():
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16):
        spec = ambient(q)
        sub = subfield_elements(spec, q)
        bad = []
        for v in range(spec.order):
            if norm_to_subfield(spec, v) not in sub or trace_to_subfield(spec, v) not in sub:
                bad.append(v)
            # Frobenius is additive: (v + 1)^p = v^p + 1
            if spec.pow(spec.add(v, 1), spec.p) != spec.add(spec.pow(v, spec.p), 1):
                bad.append(("frob", v))
        for s in sub:
            if s and len(norm_preimages(spec, s)) != q + 1:
                bad.append(("preimages", s))
        yield f"norm-trace-q{q}", [], bad


CHECKS = [
    ("hermitian-point-counts", check_hermitian_point_counts),
    ("cubic-split-closed-form", check_n3_closed_form),
    ("quartic-split-closed-form", check_n4_closed_form),
    ("split-existence-criteria", check_existence_criteria),
    ("negative-searches", check_negative_searches),
    ("sporadic-cubics", check_sporadic_cubics),
    ("sporadic-quartics", check_sporadic_quartics),
    ("secant-fan", check_secant_fan),
    ("full-point-curve", check_full_point_curve),
    ("degree-q-curve", check_degree_q_curve),
    ("even-half", check_even_half),
    ("odd-half", check_odd_half),
    ("quintic-survey", check_quintic_survey),
    ("sextic-survey", check_sextic_survey),
    ("genus-thresholds", check_genus_and_thresholds),
    ("euler-identity", check_euler_identity),
    ("monomial-fast-path", check_monomial_fast_path),
    ("rho-parametrization", check_rho_parametrization),
    ("norm-trace", check_norm_trace),
]


def records(check):
    """The records {claim_id, expected, observed, pass, millis} of the
    (claim_id, expected, observed) triples that `check()` yields.

    A claim's millis run from the start of the check, or from the yield of
    its previous claim, to its own yield: the time the consumer spends
    between two records is not counted, and a check's millis sum to its
    run time.
    """
    t0 = time.monotonic()
    for claim_id, expected, observed in check():
        yield {
            "claim_id": claim_id,
            "expected": expected,
            "observed": observed,
            "pass": expected == observed,
            "millis": round((time.monotonic() - t0) * 1000, 1),
        }
        t0 = time.monotonic()


def run_all(only: str | None = None):
    """The records of every check (or of those whose group name contains
    `only`); a ValueError when `only` matches no group."""
    checks = [fn for name, fn in CHECKS if not only or only in name]
    if not checks:
        raise ValueError(f"no check group name contains {only!r}")
    return [r for fn in checks for r in records(fn)]
