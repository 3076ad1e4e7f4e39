import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from sympy import factorint

from hermplane.crosscheck import fiber_survey
from hermplane.field import FieldSpec, field_of_order, make_field
from hermplane.splitting import (
    _splitting_witnesses,
    count_splitting_A,
    exists_split_pe,
    exists_split_pe_plus_one,
    genus_Fd,
    n3_closed_form,
    n4_closed_form,
    pe_transform_roots,
    prime_powers,
    ramification_allowance,
    rho_parametrization,
    serre_split_threshold,
    survey_split,
)
from hermplane.unipoly import UniPoly, roots_in_field


def _brute_witnesses(q, d):
    """The A in F_q^*, ascending, for which A t^d + t + 1 has d distinct
    roots in F_q, found by an evaluation scan."""
    K = field_of_order(q)
    return [
        a
        for a in range(1, q)
        if len(roots_in_field(UniPoly(K, [1, 1] + [0] * (d - 2) + [a]), q)) == d
    ]


def test_count_matches_brute_force():
    for q in (5, 7, 8, 9, 11, 13, 16):
        for d in (3, 4, 5):
            rep = count_splitting_A(q, d)
            assert rep.witnesses == _brute_witnesses(q, d), (q, d)
            assert rep.count == len(rep.witnesses)


@given(st.sampled_from(prime_powers(2, 32)), st.integers(2, 7))
@settings(max_examples=40, deadline=None)
def test_count_matches_brute_force_at_random(q, d):
    assert count_splitting_A(q, d).witnesses == _brute_witnesses(q, d)


def test_count_matches_independent_fiber_count():
    # the fiber count shares no arithmetic with FieldSpec or UniPoly
    for d in (3, 4, 5, 6):
        rows = fiber_survey(d, 2, 128)
        assert [q for q, _ in rows] == prime_powers(2, 128)
        for q, n in rows:
            assert count_splitting_A(q, d).count == n, (q, d)


def test_witnesses_really_split():
    rep = count_splitting_A(13, 3)
    assert rep.count == len(rep.witnesses) == 1
    K = field_of_order(13)
    for a in rep.witnesses:
        f = UniPoly(K, [1, 1, 0, a])
        assert len(roots_in_field(f, 13)) == 3


def test_n3_closed_form():
    for q in prime_powers(2, 128):
        assert n3_closed_form(q) == (q - 2) // 6
        assert count_splitting_A(q, 3).count == n3_closed_form(q)


def test_n4_closed_form_spot_values():
    assert n4_closed_form(16) == 1
    assert n4_closed_form(23) == 1
    assert n4_closed_form(8) == 0
    assert n4_closed_form(25) == 0


def test_n4_closed_form_matches_brute_force():
    for q in prime_powers(2, 100):
        assert count_splitting_A(q, 4).count == n4_closed_form(q)


def test_existence_criterion_char_power():
    # d = p^e splits for some A iff F_{p^e} is a proper subfield of F_q
    assert not exists_split_pe(2, 2)
    assert exists_split_pe(4, 2)
    assert exists_split_pe(16, 4)
    assert not exists_split_pe(8, 4)
    assert exists_split_pe(27, 3)
    for q, d in ((4, 2), (8, 2), (9, 3), (27, 3), (16, 2), (16, 4)):
        assert exists_split_pe(q, d) == (count_splitting_A(q, d).count > 0)


def test_existence_criterion_char_power_plus_one():
    # d = p^e + 1 splits for some A iff [F_q : F_{p^e}] > 2
    assert not exists_split_pe_plus_one(4, 3)
    assert exists_split_pe_plus_one(8, 3)
    assert not exists_split_pe_plus_one(16, 5)
    assert exists_split_pe_plus_one(64, 5)
    for q, d in ((4, 3), (8, 3), (16, 3), (9, 4), (27, 4), (16, 5), (64, 3)):
        assert exists_split_pe_plus_one(q, d) == (
            count_splitting_A(q, d).count > 0
        )


def test_existence_criteria_reject_mismatched_d():
    with pytest.raises(ValueError):
        exists_split_pe(9, 2)
    with pytest.raises(ValueError):
        exists_split_pe_plus_one(8, 4)


def test_rho_parametrization_produces_roots():
    for q in (5, 7, 8):
        spec = field_of_order(q * q)
        for d in (3, 4):
            for r in range(spec.order):
                parts = rho_parametrization(q, d, r)
                if parts is None:
                    continue
                a, t1, t2 = parts
                assert t1.val != t2.val
                f = UniPoly(spec, [1, 1] + [0] * (d - 2) + [a.val])
                assert f.evaluate(t1) == 0
                assert f.evaluate(t2) == 0


def test_rho_degenerate_values_return_none():
    spec = field_of_order(25)
    assert rho_parametrization(5, 3, 0) is None
    assert rho_parametrization(5, 3, 1) is None


def test_pe_transform_full_root_set():
    # d = 2 in characteristic 2: both roots recovered through B
    q, d = 8, 2
    spec = field_of_order(q * q)
    for r in range(2, spec.order):
        parts = pe_transform_roots(q, d, r)
        if parts is None:
            continue
        b, roots = parts
        a, t1, _ = rho_parametrization(q, d, r)
        assert len(roots) == d
        f = UniPoly(spec, [1, 1] + [0] * (d - 2) + [a.val])
        for x in roots:
            assert f.evaluate(x) == 0


def test_genus_values():
    assert [genus_Fd(d) for d in (3, 4, 5, 6)] == [0, 0, 4, 49]


def test_genus_rejects_small_degree():
    with pytest.raises(ValueError):
        genus_Fd(2)


def test_ramification_allowance():
    assert ramification_allowance(5) == 114
    assert ramification_allowance(6) == 624


def test_serre_split_thresholds():
    assert serre_split_threshold(3) == 7
    assert serre_split_threshold(4) == 25
    assert serre_split_threshold(5) == 233
    assert serre_split_threshold(6) == 10766
    # a scan of every q below 8 (C_7 + g_7 + 2)^2 finds the same value
    assert serre_split_threshold(7) == 933371


def test_prime_powers():
    assert prime_powers(2, 10) == [2, 3, 4, 5, 7, 8, 9]
    assert prime_powers(120, 130) == [121, 125, 127, 128]


def test_prime_powers_match_factorint():
    expected = [n for n in range(2, 1 << 16) if len(factorint(n)) == 1]
    assert prime_powers(-5, (1 << 16) - 1) == expected
    assert prime_powers(1000, 2000) == [n for n in expected if 1000 <= n <= 2000]
    assert prime_powers(2, 1) == prime_powers(-3, -1) == []
    top = range((1 << 24) - 16, (1 << 24) + 1)
    assert prime_powers(top[0], top[-1]) == [n for n in top if len(factorint(n)) == 1]
    assert prime_powers(4093**2, 4093**2) == [4093**2]
    assert prime_powers((1 << 12) * 3, (1 << 12) * 3) == []


def test_survey_rows_and_filter():
    rows = survey_split(3, 30)
    assert dict(rows)[13] == 1
    filt = survey_split(5, 30, gcd_filter=20)
    assert all(q % 2 and q % 5 for q, _ in filt)


def test_survey_builds_uncached_fields():
    for d in (3, 5):
        before = make_field.cache_info()
        rows = survey_split(d, 200)
        # no lookup at all, hit or miss: every field was built outside the cache
        assert make_field.cache_info() == before
        assert [q for q, _ in rows] == prime_powers(2, 200)
        for q, n in rows:
            assert count_splitting_A(q, d).count == n, (q, d)


def test_survey_fields_build_no_add_table():
    # every table of a survey field is O(q): no q x q add table
    spec = FieldSpec(7, 4)
    assert _splitting_witnesses(spec, 6) == count_splitting_A(2401, 6).witnesses
    tables = [t for t in vars(spec).values() if isinstance(t, np.ndarray)]
    assert tables and max(t.size for t in tables) <= 4 * spec.order + 3


def test_survey_cap():
    with pytest.raises(ValueError):
        survey_split(6, 5000)
