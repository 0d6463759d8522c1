"""Tests for string attractors: the checker, exact minima, the candidate
construction with its validity windows, and the profile machinery."""

from itertools import combinations, product

import pytest
from hypothesis import example, given, settings, strategies as st

from parrywords import (
    Attractor,
    DomainError,
    InconclusiveError,
    ScopeError,
    attractor_for_prefix,
    block,
    block_length,
    candidate_attractor,
    check_conditions,
    conjecture_report,
    divergence_table,
    expected_profile_size,
    is_attractor,
    is_greedy,
    iter_params,
    param_word,
    power_prefix_len,
    power_prefix_len_direct,
    prefix,
    profile,
    smallest_attractor,
    window_start,
    windows_cover_all,
)
from parrywords.attractors import _suffix_array

import oracles
from limits import time_limit

C102 = param_word((1, 0, 2))
C12 = param_word((1, 2))
C11 = param_word((1, 1))
C23 = param_word((2, 3))
C211 = param_word((2, 1, 1))

family = list(iter_params((2, 3), 2))
family_params = st.sampled_from(family)
passing = [c for c in family if check_conditions(c).holds]

small_words = st.lists(st.integers(min_value=0, max_value=2),
                       min_size=1, max_size=14).map(tuple)


# ---------------------------------------------------------------------------
# the checker
# ---------------------------------------------------------------------------

def test_attractor_type_validates():
    a = Attractor((8, 2, 4, 4), 8)
    assert a.positions == (2, 4, 8)
    assert a.size == 3
    assert a.zero_based() == (1, 3, 7)
    with pytest.raises(DomainError):
        Attractor((0, 2), 8)
    with pytest.raises(DomainError):
        Attractor((9,), 8)


def test_is_attractor_rejects_word_length_mismatch():
    a = Attractor((1,), 3)
    with pytest.raises(DomainError):
        is_attractor((0, 1), a)
    with pytest.raises(DomainError):
        is_attractor((0, 1), (5,))


def test_is_attractor_known_cases():
    w = (0, 1, 2, 0, 0, 1)
    assert is_attractor(w, (2, 3, 4))
    assert is_attractor(w, (2, 3, 5))
    assert not is_attractor(w, (2, 3))
    assert not is_attractor(w, (1, 2, 3))  # misses the factor 00
    assert is_attractor((0,), (1,))
    assert is_attractor((), ())


def test_is_attractor_exhaustive_tiny():
    # every subset of every ternary word up to length 6
    for n in range(1, 7):
        for w in product(range(3), repeat=n):
            for size in range(1, n + 1):
                for combo in combinations(range(1, n + 1), size):
                    assert is_attractor(w, combo) == \
                        oracles.ref_is_attractor(w, combo)


def bounded_suffix_array(w):
    with time_limit(2.0):
        return _suffix_array(w)


def test_suffix_array_small_words_over_six_letters():
    # letters up to 5 exceed the length of most of these words: a packed
    # key built from raw letters collides here (e.g. (1, 2) and (0, 3, 1))
    for n in range(6):
        for w in product(range(6), repeat=n):
            assert bounded_suffix_array(w) == oracles.ref_suffix_array(w), w


@settings(deadline=None)
@given(st.integers(min_value=1, max_value=64).flatmap(
    lambda sigma: st.lists(st.integers(min_value=0, max_value=sigma - 1),
                           max_size=300)).map(tuple))
@example((1, 2))
@example((0, 3, 1))
@example((63, 0))
@example((0,) * 300)
@example((63,) * 257)
@example(tuple(prefix(C11, 300)))
def test_suffix_array_matches_reference(w):
    assert bounded_suffix_array(w) == oracles.ref_suffix_array(w)


@given(small_words, st.data())
def test_is_attractor_matches_reference(w, data):
    pos = data.draw(st.sets(st.integers(min_value=1, max_value=len(w)),
                            min_size=1, max_size=len(w)))
    assert is_attractor(w, pos) == oracles.ref_is_attractor(w, sorted(pos))


# ---------------------------------------------------------------------------
# exact minima
# ---------------------------------------------------------------------------

def test_smallest_attractor_golden():
    got = smallest_attractor(prefix(C12, 8))
    assert got.positions == (3, 6)
    assert got.size == 2
    assert smallest_attractor((0, 1, 2, 0, 0, 1)).positions == (2, 3, 4)
    assert smallest_attractor((0,)).positions == (1,)
    assert smallest_attractor((0, 0, 0)).positions == (1,)


def test_smallest_attractor_guards():
    with pytest.raises(DomainError):
        smallest_attractor(())
    with pytest.raises(Exception):
        smallest_attractor((0, 1) * 150)  # over the exactness cap


@settings(deadline=None, max_examples=60)
@given(st.lists(st.integers(min_value=0, max_value=2), min_size=1,
                max_size=9).map(tuple))
def test_smallest_attractor_is_lexicographically_least_minimum(w):
    size, witnesses = oracles.ref_min_attractors(w)
    got = smallest_attractor(w)
    assert got.size == size
    assert got.positions == min(witnesses)


@given(small_words)
def test_smallest_attractor_lower_bound(w):
    assert smallest_attractor(w).size >= len(set(w))


# ---------------------------------------------------------------------------
# candidates, windows, fractional powers
# ---------------------------------------------------------------------------

def test_candidate_attractor_shape():
    assert candidate_attractor(C102, 0) == (1,)
    assert candidate_attractor(C102, 2) == (1, 2, 3)
    assert candidate_attractor(C102, 4) == (3, 5, 9)
    assert candidate_attractor(C12, 3) == (4, 8)
    assert candidate_attractor(C12, -1) == ()
    with pytest.raises(DomainError):
        candidate_attractor(C12, -2)


def test_window_bounds_golden():
    assert [window_start(C102, n) for n in range(5)] == [1, 2, 3, 5, 9]
    assert [power_prefix_len(C102, n) for n in range(5)] == [1, 2, 4, 7, 13]
    assert [window_start(C12, n) for n in range(5)] == [1, 2, 4, 9, 19]
    assert [power_prefix_len(C12, n) for n in range(5)] == [1, 3, 7, 15, 31]
    assert window_start(C23, 2) == 10


@given(family_params, st.integers(min_value=0, max_value=7))
def test_power_prefix_len_formula_equals_direct(c, n):
    assert power_prefix_len(c, n) == power_prefix_len_direct(c, n)


@given(family_params, st.integers(min_value=0, max_value=5))
def test_power_prefix_len_matches_reference(c, n):
    assert power_prefix_len(c, n) == oracles.ref_power_prefix_len(c.digits, n)


def test_power_prefix_len_direct_cap():
    with pytest.raises(InconclusiveError):
        power_prefix_len_direct(C12, 3, cap=5)


@given(family_params, st.integers(min_value=0, max_value=8))
def test_window_interval_sanity(c, n):
    # U_n <= P_n <= U_{n+1} - 1, and with the conditions the windows chain
    # up to the fractional-power horizon
    p = window_start(c, n)
    assert block_length(c, n) <= p <= block_length(c, n + 1) - 1
    if check_conditions(c).holds:
        assert block_length(c, n + 1) - 1 <= power_prefix_len(c, n)


@given(small_words, st.integers(min_value=1, max_value=3),
       st.integers(min_value=0, max_value=20), st.data())
def test_fractional_power_attractor_law(z, reps_x, extra, data):
    # a string attractor of a fractional power x of z extends to any longer
    # fractional power y by adjoining position |z|
    lz = len(z)
    x = (z * reps_x)[: lz + data.draw(st.integers(0, reps_x * lz - lz))]
    if len(x) < lz:
        x = tuple(z)
    y_len = len(x) + extra
    y = (z * (y_len // lz + 2))[:y_len]
    gamma = smallest_attractor(x).positions
    assert is_attractor(y, sorted(set(gamma) | {lz}))


# ---------------------------------------------------------------------------
# equivalent conditions and scope
# ---------------------------------------------------------------------------

def test_check_conditions_golden():
    r102 = check_conditions(C102)
    assert not r102.holds
    assert (r102.frac_power_ok, r102.ceiling_ok, r102.max_conjugate,
            r102.greedy) == (False, False, False, False)
    assert check_conditions(C12).holds
    assert check_conditions(C211).holds


@given(family_params)
def test_four_conditions_agree(c):
    r = check_conditions(c)
    assert len({r.frac_power_ok, r.ceiling_ok, r.max_conjugate, r.greedy}) == 1
    assert r.greedy == is_greedy(c)


# ---------------------------------------------------------------------------
# attractors of prefixes
# ---------------------------------------------------------------------------

def test_attractor_for_prefix_golden():
    assert attractor_for_prefix(C12, 8).positions == (2, 4, 8)
    # none of the plain candidates handle m = 8 for c = 12
    w8 = prefix(C12, 8)
    for n in range(4):
        assert not is_attractor(w8, candidate_attractor(C12, n))
    # inside a window the candidate itself comes back
    assert attractor_for_prefix(C12, 9).positions == (4, 8)
    assert attractor_for_prefix(C11, 1).positions == (1,)
    # c = 23 at m = 9 sits in a gap: claim-1 set, not the window candidate
    assert attractor_for_prefix(C23, 9).positions == (1, 3, 9)


def test_attractor_for_prefix_guards():
    with pytest.raises(ScopeError):
        attractor_for_prefix(C102, 5)
    with pytest.raises(DomainError):
        attractor_for_prefix(C12, 0)


@pytest.mark.parametrize("c", passing, ids=str)
def test_attractor_for_prefix_sound_small(c):
    for m in range(1, 61):
        att = attractor_for_prefix(c, m)
        assert is_attractor(prefix(c, m), att)
        assert att.size <= c.k + 1
        n = next(i for i in range(m + 2)
                 if window_start(c, i) <= m <= power_prefix_len(c, i))\
            if any(window_start(c, i) <= m <= power_prefix_len(c, i)
                   for i in range(m + 2)) else None
        if n is not None:
            assert att.size <= c.k


def test_gamma_2_happens_to_work_for_c23_despite_window():
    # the window start bound is not tight here: the candidate works at m = 9
    # even though its guaranteed window only opens at 10
    assert is_attractor(prefix(C23, 9), candidate_attractor(C23, 2))
    assert window_start(C23, 2) == 10


@pytest.mark.parametrize("c", passing, ids=str)
def test_candidate_fails_past_horizon(c):
    # tightness: the candidate stops attracting one letter past the horizon
    for n in range(8):
        q = power_prefix_len(c, n)
        if q + 1 > 120:
            break
        gamma = candidate_attractor(c, n)
        assert is_attractor(prefix(c, q), gamma)
        assert not is_attractor(prefix(c, q + 1), gamma)


def test_converse_no_block_length_subset_works_for_c102():
    # with the conditions failing, some prefix escapes every subset of the
    # block-length positions
    from itertools import combinations
    m = 8
    w = prefix(C102, m)
    positions = [u for u in (1, 2, 3, 5) if u <= m]
    for size in range(len(positions) + 1):
        for combo in combinations(positions, size):
            assert not is_attractor(w, combo)


# ---------------------------------------------------------------------------
# divergence table
# ---------------------------------------------------------------------------

def test_divergence_table_golden_c210221():
    rows = divergence_table(param_word((2, 1, 0, 2, 2, 1)), 6)
    assert [r.exponent for r in rows] == [2, 1, 0, 2, 1, 0, 2]
    assert [r.letters for r in rows] == [
        (0, 1), (0, 2), (0, 3), (1, 4), (0, 2), (0, 3), (1, 4),
    ]


@given(family_params, st.integers(min_value=0, max_value=6))
def test_divergence_letters_match_definition(c, n):
    # the two letters after the divergence point, one in the fixed point and
    # one in the block tiling, recomputed from scratch
    row = divergence_table(c, n + 1)[n]
    q = power_prefix_len(c, n)
    u_letter = prefix(c, q + 1)[q]
    b = block(c, n)
    tile_letter = b[q % len(b)]
    assert set(row.letters) == {u_letter, tile_letter}
    assert u_letter != tile_letter


# ---------------------------------------------------------------------------
# profiles and the conjecture
# ---------------------------------------------------------------------------

def test_profile_golden_c12():
    pr = profile(C12, 30)
    assert pr.truncated_at is None
    assert pr.sizes == (1,) + (2,) * 29
    assert pr.entries[7].witness.positions == (3, 6)


def test_profile_truncates_at_cap():
    pr = profile(C12, 500, cap=10)
    assert pr.truncated_at == 10
    assert len(pr.entries) == 10


def test_expected_profile_size_piecewise():
    # 1 until the first block boundary, then the alphabet size from U_{k-1} on
    assert [expected_profile_size(C12, m) for m in (1, 2, 3, 60)] == [1, 2, 2, 2]
    # U(211) = 1, 3, 8, ...: the plateau at k opens at U_2 = 8
    assert [expected_profile_size(C211, m) for m in (1, 2, 3, 4, 8, 9, 60)] \
        == [1, 1, 2, 2, 3, 3, 3]


@pytest.mark.parametrize("c", [C12, C11, C211], ids=str)
def test_conjecture_agrees_small(c):
    report = conjecture_report(c, 40)
    assert report.all_agree
    assert not report.disagreements()
    for row in report.rows:
        assert row.expected == row.actual == expected_profile_size(c, row.prefix_len)


def test_conjecture_report_guards():
    with pytest.raises(ScopeError):
        conjecture_report(C102, 10)


@pytest.mark.parametrize("c", passing, ids=str)
def test_profile_equals_candidate_size_inside_windows(c):
    # where a window covers m, the exact minimum equals the candidate's size
    pr = profile(c, 40)
    for entry in pr.entries:
        m = entry.prefix_len
        for n in range(10):
            if window_start(c, n) <= m <= power_prefix_len(c, n):
                assert entry.size == len(candidate_attractor(c, n))
                break


def test_windows_cover_all_golden():
    assert windows_cover_all(C211)
    assert windows_cover_all(C11)
    assert windows_cover_all(param_word((1, 1, 1)))
    assert not windows_cover_all(C12)
    assert not windows_cover_all(param_word((1, 0, 1, 1)))
    with pytest.raises(ScopeError):
        windows_cover_all(C102)
