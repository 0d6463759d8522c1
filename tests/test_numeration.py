"""Tests for the numeration system: automaton, rep/val, greediness, and the
Parry reduction."""

import pytest
from hypothesis import given, settings, strategies as st

from parrywords import (
    DomainError,
    NotInLanguageError,
    ScopeError,
    automatic_letter,
    block,
    block_length,
    build_automaton,
    digit_ceiling,
    enumerate_language,
    format_symbols,
    greedy_rep,
    in_language,
    is_greedy,
    is_max_conjugate,
    iter_params,
    lengths,
    param_word,
    prefix,
    project_letters,
    reduce_parry,
    rep,
    val,
    val_unchecked,
)

import oracles
from limits import time_limit

C102 = param_word((1, 0, 2))
C12 = param_word((1, 2))
C11 = param_word((1, 1))
C1011 = param_word((1, 0, 1, 1))

family = list(iter_params((2, 3), 2))
family_params = st.sampled_from(family)


# ---------------------------------------------------------------------------
# automaton
# ---------------------------------------------------------------------------

def test_automaton_golden_c102():
    a = build_automaton(C102)
    assert a.transitions() == [
        (0, 0, 0), (0, 1, 1), (1, 0, 2), (2, 0, 0), (2, 1, 0),
    ]
    assert a.run((1, 0, 1)) == 0
    assert a.run((1, 1)) is None
    assert a.accepts(()) and a.accepts((0,))
    assert not a.accepts((2,))


def test_automaton_c11_has_three_transitions():
    assert len(build_automaton(C11).transitions()) == 3


def test_dot_output_shape():
    dot = build_automaton(C102).to_dot()
    lines = [ln.strip() for ln in dot.splitlines()]
    arrows = [ln for ln in lines if "->" in ln and not ln.startswith("__start")]
    assert arrows == [
        '0 -> 0 [label="0"];',
        '0 -> 1 [label="1"];',
        '1 -> 2 [label="0"];',
        '2 -> 0 [label="0"];',
        '2 -> 0 [label="1"];',
    ]
    assert "__start -> 0;" in lines
    assert dot == build_automaton(C102).to_dot()


@given(family_params)
def test_automaton_transition_counts(c):
    # state i < k-1 carries c_i + 1 outgoing edges, the top state c_{k-1}
    a = build_automaton(c)
    expected = sum(d + 1 for d in c.digits[:-1]) + c.digits[-1]
    assert len(a.transitions()) == expected


@given(family_params, st.integers(min_value=0, max_value=8))
def test_max_path_value_from_start(c, t):
    assert build_automaton(c).max_path_value(0, t) == block_length(c, t) - 1


# ---------------------------------------------------------------------------
# representations
# ---------------------------------------------------------------------------

def test_representations_golden_c102():
    table = ["ε", "1", "10", "100", "101", "1000", "1001", "1010", "1011"]
    for n, expected in enumerate(table):
        assert format_symbols(rep(C102, n)) == expected
    assert enumerate_language(C102, 9) == [tuple(
        int(ch) for ch in w) if w != "ε" else () for w in table]


def test_rep_of_zero_is_empty():
    assert rep(C102, 0) == ()
    assert val(C102, ()) == 0
    with pytest.raises(DomainError):
        rep(C102, -1)


@given(family_params, st.integers(min_value=0, max_value=400))
def test_rep_is_nth_language_word(c, n):
    assert rep(c, n) == enumerate_language(c, n + 1)[n]


@given(family_params, st.integers(min_value=0, max_value=3000))
def test_val_rep_round_trip(c, n):
    assert val(c, rep(c, n)) == n


@given(family_params, st.integers(min_value=0, max_value=60))
def test_rep_matches_word_greedy_factorization(c, n):
    assert rep(c, n) == oracles.ref_rep(c.digits, n)


@given(family_params, st.integers(min_value=0, max_value=40))
def test_rep_decodes_to_prefix_and_is_stagewise_maximal(c, n):
    # the digits of rep(n) are block exponents reconstructing the prefix,
    # and at every stage one more copy of the current block does not fit
    # what remains of the prefix
    digits = rep(c, n)
    top = len(digits) - 1
    parts = []
    for i, d in enumerate(digits):
        parts.extend(block(c, top - i) * d)
    assert tuple(parts) == prefix(c, n)
    if digits:
        assert block_length(c, top) <= n < block_length(c, top + 1)
    rest = prefix(c, n)
    for i, d in enumerate(digits):
        b = block(c, top - i)
        for _ in range(d):
            assert rest[: len(b)] == b
            rest = rest[len(b):]
        assert rest[: len(b)] != b
    assert rest == ()


def test_val_checks_language_membership():
    assert val(C102, (1, 0, 1, 1)) == 8
    with pytest.raises(NotInLanguageError):
        val(C102, (1, 1))
    with pytest.raises(NotInLanguageError):
        val(C102, (0, 1))  # leading zero
    with pytest.raises(NotInLanguageError):
        val(C102, (2,))
    assert val_unchecked(C102, (1, 1)) == 3  # positional sum, no membership


@given(family_params, st.integers(min_value=0, max_value=300))
def test_val_unchecked_is_positional(c, n):
    digits = rep(c, n)
    top = len(digits) - 1
    assert val_unchecked(c, digits) == sum(
        d * block_length(c, top - i) for i, d in enumerate(digits))


def test_in_language_agrees_with_enumeration():
    lang = set(enumerate_language(C102, 40))
    for w in lang:
        assert in_language(C102, w)
    assert not in_language(C102, (0, 1))
    assert not in_language(C102, (1, 1))


# ---------------------------------------------------------------------------
# greediness
# ---------------------------------------------------------------------------

def test_non_greedy_witness_c102():
    assert format_symbols(rep(C102, 14)) == "10110"
    assert format_symbols(greedy_rep(C102, 14)) == "11000"
    assert not is_greedy(C102)
    # the first disagreement sits at n = 8
    firsts = [n for n in range(30) if rep(C102, n) != greedy_rep(C102, n)]
    assert firsts[0] == 8
    assert format_symbols(rep(C102, 8)) == "1011"
    assert format_symbols(greedy_rep(C102, 8)) == "1100"


# One example can take ~100 ms on cold caches, and more under load, so the
# per-example deadline is replaced by a wall-clock limit against real hangs.
@settings(deadline=None)
@given(family_params)
def test_greedy_iff_reps_agree(c):
    with time_limit(10):
        agree = all(rep(c, n) == greedy_rep(c, n) for n in range(2000))
    assert is_greedy(c) == agree


@given(family_params)
def test_greedy_iff_language_suffixes_below_ceiling(c):
    # independent route: the numeration is greedy exactly when every suffix
    # of every language word stays at or below the digit ceiling
    bound = c.k + len(c.digits) + 2
    lang = enumerate_language(c, block_length(c, bound))
    ok = True
    for w in lang:
        for i in range(len(w)):
            suf = w[i:]
            if suf > digit_ceiling(c, len(suf)):
                ok = False
    assert is_greedy(c) == ok


@given(family_params, st.integers(min_value=0, max_value=800))
def test_greedy_rep_valuates_back(c, n):
    digits = greedy_rep(c, n)
    assert val_unchecked(c, digits) == n
    if digits:
        assert digits[0] >= 1


def test_digit_ceiling_golden():
    assert format_symbols(digit_ceiling(C102, 6)) == "101101"
    assert format_symbols(digit_ceiling(C12, 6)) == "111111"
    assert digit_ceiling(C102, 0) == ()


# ---------------------------------------------------------------------------
# boundary identities
# ---------------------------------------------------------------------------

@given(family_params, st.integers(min_value=0, max_value=18))
def test_rep_at_block_lengths(c, n):
    assert rep(c, block_length(c, n)) == (1,) + (0,) * n


@given(family_params, st.integers(min_value=0, max_value=18))
def test_rep_below_next_block_is_digit_ceiling(c, n):
    assert rep(c, block_length(c, n + 1) - 1) == digit_ceiling(c, n + 1)


# ---------------------------------------------------------------------------
# Parry reduction
# ---------------------------------------------------------------------------

def test_reduce_fibonacci_c1011():
    assert lengths(C1011, 3) == [1, 2, 3, 5]
    r = reduce_parry(C1011)
    assert r.cprime.digits == (1, 1)
    assert r.power == 2
    assert r.root == (1, 0)
    assert r.period == 2
    assert abs(r.beta - 1.6180339887498949) < 1e-9


def test_reduce_collapses_to_integer_base():
    r = reduce_parry(C12)
    assert r.cprime.digits == (2,)
    assert r.power == 2
    assert r.root == (1,)
    assert abs(r.beta - 2.0) < 1e-11


def test_reduce_identity_when_already_primitive():
    r = reduce_parry(param_word((2, 1, 1)))
    assert r.cprime.digits == (2, 1, 1)
    assert r.power == 1
    r11 = reduce_parry(C11)
    assert r11.cprime.digits == (1, 1) and r11.power == 1


def test_reduce_rejects_non_greedy():
    with pytest.raises(ScopeError):
        reduce_parry(C102)


def test_reduce_large_leading_digit():
    # near 10^5 the float spacing exceeds the bisection tolerance
    with time_limit(1.0):
        r = reduce_parry(param_word((100000, 1)))
    assert abs(r.beta - 100000.00001) < 1e-6
    for too_large in (10**160, 10**400 - 1):  # beta ** 2, digit sum overflow
        with pytest.raises(DomainError):
            reduce_parry(param_word((too_large, 1)))


@given(family_params)
def test_reduction_postconditions(c):
    if not is_greedy(c):
        return
    r = reduce_parry(c)
    dec = c.digits[:-1] + (c.digits[-1] - 1,)
    assert r.root * r.power == dec
    assert r.cprime.digits == r.root[:-1] + (r.root[-1] + 1,)
    # Parry admissibility: proper suffixes of cprime sit strictly below it
    cp = r.cprime.digits
    for i in range(1, len(cp)):
        suf = cp[i:]
        assert suf < cp[: len(suf)] or (suf == cp[: len(suf)] and len(suf) < len(cp))
    # beta solves the digit equation to the advertised tolerance
    total = sum(d / r.beta ** (i + 1) for i, d in enumerate(cp))
    assert abs(total - 1.0) < 1e-9


@given(family_params, st.integers(min_value=0, max_value=300))
def test_projection_commutes_with_prefixes(c, m):
    if not is_greedy(c):
        return
    r = reduce_parry(c)
    if r.cprime.k < 2:
        return  # the reduced system is a plain integer base
    reduced = r.cprime
    assert prefix(reduced, m) == project_letters(c, prefix(c, m))


def test_projection_golden_c1011():
    assert format_symbols(project_letters(C1011, prefix(C1011, 13))) == "0100101001001"


@given(st.integers(min_value=0, max_value=2000))
def test_reduced_system_has_same_representations(n):
    # the reduction does not change the numeration system itself
    assert rep(C1011, n) == rep(C11, n)


# ---------------------------------------------------------------------------
# automatic sequence view
# ---------------------------------------------------------------------------

@given(family_params, st.integers(min_value=0, max_value=1500))
def test_automatic_letter_reads_fixed_point(c, n):
    assert automatic_letter(c, n) == prefix(c, n + 1)[n]
