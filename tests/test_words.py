"""Tests for parameter words, morphisms, blocks, and fixed-point prefixes."""

import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from parrywords import (
    MAX_ALPHABET,
    CapError,
    DomainError,
    ParameterError,
    ParamWord,
    apply_morphism,
    block,
    block_length,
    format_symbols,
    iter_params,
    lengths,
    param_word,
    parse_symbols,
    power_prefix_len_direct,
    prefix,
)
from parrywords import words
from parrywords.words import MAX_LETTERS

import oracles


# handful of parameter words reused across tests
C102 = param_word((1, 0, 2))
C12 = param_word((1, 2))
C11 = param_word((1, 1))
C1011 = param_word((1, 0, 1, 1))

small_params = st.sampled_from(list(iter_params((2, 3, 4), 2)))
# larger digits, so that growth stops and resumes inside a run of copies
wide_params = st.lists(st.integers(min_value=0, max_value=25), min_size=1,
                       max_size=4).filter(
    lambda d: d[0] >= 1 and d[-1] >= 1 and (len(d) > 1 or d[0] >= 2)
).map(ParamWord)


def test_param_word_accepts_valid_digits():
    c = param_word((2, 0, 1))
    assert c.k == 3
    assert c.digits == (2, 0, 1)
    assert str(c) == "201"


@pytest.mark.parametrize("bad", [(), (0, 1), (1, 0), (1, -1, 1), (2,)])
def test_param_word_rejects_bad_digits(bad):
    with pytest.raises(ParameterError):
        param_word(bad)


def test_param_word_rejects_oversized_alphabet():
    with pytest.raises(ParameterError):
        param_word((1,) * (MAX_ALPHABET + 1))


def test_constructor_allows_single_digit_base():
    # reductions can land on a plain base-b system; only user input needs k >= 2
    assert ParamWord((2,)).k == 1
    with pytest.raises(ParameterError):
        ParamWord((1,))


def test_parse_and_format_round_trip():
    assert ParamWord.parse("102").digits == (1, 0, 2)
    assert ParamWord.parse("12.0.3").digits == (12, 0, 3)
    assert parse_symbols("ε") == ()
    assert parse_symbols("") == ()
    assert format_symbols(()) == "ε"
    assert format_symbols((1, 0, 2)) == "102"
    assert format_symbols((12, 0, 3)) == "12.0.3"
    with pytest.raises(DomainError):
        parse_symbols("1a2")


@given(st.lists(st.integers(min_value=0, max_value=30), max_size=8))
def test_parse_inverts_format(symbols):
    syms = tuple(symbols)
    if len(syms) == 1 and syms[0] > 9:
        # a lone multi-digit symbol renders without dots, so re-parsing reads
        # it as juxtaposed single digits; the format is ambiguous there
        return
    assert parse_symbols(format_symbols(syms)) == syms


def test_morphism_images_match_definition():
    assert apply_morphism(C102, (0,)) == (0, 1)
    assert apply_morphism(C102, (1,)) == (2,)
    assert apply_morphism(C102, (2,)) == (0, 0)
    assert apply_morphism(C102, (0, 1, 2)) == (0, 1, 2, 0, 0)
    with pytest.raises(DomainError):
        apply_morphism(C102, (3,))


def test_blocks_and_lengths_golden_c102():
    words = ["0", "01", "012", "01200", "012000101", "012000101012012"]
    for n, expected in enumerate(words):
        assert format_symbols(block(C102, n)) == expected
    assert lengths(C102, 5) == [1, 2, 3, 5, 9, 15]


@given(small_params, st.integers(min_value=0, max_value=6))
def test_block_matches_reference(c, n):
    assert block(c, n) == oracles.ref_block(c.digits, n)


@given(small_params, st.integers(min_value=0, max_value=7))
def test_block_length_matches_materialized(c, n):
    assert block_length(c, n) == len(block(c, n))


@given(small_params, st.integers(min_value=0, max_value=40))
def test_prefix_matches_reference(c, m):
    assert prefix(c, m) == oracles.ref_prefix(c.digits, m)


@given(small_params, st.integers(min_value=0, max_value=6))
def test_blocks_are_nested_prefixes(c, n):
    assert block(c, n) == block(c, n + 1)[: block_length(c, n)]
    assert prefix(c, block_length(c, n)) == block(c, n)


@given(small_params, st.integers(min_value=2, max_value=7))
def test_block_suffix_property(c, n):
    # block n-k survives as a suffix of block n once n reaches k
    if n < c.k:
        return
    tail = block(c, n - c.k)
    assert block(c, n)[len(block(c, n)) - len(tail):] == tail


@given(small_params)
def test_early_blocks_end_with_their_index(c):
    for n in range(1, c.k):
        assert block(c, n)[-1] == n


@given(small_params, st.integers(min_value=1, max_value=8))
def test_recursive_factorization(c, n):
    # block n concatenates the previous blocks with exponents c_0, c_1, ...,
    # closed off by the letter n while n < k
    k = c.k
    parts = []
    for j in range(min(n, k)):
        parts.extend(block(c, n - 1 - j) * c.digits[j])
    expected = tuple(parts) + ((n,) if n <= k - 1 else ())
    assert block(c, n) == expected


@given(small_params, st.integers(min_value=0, max_value=120))
def test_letter_extension_property(c, m):
    # a letter i >= 1 is followed by 0 or by a strictly larger letter, the
    # top letter only by 0 (i+1 specifically is not forced: c=1101 puts the
    # factor 13 into the fixed point via 02 and mu(2) = 3)
    w = prefix(c, m)
    k = c.k
    for a, b in zip(w, w[1:]):
        if 1 <= a <= k - 2:
            assert b == 0 or b > a
        elif a == k - 1:
            assert b == 0


def test_letter_extension_not_always_successor():
    w = prefix(param_word((1, 1, 0, 1)), 7)
    assert format_symbols(w) == "0102013"
    assert (1, 3) in set(zip(w, w[1:]))


def test_prefix_rejects_negative():
    with pytest.raises(DomainError):
        prefix(C102, -1)
    with pytest.raises(DomainError):
        block(C102, -1)
    with pytest.raises(DomainError):
        block_length(C102, -1)


def test_lengths_grow_without_overflow():
    # exponential growth; exact integers must not wrap or round
    big = block_length(C11, 300)
    assert big == block_length(C11, 299) + block_length(C11, 298)
    assert big > 10 ** 60


def test_iter_params_enumeration():
    fam2 = list(iter_params((2,), 2))
    assert [c.digits for c in fam2] == [
        (1, 1), (1, 2), (2, 1), (2, 2),
    ]
    fam3 = list(iter_params((3,), 3))
    assert len(fam3) == 3 * 4 * 3
    assert all(c.digits[0] >= 1 and c.digits[-1] >= 1 for c in fam3)
    with pytest.raises(ParameterError):
        list(iter_params((1,), 2))


# ---------------------------------------------------------------------------
# the byte buffer behind prefix and block
# ---------------------------------------------------------------------------

def _cold(c):
    """Forget c's cached fixed-point buffer, so the next call grows it anew."""
    words._prefix_cache.pop(c, None)


buffer_calls = st.lists(st.one_of(
    st.tuples(st.just("prefix"), st.integers(min_value=0, max_value=400)),
    st.tuples(st.just("block"), st.integers(min_value=0, max_value=6)),
    st.tuples(st.just("direct"), st.integers(min_value=0, max_value=3)),
), min_size=1, max_size=8)


@settings(max_examples=150)
@given(st.one_of(small_params, wide_params), buffer_calls)
def test_buffer_results_do_not_depend_on_growth_order(c, calls):
    # growing, shrinking and repeated requests in any order see the same
    # letters as a fresh brute-force construction
    _cold(c)
    for kind, arg in calls:
        if kind == "prefix":
            assert prefix(c, arg) == oracles.ref_prefix(c.digits, arg)
        elif block_length(c, arg) <= 2000:
            if kind == "block":
                assert block(c, arg) == oracles.ref_block(c.digits, arg)
            elif c.k > 1 and max(c.digits) <= 2:  # the oracle is quadratic
                assert power_prefix_len_direct(c, arg) == \
                    oracles.ref_power_prefix_len(c.digits, arg)


@pytest.mark.parametrize("digits", [(2,), (3,)])
def test_single_digit_base(digits):
    # Parry reductions can land on a plain base-b system: k = 1
    c = ParamWord(digits)
    _cold(c)
    for m in (0, 1, 2, 7, 30, 81, 5):
        assert prefix(c, m) == oracles.ref_prefix(digits, m)
    for n in range(5):
        assert block(c, n) == oracles.ref_block(digits, n)
        assert block_length(c, n) == digits[0] ** n


def test_largest_alphabet_round_trips_through_bytes():
    # 0 -> 01, i -> i+1, 63 -> 0: the fixed point starts 0 1 2 ... 63
    c = ParamWord((1,) + (0,) * (MAX_ALPHABET - 2) + (1,))
    assert c.k == MAX_ALPHABET
    _cold(c)
    assert prefix(c, MAX_ALPHABET) == tuple(range(MAX_ALPHABET))
    assert block(c, MAX_ALPHABET - 1)[-1] == MAX_ALPHABET - 1
    assert prefix(c, 300) == oracles.ref_prefix(c.digits, 300)
    assert block(c, 70) == oracles.ref_block(c.digits, 70)
    assert max(prefix(c, 300)) == MAX_ALPHABET - 1


def test_huge_digit_allocates_only_what_is_asked():
    c = ParamWord((10 ** 7, 1))
    _cold(c)
    tracemalloc.start()
    try:
        assert prefix(c, 5) == (0,) * 5
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 ** 6
    # growth resumes inside the run of 10^7 zeros
    assert prefix(c, 12) == (0,) * 12
    assert len(words._prefix_cache[c].letters) < 2 * 12


def test_letter_cap():
    c = ParamWord((10 ** 9, 1))
    with pytest.raises(CapError):
        prefix(c, MAX_LETTERS + 1)
    with pytest.raises(CapError):
        block(c, 1)  # 10^9 + 1 letters
    with pytest.raises(CapError):
        power_prefix_len_direct(c, 1)
    assert block(c, 0) == (0,)
