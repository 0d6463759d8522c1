"""Acceptance suite: thirteen end-to-end criteria, one test per criterion.

Each test prints a single "criterion NN PASS" line on success (visible with
pytest -s; under plain pytest the test outcome itself is the per-criterion
line).  Stated runtime bounds are asserted, not just hoped for.
"""

import time

from parrywords import (
    InconclusiveError,
    attractor_for_prefix,
    block,
    block_length,
    build_automaton,
    candidate_attractor,
    check_conditions,
    conjecture_report,
    digit_ceiling,
    divergence_table,
    enumerate_language,
    expected_profile_size,
    format_symbols,
    greedy_rep,
    is_anti_lyndon,
    is_attractor,
    is_greedy,
    iter_params,
    lengths,
    param_word,
    power_prefix_len,
    power_prefix_len_direct,
    prefix,
    profile,
    project_letters,
    reduce_parry,
    rep,
    val,
    window_start,
)

C102 = param_word((1, 0, 2))
C11 = param_word((1, 1))
C12 = param_word((1, 2))
C23 = param_word((2, 3))
C211 = param_word((2, 1, 1))
C1011 = param_word((1, 0, 1, 1))

FAMILY = list(iter_params((2, 3, 4), 3))
PASSING = [c for c in FAMILY if check_conditions(c).holds]


def report(num, text):
    print(f"criterion {num:02d} PASS: {text}")


def test_criterion_01_golden_tables():
    t0 = time.perf_counter()
    blocks = ["0", "01", "012", "01200", "012000101", "012000101012012"]
    for n, expected in enumerate(blocks):
        assert format_symbols(block(C102, n)) == expected
    assert lengths(C102, 5) == [1, 2, 3, 5, 9, 15]
    reps = ["ε", "1", "10", "100", "101", "1000", "1001", "1010", "1011"]
    for n, expected in enumerate(reps):
        assert format_symbols(rep(C102, n)) == expected
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"took {elapsed:.3f} s"
    report(1, f"c=102 block and representation tables ({elapsed * 1000:.0f} ms)")


def test_criterion_02_non_greedy_witness():
    assert format_symbols(rep(C102, 14)) == "10110"
    assert format_symbols(greedy_rep(C102, 14)) == "11000"
    assert is_greedy(C102) is False
    report(2, "rep(14)=10110 vs greedy 11000, c=102 not greedy")


def test_criterion_03_automaton_and_language():
    dot = build_automaton(C102).to_dot()
    expected_edges = [
        '0 -> 0 [label="0"];',
        '0 -> 1 [label="1"];',
        '1 -> 2 [label="0"];',
        '2 -> 0 [label="0"];',
        '2 -> 0 [label="1"];',
    ]
    dot_edges = [ln.strip() for ln in dot.splitlines()
                 if "->" in ln and "__start" not in ln]
    assert dot_edges == expected_edges
    expected_lang = ["ε", "1", "10", "100", "101", "1000", "1001", "1010", "1011"]
    assert [format_symbols(w) for w in enumerate_language(C102, 9)] == expected_lang
    report(3, "DOT export has exactly the five c=102 transitions; "
              "first nine language words in order")


def test_criterion_04_fibonacci_reduction():
    t0 = time.perf_counter()
    assert lengths(C1011, 3) == [1, 2, 3, 5]
    r = reduce_parry(C1011)
    assert str(r.cprime) == "11"
    assert r.power == 2
    assert abs(r.beta - 1.6180339887) < 1e-9
    assert format_symbols(project_letters(C1011, prefix(C1011, 13))) \
        == "0100101001001"
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"took {elapsed:.3f} s"
    report(4, f"c=1011 reduces to 11 with power 2, beta={r.beta:.10f} "
              f"({elapsed * 1000:.0f} ms)")


def test_criterion_05_duval_and_divergence_table():
    rows = divergence_table(param_word((2, 1, 0, 2, 2, 1)), 6)
    assert [r.exponent for r in rows] == [2, 1, 0, 2, 1, 0, 2]
    assert [r.letters for r in rows] == [
        (0, 1), (0, 2), (0, 3), (1, 4), (0, 2), (0, 3), (1, 4),
    ]
    from itertools import product
    expected = ["1", "0", "10", "110", "100", "1110", "1100", "1000"]
    got = []
    for n in range(1, 5):
        bucket = sorted((w for w in product((0, 1), repeat=n)
                         if is_anti_lyndon(w)), reverse=True)
        got.extend("".join(map(str, w)) for w in bucket)
    assert got == expected
    report(5, "c=210221 divergence table cell-for-cell; binary anti-Lyndon "
              "words through length 4")


def test_criterion_06_fractional_power_oracle():
    cap_hits = 0
    for c in FAMILY:
        holds = check_conditions(c).holds
        for n in range(9):
            try:
                direct = power_prefix_len_direct(c, n)
            except InconclusiveError:
                assert not holds, f"cap hit for condition-passing {c} at n={n}"
                cap_hits += 1
                continue
            assert power_prefix_len(c, n) == direct, (str(c), n)
    assert [power_prefix_len(C102, n) for n in range(5)] == [1, 2, 4, 7, 13]
    report(6, f"formula = direct over {len(FAMILY)} parameter words, n <= 8 "
              f"({cap_hits} caps, none on condition-passing words); "
              "c=102 horizons 1,2,4,7,13")


def test_criterion_07_equivalence_suite():
    for c in FAMILY:
        r = check_conditions(c)
        flags = {r.frac_power_ok, r.ceiling_ok, r.max_conjugate, r.greedy}
        assert len(flags) == 1, f"conditions disagree for {c}: {r}"
    report(7, f"four condition routes agree on all {len(FAMILY)} family words")


def test_criterion_08_attractor_soundness():
    t0 = time.perf_counter()
    for c in PASSING:
        horizon = []
        n = 0
        while window_start(c, n) <= 200:
            horizon.append((window_start(c, n), power_prefix_len(c, n)))
            n += 1
        for m in range(1, 201):
            att = attractor_for_prefix(c, m)
            assert is_attractor(prefix(c, m), att), (str(c), m)
            assert att.size <= c.k + 1, (str(c), m)
            if any(p <= m <= q for p, q in horizon):
                assert att.size <= c.k, (str(c), m)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"took {elapsed:.1f} s"
    report(8, f"{len(PASSING)} condition-passing words, m <= 200, all sound "
              f"with size bounds ({elapsed:.1f} s)")


def test_criterion_09_tightness():
    checked = 0
    for c in PASSING:
        for n in range(10):
            q = power_prefix_len(c, n)
            if q + 1 > 200:
                break
            gamma = candidate_attractor(c, n)
            assert not is_attractor(prefix(c, q + 1), gamma), (str(c), n)
            checked += 1
    report(9, f"candidate fails one letter past its horizon in {checked} cases")


def test_criterion_10_minimality():
    pr12 = profile(C12, 60)
    assert pr12.sizes == (1,) + (2,) * 59
    assert pr12.entries[7].witness.positions in ((3, 6), (4, 6))
    for c in (C211, C11):
        pr = profile(c, 60)
        for entry in pr.entries:
            assert entry.size == expected_profile_size(c, entry.prefix_len), \
                (str(c), entry)
    assert is_attractor(prefix(C23, 9), (3, 9))
    assert window_start(C23, 2) == 10
    report(10, "exact profiles for c=12, c=211, c=11 up to m=60; "
               "c=23 candidate verifies at m=9 while its window opens at 10")


def test_criterion_11_conjecture_harness():
    small = [c for c in iter_params((2, 3), 2) if check_conditions(c).holds]
    disagreements = {}
    for c in small:
        reportd = conjecture_report(c, 60)
        if not reportd.all_agree:
            disagreements[str(c)] = reportd.disagreements()
    # a disagreement would be a finding to surface, not to swallow
    assert not disagreements, f"profile formula disagreements: {disagreements}"
    report(11, f"conjectured sizes match exact search for {len(small)} words, "
               "m <= 60")


def test_criterion_12_numeration_round_trip():
    ten = [C102, C11, C12, param_word((2, 1)), C23, C211, C1011,
           param_word((1, 2, 1)), param_word((2, 1, 0, 2, 2, 1)),
           param_word((3, 2, 0, 3))]
    assert len(ten) == 10
    for c in ten:
        for n in range(5001):
            assert val(c, rep(c, n)) == n
        for n in range(21):
            assert rep(c, block_length(c, n)) == (1,) + (0,) * n
            assert rep(c, block_length(c, n + 1) - 1) == digit_ceiling(c, n + 1)
    report(12, "val(rep(n)) = n to 5000 on ten parameter words; "
               "block-boundary identities to n=20")


def test_criterion_13_long_prefix_soundness_and_tightness():
    t0 = time.perf_counter()
    # the first window (n, P_n, Q_n) with Q_n >= 10^5
    expected = {"11": (22, 57313, 121391), "111": (18, 74915, 144663),
                "1111": (17, 81558, 158815)}
    windows = []
    for text, (n_first, p_first, q_first) in expected.items():
        c = param_word(tuple(int(ch) for ch in text))
        n = 0
        while power_prefix_len(c, n) < 10**5:
            n += 1
        p, q = window_start(c, n), power_prefix_len(c, n)
        assert (n, p, q) == (n_first, p_first, q_first), str(c)
        gamma = candidate_attractor(c, n)
        w = prefix(c, q + 1)
        assert is_attractor(w[:p], gamma), (str(c), n, p)
        assert is_attractor(w[:q], gamma), (str(c), n, q)
        assert not is_attractor(w, gamma), (str(c), n, q + 1)
        windows.append(f"c={c} n={n} [{p}, {q}]")
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"took {elapsed:.1f} s"
    report(13, "Gamma_n attracts both ends of its window and fails one "
               f"letter past it: {'; '.join(windows)} ({elapsed:.1f} s)")
