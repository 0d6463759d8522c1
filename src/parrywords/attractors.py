"""String attractors of fixed-point prefixes.

A string attractor of a finite word w is a set of positions (1-based here)
such that every non-empty factor of w has at least one occurrence crossing
one of them.  For parameter words passing the greediness conditions, the set
of the last k block lengths is an attractor of every prefix inside an
explicit window, which pins the minimal attractor size of almost all
prefixes between k and k + 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import CapError, DomainError, InconclusiveError, ScopeError
from .lyndon import anti_lyndon_root, anti_lyndon_stream, is_max_conjugate
from .numeration import digit_ceiling, is_greedy
from .words import ParamWord, Word, block, block_length, prefix, prefix_bytes


@dataclass(frozen=True)
class Attractor:
    """Sorted distinct 1-based positions inside a word of known length."""

    positions: tuple[int, ...]
    word_len: int

    def __post_init__(self) -> None:
        pos = tuple(sorted(set(int(p) for p in self.positions)))
        object.__setattr__(self, "positions", pos)
        if self.word_len < 0:
            raise DomainError(f"word length must be >= 0, got {self.word_len}")
        if pos and not (1 <= pos[0] and pos[-1] <= self.word_len):
            raise DomainError(
                f"positions {pos} outside the word of length {self.word_len}"
            )

    @property
    def size(self) -> int:
        return len(self.positions)

    def zero_based(self) -> tuple[int, ...]:
        return tuple(p - 1 for p in self.positions)


# ---------------------------------------------------------------------------
# coverage checking via suffix array + lcp intervals
# ---------------------------------------------------------------------------

def _suffix_array(w: Sequence[int]) -> list[int]:
    """Prefix doubling (Manber-Myers): O(m) memory, O(m log^2 m) time.

    Round k sorts the suffixes by their first 2k letters, packed into one
    int key rank[i] * (m + 1) + rank[i + k], with 0 marking the end of the
    word.  Ranks must stay dense (1..m): a raw letter >= m would make two
    packed keys collide.
    """
    m = len(w)
    sa = list(range(m))
    dense = {a: r for r, a in enumerate(sorted(set(w)), 1)}
    rank = [dense[a] for a in w]
    base = m + 1
    k = 1
    while True:
        key = [r * base + s for r, s in zip(rank, rank[k:] + [0] * k)]
        sa.sort(key=key.__getitem__)
        r = 0
        prev = -1
        for i in sa:
            ki = key[i]
            if ki != prev:
                r += 1
                prev = ki
            rank[i] = r
        if r == m:  # every suffix has its own rank: the order is final
            return sa
        k *= 2


def _lcp_array(w: Sequence[int], sa: list[int]) -> list[int]:
    """Kasai: lcp[r] = longest common prefix of the suffixes of ranks r-1, r."""
    m = len(w)
    rank = [0] * m
    for r, j in enumerate(sa):
        rank[j] = r
    lcp = [0] * m
    h = 0
    for j in range(m):
        r = rank[j]
        if r == 0:
            h = 0
            continue
        i = sa[r - 1]
        while j + h < m and i + h < m and w[j + h] == w[i + h]:
            h += 1
        lcp[r] = h
        if h:
            h -= 1
    return lcp


def _need_array(m: int, pos0: Sequence[int]) -> list[int]:
    """need[j] = length of the shortest factor starting at j that crosses an
    attractor position (m + 2 when none does)."""
    inf = m + 2
    need = [inf] * m
    nxt = inf
    pi = len(pos0) - 1
    for j in range(m - 1, -1, -1):
        if pi >= 0 and pos0[pi] == j:
            nxt = j
            pi -= 1
        if nxt != inf:
            need[j] = nxt - j + 1
    return need


def _coverage_ok(w: Sequence[int], pos0: Sequence[int]) -> bool:
    """Core attractor test.

    A factor is covered iff some occurrence j has need[j] <= its length; per
    lcp interval the occurrence set is constant, so it suffices to test the
    interval's minimal need against the shortest length the interval is
    responsible for (its parent depth + 1).  Leaves are the single-occurrence
    factors and are tested directly.
    """
    m = len(w)
    if m == 0:
        return True
    sa = _suffix_array(w)
    lcp = _lcp_array(w, sa)
    need = _need_array(m, sorted(pos0))
    for r in range(m):
        ph = max(lcp[r] if r > 0 else 0, lcp[r + 1] if r + 1 < m else 0)
        if m - sa[r] > ph and need[sa[r]] > ph + 1:
            return False
    stack: list[list[int]] = [[0, m + 2]]  # [depth, min need inside]
    for r in range(1, m + 1):
        lv = lcp[r] if r < m else 0
        carry = need[sa[r - 1]]
        while stack[-1][0] > lv:
            depth, mn = stack.pop()
            mn = min(mn, carry)
            ph = max(lv, stack[-1][0])
            if mn > ph + 1:  # depth > ph >= 0 here, so this is a real factor
                return False
            carry = mn
        if stack[-1][0] == lv:
            stack[-1][1] = min(stack[-1][1], carry)
        else:
            stack.append([lv, carry])
    return True


def is_attractor(word: Sequence[int], gamma: Attractor | Iterable[int]) -> bool:
    """Does gamma (1-based positions) attract every factor of word?"""
    w = tuple(word)
    if isinstance(gamma, Attractor):
        if gamma.word_len != len(w):
            raise DomainError(
                f"attractor is for a word of length {gamma.word_len}, "
                f"got length {len(w)}"
            )
        positions = gamma.positions
    else:
        positions = tuple(sorted(set(int(p) for p in gamma)))
        if positions and not (1 <= positions[0] and positions[-1] <= len(w)):
            raise DomainError(
                f"positions {positions} outside the word of length {len(w)}"
            )
    return _coverage_ok(w, [p - 1 for p in positions])


# ---------------------------------------------------------------------------
# exact minimal attractors
# ---------------------------------------------------------------------------

def _cover_constraints(w: Sequence[int]) -> list[tuple[tuple[int, ...], int]]:
    """(occurrence starts, binding length) pairs: a position set is an
    attractor iff for every pair some start j has a chosen position within
    [j, j + length)."""
    m = len(w)
    sa = _suffix_array(w)
    lcp = _lcp_array(w, sa)
    constraints: list[tuple[tuple[int, ...], int]] = []
    for r in range(m):
        ph = max(lcp[r] if r > 0 else 0, lcp[r + 1] if r + 1 < m else 0)
        if m - sa[r] > ph:
            constraints.append(((sa[r],), ph + 1))
    stack: list[list[int]] = [[0, 0]]  # [depth, left rank]
    for r in range(1, m + 1):
        lv = lcp[r] if r < m else 0
        left = r - 1  # a freshly opened interval starts at the previous rank
        while stack[-1][0] > lv:
            depth, l = stack.pop()
            ph = max(lv, stack[-1][0])
            constraints.append((tuple(sa[l:r]), ph + 1))
            left = l
        if stack[-1][0] < lv:
            stack.append([lv, left])
    return constraints


def _min_cover(m: int, constraints: list[tuple[tuple[int, ...], int]],
               lower_bound: int) -> list[int]:
    """Lexicographically least minimum-size position cover, by iterative
    deepening over the target size and depth-first search in position order.

    Positions with identical coverage are collapsed onto the smallest one,
    which a lexicographically least witness would pick anyway.
    """
    full = (1 << len(constraints)) - 1
    masks = [0] * m
    for ci, (occs, lo) in enumerate(constraints):
        bit = 1 << ci
        for j in occs:
            for p in range(j, min(j + lo, m)):
                masks[p] |= bit
    seen: set[int] = set()
    cands: list[tuple[int, int]] = []
    for p in range(m):
        mk = masks[p]
        if mk and mk not in seen:
            seen.add(mk)
            cands.append((p, mk))
    suffix_union = [0] * (len(cands) + 1)
    for t in range(len(cands) - 1, -1, -1):
        suffix_union[t] = suffix_union[t + 1] | cands[t][1]
    widest = max((mk.bit_count() for _, mk in cands), default=0)
    best: list[int] | None = None

    def dfs(idx: int, chosen: list[int], uncovered: int, budget: int) -> None:
        nonlocal best
        if best is not None:
            return
        if not uncovered:
            best = list(chosen)
            return
        if budget == 0 or uncovered & ~suffix_union[idx]:
            return
        if uncovered.bit_count() > budget * widest:
            return
        for t in range(idx, len(cands)):
            p, mk = cands[t]
            if mk & uncovered:  # a useless pick never appears in a minimum cover
                chosen.append(p)
                dfs(t + 1, chosen, uncovered & ~mk, budget - 1)
                chosen.pop()
                if best is not None:
                    return

    for size in range(max(lower_bound, 1), m + 1):
        dfs(0, [], full, size)
        if best is not None:
            return best
    raise AssertionError("the full position set is always a cover")


def smallest_attractor(word: Sequence[int], cap: int = 200) -> Attractor:
    """Exact minimum attractor; among all witnesses of minimum size the
    lexicographically least position set is returned."""
    w = tuple(word)
    if not w:
        raise DomainError("empty word has no attractor")
    if len(w) > cap:
        raise CapError(
            f"exact attractor search capped at length {cap}, got {len(w)}"
        )
    constraints = _cover_constraints(w)
    pos0 = _min_cover(len(w), constraints, len(set(w)))
    return Attractor(tuple(p + 1 for p in pos0), len(w))


# ---------------------------------------------------------------------------
# candidate attractors and their guaranteed windows
# ---------------------------------------------------------------------------

def candidate_attractor(c: ParamWord, n: int) -> tuple[int, ...]:
    """Block lengths U_max(0, n-k+1), ..., U_n as 1-based positions; the
    guaranteed attractor of the prefixes in the n-th window.  n = -1 gives
    the empty set."""
    if n < -1:
        raise DomainError(f"index must be >= -1, got {n}")
    if n == -1:
        return ()
    lo = max(0, n - c.k + 1)
    return tuple(block_length(c, i) for i in range(lo, n + 1))


def window_start(c: ParamWord, n: int) -> int:
    """Smallest prefix length the n-th candidate is guaranteed for."""
    if n < 0:
        raise DomainError(f"index must be >= 0, got {n}")
    k = c.k
    if n <= k - 1:
        return block_length(c, n)
    return (block_length(c, n) + block_length(c, n - k + 1)
            - block_length(c, n - k) - 1)


def power_prefix_len(c: ParamWord, n: int) -> int:
    """Length of the longest prefix of the fixed point that is a fractional
    power of block n, via the exponent stream: sum a_i * U_{n-i}."""
    if n < 0:
        raise DomainError(f"index must be >= 0, got {n}")
    stream = anti_lyndon_stream(c, n + 1)
    return sum(stream[i] * block_length(c, n - i) for i in range(n + 1))


def power_prefix_len_direct(c: ParamWord, n: int, cap: int | None = None) -> int:
    """Same quantity straight from the definition: letter-by-letter common
    prefix of the fixed point and the periodic repetition of block n.

    Reaching `cap` (default 4 * U_{n+1}) raises instead of guessing.
    """
    if n < 0:
        raise DomainError(f"index must be >= 0, got {n}")
    if cap is None:
        cap = 4 * block_length(c, n + 1)
    if cap < 1:
        raise DomainError(f"cap must be >= 1, got {cap}")
    tile = bytes(block(c, n))
    periodic = (tile * (cap // len(tile) + 1))[:cap]
    fixed = prefix_bytes(c, cap)
    lo, hi = 0, cap
    while lo < hi:  # largest x with fixed[:x] == periodic[:x]
        mid = (lo + hi + 1) // 2
        if fixed[:mid] == periodic[:mid]:
            lo = mid
        else:
            hi = mid - 1
    if lo >= cap:
        raise InconclusiveError(
            f"no divergence within the cap of {cap} letters; the common "
            "prefix may be longer"
        )
    return lo


@dataclass(frozen=True)
class DivergenceRow:
    """Exponent of the n-th fractional-power prefix together with the two
    distinct letters that follow it in the fixed point and in the periodic
    continuation of block n (in increasing order)."""

    n: int
    exponent: int
    letters: tuple[int, int]


def divergence_table(c: ParamWord, upto: int) -> list[DivergenceRow]:
    """Rows for n = 0, ..., upto from the constant-space recursion on the
    parameter digits."""
    if c.k < 2:
        raise DomainError("need an alphabet of size >= 2")
    if upto < 0:
        raise DomainError(f"need upto >= 0, got {upto}")
    cd = c.digits
    k = c.k
    exp, i, j = cd[0], 0, 1
    rows = [DivergenceRow(0, exp, (i, j))]
    for n in range(1, upto + 1):
        if j <= k - 2:
            if cd[i] > cd[j]:
                exp, i, j = cd[j], 0, j + 1
            elif cd[i] == cd[j]:
                exp, i, j = cd[j], i + 1, j + 1
            else:
                exp, i, j = cd[i], 0, i + 1
        else:
            exp, i, j = cd[i], 0, i + 1
        rows.append(DivergenceRow(n, exp, (i, j)))
    return rows


# ---------------------------------------------------------------------------
# the four greediness conditions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConditionReport:
    """Four equivalent formulations, evaluated separately as a cross-check:
    window reach (U_{n+1} - 1 <= Q_n), digit ceiling below the exponent
    stream, conjugate maximality, and greediness of the numeration."""

    frac_power_ok: bool
    ceiling_ok: bool
    max_conjugate: bool
    greedy: bool
    checked_upto: int

    @property
    def holds(self) -> bool:
        return (self.frac_power_ok and self.ceiling_ok
                and self.max_conjugate and self.greedy)


_condition_cache: dict[ParamWord, ConditionReport] = {}


def check_conditions(c: ParamWord) -> ConditionReport:
    """Evaluate all four conditions up to the sufficient bound k - 1 + |root|
    and insist they agree; disagreement would be a bug, not a property of c."""
    cached = _condition_cache.get(c)
    if cached is not None:
        return cached
    if c.k < 2:
        raise DomainError("need an alphabet of size >= 2")
    bound = c.k - 1 + len(anti_lyndon_root(c))
    frac_power_ok = all(
        block_length(c, n + 1) - 1 <= power_prefix_len(c, n)
        for n in range(bound + 1)
    )
    ceiling = digit_ceiling(c, bound + 1)
    stream = anti_lyndon_stream(c, bound + 1)
    ceiling_ok = True
    for a, b in zip(ceiling, stream):
        if a != b:
            ceiling_ok = a < b
            break
    max_conj = is_max_conjugate(c.digits[:-1] + (c.digits[-1] - 1,))
    greedy = is_greedy(c)
    if not (frac_power_ok == ceiling_ok == max_conj == greedy):
        raise RuntimeError(
            "internal inconsistency: the four equivalent conditions disagree "
            f"for {c}: {frac_power_ok=} {ceiling_ok=} {max_conj=} {greedy=}"
        )
    report = ConditionReport(frac_power_ok, ceiling_ok, max_conj, greedy, bound)
    _condition_cache[c] = report
    return report


def attractor_for_prefix(c: ParamWord, m: int) -> Attractor:
    """Guaranteed attractor of the length-m prefix under the conditions.

    Prefers the size-<= k candidate of the smallest window containing m; when
    m falls in a gap before a window start, the previous candidate plus the
    single position U_n covers [U_n, Q_n] at size <= k + 1.
    """
    if m < 1:
        raise DomainError(f"prefix length must be >= 1, got {m}")
    if not check_conditions(c).holds:
        raise ScopeError(
            f"{c} fails the greediness conditions; no guaranteed attractor "
            "construction applies (exact search remains available)"
        )
    fallback: int | None = None
    n = 0
    while block_length(c, n) <= m:
        q = power_prefix_len(c, n)
        if window_start(c, n) <= m <= q:
            return Attractor(candidate_attractor(c, n), m)
        if fallback is None and m <= q:
            fallback = n
        n += 1
    if fallback is None:
        raise RuntimeError(
            f"internal inconsistency: no window contains {m} although the "
            "conditions hold"
        )
    positions = set(candidate_attractor(c, fallback - 1))
    positions.add(block_length(c, fallback))
    return Attractor(tuple(sorted(positions)), m)


# ---------------------------------------------------------------------------
# profiles and the expected-size formula
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProfileEntry:
    prefix_len: int
    size: int
    witness: Attractor


@dataclass(frozen=True)
class ProfileResult:
    entries: tuple[ProfileEntry, ...]
    truncated_at: int | None

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(e.size for e in self.entries)


def profile(c: ParamWord, m_max: int, cap: int = 200) -> ProfileResult:
    """Exact minimal attractor size of every prefix up to m_max (truncated at
    the exact-search cap, with the truncation marked)."""
    if m_max < 1:
        raise DomainError(f"need m_max >= 1, got {m_max}")
    top = min(m_max, cap)
    w = prefix(c, top)
    entries = []
    for m in range(1, top + 1):
        witness = smallest_attractor(w[:m], cap=cap)
        entries.append(ProfileEntry(m, witness.size, witness))
    return ProfileResult(tuple(entries), cap if m_max > cap else None)


def expected_profile_size(c: ParamWord, m: int) -> int:
    """Conjectured minimal size for the length-m prefix of a parameter word
    passing the conditions: i + 1 on [U_i, U_{i+1}) for i <= k - 2, then k."""
    if m < 1:
        raise DomainError(f"prefix length must be >= 1, got {m}")
    if m >= block_length(c, c.k - 1):
        return c.k
    i = 0
    while block_length(c, i + 1) <= m:
        i += 1
    return i + 1


@dataclass(frozen=True)
class ConjectureRow:
    prefix_len: int
    expected: int
    actual: int

    @property
    def agree(self) -> bool:
        return self.expected == self.actual


@dataclass(frozen=True)
class ConjectureReport:
    rows: tuple[ConjectureRow, ...]
    truncated_at: int | None

    @property
    def all_agree(self) -> bool:
        return all(row.agree for row in self.rows)

    def disagreements(self) -> tuple[ConjectureRow, ...]:
        return tuple(row for row in self.rows if not row.agree)


def conjecture_report(c: ParamWord, m_max: int, cap: int = 200) -> ConjectureReport:
    """Exact profile against the expected-size formula, prefix by prefix."""
    if not check_conditions(c).holds:
        raise ScopeError(
            f"{c} fails the greediness conditions; the expected-size formula "
            "does not apply"
        )
    prof = profile(c, m_max, cap=cap)
    rows = tuple(
        ConjectureRow(e.prefix_len, expected_profile_size(c, e.prefix_len), e.size)
        for e in prof.entries
    )
    return ConjectureReport(rows, prof.truncated_at)


def windows_cover_all(c: ParamWord) -> bool:
    """True when consecutive guaranteed windows leave no gap (equivalently
    the minimal size never exceeds k): the last digit is 1 and the other
    digits form an integer power of the anti-Lyndon root."""
    if not check_conditions(c).holds:
        raise ScopeError(
            f"{c} fails the greediness conditions; windows are not defined"
        )
    root = anti_lyndon_root(c)
    body = c.digits[:-1]
    covers = (c.digits[-1] == 1
              and len(body) % len(root) == 0
              and root * (len(body) // len(root)) == body)
    if covers:
        for n in range(1, 26):
            if window_start(c, n) - 1 > power_prefix_len(c, n - 1):
                raise RuntimeError(
                    f"internal inconsistency: window gap at n={n} for {c} "
                    "although the covering criterion holds"
                )
    return covers
