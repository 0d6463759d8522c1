"""The Dumont-Thomas numeration system of a parameter word.

Every n >= 0 has a unique word-greedy factorization of the fixed-point prefix
of length n into powers of the blocks; reading off the exponents gives the
representation rep(n).  Equivalently, rep(n) is the (n+1)-st word, in
genealogical order, of the language of a small deterministic automaton whose
states are the letters.  Both views are implemented and cross-checked.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import DomainError, NotInLanguageError, ScopeError
from .lyndon import (
    INVERSE,
    is_anti_lyndon,
    is_max_conjugate,
    lex_cmp,
    smallest_period,
)
from .words import ParamWord, Word, block_length, format_symbols


class NumerationAutomaton:
    """Deterministic automaton reading digit words most significant first.

    States are the letters {0, ..., k-1}, the initial state is 0 and every
    state accepts.  From state i the digits 0, ..., c_i - 1 lead to 0 and,
    when i < k - 1, the extra digit c_i leads to i + 1.  Instances are
    immutable once built; the max-path-value table is cached on the instance.
    """

    def __init__(self, c: ParamWord):
        self.params = c
        self.k = c.k
        trans: dict[tuple[int, int], int] = {}
        for i, d in enumerate(c.digits):
            for dig in range(d):
                trans[(i, dig)] = 0
            if i < c.k - 1:
                trans[(i, d)] = i + 1
        self._trans = trans
        self._max_digit = tuple(
            d if i < c.k - 1 else d - 1 for i, d in enumerate(c.digits)
        )
        self._maxval: dict[tuple[int, int], int] = {}

    def step(self, state: int, digit: int) -> int | None:
        return self._trans.get((state, digit))

    def max_digit(self, state: int) -> int:
        """Largest digit readable from the state."""
        return self._max_digit[state]

    def run(self, digits: Word, start: int = 0) -> int | None:
        """State reached after reading digits, or None if the walk dies."""
        state: int | None = start
        for d in digits:
            state = self._trans.get((state, d))
            if state is None:
                return None
        return state

    def accepts(self, digits: Word) -> bool:
        """Path existence from the initial state (all states accept)."""
        return self.run(digits) is not None

    def transitions(self) -> list[tuple[int, int, int]]:
        """Sorted (state, digit, target) triples."""
        return sorted((s, d, t) for (s, d), t in self._trans.items())

    def max_path_value(self, state: int, length: int) -> int:
        """Largest value sum(d_i * U_{length-1-i}) over digit paths of the
        given length starting in `state`.

        Only the top digit needs following: the lower digits all fall back to
        state 0, whose ceiling at length t is U_t - 1, strictly below the top
        branch.
        """
        if length < 0:
            raise DomainError(f"path length must be >= 0, got {length}")
        key = (state, length)
        known = self._maxval
        if key not in known:
            todo = [key]
            while todo:
                s, t = todo[-1]
                if t == 0:
                    known[(s, t)] = 0
                    todo.pop()
                    continue
                d = self._max_digit[s]
                nxt = (self._trans[(s, d)], t - 1)
                if nxt in known:
                    known[(s, t)] = d * block_length(self.params, t - 1) + known[nxt]
                    todo.pop()
                else:
                    todo.append(nxt)
        return known[key]

    def to_dot(self) -> str:
        """Deterministic DOT: states sorted, one line per transition, every
        state drawn accepting, with an arrow into the initial state."""
        lines = [
            "digraph numeration {",
            "  rankdir=LR;",
            '  __start [shape=none, label=""];',
            "  node [shape=doublecircle];",
        ]
        for s in range(self.k):
            lines.append(f"  {s};")
        lines.append("  __start -> 0;")
        for s, d, t in self.transitions():
            lines.append(f'  {s} -> {t} [label="{d}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


_automaton_cache: dict[ParamWord, NumerationAutomaton] = {}


def build_automaton(c: ParamWord) -> NumerationAutomaton:
    """Shared immutable automaton instance for c."""
    auto = _automaton_cache.get(c)
    if auto is None:
        auto = _automaton_cache[c] = NumerationAutomaton(c)
    return auto


def in_language(c: ParamWord, digits: Word) -> bool:
    """Membership in the numeration language: accepted and no leading zero.
    The empty word belongs to it and represents 0."""
    if not digits:
        return True
    if digits[0] == 0:
        return False
    return build_automaton(c).accepts(digits)


def enumerate_language(c: ParamWord, count: int) -> list[Word]:
    """First `count` words of the numeration language in genealogical order.

    Level-by-level walk of the automaton; within a level children are pushed
    in increasing digit order, so each level comes out sorted.
    """
    if count < 0:
        raise DomainError(f"count must be >= 0, got {count}")
    auto = build_automaton(c)
    out: list[Word] = []
    if count == 0:
        return out
    out.append(())
    level: list[tuple[Word, int]] = [((), 0)]
    while len(out) < count:
        nxt: list[tuple[Word, int]] = []
        for w, q in level:
            lo = 1 if not w else 0
            for d in range(lo, auto.max_digit(q) + 1):
                t = auto.step(q, d)
                if t is not None:
                    nxt.append((w + (d,), t))
        if not nxt:
            raise DomainError("language exhausted before reaching count")
        nxt.sort(key=lambda item: item[0])
        for w, _ in nxt:
            out.append(w)
            if len(out) == count:
                break
        level = nxt
    return out


def rep(c: ParamWord, n: int) -> Word:
    """Representation of n: the digit word of the word-greedy factorization.

    Walks the automaton most significant digit first, emitting the unique
    digit whose remainder stays within the max-path value of the target
    state; the digit intervals tile [0, max] so exactly one fits.
    """
    if n < 0:
        raise DomainError(f"cannot represent {n}; need n >= 0")
    if n == 0:
        return ()
    auto = build_automaton(c)
    top = 0
    while block_length(c, top + 1) <= n:
        top += 1
    digits: list[int] = []
    state, m = 0, n
    for t in range(top, -1, -1):
        ut = block_length(c, t)
        for d in range(auto.max_digit(state), -1, -1):
            r = m - d * ut
            if r < 0:
                continue
            nxt = auto.step(state, d)
            if nxt is not None and r <= auto.max_path_value(nxt, t):
                digits.append(d)
                state, m = nxt, r
                break
        else:
            raise AssertionError(f"no digit fits at t={t}; broken invariant")
    assert m == 0, "walk ended with a non-zero remainder"
    return tuple(digits)


def val_unchecked(c: ParamWord, digits: Word) -> int:
    """Value sum(d_i * U_{N-i}) of an arbitrary digit word, language or not."""
    n = len(digits)
    if any(d < 0 for d in digits):
        raise DomainError(f"digits must be non-negative: {digits}")
    return sum(d * block_length(c, n - 1 - i) for i, d in enumerate(digits))


def val(c: ParamWord, digits: Word) -> int:
    """Value of a digit word of the numeration language (inverse of rep)."""
    if not in_language(c, digits):
        raise NotInLanguageError(
            f"{format_symbols(digits)} is not in the numeration language of {c}"
        )
    return val_unchecked(c, digits)


def greedy_rep(c: ParamWord, n: int) -> Word:
    """Euclidean largest-term-first representation over the block lengths.
    Coincides with rep exactly when the system is greedy."""
    if n < 0:
        raise DomainError(f"cannot represent {n}; need n >= 0")
    if n == 0:
        return ()
    top = 0
    while block_length(c, top + 1) <= n:
        top += 1
    digits: list[int] = []
    m = n
    for t in range(top, -1, -1):
        ut = block_length(c, t)
        d, m = divmod(m, ut)
        digits.append(d)
    assert m == 0
    return tuple(digits)


def digit_ceiling(c: ParamWord, length: int) -> Word:
    """First `length` digits of the periodic stream repeating
    c_0 ... c_{k-2} (c_{k-1} - 1); its prefix of length n+1 is the largest
    representation of that length, namely rep(U_{n+1} - 1)."""
    if length < 0:
        raise DomainError(f"length must be >= 0, got {length}")
    base = c.digits[:-1] + (c.digits[-1] - 1,)
    return tuple(base[i % len(base)] for i in range(length))


def is_greedy(c: ParamWord) -> bool:
    """True when rep agrees with the Euclidean greedy algorithm everywhere,
    which happens exactly when c_0 ... c_{k-2} (c_{k-1} - 1) is maximal among
    its rotations."""
    return is_max_conjugate(c.digits[:-1] + (c.digits[-1] - 1,))


@dataclass(frozen=True)
class ParryReduction:
    """Primitive core of a greedy parameter word.

    The decremented word c_0 ... c_{k-2} (c_{k-1} - 1) is a power of an
    anti-Lyndon root; incrementing the root's last digit gives an equivalent
    parameter word cprime (same numeration system) whose associated beta is a
    simple Parry number with expansion-of-1 digits cprime.
    """

    cprime: ParamWord
    power: int
    root: Word
    beta: float
    beta_tol: float = field(default=1e-12, compare=False)

    @property
    def period(self) -> int:
        return len(self.root)


def _parry_beta(digits: Word, tol: float = 1e-12) -> float:
    """Unique x > 1 with sum(d_i / x^(i+1)) = 1, by bisection.

    The left side is strictly decreasing in x, > 1 near 1 (the digit sum is
    at least 2) and < 1 at 1 + sum(digits), so the root is bracketed.
    Bisection stops at tol or when the bracket holds no float between its
    ends, whichever comes first (near large roots the float spacing exceeds
    tol).
    """
    def shortfall(x: float) -> float:
        return sum(d / x ** (i + 1) for i, d in enumerate(digits)) - 1.0

    try:
        lo, hi = 1.0, 1.0 + sum(digits)
        while hi - lo > tol:
            mid = (lo + hi) / 2
            if mid == lo or mid == hi:
                break
            if shortfall(mid) > 0:
                lo = mid
            else:
                hi = mid
    except OverflowError:
        raise DomainError(
            "digits too large for a floating-point Parry number"
        ) from None
    return (lo + hi) / 2


def reduce_parry(c: ParamWord) -> ParryReduction:
    """Reduce a greedy parameter word to its primitive core."""
    if not is_greedy(c):
        raise ScopeError(
            f"{c} is not greedy (the decremented word is not maximal among "
            "its rotations), so it has no Parry reduction"
        )
    decremented = c.digits[:-1] + (c.digits[-1] - 1,)
    p = smallest_period(decremented)
    if p < len(decremented) and len(decremented) % p == 0:
        root, power = decremented[:p], len(decremented) // p
    else:
        root, power = decremented, 1
    if not is_anti_lyndon(root):
        raise RuntimeError(
            f"internal inconsistency: primitive root {root} of a maximal "
            "word is not anti-Lyndon"
        )
    cprime_digits = root[:-1] + (root[-1] + 1,)
    for i in range(1, len(cprime_digits)):
        if lex_cmp(cprime_digits[i:], cprime_digits) >= 0:
            raise RuntimeError(
                f"internal inconsistency: suffix {cprime_digits[i:]} of "
                f"{cprime_digits} is not strictly smaller, so the expansion "
                "is not Parry-admissible"
            )
    tol = 1e-12
    beta = _parry_beta(cprime_digits, tol)
    return ParryReduction(
        cprime=ParamWord(cprime_digits), power=power, root=root, beta=beta,
        beta_tol=tol,
    )


def project_letters(c: ParamWord, w: Word) -> Word:
    """Letter projection i -> i mod period onto the reduced alphabet; it maps
    the fixed point of c onto the fixed point of the reduction's cprime."""
    period = reduce_parry(c).period
    return tuple(a % period for a in w)


def automatic_letter(c: ParamWord, n: int) -> int:
    """n-th letter of the fixed point, read off the automaton: the state
    reached on rep(n) from the initial state."""
    state = build_automaton(c).run(rep(c, n))
    assert state is not None, "rep produced a word outside the language"
    return state
