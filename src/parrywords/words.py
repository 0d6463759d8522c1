"""Parameter words, their morphisms, and the words they generate.

A parameter word c = c_0 ... c_{k-1} over the non-negative integers (with
c_0 >= 1 and c_{k-1} >= 1) defines a morphism on the alphabet {0, ..., k-1}:

    i    ->  0^(c_i) (i+1)      for i < k - 1,
    k-1  ->  0^(c_{k-1}).

Iterating the morphism on the letter 0 gives a chain of nested words
block(c, 0), block(c, 1), ... whose limit is an infinite fixed point; its
prefixes and the block lengths drive everything else in this package.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Iterator

from .errors import CapError, DomainError, ParameterError

Word = tuple[int, ...]

MAX_ALPHABET = 64
# Longest fixed-point prefix or block that prefix() and block() build.
MAX_LETTERS = 10 ** 7


def format_symbols(symbols: Iterable[int]) -> str:
    """Render letters or digits: juxtaposed when all fit one character,
    dot-separated otherwise, and the empty word as "ε"."""
    syms = tuple(symbols)
    if not syms:
        return "ε"
    if all(0 <= s <= 9 for s in syms):
        return "".join(str(s) for s in syms)
    return ".".join(str(s) for s in syms)


def parse_symbols(text: str) -> Word:
    """Inverse of format_symbols.  Juxtaposed input is only meaningful when
    every symbol is a single decimal digit; multi-digit symbols need dots."""
    text = text.strip()
    if text in ("", "ε", "eps"):
        return ()
    try:
        if "." in text:
            return tuple(int(part) for part in text.split("."))
        return tuple(int(ch) for ch in text)
    except ValueError:
        raise DomainError(f"cannot parse symbols from {text!r}") from None


@dataclass(frozen=True)
class ParamWord:
    """Immutable, hashable parameter word.

    The constructor accepts any length >= 1 so that Parry reductions (which
    can output a single digit, i.e. a plain base-b system) stay inside the
    type; user input should go through param_word() or parse(), which require
    k >= 2 per the standing hypotheses.
    """

    digits: tuple[int, ...]

    def __post_init__(self) -> None:
        digits = tuple(int(d) for d in self.digits)
        object.__setattr__(self, "digits", digits)
        if not digits:
            raise ParameterError("parameter word must be non-empty")
        if len(digits) > MAX_ALPHABET:
            raise ParameterError(
                f"alphabet size {len(digits)} exceeds the cap of {MAX_ALPHABET}"
            )
        if any(d < 0 for d in digits):
            raise ParameterError(f"digits must be non-negative: {digits}")
        if digits[0] < 1:
            raise ParameterError(
                "first digit must be >= 1, otherwise the morphism is not "
                "prolongable on 0"
            )
        if digits[-1] < 1:
            raise ParameterError(
                "last digit must be >= 1, otherwise the last letter erases"
            )
        if len(digits) == 1 and digits[0] < 2:
            raise ParameterError(
                "a single-digit parameter needs its digit >= 2 to generate "
                "an infinite word"
            )

    @property
    def k(self) -> int:
        return len(self.digits)

    @classmethod
    def parse(cls, text: str) -> "ParamWord":
        return param_word(parse_symbols(text))

    def __str__(self) -> str:
        return format_symbols(self.digits)


def param_word(digits: Iterable[int]) -> ParamWord:
    """Validate user-supplied digits under the full standing hypotheses."""
    digits = tuple(int(d) for d in digits)
    if len(digits) < 2:
        raise ParameterError(
            f"parameter word needs at least two digits, got {len(digits)}"
        )
    return ParamWord(digits)


def apply_morphism(c: ParamWord, w: Iterable[int]) -> Word:
    """Image of a word under the morphism of c."""
    k = c.k
    cd = c.digits
    out: list[int] = []
    for a in w:
        if not 0 <= a < k:
            raise DomainError(f"letter {a} outside the alphabet of size {k}")
        if a < k - 1:
            out.extend((0,) * cd[a])
            out.append(a + 1)
        else:
            out.extend((0,) * cd[a])
    return tuple(out)


def block(c: ParamWord, n: int) -> Word:
    """n-th iterated image of the letter 0 (the n-th building block), which
    is the prefix of length U_n of the fixed point."""
    if n < 0:
        raise DomainError(f"block index must be >= 0, got {n}")
    return prefix(c, block_length(c, n))


_length_cache: dict[ParamWord, list[int]] = {}


def block_length(c: ParamWord, n: int) -> int:
    """Length of block(c, n), from the linear recurrence (exact integers)."""
    if n < 0:
        raise DomainError(f"block index must be >= 0, got {n}")
    tab = _length_cache.setdefault(c, [])
    k = c.k
    cd = c.digits
    while len(tab) <= n:
        i = len(tab)
        acc = 1 if i <= k - 1 else 0
        for j in range(min(i, k)):
            acc += cd[j] * tab[i - 1 - j]
        tab.append(acc)
    return tab[n]


def lengths(c: ParamWord, upto: int) -> list[int]:
    """Block lengths for n = 0, ..., upto."""
    return [block_length(c, n) for n in range(upto + 1)]


class _Growth:
    """A fixed-point prefix, one byte per letter, and where its growth by the
    block recurrence stopped: `copies` copies of factor j of block n.  Block
    n starts with block n - 1, the whole buffer, so a block starts at one
    copy of factor 0."""

    __slots__ = ("letters", "n", "j", "copies")

    def __init__(self) -> None:
        self.letters = bytearray(1)  # block 0
        self.n, self.j, self.copies = 1, 0, 1


_prefix_cache: dict[ParamWord, _Growth] = {}


def _grow(c: ParamWord, m: int) -> bytearray:
    """The cached fixed-point buffer of c, grown to at least m letters.

    Block n is u_{n-1}^(c_0) u_{n-2}^(c_1) ... u_{n-k}^(c_{k-1}), followed by
    the letter n while n < k (factors with a negative index are left out).
    Every factor is a prefix of the buffer already held, so each step
    appends a slice repeated by bytes multiplication.  Only the copies this
    request needs are appended, fewer than 2m letters in all however large
    a digit is, and the growth resumes there on the next request.
    """
    if m < 0:
        raise DomainError(f"prefix length must be >= 0, got {m}")
    if m > MAX_LETTERS:
        raise CapError(
            f"{m} letters exceed the cap of {MAX_LETTERS} on fixed-point prefixes"
        )
    g = _prefix_cache.get(c)
    if g is None:
        g = _prefix_cache[c] = _Growth()
    buf = g.letters
    k, cd = c.k, c.digits
    n, j, copies = g.n, g.j, g.copies
    while len(buf) < m:
        if j < min(n, k):
            size = block_length(c, n - 1 - j)
            more = min(cd[j] - copies, -(-(m - len(buf)) // size))
            buf += buf[:size] * more
            copies += more
            if copies == cd[j]:
                j, copies = j + 1, 0
        else:
            if n < k:
                buf.append(n)
            n, j, copies = n + 1, 0, 1
    g.n, g.j, g.copies = n, j, copies
    return buf


def prefix(c: ParamWord, m: int) -> Word:
    """Prefix of length m of the infinite fixed point (at most MAX_LETTERS
    letters; longer requests raise CapError)."""
    return tuple(_grow(c, m)[:m])


def prefix_bytes(c: ParamWord, m: int) -> bytes:
    """The letters of prefix(c, m) as bytes, one byte per letter."""
    return bytes(_grow(c, m)[:m])


def iter_params(ks: Iterable[int], digit_max: int) -> Iterator[ParamWord]:
    """All valid parameter words with the given alphabet sizes and digits
    bounded by digit_max, in (k, digits) order."""
    for k in sorted(set(ks)):
        if k < 2:
            raise ParameterError(f"alphabet size must be >= 2, got {k}")
        for digits in product(range(digit_max + 1), repeat=k):
            if digits[0] >= 1 and digits[-1] >= 1:
                yield ParamWord(digits)
