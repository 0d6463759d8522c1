"""The benchmark's own view of the parameter-word family.

Everything here is plain stdlib arithmetic on digit tuples and never imports
parrywords: input generation runs before the first timed op, so it must not
fill the package caches, and the checkers use these routines as references
that share no code with the paths being timed.
"""

from __future__ import annotations

import bisect
import functools
from itertools import product

Digits = tuple[int, ...]

# The k <= 4, digit <= 3 family of the acceptance criteria (189 words).
FAMILY: tuple[Digits, ...] = tuple(
    d for k in (2, 3, 4) for d in product(range(4), repeat=k)
    if d[0] >= 1 and d[-1] >= 1
)


def text(c: Digits) -> str:
    """The parameter word as the CLI spells it (all digits are <= 9)."""
    return "".join(str(d) for d in c)


def passes(c: Digits) -> bool:
    """The greediness conditions: c_0 ... c_{k-2} (c_{k-1} - 1) is >= all of
    its rotations.  The package proves this equivalent to its other three
    formulations; the checkers compare the two."""
    dec = c[:-1] + (c[-1] - 1,)
    return all(dec >= dec[i:] + dec[:i] for i in range(1, len(dec)))


PASSING: tuple[Digits, ...] = tuple(c for c in FAMILY if passes(c))
FAILING: tuple[Digits, ...] = tuple(c for c in FAMILY if not passes(c))


# Every n < 10**30 and every prefix length used has fewer than this many
# digits, even in the slowest-growing system of the family (c = 1001).
MAX_BLOCK = 256


@functools.cache
def _lengths(c: Digits) -> tuple[int, ...]:
    """U_0 ... U_MAX_BLOCK from U_i = [i < k] + sum_j c_j U_{i-1-j}."""
    tab: list[int] = []
    for i in range(MAX_BLOCK + 1):
        acc = 1 if i < len(c) else 0
        for j in range(min(i, len(c))):
            acc += c[j] * tab[i - 1 - j]
        tab.append(acc)
    return tuple(tab)


def block_lengths(c: Digits, upto: int) -> tuple[int, ...]:
    """U_0 ... U_upto."""
    return _lengths(c)[:upto + 1]


def lengths_beyond(c: Digits, n: int) -> tuple[int, ...]:
    """Block lengths up to the first one exceeding n."""
    tab = _lengths(c)
    return tab[:bisect.bisect_right(tab, n) + 1]


def letter_at(c: Digits, i: int) -> int:
    """Letter i (0-based) of the fixed point, by descending the block
    decomposition u_n = u_{n-1}^{c_0} ... u_{n-k}^{c_{k-1}} (followed by the
    letter n when n < k)."""
    U = lengths_beyond(c, i)
    n = len(U) - 1
    k = len(c)
    while n > 0:
        for j in range(1, min(n, k) + 1):
            run = c[j - 1] * U[n - j]
            if i < run:
                i %= U[n - j]
                n -= j
                break
            i -= run
        else:
            return n  # the appended letter n closes u_n
    return 0


def digit_value(c: Digits, digits: Digits) -> int:
    """sum d_i U_{N-1-i} of a digit word of length N."""
    U = block_lengths(c, len(digits))
    n = len(digits)
    return sum(d * U[n - 1 - i] for i, d in enumerate(digits))
