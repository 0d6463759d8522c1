"""Brute-force reference implementations used to cross-check the library.

Everything here works from first principles on plain digit tuples and makes
no calls into parrywords, so a bug in the library cannot hide in its own
oracle.  All of it is exponential or quadratic and meant for tiny inputs.
"""

from itertools import combinations


def ref_image(digits, letter):
    """Image of a single letter under the morphism for c = digits."""
    k = len(digits)
    if letter == k - 1:
        return (0,) * digits[letter]
    return (0,) * digits[letter] + (letter + 1,)


def ref_block(digits, n):
    """n-th iterate of the morphism on the seed letter 0."""
    w = (0,)
    for _ in range(n):
        w = tuple(a for letter in w for a in ref_image(digits, letter))
    return w


def ref_prefix(digits, m):
    """Length-m prefix of the fixed point, by iterating until long enough."""
    w = (0,)
    while len(w) < m:
        grown = tuple(a for letter in w for a in ref_image(digits, letter))
        if len(grown) == len(w):
            raise AssertionError("morphism stopped growing")
        w = grown
    return w[:m]


def ref_rep(digits, n):
    """Representation of n from the word-greedy factorization of the
    length-n prefix: peel the largest block power block by block."""
    if n == 0:
        return ()
    target = ref_prefix(digits, n)
    blocks = [ref_block(digits, 0)]
    while len(blocks[-1]) < n:
        blocks.append(ref_block(digits, len(blocks)))
    top = max(i for i, b in enumerate(blocks) if len(b) <= n)
    rest = target
    out = []
    for i in range(top, -1, -1):
        b = blocks[i]
        count = 0
        while len(rest) >= len(b) and rest[: len(b)] == b:
            count += 1
            rest = rest[len(b):]
        out.append(count)
    assert rest == ()
    return tuple(out)


def ref_power_prefix_len(digits, n):
    """Length of the longest common prefix of the fixed point and the n-th
    block repeated forever, by direct letter comparison."""
    b = ref_block(digits, n)
    m = len(b)
    length = 0
    while True:
        u = ref_prefix(digits, length + 1)
        if u[length] != b[length % m]:
            return length
        length += 1


def ref_rotations(w):
    return [tuple(w[i:]) + tuple(w[:i]) for i in range(len(w))]


def ref_is_primitive(w):
    w = tuple(w)
    n = len(w)
    for p in range(1, n):
        if n % p == 0 and w == w[:p] * (n // p):
            return False
    return n > 0


def ref_is_anti_lyndon(w):
    """Primitive and >= every rotation in the standard order."""
    w = tuple(w)
    return ref_is_primitive(w) and all(w >= r for r in ref_rotations(w))


def ref_is_lyndon(w):
    w = tuple(w)
    return ref_is_primitive(w) and all(w <= r for r in ref_rotations(w))


def ref_occurrences(w, factor):
    f = tuple(factor)
    return [j for j in range(len(w) - len(f) + 1) if tuple(w[j:j + len(f)]) == f]


def ref_suffix_array(w):
    """Start positions of the suffixes of w in lexicographic order, by
    sorting the suffixes themselves (quadratic time and memory)."""
    return sorted(range(len(w)), key=lambda i: tuple(w[i:]))


def ref_is_attractor(w, positions):
    """Definition check: every factor must have an occurrence crossing one
    of the 1-based positions."""
    w = tuple(w)
    pos0 = [p - 1 for p in positions]
    m = len(w)
    for length in range(1, m + 1):
        seen = set()
        for j in range(m - length + 1):
            f = w[j:j + length]
            if f in seen:
                continue
            seen.add(f)
            occs = ref_occurrences(w, f)
            if not any(j2 <= p <= j2 + length - 1 for j2 in occs for p in pos0):
                return False
    return True


def ref_min_attractors(w):
    """(size, all witnesses) of the minimum string attractors, 1-based,
    by exhaustive search over position subsets in size order."""
    w = tuple(w)
    m = len(w)
    for size in range(1, m + 1):
        found = [tuple(p + 1 for p in combo)
                 for combo in combinations(range(m), size)
                 if ref_is_attractor(w, [p + 1 for p in combo])]
        if found:
            return size, found
    raise AssertionError("no attractor up to full size, impossible")


def ref_all_lyndon_factorizations(w, smaller):
    """All factorizations of w into non-increasing Lyndon words under the
    comparison `smaller(a, b)` meaning a < b; used for uniqueness checks."""
    w = tuple(w)
    n = len(w)

    def lyndon(v):
        if not ref_is_primitive(v):
            return False
        return all(not smaller(r, v) for r in ref_rotations(v))

    results = []

    def go(start, prev, acc):
        if start == n:
            results.append(list(acc))
            return
        for end in range(start + 1, n + 1):
            f = w[start:end]
            if lyndon(f) and (prev is None or not smaller(prev, f)):
                acc.append(f)
                go(end, f, acc)
                acc.pop()

    go(0, None, [])
    return results
