"""The four workloads: seeded input generation, the timed op, and the checks.

A workload generates one op list per worker process from a seeded
random.Random.  Generation uses only perfbench.family, so it never touches
the package caches.  `run` executes one op through the package's public
module namespaces (so a traced process sees every call), `summarize` turns
its result into a small JSON value outside the timed region, and `check`
judges that value in the parent process, with references that do not share
the code path being timed.  Each workload also knows one deliberately wrong
answer (`corrupt`) so that the self-check can show its checks fail.

Inputs are stratified (a seeded point inside each of a fixed set of strata)
so that two seeds give different inputs with the same cost profile.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Any, Callable

from family import (FAILING, FAMILY, PASSING, Digits, block_lengths,
                    digit_value, letter_at, passes, text)

Op = tuple  # (kind, digits, *arguments); JSON-free, regenerated by the parent


def load_package() -> tuple[dict[str, Any], SimpleNamespace]:
    """The package's modules by name, and the `pkg` namespace the workload
    functions take (those modules plus InconclusiveError).  The caller puts
    src/ on sys.path."""
    import parrywords
    from parrywords import attractors, cli, lyndon, numeration, words
    modules = {"parrywords": parrywords, "words": words, "lyndon": lyndon,
               "numeration": numeration, "attractors": attractors, "cli": cli}
    return modules, SimpleNamespace(**modules,
                                    InconclusiveError=parrywords.InconclusiveError)


def process_rng(name: str, seed: int, index: int) -> random.Random:
    """The generator of worker process `index` of a run with this seed."""
    return random.Random(f"{name}:{seed}:{index}")


def worker_ops(name: str, seed: int, index: int, limit: int = 0) -> list[Op]:
    """The op list of worker process `index`.  With `limit` > 0 only the
    first `limit` ops of each class (kind of op, and whether its word passes
    the conditions) are kept, in their order, so that a tiny run still
    covers every kind of op."""
    ops = WORKLOADS[name].generate(process_rng(name, seed, index))
    if limit <= 0:
        return ops
    seen: dict[tuple, int] = {}
    kept = []
    for op in ops:
        key = (op[0], passes(op[1]))
        seen[key] = seen.get(key, 0) + 1
        if seen[key] <= limit:
            kept.append(op)
    return kept


def _log_grid(rng: random.Random, count: int, lo: float, hi: float) -> list[int]:
    """One seeded point in each of `count` equal slices of [lo, hi] on a log
    scale, in increasing order."""
    span = math.log(hi / lo)
    return [int(lo * math.exp(span * (j + rng.random()) / count))
            for j in range(count)]


def _lin_grid(rng: random.Random, count: int, lo: int, hi: int) -> list[int]:
    """One seeded integer in each of `count` equal slices of [lo, hi]."""
    width = (hi - lo + 1) / count
    return [lo + int(width * (j + rng.random())) for j in range(count)]


def _deal(rng: random.Random, pool: tuple[Digits, ...], count: int) -> list[Digits]:
    """`count` words from the pool, cycling through seeded permutations so
    that every word appears equally often (to within one)."""
    out: list[Digits] = []
    while len(out) < count:
        order = list(pool)
        rng.shuffle(order)
        out.extend(order[:count - len(out)])
    return out


def _param_prepare(pkg: Any, op: Op) -> Op:
    """The op with its digit tuple turned into a ParamWord (set-up work)."""
    return (op[0], pkg.words.ParamWord(op[1]), *op[2:])


def _no_spots(pkg: Any, oracles: Any, rng: random.Random, ops: list[Op],
              outs: list[Any]) -> list[tuple[int, str]]:
    return []


@dataclass(frozen=True)
class Workload:
    """`pkg` below is the namespace made by load_package."""

    name: str
    why: str
    generate: Callable[[random.Random], list[Op]]
    run: Callable[[Any, Any], Any]
    summarize: Callable[[Op, Any], Any]
    check: Callable[[Any, Op, Any], str | None]
    corrupt: Callable[[Op, Any], Any]
    manifest: Callable[[list[Op], list[Any]], dict]
    prepare: Callable[[Any, Op], Any] = _param_prepare
    # Oracle re-checks on a seeded subsample: (op index, error) pairs.
    spots: Callable[[Any, Any, random.Random, list[Op], list[Any]],
                    list[tuple[int, str]]] = _no_spots


def _share(part: int, whole: int) -> float:
    return round(part / whole, 4) if whole else 0.0


def _common_manifest(ops: list[Op], letters: int) -> dict:
    return {
        "ops": len(ops),
        "total_letters": letters,
        "distinct_words": len({op[1] for op in ops}),
        "passing_share": _share(sum(passes(op[1]) for op in ops), len(ops)),
    }


# ---------------------------------------------------------------------------
# verify-long: Gamma_n verification on long prefixes
# ---------------------------------------------------------------------------
# Exercises the verification path of `attractors` (suffix array, lcp walk);
# the other layers do little.  m <= 5000 because the suffix array is
# quadratic at this commit.

VERIFY_POSITIVE = 32
VERIFY_NEGATIVE = 8
VERIFY_M = (500, 5000)


def _negative_pool() -> tuple[tuple[Digits, int], ...]:
    """(c, n) with U_{n+1} in [500, 3500], so that the tightness prefix of
    length Q_n + 1 stays within about [500, 5000]; sorted by U_{n+1}."""
    pool = []
    for c in PASSING:
        U = block_lengths(c, 40)
        pool.extend((U[n + 1], c, n) for n in range(40) if 500 <= U[n + 1] <= 3500)
    return tuple((c, n) for _, c, n in sorted(pool))


NEGATIVE_POOL = _negative_pool()


def _verify_generate(rng: random.Random) -> list[Op]:
    words = _deal(rng, PASSING, VERIFY_POSITIVE)
    ops: list[Op] = [("pos", c, m) for c, m in
                     zip(words, _log_grid(rng, VERIFY_POSITIVE, *VERIFY_M))]
    width = len(NEGATIVE_POOL) / VERIFY_NEGATIVE
    for j in range(VERIFY_NEGATIVE):
        c, n = NEGATIVE_POOL[int(width * (j + rng.random()))]
        ops.append(("neg", c, n))
    rng.shuffle(ops)
    return ops


def _verify_run(pkg: Any, op: Op) -> Any:
    kind, c, arg = op
    w, a = pkg.words, pkg.attractors
    if kind == "pos":
        word = w.prefix(c, arg)
        gamma = a.attractor_for_prefix(c, arg)
        return a.is_attractor(word, gamma), gamma
    q = a.power_prefix_len(c, arg)
    return a.is_attractor(w.prefix(c, q + 1), a.candidate_attractor(c, arg)), q


def _verify_summarize(op: Op, result: Any) -> Any:
    ok, extra = result
    if op[0] == "pos":
        return [ok, list(extra.positions)]
    return [ok, extra]


def _verify_check(pkg: Any, op: Op, out: Any) -> str | None:
    kind, c, arg = op
    pc = pkg.words.ParamWord(c)
    a = pkg.attractors
    if kind == "neg":
        if out != [False, a.power_prefix_len(pc, arg)]:
            return f"Gamma_{arg} of {text(c)} must fail one letter past Q_n: {out}"
        return None
    ok, positions = out
    k = len(c)
    if ok is not True:
        return f"Gamma for {text(c)} at m={arg} does not attract: {out}"
    if not positions or positions[-1] > arg or len(positions) > k + 1:
        return f"Gamma for {text(c)} at m={arg} has a bad shape: {positions}"
    n = 0
    while a.window_start(pc, n) <= arg:
        if arg <= a.power_prefix_len(pc, n) and len(positions) > k:
            return f"size {len(positions)} > k inside window {n} at m={arg}"
        n += 1
    return None


def _verify_spots(pkg: Any, oracles: Any, rng: random.Random, ops: list[Op],
                  outs: list[Any]) -> list[tuple[int, str]]:
    """Re-check Gamma on a short prefix (m <= 60) of one sampled op's word
    against the brute-force definition check."""
    positives = [i for i, op in enumerate(ops) if op[0] == "pos"]
    if not positives:
        return []
    i = rng.choice(positives)
    pc = pkg.words.ParamWord(ops[i][1])
    m = rng.randint(2, 60)
    word = pkg.words.prefix(pc, m)
    gamma = pkg.attractors.attractor_for_prefix(pc, m)
    lib = pkg.attractors.is_attractor(word, gamma)
    ref = oracles.ref_is_attractor(word, gamma.positions)
    if lib is not True or ref is not True:
        return [(i, f"m={m}: is_attractor {lib}, oracle {ref}")]
    return []


def _verify_corrupt(op: Op, out: Any) -> Any:
    return [not out[0], out[1]]


def _verify_manifest(ops: list[Op], outs: list[Any]) -> dict:
    letters = sum(op[2] if op[0] == "pos" else out[1] + 1
                  for op, out in zip(ops, outs)
                  if isinstance(out, list))
    manifest = _common_manifest(ops, letters)
    manifest["negative_share"] = _share(sum(op[0] == "neg" for op in ops), len(ops))
    return manifest


# ---------------------------------------------------------------------------
# exact-search: minimal attractors through the CLI
# ---------------------------------------------------------------------------
# The search path of `attractors` and the only workload that uses `cli`.
# Passing words are dealt evenly over k = 2, 3, 4 with m log-spread over
# [20, 200], except that k = 4 stops at m = 100: beyond it one search takes
# 0.1-4.5 s and varies a hundredfold between words, so a run of seconds could
# not sample it steadily.  Words failing the conditions stay at m <= 40:
# their search is exponential.

SEARCH_PASSING_M = {2: (20, 200), 3: (20, 200), 4: (20, 100)}
SEARCH_PER_K = 30
SEARCH_FAILING = 30
SEARCH_FAILING_M = (10, 40)
PASSING_BY_K = {k: tuple(c for c in PASSING if len(c) == k) for k in SEARCH_PASSING_M}


def _search_generate(rng: random.Random) -> list[Op]:
    ops: list[Op] = []
    for k, (lo, hi) in SEARCH_PASSING_M.items():
        ops += [("pass", c, m) for c, m in zip(
            _deal(rng, PASSING_BY_K[k], SEARCH_PER_K),
            _log_grid(rng, SEARCH_PER_K, lo, hi + 1))]
    ops += [("fail", c, m) for c, m in zip(
        _deal(rng, FAILING, SEARCH_FAILING),
        _lin_grid(rng, SEARCH_FAILING, *SEARCH_FAILING_M))]
    rng.shuffle(ops)
    return ops


def _search_prepare(pkg: Any, op: Op) -> Any:
    return ["attractor", text(op[1]), str(op[2]), "--minimal", "--json"]


def _search_run(pkg: Any, argv: list[str]) -> Any:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = pkg.cli.main(argv)
    return rc, buf.getvalue()


def _search_summarize(op: Op, result: Any) -> Any:
    return list(result)


def _search_check(pkg: Any, op: Op, out: Any) -> str | None:
    kind, c, m = op
    rc, stdout = out
    if rc != 0:
        return f"exit code {rc}"
    try:
        doc = json.loads(stdout)
    except ValueError:
        return f"output is not JSON: {stdout[:80]!r}"
    want = {"schema": 1, "params": text(c), "prefix_len": m, "minimal": True,
            "zero_based": False}
    if any(doc.get(key) != value for key, value in want.items()):
        return f"unexpected header fields: {doc}"
    positions, size = doc.get("positions"), doc.get("size")
    if not isinstance(positions, list) or len(positions) != size:
        return f"size {size} does not match positions {positions}"
    pc = pkg.words.ParamWord(c)
    a = pkg.attractors
    if kind == "pass" and size != a.expected_profile_size(pc, m):
        return f"size {size} != expected {a.expected_profile_size(pc, m)}"
    if not a.is_attractor(pkg.words.prefix(pc, m), positions):
        return f"witness {positions} is not an attractor"
    return None


def _search_spots(pkg: Any, oracles: Any, rng: random.Random, ops: list[Op],
                  outs: list[Any]) -> list[tuple[int, str]]:
    """Compare one sampled op with the lexicographically least brute-force
    witness: its own output when m <= 12, else a search on its word at a
    seeded m <= 12."""
    i = rng.randrange(len(ops))
    c, m = ops[i][1], ops[i][2]
    if m <= 12:
        try:
            got = json.loads(outs[i][1])["positions"]
        except (ValueError, KeyError, TypeError):
            return []  # the op's own check reports a malformed result
    else:
        m = rng.randint(2, 12)
        got = pkg.attractors.smallest_attractor(
            pkg.words.prefix(pkg.words.ParamWord(c), m)).positions
    least = min(oracles.ref_min_attractors(pkg.words.prefix(pkg.words.ParamWord(c), m))[1])
    if tuple(got) != least:
        return [(i, f"m={m}: witness {tuple(got)}, oracle {least}")]
    return []


def _search_corrupt(op: Op, out: Any) -> Any:
    doc = json.loads(out[1])
    doc["positions"].pop()
    doc["size"] -= 1
    return [out[0], json.dumps(doc)]


def _search_manifest(ops: list[Op], outs: list[Any]) -> dict:
    return _common_manifest(ops, sum(op[2] for op in ops))


# ---------------------------------------------------------------------------
# numeration: Dumont-Thomas rep/val and the Parry reduction
# ---------------------------------------------------------------------------
# Runs `numeration` and `lyndon` and bypasses `attractors` (except one
# cached check_conditions per word); from `words` it uses only block_length.

NUMERATION_MIX = (("roundtrip", 7000), ("greedy", 1000), ("letter", 1000), ("reduce", 1000))
NUMERATION_MAX = 10 ** 30


def _numeration_generate(rng: random.Random) -> list[Op]:
    ops: list[Op] = []
    for kind, count in NUMERATION_MIX:
        words = _deal(rng, FAMILY, count)
        if kind == "reduce":
            ops += [(kind, c) for c in words]
        else:
            ns = _log_grid(rng, count, 1, NUMERATION_MAX)
            ops += [(kind, c, n) for c, n in zip(words, ns)]
    rng.shuffle(ops)
    return ops


def _numeration_run(pkg: Any, op: Op) -> Any:
    num = pkg.numeration
    kind, c = op[0], op[1]
    if kind == "roundtrip":
        digits = num.rep(c, op[2])
        return digits, num.val(c, digits)
    if kind == "greedy":
        return num.greedy_rep(c, op[2])
    if kind == "letter":
        return num.automatic_letter(c, op[2])
    report = pkg.attractors.check_conditions(c)
    return report.holds, num.reduce_parry(c) if report.holds else None


def _numeration_summarize(op: Op, result: Any) -> Any:
    kind = op[0]
    if kind == "roundtrip":
        return [list(result[0]), result[1]]
    if kind == "greedy":
        return list(result)
    if kind == "letter":
        return result
    holds, red = result
    if red is None:
        return [holds, None]
    return [holds, [list(red.cprime.digits), red.power, list(red.root), red.beta]]


def _numeration_check(pkg: Any, op: Op, out: Any) -> str | None:
    kind, c = op[0], op[1]
    if kind == "roundtrip":
        digits, value = out
        if value != op[2] or digit_value(c, tuple(digits)) != op[2]:
            return f"val(rep({op[2]})) = {value} for {text(c)}"
        return None
    if kind == "greedy":
        if digit_value(c, tuple(out)) != op[2]:
            return f"greedy digits {out} do not sum to {op[2]}"
        if passes(c) and tuple(out) != pkg.numeration.rep(pkg.words.ParamWord(c), op[2]):
            return f"greedy {text(c)} but greedy_rep != rep at {op[2]}"
        return None
    if kind == "letter":
        want = letter_at(c, op[2])
        return None if out == want else f"letter {op[2]} is {out}, want {want}"
    holds, red = out
    if holds != passes(c):
        return f"conditions report {holds} for {text(c)}"
    if red is None:
        return None if not holds else "no reduction for a greedy word"
    cprime, power, root, beta = red
    dec = list(c[:-1] + (c[-1] - 1,))
    if root * power != dec or cprime != root[:-1] + [root[-1] + 1]:
        return f"reduction {red} does not match {text(c)}"
    if not beta > 1 or abs(sum(d / beta ** (i + 1) for i, d in enumerate(cprime)) - 1) > 1e-9:
        return f"beta {beta} is not the Parry number of {cprime}"
    return None


def _numeration_corrupt(op: Op, out: Any) -> Any:
    kind = op[0]
    if kind == "roundtrip":
        return [out[0], out[1] + 1]
    if kind == "greedy":
        return out[:-1] + [out[-1] + 1] if out else [1]
    if kind == "letter":
        return out + 1
    return [not out[0], out[1]]


def _numeration_manifest(ops: list[Op], outs: list[Any]) -> dict:
    manifest = _common_manifest(ops, 0)
    manifest["total_digits"] = sum(
        len(out[0] if op[0] == "roundtrip" else out) for op, out in zip(ops, outs)
        if op[0] in ("roundtrip", "greedy") and isinstance(out, list))
    manifest["kind_shares"] = {
        kind: _share(sum(op[0] == kind for op in ops), len(ops))
        for kind, _ in NUMERATION_MIX}
    return manifest


# ---------------------------------------------------------------------------
# fixed-point: fractional powers and cold prefixes
# ---------------------------------------------------------------------------
# Grows the `words` caches (the other workloads mostly read them warm) and is
# the memory-heavy workload; the byte-buffer words layer shows its gain here.
# A quarter of the ops are cold prefixes.  With a tenth, p90 fell on the edge
# between prefix ops and the large pairs, where latency drops steeply with
# rank, and moved by up to a third between series of runs; at a quarter it
# lies inside the prefix ops' stratified log grid.

FIXED_N = range(9)
FIXED_STRATA = 12
FIXED_PREFIXES = 36
FIXED_PREFIX_M = (10 ** 4, 10 ** 6)
FIXED_SAMPLES = 8


def _direct_letters(c: Digits, n: int) -> int:
    """Letters power_prefix_len_direct(c, n) compares: its default cap."""
    return 4 * block_lengths(c, n + 1)[n + 1]


# For each n, the family sorted by that work and cut into FIXED_STRATA
# strata.  A worker takes one word from every stratum at every n, so its
# largest caches (which set its peak memory) vary little between seeds.
FIXED_BY_SIZE = {n: sorted(FAMILY, key=lambda c, n=n: _direct_letters(c, n))
                 for n in FIXED_N}


def _fixed_generate(rng: random.Random) -> list[Op]:
    used: set[Digits] = set()
    ops: list[Op] = []
    for n in reversed(FIXED_N):
        order = FIXED_BY_SIZE[n]
        for g in range(FIXED_STRATA):
            stratum = order[len(order) * g // FIXED_STRATA:
                            len(order) * (g + 1) // FIXED_STRATA]
            c = rng.choice([c for c in stratum if c not in used])
            used.add(c)
            ops.append(("pair", c, n))
    rest = [c for c in FAMILY if c not in used]
    rng.shuffle(rest)
    for c, m in zip(rest, _log_grid(rng, FIXED_PREFIXES, *FIXED_PREFIX_M)):
        spots = tuple(sorted({0, m - 1, *(rng.randrange(m) for _ in range(FIXED_SAMPLES - 2))}))
        ops.append(("prefix", c, m, spots))
    rng.shuffle(ops)
    return ops


def _fixed_run(pkg: Any, op: Op) -> Any:
    a = pkg.attractors
    if op[0] == "pair":
        _, c, n = op
        try:
            direct = a.power_prefix_len_direct(c, n)
        except pkg.InconclusiveError:
            direct = None
        return direct, a.power_prefix_len(c, n)
    return pkg.words.prefix(op[1], op[2])


def _fixed_summarize(op: Op, result: Any) -> Any:
    if op[0] == "pair":
        return list(result)
    return [len(result), [result[i] for i in op[3]]]


def _fixed_check(pkg: Any, op: Op, out: Any) -> str | None:
    c = op[1]
    if op[0] == "pair":
        direct, formula = out
        if direct is None:
            return f"inconclusive on passing {text(c)}" if passes(c) else None
        return None if direct == formula else f"direct {direct} != formula {formula}"
    length, letters = out
    pc = pkg.words.ParamWord(c)
    want = [pkg.numeration.automatic_letter(pc, i) for i in op[3]]
    if length != op[2] or letters != want:
        return f"prefix letters {letters} at {op[3]} != {want}"
    return None


def _fixed_corrupt(op: Op, out: Any) -> Any:
    if op[0] == "pair":
        return [out[0], out[1] + 1] if out[0] is not None else [out[1] + 1, out[1]]
    return [out[0], [(x + 1) % len(op[1]) for x in out[1]]]


def _fixed_manifest(ops: list[Op], outs: list[Any]) -> dict:
    letters = sum(op[2] for op in ops if op[0] == "prefix")
    manifest = _common_manifest(ops, letters)
    manifest["cold_prefix_share"] = _share(sum(op[0] == "prefix" for op in ops), len(ops))
    manifest["inconclusive_share"] = _share(
        sum(op[0] == "pair" and isinstance(out, list) and out[0] is None
            for op, out in zip(ops, outs)), len(ops))
    return manifest


WORKLOADS = {w.name: w for w in (
    Workload("verify-long",
             "is_attractor on Gamma_n over prefixes of 500-5000 letters, a fifth "
             "tightness negatives: the attractors verification path",
             _verify_generate, _verify_run, _verify_summarize, _verify_check,
             _verify_corrupt, _verify_manifest, spots=_verify_spots),
    Workload("exact-search",
             "in-process CLI minimal attractor search at m <= 200 (k = 4: <= 100, "
             "failing words: <= 40): the exact search path, the only cli user",
             _search_generate, _search_run, _search_summarize, _search_check,
             _search_corrupt, _search_manifest, prepare=_search_prepare,
             spots=_search_spots),
    Workload("numeration",
             "rep/val round trips to 10^30 plus greedy_rep, automatic_letter and "
             "Parry reduction: numeration and lyndon, no attractors",
             _numeration_generate, _numeration_run, _numeration_summarize,
             _numeration_check, _numeration_corrupt, _numeration_manifest),
    Workload("fixed-point",
             "criterion-06 fractional-power pairs for n <= 8 plus cold prefixes up "
             "to 10^6 letters: grows the words caches, the memory-heavy workload",
             _fixed_generate, _fixed_run, _fixed_summarize, _fixed_check,
             _fixed_corrupt, _fixed_manifest),
)}
