"""In-memory span recorder for the traced run.

`install` wraps the package's public functions named in TRACED, replacing
them in every module namespace that binds them (attractors.prefix as well as
words.prefix), so calls made inside the package are recorded too, without
editing the package.  Each call records (name, start, end, parent span, op
id); self time is a span's duration minus the duration of its child spans.
block_length is deliberately not wrapped: rep calls it once per digit and the
wrapper would dominate.
"""

from __future__ import annotations

import functools
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterable

LYNDON_PUBLIC = ("lex_cmp", "gen_cmp", "smallest_period", "is_primitive",
                 "conjugates", "is_max_conjugate", "is_lyndon", "is_anti_lyndon",
                 "duval_factorization", "longest_anti_lyndon_prefix",
                 "anti_lyndon_root", "anti_lyndon_stream")

TRACED = {
    "words": ("prefix", "block"),
    "lyndon": LYNDON_PUBLIC,
    "numeration": ("rep", "val", "greedy_rep", "automatic_letter",
                   "reduce_parry", "is_greedy", "digit_ceiling"),
    "attractors": ("is_attractor", "attractor_for_prefix", "check_conditions",
                   "smallest_attractor", "power_prefix_len",
                   "power_prefix_len_direct", "candidate_attractor",
                   "window_start"),
    "cli": ("main",),
}

Count = Callable[[tuple, dict, Any], Iterable[tuple[str, int]]]


def _arg(args: tuple, kwargs: dict, i: int, name: str) -> Any:
    return args[i] if len(args) > i else kwargs[name]


def _search_counts(args: tuple, kwargs: dict, result: Any) -> Iterable[tuple[str, int]]:
    # Iterative deepening starts at the number of distinct letters, so it
    # tries (size - distinct + 1) target sizes.
    word = _arg(args, kwargs, 0, "word")
    yield "attractors.smallest_attractor.letters", len(word)
    yield "attractors.search_levels", result.size - len(set(word)) + 1


COUNTS: dict[str, Count] = {
    "words.prefix": lambda args, kwargs, result:
        [("words.prefix.letters", _arg(args, kwargs, 1, "m"))],
    "numeration.rep": lambda args, kwargs, result:
        [("numeration.rep.digits", len(result))],
    "attractors.is_attractor": lambda args, kwargs, result:
        [("attractors.is_attractor.letters", len(_arg(args, kwargs, 0, "word")))],
    "attractors.smallest_attractor": _search_counts,
}

class Recorder:
    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.stack: list[int] = []
        self.counts: Counter[str] = Counter()
        self.op = -1
        self.missing: list[str] = []  # TRACED names the package does not bind

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, counts = self.spans, self.stack, self.counts
        count = COUNTS.get(name)
        raised = f"{name}.raised."

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                counts[raised + type(exc).__name__] += 1
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, stack[-1] if stack else -1, self.op)
            if count is not None:
                for key, value in count(args, kwargs, result):
                    counts[key] += value
            return result

        return traced

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its child spans."""
        own = [t1 - t0 for _, t0, t1, _, _ in self.spans]
        for _, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= t1 - t0
        return own

    def summary(self) -> dict[str, float]:
        """Per-function and per-layer calls and self time, plus the counts."""
        out: Counter[str] = Counter(self.counts)
        for (name, *_), own in zip(self.spans, self.self_times()):
            layer = name.split(".", 1)[0]
            for key in (name, layer):
                out[key + ".calls"] += 1
                out[key + ".self_s"] += own
        out["attractors.power_prefix_len_direct.inconclusive"] = out[
            "attractors.power_prefix_len_direct.raised.InconclusiveError"]
        return dict(out)

    def write(self, path: Path, origin: float) -> None:
        """Every span as a tab-separated line, times relative to `origin`."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\top\tname\tstart_s\tend_s\tparent\tself_s\n")
            for i, ((name, t0, t1, parent, op), own) in enumerate(
                    zip(self.spans, self.self_times())):
                fh.write(f"{i}\t{op}\t{name}\t{t0 - origin:.7f}\t{t1 - origin:.7f}"
                         f"\t{parent}\t{own:.7f}\n")


def install(modules: dict[str, Any]) -> Recorder:
    """Wrap TRACED in every namespace of `modules` (the package and its
    modules, by name) that binds the original function.  A TRACED name the
    package no longer binds is listed in the recorder's `missing`."""
    rec = Recorder()
    for modname, names in TRACED.items():
        for fname in names:
            original = getattr(modules[modname], fname, None)
            if original is None:
                rec.missing.append(f"{modname}.{fname}")
                continue
            wrapper = rec.wrap(f"{modname}.{fname}", original)
            for namespace in modules.values():
                if vars(namespace).get(fname) is original:
                    setattr(namespace, fname, wrapper)
    return rec
