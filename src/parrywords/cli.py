"""Command line interface.

Exit codes: 0 on success, 1 on usage errors, 2 on domain errors (invalid
parameter words, values outside an operation's scope, exceeded caps).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from typing import Sequence

from . import attractors, numeration, words
from .errors import Error
from .words import ParamWord, format_symbols, parse_symbols

SCHEMA = 1


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; this package reserves 2 for
    domain errors, so usage problems exit 1 instead."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _emit_json(payload: dict) -> None:
    payload = {"schema": SCHEMA, **payload}
    print(json.dumps(payload, sort_keys=True, ensure_ascii=False))


def _bool(value: bool) -> str:
    return "true" if value else "false"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_words(args: argparse.Namespace) -> int:
    c = ParamWord.parse(args.params)
    if args.prefix is not None:
        w = words.prefix(c, args.prefix)
        if args.json:
            _emit_json({"params": str(c), "prefix_len": args.prefix,
                        "prefix": format_symbols(w)})
        else:
            print(format_symbols(w))
        return 0
    # every block is a prefix of the last, so an oversized table is refused
    # before any row is built
    top = words.block(c, args.upto)
    rows = [(n, length, format_symbols(top[:length]))
            for n, length in enumerate(words.lengths(c, args.upto))]
    if args.json:
        _emit_json({"params": str(c), "rows": [
            {"n": n, "length": length, "word": word} for n, length, word in rows
        ]})
    else:
        print("n\tlength\tword")
        for n, length, word in rows:
            print(f"{n}\t{length}\t{word}")
    return 0


def _cmd_rep(args: argparse.Namespace) -> int:
    c = ParamWord.parse(args.params)
    digits = (numeration.greedy_rep(c, args.n) if args.greedy
              else numeration.rep(c, args.n))
    if args.json:
        _emit_json({"params": str(c), "n": args.n, "greedy": args.greedy,
                    "digits": format_symbols(digits)})
    else:
        print(format_symbols(digits))
    return 0


def _cmd_val(args: argparse.Namespace) -> int:
    c = ParamWord.parse(args.params)
    digits = parse_symbols(args.digits)
    n = (numeration.val_unchecked(c, digits) if args.unchecked
         else numeration.val(c, digits))
    if args.json:
        _emit_json({"params": str(c), "digits": format_symbols(digits),
                    "value": n, "unchecked": args.unchecked})
    else:
        print(n)
    return 0


def _cmd_automaton(args: argparse.Namespace) -> int:
    c = ParamWord.parse(args.params)
    auto = numeration.build_automaton(c)
    if args.dot:
        sys.stdout.write(auto.to_dot())
    elif args.json:
        _emit_json({"params": str(c), "states": auto.k, "transitions": [
            {"from": s, "digit": d, "to": t} for s, d, t in auto.transitions()
        ]})
    else:
        for s, d, t in auto.transitions():
            print(f"{s} -{d}-> {t}")
    return 0


def _positions_out(att: attractors.Attractor, zero_based: bool) -> list[int]:
    return list(att.zero_based() if zero_based else att.positions)


def _cmd_attractor(args: argparse.Namespace) -> int:
    c = ParamWord.parse(args.params)
    if args.minimal:
        att = attractors.smallest_attractor(words.prefix(c, args.m), cap=args.cap)
    else:
        att = attractors.attractor_for_prefix(c, args.m)
    pos = _positions_out(att, args.zero_based)
    if args.json:
        _emit_json({"params": str(c), "prefix_len": args.m,
                    "minimal": args.minimal, "zero_based": args.zero_based,
                    "size": att.size, "positions": pos})
    else:
        print(" ".join(str(p) for p in pos))
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    c = ParamWord.parse(args.params)
    result = attractors.profile(c, args.m_max, cap=args.cap)
    if args.json:
        _emit_json({"params": str(c), "m_max": args.m_max,
                    "truncated_at": result.truncated_at,
                    "zero_based": args.zero_based,
                    "rows": [{"m": e.prefix_len, "size": e.size,
                              "positions": _positions_out(e.witness, args.zero_based)}
                             for e in result.entries]})
    else:
        print("m\tsize\tpositions")
        for e in result.entries:
            pos = ",".join(str(p) for p in _positions_out(e.witness, args.zero_based))
            print(f"{e.prefix_len}\t{e.size}\t{pos}")
        if result.truncated_at is not None:
            print(f"# truncated at the exact-search cap {result.truncated_at}")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    c = ParamWord.parse(args.params)
    report = attractors.check_conditions(c)
    reduction = numeration.reduce_parry(c) if report.holds else None
    if args.json:
        payload = {"params": str(c),
                   "frac_power_ok": report.frac_power_ok,
                   "ceiling_ok": report.ceiling_ok,
                   "max_conjugate": report.max_conjugate,
                   "greedy": report.greedy,
                   "holds": report.holds,
                   "checked_upto": report.checked_upto,
                   "reduction": None}
        if reduction is not None:
            payload["reduction"] = {"cprime": str(reduction.cprime),
                                    "root": format_symbols(reduction.root),
                                    "power": reduction.power,
                                    "beta": reduction.beta}
        _emit_json(payload)
    else:
        print(f"params: {c}")
        print(f"frac_power_ok: {_bool(report.frac_power_ok)}")
        print(f"ceiling_ok: {_bool(report.ceiling_ok)}")
        print(f"max_conjugate: {_bool(report.max_conjugate)}")
        print(f"greedy: {_bool(report.greedy)}")
        print(f"holds: {_bool(report.holds)}")
        if reduction is not None:
            print(f"root: {format_symbols(reduction.root)}")
            print(f"power: {reduction.power}")
            print(f"cprime: {reduction.cprime}")
            print(f"beta: {reduction.beta!r}")
    return 0


def _sweep_row(task: tuple[tuple[int, ...], int, int]) -> dict:
    digits, m_max, cap = task
    c = ParamWord(digits)
    report = attractors.check_conditions(c)
    row: dict = {"c": str(c), "k": c.k,
                 "frac_power_ok": report.frac_power_ok,
                 "ceiling_ok": report.ceiling_ok,
                 "max_conjugate": report.max_conjugate,
                 "greedy": report.greedy,
                 "minimal_family": None, "conjecture": None}
    if report.holds:
        row["minimal_family"] = attractors.windows_cover_all(c)
        if m_max > 0:
            verdict = attractors.conjecture_report(c, m_max, cap=cap)
            row["conjecture"] = "agree" if verdict.all_agree else "disagree"
    return row


_SWEEP_COLUMNS = ("c", "k", "frac_power_ok", "ceiling_ok", "max_conjugate",
                  "greedy", "minimal_family", "conjecture")


def _k_range(text: str) -> tuple[int, ...]:
    try:
        if ".." in text:
            lo, hi = text.split("..")
            ks = tuple(range(int(lo), int(hi) + 1))
        else:
            ks = (int(text),)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"cannot parse alphabet-size range from {text!r}") from None
    if not ks:
        raise argparse.ArgumentTypeError(f"empty alphabet-size range {text!r}")
    return ks


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:  # argparse's own wording for type=int
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _non_negative(text: str) -> int:
    value = _int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _jobs(text: str) -> int:
    value = _int(text)
    cpus = os.cpu_count() or 1
    if not 1 <= value <= cpus:
        raise argparse.ArgumentTypeError(
            f"must be between 1 and the {cpus} CPUs, got {value}")
    return value


def _cmd_sweep(args: argparse.Namespace) -> int:
    tasks = [(c.digits, args.m_max, args.cap)
             for c in words.iter_params(args.k, args.digit_max)]
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(_sweep_row, tasks))
    else:
        rows = [_sweep_row(t) for t in tasks]
    if args.format == "json":
        text = json.dumps({"schema": SCHEMA, "rows": rows},
                          sort_keys=True, ensure_ascii=False) + "\n"
    else:
        buf = io.StringIO()
        buf.write(f"# schema: {SCHEMA}\n")
        writer = csv.DictWriter(buf, fieldnames=_SWEEP_COLUMNS)
        writer.writeheader()
        for row in rows:
            out = dict(row)
            for key in ("frac_power_ok", "ceiling_ok", "max_conjugate",
                        "greedy", "minimal_family"):
                if out[key] is not None:
                    out[key] = _bool(out[key])
            for key in ("minimal_family", "conjecture"):
                if out[key] is None:
                    out[key] = ""
            writer.writerow(out)
        text = buf.getvalue()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------

def _build_parser() -> _Parser:
    parser = _Parser(prog="parrywords",
                     description="Numeration systems and string attractors of "
                                 "fixed points of simple Parry morphisms.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("words", help="building blocks, lengths, or a prefix")
    p.add_argument("params", help='parameter word, e.g. "102" or "12.0.3"')
    p.add_argument("--upto", type=_non_negative, default=5, metavar="N",
                   help="print blocks 0..N (default 5)")
    p.add_argument("--prefix", type=int, metavar="M",
                   help="print the length-M prefix of the fixed point instead")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_words)

    p = sub.add_parser("rep", help="representation of an integer")
    p.add_argument("params")
    p.add_argument("n", type=int)
    p.add_argument("--greedy", action="store_true",
                   help="Euclidean greedy representation instead")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_rep)

    p = sub.add_parser("val", help="value of a digit word")
    p.add_argument("params")
    p.add_argument("digits", help='digit word, e.g. "1011" ("ε" for empty)')
    p.add_argument("--unchecked", action="store_true",
                   help="evaluate even outside the numeration language")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_val)

    p = sub.add_parser("automaton", help="numeration automaton")
    p.add_argument("params")
    p.add_argument("--dot", action="store_true", help="emit Graphviz DOT")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_automaton)

    p = sub.add_parser("attractor", help="attractor of a fixed-point prefix")
    p.add_argument("params")
    p.add_argument("m", type=int, help="prefix length")
    p.add_argument("--minimal", action="store_true",
                   help="exact minimum attractor instead of the guaranteed one")
    p.add_argument("--zero-based", action="store_true")
    p.add_argument("--cap", type=int, default=200,
                   help="exact-search length cap (default 200)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_attractor)

    p = sub.add_parser("profile", help="minimal attractor sizes of all prefixes")
    p.add_argument("params")
    p.add_argument("m_max", type=int)
    p.add_argument("--cap", type=int, default=200)
    p.add_argument("--zero-based", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("check", help="greediness conditions and Parry reduction")
    p.add_argument("params")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("sweep", help="batch report over a parameter family")
    p.add_argument("--k", type=_k_range, required=True, metavar="RANGE",
                   help='alphabet sizes, e.g. "3" or "2..4"')
    p.add_argument("--digit-max", type=_non_negative, required=True)
    p.add_argument("--mmax", dest="m_max", type=int, default=0,
                   help="check the expected-size formula up to this prefix "
                        "length (0 skips it)")
    p.add_argument("--cap", type=int, default=200)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", metavar="PATH", help="write to a file instead of stdout")
    p.add_argument("--jobs", type=_jobs, default=1,
                   help="parallel worker processes (default 1)")
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
