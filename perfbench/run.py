"""parrywords benchmark: run one workload, check every output, print metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it needs src/parrywords and
tests/oracles.py and exits with code 2 without a result when they are
missing.  Workloads: verify-long, exact-search, numeration, fixed-point (see
workloads.py for why each exists).

A run starts worker processes (child.py) one after another, never two at
once.  Each is a fresh, cold, single-threaded interpreter that runs one
fixed-size op list generated from (workload, seed, process index) back to
back: a closed loop with one caller, like a research script or a CLI batch.
Processes are started until their timed work adds up to S seconds, and at
least three, so that set-up is measured at least three times.  Afterwards
this process checks every output against references that do not share the
timed code path; an op that raised, returned a wrong answer, or ran in a
worker that exited non-zero counts as failed.

With --trace 0 the result holds the end-to-end metrics: ops_per_s,
op_p50_ms and op_p90_ms over all ops, the median peak RSS of a worker
(peak_rss_mb), and the median set-up time of a worker (setup_s: process
start, import and input generation up to the first timed op).  The share of
failed ops is the result's `failed` over `attempted`.

With --trace 1 an untraced and a traced worker alternate on the same inputs.
The result holds the per-layer metrics, each the mean over the traced
workers (so counts and seconds are per worker op list), and
trace.overhead_ratio, the untraced ops_per_s over the traced one.  Metric
names and units are read from BENCHMARK.json at the checkout's root.

The last line of stdout is the result JSON; the full record (manifest of the
inputs, environment, per-worker figures, failures) is written under
perfbench/out/results/.  Timings hold only for the machine they were taken on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from workloads import WORKLOADS, worker_ops  # noqa: E402

MIN_PROCESSES = 3
# Workers stop being started after this much wall time, and one still
# running then is killed, so that a run always ends within 180 s.
BUDGET_S = 140.0


def declared(kind: str) -> dict[str, str]:
    """Name -> unit of the `end_to_end` or `per_layer` metrics of
    BENCHMARK.json, in its order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


class NoResult(Exception):
    """Every worker failed, so there is nothing to measure."""


def spawn(name: str, seed: int, index: int, traced: bool, limit: int,
          deadline: float) -> dict:
    """Run one worker to completion; a failed worker yields {"failed": why}."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    argv = [sys.executable, str(HERE / "child.py"), name, str(seed), str(index),
            "1" if traced else "0", str(limit), repr(spawned)]
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return {"failed": "worker killed at the run's time budget"}
    if proc.returncode != 0:
        return {"failed": f"worker exited {proc.returncode}: {proc.stderr[-2000:]}"}
    try:
        return json.loads(proc.stdout)
    except ValueError:
        return {"failed": f"unreadable worker output: {proc.stdout[:200]!r}"}


def run_workers(name: str, seed: int, seconds: float, trace: bool,
                limit: int = 0, min_processes: int = MIN_PROCESSES) -> list[dict]:
    """Workers one at a time until `seconds` of timed work; with `trace`, an
    untraced and a traced worker per process index."""
    deadline = time.monotonic() + BUDGET_S
    docs: list[dict] = []
    timed = 0.0
    index = 0
    while index < min_processes or timed < seconds:
        if time.monotonic() >= deadline:
            break
        for traced in ((False, True) if trace else (False,)):
            doc = spawn(name, seed, index, traced, limit, deadline)
            doc.update(index=index, traced=traced)
            docs.append(doc)
            timed += doc.get("timed_s", 0.0)
        index += 1
    return docs


def load_package() -> tuple[SimpleNamespace, object]:
    """The `pkg` namespace and tests/oracles.py, for the checks."""
    for path in (str(ROOT / "tests"), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    import oracles
    return workloads.load_package()[1], oracles


def check_worker(pkg, oracles, name: str, seed: int, doc: dict,
                 limit: int) -> tuple[list, list, dict[int, str]]:
    """(ops, outputs, failures by op index) of one worker."""
    workload = WORKLOADS[name]
    ops = worker_ops(name, seed, doc["index"], limit)
    if "failed" in doc:
        return ops, [None] * len(ops), {i: doc["failed"] for i in range(len(ops))}
    outs = doc["outputs"]
    failures = {int(i): why for i, why in doc["errors"].items()}
    failures.update((i, "no output") for i in range(len(outs), len(ops)))
    for i, (op, out) in enumerate(zip(ops, outs)):
        if i in failures:
            continue
        try:
            why = workload.check(pkg, op, out)
        except Exception as exc:  # a malformed output must not stop the run
            why = f"check raised {type(exc).__name__}: {exc}"
        if why is not None:
            failures[i] = why
    spot_rng = random.Random(f"spots:{name}:{seed}:{doc['index']}")
    try:
        spots = workload.spots(pkg, oracles, spot_rng, ops, outs)
    except Exception as exc:
        spots = [(0, f"oracle re-check raised {type(exc).__name__}: {exc}")]
    for i, why in spots:
        failures.setdefault(i, why)
    return ops, outs, failures


def throughput(docs: list[dict]) -> float:
    ops = sum(len(d["latencies"]) for d in docs)
    return ops / sum(d["timed_s"] for d in docs)


def end_to_end(docs: list[dict]) -> dict[str, float]:
    latencies = [x for d in docs for x in d["latencies"]]
    deciles = statistics.quantiles(latencies, n=10)
    return {
        "ops_per_s": throughput(docs),
        "op_p50_ms": deciles[4] * 1e3,
        "op_p90_ms": deciles[8] * 1e3,
        "peak_rss_mb": statistics.median(d["peak_rss_mb"] for d in docs),
        "setup_s": statistics.median(d["setup_s"] for d in docs),
    }


def per_layer(plain: list[dict], traced: list[dict],
              metrics: dict[str, str]) -> dict[str, float]:
    """Mean per traced worker of every recorded figure (0 where a worker did
    not record it), and the overhead."""
    names = {key for d in traced for key in d["layers"]} | set(metrics)
    out = {key: statistics.fmean(d["layers"].get(key, 0.0) for d in traced)
           for key in sorted(names)}
    out["trace.overhead_ratio"] = throughput(plain) / throughput(traced)
    return out


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    nproc = os.cpu_count()
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": nproc,
        "platform": platform.platform(),
        "note": f"timings hold for this {nproc}-core machine only",
    }


def run(name: str, seed: int, seconds: float, trace: bool, limit: int = 0,
        min_processes: int = MIN_PROCESSES, corrupt: bool = False) -> dict:
    """One benchmark run: workers, checks, metrics, and the full record.
    `corrupt` replaces the first output with the workload's wrong answer
    before checking (self-check only)."""
    workload = WORKLOADS[name]
    docs = run_workers(name, seed, seconds, trace, limit, min_processes)
    pkg, oracles = load_package()
    if corrupt and "outputs" in docs[0]:
        ops = worker_ops(name, seed, 0, limit)
        docs[0]["outputs"][0] = workload.corrupt(ops[0], docs[0]["outputs"][0])
    all_ops: list = []
    all_outs: list = []
    failures = []
    attempted = 0
    for doc in docs:
        ops, outs, failed = check_worker(pkg, oracles, name, seed, doc, limit)
        attempted += len(ops)
        if not doc["traced"]:
            all_ops += ops
            all_outs += outs
        failures += [{"process": doc["index"], "traced": doc["traced"], "op": i,
                      "why": why} for i, why in sorted(failed.items())]
    good = [d for d in docs if "failed" not in d]
    plain = [d for d in good if not d["traced"]]
    traced = [d for d in good if d["traced"]]
    if not plain or (trace and not traced):
        raise NoResult(f"no worker completed: {docs[0].get('failed')}")
    units = declared("per_layer" if trace else "end_to_end")
    values = per_layer(plain, traced, units) if trace else end_to_end(plain)
    record = {
        "workload": name, "why": workload.why, "seed": seed, "seconds": seconds,
        "trace": trace,
        "load": "closed loop, one caller, one single-threaded worker at a time",
        "manifest": {"seed": seed, "processes": len(plain),
                     "ops_per_process": len(all_ops) // (len(docs) // (2 if trace else 1)),
                     **workload.manifest(all_ops, all_outs)},
        "latency_samples": sum(len(d["latencies"]) for d in plain),
        "environment": environment(),
        "workers": [{key: d.get(key) for key in
                     ("index", "traced", "setup_s", "timed_s", "peak_rss_mb", "failed")}
                    for d in docs],
        "failures": failures,
        # TRACED functions the package no longer binds: their figures read 0.
        "untraced": sorted({n for d in traced for n in d.get("untraced", ())}),
        "result": {
            "correct": not failures,
            "attempted": attempted,
            "failed": len(failures),
            "metrics": {key: {"value": values[key], "unit": units[key]} for key in units},
        },
    }
    if trace:
        record["layers"] = values
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in ("BENCHMARK.json", "src/parrywords/__init__.py",
                           "tests/oracles.py")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not a parrywords checkout, missing {missing}",
              file=sys.stderr)
        return 2

    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except NoResult as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    out = HERE / "out" / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")

    result = record["result"]
    print(f"workload {args.workload}: {record['why']}")
    print(f"manifest: {json.dumps(record['manifest'], sort_keys=True)}")
    print(f"environment: {json.dumps(record['environment'], sort_keys=True)}")
    print(f"latency samples: {record['latency_samples']}; failed_ops: "
          f"{result['failed']} of {result['attempted']} attempted")
    for failure in record["failures"][:10]:
        print(f"FAILED {failure}")
    if record["untraced"]:
        print(f"WARNING: not traced, gone from the package: {record['untraced']}")
    if args.trace:
        for depth, title in ((1, "layer"), (2, "function")):
            own = sorted(((v, k) for k, v in record["layers"].items()
                          if k.endswith(".self_s") and k.count(".") == depth),
                         reverse=True)
            print(f"{title} self time per worker: "
                  + ", ".join(f"{k} {v:.4f} s" for v, k in own[:6]))
    print(f"record: {out.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
