"""One cold, single-threaded worker process of the benchmark.

Started by run.py, never by hand:

    python3 perfbench/child.py WORKLOAD SEED INDEX TRACE LIMIT SPAWNED

It imports the package from src/, generates its op list from (WORKLOAD,
SEED, INDEX), runs the ops back to back (a closed loop with one caller), and
prints one JSON document on stdout.  Set-up time runs from SPAWNED (the
parent's CLOCK_MONOTONIC reading just before it started this process) to the
first timed op.  LIMIT > 0 keeps LIMIT ops of every kind (self-check).  With
TRACE = 1 the package's public functions are wrapped by tracing.install and
the span table is written under perfbench/out/trace/.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def peak_rss_mb() -> float:
    """This process's peak resident set size.

    VmHWM belongs to the process image, whereas Linux carries ru_maxrss over
    exec from the forking parent, which would make a worker report the
    parent's size once the parent has grown.  ru_maxrss is the fallback where
    /proc is missing."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv: list[str]) -> int:
    name, seed, index, trace, limit, spawned = argv
    import tracing
    from workloads import WORKLOADS, load_package, worker_ops

    modules, pkg = load_package()
    workload = WORKLOADS[name]
    ops = worker_ops(name, int(seed), int(index), int(limit))
    ready = [workload.prepare(pkg, op) for op in ops]
    recorder = tracing.install(modules) if trace == "1" else None

    latencies: list[float] = []
    outputs: list = []
    errors: dict[int, str] = {}
    first = time.clock_gettime(time.CLOCK_MONOTONIC)
    start = perf_counter()
    for i, (op, arg) in enumerate(zip(ops, ready)):
        if recorder is not None:
            recorder.op = i
        t0 = perf_counter()
        try:
            result = workload.run(pkg, arg)
        except Exception as exc:  # an op that raises counts as failed
            latencies.append(perf_counter() - t0)
            errors[i] = f"{type(exc).__name__}: {exc}"
            outputs.append(None)
            continue
        latencies.append(perf_counter() - t0)
        outputs.append(workload.summarize(op, result))
        del result
    timed = perf_counter() - start

    doc = {
        "setup_s": first - float(spawned),
        "timed_s": timed,
        "peak_rss_mb": peak_rss_mb(),
        "latencies": latencies,
        "outputs": outputs,
        "errors": errors,
    }
    if recorder is not None:
        doc["layers"] = recorder.summary()
        doc["untraced"] = recorder.missing
        recorder.write(HERE / "out" / "trace" / f"{name}-seed{seed}-p{index}.tsv",
                       start)
    sys.stdout.write(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
