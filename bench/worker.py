"""One workload process: set up, run passes, print one JSON line.

Started by ``bench/run.py``, never by hand; each worker is a fresh process
so that set-up, memory and caches belong to one workload only.

    python3 bench/worker.py --workload NAME --seed N
        (--seconds S | --passes K | --setup-only) [--trace]

``--seconds`` runs passes until S seconds have gone by (at least
``MIN_PASSES``); ``--passes`` runs exactly K, so that traced counts repeat;
``--setup-only`` stops just before the first timed item.  The line printed
holds ``ready``, the CLOCK_MONOTONIC time of the first timed item, from
which the parent computes set-up time.

A fixed pure-Python reference loop runs before the first item of each pass
and after every item.  Each pass reports its wall and CPU seconds both as
measured and in units of the mean reference-loop time of that pass
(``wall_ref``, ``cpu_ref``).  A shared host's speed drifts by a quarter
within tens of seconds; the ratio to a yardstick timed alongside the pass
cancels that drift, while a change to flowbox moves the ratio by the same
share as it moves the seconds.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback

import workloads  # imports flowbox, which is part of the set-up time
from tracer import Tracer

MIN_PASSES = 3
MAX_MISSES_SHOWN = 5
REFERENCE_LOOPS = 100_000   # about 6 ms on a 2-core x86 VM


def reference_s() -> float:
    """Wall seconds of a fixed pure-Python loop, independent of flowbox."""
    t0 = time.perf_counter()
    total = 0
    for i in range(REFERENCE_LOOPS):
        total += i * i
    return time.perf_counter() - t0


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def run_item(item):
    """Time one item's call; check its output outside the timed region.

    Returns (wall seconds, cpu seconds, misses, fingerprint bytes).
    """
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    try:
        output = item.call()
    except Exception as exc:  # an item that raises counts as failed
        wall, cpu = time.perf_counter() - t0, _cpu_s() - cpu0
        where = traceback.extract_tb(exc.__traceback__)[-1]
        miss = (f"{item.label}: raised {exc!r} at "
                f"{where.filename}:{where.lineno}")
        return wall, cpu, [miss], repr(exc).encode()
    wall, cpu = time.perf_counter() - t0, _cpu_s() - cpu0
    try:
        misses, blob = item.check(output)
    except Exception as exc:  # a malformed output is a failed check
        return wall, cpu, [f"{item.label}: check raised {exc!r}"], b""
    return wall, cpu, [f"{item.label}: {m}" for m in misses], blob


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--seconds", type=float)
    mode.add_argument("--passes", type=int)
    mode.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    workload.setup()
    items = workload.pass_items(0)
    ready = time.monotonic()
    result = {"ready": ready}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    passes, misses, attempted, failed = [], [], 0, 0
    k = 0
    while True:
        wall = cpu = 0.0
        blobs = []
        yardsticks = [reference_s()]
        for item in items:
            w, c, item_misses, blob = run_item(item)
            yardsticks.append(reference_s())
            wall += w
            cpu += c
            blobs.append(blob)
            attempted += 1
            if item_misses:
                failed += 1
                misses += item_misses
        yardstick = sum(yardsticks) / len(yardsticks)
        passes.append({"wall_s": wall, "cpu_s": cpu,
                       "wall_ref": wall / yardstick,
                       "cpu_ref": cpu / yardstick,
                       "fingerprint": workloads.digest(blobs)})
        k += 1
        if args.passes is not None:
            if k >= args.passes:
                break
        elif k >= MIN_PASSES and time.monotonic() - ready >= args.seconds:
            break
        items = workload.pass_items(k)

    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.summary()
    result.update({
        "passes": passes,
        "attempted": attempted,
        "failed": failed,
        "misses": misses[:MAX_MISSES_SHOWN],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "fingerprint": workloads.digest(p["fingerprint"].encode()
                                        for p in passes),
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
