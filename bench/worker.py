"""One repetition of one workload, in a fresh interpreter with cold caches.

Run by `run.py`, never by hand.  The process imports `binform` from the
checkout's `src/`, generates the workload's inputs from the seed, prints
`READY` and flushes, then runs every item once on this one thread.  Its last
stdout line is a JSON object with the item latencies, failures, the result
digest and the peak resident memory.

Modes: `run` (untraced), `traced` (spans at every layer boundary) and
`setup` (stop after READY, to sample set-up time).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def import_package():
    sys.path.insert(0, SRC)
    import binform

    where = os.path.dirname(os.path.abspath(binform.__file__))
    if where != os.path.join(SRC, "binform"):
        raise SystemExit(f"binform imported from {where}, not from {SRC}")
    return binform


def run_items(items, tracer=None) -> dict:
    """Run every item once, in order.  A wrong result or an exception counts
    as a failed item and the run goes on."""
    digest = hashlib.sha256()
    latencies = []
    failures = []
    kinds = {}
    t_begin = perf_counter()
    for index, (kind, fn, fn_args) in enumerate(items):
        t0 = perf_counter()
        try:
            if tracer is None:
                ok, value = fn(*fn_args)
            else:
                ok, value = tracer.run_item(index, kind, fn, fn_args)
        except Exception as exc:
            ok, value = False, f"raised {exc!r}"
        latencies.append(perf_counter() - t0)
        if not ok:
            failures.append({"item": index, "kind": kind, "detail": str(value)[:200]})
        digest.update(f"{index}:{ok}:{value!r}\n".encode())
        kinds[kind] = kinds.get(kind, 0) + 1
    return {
        "wall_s": perf_counter() - t_begin,
        "latencies_s": latencies,
        "failures": failures,
        "items_by_kind": kinds,
        "digest": digest.hexdigest(),
    }


def main() -> None:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", default="full")
    p.add_argument("--mode", choices=("run", "traced", "setup"), default="run")
    p.add_argument("--spans", help="file for the traced run's spans (gzip CSV)")
    args = p.parse_args()

    import_package()
    import tracing
    import workloads

    items = workloads.build(args.workload, args.seed, args.size)
    tracer = None
    if args.mode == "traced":
        tracer = tracing.Tracer()
        tracer.install()
    print("READY", flush=True)
    if args.mode == "setup":
        return

    result = run_items(items, tracer)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer.totals(), tracing.cache_readings())
        result["spans"] = len(tracer.name)
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
