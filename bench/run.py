"""The binform benchmark.

    python3 bench/run.py --workload recoupling-grid --seed 1 --seconds 30 --trace 0

Repeats one workload in fresh interpreters (`worker.py`), one at a time, so
every repetition starts with the package's caches cold, as a command-line
user meets them.  Repetitions start while the next one is expected to end
within `--seconds`.  On a shared machine interference only ever adds time,
and it comes in bursts, so timings are minima over repetitions: `wall_s` is
the fastest repetition's, and each item's latency is its fastest of the
repetitions before the median and tail are taken over items.  Set-up time
is the median of at least nine set-ups, memory the median over repetitions.

`--trace 0` reports the end-to-end metrics.  `--trace 1` alternates
untraced and traced repetitions and reports the per-layer metrics of the
fastest traced one, plus the tracing overhead.  Every metric is printed by name
with its unit; the last stdout line is the JSON result, and the full record
with provenance goes to `bench/results/`.

Exit status is 0 only when every repetition ran; a wrong result is reported
through `correct`, `failed` and `fail_ratio`, not through the exit status.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter

from tracing import LAYER_METRICS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")

WORKLOADS = ("recoupling-grid", "form-syzygies", "sym-relations")

# (name, unit) of the end-to-end metrics, in the order BENCHMARK.json lists them.
END_TO_END = (
    ("wall_s", "s"),
    ("item_p50_ms", "ms"),
    ("item_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("pass_ratio", "ratio"),
)

# Percentiles item_tail_ms may use; it takes the highest with at least ten
# samples beyond it, so the choice depends only on the workload's item count.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
SETUP_SAMPLES = 9
CHILD_TIMEOUT_S = 150


def tail_rank(n: int):
    """(percentile, 1-based nearest rank) for item_tail_ms over n items."""
    for p in TAIL_LADDER:
        rank = -(-round(p * 10) * n // 1000)
        if n - rank >= 10:
            return p, rank
    return 50.0, max(1, -(-n // 2))


def git_commit() -> str:
    """The checkout's commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.exists(ref_file):
            with open(ref_file) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def spawn(workload: str, seed: int, size: str, mode: str, spans=None):
    """Run one worker; returns (setup seconds, parsed result or None)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--size", size, "--mode", mode]
    if spans:
        cmd += ["--spans", spans]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        first = proc.stdout.readline()
        setup_s = perf_counter() - t0
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0 or first.strip() != "READY":
        raise RuntimeError(f"worker ({mode}) failed with exit {proc.returncode}:\n{err.strip()}")
    if mode == "setup":
        return setup_s, None
    return setup_s, json.loads(out.strip().splitlines()[-1])


def oracle_check(seed: int, size: str) -> dict:
    """Compare a seeded sample of recoupling-grid 9-j values against sympy's
    exact wigner_9j, which shares no code with either package route."""
    try:
        from sympy import Rational
        from sympy.physics.wigner import wigner_9j
    except ImportError:
        return {"status": "skipped", "reason": "sympy is not installed"}
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import binform
    import workloads

    items = workloads.build("recoupling-grid", seed, size)
    rng = binform.seeding.stream(seed, "bench", "oracle")
    grid = [args[0] for kind, _fn, args in items if kind == "grid"]
    large = [args[0] for kind, _fn, args in items if kind == "large"]
    sample = rng.sample(grid, min(16, len(grid))) + rng.sample(large, min(4, len(large)))
    mismatches = []
    for rows in sample:
        got = binform.ninej_operator(binform.NineJArray(rows))
        want = wigner_9j(*(Rational(v.numerator, v.denominator) for row in rows for v in row),
                         prec=None)
        square = got.coeff ** 2 * got.radicand
        same = (want ** 2 == Rational(square.numerator, square.denominator)
                and (want > 0) == (got.coeff > 0) and (want < 0) == (got.coeff < 0))
        if not same:
            mismatches.append(f"{rows}: package {got}, sympy {want}")
    return {"status": "checked", "arrays": len(sample), "mismatches": mismatches}


def percentile_summary(latencies):
    ordered = sorted(latencies)
    p, rank = tail_rank(len(ordered))
    return {
        "p50_ms": 1e3 * statistics.median(ordered),
        "tail_ms": 1e3 * ordered[rank - 1],
        "tail_percentile": p,
        "tail_samples_beyond": len(ordered) - rank,
        "samples": len(ordered),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny is for the benchmark's own tests")
    args = p.parse_args(argv)
    os.makedirs(RESULTS, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-{args.size}"

    oracle = (oracle_check(args.seed, args.size) if args.workload == "recoupling-grid"
              else {"status": "not applicable", "reason": "no 9-j arrays in this workload"})

    # Untraced and, with --trace 1, traced repetitions alternate.
    reps = {"run": [], "traced": []}
    setups = []
    deadline = perf_counter() + args.seconds
    while True:
        mode = "traced" if args.trace and len(reps["traced"]) < len(reps["run"]) else "run"
        spans = os.path.join(RESULTS, f"{tag}-spans.csv.gz") if mode == "traced" else None
        t0 = perf_counter()
        setup_s, rep = spawn(args.workload, args.seed, args.size, mode, spans)
        took = perf_counter() - t0
        setups.append(setup_s)
        reps[mode].append(rep)
        done = reps["run"] and (not args.trace or reps["traced"])
        if done and perf_counter() + took > deadline:
            break
    while not args.trace and len(setups) < SETUP_SAMPLES:
        setups.append(spawn(args.workload, args.seed, args.size, "setup")[0])

    all_reps = reps["run"] + reps["traced"]
    first = all_reps[0]
    attempted = len(first["latencies_s"])
    failed = len(first["failures"])
    digests = sorted({r["digest"] for r in all_reps})
    failures_agree = all(r["failures"] == first["failures"] for r in all_reps)
    correct = (failed == 0 and failures_agree and len(digests) == 1
               and not oracle.get("mismatches"))

    summary = percentile_summary([min(t) for t in zip(*(r["latencies_s"] for r in reps["run"]))])
    walls = [r["wall_s"] for r in reps["run"]]
    metrics = {}
    if args.trace:
        fastest = min(reps["traced"], key=lambda r: r["wall_s"])
        for name, unit, _better, _moves in LAYER_METRICS:
            if name == "bench.trace_overhead_s":
                value = fastest["wall_s"] - min(walls)
            else:
                value = fastest["layers"][name]
            metrics[name] = {"value": value, "unit": unit}
    else:
        values = {
            "wall_s": min(walls),
            "item_p50_ms": summary["p50_ms"],
            "item_tail_ms": summary["tail_ms"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps["run"]),
            "pass_ratio": (attempted - failed) / attempted,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seed_note": ("deterministic workload: the seed changes no input"
                      if args.workload == "sym-relations" else "inputs generated from the seed"),
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "items": attempted,
        "items_by_kind": first["items_by_kind"],
        "item_tail_percentile": summary["tail_percentile"],
        "item_tail_samples_beyond": summary["tail_samples_beyond"],
        "repetitions": {"untraced": len(reps["run"]), "traced": len(reps["traced"])},
        "setup_samples": len(setups),
        "fail_ratio": failed / attempted,
        "failures": first["failures"][:20],
        "digest": digests[0] if len(digests) == 1 else digests,
        "oracle": oracle,
        "metrics": metrics,
        "per_repetition": [dict(percentile_summary(r["latencies_s"]), wall_s=r["wall_s"])
                           for r in reps["run"]],
    }
    if args.trace:
        record["last_traced_spans"] = os.path.relpath(
            os.path.join(RESULTS, f"{tag}-spans.csv.gz"), ROOT)
        record["traced_wall_s"] = [r["wall_s"] for r in reps["traced"]]
        record["predictions"] = {name: moves for name, _u, _b, moves in LAYER_METRICS}
    out_path = os.path.join(RESULTS, f"{tag}-trace{args.trace}.json")
    with open(out_path, "w") as fh:
        json.dump(record, fh, indent=1)

    for key in ("workload", "seed", "seed_note", "python", "nproc", "git_commit", "items",
                "items_by_kind", "item_tail_percentile", "item_tail_samples_beyond",
                "repetitions", "fail_ratio", "digest"):
        print(f"# {key}: {record[key]}")
    print(f"# oracle: {oracle}")
    for name, m in metrics.items():
        print(f"{name:44s} {m['value']:>16.6f} {m['unit']}")
    print(f"# record: {os.path.relpath(out_path, ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
