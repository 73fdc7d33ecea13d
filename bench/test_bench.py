"""Tests of the benchmark itself, at tiny size.

    python3 -m pytest bench -q
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)

# One metric per layer that the workload must exercise, and one it must bypass.
USED_AND_BYPASSED = {
    "recoupling-grid": ("polycore._raw_mul.calls", "polycore.MultiForm._make.self_s"),
    "form-syzygies": ("transvectant.transvect.calls", "wigner.ninej_operator.us_per_call"),
    "sym-relations": ("symgroup.generator_matrices.self_s", "polycore._raw_mul.calls"),
}


def bench(*args, root=ROOT):
    return subprocess.run([sys.executable, os.path.join(root, "bench", "run.py"), *args],
                          cwd=root, capture_output=True, text=True, timeout=600)


def tiny(workload, trace, seed=3):
    out = bench("--workload", workload, "--seed", str(seed), "--seconds", "0",
                "--trace", str(trace), "--size", "tiny")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    with open(os.path.join(run.RESULTS, f"{workload}-seed{seed}-tiny-trace{trace}.json")) as fh:
        record = json.load(fh)
    return out.stdout, result, record


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_reports_every_metric(workload, trace):
    stdout, result, record = tiny(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert record["fail_ratio"] == 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    lines = stdout.splitlines()
    for name, m in result["metrics"].items():
        assert any(line.split()[0] == name and line.split()[-1] == m["unit"] for line in lines)
    for key in ("python", "nproc", "git_commit", "seed", "items", "items_by_kind",
                "item_tail_percentile", "item_tail_samples_beyond", "digest", "oracle"):
        assert key in record
    if trace:
        used, bypassed = USED_AND_BYPASSED[workload]
        assert result["metrics"][used]["value"] > 0
        assert result["metrics"][bypassed]["value"] == 0


def test_same_seed_same_digest():
    digests = [tiny("recoupling-grid", 0, seed)[2]["digest"] for seed in (5, 5, 6)]
    assert digests[0] == digests[1] != digests[2]


def test_oracle_checks_the_sample():
    assert tiny("recoupling-grid", 0)[2]["oracle"] == {
        "status": "checked", "arrays": 18, "mismatches": []}


def test_wrong_expected_value_counts_as_failure(monkeypatch):
    monkeypatch.setattr(workloads, "RELATION_D5", (32, 100, 25, -181))
    items = workloads.build("sym-relations", 0, "tiny")
    out = worker.run_items(items)
    assert [f["kind"] for f in out["failures"]] == ["conjecture"]
    assert len(out["latencies_s"]) == len(items)


def test_raising_item_counts_as_failure():
    def boom():
        raise ValueError("no")

    out = worker.run_items([("x", boom, ()), ("y", lambda: (True, 1), ())])
    assert [f["kind"] for f in out["failures"]] == ["x"]


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    os.mkdir(tmp_path / "bench")
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            shutil.copy(os.path.join(HERE, name), tmp_path / "bench")
    out = bench("--workload", "sym-relations", "--seed", "1", "--seconds", "1",
                "--trace", "0", "--size", "tiny", root=str(tmp_path))
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_grid_is_the_full_set_of_small_arrays():
    assert len(workloads.grid_arrays(workloads.GRID_TWICE_MAX)) == workloads.GRID_ARRAY_COUNT


def test_tail_percentile_has_ten_samples_beyond():
    for n in (20, 62, 480, 999, 1000, 6450, 10000):
        p, rank = run.tail_rank(n)
        assert n - rank >= 10
        higher = [q for q in run.TAIL_LADDER if q > p]
        if higher:
            assert n - -(-round(min(higher) * 10) * n // 1000) < 10
    assert run.tail_rank(6450) == (99.0, 6386)


def test_spec_matches_the_code():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == \
        [entry[:3] for entry in tracing.LAYER_METRICS]
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS) == list(workloads.BUILDERS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + list(run.WORKLOADS)
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert all(m["bound"] < setup["bound"] for m in SPEC["end_to_end"] if m is not setup)
