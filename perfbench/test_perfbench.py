"""The benchmark's own tests, on a tiny device.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (HERE, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import child  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

TINY = workloads.Workload(
    name="tiny", why="tests", schemes=("LazyFTL",),
    device=workloads.Device(num_blocks=96, pages_per_block=16,
                            page_size=512),
    stream="financial1", requests=300, precondition="steady",
)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


@pytest.fixture
def no_trace_cache(monkeypatch):
    """In-process replays must not touch the user's trace cache."""
    from repro.traces import cache

    monkeypatch.setattr(cache, "_cache", None)
    monkeypatch.setattr(cache, "_resolved", True)


def make_runner(directory, seed):
    os.makedirs(directory, exist_ok=True)
    inputs = workloads.write_inputs(TINY, seed, str(directory))
    return run.Runner(TINY, str(directory), inputs, time.monotonic() + 120)


def test_metric_names_are_well_formed():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    e2e = [m["name"] for m in bench["end_to_end"]]
    per_layer = [m["name"] for m in bench["per_layer"]]
    names = e2e + per_layer + [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names))
    for name in names + run.PER_LAYER + list(run.END_TO_END):
        assert NAME.match(name), name
    assert e2e == list(run.END_TO_END)
    assert per_layer == run.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == \
        list(workloads.BENCHMARK_WORKLOADS)


def test_same_seed_gives_identical_digests(tmp_path):
    first = make_runner(tmp_path / "a", 7).child("timed")
    second = make_runner(tmp_path / "b", 7).child("timed")
    scalar = make_runner(tmp_path / "c", 7).child("scalar")
    assert first["failure"] is None
    assert first["digest"] == second["digest"] == scalar["digest"]


def test_different_seed_changes_inputs():
    first = workloads.generate(TINY, 1)
    assert workloads.generate(TINY, 1) == first
    other = workloads.generate(TINY, 2)
    assert other["warmup"] != first["warmup"]
    assert other["measured"] != first["measured"]


def test_vectorized_epochs_count_pages_not_requests():
    from repro.traces.columnar import ColumnarTrace

    class Planner:
        def plan_epoch(self, cols, start, limit):
            return limit - start

        def execute_epoch(self, cols, start, h):
            return h

    cols = ColumnarTrace(ops=[1, 0, 1, 0], lpns=[0, 8, 16, 40],
                         npages=[1, 4, 2, 16])
    counters = {"epochs": 0, "vec_requests": 0, "vec_writes": 0,
                "vec_reads": 0, "plan_calls": 0}
    proxy = layers.Instrument(layers.Spans())._proxy(Planner(), counters)
    assert proxy.execute_epoch(cols, 1, 3) == 3
    assert counters["epochs"] == 1
    assert counters["vec_requests"] == 3
    assert counters["vec_writes"] == 2
    assert counters["vec_reads"] == 4 + 16


def test_traced_replay_reconciles(tmp_path):
    rep = make_runner(tmp_path, 5).child("layers")
    assert rep["failure"] is None
    assert rep["layers"]["per_scheme"]["LazyFTL"]["epochs"] > 0
    assert run.reconcile(rep) == []


def test_forced_out_of_blocks_counts_as_failed_ops(tmp_path, monkeypatch,
                                                    no_trace_cache):
    from repro.ftl.pool import BlockPool, OutOfBlocksError

    inputs = workloads.write_inputs(TINY, 3, str(tmp_path))
    spec = {"mode": "scalar", "schemes": list(TINY.schemes),
            "device": dataclasses.asdict(TINY.device),
            "files": inputs["files"]}
    reference = child.run(spec)
    assert reference["failure"] is None

    allocate = BlockPool.allocate
    calls = []

    def exhausted(pool):
        calls.append(1)
        if len(calls) > 12:
            raise OutOfBlocksError("forced exhaustion")
        return allocate(pool)

    monkeypatch.setattr(BlockPool, "allocate", exhausted)
    failed = child.run(dict(spec, mode="timed"))
    assert failed["failure"]["exception"] == "OutOfBlocksError"
    assert failed["failure"]["phase"] == "warm-up"

    class Replays:
        workload = TINY

        def __init__(self):
            self.inputs = inputs

        def child(self, mode):
            return reference if mode == "scalar" else failed

        def yardstick(self):
            return {"slowdown": 1.0}

    result = run.measure(Replays(), seconds=0)
    assert result["attempted"] == 3 * (inputs["page_ops"]["warmup"]
                                       + inputs["page_ops"]["measured"])
    assert result["failed"] == result["attempted"]
    assert result["correct"] is False
    assert result["metrics"]["ops_per_s"]["value"] == 0.0


def test_each_replay_is_rescaled_by_the_yardstick_runs_around_it():
    rep = {"mode": "timed", "canary_per_s": 1.0, "python": "3", "numpy": "2",
           "backend": "numpy", "failure": None, "digest": "d",
           "page_ops": 1000, "replay_s": 0.5, "setup_s": 0.3,
           "peak_rss_mib": 50.0, "pooled": {"count": 1, "p50_us": 1.0,
                                             "p999_us": 1.0},
           "schemes": {"LazyFTL": {
               "engaged": True, "redundant_invalidates": 0,
               "sim": {"device_busy_us": "10.0", "ftl": {"host_writes": 4},
                       "flash": {"page_programs": "6"}}}}}
    slowdowns = iter([1.0, 3.0, 1.0, 1.0])

    class Replays:
        workload = TINY
        inputs = {"page_ops": {"warmup": 10, "measured": 20},
                  "requests": {"warmup": 1, "measured": 2}}

        def child(self, mode):
            return rep

        def yardstick(self):
            return {"slowdown": next(slowdowns)}

    result = run.measure(Replays(), seconds=0)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert result["correct"] is True
    # Three timed replays; the yardstick runs around them average 2, 2, 1.
    assert metrics["ops_per_s"] == pytest.approx(1000 / 0.5 * 2.0)
    assert metrics["setup_s"] == pytest.approx(0.3 / 2.0)
    assert metrics["waf"] == pytest.approx(1.5)


def test_yardstick_is_independent_of_the_simulator():
    import yardstick

    with open(yardstick.__file__, encoding="utf-8") as stream:
        assert "repro" not in stream.read().replace("``repro``", "")
    parts = yardstick.measure()
    assert set(parts) == set(yardstick.NOMINAL) | {"slowdown"}
    assert parts["slowdown"] == pytest.approx(sum(
        parts[k] / v for k, v in yardstick.NOMINAL.items()) / 3)


def test_exits_nonzero_without_the_simulator_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oltp-steady",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
