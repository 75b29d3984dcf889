"""The repository benchmark: replay one workload, check it, print metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload oltp-steady --seed 1 --seconds 25 \\
        --trace 0

The inputs are generated from ``--seed`` and written to trace files; the
simulator receives only those files.  Every replay runs in a fresh child
process (``child.py``) with a pinned environment, one client issuing each
request when the previous one completes (closed loop; the traces carry no
arrival times).

``--trace 0`` measures the end-to-end metrics with tracing off: timed
replays repeat for ``--seconds`` (at least three), one scalar replay is
the output check's reference, and each metric is the median over the
timed replays.  The fixed ``yardstick`` job runs in its own process
before every timed replay and after the last; each replay's host times
(for ``ops_per_s`` and ``setup_s``) are rescaled by the mean slowdown of
the two jobs around it, so they read as at the yardstick's nominal
machine speed.  The unscaled figures
are printed too.  ``--trace 1`` runs the outside-in layer trace plus the
untraced, tracer-attached and latency-recorder replays it is compared
with, and prints the per-layer metrics.

Host-time numbers measure the simulator.  Numbers prefixed ``sim`` are
simulated time of the modelled device; that model is unvalidated (no
real-hardware measurements exist here), so no error figure is given.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Exit status is 0 when
the benchmark ran (whatever it measured) and non-zero, with no result
line, when it could not run at all.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402
import yardstick  # noqa: E402

#: A run must end within this many seconds, set-up and checks included.
DEADLINE_S = 170.0
MIN_REPS = 3
MAX_REPS = 25

END_TO_END = {
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "sim_busy_s": "s",
    "waf": "ratio",
}

#: Environment the children may not inherit: replay mode and kernel
#: backend overrides, and the trace cache (turned off and pointed at a
#: private directory, so loading always parses the files).
PINNED_ENV = ("REPRO_REPLAY_MODE", "REPRO_BATCH_FALLBACK",
              "REPRO_TRACE_CACHE", "REPRO_TRACE_CACHE_DIR")


class BenchError(RuntimeError):
    """The benchmark could not run (not a measured failure)."""


class Runner:
    """Launches replay children for one workload and one seed."""

    def __init__(self, workload: workloads.Workload, workdir: str,
                 inputs: dict, deadline: float):
        self.workload = workload
        self.workdir = workdir
        self.inputs = inputs
        self.deadline = deadline
        self.env = child_env(workdir)
        self._specs = 0

    def child(self, mode: str, workload: Optional[workloads.Workload] = None,
              **extra: Any) -> Dict[str, Any]:
        workload = workload or self.workload
        spec = {
            "mode": mode,
            "schemes": list(workload.schemes),
            "device": dataclasses.asdict(workload.device),
            "files": self.inputs["files"],
            **extra,
        }
        self._specs += 1
        path = os.path.join(self.workdir, f"spec-{self._specs}.json")
        with open(path, "w", encoding="utf-8") as stream:
            json.dump(spec, stream)
        return self._launch(mode, [os.path.join(HERE, "child.py"), path])

    def yardstick(self) -> Dict[str, float]:
        """One run of the machine-speed yardstick job, in its own process."""
        return self._launch("yardstick",
                            [os.path.join(HERE, "yardstick.py")])

    def _launch(self, what: str, args: List[str]) -> Dict[str, Any]:
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError(f"out of time before the {what} run started")
        try:
            proc = subprocess.run(
                [sys.executable, *args],
                cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{what} run exceeded the time limit") \
                from exc
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-12:]
            raise BenchError(f"{what} run exited {proc.returncode}:\n"
                             + "\n".join(tail))
        return json.loads(proc.stdout.strip().splitlines()[-1])


def child_env(workdir: str) -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in PINNED_ENV}
    cache_dir = os.path.join(workdir, "trace-cache")
    os.makedirs(cache_dir, exist_ok=True)
    env["REPRO_TRACE_CACHE"] = "0"
    env["REPRO_TRACE_CACHE_DIR"] = cache_dir
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


# ----------------------------------------------------------------------
# Results of one replay
# ----------------------------------------------------------------------
def attempted_ops(inputs: dict, schemes: int) -> int:
    """Page ops a replay set out to serve (warm-up + measured, per scheme)."""
    return schemes * (inputs["page_ops"]["warmup"]
                      + inputs["page_ops"]["measured"])


def sim_totals(rep: Dict[str, Any]) -> Dict[str, float]:
    """Simulated busy time and write amplification over all schemes."""
    busy = programs = writes = 0.0
    for entry in rep["schemes"].values():
        sim = entry["sim"]
        busy += float(sim["device_busy_us"])
        programs += int(sim["flash"]["page_programs"])
        writes += sim["ftl"]["host_writes"]
    return {"sim_busy_s": busy / 1e6,
            "waf": programs / writes if writes else 0.0}


def invariants_hold(rep: Dict[str, Any]) -> bool:
    return all(e.get("redundant_invalidates", 0) == 0
               for e in rep["schemes"].values())


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def describe_failure(failure: Dict[str, Any]) -> str:
    return (f"{failure['scheme']} raised {failure['exception']} "
            f"({failure['message']}) at page op {failure['page_op']} of "
            f"{failure['page_ops']} in the {failure['phase']} phase; "
            "call path: " + " -> ".join(failure["call_path"]))


def provenance(rep: Dict[str, Any]) -> str:
    engaged = ", ".join(f"{s}={'yes' if e['engaged'] else 'no'}"
                        for s, e in rep["schemes"].items())
    return (f"provenance: python {rep['python']}, numpy {rep['numpy']}, "
            f"batch backend {rep['backend']}; engine_for engaged: {engaged}")


# ----------------------------------------------------------------------
# --trace 0: end-to-end metrics
# ----------------------------------------------------------------------
def measure(runner: Runner, seconds: float) -> Dict[str, Any]:
    workload = runner.workload
    inputs = runner.inputs
    reference = runner.child("scalar")
    reps: List[Dict[str, Any]] = []
    # The yardstick runs before every timed replay and after the last.
    speeds = [runner.yardstick()]
    start = time.monotonic()
    while len(reps) < MAX_REPS and (
            len(reps) < MIN_REPS or time.monotonic() - start < seconds):
        reps.append(runner.child("timed"))
        speeds.append(runner.yardstick())

    ref_digest = reference.get("digest")
    ops = attempted_ops(inputs, len(workload.schemes))
    attempted = ops * len(reps)
    failed = 0
    throughputs = []
    # Each replay's slowdown: the mean of the two yardstick jobs around it.
    slowdowns = [(a["slowdown"] + b["slowdown"]) / 2
                 for a, b in zip(speeds, speeds[1:])]
    for rep in reps:
        if (rep["failure"] is None and ref_digest is not None
                and rep.get("digest") == ref_digest and invariants_hold(rep)):
            throughputs.append(rep["page_ops"] / rep["replay_s"])
        else:
            failed += ops
            throughputs.append(0.0)
    setups = [r["setup_s"] for r in reps]
    correct = failed == 0 and invariants_hold(reference)

    first = reps[0]
    print(provenance(first))
    print(f"workload {workload.name}: {', '.join(workload.schemes)} on "
          f"{workload.device.label()}; closed loop, 1 client")
    print(f"inputs: warm-up ({workload.precondition}) "
          f"{inputs['page_ops']['warmup']} page ops in "
          f"{inputs['requests']['warmup']} requests, measured "
          f"{inputs['page_ops']['measured']} page ops in "
          f"{inputs['requests']['measured']} requests")
    print("canary (iterations/s, scales nothing): "
          + " ".join(f"{r['canary_per_s']:.0f}" for r in reps))
    print("replay s per timed run: "
          + " ".join(f"{r['replay_s']:.3f}" for r in reps))
    print("setup s per timed run: "
          + " ".join(f"{r['setup_s']:.3f}" for r in reps))
    print("yardstick slowdown around the timed replays (1.0 = nominal): "
          + " ".join(f"{s['slowdown']:.3f}" for s in speeds))
    for failure in {json.dumps(r["failure"], sort_keys=True)
                    for r in reps + [reference] if r["failure"]}:
        print("FAILED: " + describe_failure(json.loads(failure)))
    digests = sorted({r.get("digest") or "none" for r in reps})
    redundant = sum(e.get("redundant_invalidates", 0)
                    for r in reps + [reference] for e in r["schemes"].values())
    print(f"output check: scalar reference digest {ref_digest or 'none'}; "
          f"timed digests {', '.join(d[:16] for d in digests)}; "
          f"redundant invalidates {redundant} "
          f"-> {'PASS' if correct else 'FAIL'}")

    sim = sim_totals(reference) if ref_digest else \
        {"sim_busy_s": 0.0, "waf": 0.0}
    pooled = reference["pooled"]
    print(f"unscaled: ops_per_s {median(throughputs):.1f} 1/s, "
          f"setup_s {median(setups):.6f} s")
    metrics = {
        "ops_per_s": median([t * k for t, k in zip(throughputs, slowdowns)]),
        "setup_s": median([t / k for t, k in zip(setups, slowdowns)]),
        "peak_rss_mib": median([r["peak_rss_mib"] for r in reps]),
        "sim_busy_s": sim["sim_busy_s"],
        "waf": sim["waf"],
    }
    for name, value in metrics.items():
        print(f"{name:14s} {value:16.6f} {END_TO_END[name]}")
    print(f"sim_p50_us {pooled['p50_us']} us, sim_p999_us "
          f"{pooled['p999_us']} us over {pooled['count']} responses; "
          f"failed_frac {failed / attempted if attempted else 0.0:.4f} "
          f"({failed} of {attempted} page ops)")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": END_TO_END[k]}
                    for k, v in metrics.items()},
    }


# ----------------------------------------------------------------------
# --trace 1: per-layer metrics
# ----------------------------------------------------------------------
def _per_layer_names() -> List[str]:
    names = [
        "traces.load_s", "traces.page_ops",
        "sim.setup_s", "sim.heap_bytes_per_page", "sim.warm_up_s",
        "sim.run_s", "sim.dispatch_self_s", "sim.record_calls",
        "sim.record_s", "sim_p50_us", "sim_p999_us", "sim_samples",
        "perf.batch.engaged", "perf.batch.plan_calls", "perf.batch.epochs",
        "perf.batch.vectorized_frac", "perf.batch.plan_s",
        "perf.batch.execute_s",
        "core.write_calls", "core.read_calls", "core.write_s",
        "core.read_s", "core.write_self_s", "core.write_gc_calls",
        "core.write_gc_s",
    ]
    for call in ("lookup", "commit", "collect"):
        names += [f"core.mapping.{call}_s", f"core.mapping.{call}_calls"]
    names += [
        "core.gc_page_copies", "core.converts", "core.batched_commits",
        "core.map_reads", "core.map_writes", "core.sim_gc_us",
        "core.sim_mapping_commit_us", "core.sim_translation_read_us",
    ]
    for scheme in workloads.ALL_SCHEMES:
        names += [f"ftl.{scheme}.run_s", f"ftl.{scheme}.sim_busy_s",
                  f"ftl.{scheme}.merges"]
    names += [
        "ftl.pool.allocate_calls", "ftl.pool.min_free",
        "flash.page_reads", "flash.page_programs", "flash.block_erases",
        "flash.api_calls", "flash.api_s", "flash.api_frac",
        "flash.parallel.channel_wait_us", "flash.parallel.busy_imbalance",
        "flash.parallel.sim_speedup",
        "obs.tracer_slowdown", "bench.trace_overhead",
    ]
    return names


def unit_of(name: str) -> str:
    if name.endswith("_us"):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", "_slowdown", "_overhead", "_speedup",
                      "_imbalance")):
        return "ratio"
    if name.endswith("_per_page"):
        return "B/page"
    return "count"


PER_LAYER = _per_layer_names()


def layer_metrics(workload: workloads.Workload,
                  layers_rep: Dict[str, Any], timed: Dict[str, Any],
                  tracer: Dict[str, Any], latency: Dict[str, Any],
                  parallel: Dict[str, Any], speedup: float) -> Dict[str, Any]:
    report = layers_rep["layers"]
    spans = report["spans"]

    def total(name: str) -> float:
        return spans.get(name, {}).get("total_s", 0.0)

    def self_s(name: str) -> float:
        return spans.get(name, {}).get("self_s", 0.0)

    def calls(name: str) -> int:
        return spans.get(name, {}).get("calls", 0)

    per_scheme = report["per_scheme"]
    schemes = layers_rep["schemes"]
    requests = sum(e.get("requests", 0) for e in schemes.values())
    vec = sum(c["vec_requests"] for c in per_scheme.values())
    lazy = per_scheme.get("LazyFTL", {})
    lazy_ftl = schemes.get("LazyFTL", {}).get("sim", {}).get("ftl", {})
    causes = latency["schemes"].get("LazyFTL", {}).get("by_cause_us", {})
    replay_flash = [e.get("replay_flash", {}) for e in schemes.values()]
    flash_reads = sum(f.get("page_reads", 0) for f in replay_flash)
    flash_programs = sum(f.get("page_programs", 0) for f in replay_flash)
    api_rw = sum(c["api_programs"] + c["api_reads"]
                 for c in per_scheme.values())
    m: Dict[str, float] = {
        "traces.load_s": total("traces.load"),
        "traces.page_ops": layers_rep["loaded_page_ops"],
        "sim.setup_s": total("sim.setup"),
        "sim.heap_bytes_per_page": layers_rep["heap_bytes"] / (
            workload.device.physical_pages * len(workload.schemes)),
        "sim.warm_up_s": total("sim.warm_up"),
        "sim.run_s": total("sim.run"),
        "sim.dispatch_self_s": self_s("sim.warm_up") + self_s("sim.run"),
        "sim.record_calls": calls("sim.record"),
        "sim.record_s": total("sim.record"),
        "sim_p50_us": layers_rep["pooled"]["p50_us"],
        "sim_p999_us": layers_rep["pooled"]["p999_us"],
        "sim_samples": layers_rep["pooled"]["count"],
        "perf.batch.engaged": sum(1 for c in per_scheme.values()
                                  if c["engaged"]),
        "perf.batch.plan_calls": sum(c["plan_calls"]
                                     for c in per_scheme.values()),
        "perf.batch.epochs": sum(c["epochs"] for c in per_scheme.values()),
        "perf.batch.vectorized_frac": vec / requests if requests else 0.0,
        "perf.batch.plan_s": total("perf.batch.plan"),
        "perf.batch.execute_s": total("perf.batch.execute"),
        "core.write_calls": lazy.get("write_calls", 0),
        "core.read_calls": lazy.get("read_calls", 0),
        "core.write_s": total("core.write"),
        "core.read_s": total("core.read"),
        "core.write_self_s": self_s("core.write"),
        "core.write_gc_calls": report["write_gc_calls"],
        "core.write_gc_s": report["write_gc_s"],
        "core.sim_gc_us": causes.get("gc", 0.0),
        "core.sim_mapping_commit_us": causes.get("mapping_commit", 0.0),
        "core.sim_translation_read_us": causes.get("translation_read", 0.0),
        "ftl.pool.allocate_calls": report["pool_calls"],
        "ftl.pool.min_free": report["pool_min_free"] or 0,
        "flash.page_reads": flash_reads,
        "flash.page_programs": flash_programs,
        "flash.block_erases": sum(f.get("block_erases", 0)
                                  for f in replay_flash),
        "flash.api_calls": sum(c["api_calls"] for c in per_scheme.values()),
        "flash.api_s": total("flash.api"),
        "flash.api_frac": api_rw / (flash_reads + flash_programs)
        if flash_reads + flash_programs else 0.0,
        "flash.parallel.channel_wait_us": parallel.get("channel_wait_us",
                                                       0.0),
        "flash.parallel.busy_imbalance": parallel.get("busy_imbalance", 0.0),
        "flash.parallel.sim_speedup": speedup,
        "obs.tracer_slowdown": tracer["replay_s"] / timed["replay_s"],
        "bench.trace_overhead": layers_rep["replay_s"] / timed["replay_s"],
    }
    for call in ("lookup", "commit", "collect"):
        m[f"core.mapping.{call}_s"] = total(f"core.mapping.{call}")
        m[f"core.mapping.{call}_calls"] = calls(f"core.mapping.{call}")
    for field in ("gc_page_copies", "converts", "batched_commits",
                  "map_reads", "map_writes"):
        m[f"core.{field}"] = lazy_ftl.get(field, 0)
    for scheme in workloads.ALL_SCHEMES:
        entry = schemes.get(scheme, {})
        sim = entry.get("sim")
        m[f"ftl.{scheme}.run_s"] = entry.get("replay_s", 0.0)
        m[f"ftl.{scheme}.sim_busy_s"] = \
            float(sim["device_busy_us"]) / 1e6 if sim else 0.0
        m[f"ftl.{scheme}.merges"] = sum(
            sim["ftl"][k] for k in ("merges_full", "merges_partial",
                                    "merges_switch")) if sim else 0
    return m


def reconcile(layers_rep: Dict[str, Any]) -> List[str]:
    """Wrapped-call counts against the program's own counters."""
    problems = []
    per_scheme = layers_rep["layers"]["per_scheme"]
    for scheme, entry in layers_rep["schemes"].items():
        if "host_writes" not in entry:
            continue  # the replay raised; its counters stop mid-op
        c = per_scheme[scheme]
        if c["write_calls"] + c["vec_writes"] != entry["host_writes"]:
            problems.append(
                f"{scheme}: {c['write_calls']} wrapped writes + "
                f"{c['vec_writes']} vectorized != {entry['host_writes']} "
                "host writes")
        if c["read_calls"] + c["vec_reads"] != entry["host_reads"]:
            problems.append(
                f"{scheme}: {c['read_calls']} wrapped reads + "
                f"{c['vec_reads']} vectorized != {entry['host_reads']} "
                "host reads")
        programs = entry["replay_flash"]["page_programs"]
        if c["api_programs"] > programs:
            problems.append(f"{scheme}: {c['api_programs']} chip API "
                            f"programs > {programs} FlashStats programs")
    return problems


def trace_layers(runner: Runner) -> Dict[str, Any]:
    workload = runner.workload
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    spans_path = os.path.join(out_dir, f"spans-{workload.name}.bin")
    timed = runner.child("timed")
    layers_rep = runner.child("layers", spans_out=spans_path)
    latency = runner.child("latency")
    tracer = runner.child("tracer")

    # Parallel-device figures: from this workload when its device has
    # several units, else from its 4-channel sibling on the same inputs.
    parallel: Dict[str, Any] = {}
    speedup = 0.0
    serial = parallel_rep = None
    if workload.device.channels > 1:
        parallel_rep = timed
        if workload.sibling:
            serial = runner.child("timed",
                                  workloads.WORKLOADS[workload.sibling])
    elif workload.sibling:
        serial = timed
        parallel_rep = runner.child("timed",
                                    workloads.WORKLOADS[workload.sibling])
    # Only a replay that completed gives figures: one that raised stopped
    # part-way, so its figures would not describe the measured trace.
    if parallel_rep is not None and parallel_rep["failure"] is None:
        for entry in parallel_rep["schemes"].values():
            parallel = entry.get("parallel", {})
        if serial is not None and serial.get("digest"):
            speedup = sim_totals(serial)["sim_busy_s"] / \
                sim_totals(parallel_rep)["sim_busy_s"]

    problems = reconcile(layers_rep)
    failure = layers_rep["failure"]
    digests = {r["mode"]: r.get("digest")
               for r in (timed, layers_rep, latency, tracer)}
    if failure is None and len(set(digests.values())) != 1:
        problems.append("simulated results differ between replays: "
                        + ", ".join(f"{k}={(v or 'none')[:16]}"
                                    for k, v in digests.items()))
    if not all(invariants_hold(r) for r in (timed, layers_rep)):
        problems.append("FlashStats.redundant_invalidates != 0")
    metrics = layer_metrics(workload, layers_rep, timed,
                            tracer, latency, parallel, speedup)

    print(provenance(timed))
    print(f"workload {workload.name}: traced replay of "
          f"{layers_rep['layers']['span_count']} spans written to "
          f"{os.path.relpath(spans_path, ROOT)}")
    if failure:
        print("FAILED: " + describe_failure(failure))
    print("ftl.pool.min_free trace [host page ops, running min free]: "
          + json.dumps(layers_rep["layers"]["pool_trace"]))
    if parallel_rep is not None and parallel_rep is not timed \
            and parallel_rep["failure"]:
        print(f"{workload.sibling} replay FAILED: "
              + describe_failure(parallel_rep["failure"]))
    for line in problems:
        print("RECONCILIATION: " + line)
    print("reconciliation: " + ("PASS" if not problems else "FAIL"))
    for name in PER_LAYER:
        print(f"{name:36s} {metrics[name]:18.6f} {unit_of(name)}")

    attempted = attempted_ops(runner.inputs, len(workload.schemes))
    failed = attempted if failure or problems else 0
    return {
        "correct": not problems and failure is None,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": unit_of(k)}
                    for k in PER_LAYER},
    }


# ----------------------------------------------------------------------
def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="how long the timed replays repeat")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _terminated(signum: int, frame: Any) -> None:
    # SystemExit unwinds through subprocess.run, which kills and reaps the
    # running child, and through main's cleanup of the work directory.
    sys.exit(128 + signum)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminated)
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no simulator source under {ROOT}/src",
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    work_root = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=work_root)
    try:
        start = time.perf_counter()
        inputs = workloads.write_inputs(workload, args.seed, workdir)
        print(f"perfbench {workload.name} seed {args.seed}: inputs "
              f"generated in {time.perf_counter() - start:.2f} s")
        runner = Runner(workload, workdir, inputs, deadline)
        if args.trace:
            result = trace_layers(runner)
        else:
            result = measure(runner, args.seconds)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
