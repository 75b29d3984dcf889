"""One replay of one workload, in a fresh process.

Usage: ``python3 child.py SPEC.json`` with ``PYTHONPATH`` naming the
simulator's ``src`` directory.  The spec gives the mode, the schemes, the
device and the two trace files.  The last line of standard output is one
JSON object with the replay's timings, simulated results and digest.

Modes:

* ``timed``: untraced replay on the simulator's default path;
* ``scalar``: the same with ``replay_mode="scalar"`` (the output check's
  reference);
* ``tracer``: a sink-less ``repro.obs.Tracer`` attached;
* ``latency``: a ``Tracer`` feeding ``repro.obs.OpLatencyRecorder``, for
  the simulated per-cause time;
* ``layers``: the outside-in span trace of :mod:`layers`.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import sys
import time
import traceback
from typing import Any, Dict, List, Optional

MODES = ("timed", "scalar", "tracer", "latency", "layers")


class _CanaryObj:
    __slots__ = ("a", "b", "c")


def canary() -> float:
    """Machine-speed canary: iterations/s of an allocation-heavy loop.

    It touches no simulator code, so it tracks only how fast the machine
    runs right now.  It is reported beside every replay and scales
    nothing.
    """
    iters = 30_000
    best = 0.0
    for _ in range(3):
        sink: List[_CanaryObj] = []
        start = time.perf_counter()
        for i in range(iters):
            obj = _CanaryObj()
            obj.a = i
            obj.b = i & 7
            obj.c = (i, i & 3)
            sink.append(obj)
            if len(sink) >= 2048:
                sink = []
        elapsed = time.perf_counter() - start
        if elapsed > 0.0:
            best = max(best, iters / elapsed)
    return best


def digest(results: Dict[str, Any]) -> str:
    """SHA-256 over every scheme's simulated results.

    Covers all ``FlashStats`` and ``FtlStats`` fields, the response
    percentiles, sample counts and ``device_busy_us``: any change to the
    simulated outcome changes it, host timing never does.
    """
    payload = json.dumps({s: r["sim"] for s, r in results.items()},
                         sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def sim_summary(result: Any) -> Dict[str, Any]:
    """The simulated outcome of one scheme's measured trace."""
    flash = result.flash
    ftl = result.ftl_stats
    overall = result.responses.overall
    return {
        "flash": {f: repr(getattr(flash, f)) for f in flash._FIELDS},
        "ftl": {f: getattr(ftl, f) for f in ftl._FIELDS},
        "responses": {
            "count": overall.count,
            "reads": result.responses.reads.count,
            "writes": result.responses.writes.count,
            "p50_us": repr(overall.percentile(50)),
            "p99_us": repr(overall.percentile(99)),
            "p999_us": repr(overall.percentile(99.9)),
            "max_us": repr(overall.max),
            "total_us": repr(overall.total),
        },
        "device_busy_us": repr(result.device_busy_us),
    }


def failure_report(exc: BaseException, scheme: str, phase: str,
                   page_op: int, page_ops: int) -> Dict[str, Any]:
    """Where a replay raised: page op index, exception and call path."""
    frames = traceback.extract_tb(exc.__traceback__)
    return {
        "scheme": scheme,
        "phase": phase,
        "page_op": page_op,
        "page_ops": page_ops,
        "exception": type(exc).__name__,
        "message": str(exc),
        "call_path": [f.name for f in frames
                      if "/repro/" in f.filename.replace("\\", "/")],
    }


def run(spec: Dict[str, Any]) -> Dict[str, Any]:
    mode = spec["mode"]
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    canary_per_s = canary()

    import repro.traces
    from repro.obs import OpLatencyRecorder, Tracer
    from repro.perf import batch
    from repro.sim import factory
    from repro.sim.runner import DEFAULT_OPTIONS, lazy_headline_options
    from repro.sim.simulator import Simulator

    from layers import Instrument, Spans
    from workloads import LOGICAL_FRACTION

    device = spec["device"]
    spans: Optional[Spans] = None
    inst: Optional[Instrument] = None
    load_trace = repro.traces.load_trace
    standard_setup = factory.standard_setup
    if mode == "layers":
        spans = Spans()
        inst = Instrument(spans)
        load_trace = spans.wrap("traces.load", load_trace)
        standard_setup = spans.wrap("sim.setup", standard_setup)

    out: Dict[str, Any] = {
        "mode": mode,
        "canary_per_s": canary_per_s,
        "python": sys.version.split()[0],
        "numpy": _numpy_version(),
        "backend": batch.backend_name(),
        "schemes": {},
        "failure": None,
    }

    start = time.perf_counter()
    warm = load_trace(spec["files"]["warmup"])
    trace = load_trace(spec["files"]["measured"])
    setup_total = time.perf_counter() - start
    out["loaded_page_ops"] = warm.page_ops + trace.page_ops
    replay_total = 0.0
    ops_total = 0
    pooled: List[float] = []
    setups = []

    for scheme in spec["schemes"]:
        options = dict(DEFAULT_OPTIONS.get(scheme, {}))
        if scheme == "LazyFTL":
            options.update(lazy_headline_options(device["num_blocks"]))
        kwargs = dict(
            num_blocks=device["num_blocks"],
            pages_per_block=device["pages_per_block"],
            page_size=device["page_size"],
            logical_fraction=LOGICAL_FRACTION,
            channels=device["channels"],
            **options,
        )
        setups.append((scheme, kwargs))
        start = time.perf_counter()
        flash, ftl, _ = standard_setup(scheme, **kwargs)
        setup_total += time.perf_counter() - start
        tracer = None
        latency = None
        if mode == "tracer":
            tracer = Tracer()
        elif mode == "latency":
            latency = OpLatencyRecorder()
            tracer = Tracer(latency=latency)
        sim = Simulator(ftl, tracer=tracer,
                        replay_mode="scalar" if mode == "scalar" else None)
        entry: Dict[str, Any] = {
            "engaged": batch.engine_for(ftl) is not None}
        base_flash = flash.stats.snapshot()
        base_writes = ftl.stats.host_writes
        base_reads = ftl.stats.host_reads
        if inst is not None:
            inst.attach(ftl, sim)
        phase = "warm-up"
        start = time.perf_counter()
        try:
            sim.warm_up(warm)
            phase = "measured"
            result = sim.run(trace)
        except Exception as exc:  # the replay failing is a measured outcome
            entry["replay_s"] = time.perf_counter() - start
            replay_total += entry["replay_s"]
            if inst is not None:
                inst.detach()
            # The host counters already include the op that raised.
            done = ftl.stats.host_reads + ftl.stats.host_writes \
                - base_reads - base_writes
            if phase == "warm-up":
                out["failure"] = failure_report(
                    exc, scheme, phase, done, warm.page_ops)
            else:
                out["failure"] = failure_report(
                    exc, scheme, phase, done - warm.page_ops, trace.page_ops)
            entry["replay_flash"] = _flash_delta(flash, base_flash)
            out["schemes"][scheme] = entry
            break
        elapsed = time.perf_counter() - start
        if inst is not None:
            inst.detach()
        replay_total += elapsed
        ops_total += warm.page_ops + trace.page_ops
        entry["replay_s"] = elapsed
        entry["sim"] = sim_summary(result)
        # LatencyDistribution has no public accessor for its raw samples,
        # and pooled percentiles across schemes need them.
        pooled.extend(result.responses.overall._samples)
        entry["redundant_invalidates"] = flash.stats.redundant_invalidates
        entry["host_writes"] = ftl.stats.host_writes - base_writes
        entry["host_reads"] = ftl.stats.host_reads - base_reads
        entry["replay_flash"] = _flash_delta(flash, base_flash)
        entry["requests"] = len(warm) + len(trace)
        _parallel(flash, entry)
        if latency is not None:
            summary = latency.scheme_summary(ftl.name) or {}
            overall = summary.get("classes", {}).get("overall", {})
            entry["by_cause_us"] = overall.get("by_cause_us", {})
        out["schemes"][scheme] = entry
        del sim, ftl, flash, result

    out["pooled"] = _pooled(pooled)
    out["setup_s"] = setup_total
    out["replay_s"] = replay_total
    out["page_ops"] = ops_total
    out["peak_rss_mib"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["heap_bytes"] = 0
    if mode == "layers":
        # After the spanned setups and replays, so that each spanned setup
        # runs under the conditions of a timed one.
        out["heap_bytes"] = sum(
            _setup_heap_bytes(scheme, kwargs)
            for scheme, kwargs in setups)
    if out["failure"] is None:
        out["digest"] = digest(out["schemes"])
    if inst is not None:
        out["layers"] = _layer_report(spans, inst)
        if spec.get("spans_out"):
            spans.write(spec["spans_out"])
    return out


def _numpy_version() -> str:
    try:
        import numpy
    except ImportError:
        return "absent"
    return numpy.__version__


def _flash_delta(flash: Any, before: Any) -> Dict[str, int]:
    """Raw page reads, programs and erases since ``before``."""
    delta = flash.stats.diff(before)
    return {"page_reads": delta.page_reads,
            "page_programs": delta.page_programs,
            "block_erases": delta.block_erases}


def _parallel(flash: Any, entry: Dict[str, Any]) -> None:
    summary = getattr(flash, "parallel_summary", None)
    if summary is not None:
        data = summary()
        entry["parallel"] = {
            "channel_wait_us": data["channel_wait_us"],
            "busy_imbalance": data["busy_imbalance"],
        }


def _setup_heap_bytes(scheme: str, kwargs: Dict[str, Any]) -> int:
    """Python heap retained by one ``standard_setup`` (tracemalloc).

    Runs on a throwaway instance so the timed setup is not slowed by
    tracemalloc's per-allocation hook.
    """
    import gc
    import tracemalloc

    from repro.sim.factory import standard_setup

    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        built = standard_setup(scheme, **kwargs)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    del built
    gc.collect()
    return retained


def _layer_report(spans: Any, inst: Any) -> Dict[str, Any]:
    totals = {name: {"calls": int(v[0]), "total_s": v[1], "self_s": v[2]}
              for name, v in spans.totals.items()}
    return {
        "spans": totals,
        "span_count": len(spans),
        "per_scheme": inst.per_scheme,
        "pool_calls": inst.pool_calls,
        "pool_min_free": inst.pool_min_free,
        "pool_trace": _thin(inst.pool_trace),
        "write_gc_calls": inst.write_gc_calls,
        "write_gc_s": inst.write_gc_s,
    }


def _pooled(samples: List[float]) -> Dict[str, Any]:
    """Nearest-rank p50 / p99.9 over every scheme's responses together."""
    samples.sort()
    n = len(samples)

    def rank(q: float) -> float:
        return samples[max(1, math.ceil(q / 100.0 * n)) - 1] if n else 0.0

    return {"count": n, "p50_us": rank(50), "p999_us": rank(99.9)}


def _thin(trace: List[List[int]]) -> List[List[int]]:
    """Running minimum of the pool length at 24 op checkpoints."""
    if not trace:
        return []
    last_op = trace[-1][0]
    step = max(1, last_op // 24)
    thinned: List[List[int]] = []
    low = None
    mark = step
    for ops, free in trace:
        low = free if low is None else min(low, free)
        if ops >= mark:
            thinned.append([ops, low])
            mark = (ops // step + 1) * step
            low = None
    if low is not None:
        thinned.append([trace[-1][0], low])
    return thinned


def main(argv: List[str]) -> int:
    with open(argv[1], encoding="utf-8") as stream:
        spec = json.load(stream)
    print(json.dumps(run(spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
