"""Golden-stats capture: exact engine digests for regression testing.

Hot-path work on the engine (array-backed mapping tables, slotted flash
state, inline relocation loops, batch replay) must not change a single
modeled statistic: erase counts, merge counts, response-time
distributions, RAM accounting - everything an experiment reports has to
stay bit-identical, because the figures in EXPERIMENTS.md were produced
by the pre-overhaul engine.

This module defines the canonical *golden workload* (a small device,
three deterministic traces, every scheme) and an :func:`engine_digest` that
flattens a :class:`~repro.sim.simulator.SimulationResult` into plain
JSON-serialisable data.  ``tools/gen_golden_stats.py`` regenerates the
committed snapshot (``tests/golden/engine_stats.json``) and
``tests/test_golden_stats.py`` asserts the current engine still produces
exactly the committed numbers.  Floats survive the JSON round-trip
losslessly (``repr`` round-trips IEEE-754 doubles), so ``==`` on the
loaded digest is a bit-exact comparison.
"""

from __future__ import annotations

import random
from array import array
from typing import Dict, Sequence

from ..traces.columnar import ColumnarTrace
from ..traces.model import Trace
from ..traces.synthetic import hot_cold, uniform_random
from .factory import SCHEMES
from .runner import DeviceSpec, run_scheme
from .simulator import SimulationResult

#: Small device so GC/merges churn within a few thousand operations.
#: Mirrors the ``tools/check_all.py`` trace-smoke geometry.
GOLDEN_DEVICE = DeviceSpec(
    num_blocks=96,
    pages_per_block=16,
    page_size=512,
    logical_fraction=0.7,
)

#: The same device striped over four channels: pins down the parallel
#: model (striped placement + overlap timing) for the schemes that opt
#: into frontier striping.  Kept in a *separate* snapshot file
#: (``engine_stats_4ch.json``) so the serial snapshot's exact key-set
#: check keeps certifying that 1x1x1 behaviour never moved.
GOLDEN_DEVICE_4CH = DeviceSpec(
    num_blocks=96,
    pages_per_block=16,
    page_size=512,
    logical_fraction=0.7,
    channels=4,
)

#: Schemes whose area managers stripe frontier allocation across
#: parallel units (the rest are serial-only baselines).
STRIPED_SCHEMES = ("ideal", "DFTL", "LazyFTL")


def multipage_random(
    n_requests: int,
    footprint_pages: int,
    max_request_pages: int,
    write_ratio: float,
    seed: int,
    name: str,
) -> Trace:
    """Random requests whose lengths are uniform in 1..max_request_pages.

    The synthetic generators draw lengths from a tail that rarely passes
    a few pages; this one spreads them evenly, so with a maximum above
    the block size the trace holds writes that fill a frontier block
    exactly, writes that straddle two blocks and requests longer than a
    whole block.
    """
    rng = random.Random(seed)
    ops = array("b")
    lpns = array("q")
    npages = array("q")
    for _ in range(n_requests):
        count = rng.randint(1, max_request_pages)
        lpns.append(rng.randrange(footprint_pages - count + 1))
        ops.append(1 if rng.random() < write_ratio else 0)
        npages.append(count)
    return Trace.from_columnar(
        ColumnarTrace(ops, lpns, npages, name=name, validate=False)
    )


def golden_traces():
    """The three deterministic traces every scheme replays for the digest.

    Uniform random writes are the merge/GC torture case; the hot/cold mix
    exercises read paths, skew handling and LazyFTL's cold-area logic;
    the multi-page mix sends requests of up to one and a half blocks
    through the same paths.
    """
    pages = GOLDEN_DEVICE.logical_pages
    return [
        uniform_random(
            1500, pages, write_ratio=0.8, seed=11, name="golden-random",
        ),
        hot_cold(
            1200, pages, write_ratio=0.7, hot_fraction=0.2,
            hot_probability=0.8, seed=7, name="golden-hotcold",
        ),
        multipage_random(  # up to 24 pages: one and a half blocks
            400, pages, max_request_pages=24, write_ratio=0.6, seed=17,
            name="golden-multipage",
        ),
    ]


def engine_digest(result: SimulationResult) -> Dict[str, object]:
    """Flatten a result into the exact-comparable statistics dictionary.

    Everything here is *modeled* state (simulated microseconds, counter
    values, RAM-model bytes), so it is invariant under pure-performance
    refactors of the engine internals.
    """
    return {
        "scheme": result.scheme,
        "trace": result.trace_name,
        "requests": result.requests,
        "page_ops": result.page_ops,
        "flash": result.flash.as_dict(),
        "ftl": result.ftl_stats.as_dict(),
        "responses": result.responses.summary(),
        "wear": dict(result.wear),
        "ram_bytes": result.ram_bytes,
        "device_busy_us": result.device_busy_us,
    }


def collect_golden_digests(
    schemes: Sequence[str] = SCHEMES,
) -> Dict[str, Dict[str, object]]:
    """Run the golden workload and return ``"scheme/trace" -> digest``.

    Steady-state preconditioning is part of the workload: it drives every
    scheme's garbage collector before measurement, which is where the
    schemes differ most (and where a refactor would most likely slip).
    """
    digests: Dict[str, Dict[str, object]] = {}
    for trace in golden_traces():
        for scheme in schemes:
            result = run_scheme(
                scheme, trace, device=GOLDEN_DEVICE, precondition="steady",
            )
            digests[f"{scheme}/{trace.name}"] = engine_digest(result)
    return digests


def collect_golden_digests_4ch(
    schemes: Sequence[str] = STRIPED_SCHEMES,
) -> Dict[str, Dict[str, object]]:
    """Golden digests on the 4-channel device for striping schemes.

    Same workload as :func:`collect_golden_digests`, replayed on
    :data:`GOLDEN_DEVICE_4CH`: pins striped placement and overlapped
    service latencies (``device_busy_us`` drops well below the serial
    figure while flash wear counters stay workload-determined).
    """
    digests: Dict[str, Dict[str, object]] = {}
    for trace in golden_traces():
        for scheme in schemes:
            result = run_scheme(
                scheme, trace, device=GOLDEN_DEVICE_4CH,
                precondition="steady",
            )
            digests[f"{scheme}/{trace.name}"] = engine_digest(result)
    return digests
