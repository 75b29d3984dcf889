"""Differential tests for the epoch-segmented batch-replay engine.

The engine (:mod:`repro.perf.batch`) promises statistics *bit-identical*
to the scalar replay loop.  These tests attack that promise from every
side:

* Hypothesis generates arbitrary mixed workloads (single- and
  multi-page requests up to two and a half blocks long, closed-loop and
  timestamped arrivals) and asserts digest equality scalar vs batched,
  per scheme, on both kernel backends;
* deterministic multi-page edge cases pin what each planner admits
  (frontier exact fill and straddle, reads of pages written earlier in
  the epoch, the checkpoint budget, a partial CMT hit), and a
  Websearch-like trace must actually be vectorized;
* the eligibility gate is probed directly: sanitized flash subclasses,
  attached tracers, armed fault injectors, powered-off devices and
  fractional timing models must all decline batching (and therefore
  replay scalar even under ``replay_mode="batched"``);
* the bulk-update primitives the executors lean on (``add_many``,
  ``record_many``, ``set_many``, ``touch_many``) are checked one by
  one against their per-element twins, including validation behaviour.

``tests/test_golden_stats.py`` pins the same contract against the
committed snapshot; here the workloads are adversarial instead of
golden, so planner edge cases (frontier exhaustion mid-epoch,
checkpoint budgets, unmapped reads, CMT misses) get fuzzed.
"""

import os
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.perf import batch
from repro.perf.maptable import MapTable
from repro.sim.factory import default_lazy_config, standard_setup
from repro.sim.golden import engine_digest
from repro.sim.metrics import LatencyDistribution, ResponseStats
from repro.sim.runner import DeviceSpec, run_scheme
from repro.sim.simulator import Simulator
from repro.traces import IORequest, OpType, Trace
from repro.traces.synthetic import warmup_fill
from repro.traces.websearch import websearch

#: Tiny device: frontiers roll over and GC fires within dozens of
#: writes, so even short generated workloads cross epoch boundaries.
DEVICE = DeviceSpec(
    num_blocks=64, pages_per_block=8, page_size=512, logical_fraction=0.6
)

HAVE_NUMPY = batch._numpy is not None

#: Scheme x option cells the differential fuzz covers: the three
#: planner-registered schemes, plus LazyFTL's stateful ablation knobs
#: (the translation-page cache mutates on read; periodic checkpoints
#: bound write epochs).
CELLS = [
    ("ideal", {}),
    ("DFTL", {}),
    ("LazyFTL", {}),
    ("LazyFTL", {"config": default_lazy_config(map_cache_pages=4)}),
    ("LazyFTL", {"config": default_lazy_config(checkpoint_interval=40)}),
]


@pytest.fixture(autouse=True)
def _restore_backend():
    yield
    batch.set_backend("auto")


def make_trace(drawn, arrival_step):
    """Build a trace from drawn (op, lpn, npages) triples.

    ``arrival_step > 0`` stamps monotone arrivals (open-loop replay with
    idle gaps); NaN-free zero step means closed loop.
    """
    logical = DEVICE.logical_pages
    requests = []
    now = 0.0
    for is_write, lpn, npages in drawn:
        npages = min(npages, logical - lpn)
        if npages <= 0:
            continue
        requests.append(IORequest(
            op=OpType.WRITE if is_write else OpType.READ,
            lpn=lpn, npages=npages,
            arrival_us=now if arrival_step else None,
        ))
        now += arrival_step
    return Trace(requests, name="fuzz")


request_lists = st.lists(
    st.tuples(
        st.booleans(),
        st.integers(min_value=0, max_value=DEVICE.logical_pages - 1),
        # Past pages_per_block (8): requests that fill, straddle and
        # overrun whole frontier blocks.
        st.integers(min_value=1, max_value=20),
    ),
    min_size=10,
    max_size=120,
)


class TestDifferentialFuzz:
    @settings(deadline=None, max_examples=15)
    @given(drawn=request_lists,
           arrival_step=st.sampled_from([0.0, 25.0]),
           cell=st.sampled_from(range(len(CELLS))))
    def test_batched_replay_is_bit_identical(
        self, drawn, arrival_step, cell
    ):
        scheme, options = CELLS[cell]
        trace = make_trace(drawn, arrival_step)
        reference = engine_digest(run_scheme(
            scheme, trace, device=DEVICE, precondition="steady",
            replay_mode="scalar", **options,
        ))
        backends = ["fallback", "numpy"] if HAVE_NUMPY else ["fallback"]
        for backend in backends:
            batch.set_backend(backend)
            candidate = engine_digest(run_scheme(
                scheme, trace, device=DEVICE, precondition="steady",
                replay_mode="batched", **options,
            ))
            assert candidate == reference, (
                f"{scheme} {options} diverged on the {backend} kernels"
            )

    @settings(deadline=None, max_examples=10)
    @given(drawn=request_lists)
    def test_warm_up_leaves_identical_state(self, drawn):
        """warm_up dispatches through the same kernels; the post-warm-up
        *measured* run must not care which mode warmed the device."""
        trace = make_trace(drawn, 0.0)
        probe = make_trace(
            [(False, lpn, 1) for lpn in range(0, DEVICE.logical_pages, 7)],
            0.0,
        )
        digests = {}
        for mode in ("scalar", "batched"):
            _, ftl, _ = standard_setup(
                "LazyFTL",
                num_blocks=DEVICE.num_blocks,
                pages_per_block=DEVICE.pages_per_block,
                page_size=DEVICE.page_size,
                logical_fraction=DEVICE.logical_fraction,
            )
            simulator = Simulator(ftl, replay_mode=mode)
            simulator.warm_up(trace)
            digests[mode] = engine_digest(simulator.run(probe))
        assert digests["batched"] == digests["scalar"]


PLANNED_SCHEMES = ("ideal", "DFTL", "LazyFTL")


def primed_ftl(scheme, **options):
    """A fresh FTL on :data:`DEVICE` with lpns 0-8 mapped, 7 of its
    frontier block's 8 pages free, and (DFTL) lpns 0-31 in the CMT."""
    _, ftl, _ = standard_setup(
        scheme, num_blocks=DEVICE.num_blocks,
        pages_per_block=DEVICE.pages_per_block, page_size=DEVICE.page_size,
        logical_fraction=DEVICE.logical_fraction, **options,
    )
    for lpn in range(32):
        ftl.read(lpn)  # DFTL caches the (unmapped) entry; others no-op
    for lpn in range(9):
        ftl.write(lpn, None)  # fills block one, opens block two
    return ftl


def columns(*requests):
    return make_trace(requests, 0.0).to_columnar()


def plan(ftl, cols):
    return batch.engine_for(ftl).planner.plan_epoch(cols, 0, len(cols.ops))


@pytest.fixture()
def vectorized_pages(monkeypatch):
    """Spy on every planner's execute_epoch: a list of the page counts of
    the epochs the engine vectorized."""
    epochs = []
    for planner_cls in batch.PLANNERS.values():
        def spy(self, cols, start, h, _execute=planner_cls.execute_epoch):
            epochs.append(sum(cols.npages[start:start + h]))
            return _execute(self, cols, start, h)
        monkeypatch.setattr(planner_cls, "execute_epoch", spy)
    return epochs


def assert_replays_match(scheme, requests, **options):
    """Replay ``requests`` on two primed FTLs, scalar and batched: the
    digests must be equal."""
    digests = {}
    for mode in ("scalar", "batched"):
        simulator = Simulator(primed_ftl(scheme, **options),
                              replay_mode=mode)
        digests[mode] = engine_digest(
            simulator.run(make_trace(requests, 0.0)))
    assert digests["batched"] == digests["scalar"]


#: An 8-page read of mapped lpns: lifts an epoch past MIN_EPOCH pages.
LEAD_READ = (False, 0, 8)


class TestMultiPageEpochs:
    @pytest.mark.parametrize("scheme", PLANNED_SCHEMES)
    def test_write_exactly_filling_the_frontier_is_admitted(self, scheme):
        requests = [LEAD_READ, (True, 1, 7), (True, 8, 1)]
        assert plan(primed_ftl(scheme), columns(*requests)) == (2, 15)
        assert_replays_match(scheme, requests)

    @pytest.mark.parametrize("scheme", PLANNED_SCHEMES)
    def test_write_straddling_the_frontier_runs_scalar(
        self, scheme, vectorized_pages
    ):
        requests = [LEAD_READ, (True, 1, 4), (True, 5, 4), LEAD_READ]
        assert plan(primed_ftl(scheme), columns(*requests)) == (2, 12)
        assert_replays_match(scheme, requests)
        # Only the batched replay vectorizes: the 12-page prefix, then
        # the straddling write runs scalar, then the closing read.
        assert vectorized_pages == [12, 8]

    @pytest.mark.parametrize("scheme", PLANNED_SCHEMES)
    def test_read_of_pages_written_earlier_in_the_epoch(self, scheme):
        requests = [LEAD_READ, (True, 20, 4), (False, 20, 4)]
        assert plan(primed_ftl(scheme), columns(*requests)) == (3, 16)
        assert_replays_match(scheme, requests)

    def test_read_before_the_write_ends_an_ideal_epoch(self):
        # ideal keeps epochs all-mapped: lpns 20-23 are not yet written.
        requests = [LEAD_READ, (False, 20, 4), (True, 20, 4)]
        assert plan(primed_ftl("ideal"), columns(*requests)) == (1, 8)

    def test_lazyftl_cache_admits_reads_written_in_the_epoch(self):
        options = {"config": default_lazy_config(map_cache_pages=4)}
        ftl = primed_ftl("LazyFTL", **options)
        # lpn 300 lies in a translation page the cache has never seen.
        assert plan(ftl, columns(LEAD_READ, (False, 300, 4))) == (1, 8)
        requests = [LEAD_READ, (True, 300, 4), (False, 300, 4)]
        assert plan(ftl, columns(*requests)) == (3, 16)
        assert_replays_match("LazyFTL", requests, **options)

    @pytest.mark.parametrize("write", [(True, 1, 6), (True, 1, 7)])
    def test_lazyftl_write_within_the_checkpoint_budget(self, write):
        options = {"config": default_lazy_config(checkpoint_interval=8)}
        ftl = primed_ftl("LazyFTL", **options)
        # The ninth priming write checkpointed at eight and counted one:
        # six more writes stay free of a checkpoint, though the frontier
        # has room for seven.
        assert ftl._writes_since_checkpoint == 1
        requests = [LEAD_READ, write, (True, 7, 1)]
        expected = (2, 14) if write[2] == 6 else (1, 8)
        assert plan(ftl, columns(*requests)) == expected
        assert_replays_match("LazyFTL", requests, **options)

    def test_dftl_request_with_a_page_missing_from_the_cmt(self):
        ftl = primed_ftl("DFTL")
        assert 31 in ftl._cmt and 32 not in ftl._cmt
        requests = [LEAD_READ, (False, 28, 5), LEAD_READ]
        assert plan(ftl, columns(*requests)) == (1, 8)
        assert plan(ftl, columns(LEAD_READ, (False, 27, 5))) == (2, 13)
        assert_replays_match("DFTL", requests)

    @pytest.mark.parametrize("scheme", PLANNED_SCHEMES)
    def test_websearch_like_trace_is_mostly_vectorized(
        self, scheme, vectorized_pages
    ):
        """4-16 page reads after a fill: with single-page-only epochs
        none of them would vectorize."""
        _, ftl, _ = standard_setup(
            scheme, num_blocks=96, pages_per_block=16, page_size=512,
            logical_fraction=0.6,
        )
        pages = ftl.logical_pages
        simulator = Simulator(ftl)
        simulator.warm_up(warmup_fill(pages))
        del vectorized_pages[:]
        trace = websearch(600, pages, seed=3)
        simulator.run(trace)
        assert sum(vectorized_pages) > 0.9 * trace.page_ops


class TestEligibilityGate:
    def _ftl(self, scheme="LazyFTL", **kwargs):
        _, ftl, _ = standard_setup(
            scheme, num_blocks=64, pages_per_block=8, page_size=512,
            logical_fraction=0.6, **kwargs,
        )
        return ftl

    def test_registered_schemes_get_an_engine(self):
        for scheme in ("ideal", "DFTL", "LazyFTL"):
            assert batch.engine_for(self._ftl(scheme)) is not None

    def test_unregistered_schemes_decline(self):
        for scheme in ("BAST", "FAST", "LAST", "NFTL", "superblock"):
            assert batch.engine_for(self._ftl(scheme)) is None

    def test_sanitized_flash_declines(self):
        wrapped = self._ftl(sanitize=True)
        # The wrapper itself is not a registered scheme, and the inner
        # scheme's flash is a validating subclass: both must decline.
        assert batch.engine_for(wrapped) is None
        assert batch.engine_for(wrapped._ftl) is None

    def test_attached_tracer_declines(self):
        from repro.obs import Tracer

        ftl = self._ftl()
        ftl.attach_tracer(Tracer())
        assert batch.engine_for(ftl) is None

    def test_armed_fault_injector_declines(self):
        ftl = self._ftl()
        ftl.flash.fault.arm_after_programs(10)
        assert batch.engine_for(ftl) is None

    def test_powered_off_device_declines(self):
        ftl = self._ftl()
        ftl.flash.power_off()
        assert batch.engine_for(ftl) is None

    def test_fractional_timing_declines(self):
        from repro.flash.timing import TimingModel

        fractional = TimingModel(
            page_read_us=25.5, page_program_us=200.0, block_erase_us=1500.0
        )
        ftl = self._ftl(timing=fractional)
        assert batch.engine_for(ftl) is None

    def test_background_gc_rejects_timestamped_traces(self):
        ftl = self._ftl(config=default_lazy_config(background_gc=True))
        engine = batch.engine_for(ftl)
        assert engine is not None
        closed = make_trace([(True, 0, 1)] * 12, 0.0).to_columnar()
        open_loop = make_trace([(True, 0, 1)] * 12, 50.0).to_columnar()
        assert engine.supports(closed)
        assert not engine.supports(open_loop)


class TestReplayModeSelection:
    def test_invalid_mode_raises(self):
        _, ftl, _ = standard_setup("ideal", num_blocks=64,
                                   pages_per_block=8, page_size=512)
        with pytest.raises(ValueError, match="replay_mode"):
            Simulator(ftl, replay_mode="vectorised")

    def test_environment_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_REPLAY_MODE", "scalar")
        _, ftl, _ = standard_setup("ideal", num_blocks=64,
                                   pages_per_block=8, page_size=512)
        assert Simulator(ftl).replay_mode == "scalar"
        monkeypatch.delenv("REPRO_REPLAY_MODE")
        assert Simulator(ftl).replay_mode == "auto"

    def test_fallback_env_forces_fallback_backend(self):
        assert batch.backend_name() in ("numpy", "fallback")
        batch.set_backend("fallback")
        assert batch.backend_name() == "fallback"
        batch.set_backend("auto")
        expected = "fallback" if (
            batch._numpy is None or os.environ.get(batch.FALLBACK_ENV)
        ) else "numpy"
        assert batch.backend_name() == expected

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError, match="backend"):
            batch.set_backend("simd")

    @pytest.mark.skipif(HAVE_NUMPY, reason="numpy is installed")
    def test_numpy_backend_without_numpy_raises(self):
        with pytest.raises(RuntimeError, match="numpy"):
            batch.set_backend("numpy")


class TestBulkPrimitives:
    def test_add_many_matches_sequential_add(self):
        values = [3.0, 0.0, 17.5, 2.0 ** 53 - 1, 0.25, 1e-9]
        one = LatencyDistribution()
        for value in values:
            one.add(value)
        bulk = LatencyDistribution()
        bulk.add_many(array("d", values))
        assert bulk.summary() == one.summary()

    def test_add_many_validates_before_mutating(self):
        dist = LatencyDistribution()
        dist.add(5.0)
        with pytest.raises(ValueError):
            dist.add_many([1.0, float("nan")])
        with pytest.raises(ValueError):
            dist.add_many([1.0, -2.0])
        assert dist.count == 1  # the failed batches left no residue

    @pytest.mark.skipif(not HAVE_NUMPY, reason="needs numpy")
    def test_add_many_numpy_path_matches(self):
        np = batch._numpy
        values = np.asarray([1.0, 2.5, 0.0, 9.75])
        one = LatencyDistribution()
        for value in values:
            one.add(float(value))
        bulk = LatencyDistribution()
        bulk.add_many(values)
        assert bulk.summary() == one.summary()

    def test_record_many_routes_per_op(self):
        ops = bytes([1, 0, 0, 1, 0])
        responses = array("d", [10.0, 20.0, 30.0, 40.0, 50.0])
        one = ResponseStats()
        for op, resp in zip(ops, responses):
            one.record(bool(op), resp)
        bulk = ResponseStats()
        bulk.record_many(memoryview(ops), responses)
        assert bulk.summary() == one.summary()

    def test_set_many_matches_setitem(self):
        one = MapTable(16)
        bulk = MapTable(16)
        pairs = [(3, 30), (1, 10), (3, 31)]
        for index, value in pairs:
            one[index] = value
        bulk.set_many(pairs)
        assert bulk.snapshot() == one.snapshot()
        with pytest.raises(ValueError):
            bulk.set_many([(0, -1)])

    def test_umt_set_many_matches_set(self):
        from repro.core.umt import UpdateMappingTable

        one = UpdateMappingTable(entries_per_page=8)
        bulk = UpdateMappingTable(entries_per_page=8)
        pairs = [(5, 50), (21, 210), (5, 51)]
        for lpn, ppn in pairs:
            one.set(lpn, ppn)
        bulk.set_many(pairs)
        assert bulk.snapshot() == one.snapshot()
        assert len(bulk) == len(one)
