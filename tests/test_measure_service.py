"""Tests for the batched measurement service and the per-schedule noise streams."""

import numpy as np
import pytest

from repro.api import CacheConfig, MeasurementPolicy, OptimizationConfig, Session
from repro.baselines.search import run_greedy_search
from repro.core.env import AssemblyGame
from repro.sass import KernelMetadata, SassKernel
from repro.sim import (
    GPUSimulator,
    GridConfig,
    KernelTiming,
    MeasurementConfig,
    MemoizedMeasurementBackend,
    available_measurement_backends,
    create_measurement_service,
)
from repro.triton import compile_spec, get_spec

ADD_ONE = """
[B------:R-:W1:-:S01] S2R R0, SR_CTAID.X ;
[B------:R-:W-:-:S04] MOV R1, 0x200 ;
[B-1----:R-:W-:-:S05] IMAD R2, R0, R1, RZ ;
[B------:R-:W-:-:S04] MOV R4, c[0x0][0x160] ;
[B------:R-:W-:-:S04] MOV R6, c[0x0][0x168] ;
[B------:R-:W-:-:S05] IADD3 R8, R4, R2, RZ ;
[B------:R-:W-:-:S05] IADD3 R10, R6, R2, RZ ;
[B------:R-:W0:-:S02] LDG.E.128 R12, [R8.64] ;
[B------:R-:W2:-:S01] I2F R22, RZ ;
[B0-2---:R-:W-:-:S04] FADD R16, R12, 1.0 ;
[B------:R0:W-:-:S02] STG.E.128 [R10.64], R16 ;
[B------:R-:W-:-:S05] EXIT ;
"""


@pytest.fixture(scope="module")
def simulator():
    return GPUSimulator()


@pytest.fixture(scope="module")
def compiled():
    return compile_spec(get_spec("mmLeakyReLu"), scale="test")


def _candidates(compiled, simulator, count=4):
    """The -O3 schedule plus a few single-move mutations of it."""
    env = AssemblyGame(compiled, simulator, episode_length=8)
    base = env.initial_kernel
    kernels = [base]
    for action in np.flatnonzero(env.action_masks())[: count - 1]:
        kernels.append(base.swap(*env.action_space_map.target_indices(base, int(action))))
    return kernels


# ---------------------------------------------------------------------------
# Backend equivalence: threaded/process return bit-identical timings to inline
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("backend", ["threaded", "process"])
def test_pooled_backends_match_inline(compiled, simulator, backend):
    kernels = _candidates(compiled, simulator)
    inputs = compiled.make_inputs(0)
    inline = create_measurement_service(simulator, compiled.grid, inputs, compiled.param_order)
    pooled = create_measurement_service(
        simulator, compiled.grid, inputs, compiled.param_order,
        backend=backend, max_workers=2,
    )
    try:
        inline_timings = inline.measure_batch(kernels)
        pooled_timings = pooled.measure_batch(kernels)
    finally:
        pooled.close()
    # KernelTiming (and the nested TimingResult) are dataclasses: this is a
    # field-by-field, bit-identical comparison.
    assert inline_timings == pooled_timings
    # Both stacks memoize: one raw measurement per distinct schedule (two
    # mutations may collide), every request submitted.
    distinct = len({kernel.content_digest() for kernel in kernels})
    assert inline.stats.measured == pooled.stats.measured == distinct
    assert inline.stats.submitted == pooled.stats.submitted == len(kernels)


def test_unknown_backend_rejected(compiled, simulator):
    assert set(available_measurement_backends()) == {"inline", "threaded", "process"}
    with pytest.raises(ValueError, match="unknown measurement backend"):
        create_measurement_service(
            simulator, compiled.grid, {}, compiled.param_order, backend="quantum"
        )


# ---------------------------------------------------------------------------
# Memoization dedups repeated schedules (counting simulator stub)
# ---------------------------------------------------------------------------
class CountingSimulator:
    """Simulator stub that counts raw measurements (new launch-reuse shape)."""

    def __init__(self):
        self.calls = 0
        self.launches_built = 0

    def build_launch(self, grid, tensors, param_order, scalars=None):
        self.launches_built += 1
        return object()  # opaque reusable launch token

    def measure_with_launch(self, kernel, launch, measurement=None):
        self.calls += 1
        return KernelTiming(
            kernel_name=kernel.metadata.name,
            block_cycles=100,
            waves=1,
            total_cycles=100,
            time_ms=1.0,
            timing=None,
        )


def test_memoized_backend_dedups_repeated_schedules():
    kernel_a = SassKernel.from_text(ADD_ONE, KernelMetadata(name="addone", num_warps=1))
    kernel_b = kernel_a.swap(3, 4)
    # Same schedule content as kernel_a, but a distinct object.
    kernel_a_clone = SassKernel.from_text(ADD_ONE, KernelMetadata(name="addone", num_warps=1))
    assert kernel_a_clone.content_digest() == kernel_a.content_digest()
    assert kernel_b.content_digest() != kernel_a.content_digest()

    stub = CountingSimulator()
    service = create_measurement_service(stub, GridConfig((1, 1, 1), 1), {}, [])
    timings = service.measure_batch([kernel_a, kernel_b, kernel_a_clone, kernel_a, kernel_b])
    assert stub.calls == 2  # one raw measurement per unique schedule
    assert service.stats.measured == 2
    assert service.stats.memo_hits == 3
    assert service.stats.submitted == 5
    assert timings[0] is timings[2] is timings[3]
    assert timings[1] is timings[4]


def test_shared_memo_through_service_scopes_and_dedups():
    from repro.pool import SharedMemoTable
    from repro.sim import workload_memo_scope

    kernel = SassKernel.from_text(ADD_ONE, KernelMetadata(name="addone", num_warps=1))
    table = SharedMemoTable()
    stub_a, stub_b = CountingSimulator(), CountingSimulator()
    scope = workload_memo_scope("A100", "addone", {"n": 8}, {"warps": 1})

    def service(stub, owner):
        return create_measurement_service(
            stub, GridConfig((1, 1, 1), 1), {}, [],
            shared_memo=table, memo_scope=scope, memo_owner=owner,
        )

    first = service(stub_a, "w0")
    second = service(stub_b, "w1")
    timing = first.submit(kernel).result()
    # The sibling service answers from the shared table: no raw measurement.
    assert second.submit(kernel).result() is timing
    assert stub_a.calls == 1 and stub_b.calls == 0
    assert table.stats.cross_worker_hits == 1

    # A different workload scope never aliases, even for the same schedule.
    other = create_measurement_service(
        stub_b, GridConfig((1, 1, 1), 1), {}, [],
        shared_memo=table,
        memo_scope=workload_memo_scope("A30", "addone", {"n": 8}, {"warps": 1}),
        memo_owner="w1",
    )
    other.submit(kernel).result()
    assert stub_b.calls == 1

    with pytest.raises(ValueError, match="memo_scope"):
        create_measurement_service(stub_a, GridConfig((1, 1, 1), 1), {}, [], shared_memo=table)


def test_workload_memo_scope_sensitivity():
    from repro.sim import MeasurementConfig, workload_memo_scope

    base = workload_memo_scope("A100", "bmm", {"m": 16}, {"warps": 4})
    assert base == workload_memo_scope("A100", "bmm", {"m": 16}, {"warps": 4})
    assert base != workload_memo_scope("A30", "bmm", {"m": 16}, {"warps": 4})
    assert base != workload_memo_scope("A100", "bmm", {"m": 32}, {"warps": 4})
    assert base != workload_memo_scope("A100", "bmm", {"m": 16}, {"warps": 8})
    noisy = MeasurementConfig(noise_std=0.01, seed=7)
    assert base != workload_memo_scope("A100", "bmm", {"m": 16}, {"warps": 4}, noisy)
    assert base != workload_memo_scope("A100", "bmm", {"m": 16}, {"warps": 4}, input_seed=1)


def test_memo_table_is_bounded():
    kernel_a = SassKernel.from_text(ADD_ONE, KernelMetadata(name="addone", num_warps=1))
    kernel_b = kernel_a.swap(3, 4)
    stub = CountingSimulator()
    service = create_measurement_service(stub, GridConfig((1, 1, 1), 1), {}, [])
    service.max_entries = 1
    service.measure_batch([kernel_a, kernel_b, kernel_a])  # b evicts a; a re-measures
    assert stub.calls == 3
    assert service.stats.memo_hits == 0
    service.measure_batch([kernel_a])  # still resident after the re-measure
    assert stub.calls == 3
    assert service.stats.memo_hits == 1


# ---------------------------------------------------------------------------
# Noise streams: independent across schedules, reproducible per (seed, schedule)
# ---------------------------------------------------------------------------
def test_noise_streams_differ_across_candidates_and_reproduce():
    sim = GPUSimulator()
    kernel_a = SassKernel.from_text(ADD_ONE, KernelMetadata(name="addone", num_warps=1))
    kernel_b = kernel_a.swap(3, 4)
    grid = GridConfig((2, 1, 1), 1)
    x = np.zeros((2, 256), dtype=np.float16)
    tensors = {"x": x, "y": np.zeros_like(x)}
    noisy = MeasurementConfig(noise_std=0.01, seed=7)

    def factor(kernel, measurement):
        clean = sim.measure(kernel, grid, tensors, ["x", "y"]).time_ms
        observed = sim.measure(kernel, grid, tensors, ["x", "y"], measurement=measurement).time_ms
        return observed / clean

    # Reproducible for a fixed (seed, schedule) pair...
    assert factor(kernel_a, noisy) == factor(kernel_a, noisy)
    # ...independent across distinct schedules under the same seed...
    assert factor(kernel_a, noisy) != factor(kernel_b, noisy)
    # ...and re-seeded streams differ for the same schedule.
    assert factor(kernel_a, noisy) != factor(kernel_a, MeasurementConfig(noise_std=0.01, seed=8))


# ---------------------------------------------------------------------------
# Greedy search on the service: batching, commit accounting, episode ends
# ---------------------------------------------------------------------------
def test_greedy_counts_committing_steps_and_stays_in_episode(compiled, simulator):
    result = run_greedy_search(
        compiled, budget=40, episode_length=2, simulator=simulator
    )
    # Every history entry is a counted evaluation (probes + committing steps).
    assert result.evaluations == len(result.history)
    assert result.measurement_stats["memo_hits"] > 0
    # episode_length=2 caps the number of commits: at most 2 improving moves
    # before truncation ends the climb, however large the budget.
    assert result.speedup >= 0.999


def test_greedy_threaded_memoized_matches_inline_with_fewer_raw_measurements(
    simulator, monkeypatch
):
    requested: list[str] = []
    submit = MemoizedMeasurementBackend.submit

    def recording_submit(self, candidate):
        requested.append(candidate.content_digest())
        return submit(self, candidate)

    monkeypatch.setattr(MemoizedMeasurementBackend, "submit", recording_submit)
    config = OptimizationConfig(
        strategy="greedy", scale="test", search_budget=24, episode_length=8,
        autotune=False, verify=False,
    )
    no_cache = CacheConfig(enabled=False)
    inline_report = Session(gpu=simulator, config=config, cache=no_cache).optimize("mmLeakyReLu")
    inline_requested = list(requested)
    requested.clear()
    memo_report = Session(
        gpu=simulator,
        config=config,
        cache=no_cache,
        measurement=MeasurementPolicy(backend="threaded", max_workers=4),
    ).optimize("mmLeakyReLu")

    assert memo_report.best_time_ms == inline_report.best_time_ms
    assert memo_report.evaluations == inline_report.evaluations
    assert requested == inline_requested
    for report, digests in ((inline_report, inline_requested), (memo_report, requested)):
        stats = report.details["measurement"]
        # Every backend memoizes: one raw measurement per distinct schedule,
        # strictly fewer than the requests (greedy re-requests its commits).
        assert stats["submitted"] == len(digests)
        assert stats["measured"] == len(set(digests))
        assert stats["memo_hits"] == len(digests) - len(set(digests)) > 0
    assert inline_report.details["evaluations_per_sec"] > 0


# ---------------------------------------------------------------------------
# AssemblyGame public candidate-measurement API
# ---------------------------------------------------------------------------
def test_env_measure_candidates_is_public_and_consistent(compiled, simulator):
    env = AssemblyGame(compiled, simulator, episode_length=4)
    env.reset()
    assert env.current_time_ms == env.baseline_time_ms
    valid = np.flatnonzero(env.action_masks())
    base = env.current_kernel
    kernels = [base.swap(*env.action_space_map.target_indices(base, int(a))) for a in valid[:3]]
    batch = env.measure_candidates(kernels)
    single = [env.measure_candidate(kernel) for kernel in kernels]
    assert batch == single
    # The baseline plus both passes were requested; only distinct schedules
    # reached the simulator, and the second pass was answered by the memo.
    distinct = {base.content_digest()} | {kernel.content_digest() for kernel in kernels}
    stats = env.measurement_stats
    assert stats.submitted == 1 + 2 * len(kernels)
    assert stats.measured == len(distinct)
    assert stats.memo_hits == stats.submitted - stats.measured >= len(kernels)
    env.close()


# ---------------------------------------------------------------------------
# Failed measurements are never memoized
# ---------------------------------------------------------------------------
class FlakySimulator(CountingSimulator):
    """Fails its first measurement, then behaves (a transient backend fault)."""

    def measure_with_launch(self, kernel, launch, measurement=None):
        if self.calls == 0:
            self.calls += 1
            raise RuntimeError("transient measurement failure")
        return super().measure_with_launch(kernel, launch, measurement)


@pytest.mark.parametrize("table", ["private", "shared"])
@pytest.mark.parametrize("backend", ["inline", "threaded"])
def test_failed_measurement_is_not_memoized(table, backend):
    from repro.pool import SharedMemoTable

    kernel = SassKernel.from_text(ADD_ONE, KernelMetadata(name="addone", num_warps=1))
    shared = SharedMemoTable() if table == "shared" else None

    def service(stub, owner):
        return create_measurement_service(
            stub, GridConfig((1, 1, 1), 1), {}, [], backend=backend, max_workers=1,
            shared_memo=shared, memo_scope="addone" if shared is not None else "", memo_owner=owner,
        )

    flaky = FlakySimulator()
    first = service(flaky, "w0")
    try:
        with pytest.raises(RuntimeError, match="transient"):
            first.submit(kernel).result()
        # The failure is not replayed: the next request measures afresh, and
        # the success is what the memo keeps.
        timing = first.submit(kernel).result()
        assert timing.time_ms == 1.0
        assert first.submit(kernel).result() is timing
        assert flaky.calls == 2
        assert first.stats.as_dict() == {
            "submitted": 3, "measured": 2, "memo_hits": 1, "pruned": 0,
        }
    finally:
        first.close()
    if shared is not None:
        # A sibling sharing the table gets the success, not the old error.
        healthy = CountingSimulator()
        sibling = service(healthy, "w1")
        try:
            assert sibling.submit(kernel).result() is timing
        finally:
            sibling.close()
        assert healthy.calls == 0
        assert shared.stats.cross_worker_hits == 1


def test_failures_reach_only_their_own_request_under_concurrency():
    """More threads than cores share one table through flaky services.

    Inline futures resolve before they are stored, so a failure may reach
    only the request that measured it (or none, when a racing sibling had
    already stored a success): requests that saw an error never outnumber
    raw measurements that failed, and nothing failed is left in the table.
    """
    import sys
    import threading

    from repro.pool import SharedMemoTable

    class AlternatingSimulator(CountingSimulator):
        lock = threading.Lock()
        failures = 0

        def measure_with_launch(self, kernel, launch, measurement=None):
            with AlternatingSimulator.lock:
                self.calls += 1
                fail = self.calls % 2 == 1
                AlternatingSimulator.failures += fail
            if fail:
                raise RuntimeError("transient measurement failure")
            return super().measure_with_launch(kernel, launch, measurement)

    base = SassKernel.from_text(ADD_ONE, KernelMetadata(name="addone", num_warps=1))
    kernels = [base, base.swap(3, 4), base.swap(4, 5), base.swap(5, 6)]
    table = SharedMemoTable()
    seen_errors = []
    services = [
        create_measurement_service(
            AlternatingSimulator(), GridConfig((1, 1, 1), 1), {}, [],
            shared_memo=table, memo_scope="addone", memo_owner=f"w{index}",
        )
        for index in range(8)
    ]

    def hammer(service):
        for round_ in range(100):
            try:
                service.submit(kernels[round_ % len(kernels)]).result()
            except RuntimeError:
                seen_errors.append(1)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=hammer, args=(service,)) for service in services]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert 0 < len(seen_errors) <= AlternatingSimulator.failures
    for kernel in kernels:
        cached = table.get(f"addone|{kernel.content_digest()}")
        assert cached is not None and cached.result().time_ms == 1.0
    for service in services:
        stats = service.stats
        assert stats.submitted == 100
        assert stats.measured + stats.memo_hits == stats.submitted


# ---------------------------------------------------------------------------
# Cancellation checkpoints and progress callbacks (the serve-layer hooks)
# ---------------------------------------------------------------------------
def test_checkpoint_aborts_between_candidates(compiled, simulator):
    kernels = _candidates(compiled, simulator)
    calls = []

    def checkpoint():
        calls.append(len(calls))
        if len(calls) > 2:
            raise RuntimeError("cancelled")

    service = create_measurement_service(
        simulator, compiled.grid, compiled.make_inputs(0), compiled.param_order,
        checkpoint=checkpoint,
    )
    with pytest.raises(RuntimeError, match="cancelled"):
        service.measure_batch(kernels)
    # The batch stopped part-way: the batch-level checkpoint plus one per
    # submission, never the whole batch.
    assert service.stats.measured < len(kernels)


def test_checkpoint_fires_on_memo_hits_too(compiled, simulator):
    kernels = _candidates(compiled, simulator, count=2)
    cancelled = []

    def checkpoint():
        if cancelled:
            raise RuntimeError("cancelled")

    service = create_measurement_service(
        simulator, compiled.grid, compiled.make_inputs(0), compiled.param_order,
        checkpoint=checkpoint,
    )
    service.measure_batch(kernels)
    cancelled.append(True)
    # Re-measuring a memoized schedule must still consult the checkpoint: a
    # cancelled search stops even when every answer would come from the memo.
    with pytest.raises(RuntimeError, match="cancelled"):
        service.submit(kernels[0])


def test_progress_reports_cumulative_submissions(compiled, simulator):
    kernels = _candidates(compiled, simulator)
    counts = []
    service = create_measurement_service(
        simulator, compiled.grid, compiled.make_inputs(0), compiled.param_order,
        progress=counts.append,
    )
    service.measure_batch(kernels)
    assert counts == list(range(1, len(kernels) + 1))
    service.measure_batch(kernels)  # pure memo hits still count as progress
    assert counts == list(range(1, 2 * len(kernels) + 1))
    # At least one full batch of hits (two mutations may already collide:
    # swapping i up and i+1 down produce the same schedule).
    assert service.stats.memo_hits >= len(kernels)
