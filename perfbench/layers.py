"""What the traced run wraps, and the per-layer metrics it derives from spans.

Every timed metric is self time (span duration minus its children) summed
over the measured phase and divided by the phase's job count, so a layer's
figure does not grow with run length.  Counts are per job as well.  The
serving layers (``serve``, ``remote``, ``pool``) run in the server process,
so ``serve-http`` reads them from program outputs (job records and
``/metrics``) in :mod:`workloads`; here they are only declared.
"""

from __future__ import annotations

from collections import Counter

from repro.sass.kernel import SassKernel
from spans import Span, SpanRecorder, Target

# Bound before the wrappers are installed, so reading a candidate's digest
# for the repeat count records no span of its own.
_content_digest = SassKernel.content_digest


def _record_digest(span: Span, args, result) -> None:
    # args = (simulator, kernel, launch, ...); the digest is cached on the
    # kernel, so after the simulator decoded it this is an attribute read.
    span.attrs["digest"] = _content_digest(args[1])


def _record_legal(span: Span, args, result) -> None:
    span.attrs["legal"] = bool(result)


#: The public functions the traced run wraps, one span name each.
TARGETS = (
    Target("repro.api.session:Session.optimize", "api.optimize"),
    Target("repro.api.session:Session.deploy", "api.deploy"),
    Target("repro.core.jit:CubinCache.store", "api.cache_store"),
    Target("repro.api.strategies:PPOStrategy.run", "api.search"),
    Target("repro.api.strategies:GreedySearchStrategy.run", "api.search"),
    Target("repro.triton.autotuner:Autotuner.compile_best", "triton.autotune"),
    Target("repro.triton.compiler:compile_spec", "triton.compile"),
    Target("repro.analysis.passes:run_pre_game_analysis", "analysis.pregame"),
    Target("repro.analysis.verify:ScheduleVerifier.verify", "analysis.verify"),
    Target("repro.analysis.verify:ScheduleVerifier.is_legal", "analysis.is_legal", _record_legal),
    Target("repro.sim.functional:ProbabilisticTester.run", "analysis.probtest"),
    Target("repro.analysis.funcdiff:FunctionalDiffer.diff", "analysis.funcdiff"),
    Target("repro.analysis.funcdiff:audit_control_roundtrip", "analysis.roundtrip"),
    Target("repro.core.env:AssemblyGame.__init__", "core.env_setup"),
    Target("repro.core.masking:ActionMasker.mask", "core.mask"),
    Target("repro.core.embedding:StateEmbedder.embed", "core.embed"),
    Target("repro.rl.policy:ActorCritic.act", "rl.act"),
    Target("repro.rl.policy:ActorCritic.forward", "rl.forward"),
    Target("repro.rl.policy:ActorCritic.backward", "rl.backward"),
    Target("repro.baselines.search:run_greedy_search", "baselines.greedy"),
    Target("repro.sass.kernel:SassKernel.swap", "sass.swap"),
    Target("repro.sass.kernel:SassKernel.content_digest", "sass.digest"),
    Target("repro.sass.assembler:splice_kernel", "sass.splice"),
    Target("repro.sass.disassembler:disassemble", "sass.disassemble"),
    Target("repro.sim.gpu:GPUSimulator.measure_with_launch", "sim.simulate", _record_digest),
    Target("repro.sim.program:decode_program", "sim.decode"),
    Target("repro.sim.program:build_program_from_lines", "sim.decode_build"),
    Target("repro.remote.client:RemoteClient.submit", "remote.submit"),
)

#: Self-time metrics: name -> span names summed.
SELF_TIME = {
    "sim.simulate_ms": ("sim.simulate",),
    "sim.decode_ms": ("sim.decode", "sim.decode_build"),
    "core.env_setup_ms": ("core.env_setup",),
    "core.mask_ms": ("core.mask",),
    "core.embed_ms": ("core.embed",),
    "rl.act_ms": ("rl.act",),
    "rl.forward_ms": ("rl.forward",),
    "rl.backward_ms": ("rl.backward",),
    "baselines.greedy_ms": ("baselines.greedy",),
    "analysis.is_legal_ms": ("analysis.is_legal",),
    "analysis.pregame_ms": ("analysis.pregame",),
    "analysis.verify_ms": ("analysis.verify",),
    "analysis.probtest_ms": ("analysis.probtest",),
    "analysis.funcdiff_ms": ("analysis.funcdiff",),
    "analysis.roundtrip_ms": ("analysis.roundtrip",),
    "triton.autotune_ms": ("triton.autotune",),
    "triton.compile_ms": ("triton.compile",),
    "sass.swap_ms": ("sass.swap",),
    "sass.digest_ms": ("sass.digest",),
    "sass.splice_ms": ("sass.splice",),
    "sass.disassemble_ms": ("sass.disassemble",),
    "api.optimize_ms": ("api.optimize",),
    "api.cache_store_ms": ("api.cache_store",),
    "api.deploy_ms": ("api.deploy",),
}

#: Call-count metrics: name -> span name counted.
CALLS = {
    "sim.simulate_calls": "sim.simulate",
    "core.mask_calls": "core.mask",
    "core.embed_calls": "core.embed",
    "rl.backward_calls": "rl.backward",
    "analysis.is_legal_calls": "analysis.is_legal",
    "triton.compile_calls": "triton.compile",
}

#: Ratios and counts derived from spans and reports.
DERIVED = {
    "sim.decode_miss_frac": "frac",
    "sim.repeat_candidate_frac": "frac",
    "sim.memo_hit_frac": "frac",
    "core.nonsim_share": "frac",
    "analysis.pruned_frac": "frac",
    "analysis.fallback_count": "count",
    "triton.autotune_configs": "count/job",
}

#: serve-http's metrics: client-side submit self time, then serving-side
#: numbers read from job records and ``/metrics``.
SERVING = {
    "remote.submit_ms": "ms/job",
    "serve.queue_wait_ms": "ms/job",
    "serve.hit_run_ms": "ms/job",
    "serve.fresh_run_ms": "ms/job",
    "serve.store_hit_frac": "frac",
    "remote.ingress_ms": "ms/job",
    "remote.journal_bytes_per_job": "B/job",
    "pool.busy_frac": "frac",
    "gen.lateness_p99_ms": "ms",
    "gen.lateness_max_ms": "ms",
    "gen.backlog_end": "count",
}

_SIM_SPANS = ("sim.simulate", "sim.decode", "sim.decode_build")


def units(serving: bool) -> dict[str, str]:
    """Unit of every per-layer metric of a workload, tracing overheads aside.

    The in-process layers are empty in serve-http (the search runs in the
    server) and the serving ones in the closed loops, so each workload
    reports only its own set.
    """
    if serving:
        return dict(SERVING)
    table = {name: "ms/job" for name in SELF_TIME}
    table.update({name: "count/job" for name in CALLS})
    table.update(DERIVED)
    return table


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def measure(
    recorder: SpanRecorder, jobs: int, reports, decode_misses: int
) -> tuple[dict, list[str]]:
    """Per-layer metrics of one traced phase, plus reconciliation failures.

    ``reports`` are the phase's ``RunReport``\\ s; ``decode_misses`` is the
    phase's delta of ``decoded_program_cache_info()["misses"]``.
    """
    spans = recorder.spans
    self_time = recorder.self_times()
    by_name: dict[str, float] = Counter()
    calls: Counter = Counter()
    for span, own in zip(spans, self_time):
        by_name[span.name] += own
        calls[span.name] += 1

    metrics = {
        name: sum(by_name[span] for span in names) * 1000.0 / jobs
        for name, names in SELF_TIME.items()
    }
    metrics.update({name: calls[span] / jobs for name, span in CALLS.items()})
    metrics["remote.submit_ms"] = by_name["remote.submit"] * 1000.0 / jobs

    search_wall = 0.0
    search_sim = 0.0
    search_simulate = 0
    autotune_trials = 0
    proposed = 0
    pruned = 0
    repeats = 0
    seen: set = set()
    build_under_decode = 0
    for index, span in enumerate(spans):
        scope = set(recorder.ancestors(index))
        in_search = "api.search" in scope
        if span.name == "api.search":
            search_wall += span.duration
        elif in_search and span.name in _SIM_SPANS:
            search_sim += self_time[index]
        if span.name == "sim.simulate":
            if in_search:
                search_simulate += 1
                key = (span.job, span.attrs["digest"])
                repeats += key in seen
                seen.add(key)
            if "triton.autotune" in scope:
                autotune_trials += 1
        elif span.name == "analysis.is_legal" and in_search:
            proposed += 1
            pruned += not span.attrs["legal"]
        elif (
            span.name == "sim.decode_build"
            and span.parent is not None
            and spans[span.parent].name == "sim.decode"
        ):
            build_under_decode += 1

    stats = [report.details.get("measurement", {}) for report in reports]
    measured = sum(entry.get("measured", 0) for entry in stats)
    reported_pruned = sum(entry.get("pruned", 0) for entry in stats)
    metrics.update({
        "sim.decode_miss_frac": _ratio(build_under_decode, calls["sim.decode"]),
        "sim.repeat_candidate_frac": _ratio(repeats, search_simulate),
        "sim.memo_hit_frac": _ratio(
            sum(entry.get("memo_hits", 0) for entry in stats),
            sum(entry.get("submitted", 0) for entry in stats),
        ),
        "core.nonsim_share": _ratio(search_wall - search_sim, search_wall),
        "analysis.pruned_frac": _ratio(pruned, proposed),
        "analysis.fallback_count": float(sum(report.verified is False for report in reports)),
        "triton.autotune_configs": autotune_trials / jobs,
    })

    failures = []
    if search_simulate != measured:
        failures.append(
            f"simulate calls inside searches {search_simulate} != "
            f"sum of measurement['measured'] {measured}"
        )
    if build_under_decode != decode_misses:
        failures.append(
            f"decode misses seen {build_under_decode} != "
            f"decoded_program_cache_info() misses delta {decode_misses}"
        )
    if pruned != reported_pruned:
        failures.append(
            f"is_legal prunes {pruned} != sum of measurement['pruned'] {reported_pruned}"
        )
    return metrics, failures
