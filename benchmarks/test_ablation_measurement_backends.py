"""Ablation: measurement-service backends (inline vs threaded).

The §3.6 measurement protocol is the bottleneck of every search strategy;
this entry records evaluations/sec of the greedy search per backend and
checks the service is semantics-preserving: every backend finds the same
best schedule, and the always-on memo sends each distinct schedule to the
simulator once — strictly fewer raw measurements than requests.  A raw-speed
probe on distinct single-swap candidates times the simulator itself.
"""

from repro.bench.experiments import format_table, measurement_backend_throughput


def test_measurement_backend_throughput(benchmark, simulator):
    rows = benchmark.pedantic(
        lambda: measurement_backend_throughput(simulator=simulator),
        rounds=1,
        iterations=1,
    )
    print("\nAblation — measurement backends (greedy search, mmLeakyReLu)")
    print(format_table(rows, floatfmt="{:.4f}"))

    by_backend = {row["backend"]: row for row in rows}
    inline = by_backend["inline"]
    threaded = by_backend["threaded"]

    # The search is deterministic: backends change throughput, not results,
    # and the memo dedups the same request stream identically.
    assert threaded["best_ms"] == inline["best_ms"]
    assert threaded["evaluations"] == inline["evaluations"]
    assert threaded["submitted"] == inline["submitted"]
    assert threaded["raw_measurements"] == inline["raw_measurements"]

    for row in rows:
        # Memoization dedups repeated schedules: strictly fewer raw
        # measurements than requests, every request accounted for.
        assert row["memo_hits"] > 0
        assert row["raw_measurements"] + row["memo_hits"] == row["submitted"]
        assert row["raw_measurements"] < row["submitted"]
        # The probe's candidates are distinct: each one (plus the warm-up
        # seed) is a raw simulation, none a memo hit.
        assert row["probe_candidates"] > 0
        assert row["probe_measured"] == row["probe_candidates"] + 1
        assert row["evals_per_sec"] > 0 and row["probe_evals_per_sec"] > 0
