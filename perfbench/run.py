"""End-to-end benchmark of the CuAsmRL reproduction, with a traced per-layer run.

Run from the repository root::

    python3 perfbench/run.py --workload ppo-search --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the workload untraced and prints its end-to-end
metrics.  ``--trace 1`` then repeats the same job list with span wrappers
installed around each layer's public functions and prints the per-layer
metrics, the counter reconciliation and the tracing overhead (traced minus
untraced, per end-to-end metric).  Every line before the last is for people;
the last line is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (name -> value and unit).

The exit code is 0 only when every job passed the correctness gate (and, in
a traced run, every counter reconciled).  A run that cannot be measured
honestly, e.g. an open-loop generator that fell behind, exits 3 without a
result line.  All scratch files live under ``.bench_work/`` in the checkout
and are removed at exit.
"""

from __future__ import annotations

import argparse
import math
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Thread-count variables of numpy's BLAS.  By default it starts one thread
#: per core; on two shared cores that burned a third more CPU for no gain in
#: wall time and makes timings follow the scheduler, so this process and its
#: children use one.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: Fresh processes timed from start to their first timed job; setup_s is
#: their median.
SETUP_PROBES = 9


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workload_names))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: set the workload up in DIR, report, tear down (setup_s probes).
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_program() -> None:
    """Put the checkout's ``src/`` first on the path and import the program."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import the program from {src}: {exc}")
    # ``repro`` is a namespace package: check where its parts were found.
    found = [Path(part).resolve() for part in repro.__path__]
    if found != [(src / "repro").resolve()]:
        raise SystemExit(f"perfbench: imported repro from {found}, not {src}")


def probe_setup(args, directory: Path) -> float:
    """Seconds from starting a fresh process to the end of its set-up.

    Unscaled: the child may run on the other core than the probe, and over
    so short a span the probes did not steady the figure.
    """
    directory.mkdir(parents=True)
    start = time.perf_counter()
    child = subprocess.Popen(
        [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--setup-probe", str(directory),
        ],
        cwd=directory,
        stdout=subprocess.PIPE,
        text=True,
    )
    line = child.stdout.readline().strip()
    elapsed = time.perf_counter() - start
    try:
        child.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        child.kill()
        child.communicate()
    if child.returncode != 0 or line != "SETUP_DONE":
        raise RuntimeError(f"set-up probe failed (exit {child.returncode}, {line!r})")
    return elapsed


def end_to_end(workload, phase, setup_s: float) -> dict[str, tuple[float, str, int, str]]:
    """Metric -> (value, unit, samples, note) of one measured phase."""
    outcomes = phase.outcomes
    attempted = len(outcomes)
    ok = [outcome for outcome in outcomes if outcome.ok]
    latencies = sorted(o.latency_s for o in outcomes if o.latency_s is not None)
    # The highest rank with at least ten samples beyond it.
    rank = max(0, len(latencies) - 11)
    tail_pct = 100.0 * (rank + 1) / max(1, len(latencies))
    search_s = sum(outcome.search_s for outcome in ok)
    speedups = [o.report.baseline_time_ms / o.report.best_time_ms for o in ok]
    within_slo = sum(o.ok and o.latency_s <= workload.slo_s for o in outcomes)
    return {
        "setup_s": (setup_s, "s", SETUP_PROBES, "median of fresh-process set-ups"),
        "jobs_per_s": (
            len(ok) / phase.wall_s if phase.wall_s else 0.0,
            "1/s", len(ok), f"over {phase.wall_s:.2f} s",
        ),
        "latency_p50_ms": (
            statistics.median(latencies) * 1e3 if latencies else 0.0, "ms", len(latencies), ""
        ),
        "latency_tail_ms": (
            latencies[rank] * 1e3 if latencies else 0.0, "ms", len(latencies), f"p{tail_pct:.1f}"
        ),
        "candidates_per_s": (
            sum(outcome.evaluations for outcome in ok) / search_s if search_s else 0.0,
            "1/s", len(ok), f"over {search_s:.2f} s of search",
        ),
        "cpu_ms_per_job": (phase.cpu_s * 1e3 / attempted, "ms", attempted, ""),
        "speedup_geomean": (
            math.exp(statistics.fmean(math.log(s) for s in speedups)) if speedups else 0.0,
            "x", len(speedups), "",
        ),
        "success_frac": (len(ok) / attempted, "frac", attempted, ""),
        "slo_met_frac": (
            within_slo / attempted, "frac", attempted, f"limit {workload.slo_s * 1e3:g} ms"
        ),
        "peak_rss_mb": (phase.peak_rss_mb, "MB", 1, ""),
    }


def print_table(title: str, rows: dict) -> None:
    print(title)
    for name, (value, unit, samples, note) in rows.items():
        print(f"  {name:32s} {value:14.6g} {unit:10s} n={samples:<6d} {note}")


def main(argv=None) -> int:
    # Before numpy is first imported.
    os.environ.update({name: "1" for name in BLAS_THREAD_VARS})
    import_program()
    import hostspeed
    import layers
    import workloads
    from spans import SpanRecorder, install

    args = parse_args(argv, workloads.WORKLOADS)
    make_workload = workloads.WORKLOADS[args.workload]

    if args.setup_probe:
        workload = make_workload(args.seed, args.seconds, Path(args.setup_probe))
        try:
            workload.setup()
            print("SETUP_DONE", flush=True)
        finally:
            workload.close()
        return 0

    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    workload = None
    try:
        setup_s = statistics.median(
            probe_setup(args, work / f"probe{i}") for i in range(SETUP_PROBES)
        )
        workload = make_workload(args.seed, args.seconds, work / "main")
        workload.setup()
        phases = [workload.run_phase("measured")]
        workload.check(phases[0])
        reconcile: list[str] = []
        if args.trace:
            recorder = SpanRecorder()
            restore = install(recorder, layers.TARGETS)
            try:
                phases.append(workload.run_phase("traced", recorder))
            finally:
                restore()
            workload.check(phases[1])
        digests = [workloads.result_digest(phase.outcomes) for phase in phases]
        failures = [o for phase in phases for o in phase.outcomes if not o.ok]
        attempted = sum(len(phase.outcomes) for phase in phases)

        untraced = end_to_end(workload, phases[0], setup_s)
        title = (
            f"perfbench {args.workload} seed={args.seed} seconds={args.seconds}: "
            f"{len(phases[0].outcomes)} jobs, result digest {digests[0]}"
        )
        if phases[0].host_probes:
            title += (
                f", host probe median {statistics.median(phases[0].host_probes) * 1e3:.3f} ms"
                f" (times scaled to {hostspeed.REFERENCE_S * 1e3:g} ms)"
            )
        print_table(title, untraced)
        if args.trace:
            traced = end_to_end(workload, phases[1], setup_s)
            if digests[1] != digests[0]:
                reconcile.append(f"traced result digest {digests[1]} != untraced {digests[0]}")
            per_layer, mismatches = layers.measure(
                recorder, phases[1].executions, phases[1].reports, phases[1].decode_misses
            )
            reconcile.extend(mismatches)
            per_layer.update(phases[1].serving)
            units = layers.units(serving=bool(phases[1].serving))
            rows = {
                name: (per_layer[name], unit, phases[1].executions, "")
                for name, unit in units.items()
            }
            for name, (value, unit, samples, _) in traced.items():
                if name != "setup_s":
                    rows[f"overhead.{name}"] = (
                        value - untraced[name][0], unit, samples, "traced - untraced"
                    )
            print_table(f"traced run: {len(recorder.spans)} spans", rows)
            for problem in reconcile:
                print(f"RECONCILIATION FAILED: {problem}")
            reported = rows
        else:
            reported = untraced
        for outcome in failures:
            job = outcome.job
            print(f"FAILED job {job.index} {job.kernel}/{job.backend}: {outcome.error}")
        correct = not failures and not reconcile
        print(json.dumps({
            "correct": correct,
            "attempted": attempted,
            "failed": len(failures),
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit, _, _) in reported.items()
            },
        }))
        return 0 if correct else 1
    except workloads.InvalidRun as exc:
        print(f"perfbench: invalid run: {exc}", file=sys.stderr)
        return 3
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run still uses it


if __name__ == "__main__":
    sys.exit(main())
