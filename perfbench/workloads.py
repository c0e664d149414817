"""The benchmark's workloads: seeded job lists, set-up, measured phase, checks.

Every workload turns ``(seed, seconds)`` into a fixed job list before any
timing starts, so two runs with the same arguments do identical work; the
seed changes only the order, the per-job search seeds and the arrival times.

* ``ppo-search`` — closed loop, one client: sequential PPO searches over the
  four Table-2 kernels that have legal moves.
* ``greedy-paranoid`` — closed loop, one client: greedy + autotune +
  paranoid verification + deploy once per (kernel, backend) pair, every job
  under a fresh cache key.
* ``serve-http`` — open loop: seeded arrivals into ``python -m
  repro.remote.serve``, a fixed mix of result-store hits and forced fresh
  searches.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import resource
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import hostspeed
from repro.analysis import verify_schedule
from repro.api import CacheConfig, OptimizationConfig, Session
from repro.api.backends import available_backends
from repro.remote import RemoteClient
from repro.sim.functional import compare_outputs
from repro.sim.program import clear_decoded_program_cache, decoded_program_cache_info
from repro.triton.compiler import compile_spec
from repro.triton.spec import available_kernels, get_spec

#: Backend of the single-backend workloads.
BACKEND = "A100-80GB-PCIe"
#: Deployed kernels whose outputs are checked against the reference per phase.
RUN_CHECK_SAMPLE = 8


class InvalidRun(RuntimeError):
    """The run cannot be measured honestly (e.g. the generator fell behind)."""


@dataclass
class Job:
    index: int
    kernel: str
    backend: str
    #: ``OptimizationConfig.seed`` of the search (ppo-search).
    seed: int = 0
    #: serve-http: a forced fresh search (``use_store=False``) instead of a hit.
    fresh: bool = False
    #: serve-http: arrival offset from the start of the phase, in seconds.
    due_s: float = 0.0


@dataclass
class JobRun:
    """One closed-loop run of a job, with its raw times."""

    session: Session
    report: object
    latency_s: float
    span_s: float
    cpu_s: float
    #: Index of the host probe taken just before the run.
    probe_index: int


@dataclass
class Outcome:
    """One job's result; a closed loop averages over its repeats."""

    job: Job
    #: Seconds from start (closed loop) or due time (open loop) to the result;
    #: ``None`` when the job never finished.
    latency_s: float | None = None
    #: Closed loop: wall and CPU seconds of the whole job (session
    #: construction, ``optimize``, deploy), the base of jobs_per_s.
    span_s: float = 0.0
    cpu_s: float = 0.0
    error: str | None = None
    #: One ``RunReport`` per repeat.
    reports: list = field(default_factory=list)
    #: Search wall time and evaluations, for ``candidates_per_s``.
    search_s: float = 0.0
    evaluations: int = 0
    schedule_digest: str = ""
    #: The session whose cache holds the first repeat's deployed kernel.
    session: object = None
    #: serve-http: the server's ``JobRecord``.
    record: object = None

    @property
    def report(self):
        return self.reports[0] if self.reports else None

    @property
    def ok(self) -> bool:
        return self.error is None and bool(self.reports)

    def fail(self, message: str) -> None:
        if self.error is None:
            self.error = message

    def add_runs(self, runs: list[JobRun], host_probes: list[float]) -> None:
        """Take each time as its mean over ``runs``, every run scaled to the
        reference host speed by the probes on either side of it."""
        if not runs:
            return
        self.session = runs[0].session
        self.reports = [run.report for run in runs]
        for report in self.reports:
            if report.failed:
                self.fail(report.error)
        self.evaluations = self.reports[0].evaluations
        scales = [
            2 * hostspeed.REFERENCE_S
            / (host_probes[run.probe_index] + host_probes[run.probe_index + 1])
            for run in runs
        ]

        def mean(times):
            return sum(t * scale for t, scale in zip(times, scales)) / len(runs)

        self.latency_s = mean([run.latency_s for run in runs])
        self.span_s = mean([run.span_s for run in runs])
        self.cpu_s = mean([run.cpu_s for run in runs])
        self.search_s = mean([run.report.details["elapsed_s"] for run in runs])


@dataclass
class Phase:
    outcomes: list[Outcome]
    #: Time base of jobs_per_s: the sum of per-job spans (closed loop) or
    #: the phase's wall time (open loop).
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    #: Per-layer metrics the workload reads from program outputs (serve-http).
    serving: dict = field(default_factory=dict)
    decode_misses: int = 0
    #: Seconds of the host-speed reference loop, probed between jobs.
    host_probes: list = field(default_factory=list)

    @property
    def reports(self) -> list:
        return [report for outcome in self.outcomes for report in outcome.reports]

    @property
    def executions(self) -> int:
        """Jobs run, repeats included: the divisor of per-layer figures."""
        return sum(max(1, len(outcome.reports)) for outcome in self.outcomes)


def _own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def result_digest(outcomes: list[Outcome]) -> str:
    """Digest of ``(kernel, backend, best_time_ms, schedule digest)`` per job."""
    rows = [
        [
            outcome.job.kernel,
            outcome.job.backend,
            repr(outcome.report.best_time_ms) if outcome.report is not None else None,
            outcome.schedule_digest,
        ]
        for outcome in outcomes
    ]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]


def _check_outputs(session: Session, kernel: str, shapes: dict, seed: int) -> str | None:
    """Run the deployed kernel and compare with the spec's numpy reference."""
    spec = get_spec(kernel)
    inputs = spec.make_inputs(np.random.default_rng(seed), shapes)
    run = session.run(kernel, inputs, shapes=shapes)
    reference = spec.reference(inputs, shapes)
    for name in spec.output_names:
        passed, max_err, _ = compare_outputs(run.outputs[name], reference[name])
        if not passed:
            return f"output {name!r} differs from the reference (max abs error {max_err:g})"
    return None


class ClosedLoop:
    """One client issuing ``Session.optimize`` calls back to back.

    The job list runs ``repeats`` times, each round in its own seeded order
    and with fresh sessions, and every job starts with an empty
    decoded-program cache, so each repeat of a job does identical work.
    Each run of a job is scaled to the reference host speed by the
    :mod:`hostspeed` probes on both sides of it, and a job's times are the
    mean over its repeats.
    """

    name = ""
    strategy = ""
    verify = ""
    #: Latency limit of ``slo_met_frac``.
    slo_s = 0.0
    repeats = 2
    config = OptimizationConfig()

    def __init__(self, seed: int, seconds: int, work: Path):
        self.seed = seed
        self.work = work
        rng = random.Random(seed)
        self.jobs = self.make_jobs(rng, seconds)
        self.orders = [rng.sample(self.jobs, len(self.jobs)) for _ in range(self.repeats)]

    def make_jobs(self, rng: random.Random, seconds: int) -> list[Job]:
        raise NotImplementedError

    def session(self, tag: str, repeat: int, job: Job) -> Session:
        raise NotImplementedError

    def deploy(self, session: Session, job: Job) -> None:
        """Part of the job after the timed ``optimize`` call (none by default)."""

    def run_phase(self, tag: str, recorder=None) -> Phase:
        outcomes = [Outcome(job) for job in self.jobs]
        runs: dict[int, list[JobRun]] = {job.index: [] for job in self.jobs}
        decode_misses = 0
        # host_probes[i] and host_probes[i + 1] bracket the i-th job run.
        host_probes = [hostspeed.probe()]
        for repeat, order in enumerate(self.orders):
            for job in order:
                # Clearing also resets the cache's counters.
                clear_decoded_program_cache()
                token = recorder.set_job((job.index, repeat)) if recorder is not None else None
                try:
                    cpu0 = time.process_time()
                    t0 = time.perf_counter()
                    session = self.session(tag, repeat, job)
                    t1 = time.perf_counter()
                    report = session.optimize(
                        job.kernel, strategy=self.strategy, verify=self.verify
                    )
                    t2 = time.perf_counter()
                    self.deploy(session, job)
                    runs[job.index].append(JobRun(
                        session, report, t2 - t1, time.perf_counter() - t0,
                        time.process_time() - cpu0, len(host_probes) - 1,
                    ))
                except Exception as exc:  # a failing job is counted, not fatal
                    outcomes[job.index].fail(f"{type(exc).__name__}: {exc}")
                finally:
                    if token is not None:
                        recorder.reset_job(token)
                decode_misses += decoded_program_cache_info()["misses"]
                host_probes.append(hostspeed.probe())
        for outcome in outcomes:
            outcome.add_runs(runs[outcome.job.index], host_probes)
        return Phase(
            outcomes=outcomes,
            wall_s=sum(outcome.span_s for outcome in outcomes),
            cpu_s=sum(outcome.cpu_s for outcome in outcomes),
            peak_rss_mb=_own_peak_rss_mb(),
            decode_misses=decode_misses,
            host_probes=host_probes,
        )

    def check(self, phase: Phase) -> None:
        """Re-verify every best schedule; repeats must agree; run a sample
        against the reference."""
        for outcome in phase.outcomes:
            if not outcome.ok:
                continue
            artifact = outcome.report.artifact
            best = artifact.optimized.kernel
            outcome.schedule_digest = best.content_digest()
            verdict = verify_schedule(artifact.compiled.kernel, best)
            if not verdict.ok:
                outcome.fail("verify_schedule rejected the best schedule:\n" + verdict.render())
            first = (outcome.report.best_time_ms, outcome.schedule_digest, outcome.evaluations)
            for report in outcome.reports[1:]:
                again = (
                    report.best_time_ms,
                    report.artifact.optimized.kernel.content_digest(),
                    report.evaluations,
                )
                if again != first:
                    outcome.fail(f"a repeat of the job gave {again}, the first gave {first}")
        checked = [outcome for outcome in phase.outcomes if outcome.ok]
        rng = random.Random(self.seed)
        for outcome in rng.sample(checked, min(RUN_CHECK_SAMPLE, len(checked))):
            deployed = outcome.session.deploy(outcome.job.kernel)
            if deployed.kernel.content_digest() != outcome.schedule_digest:
                outcome.fail("the deployed schedule is not the reported best schedule")
                continue
            problem = _check_outputs(
                outcome.session, outcome.job.kernel, outcome.report.shapes, outcome.job.seed
            )
            if problem:
                outcome.fail(problem)

    def setup(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        pass


class PPOSearch(ClosedLoop):
    """The paper's RL loop; per-candidate work dominates each job."""

    name = "ppo-search"
    strategy = "ppo"
    verify = "final"
    slo_s = 10.0
    #: Table-2 kernels whose seed schedules have legal moves.
    kernels = ("bmm", "mmLeakyReLu", "fused_ff", "rmsnorm")
    #: 64 PPO steps (two updates) keep a fused_ff job near 1 s.
    config = OptimizationConfig(scale="test", train_timesteps=64, autotune=False)
    #: Nominal seconds of one round of the kernels (each once) on a 2-core
    #: host; it only sizes the job list, which never depends on measured speed.
    round_s = 3.0

    def make_jobs(self, rng, seconds):
        rounds = max(1, int(seconds // (self.round_s * self.repeats)))
        seeds = rng.sample(range(1, 2**31), rounds * len(self.kernels) + 1)
        self.warmup_seed = seeds.pop()
        return [
            Job(r * len(self.kernels) + k, kernel, BACKEND, seed=seeds[r * len(self.kernels) + k])
            for r in range(rounds)
            for k, kernel in enumerate(self.kernels)
        ]

    def session(self, tag, repeat, job):
        # One cache directory per job and repeat, so every job's deployed
        # kernel stays available to the correctness check.
        return Session(
            gpu=BACKEND,
            cache_dir=self.work / tag / f"job{job.index}-{repeat}",
            config=self.config.replace(seed=job.seed),
        )

    def setup(self):
        warm = Session(
            gpu=BACKEND,
            cache_dir=self.work / "warmup",
            config=self.config.replace(seed=self.warmup_seed, train_timesteps=32),
        )
        warm.optimize("rmsnorm", strategy=self.strategy, verify=self.verify)


class GreedyParanoid(ClosedLoop):
    """Cold compile/autotune/verify/splice/deploy on every job; RL idle."""

    name = "greedy-paranoid"
    strategy = "greedy"
    verify = "paranoid"
    slo_s = 5.0
    config = OptimizationConfig(scale="test", strategy="greedy", autotune=True, verify="paranoid")
    #: Pairs left out of the job list so that no reported rank sits on a
    #: cluster boundary: that leaves 17 cheap, 5 flash-attention, 10
    #: bmm/mmLeakyReLu and 4 fused_ff jobs, so the median is the 1st/2nd
    #: flash-attention job and the tail (10 beyond) the 3rd of the
    #: bmm/mmLeakyReLu jobs.  The warm-up runs the first (a one-move search).
    held_out = (
        ("rmsnorm", "H100-80GB-SXM"),
        ("seg-scan", "A100-80GB-PCIe"),
        ("softmax", "A30-24GB-PCIe"),
        ("fused_ff", "RTX3090-24GB"),
    )
    #: Nominal seconds of one round on a 2-core host; sizes the run only.
    round_s = 15.0

    def make_jobs(self, rng, seconds):
        self.repeats = max(2, int(seconds // self.round_s))
        pairs = [
            (kernel, backend)
            for kernel in available_kernels()
            for backend in available_backends()
            if (kernel, backend) not in self.held_out
        ]
        return [Job(index, k, b) for index, (k, b) in enumerate(pairs)]

    def session(self, tag, repeat, job):
        # Sessions (and so autotuner and cubin caches) are per round and
        # backend: no job shares a cache key with an earlier one.
        key = (tag, repeat, job.backend)
        if key not in self._sessions:
            self._sessions[key] = Session(
                gpu=job.backend,
                cache_dir=self.work / tag / f"round{repeat}" / job.backend,
                config=self.config,
            )
        return self._sessions[key]

    def deploy(self, session, job):
        session.deploy(job.kernel)

    def setup(self):
        self._sessions: dict = {}
        kernel, backend = self.held_out[0]
        session = Session(gpu=backend, cache_dir=self.work / "warmup", config=self.config)
        session.optimize(kernel, strategy=self.strategy, verify=self.verify)
        session.deploy(kernel)


def _proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of a live child process."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _proc_peak_rss_mb(pid: int) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class ServeHTTP:
    """Open-loop traffic through HTTP, queue, journal and result store."""

    name = "serve-http"
    slo_s = 1.0
    #: Poisson arrival rate, well under one worker's capacity (~15% busy).
    rate_per_s = 10.0
    #: Per kernel and cycle: one forced fresh search (a write: search, store,
    #: journal) and three store hits (reads).
    fresh_per_cycle = 1
    hits_per_cycle = 3
    server_args = (
        "--strategy", "greedy", "--scale", "test", "--budget", "16", "--no-autotune",
        # One phase stays far below this, so no compaction lands mid-phase.
        "--compact-every", "100000",
    )
    #: Generator honesty limits: beyond them the run is invalid, not slow.
    #: A send waits for the previous POST on its connection, and a POST can
    #: wait ~100 ms for the server's interpreter lock while a search runs, so
    #: lateness of that order is the server's and stays in the latency.
    max_lateness_p99_s = 0.250
    max_lateness_s = 1.0
    max_backlog_end = 8
    drain_timeout_s = 60.0

    def __init__(self, seed: int, seconds: int, work: Path):
        self.seed = seed
        self.work = work
        rng = random.Random(seed)
        kernels = available_kernels()
        per_cycle = len(kernels) * (self.fresh_per_cycle + self.hits_per_cycle)
        cycles = max(1, round(self.rate_per_s * seconds / per_cycle))
        mix = [
            (kernel, fresh)
            for _ in range(cycles)
            for kernel in kernels
            for fresh in [True] * self.fresh_per_cycle + [False] * self.hits_per_cycle
        ]
        rng.shuffle(mix)
        # A Poisson process conditioned on its count: uniform arrival times.
        span_s = len(mix) / self.rate_per_s
        offsets = sorted(rng.uniform(0.0, span_s) for _ in mix)
        self.jobs = [
            Job(index, kernel, BACKEND, fresh=fresh, due_s=due)
            for index, ((kernel, fresh), due) in enumerate(zip(mix, offsets))
        ]
        self.server: subprocess.Popen | None = None

    def _boot(self) -> None:
        root = Path(__file__).resolve().parent.parent
        server_dir = self.work / "server"
        server_dir.mkdir(parents=True, exist_ok=True)
        self.cache_dir = server_dir / "cache"
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.server = subprocess.Popen(
            [
                sys.executable, "-m", "repro.remote.serve",
                "--port", "0",
                "--cache-dir", str(self.cache_dir),
                "--journal-path", str(server_dir / "journal.jsonl"),
                *self.server_args,
            ],
            cwd=server_dir,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        line = self.server.stdout.readline().strip()
        if not line.startswith("READY "):
            raise RuntimeError(f"server did not come up: {line!r}")
        self.url = dict(part.split("=", 1) for part in line.split()[1:])["url"]
        self.client = RemoteClient(self.url)

    def setup(self) -> None:
        self._boot()
        # Warm-up: store every kernel once; these results are the expected
        # best times of every later hit and fresh search (greedy is
        # deterministic).
        self.expected: dict[str, float] = {}
        for kernel in available_kernels():
            report = self.client.submit(kernel).result(timeout=self.drain_timeout_s)
            if report.failed:
                raise RuntimeError(f"warm-up {kernel} failed: {report.error}")
            self.expected[kernel] = report.best_time_ms

    def _send(self, jobs, perf0, sent: dict, lateness: dict) -> None:
        for job in jobs:
            delay = perf0 + job.due_s - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            lateness[job.index] = time.perf_counter() - perf0 - job.due_s
            try:
                sent[job.index] = self.client.submit(job.kernel, use_store=not job.fresh).job_id
            except Exception as exc:  # refused or unreachable: a failed request
                sent[job.index] = exc

    def run_phase(self, tag: str, recorder=None) -> Phase:
        pid = self.server.pid
        before = self.client.metrics()
        cpu0 = _proc_cpu_s(pid)
        sent: dict = {}
        lateness: dict = {}
        wall0 = time.time()
        perf0 = time.perf_counter()
        senders = [
            threading.Thread(target=self._send, args=(self.jobs[i::2], perf0, sent, lateness))
            for i in range(2)
        ]
        for thread in senders:
            thread.start()
        for thread in senders:
            thread.join()
        backlog_end = self.client.metrics()["queue"]["pending"]
        deadline = time.monotonic() + self.drain_timeout_s
        while time.monotonic() < deadline:
            queue = self.client.metrics()["queue"]
            if queue["active"] == 0 and queue["pending"] == 0:
                break
            time.sleep(0.05)
        cpu_s = _proc_cpu_s(pid) - cpu0
        after = self.client.metrics()
        peak_rss = _proc_peak_rss_mb(pid)

        records = {record.job_id: record for record in self.client.jobs()}
        outcomes = []
        finished = []
        for job in self.jobs:
            outcome = Outcome(job)
            outcomes.append(outcome)
            job_id = sent[job.index]
            if isinstance(job_id, Exception):
                outcome.fail(f"submit: {type(job_id).__name__}: {job_id}")
                continue
            record = outcome.record = records[job_id]
            if not record.status.terminal:
                outcome.fail(f"not finished within the drain timeout ({record.status.value})")
                continue
            try:
                outcome.reports.append(self.client.result(job_id, timeout=1.0))
            except Exception as exc:
                outcome.fail(f"result: {type(exc).__name__}: {exc}")
                continue
            outcome.latency_s = record.finished_at - (wall0 + job.due_s)
            finished.append(record.finished_at)
            if outcome.report.failed:
                outcome.fail(outcome.report.error)
            if not record.from_store:
                outcome.search_s = record.finished_at - record.started_at
                outcome.evaluations = outcome.report.evaluations
        wall = (max(finished) if finished else time.time()) - wall0
        late = sorted(lateness.values())
        serving = self._serving(outcomes, before, after, wall0, wall)
        serving.update({
            "gen.lateness_p99_ms": late[min(len(late) - 1, math.ceil(0.99 * len(late)) - 1)] * 1e3,
            "gen.lateness_max_ms": late[-1] * 1e3,
            "gen.backlog_end": float(backlog_end),
        })
        if (
            serving["gen.lateness_p99_ms"] > self.max_lateness_p99_s * 1e3
            or serving["gen.lateness_max_ms"] > self.max_lateness_s * 1e3
            or backlog_end > self.max_backlog_end
        ):
            raise InvalidRun(
                "open-loop generator fell behind or the backlog grew: "
                f"lateness p99 {serving['gen.lateness_p99_ms']:.1f} ms, "
                f"max {serving['gen.lateness_max_ms']:.1f} ms, "
                f"pending at the end {backlog_end}"
            )
        return Phase(
            outcomes=outcomes, wall_s=wall, cpu_s=cpu_s, peak_rss_mb=peak_rss, serving=serving
        )

    @staticmethod
    def _serving(outcomes, before, after, wall0, wall) -> dict:
        submitted = [outcome for outcome in outcomes if outcome.record is not None]
        done = [o.record for o in submitted if o.record.finished_at is not None]
        hits = [record for record in done if record.from_store]
        fresh = [record for record in done if not record.from_store]

        def mean_ms(values):
            return 1e3 * sum(values) / len(values) if values else 0.0

        def busy_s(metrics):
            return sum(worker["busy_s"] for worker in metrics["pool"]["workers"])

        journal = (
            after["server"]["journal"]["size_bytes"] - before["server"]["journal"]["size_bytes"]
        )
        return {
            "serve.queue_wait_ms": mean_ms([r.started_at - r.submitted_at for r in done]),
            "serve.hit_run_ms": mean_ms([r.finished_at - r.started_at for r in hits]),
            "serve.fresh_run_ms": mean_ms([r.finished_at - r.started_at for r in fresh]),
            "serve.store_hit_frac": len(hits) / len(done) if done else 0.0,
            "remote.ingress_ms": mean_ms(
                [o.record.submitted_at - (wall0 + o.job.due_s) for o in submitted]
            ),
            "remote.journal_bytes_per_job": journal / len(submitted) if submitted else 0.0,
            "pool.busy_frac": (busy_s(after) - busy_s(before)) / wall if wall > 0 else 0.0,
        }

    def check(self, phase: Phase) -> None:
        """Every result equals the warm-up's; deployed schedules re-verify and
        compute the reference outputs."""
        for outcome in phase.outcomes:
            if not outcome.ok:
                continue
            record = outcome.record
            if record.from_store == outcome.job.fresh:
                outcome.fail(
                    f"expected a {'fresh search' if outcome.job.fresh else 'store hit'}, "
                    f"got from_store={record.from_store}"
                )
            if outcome.report.best_time_ms != self.expected[outcome.job.kernel]:
                outcome.fail(
                    f"best_time_ms {outcome.report.best_time_ms!r} != "
                    f"{self.expected[outcome.job.kernel]!r} from the warm-up"
                )
        namespaces = [path for path in self.cache_dir.iterdir() if path.is_dir()]
        if len(namespaces) != 1:
            raise RuntimeError(f"expected one backend cache under {self.cache_dir}")
        session = Session(
            gpu=BACKEND,
            config=OptimizationConfig(scale="test"),
            cache=CacheConfig(directory=namespaces[0], readonly=True),
        )
        problems: dict[str, str | None] = {}
        digests: dict[str, str] = {}
        for kernel in available_kernels():
            report = next(
                (o.report for o in phase.outcomes if o.ok and o.job.kernel == kernel), None
            )
            if report is None:
                continue
            deployed = session.deploy(kernel).kernel
            seed_kernel = compile_spec(
                get_spec(kernel), shapes=report.shapes, config=report.config
            ).kernel
            digests[kernel] = deployed.content_digest()
            verdict = verify_schedule(seed_kernel, deployed)
            if verdict.ok:
                problems[kernel] = _check_outputs(session, kernel, report.shapes, self.seed)
            else:
                problems[kernel] = (
                    "verify_schedule rejected the deployed schedule:\n" + verdict.render()
                )
        for outcome in phase.outcomes:
            problem = problems.get(outcome.job.kernel)
            if problem:
                outcome.fail(problem)
            outcome.schedule_digest = digests.get(outcome.job.kernel, "")

    def close(self) -> None:
        if self.server is None:
            return
        self.server.terminate()
        try:
            self.server.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.server.kill()
            self.server.wait(timeout=30)
        self.server.stdout.close()
        self.server = None


WORKLOADS = {cls.name: cls for cls in (PPOSearch, GreedyParanoid, ServeHTTP)}
