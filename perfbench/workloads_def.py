"""The benchmark workloads.

Each workload builds its inputs from the seed alone, runs a timed
phase through the simulator's public API (``run_jobs``, ``run_mix``,
the federation client), records what it needs for the correctness
checks, and tears down everything it started.

- ``large-32core``: one 32-core mix under LRU-SA64 and Vantage-Z4/52
  by in-process ``run_mix``, traces warmed during set-up -- the heap
  event loop, a 128K-line zcache, 64-way UMONs, Lookahead over 32
  partitions.
- ``service-resubmit``: two closed-loop clients against a gateway over
  two daemons, each fresh job followed by resubmissions of completed
  ones -- the service and federation layers, with short simulations.
- ``fig6-sweep`` (runnable, not in ``BENCHMARK.json``; see
  ``catalog.UNSTEADY_WORKLOADS``): sweeps of one 4-core mix per class
  under the four Fig-6 schemes, each one ``run_jobs`` fan-out on 2
  workers with the results cache off and every worker's trace store
  cold -- what regenerating a paper figure costs.

On the simulation workloads, ``cached_*`` time re-running a completed
unit through ``run_jobs`` with the results cache on (what regenerating
the same figure costs once its results are cached).
"""

from __future__ import annotations

import gc
import math
import random
import threading
import time
from dataclasses import dataclass, field

from repro import traces
from repro.harness import SimJob, SimOutcome, run_jobs, run_mix
from repro.harness import results_cache
from repro.service import ServiceError
from repro.sim import large_system, small_system
from repro.traces.chunks import chunk_instructions
from repro.workloads import make_mix

import catalog
from fleet import Fleet

EPOCH_CYCLES = 250_000
#: The layer probes draw their mix indices from 1..MIX_INDICES.
MIX_INDICES = 8
#: A mix's L2 has passed fill when its zcache run ends at least this
#: full.  Some hash seeds leave a large zcache's last few percent of
#: slots empty long after the rest has filled (92% at 140k instr/app).
FILL_FRACTION = 0.9
#: Cached re-requests of a whole unit timed per phase on the simulation
#: workloads (enough for a 99th percentile with ten samples past it).
CACHED_REQUESTS = 1000
#: Many short blocks: the host's speed changes from one block to the
#: next, and a run of few long blocks can draw mostly fast ones.
CACHED_BLOCK = 20
CACHED_BLOCKS = CACHED_REQUESTS // CACHED_BLOCK
CACHED_PAUSE_S = 0.25

FIG6_CLASSES = ("sftn", "ssft", "fftn", "ttnn")
#: Sweeps per timed phase at least, sweep k over mix k + 1 of every
#: class.  The mixes are fixed rather than drawn from the seed: which
#: ``ssft`` mix a seed drew moved a sweep's cost by up to 30%, more
#: than any regression bound could absorb on top of host noise.
FIG6_SWEEPS = 2
FIG6_INSTRUCTIONS = 450_000
FIG6_WORKERS = 2

LARGE_CLASS = "sftn"
#: The mix is fixed and the seed draws the simulation seed (trace
#: streams, hash functions): which of eight ``sftn`` mixes a seed drew
#: moved a run's cost by up to 20%, more than a regression bound can
#: absorb on top of host noise.
LARGE_MIX_INDEX = 1
LARGE_INSTRUCTIONS = 140_000
#: A round (one run of each scheme) takes about this long on a 2-vCPU
#: VM.  A phase runs the number of rounds its length asks for at that
#: pace, whatever the host's pace: stopping at the first round past the
#: length would run one round on a slow host and two on a fast one, and
#: the count moves every metric.
LARGE_ROUND_S = 16.0
#: Trace warm-up covers this multiple of the per-core target: cores
#: keep running past their target until the slowest one finishes.
LARGE_WARM_FACTOR = 4

#: Service jobs run on a 128 KiB L2 so that 20k-instruction jobs run
#: past fill, the regime every other workload measures.
SERVICE_L2_BYTES = 128 * 1024
#: Every fresh job runs one mix under one scheme and differs only in
#: its instruction count, so its cost is nearly the same every time.
#: Jobs over two mixes under LRU and Vantage cost 10 to 165 ms, and
#: their median falls between those modes and moves with the seed.
#: LRU keeps the simulation short next to the service path.
SERVICE_CLASS = "sftn"
SERVICE_MIX_INDEX = 1
SERVICE_BASE_INSTRUCTIONS = 20_000
SERVICE_INSTRUCTION_SPREAD = 4_000
SERVICE_CLIENTS = 2
SERVICE_RESUBMITS = 10
SERVICE_MIN_FRESH = 100
SERVICE_MIN_CACHED = 1000
#: ``jobs_per_s`` and ``sim_kips`` are medians over windows this long,
#: so a burst of load from elsewhere on a shared host moves one or two
#: windows rather than the whole phase's mean.
SERVICE_WINDOW_S = 2.0
#: A phase keeps going past its length until the sample minimums are
#: met, but never past this multiple of it.
SERVICE_MAX_STRETCH = 3.0


def _ms(seconds: float) -> float:
    return seconds * 1e3


@dataclass
class Phase:
    """What one timed phase measured."""

    fresh_jobs: int = 0
    cached_jobs: int = 0
    instructions: int = 0
    fresh_ms: list[float] = field(default_factory=list)
    cached_ms: list[float] = field(default_factory=list)
    #: wall-clock times of requests ``cached_ms`` times in CPU time
    cached_wall_ms: list[float] = field(default_factory=list)
    #: jobs and wall time behind ``jobs_per_s`` and ``sim_kips``
    throughput_jobs: int = 0
    throughput_wall_s: float = 0.0
    #: When set, ``jobs_per_s`` and ``sim_kips`` are instead the medians
    #: of their rates over windows this long, from ``completed``.
    window_s: float = 0.0
    start: float = field(default_factory=time.perf_counter)
    #: (seconds since ``start``, instructions) per completed request;
    #: a cached request simulated no instructions.
    completed: list[tuple[float, int]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)


@dataclass
class Checks:
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    fill: dict[str, float] = field(default_factory=dict)

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(message)


def _occupancy(stats: dict, lines: int) -> float:
    return stats["array"]["occupancy"] / lines


def _cached_requests(
    phase: Phase, spans, jobs, outcomes, blocks: int = CACHED_BLOCKS
) -> None:
    """Re-request a completed unit (a sweep's or a round's jobs)
    through ``run_jobs`` with the results cache on: what regenerating
    the same figure costs once its results are cached.  Every answer
    must be all hits, equal to the fresh outcomes.  The requests come in
    blocks with pauses between them -- a shared host's speed drifts over
    seconds, and one burst would sample a single moment of it -- and the
    first request after each pause is an untimed warm-up.

    Each request is timed in this thread's CPU time.  It runs on one
    thread and reads only page-cached files, so that is its latency
    less the moments a shared host gives the CPU to someone else: on a
    2-vCPU VM those preempted 0.2-5% of 1.6 ms requests by 3-20 ms,
    which put the wall-clock 99th percentile anywhere from 2.3 to 4.9 ms
    from run to run.  Wall-clock times go to the run's report."""
    for job, outcome in zip(jobs, outcomes):
        results_cache.store(results_cache.job_key(job), outcome)
    gc.collect()
    misses = results_cache.MISSES
    for i in range(blocks * (CACHED_BLOCK + 1)):
        warmup = i % (CACHED_BLOCK + 1) == 0
        if warmup and i:
            time.sleep(CACHED_PAUSE_S)
        t0, cpu0 = time.perf_counter(), time.thread_time()
        with spans.span("run_jobs.cached", "harness"):
            answer = run_jobs(jobs, workers=1)
        t1, cpu1 = time.perf_counter(), time.thread_time()
        if not warmup:
            phase.cached_ms.append(_ms(cpu1 - cpu0))
            phase.cached_wall_ms.append(_ms(t1 - t0))
            phase.completed.append((t1 - phase.start, 0))
        phase.attempted += 1
        if answer != outcomes:
            phase.fail(f"cached answer for {jobs[0].mix.name} differs")
    phase.cached_jobs += blocks * CACHED_BLOCK
    if results_cache.MISSES != misses:
        phase.fail(f"{results_cache.MISSES - misses} cached lookups missed")


class Fig6Sweep:
    name = catalog.FIG6
    oracle_instructions = 10_000

    def __init__(self, seed: int, workdir):
        rng = random.Random(f"{self.name}:{seed}")
        self.seed = seed
        self.config = small_system(epoch_cycles=EPOCH_CYCLES)
        self.sim_seed = rng.randrange(1000)
        self.sweeps = [
            [
                SimJob(make_mix(cls, k + 1), scheme, self.config,
                       FIG6_INSTRUCTIONS, self.sim_seed)
                for cls in FIG6_CLASSES
                for scheme in catalog.SMALL_SCHEMES
            ]
            for k in range(FIG6_SWEEPS)
        ]
        self.latest: dict[SimJob, SimOutcome] = {}

    def setup(self) -> None:
        """Nothing beyond building the inputs: the trace store must stay
        cold so every sweep's workers compile their own traces."""

    def timed(self, spans, seconds: float) -> Phase:
        phase = Phase()
        start = time.perf_counter()
        count = 0
        while count < FIG6_SWEEPS or time.perf_counter() - start < seconds:
            jobs = self.sweeps[count % FIG6_SWEEPS]
            t0 = time.perf_counter()
            with spans.span("run_jobs", "harness"):
                outcomes = run_jobs(jobs, workers=FIG6_WORKERS, use_cache=False)
            phase.throughput_wall_s += time.perf_counter() - t0
            phase.attempted += len(outcomes)
            phase.fresh_jobs += len(outcomes)
            phase.instructions += sum(
                job.instructions * job.config.num_cores for job in jobs
            )
            phase.fresh_ms += [_ms(o.wall_time_s) for o in outcomes]
            self.latest.update(zip(jobs, outcomes))
            count += 1
        phase.throughput_jobs = phase.fresh_jobs
        _cached_requests(phase, spans, jobs, outcomes)
        return phase

    def check(self, checks: Checks, oracle) -> None:
        lines = self.config.l2_lines
        for job, outcome in self.latest.items():
            if job.scheme == "vantage-z4/52":
                fill = _occupancy(outcome.stats, lines)
                checks.fill[job.mix.name] = fill
                checks.check(
                    fill >= FILL_FRACTION,
                    f"{job.mix.name}: L2 only {fill:.3f} full",
                )
        oracle.check_pairs(
            checks,
            [(job.mix, job.scheme) for jobs in self.sweeps for job in jobs],
            self.config, self.sim_seed,
        )

    def teardown(self) -> list[str]:
        return []


class Large32Core:
    name = catalog.LARGE
    oracle_instructions = 5_000

    def __init__(self, seed: int, workdir):
        rng = random.Random(f"{self.name}:{seed}")
        self.seed = seed
        self.config = large_system(epoch_cycles=EPOCH_CYCLES)
        self.mix = make_mix(LARGE_CLASS, LARGE_MIX_INDEX, apps_per_slot=8)
        self.sim_seed = rng.randrange(1000)
        self.jobs = [
            SimJob(self.mix, scheme, self.config, LARGE_INSTRUCTIONS,
                   self.sim_seed)
            for scheme in catalog.LARGE_SCHEMES
        ]
        self.fill: dict[str, float] = {}

    def setup(self) -> None:
        store = traces.get_store()
        for spec in self.mix.trace_factories(self.sim_seed):
            covered = index = 0
            while covered < LARGE_WARM_FACTOR * LARGE_INSTRUCTIONS:
                covered += chunk_instructions(store.get_chunk(spec, index))
                index += 1

    def timed(self, spans, seconds: float) -> Phase:
        phase = Phase()
        lines = self.config.l2_lines
        rounds = max(1, math.ceil(seconds / LARGE_ROUND_S))
        # The cached requests re-request the first completed round, in
        # blocks shared out over it and every later run_mix call, so
        # they sample the host over most of the phase, not one stretch.
        gaps = (rounds - 1) * len(self.jobs) + 1
        shares = iter(
            CACHED_BLOCKS // gaps + (k < CACHED_BLOCKS % gaps)
            for k in range(gaps)
        )
        unit = None
        for _ in range(rounds):
            outcomes = []
            for job in self.jobs:
                t0 = time.perf_counter()
                with spans.span("run_mix", "harness"):
                    run = run_mix(
                        job.mix, job.scheme, job.config, job.instructions,
                        seed=job.seed,
                    )
                t1 = time.perf_counter()
                simulated = job.instructions * job.config.num_cores
                phase.completed.append((t1 - phase.start, simulated))
                phase.throughput_wall_s += t1 - t0
                phase.fresh_ms.append(_ms(t1 - t0))
                phase.attempted += 1
                phase.fresh_jobs += 1
                phase.instructions += simulated
                outcomes.append(SimOutcome(result=run.result, stats=run.stats()))
                del run
                self.fill[job.scheme] = _occupancy(outcomes[-1].stats, lines)
                if unit is None and len(outcomes) == len(self.jobs):
                    unit = outcomes
                if unit is not None:
                    _cached_requests(phase, spans, self.jobs, unit, next(shares))
        phase.throughput_jobs = phase.fresh_jobs
        return phase

    def check(self, checks: Checks, oracle) -> None:
        fill = self.fill.get("vantage-z4/52", 0.0)
        checks.fill[self.mix.name] = fill
        checks.check(
            fill >= FILL_FRACTION, f"{self.mix.name}: L2 only {fill:.3f} full"
        )
        oracle.check_pairs(
            checks, [(self.mix, scheme) for scheme in catalog.LARGE_SCHEMES],
            self.config, self.sim_seed,
        )

    def teardown(self) -> list[str]:
        return []


class ServiceResubmit:
    name = catalog.SERVICE
    oracle_instructions = 20_000

    def __init__(self, seed: int, workdir):
        rng = random.Random(f"{self.name}:{seed}")
        self.seed = seed
        self.workdir = workdir
        self.config = small_system(
            l2_bytes=SERVICE_L2_BYTES, epoch_cycles=EPOCH_CYCLES
        )
        self.mix = make_mix(SERVICE_CLASS, SERVICE_MIX_INDEX)
        self.sim_seed = rng.randrange(1000)
        # Distinct instruction counts make every fresh job a new
        # results-cache key while its traces stay the shared, warm ones.
        self.offsets = rng.sample(
            range(SERVICE_INSTRUCTION_SPREAD), SERVICE_INSTRUCTION_SPREAD
        )
        self.fleet: Fleet | None = None
        self.fresh: list[tuple[SimJob, SimOutcome]] = []
        self.phases_run = 0

    def setup(self) -> None:
        self.fleet = Fleet(self.workdir).start()
        # Compile every shared trace in each daemon's workers, so fresh
        # job latency is service path plus simulation.
        warm = SimJob(
            self.mix, catalog.SERVICE_SCHEME, self.config, 1_000, self.sim_seed
        )
        for name in ("d0", "d1"):
            with self.fleet.daemon(name) as client:
                client.submit(warm)

    def _job(self, offset: int) -> SimJob:
        return SimJob(
            self.mix, catalog.SERVICE_SCHEME, self.config,
            SERVICE_BASE_INSTRUCTIONS + offset, self.sim_seed,
        )

    def _client(self, tid: int, spans, phase: Phase, lock, deadline, hard_stop):
        rng = random.Random(f"{self.name}:{self.seed}:{self.phases_run}:{tid}")
        per_client = SERVICE_INSTRUCTION_SPREAD // (2 * SERVICE_CLIENTS)
        first = (self.phases_run * SERVICE_CLIENTS + tid) * per_client
        offsets = self.offsets[first:first + per_client]
        done: list[tuple[SimJob, SimOutcome]] = []
        fresh_ms, cached_ms, completed = [], [], []
        instructions = fresh_jobs = cached_jobs = 0

        def enough() -> bool:
            with lock:
                return (
                    phase.fresh_jobs + fresh_jobs >= SERVICE_MIN_FRESH
                    and phase.cached_jobs + cached_jobs >= SERVICE_MIN_CACHED
                )

        with self.fleet.gateway() as client:
            for offset in offsets:
                now = time.perf_counter()
                if now >= hard_stop or (now >= deadline and enough()):
                    break
                job = self._job(offset)
                t0 = time.perf_counter()
                try:
                    with spans.span("submit.fresh", "federation"):
                        outcome = client.submit(job)
                except (ServiceError, OSError) as exc:
                    with lock:
                        phase.attempted += 1
                        phase.fail(f"fresh submit: {exc}")
                    continue
                t1 = time.perf_counter()
                fresh_ms.append(_ms(t1 - t0))
                fresh_jobs += 1
                simulated = job.instructions * job.config.num_cores
                instructions += simulated
                completed.append((t1 - phase.start, simulated))
                done.append((job, outcome))
                for _ in range(SERVICE_RESUBMITS):
                    old_job, old_outcome = rng.choice(done)
                    t0 = time.perf_counter()
                    try:
                        with spans.span("submit.cached", "federation"):
                            again = client.submit(old_job)
                    except (ServiceError, OSError) as exc:
                        with lock:
                            phase.attempted += 1
                            phase.fail(f"cached submit: {exc}")
                        continue
                    t1 = time.perf_counter()
                    cached_ms.append(_ms(t1 - t0))
                    completed.append((t1 - phase.start, 0))
                    cached_jobs += 1
                    if again != old_outcome:
                        with lock:
                            phase.fail("resubmitted outcome differs")
        with lock:
            phase.fresh_ms += fresh_ms
            phase.cached_ms += cached_ms
            phase.completed += completed
            phase.fresh_jobs += fresh_jobs
            phase.cached_jobs += cached_jobs
            phase.instructions += instructions
            phase.attempted += fresh_jobs + cached_jobs
            self.fresh += done

    def timed(self, spans, seconds: float) -> Phase:
        phase = Phase(window_s=SERVICE_WINDOW_S)
        lock = threading.Lock()
        start = phase.start
        deadline = start + seconds
        hard_stop = start + seconds * SERVICE_MAX_STRETCH
        errors: list[BaseException] = []

        def body(tid: int) -> None:
            try:
                self._client(tid, spans, phase, lock, deadline, hard_stop)
            except BaseException as exc:  # reported as a failed operation
                errors.append(exc)

        threads = [
            threading.Thread(target=body, args=(tid,))
            for tid in range(SERVICE_CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        phase.throughput_wall_s = time.perf_counter() - start
        phase.throughput_jobs = phase.fresh_jobs + phase.cached_jobs
        for exc in errors:
            phase.attempted += 1
            phase.fail(f"client thread: {exc!r}")
        if phase.fresh_jobs < SERVICE_MIN_FRESH:
            phase.fail(f"only {phase.fresh_jobs} fresh samples")
        if phase.cached_jobs < SERVICE_MIN_CACHED:
            phase.fail(f"only {phase.cached_jobs} cached samples")
        self.phases_run += 1
        return phase

    def check(self, checks: Checks, oracle) -> None:
        lines = self.config.l2_lines
        fills = [_occupancy(outcome.stats, lines) for _, outcome in self.fresh]
        fill = min(fills) if fills else 0.0
        checks.fill[self.mix.name] = fill
        checks.check(
            fill >= FILL_FRACTION, f"{self.mix.name}: L2 only {fill:.3f} full"
        )
        rng = random.Random(f"{self.name}:{self.seed}:check")
        sample = rng.sample(self.fresh, min(6, len(self.fresh)))
        for job, outcome in sample:
            run = run_mix(
                job.mix, job.scheme, job.config, job.instructions, seed=job.seed
            )
            checks.check(
                run.result == outcome.result,
                f"service outcome of {job.mix.name}/{job.scheme}/"
                f"{job.instructions} differs from in-process run_mix",
            )
        oracle.check_pairs(
            checks,
            [(self.mix, catalog.SERVICE_SCHEME)], self.config, self.sim_seed,
        )

    def teardown(self) -> list[str]:
        if self.fleet is None:
            return []
        leaked = self.fleet.stop()
        leaked += [f"socket {name}" for name in self.fleet.leftover_sockets()]
        self.fleet = None
        return leaked


WORKLOADS = {
    cls.name: cls for cls in (Fig6Sweep, Large32Core, ServiceResubmit)
}
