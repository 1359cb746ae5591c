"""Per-layer probes of the traced run.

Each probe times calls into one layer's public functions on inputs
drawn from the run's seed, and reports per-call or per-item costs
(see ``catalog.PER_LAYER`` for which end-to-end metric each should
move).  Probes run after the timed phases, so they never disturb an
end-to-end number.
"""

from __future__ import annotations

import collections
import itertools
import pickle
import random
import threading
import time

from repro.harness import SimJob, build_policy, run_jobs, run_mix
from repro.harness import results_cache
from repro.harness.schemes import build_cache, scheme_partitioned
from repro.sim import CMPSystem, large_system, small_system
from repro.traces import TraceStore, get_store
from repro.workloads import make_mix

import catalog
import stats
from workloads_def import (
    EPOCH_CYCLES, FIG6_CLASSES, MIX_INDICES, SERVICE_L2_BYTES,
)

GEN_PAIRS = 20_000
WARM_CHUNK_CALLS = 20_000
REPLAY_ACCESSES = 4_000
#: Kernel probes time a cache at least this full, so misses evict.
KERNEL_FILL = 0.95
SIM_INSTRUCTIONS = {"small": 150_000, "large": 25_000}
FANOUT_INSTRUCTIONS = 60_000
PACK_ROUNDS = 500
CACHE_ROUNDS = 100
PING_ROUNDS = 200
SUBMIT_ROUNDS = 100
FRESH_OVERHEAD_JOBS = 6
#: Probe jobs on the fleet use instruction counts no workload job uses.
PROBE_INSTRUCTIONS = 30_000


def _per_call(fn, rounds: int) -> list[float]:
    samples = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return samples


class Probes:
    def __init__(self, seed: int, fleet_factory):
        rng = random.Random(f"probes:{seed}")
        index = rng.randint(1, MIX_INDICES)
        self.seed = seed
        self.sim_seed = rng.randrange(1000)
        self.systems = {
            "small": (
                small_system(epoch_cycles=EPOCH_CYCLES),
                make_mix("sftn", index),
                catalog.SMALL_SCHEMES,
            ),
            "large": (
                large_system(epoch_cycles=EPOCH_CYCLES),
                make_mix("sftn", index, apps_per_slot=8),
                catalog.LARGE_SCHEMES,
            ),
        }
        self.fanout_mixes = [
            make_mix(cls, rng.randint(1, MIX_INDICES)) for cls in FIG6_CLASSES
        ]
        self.fleet_factory = fleet_factory
        self.metrics: dict[str, float] = {}
        self._caches = {}

    def run(self) -> dict[str, float]:
        # Fan-out first: its workers fork from this process and must
        # find its trace store as cold as the sweep workload's do.
        self.harness()
        self.workloads_and_traces()
        self.kernel()
        self.sim()
        self.allocation()
        self.service()
        return self.metrics

    # -- workloads / traces ---------------------------------------------

    def workloads_and_traces(self) -> None:
        config, mix, _ = self.systems["small"]
        specs = mix.trace_factories(self.sim_seed)
        t0 = time.perf_counter()
        for spec in specs:
            collections.deque(
                itertools.islice(spec.generator(), GEN_PAIRS), maxlen=0
            )
        self.metrics["workloads.gen_ns_per_pair"] = (
            (time.perf_counter() - t0) * 1e9 / (GEN_PAIRS * len(specs))
        )
        store = TraceStore()
        t0 = time.perf_counter()
        for spec in specs:
            store.get_chunk(spec, 0)
        self.metrics["traces.compile_ns_per_pair"] = (
            (time.perf_counter() - t0) * 1e9 / (store.chunk_pairs * len(specs))
        )
        cycle = itertools.islice(itertools.cycle(specs), WARM_CHUNK_CALLS)
        t0 = time.perf_counter()
        for spec in cycle:
            store.get_chunk(spec, 0)
        self.metrics["traces.warm_chunk_us"] = (
            (time.perf_counter() - t0) * 1e6 / WARM_CHUNK_CALLS
        )

    # -- kernel: single-access cache.access -----------------------------

    def _stream(self, mix, count: int):
        """``count`` (addr, part) pairs, the mix's cores round-robin."""
        gens = [spec.generator() for spec in mix.trace_factories(self.sim_seed)]
        out = []
        for i in range(count):
            core = i % len(gens)
            out.append((next(gens[core])[1], core))
        return out

    def kernel(self) -> None:
        for sys_name, (config, mix, schemes) in self.systems.items():
            warm = self._stream(mix, config.l2_lines)
            for scheme in schemes:
                cache = build_cache(
                    scheme, config.l2_lines, config.num_cores, seed=self.sim_seed
                )
                access = cache.access
                for addr, part in warm:
                    access(addr, part)
                self._top_up(cache, config)
                self._caches[(sys_name, scheme)] = cache
                hit_ns, miss_ns, cands = self._split(cache, config.num_cores)
                name = f"kernel.{sys_name}.{catalog.metric_scheme(scheme)}"
                self.metrics[f"{name}.hit_ns"] = hit_ns
                self.metrics[f"{name}.miss_ns"] = miss_ns
                self.metrics[f"{name}.candidates_per_miss"] = cands

    @staticmethod
    def _top_up(cache, config) -> None:
        """Install never-seen lines until the cache is full enough that
        a miss almost always evicts (bounded: some schemes keep a few
        slots empty)."""
        fresh = itertools.count(1 << 43)
        access = cache.access
        target = KERNEL_FILL * config.l2_lines
        for i in range(config.l2_lines):
            if i % 1000 == 0 and cache.array.occupancy() >= target:
                return
            part = i % config.num_cores
            access((part << 44) | next(fresh), part)

    def _split(self, cache, cores: int) -> tuple[float, float, float]:
        """Hit and miss cost from replays with different hit fractions.

        Each replay mixes resident lines (hits) with never-seen lines
        (misses) in a set proportion; the cache's own hit and miss
        counters give each replay's real split, and least squares over
        ``time = hits * hit_ns + misses * miss_ns`` gives the costs.
        """
        rng = random.Random(self.seed)
        resident = [addr for _slot, addr in cache.array.contents()]
        fresh = itertools.count(1 << 42)
        rows = []
        cand_delta = miss_delta = 0
        access = cache.access
        st = cache.stats
        for hit_share in (0.5, 0.9, 0.1, 0.5, 0.1, 0.9):
            seq = []
            for _ in range(REPLAY_ACCESSES):
                part = rng.randrange(cores)
                if rng.random() < hit_share:
                    addr = rng.choice(resident)
                    part = addr >> 44
                else:
                    addr = (part << 44) | next(fresh)
                seq.append((addr, part))
            hits0, misses0 = sum(st.hits), sum(st.misses)
            cands0 = cache.array.stat_candidates
            t0 = time.perf_counter()
            for addr, part in seq:
                access(addr, part)
            elapsed = time.perf_counter() - t0
            hits, misses = sum(st.hits) - hits0, sum(st.misses) - misses0
            rows.append((hits, misses, elapsed * 1e9))
            cand_delta += cache.array.stat_candidates - cands0
            miss_delta += misses
            resident = [addr for _slot, addr in cache.array.contents()]
        # Normal equations of the two-parameter least-squares fit.
        shh = sum(h * h for h, _, _ in rows)
        smm = sum(m * m for _, m, _ in rows)
        shm = sum(h * m for h, m, _ in rows)
        sht = sum(h * t for h, _, t in rows)
        smt = sum(m * t for _, m, t in rows)
        det = shh * smm - shm * shm
        hit_ns = (sht * smm - smt * shm) / det
        miss_ns = (smt * shh - sht * shm) / det
        return hit_ns, miss_ns, cand_delta / miss_delta if miss_delta else 0.0

    # -- sim: build + CMPSystem.run (the batch lane) --------------------

    def sim(self) -> None:
        store = get_store()
        for sys_name, (config, mix, schemes) in self.systems.items():
            instructions = SIM_INSTRUCTIONS[sys_name]
            specs = mix.trace_factories(self.sim_seed)
            for spec in specs:  # compile outside the timed region
                store.get_chunk(spec, 0)
            builds = []
            for scheme in schemes:
                t0 = time.perf_counter()
                cache = build_cache(
                    scheme, config.l2_lines, config.num_cores, seed=self.sim_seed
                )
                policy = (
                    build_policy(cache, config, self.sim_seed, scheme=scheme)
                    if scheme_partitioned(scheme) else None
                )
                system = CMPSystem(cache, specs, config, policy=policy)
                builds.append(time.perf_counter() - t0)
                t0 = time.perf_counter()
                system.run(instructions)
                elapsed = time.perf_counter() - t0
                accesses = sum(cache.stats.accesses)
                self.metrics[
                    f"sim.{sys_name}.{catalog.metric_scheme(scheme)}"
                    ".run_ns_per_access"
                ] = elapsed * 1e9 / accesses
            self.metrics[f"sim.{sys_name}.build_ms"] = (
                sum(builds) / len(builds) * 1e3
            )

    # -- allocation: UMON + Lookahead -----------------------------------

    def allocation(self) -> None:
        for sys_name, label in (("small", "4p"), ("large", "32p")):
            config, mix, _ = self.systems[sys_name]
            cache = self._caches[(sys_name, "vantage-z4/52")]
            policy = build_policy(
                cache, config, self.sim_seed, scheme="vantage-z4/52"
            )
            stream = self._stream(mix, 100_000)
            if sys_name == "small":
                monitor = policy.monitors[0]
                addrs = [addr for addr, part in stream if part == 0]
                t0 = time.perf_counter()
                for addr in addrs:
                    monitor.access(addr)
                self.metrics["allocation.umon_access_ns"] = (
                    (time.perf_counter() - t0) * 1e9 / len(addrs)
                )
            for addr, part in stream:
                policy.observe(part, addr)
            samples = _per_call(policy.allocate, 10)
            self.metrics[f"allocation.allocate_us_{label}"] = (
                stats.median(samples) * 1e6
            )
            if sys_name == "large":
                units = policy.allocate()
                samples = _per_call(lambda: cache.set_allocations(units), 50)
                self.metrics["allocation.set_allocations_us"] = (
                    stats.median(samples) * 1e6
                )

    # -- harness: pickling, fan-out, results cache ----------------------

    def harness(self) -> None:
        config = small_system(epoch_cycles=EPOCH_CYCLES)
        jobs = [
            SimJob(mix, scheme, config, FANOUT_INSTRUCTIONS, self.sim_seed)
            for mix in self.fanout_mixes
            for scheme in catalog.SMALL_SCHEMES
        ]
        t0 = time.perf_counter()
        outcomes = run_jobs(jobs, workers=2, use_cache=False)
        wall = time.perf_counter() - t0
        self.metrics["harness.fanout_efficiency"] = (
            sum(o.wall_time_s for o in outcomes) / (2 * wall)
        )
        job = jobs[1]
        samples = _per_call(
            lambda: pickle.loads(pickle.dumps(job, pickle.HIGHEST_PROTOCOL)),
            PACK_ROUNDS,
        )
        self.metrics["harness.job_pack_us"] = stats.median(samples) * 1e6
        outcome = outcomes[1]
        samples = _per_call(
            lambda: pickle.loads(pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL)),
            PACK_ROUNDS,
        )
        self.metrics["harness.outcome_pack_us"] = stats.median(samples) * 1e6
        keys = [
            results_cache.job_key(
                SimJob(job.mix, job.scheme, config, 1 + i, self.sim_seed)
            )
            for i in range(CACHE_ROUNDS)
        ]
        puts = []
        for key in keys:
            t0 = time.perf_counter()
            results_cache.store(key, outcome)
            puts.append(time.perf_counter() - t0)
        gets = []
        for key in keys:
            t0 = time.perf_counter()
            results_cache.load(key)
            gets.append(time.perf_counter() - t0)
        self.metrics["harness.results_cache_put_ms"] = stats.median(puts) * 1e3
        self.metrics["harness.results_cache_get_ms"] = stats.median(gets) * 1e3

    # -- service and federation -----------------------------------------

    def service(self) -> None:
        fleet = self.fleet_factory()
        config = small_system(
            l2_bytes=SERVICE_L2_BYTES, epoch_cycles=EPOCH_CYCLES
        )
        mix = self.systems["small"][1]

        def job(k: int, scheme: str = "lru-sa16") -> SimJob:
            return SimJob(mix, scheme, config, PROBE_INSTRUCTIONS + k,
                          self.sim_seed)

        for name in ("d0", "d1"):
            with fleet.daemon(name) as client:
                client.submit(job(0))  # warms the worker's traces
        run_mix(mix, "lru-sa16", config, 1_000, seed=self.sim_seed)
        with fleet.daemon("d0") as d0:
            self.metrics["service.ping_us"] = (
                stats.median(_per_call(d0.ping, PING_ROUNDS)) * 1e6
            )
            cached = job(0)
            self.metrics["service.cached_submit_ms"] = stats.median(
                _per_call(lambda: d0.submit(cached), SUBMIT_ROUNDS)
            ) * 1e3
            overheads = []
            for k in range(1, FRESH_OVERHEAD_JOBS + 1):
                fresh = job(k, catalog.SMALL_SCHEMES[k % 2])
                t0 = time.perf_counter()
                run_mix(fresh.mix, fresh.scheme, config, fresh.instructions,
                        seed=fresh.seed)
                local = time.perf_counter() - t0
                t0 = time.perf_counter()
                d0.submit(fresh)
                overheads.append(time.perf_counter() - t0 - local)
            self.metrics["service.fresh_overhead_ms"] = (
                stats.median(overheads) * 1e3
            )
        # Two clients submitting one new job at once: the daemon queue
        # coalesces the second onto the first.
        twin = job(FRESH_OVERHEAD_JOBS + 1, "vantage-z4/52")
        barrier = threading.Barrier(2)

        def submit_twin():
            with fleet.daemon("d1") as client:
                barrier.wait()
                client.submit(twin)

        threads = [threading.Thread(target=submit_twin) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        dedupe = 0
        for name in ("d0", "d1"):
            with fleet.daemon(name) as client:
                dedupe += client.stats()["service"]["queue"]["dedupe_hits"]
        self.metrics["service.dedupe_hits"] = dedupe
        with fleet.gateway() as gw:
            self.metrics["federation.ping_us"] = (
                stats.median(_per_call(gw.ping, PING_ROUNDS)) * 1e6
            )
            cached = job(0)
            gw.submit(cached)
            self.metrics["federation.cached_submit_ms"] = stats.median(
                _per_call(lambda: gw.submit(cached), SUBMIT_ROUNDS)
            ) * 1e3
            self.metrics["federation.cache_hits"] = (
                gw.stats()["federation"]["cache_hits"]
            )
