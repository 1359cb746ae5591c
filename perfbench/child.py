"""One benchmark run of one workload, in a fresh process.

``run.py`` starts this with a clean environment and reads its
standard output: one JSON event per line (``ready`` when set-up is
done, ``phase`` at the start and end of each timed phase, and a final
``result``).  With ``--setup-only`` it sets up, reports ``ready``,
tears down and exits -- how ``run.py`` samples set-up time several
times per run.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from pathlib import Path

import catalog
import stats
from oracle import Oracle
from spans import NO_SPANS, SpanRecorder, layer_self_times_ns
from workloads_def import WORKLOADS, Checks


def emit(event: str, **fields) -> None:
    fields["event"] = event
    sys.stdout.write(json.dumps(fields) + "\n")
    sys.stdout.flush()


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", type=Path, required=True)
    p.add_argument("--spans-out", type=Path, default=None)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    probe_fleet = None

    def fleet_factory():
        """The workload's own fleet, or one started for the probes."""
        nonlocal probe_fleet
        fleet = getattr(workload, "fleet", None)
        if fleet is None:
            from fleet import Fleet

            fleet = probe_fleet = Fleet(args.workdir).start()
        return fleet

    try:
        workload.setup()
        emit("ready")
        if args.setup_only:
            return 0
        gc.collect()
        emit("phase", name="untraced")
        phases = {"untraced": workload.timed(NO_SPANS, args.seconds)}
        emit("phase", name="end")
        layer_metrics = {}
        if args.trace:
            recorder = SpanRecorder(
                f"{args.workload}-s{args.seed}-{time.time_ns()}"
            )
            gc.collect()
            emit("phase", name="traced")
            phases["traced"] = workload.timed(recorder, args.seconds)
            emit("phase", name="end")
            if args.spans_out is not None:
                recorder.write(args.spans_out)
            from probes import Probes

            layer_metrics = Probes(args.seed, fleet_factory).run()
            self_ns = layer_self_times_ns(recorder.spans)
            for layer in catalog.LAYERS:
                layer_metrics[f"self.{layer}_s"] = self_ns.get(layer, 0) / 1e9
        checks = Checks()
        workload.check(checks, Oracle(workload.oracle_instructions))
    finally:
        leaked = workload.teardown()
        if probe_fleet is not None:
            leaked += probe_fleet.stop()

    timed = {
        name: phase_metrics(phase, args.seconds) for name, phase in phases.items()
    }
    attempted = checks.attempted + sum(p.attempted for p in phases.values())
    failed = checks.failed + sum(p.failed for p in phases.values())
    errors = list(checks.errors)
    for phase in phases.values():
        errors += phase.errors
    attempted += 1
    if leaked:
        failed += 1
        errors.append(f"leaked at teardown: {leaked}")
    emit(
        "result",
        timed=timed,
        layers=layer_metrics,
        attempted=attempted,
        failed=failed,
        errors=errors,
        fill=checks.fill,
        raw={
            name: {
                "fresh_ms": p.fresh_ms, "cached_ms": p.cached_ms,
                "cached_wall_ms": p.cached_wall_ms, "completed": p.completed,
            }
            for name, p in phases.items()
        },
        # Sample counts, and the highest percentile each supports.
        samples={
            name: {
                kind: [len(ms), stats.tail_percentile(len(ms))]
                for kind, ms in (("fresh", p.fresh_ms), ("cached", p.cached_ms))
            }
            for name, p in phases.items()
        },
    )
    return 0


def phase_metrics(phase, seconds: float) -> dict[str, float]:
    """A timed phase's end-to-end metrics (all but set-up and memory,
    which ``run.py`` measures from outside)."""
    if phase.window_s:
        jobs_per_s = stats.median(stats.window_rates(
            [(t, 1) for t, _ in phase.completed], seconds, phase.window_s
        ))
        instr_per_s = stats.median(stats.window_rates(
            phase.completed, seconds, phase.window_s
        ))
    else:
        jobs_per_s = phase.throughput_jobs / phase.throughput_wall_s
        instr_per_s = phase.instructions / phase.throughput_wall_s
    return {
        "sim_kips": instr_per_s / 1e3,
        "jobs_per_s": jobs_per_s,
        "fresh_p50_ms": stats.percentile(phase.fresh_ms, 50),
        "fresh_p90_ms": stats.percentile(phase.fresh_ms, 90),
        "cached_p50_ms": stats.percentile(phase.cached_ms, 50),
        "cached_p99_ms": stats.percentile(phase.cached_ms, 99),
    }


if __name__ == "__main__":
    sys.exit(main())
