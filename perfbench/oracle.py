"""Correctness against the in-repo reference oracle.

Outside every timed phase, each simulation workload's (mix, scheme)
set is re-run at a shortened length twice: once by ``run_mix`` (the
program as shipped) and once by :func:`repro.sim.reference.
reference_run`, the original event loop, over the reference miss path
(:func:`~repro.sim.reference.as_reference_cache`) where the scheme
family has one and over the object path (``REPRO_FUSED=0``) where it
does not.  The two ``SystemResult``s must be equal.
"""

from __future__ import annotations

import os

from repro.harness import build_policy, run_mix
from repro.harness.schemes import build_cache, scheme_partitioned
from repro.sim import CMPSystem
from repro.sim.reference import (
    REFERENCE_CACHE_CLASSES,
    as_reference_cache,
    as_reference_policy,
    reference_run,
)


def _object_path_cache(scheme, config, seed):
    """The scheme built without its fused kernels."""
    previous = os.environ.get("REPRO_FUSED")
    os.environ["REPRO_FUSED"] = "0"
    try:
        return build_cache(scheme, config.l2_lines, config.num_cores, seed=seed)
    finally:
        if previous is None:
            del os.environ["REPRO_FUSED"]
        else:
            os.environ["REPRO_FUSED"] = previous


def reference_result(mix, scheme, config, instructions, seed):
    cache = build_cache(scheme, config.l2_lines, config.num_cores, seed=seed)
    if type(cache) in REFERENCE_CACHE_CLASSES:
        as_reference_cache(cache)
    else:
        cache = _object_path_cache(scheme, config, seed)
    policy = None
    if scheme_partitioned(scheme):
        policy = as_reference_policy(
            build_policy(cache, config, seed, scheme=scheme)
        )
    system = CMPSystem(cache, mix.trace_factories(seed), config, policy=policy)
    return reference_run(system, instructions)


class Oracle:
    """Shortened-run parity checks, at ``instructions`` per core."""

    def __init__(self, instructions: int):
        self.instructions = instructions

    def check_pairs(self, checks, pairs, config, seed) -> None:
        for mix, scheme in pairs:
            shipped = run_mix(
                mix, scheme, config, self.instructions, seed=seed
            ).result
            oracle = reference_result(
                mix, scheme, config, self.instructions, seed
            )
            checks.check(
                shipped == oracle,
                f"{mix.name}/{scheme}: run_mix differs from the reference "
                f"oracle at {self.instructions} instructions",
            )
