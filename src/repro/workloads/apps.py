"""The 29 synthetic SPEC-CPU2006-like applications (Table 3).

Each SPEC benchmark in the paper's Table 3 gets a synthetic stand-in
whose *category* (and therefore miss-versus-capacity curve shape) is
the one the paper assigned to it.  Parameters are varied across the
apps of a category so mixes built from different apps genuinely
differ, and ``tests/workloads`` verifies every app lands in its
intended category under the paper's classification procedure (MPKI
sweep from 64 KB to 8 MB).

Working-set sizes are in 64-byte lines; the 2 MB small-system L2 is
32 768 lines and the 8 MB large-system L2 is 131 072 lines.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.traces.spec import TraceSpec

INSENSITIVE = "n"
FRIENDLY = "f"
FITTING = "t"
STREAMING = "s"

CATEGORY_NAMES = {
    INSENSITIVE: "insensitive",
    FRIENDLY: "cache-friendly",
    FITTING: "cache-fitting",
    STREAMING: "thrashing/streaming",
}


#: Shared-region generator kinds -> the TraceSpec kind that wraps a
#: private stream with that sharing shape.  The wrapped kinds are new
#: strings, so their trace-store / results-cache keys can never collide
#: with the private variants of the same app.
SHARED_KINDS = {
    "producer-consumer": "pc-shared",
    "shared-table": "table-shared",
    "migratory": "migratory-shared",
}


@dataclass(frozen=True)
class SharedRegionSpec:
    """A shared address region overlaid on a mix's private streams.

    ``kind`` picks the sharing shape (``producer-consumer``,
    ``shared-table`` or ``migratory``; see
    :mod:`repro.workloads.generators`), ``lines`` is the shared
    footprint in cache lines, and ``fraction`` the probability that
    any given access is redirected into the region.  ``alpha`` only
    matters for ``shared-table`` (popularity skew) and ``window`` only
    for ``migratory`` (ownership time-slice, in per-core accesses).
    ``seed`` feeds the region's common structure (table permutation,
    per-core decision streams) independently of the run seed.
    """

    kind: str
    lines: int
    fraction: float
    alpha: float = 0.9
    window: int = 2_000
    seed: int = 0

    def __post_init__(self):
        if self.kind not in SHARED_KINDS:
            raise ValueError(
                f"unknown shared-region kind {self.kind!r}; "
                f"known: {', '.join(sorted(SHARED_KINDS))}"
            )
        if self.lines <= 0:
            raise ValueError("shared region needs a positive line count")
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError("shared fraction must be in [0, 1]")

    @property
    def trace_kind(self) -> str:
        return SHARED_KINDS[self.kind]


@dataclass(frozen=True)
class AppSpec:
    """One synthetic application.

    ``kind`` selects the generator: ``zipf`` (ws_lines, alpha),
    ``loop`` (ws_lines), ``scan`` (ws_lines), or ``phased-loop``
    (alternates loops over ws_lines and ws2_lines every
    ``phase_accesses`` accesses).
    """

    name: str
    category: str
    kind: str
    ws_lines: int
    mean_gap: float
    alpha: float = 1.0
    ws2_lines: int = 0
    phase_accesses: int = 50_000

    def trace_spec(
        self,
        base: int,
        seed: int,
        shared: SharedRegionSpec | None = None,
        core: int = 0,
        num_cores: int = 1,
        shared_base: int = 0,
    ) -> TraceSpec:
        """This app's stream as a value: the chunk pipeline's unit of
        identity (see :mod:`repro.traces`).

        With a :class:`SharedRegionSpec`, the private stream is wrapped
        so a ``fraction`` of accesses land in the shared region at
        ``shared_base`` (common to every core of the mix).  The
        wrapped spec uses a distinct ``kind`` and folds every sharing
        parameter -- including the requesting ``core`` -- into
        ``params``, so shared and private variants can never collide
        in the trace store or the results cache.
        """
        if shared is not None:
            private = self.trace_spec(base, seed)
            extra: float | int = 0
            if shared.kind == "shared-table":
                extra = shared.alpha
            elif shared.kind == "migratory":
                extra = shared.window
            return TraceSpec(
                name=self.name,
                kind=shared.trace_kind,
                params=(
                    private.kind,
                    private.params,
                    shared_base,
                    shared.lines,
                    shared.fraction,
                    extra,
                    core,
                    num_cores,
                    shared.seed,
                ),
                base=base,
                seed=seed,
            )
        if self.kind == "zipf":
            params: tuple = (self.ws_lines, self.alpha, self.mean_gap)
        elif self.kind in ("loop", "scan"):
            params = (self.ws_lines, self.mean_gap)
        elif self.kind == "phased-loop":
            params = (
                self.ws_lines,
                self.ws2_lines,
                self.mean_gap,
                self.phase_accesses,
            )
        else:
            raise ValueError(f"unknown generator kind {self.kind!r}")
        return TraceSpec(
            name=self.name, kind=self.kind, params=params, base=base, seed=seed
        )

    def trace_factory(
        self,
        base: int,
        seed: int,
        shared: SharedRegionSpec | None = None,
        core: int = 0,
        num_cores: int = 1,
        shared_base: int = 0,
    ):
        """A zero-argument callable producing a fresh trace iterator,
        as :class:`~repro.sim.system.CMPSystem` expects.

        The callable is a :class:`~repro.traces.TraceSpec`, so the
        optimized event loop feeds the stream from the compiled chunk
        store; the reference loop calls it for a generator.
        """
        return self.trace_spec(
            base,
            seed,
            shared=shared,
            core=core,
            num_cores=num_cores,
            shared_base=shared_base,
        )


def _app(name, category, kind, ws, gap, alpha=1.0, ws2=0, phase=50_000) -> AppSpec:
    return AppSpec(
        name=name,
        category=category,
        kind=kind,
        ws_lines=ws,
        mean_gap=gap,
        alpha=alpha,
        ws2_lines=ws2,
        phase_accesses=phase,
    )


#: All 29 applications, keyed by name, in Table 3's classification.
APPS: dict[str, AppSpec] = {
    app.name: app
    for app in [
        # --- Insensitive: tiny working sets, sparse L2 traffic. ---
        _app("perlbench", INSENSITIVE, "zipf", 384, 220, alpha=1.1),
        _app("bwaves", INSENSITIVE, "zipf", 512, 260, alpha=1.0),
        _app("gamess", INSENSITIVE, "zipf", 256, 300, alpha=1.2),
        _app("gromacs", INSENSITIVE, "zipf", 448, 240, alpha=1.1),
        _app("namd", INSENSITIVE, "zipf", 320, 280, alpha=1.0),
        _app("gobmk", INSENSITIVE, "zipf", 640, 200, alpha=1.1),
        _app("dealII", INSENSITIVE, "zipf", 512, 230, alpha=0.9),
        _app("povray", INSENSITIVE, "zipf", 288, 320, alpha=1.2),
        _app("calculix", INSENSITIVE, "zipf", 416, 260, alpha=1.0),
        _app("hmmer", INSENSITIVE, "zipf", 352, 290, alpha=1.1),
        _app("sjeng", INSENSITIVE, "zipf", 576, 210, alpha=1.0),
        _app("h264ref", INSENSITIVE, "zipf", 480, 250, alpha=1.1),
        _app("tonto", INSENSITIVE, "zipf", 384, 270, alpha=1.0),
        _app("wrf", INSENSITIVE, "zipf", 544, 240, alpha=1.0),
        # --- Cache-friendly: big skewed footprints, smooth curves. ---
        _app("bzip2", FRIENDLY, "zipf", 24_576, 30, alpha=0.85),
        _app("gcc", FRIENDLY, "zipf", 32_768, 25, alpha=0.80),
        _app("zeusmp", FRIENDLY, "zipf", 20_480, 35, alpha=0.90),
        _app("cactusADM", FRIENDLY, "zipf", 40_960, 28, alpha=0.75),
        _app("leslie3d", FRIENDLY, "zipf", 28_672, 32, alpha=0.85),
        _app("astar", FRIENDLY, "zipf", 36_864, 26, alpha=0.80),
        # --- Cache-fitting: sequential loops with sharp knees. ---
        _app("soplex", FITTING, "loop", 18_432, 24),
        _app("lbm", FITTING, "loop", 26_624, 20),
        _app("omnetpp", FITTING, "phased-loop", 14_336, 26, ws2=24_576, phase=20_000),
        _app("sphinx3", FITTING, "loop", 22_528, 22),
        _app("xalancbmk", FITTING, "phased-loop", 20_480, 25, ws2=12_288, phase=30_000),
        # --- Thrashing/streaming: scans far beyond any allocation. ---
        _app("mcf", STREAMING, "scan", 262_144, 14),
        _app("milc", STREAMING, "scan", 196_608, 16),
        _app("GemsFDTD", STREAMING, "scan", 327_680, 15),
        _app("libquantum", STREAMING, "scan", 524_288, 12),
    ]
}

#: Names per category letter (n / f / t / s), mirroring Table 3.
CATEGORIES: dict[str, list[str]] = {
    letter: [a.name for a in APPS.values() if a.category == letter]
    for letter in (INSENSITIVE, FRIENDLY, FITTING, STREAMING)
}


def make_app(name: str) -> AppSpec:
    """Look up one of the 29 applications by SPEC name."""
    try:
        return APPS[name]
    except KeyError:
        raise ValueError(f"unknown app {name!r}; see repro.workloads.APPS") from None
