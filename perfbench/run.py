"""Benchmark entry point.

    python3 perfbench/run.py --workload fig6-sweep --seed 1 --seconds 10 --trace 0

Runs one workload (see ``catalog.WORKLOADS``) from the root of a
checkout and prints, as the last line of standard output, one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1``
the per-layer ones (``BENCHMARK.json`` lists both).

The workload runs in a fresh child process (``child.py``) with every
``REPRO_*`` variable cleared and the results cache pointed at a
private directory under ``.perfbench/``.  This process measures what
only the outside can: set-up time (spawn to ``ready``, sampled in
several fresh processes), peak PSS of the child's whole process tree,
and leaks -- a process, socket or ``/dev/shm/repro_trc_*`` segment
that outlives the run counts as a failed operation.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import catalog
import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Set-up time is the median of this many fresh-process set-ups.
SETUP_SAMPLES = 3
#: Reading a process's ``smaps_rollup`` stalls it for a moment; every
#: 0.25 s, those stalls showed in the 99th-percentile latencies.
PSS_INTERVAL_S = 1.0
#: The whole run, the child included, must end within this.
DEADLINE_S = 170.0
PR_SET_CHILD_SUBREAPER = 36
SHM_DIR = Path("/dev/shm")
SHM_PREFIX = "repro_trc_"


def _child_pids(pid: int) -> list[int]:
    out = []
    try:
        for task in Path(f"/proc/{pid}/task").iterdir():
            out += [int(c) for c in (task / "children").read_text().split()]
    except (OSError, ValueError):
        pass
    return out


def _tree(root: int) -> list[int]:
    pending, seen = [root], []
    while pending:
        pid = pending.pop()
        seen.append(pid)
        pending += _child_pids(pid)
    return seen


def _pss_kib(pid: int) -> int:
    try:
        text = Path(f"/proc/{pid}/smaps_rollup").read_text()
    except OSError:
        return 0
    for line in text.splitlines():
        if line.startswith("Pss:"):
            return int(line.split()[1])
    return 0


def _shm_segments() -> set[str]:
    try:
        return {p.name for p in SHM_DIR.iterdir() if p.name.startswith(SHM_PREFIX)}
    except OSError:
        return set()


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


class MemorySampler(threading.Thread):
    """Peak aggregate PSS of a process tree, per named phase."""

    def __init__(self, root: int):
        super().__init__(daemon=True)
        self.root = root
        self.phase: str | None = None
        self.peaks_kib: dict[str, int] = {}
        self._halt = threading.Event()

    def run(self) -> None:
        while not self._halt.wait(PSS_INTERVAL_S):
            phase = self.phase
            if phase is None:
                continue
            total = sum(_pss_kib(pid) for pid in _tree(self.root))
            if total > self.peaks_kib.get(phase, 0):
                self.peaks_kib[phase] = total

    def stop(self) -> None:
        self._halt.set()
        self.join()


class Run:
    def __init__(self, args):
        self.args = args
        self.workdir = ROOT / ".perfbench" / f"run-{os.getpid()}"
        self.outdir = ROOT / ".perfbench" / "out"
        self.deadline = time.monotonic() + DEADLINE_S
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(message)

    def env(self) -> dict[str, str]:
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = str(SRC)
        env["REPRO_CACHE_DIR"] = str(self.workdir / "cache")
        env["TMPDIR"] = str(self.workdir / "tmp")
        return env

    def spawn(self, extra: list[str]) -> subprocess.Popen:
        a = self.args
        return subprocess.Popen(
            [
                sys.executable, str(HERE / "child.py"),
                "--workload", a.workload, "--seed", str(a.seed),
                "--seconds", str(a.seconds), "--trace", str(a.trace),
                "--workdir", str(self.workdir), *extra,
            ],
            cwd=self.workdir,
            env=self.env(),
            stdout=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )

    def watch(self, proc: subprocess.Popen, on_event) -> int:
        """Feed ``proc``'s events to ``on_event`` until it exits; kill
        its process group at the run's deadline."""
        timer = threading.Timer(
            max(0.0, self.deadline - time.monotonic()),
            lambda: _killpg(proc.pid),
        )
        timer.start()
        try:
            for line in proc.stdout:
                try:
                    event = json.loads(line)
                except json.JSONDecodeError:
                    continue
                on_event(event, time.perf_counter())
            return proc.wait()
        finally:
            timer.cancel()
            proc.stdout.close()

    def setup_sample(self) -> float:
        ready = []
        start = time.perf_counter()
        proc = self.spawn(["--setup-only"])
        code = self.watch(
            proc, lambda e, t: ready.append(t) if e["event"] == "ready" else None
        )
        self.check(code == 0 and bool(ready), f"set-up child exited {code}")
        self.reap_leaks("set-up")
        return ready[0] - start if ready else float("nan")

    def reap_leaks(self, label: str) -> None:
        """Everything the child started must be gone once it exits:
        orphans are re-parented to this process (a subreaper)."""
        leftover = [pid for pid in _child_pids(os.getpid()) if _alive(pid)]
        self.check(not leftover, f"{label}: processes {leftover} outlived the run")
        for pid in leftover:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        _reap_zombies()
        sockets = sorted(self.workdir.rglob("*.sock"))
        self.check(
            not sockets,
            f"{label}: sockets {[p.name for p in sockets]} left behind",
        )
        for path in sockets:
            path.unlink(missing_ok=True)

    def main(self) -> dict:
        a = self.args
        shutil.rmtree(self.workdir, ignore_errors=True)
        (self.workdir / "tmp").mkdir(parents=True)
        self.outdir.mkdir(parents=True, exist_ok=True)
        shm_before = _shm_segments()
        setups = []
        if not a.trace:
            setups = [self.setup_sample() for _ in range(SETUP_SAMPLES - 1)]

        tag = f"{a.workload}-s{a.seed}-t{a.trace}"
        spans_out = self.outdir / f"spans-{tag}.jsonl"
        start = time.perf_counter()
        proc = self.spawn(["--spans-out", str(spans_out)])
        sampler = MemorySampler(proc.pid)
        sampler.start()
        result = {}

        def on_event(event, t):
            if event["event"] == "ready":
                setups.append(t - start)
            elif event["event"] == "phase":
                sampler.phase = None if event["name"] == "end" else event["name"]
            elif event["event"] == "result":
                result.update(event)

        code = self.watch(proc, on_event)
        sampler.stop()
        self.reap_leaks("run")
        new_shm = sorted(_shm_segments() - shm_before)
        self.check(not new_shm, f"shared-memory segments {new_shm} leaked")
        if code != 0 or not result:
            raise SystemExit(
                f"perfbench: {a.workload} child exited with {code} "
                f"without a result"
            )
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        self.errors += result["errors"]

        peaks = {k: v / 1024 for k, v in sampler.peaks_kib.items()}
        timed = result["timed"]
        for name, values in timed.items():
            self.check(name in peaks, f"no memory sample in the {name} phase")
            values["peak_pss_mib"] = peaks.get(name, 0.0)
        if a.trace:
            metrics = dict(result["layers"])
            for metric in catalog.TIMED_METRICS:
                untraced = timed["untraced"][metric]
                traced = timed["traced"][metric]
                worse = traced - untraced
                if catalog.END_TO_END[metric][1] == "higher":
                    worse = -worse
                metrics[f"trace.overhead.{metric}"] = worse
            units = {k: v[0] for k, v in catalog.PER_LAYER.items()}
        else:
            metrics = dict(timed["untraced"])
            metrics["setup_s"] = stats.median(setups)
            units = {k: v[0] for k, v in catalog.END_TO_END.items()}

        report = {
            "workload": a.workload, "seed": a.seed, "seconds": a.seconds,
            "trace": a.trace, "errors": self.errors, "fill": result["fill"],
            "samples": result["samples"], "setup_samples_s": setups,
            "raw": result["raw"],
            "timed": timed, "metrics": metrics,
        }
        if self.failed:
            logs = self.outdir / f"logs-{tag}"
            shutil.rmtree(logs, ignore_errors=True)
            logs.mkdir()
            for log in self.workdir.glob("*.log"):
                shutil.copy(log, logs / log.name)
        (self.outdir / f"report-{tag}.json").write_text(
            json.dumps(report, indent=1) + "\n"
        )
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": metrics[name], "unit": units[name]}
                for name in units
            },
        }


def _killpg(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _reap_zombies() -> None:
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument(
        "--workload", required=True,
        choices=catalog.WORKLOADS + catalog.UNSTEADY_WORKLOADS,
    )
    p.add_argument("--seed", type=int, default=catalog.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {SRC}", file=sys.stderr)
        return 2
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong,
                           ctypes.c_ulong, ctypes.c_ulong]
    libc.prctl.restype = ctypes.c_int
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        print("perfbench: cannot become a child subreaper", file=sys.stderr)
        return 2
    run = Run(args)
    try:
        out = run.main()
    finally:
        shutil.rmtree(run.workdir, ignore_errors=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
