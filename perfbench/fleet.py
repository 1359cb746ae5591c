"""A federation fleet for the service workload and the service probes:
two experiment daemons (``repro serve --workers 2``), each with a
private results cache, behind one gateway (``repro gateway``).

Every process runs with the benchmark's working directory as its
current directory and listens on a Unix socket named relative to it,
so nothing outside the checkout is touched and socket paths stay far
below the ``AF_UNIX`` length limit however deep the checkout is.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro.federation import FederatedClient
from repro.service import ServiceClient, ServiceError

DAEMONS = ("d0", "d1")
#: Worker processes per daemon.  With one, two clients' fresh jobs
#: queue behind each other whenever the ring sends both to the same
#: daemon, so fresh latency takes one of two values at random.
WORKERS = 2
GATEWAY = "gw"
READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0


def _wait_ready(proc: subprocess.Popen, client_factory, deadline: float):
    while True:
        if proc.poll() is not None:
            raise RuntimeError(
                f"fleet process {proc.args} exited with {proc.returncode} "
                f"before it answered ping"
            )
        try:
            with client_factory() as client:
                client.ping()
            return
        except (OSError, ServiceError):
            if time.monotonic() > deadline:
                raise RuntimeError(f"fleet process {proc.args} never answered")
            time.sleep(0.02)


class Fleet:
    """Two daemons and a gateway as subprocesses of this process."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.procs: dict[str, subprocess.Popen] = {}

    def _spawn(self, name: str, argv: list[str]) -> subprocess.Popen:
        env = dict(os.environ)
        env["REPRO_CACHE_DIR"] = str(self.workdir / f"{name}-cache")
        with open(self.workdir / f"{name}.log", "ab") as log:
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro", *argv],
                cwd=self.workdir,
                env=env,
                stdout=log,
                stderr=subprocess.STDOUT,
                # Own process group, so stop() can reach forked workers.
                start_new_session=True,
            )
        self.procs[name] = proc
        return proc

    def start(self) -> "Fleet":
        deadline = time.monotonic() + READY_TIMEOUT_S
        for name in DAEMONS:
            self._spawn(name, [
                "serve", "--socket", f"{name}.sock", "--workers", str(WORKERS),
            ])
        # The gateway probes its nodes as it starts and marks a node
        # that is not listening yet dead until its next health probe,
        # so it starts only once every daemon answers.
        for name in DAEMONS:
            _wait_ready(self.procs[name], lambda n=name: self.daemon(n), deadline)
        nodes = []
        for name in DAEMONS:
            nodes += ["--node", f"./{name}.sock"]
        self._spawn(GATEWAY, ["gateway", "--socket", f"{GATEWAY}.sock", *nodes])
        _wait_ready(self.procs[GATEWAY], self.gateway, deadline)
        with self.gateway() as gw:
            while any(row["state"] != "alive" for row in gw.node_rows()):
                if time.monotonic() > deadline:
                    raise RuntimeError(f"gateway never saw {gw.node_rows()}")
                time.sleep(0.05)
        return self

    def daemon(self, name: str, timeout: float = 120.0) -> ServiceClient:
        return ServiceClient(
            self.workdir / f"{name}.sock", timeout=timeout, retries=0
        )

    def gateway(self, timeout: float = 120.0) -> FederatedClient:
        return FederatedClient(
            self.workdir / f"{GATEWAY}.sock", timeout=timeout, retries=0
        )

    def stop(self) -> list[str]:
        """Shut every process down through the protocol's ``shutdown``
        op; returns the names of those whose process group had to be
        SIGKILLed (a leak the caller counts as a failure)."""
        leaked = []
        order = [GATEWAY, *DAEMONS]
        for name in order:
            proc = self.procs.get(name)
            if proc is None or proc.poll() is not None:
                continue
            client = (
                self.gateway(timeout=10.0) if name == GATEWAY
                else self.daemon(name, timeout=10.0)
            )
            try:
                with client:
                    client.shutdown()
            except (OSError, ServiceError):
                pass
        for name in order:
            proc = self.procs.get(name)
            if proc is None:
                continue
            try:
                proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                leaked.append(name)
            try:
                # Anyone left in the group (a worker that outlived its
                # daemon) is a leak too.
                os.killpg(proc.pid, 0)
                if name not in leaked:
                    leaked.append(f"{name}-group")
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        self.procs.clear()
        return leaked

    def leftover_sockets(self) -> list[str]:
        return sorted(p.name for p in self.workdir.glob("*.sock"))
