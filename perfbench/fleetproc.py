"""The benchmark's subprocesses: the fleet, and the stage server.

``FleetProcess`` runs ``celia fleet serve --workers 1``;
``StageProcess`` runs ``pipeline_stage.py serve``, which times cold
pipelines and warm starts in forked children on request.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import signal
import sys
import time
from pathlib import Path

from loadclient import HttpConnection
from workloads import ENVELOPES

_LISTENING = re.compile(rb"listening on http://([\d.]+):(\d+)")
#: Longest Unix-socket path the kernel accepts, minus the fleet's own
#: ``celia-fleet-XXXXXXXX/w0.sock`` suffix.
_MAX_SOCKET_DIR = 107 - 32


def program_env(root: Path, work: Path) -> dict:
    """Environment for program subprocesses: the checkout's ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.pop("CELIA_CACHE_DIR", None)
    env.pop("CELIA_TRACE", None)
    tmp = work / "tmp"
    if len(str(tmp)) <= _MAX_SOCKET_DIR:  # keep worker sockets in the tree
        tmp.mkdir(parents=True, exist_ok=True)
        env["TMPDIR"] = str(tmp)
    return env


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class FleetProcess:
    """One fleet: spawn, wait until ready and warm, serve, stop."""

    def __init__(self, root: Path, work: Path, *, quota: int,
                 cache_dir: Path, signatures):
        self.root = root
        self.work = work
        self.quota = quota
        self.cache_dir = cache_dir
        self.signatures = tuple(signatures)
        self.host = "127.0.0.1"
        self.port = 0
        self.worker_pid = 0
        self.socket_path = ""
        self._proc: "asyncio.subprocess.Process | None" = None
        self._drain: "asyncio.Task | None" = None

    async def start(self) -> float:
        """Spawn; return seconds until ``/healthz`` is ready and warm."""
        t0 = time.perf_counter()
        log = open(self.work / "fleet.log", "ab")
        try:
            self._proc = await asyncio.create_subprocess_exec(
                sys.executable, "-m", "repro.cli",
                "--quota", str(self.quota),
                "--cache-dir", str(self.cache_dir),
                "fleet", "serve", "--workers", "1", "--port", "0",
                stdout=asyncio.subprocess.PIPE, stderr=log,
                env=program_env(self.root, self.work),
                start_new_session=True)
        finally:
            log.close()
        line = await asyncio.wait_for(self._proc.stdout.readline(), 60)
        match = _LISTENING.search(line)
        if match is None:
            await self.stop()
            raise RuntimeError(f"fleet did not start: {line!r}")
        self.port = int(match.group(2))
        self._drain = asyncio.ensure_future(self._proc.stdout.read())
        conn = HttpConnection(self.host, self.port)
        try:
            while True:
                status, body = await conn.request("GET", "/healthz")
                if status == 200 and json.loads(body).get("ready"):
                    break
                await asyncio.sleep(0.005)
            for app, seed in self.signatures:
                await self._warm(conn, app, seed)
            setup_s = time.perf_counter() - t0
            status, body = await conn.request("GET", "/fleet")
            worker = json.loads(body)["workers"][0]
            self.worker_pid = int(worker["pid"])
            self.socket_path = worker["socket"]
        finally:
            await conn.close()
        return setup_s

    async def _warm(self, conn: HttpConnection, app: str, seed: int) -> None:
        """Build one signature's warm state with an out-of-workload query."""
        n, _, a, _ = ENVELOPES[app]
        body = json.dumps({"app": app, "quota": self.quota, "seed": seed,
                           "n": n, "a": a,
                           "configuration": [1] + [0] * 8}).encode()
        status, payload = await conn.request("POST", "/v1/predict", body)
        if status != 200:
            raise RuntimeError(f"warming {app}/{seed} failed: {payload!r}")

    async def metrics(self) -> dict:
        conn = HttpConnection(self.host, self.port)
        try:
            status, body = await conn.request("GET", "/metrics")
        finally:
            await conn.close()
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        return json.loads(body)

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb(self.worker_pid)

    async def stop(self) -> None:
        """SIGTERM (graceful drain); SIGKILL the process group on timeout."""
        proc = self._proc
        if proc is None:
            return
        self._proc = None
        if proc.returncode is None:
            proc.send_signal(signal.SIGTERM)
            try:
                await asyncio.wait_for(proc.wait(), 30)
            except asyncio.TimeoutError:
                os.killpg(proc.pid, signal.SIGKILL)
                await proc.wait()
        if self._drain is not None:
            await self._drain
        # The front end stops its worker; anything of its process group
        # still alive (a front end killed above) is killed and awaited.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            return
        deadline = time.monotonic() + 10
        while self.worker_pid and Path(f"/proc/{self.worker_pid}").exists() \
                and time.monotonic() < deadline:
            await asyncio.sleep(0.05)


class StageProcess:
    """``pipeline_stage.py serve``: one stage request at a time."""

    def __init__(self, root: Path, work: Path, *, quota: int, signatures):
        self.root = root
        self.work = work
        self.quota = quota
        self.signatures = tuple(signatures)
        self._proc: "asyncio.subprocess.Process | None" = None

    async def start(self) -> None:
        argv = [sys.executable, str(Path(__file__).with_name(
            "pipeline_stage.py")), "serve", "--quota", str(self.quota)]
        for app, seed in self.signatures:
            argv += ["--sig", f"{app}:{seed}"]
        log = open(self.work / "stages.log", "ab")
        try:
            self._proc = await asyncio.create_subprocess_exec(
                *argv, stdin=asyncio.subprocess.PIPE,
                stdout=asyncio.subprocess.PIPE, stderr=log,
                env=program_env(self.root, self.work),
                start_new_session=True)
        finally:
            log.close()

    async def call(self, stage: str, cache_dir: Path, **extra) -> dict:
        """Run one stage in a fresh child; its JSON answer."""
        request = {"stage": stage, "cache_dir": str(cache_dir), **extra}
        self._proc.stdin.write(json.dumps(request).encode() + b"\n")
        await self._proc.stdin.drain()
        line = await asyncio.wait_for(self._proc.stdout.readline(), 170)
        if not line:
            raise RuntimeError(f"stage server ended during {stage}; see "
                               f"{self.work / 'stages.log'}")
        answer = json.loads(line)
        if "error" in answer:
            raise RuntimeError(f"{stage} stage failed:\n{answer['error']}")
        return answer

    async def stop(self) -> None:
        """Close its stdin so it ends; kill its group if it does not."""
        proc = self._proc
        if proc is None:
            return
        self._proc = None
        if proc.returncode is None:
            proc.stdin.close()
            try:
                await asyncio.wait_for(proc.wait(), 30)
            except asyncio.TimeoutError:
                pass
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        await proc.wait()
