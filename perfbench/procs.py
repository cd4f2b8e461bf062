"""Spawned ``repro`` tiers: start, observe through /proc, tear down.

Every tier writes stdout and stderr to its own log file.  A pipe
nobody drains fills after 64 KiB — ``repro worker`` prints a line per
lease, so it blocks after about 1,900 leases and the sweep stalls with
every process idle, which looks exactly like a scheduler hang.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from metrics import parse_proc_stat, parse_proc_status

_CLK_TCK = os.sysconf("SC_CLK_TCK")
_LISTENING = re.compile(r" on [0-9.]+:([0-9]+) ")
HOST = "127.0.0.1"


class BenchError(RuntimeError):
    """The deployment misbehaved; the run cannot produce a result."""


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of a live process."""
    with open(f"/proc/{pid}/stat") as fh:
        utime, stime = parse_proc_stat(fh.read())
    return (utime + stime) / _CLK_TCK


def proc_hwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        return parse_proc_status(fh.read())["VmHWM"] / 1024.0


def live_children() -> List[int]:
    """Pids of this process's children that have not been reaped."""
    me = os.getpid()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                text = fh.read()
        except OSError:
            continue
        fields = text[text.rindex(")") + 2:].split()
        if int(fields[1]) == me:
            found.append(int(entry))
    return found


class Tier:
    """One ``python -m repro <command>`` process of a deployment."""

    def __init__(self, kind: str, args: Sequence[str], log: Path,
                 env: Dict[str, str]):
        self.kind = kind
        self.log = log
        self._fh = log.open("wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *args],
            stdin=subprocess.DEVNULL, stdout=self._fh,
            stderr=subprocess.STDOUT, env=env,
        )

    @property
    def pid(self) -> int:
        return self.proc.pid

    def wait_port(self, deadline: float) -> int:
        """The port the listener printed once it was up."""
        while time.monotonic() < deadline:
            match = _LISTENING.search(self.log.read_text(errors="replace"))
            if match:
                return int(match.group(1))
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        raise BenchError(f"{self.kind} did not start listening "
                         f"(see {self.log})")

    def cpu_s(self) -> float:
        return proc_cpu_s(self.pid)

    def hwm_mb(self) -> float:
        return proc_hwm_mb(self.pid)

    def close_log(self) -> None:
        self._fh.close()


class Deployment:
    """The tiers of one run, started together and stopped together."""

    def __init__(self, run_dir: Path, src_dir: Path):
        self.run_dir = run_dir
        self.run_dir.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(src_dir)
        self.env.pop("REPRO_EVENTS", None)
        self.tiers: List[Tier] = []
        #: ports of the coordinators, in start order
        self.pools: List[int] = []
        self.front: Optional[int] = None

    def spawn(self, kind: str, args: Sequence[str],
              events: bool = False) -> Tier:
        env = self.env
        index = sum(1 for t in self.tiers if t.kind == kind)
        name = f"{kind}{index}"
        if events:
            env = dict(env)
            env["REPRO_EVENTS"] = str(self.run_dir / f"{name}.events.jsonl")
        tier = Tier(kind, args, self.run_dir / f"{name}.log", env)
        self.tiers.append(tier)
        return tier

    def of_kind(self, kind: str) -> List[Tier]:
        return [t for t in self.tiers if t.kind == kind]

    def hwm_by_kind(self) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for tier in self.tiers:
            totals[tier.kind] = totals.get(tier.kind, 0.0) + tier.hwm_mb()
        return totals

    def teardown(self, timeout_s: float = 10.0) -> None:
        """Drain workers, send ``shutdown`` to the listeners, then kill
        whatever is still alive after ``timeout_s``."""
        from repro.service.client import ServiceClient, ServiceError

        for tier in self.of_kind("worker"):
            if tier.proc.poll() is None:
                tier.proc.send_signal(signal.SIGTERM)
        ports = ([self.front] if self.front else []) + self.pools
        for port in ports:
            try:
                with ServiceClient(HOST, port, timeout=5.0) as client:
                    client.shutdown()
            except (ServiceError, OSError):
                pass  # already gone: the kill below covers the rest
        deadline = time.monotonic() + timeout_s
        for tier in self.tiers:
            try:
                tier.proc.wait(max(0.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                tier.proc.kill()
                tier.proc.wait()
            tier.close_log()
        leaked = live_children()
        if leaked:
            for pid in leaked:
                os.kill(pid, signal.SIGKILL)
            raise BenchError(f"repro children outlived the run: {leaked}")
