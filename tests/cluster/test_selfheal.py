"""Poisoned-spec quarantine and graceful worker drain.

Quarantine: a spec that keeps taking workers down with it must stop
being retried and surface as a structured failure, or one landmine
spec cycles through every worker the supervisor can spawn.  Drain: a
SIGTERM'd worker finishes its in-flight spec and hands unstarted
leases straight back via the ``release`` frame instead of stranding
them until the lease timeout.
"""

import json
import socket
import time

import pytest

from repro.cluster.coordinator import ClusterCoordinator
from repro.cluster.worker import BackgroundWorker
from repro.engine.executor import execute
from repro.engine.registry import scenario, unregister
from repro.engine.spec import ScenarioSpec
from repro.service import protocol
from repro.service.backend import LocalBackend
from repro.service.client import ServiceClient
from repro.service.server import BackgroundServer


@pytest.fixture(scope="module", autouse=True)
def selfheal_scenarios():
    @scenario("_sh_sq", params={"n": 2})
    def _sq(n=2):
        return {"rows": [{"n": n, "sq": n * n}],
                "verdict": {"ok": True}}

    @scenario("_sh_slow", params={"k": 1, "delay": 0.3})
    def _slow(k=1, delay=0.3):
        time.sleep(delay)
        return {"rows": [{"k": k}], "verdict": {"ok": True}}

    yield
    for name in ("_sh_sq", "_sh_slow"):
        unregister(name)


def _doomed_worker_cycle(host, port, name):
    """Register, take one lease, vanish — the poisoned-spec signature."""
    sock = socket.create_connection((host, port), timeout=10)
    reader = sock.makefile("rb")
    sock.sendall(protocol.encode_frame(
        protocol.make_register(name, capacity=1)
    ))
    assert json.loads(reader.readline())["type"] == "registered"
    lease = json.loads(reader.readline())
    assert lease["type"] == "lease"
    sock.close()                   # dies "executing" the spec
    return lease["spec"]["params"]


class _LandmineBackend(LocalBackend):
    """A worker's serial backend, except that one spec takes its worker
    down mid-execution with the result unsent."""

    def __init__(self, poison_hash):
        super().__init__(backend="serial")
        self.poison_hash = poison_hash
        self.worker = None

    def run(self, specs, progress=None, *, label=None):
        if specs[0].content_hash == self.poison_hash:
            self.worker.kill()
        return super().run(specs, progress, label=label)


def _payloads(results):
    return sorted(
        json.dumps(r.comparable_payload(), sort_keys=True)
        for r in results
    )


class TestQuarantine:
    def test_spec_that_keeps_killing_workers_is_quarantined(self):
        coordinator = ClusterCoordinator(
            port=0, lease_timeout_s=3.0, max_spec_retries=1
        )
        with BackgroundServer(server=coordinator) as bg:
            spec = ScenarioSpec("_sh_sq", {"n": 13})
            with ServiceClient(bg.host, bg.port, timeout=60) as client:
                client.send(protocol.make_submit([spec.to_dict()]))
                assert client._recv_checked()["type"] == "ack"
                # two involuntary losses: the first requeues
                # (retry 1 <= budget), the second quarantines
                for attempt in range(2):
                    _doomed_worker_cycle(bg.host, bg.port,
                                         f"doomed-{attempt}")
                frames = []
                while True:
                    frame = client._recv_checked()
                    if frame["type"] == "done":
                        break
                    frames.append(frame)
                assert frame["failed"] == 1
            assert len(frames) == 1
            result = frames[0]["result"]
            assert result["status"] == "error"
            assert "quarantined" in result["error"]
            assert result["spec_hash"] == spec.content_hash
            status = coordinator.cluster_status()
            assert status["quarantined"] == 1
        # no live worker ever existed: the job finished anyway

    @pytest.mark.parametrize("retries", [0, 1])
    def test_poison_in_a_window_is_quarantined_alone(self, retries):
        # cheap specs are leased in windows: the poisoned spec dies as
        # its worker's head lease while the specs prefetched behind it
        # go back uncharged, so only the poison is quarantined
        warm = [ScenarioSpec("_sh_sq", {"n": n}) for n in range(100, 106)]
        specs = [ScenarioSpec("_sh_sq", {"n": n}) for n in range(30)]
        poison = specs[3]
        innocent = [s for s in specs if s is not poison]
        serial = execute(innocent, backend="serial")
        coordinator = ClusterCoordinator(
            port=0, lease_timeout_s=3.0, max_spec_retries=retries
        )
        # a budget no loaded host can exhaust: each worker takes its
        # whole deque as one window
        coordinator.pool.WINDOW_BUDGET_S = 1.0
        with BackgroundServer(server=coordinator) as bg:
            fleet = []
            for k in range(3):
                backend = _LandmineBackend(poison.content_hash)
                member = BackgroundWorker(bg.host, bg.port,
                                          name=f"w{k}", backend=backend)
                backend.worker = member.worker
                fleet.append(member.start())
            try:
                deadline = time.monotonic() + 10
                while (len(coordinator.pool.workers) < 3
                       and time.monotonic() < deadline):
                    time.sleep(0.01)
                with ServiceClient(bg.host, bg.port, timeout=60) as client:
                    client.submit(warm)      # teaches the pool the cost
                    results = client.submit(specs)
                    assert client.last_done["failed"] == 1
                (bad,) = [r for r in results if not r.ok]
                assert bad.spec_hash == poison.content_hash
                assert "quarantined" in bad.error
                assert _payloads(r for r in results if r.ok) == (
                    _payloads(serial)
                )
                pool = coordinator.pool
                assert pool.total_quarantined == 1
                # the first loss requeued the window behind the poison
                assert pool.total_requeued > retries
                assert len(pool.workers) == 3 - (retries + 1)
            finally:
                for member in fleet:
                    member.stop()

    def test_graceful_release_does_not_burn_the_retry_budget(self):
        # a drain hand-off is not the spec's fault: release twice with
        # a budget of one and the spec must still execute fine
        coordinator = ClusterCoordinator(
            port=0, lease_timeout_s=3.0, max_spec_retries=1
        )
        with BackgroundServer(server=coordinator) as bg:
            spec = ScenarioSpec("_sh_sq", {"n": 4})
            with ServiceClient(bg.host, bg.port, timeout=60) as client:
                client.send(protocol.make_submit([spec.to_dict()]))
                assert client._recv_checked()["type"] == "ack"
                for attempt in range(2):
                    sock = socket.create_connection((bg.host, bg.port),
                                                    timeout=10)
                    reader = sock.makefile("rb")
                    sock.sendall(protocol.encode_frame(
                        protocol.make_register(f"polite-{attempt}",
                                               capacity=1)
                    ))
                    worker_id = json.loads(reader.readline())["worker"]
                    lease = json.loads(reader.readline())
                    sock.sendall(protocol.encode_frame(
                        protocol.make_release([lease["lease"]],
                                              worker_id)
                    ))
                    assert json.loads(reader.readline())["type"] == "ack"
                    sock.close()
                finisher = BackgroundWorker(bg.host, bg.port,
                                            name="finisher").start()
                try:
                    frames = []
                    while True:
                        frame = client._recv_checked()
                        if frame["type"] == "done":
                            break
                        frames.append(frame)
                    assert frame["failed"] == 0
                    assert frames[0]["result"]["status"] == "ok"
                finally:
                    finisher.stop()
            assert coordinator.pool.total_released == 2
            assert coordinator.pool.total_quarantined == 0


class TestGracefulDrain:
    def test_drained_worker_releases_buffered_leases(self):
        specs = [
            ScenarioSpec("_sh_slow", {"k": k, "delay": 0.4})
            for k in range(1, 5)
        ]
        coordinator = ClusterCoordinator(port=0, lease_timeout_s=30.0)
        with BackgroundServer(server=coordinator) as bg:
            # capacity 3: one executing, two buffered client-side
            leaver = BackgroundWorker(bg.host, bg.port, name="leaver",
                                      capacity=3).start()
            try:
                with ServiceClient(bg.host, bg.port,
                                   timeout=60) as client:
                    results = []
                    iterator = client.submit_iter(specs)
                    results.append(next(iterator))
                    # the worker is now mid-spec #2 with more buffered;
                    # drain it and bring a successor for the rest
                    leaver.drain()
                    successor = BackgroundWorker(bg.host, bg.port,
                                                 name="successor").start()
                    try:
                        results.extend(iterator)
                    finally:
                        successor.stop()
                    assert client.last_done["failed"] == 0
                assert len(results) == 4
                # the drain actually handed leases back — the lease
                # timeout (30s, longer than this test) never fired
                assert coordinator.pool.total_released >= 1
                assert leaver.worker.released >= 1
                assert not leaver.alive
                # and the successor, not a timeout-requeue, ran them
                assert successor.worker.executed >= 1
                assert coordinator.pool.total_requeued == 0
            finally:
                leaver.stop()

    def test_drain_with_nothing_leased_just_exits(self):
        coordinator = ClusterCoordinator(port=0, lease_timeout_s=5.0)
        with BackgroundServer(server=coordinator) as bg:
            idler = BackgroundWorker(bg.host, bg.port,
                                     name="idler").start()
            deadline = time.monotonic() + 5
            while (not coordinator.pool.workers
                   and time.monotonic() < deadline):
                time.sleep(0.02)
            idler.drain()
            assert not idler.alive
            assert idler.worker.released == 0
