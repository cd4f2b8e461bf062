"""Batch bookkeeping: every delivery path closes its batch exactly once.

Both pools count each batch's undelivered items instead of rescanning
the batch on every delivery.  These tests finish a batch through each
path that touches an item — plain completion, quarantine, graceful
release, involuntary requeue, abandon — and check the batch table
empties exactly when the last item is delivered.
"""

import asyncio
import queue as stdlib_queue

from repro.cluster.coordinator import ClusterPool
from repro.cluster.federation import FederationPool
from repro.engine.results import ScenarioResult
from repro.engine.spec import ScenarioSpec


def _specs(n):
    return [ScenarioSpec("_batch", {"i": i}) for i in range(n)]


def _result(spec):
    return ScenarioResult(name=spec.name, spec_hash=spec.content_hash,
                          params=spec.params_dict())


class FakeWriter:
    def __init__(self):
        self.frames = []

    def write(self, data):
        self.frames.append(data)

    async def drain(self):
        pass

    def close(self):
        pass


def _drain(sink):
    out = []
    while not sink.empty():
        out.append(sink.get_nowait())
    return out


def run_pool(body, max_spec_retries=5):
    """Run *body(pool, register, sink, batch_id)* on a fresh pool."""

    async def main():
        pool = ClusterPool(max_spec_retries=max_spec_retries)
        pool.start(asyncio.get_running_loop())
        sink = stdlib_queue.Queue()

        async def register(name, capacity=1):
            worker = pool.register(name, capacity, FakeWriter(),
                                   asyncio.Lock())
            await pool._grant(worker)
            return worker

        try:
            await body(pool, register, sink)
        finally:
            pool.shutdown()

    asyncio.run(main())


async def _complete_all(pool, worker):
    for lease_id, item in list(worker.leases.items()):
        await pool.complete(worker, lease_id, _result(item.spec).to_dict())


class TestClusterPoolBatches:
    def test_plain_completion_closes_the_batch(self):
        async def body(pool, register, sink):
            await pool.submit_batch(_specs(3), sink)
            worker = await register("w", capacity=3)
            assert len(pool._batches) == 1
            leases = list(worker.leases.items())
            for n, (lease_id, item) in enumerate(leases, start=1):
                await pool.complete(worker, lease_id,
                                    _result(item.spec).to_dict())
                assert len(pool._batches) == (0 if n == 3 else 1)
            assert [k for k, _ in _drain(sink)] == ["result"] * 3

        run_pool(body)

    def test_quarantine_delivers_and_closes_the_batch(self):
        async def body(pool, register, sink):
            await pool.submit_batch(_specs(1), sink)
            worker = await register("doomed")
            pool.worker_lost(worker.id)   # retry budget 0: quarantined
            assert pool.total_quarantined == 1
            assert len(pool._batches) == 0
            (kind, result), = _drain(sink)
            assert kind == "result" and "quarantined" in result.error

        run_pool(body, max_spec_retries=0)

    def test_release_keeps_the_batch_open_until_redelivery(self):
        async def body(pool, register, sink):
            await pool.submit_batch(_specs(2), sink)
            draining = await register("draining", capacity=2)
            assert pool.release(draining, list(draining.leases)) == 2
            assert len(pool._batches) == 1   # released ≠ delivered
            fresh = await register("fresh", capacity=2)
            await _complete_all(pool, fresh)
            assert len(pool._batches) == 0
            assert len(_drain(sink)) == 2

        run_pool(body)

    def test_requeue_keeps_the_batch_open_until_redelivery(self):
        async def body(pool, register, sink):
            await pool.submit_batch(_specs(2), sink)
            lost = await register("lost", capacity=2)
            pool.worker_lost(lost.id)
            assert pool.total_requeued == 2
            assert len(pool._batches) == 1
            fresh = await register("fresh", capacity=2)
            await _complete_all(pool, fresh)
            assert len(pool._batches) == 0
            assert len(_drain(sink)) == 2

        run_pool(body)

    def test_abandon_closes_the_batch_and_late_results_are_dropped(self):
        async def body(pool, register, sink):
            batch_id = await pool.submit_batch(_specs(2), sink)
            worker = await register("w", capacity=2)
            pool.abandon_batch(batch_id)
            assert len(pool._batches) == 0
            await _complete_all(pool, worker)
            assert len(pool._batches) == 0
            assert _drain(sink) == []
            assert pool.total_completed == 0

        run_pool(body)

    def test_mixed_paths_deliver_each_item_once(self):
        async def body(pool, register, sink):
            await pool.submit_batch(_specs(4), sink)
            first = await register("first", capacity=4)
            leases = list(first.leases)
            item = first.leases[leases[0]]
            await pool.complete(first, leases[0],
                                _result(item.spec).to_dict())
            pool.release(first, leases[1:2])
            pool.worker_lost(first.id)       # requeues the other two
            assert len(pool._batches) == 1
            second = await register("second", capacity=4)
            await _complete_all(pool, second)
            assert len(pool._batches) == 0
            assert len(_drain(sink)) == 4

        run_pool(body)


class TestFederationPoolBatches:
    def _fed(self, n, max_spec_retries=5):
        fed = FederationPool(max_spec_retries=max_spec_retries,
                             probe_interval_s=60.0)
        peer = fed.add_pool("127.0.0.1", 1, name="px")
        sink = stdlib_queue.Queue()
        batch_id = fed.submit_batch(_specs(n), sink)
        items = list(fed._queue)
        fed._queue.clear()
        return fed, peer, sink, batch_id, items

    def test_delivery_closes_the_batch_on_the_last_item(self):
        fed, peer, sink, _bid, items = self._fed(3)
        for n, item in enumerate(items, start=1):
            fed._deliver(peer, item, _result(item.spec))
            assert len(fed._batches) == (0 if n == 3 else 1)
        fed._deliver(peer, items[0], _result(items[0].spec))  # duplicate
        assert len(_drain(sink)) == 3

    def test_quarantine_closes_the_batch(self):
        fed, peer, sink, _bid, items = self._fed(2, max_spec_retries=0)
        fed._rehome(peer, items, charged=True)
        assert fed.total_quarantined == 2
        assert len(fed._batches) == 0
        assert len(_drain(sink)) == 2

    def test_uncharged_and_charged_rehomes_keep_the_batch_open(self):
        fed, peer, sink, _bid, items = self._fed(2, max_spec_retries=5)
        fed._rehome(peer, items[:1], charged=False)   # drain / busy
        fed._rehome(peer, items[1:], charged=True)    # dark pool
        assert len(fed._batches) == 1
        for item in list(fed._queue):
            fed._deliver(peer, item, _result(item.spec))
        assert len(fed._batches) == 0
        assert len(_drain(sink)) == 2

    def test_abandon_closes_the_batch(self):
        fed, peer, sink, batch_id, items = self._fed(2)
        fed.abandon_batch(batch_id)
        assert len(fed._batches) == 0
        fed._deliver(peer, items[0], _result(items[0].spec))
        assert _drain(sink) == []

    def test_shutdown_aborts_open_batches(self):
        fed, _peer, sink, _bid, items = self._fed(2)
        fed.shutdown()
        assert len(fed._batches) == 0
        assert all(item.abandoned for item in items)
        assert _drain(sink) == [("abort", "federation front stopped")]
