"""Batch bookkeeping: every delivery path closes its batch exactly once.

Both pools count each batch's undelivered items instead of rescanning
the batch on every delivery.  These tests finish a batch through each
path that touches an item — plain completion, quarantine, graceful
release, involuntary requeue, abandon — and check the batch table
empties exactly when the last item is delivered.

The lease-window tests check how many leases a worker holds beyond its
``capacity`` floor once spec costs are learned, where the extras come
from, and what a loss or a drain does to a full window; a hypothesis
property drives random pool operations with windows on.
"""

import asyncio
import queue as stdlib_queue

from hypothesis import given, settings, strategies as st

from repro.cluster.coordinator import ClusterPool, WorkItem
from repro.cluster.journal import JobJournal
from repro.cluster.federation import FederationPool
from repro.engine.results import ScenarioResult
from repro.engine.spec import ScenarioSpec


def _specs(n, name="_batch", start=0):
    return [ScenarioSpec(name, {"i": i}) for i in range(start, start + n)]


def _result(spec, elapsed_s=0.0):
    return ScenarioResult(name=spec.name, spec_hash=spec.content_hash,
                          params=spec.params_dict(), elapsed_s=elapsed_s)


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


def run_pool(body, max_spec_retries=5, journal=None):
    """Run *body(pool, register, sink)* on a fresh pool."""

    async def main():
        pool = ClusterPool(max_spec_retries=max_spec_retries,
                           journal=journal)
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

    def test_oversized_spec_is_quarantined_and_the_worker_kept(self):
        from repro.service.protocol import MAX_FRAME_BYTES

        async def body(pool, register, sink):
            huge = ScenarioSpec("_batch", {"blob": "x" * MAX_FRAME_BYTES})
            small = _specs(1)[0]
            worker = await register("w")
            await pool.submit_batch([huge, small], sink)
            # the lease frame cannot be encoded: each grant attempt
            # burns a retry, and the connection is never blamed
            assert [i.spec for i in worker.leases.values()] == [small]
            await _complete_all(pool, worker)
            assert pool.total_quarantined == 1
            assert worker.id in pool.workers and not worker.leases
            assert len(pool._batches) == 0
            quarantined = [r for _kind, r in _drain(sink) if not r.ok]
            assert [r.spec_hash for r in quarantined] == [huge.content_hash]

        run_pool(body, max_spec_retries=2)


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


CHEAP_S = 0.0001    # a learned cost far below the window budget


async def _learn(pool, register, sink, name="_batch", elapsed_s=CHEAP_S):
    """Teach the pool *name*'s cost through one completed lease."""
    (spec,) = _specs(1, name=name, start=10_000)
    teacher = await register("teacher")
    await pool.submit_batch([spec], sink)
    (lease_id,) = teacher.leases
    await pool.complete(teacher, lease_id,
                        _result(spec, elapsed_s).to_dict())
    pool.worker_lost(teacher.id)
    _drain(sink)


class TestLeaseWindows:
    def test_unknown_cost_grants_only_the_capacity_floor(self):
        async def body(pool, register, sink):
            worker = await register("w", capacity=2)
            await pool.submit_batch(_specs(10), sink)
            assert len(worker.leases) == 2
            assert pool.queue.pending() == 8

        run_pool(body)

    def test_learned_cheap_cost_grows_the_window_to_the_cap(self, tmp_path):
        journal = JobJournal(tmp_path / "j.jsonl")

        async def body(pool, register, sink):
            await _learn(pool, register, sink)
            worker = await register("w")
            writes = len(worker.writer.frames)
            lines_before = journal.path.read_text().count("\n")
            await pool.submit_batch(_specs(50), sink)
            assert len(worker.leases) == pool.WINDOW_CAP
            # one write and one journal append for the whole grant,
            # still one lease frame and one lease record per spec
            assert len(worker.writer.frames) == writes + 1
            assert worker.writer.frames[-1].count(b"\n") == pool.WINDOW_CAP
            lines = journal.path.read_text().splitlines()[lines_before:]
            assert len(lines) == pool.WINDOW_CAP
            assert all('"e":"lease"' in line for line in lines)

        run_pool(body, journal=journal)
        journal.close()

    def test_window_refills_only_below_half_the_budget(self):
        async def body(pool, register, sink):
            pool.WINDOW_BUDGET_S = 1.0
            await _learn(pool, register, sink, elapsed_s=0.25)
            worker = await register("w")
            await pool.submit_batch(_specs(20), sink)
            assert len(worker.leases) == 4       # 4 × 0.25 s fills 1 s
            held = []
            for _ in range(3):
                lease_id, item = next(iter(worker.leases.items()))
                await pool.complete(worker, lease_id,
                                    _result(item.spec, 0.25).to_dict())
                held.append(len(worker.leases))
            # 0.75 s and 0.5 s held: no top-up; 0.25 s: refill to 1 s
            assert held == [3, 2, 4]

        run_pool(body)

    def test_heavy_estimate_adds_no_extras(self):
        async def body(pool, register, sink):
            await _learn(pool, register, sink, elapsed_s=2.0)
            worker = await register("w")
            await pool.submit_batch(_specs(5), sink)
            assert len(worker.leases) == 1

        run_pool(body)

    def test_heavy_spec_only_lands_in_an_empty_window(self):
        async def body(pool, register, sink):
            await _learn(pool, register, sink)
            await _learn(pool, register, sink, name="_heavy",
                         elapsed_s=2.0)
            worker = await register("w")
            cheap = _specs(3)
            heavy = _specs(1, name="_heavy")
            await pool.submit_batch(cheap + heavy + _specs(3, start=3),
                                    sink)
            # the window stops in front of the heavy spec, which stays
            # queued (and stealable) until the worker has emptied
            assert [i.spec for i in worker.leases.values()] == cheap
            for lease_id, item in list(worker.leases.items()):
                await pool.complete(worker, lease_id,
                                    _result(item.spec).to_dict())
            assert [i.spec for i in worker.leases.values()] == heavy

        run_pool(body)

    def test_extras_never_drain_the_backlog(self):
        async def body(pool, register, sink):
            await _learn(pool, register, sink)
            await pool.submit_batch(_specs(10), sink)   # no worker yet
            worker = await register("w")
            assert len(worker.leases) == 1
            assert pool.queue.pending() == 9

        run_pool(body)

    def test_extras_never_steal(self):
        async def body(pool, register, sink):
            await _learn(pool, register, sink)
            thief = await register("thief")
            victim = await register("victim")
            victim.draining = True            # holds its deque, idle
            for spec in _specs(6):
                pool.queue.push(WorkItem(spec, "", sink, "b"), victim.id)
            await pool._grant(thief)
            assert len(thief.leases) == 1     # the floor's one steal
            assert pool.queue.steals == 1
            assert pool.queue.depths()[victim.id] == 5

        run_pool(body)

    def test_two_spec_sweep_on_two_idle_workers_grants_one_each(self):
        async def body(pool, register, sink):
            await _learn(pool, register, sink)
            first = await register("first")
            second = await register("second")
            await pool.submit_batch(_specs(2), sink)
            assert len(first.leases) == len(second.leases) == 1

        run_pool(body)

    def test_drain_release_returns_the_whole_window(self):
        async def body(pool, register, sink):
            await _learn(pool, register, sink)
            worker = await register("w")
            await pool.submit_batch(_specs(20), sink)
            leases = list(worker.leases)
            assert len(leases) == 20
            assert pool.release(worker, leases) == 20
            assert worker.leases == {} and worker.held_s == 0.0
            assert pool.queue.pending() == 20
            assert pool.total_requeued == 0

        run_pool(body)

    def test_lost_worker_charges_only_its_head_lease(self):
        async def body(pool, register, sink):
            await _learn(pool, register, sink)
            worker = await register("w")
            await pool.submit_batch(_specs(10), sink)
            items = list(worker.leases.values())
            assert len(items) == 10
            pool.worker_lost(worker.id)
            # the head is quarantined (budget 0); the prefetched rest
            # is requeued uncharged, in lease order
            assert pool.total_quarantined == 1
            assert pool.total_requeued == 9
            (kind, result), = _drain(sink)
            assert result.spec_hash == items[0].spec.content_hash
            assert [i.requeues for i in items[1:]] == [0] * 9
            fresh = await register("fresh")
            order = []
            while fresh.leases:
                lease_id, item = next(iter(fresh.leases.items()))
                order.append(item)
                await pool.complete(fresh, lease_id,
                                    _result(item.spec).to_dict())
            assert order == items[1:]
            assert len(pool._batches) == 0

        run_pool(body, max_spec_retries=0)


    def test_bad_wall_times_are_not_learned_and_every_spec_delivers(self):
        async def body(pool, register, sink):
            await _learn(pool, register, sink)
            worker = await register("w")
            specs = _specs(6)
            await pool.submit_batch(specs, sink)
            assert len(worker.leases) == 6

            async def complete_head(elapsed_s):
                lease_id, item = next(iter(worker.leases.items()))
                data = _result(item.spec).to_dict()
                data["elapsed_s"] = elapsed_s
                await pool.complete(worker, lease_id, data)

            # an unreadable wall time is a bad result: the spec is
            # requeued, as for any undecodable result
            for bad, error in ((None, TypeError), ("x", ValueError)):
                try:
                    await complete_head(bad)
                except error:
                    pass
                else:
                    raise AssertionError(f"{bad!r} was accepted")
            assert pool.total_requeued == 2
            # a readable but meaningless one is delivered, not learned
            for bad in (float("nan"), float("inf"), -1.0):
                await complete_head(bad)
            assert pool._cost == {"_batch": CHEAP_S}
            for _ in range(20):
                if not worker.leases:
                    break
                pool.heartbeat(worker)
                await pool._grant(worker)
                await _complete_all(pool, worker)
            assert sorted(r.spec_hash for _k, r in _drain(sink)) == sorted(
                s.content_hash for s in specs)
            assert len(pool._batches) == 0
            assert worker.leases == {} and worker.held_s == 0.0

        run_pool(body)

    def test_rising_cost_sweep_fits_each_window_to_the_costs_seen(self):
        """One scenario whose cost rises along the sweep, as a --sweep
        over a size parameter gives: no window beyond the floor holds
        more than the budget, charging each lease the largest wall
        time reported before it was granted."""
        async def body(pool, register, sink):
            workers = [await register("first"), await register("second")]
            specs = _specs(160)
            cost = {s.content_hash: CHEAP_S * 1.04 ** n
                    for n, s in enumerate(specs)}
            order = {s.content_hash: n for n, s in enumerate(specs)}
            await pool.submit_batch(specs, sink)
            seen, charged, widest = 0.0, {}, 0

            def check_windows():
                nonlocal widest
                for worker in workers:
                    for lease_id in worker.leases:
                        charged.setdefault(lease_id, seen)
                    if len(worker.leases) > worker.capacity:
                        widest = max(widest, len(worker.leases))
                        assert sum(charged[lease_id]
                                   for lease_id in worker.leases
                                   ) <= pool.WINDOW_BUDGET_S * (1 + 1e-9)

            check_windows()
            while any(worker.leases for worker in workers):
                # both workers progress at the same pace: the next
                # result is always the lowest spec still running
                worker, lease_id, item = min(
                    ((w, *next(iter(w.leases.items())))
                     for w in workers if w.leases),
                    key=lambda t: order[t[2].spec.content_hash])
                elapsed_s = cost[item.spec.content_hash]
                seen = max(seen, elapsed_s)
                await pool.complete(worker, lease_id,
                                    _result(item.spec, elapsed_s).to_dict())
                check_windows()
            assert widest > 2            # windows did open on the way
            assert len(pool._batches) == 0

        run_pool(body)


# -- generated pool operations ----------------------------------------------

_NAMES = {"_p_cheap": CHEAP_S, "_p_mid": 0.002, "_p_heavy": 1.0}

_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("submit"), st.integers(1, 8),
                  st.sampled_from(sorted(_NAMES))),
        st.tuples(st.just("register"), st.integers(1, 3)),
        st.tuples(st.just("complete"), st.integers(0, 7),
                  st.integers(0, 40)),
        st.tuples(st.just("release"), st.integers(0, 7),
                  st.integers(0, 40)),
        st.tuples(st.just("garbage"), st.integers(0, 7),
                  st.sampled_from([None, "x", float("nan"), -1.0])),
        st.tuples(st.just("lost"), st.integers(0, 7)),
        st.tuples(st.just("pump"), st.integers(0, 7)),
    ),
    max_size=40,
)


def _check_exactly_once(pool, items):
    """Every undelivered item sits in exactly one place: one worker's
    leases or the queue."""
    places = {}
    for worker in pool.workers.values():
        assert len(worker.leases) <= max(worker.capacity, pool.WINDOW_CAP)
        for item in worker.leases.values():
            places[id(item)] = places.get(id(item), 0) + 1
    queued = list(pool.queue._backlog)
    for deque_ in pool.queue._deques.values():
        queued.extend(deque_)
    for item in queued:
        if not item.delivered:
            places[id(item)] = places.get(id(item), 0) + 1
    for item in items:
        assert places.get(id(item), 0) == (0 if item.delivered else 1)


class TestWindowProperties:
    @settings(max_examples=150, deadline=None)
    @given(ops=_OPS, retries=st.sampled_from([0, 1, 5]))
    def test_each_spec_is_delivered_once_and_each_batch_closes(
            self, ops, retries):
        async def body(pool, register, sink):
            items, counter = [], 0
            for op in ops:
                live = list(pool.workers.values())
                kind = op[0]
                if kind == "submit":
                    specs = _specs(op[1], name=op[2], start=counter)
                    counter += op[1]
                    await pool.submit_batch(specs, sink)
                    items.extend(pool._batches._open[
                        f"batch-{pool._batch_counter}"][0])
                elif kind == "register":
                    await register(f"w{counter}", capacity=op[1])
                    counter += 1
                elif live:
                    worker = live[op[1] % len(live)]
                    leases = list(worker.leases)
                    if kind == "complete" and leases:
                        lease_id = leases[op[2] % len(leases)]
                        spec = worker.leases[lease_id].spec
                        await pool.complete(
                            worker, lease_id,
                            _result(spec, _NAMES[spec.name]).to_dict())
                    elif kind == "garbage" and leases:
                        lease_id = leases[0]
                        data = _result(
                            worker.leases[lease_id].spec).to_dict()
                        data["elapsed_s"] = op[2]
                        try:
                            await pool.complete(worker, lease_id, data)
                        except (TypeError, ValueError):
                            pass      # requeued as a bad result
                    elif kind == "release":
                        pool.release(worker, leases[op[2] % 41:])
                    elif kind == "lost":
                        pool.worker_lost(worker.id)
                    elif kind == "pump":
                        pool.heartbeat(worker)
                        await pool._grant(worker)
                await asyncio.sleep(0)    # scheduled re-dispatches
                _check_exactly_once(pool, items)
            # the live workers and a fresh one finish whatever is left
            await register("finisher", capacity=2)
            for _ in range(10 * len(items) + 10):
                busy = [w for w in pool.workers.values() if w.leases]
                if not busy:
                    break
                for worker in busy:
                    lease_id, item = next(iter(worker.leases.items()))
                    await pool.complete(worker, lease_id,
                                        _result(item.spec).to_dict())
            assert all(item.delivered for item in items)
            delivered = [r.spec_hash for kind, r in _drain(sink)]
            assert sorted(delivered) == sorted(
                item.spec.content_hash for item in items)
            assert len(pool._batches) == 0
            assert (pool.total_completed + pool.total_quarantined
                    == len(items))

        run_pool(body, max_spec_retries=retries)
