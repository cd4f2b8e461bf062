"""Journal compaction: snapshots, torn-snapshot tolerance, O(live) resume.

The acceptance bar: after a compaction, ``--resume`` replay folds a
number of records proportional to *live* jobs — asserted literally via
``JournalState.replayed_records`` — and a torn or missing snapshot
degrades to folding the tail journal instead of failing.
"""

import json
import sys
import tempfile
import threading
import time
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.cluster.coordinator import ClusterCoordinator
from repro.cluster.journal import JobJournal
from repro.cluster.worker import BackgroundWorker
from repro.engine.executor import run_spec
from repro.engine.registry import scenario, unregister
from repro.engine.results import ScenarioResult
from repro.engine.spec import ScenarioSpec
from repro.service.client import ServiceClient
from repro.service.server import BackgroundServer


@pytest.fixture(scope="module", autouse=True)
def compaction_scenarios():
    @scenario("_cp_sq", params={"k": 1})
    def _sq(k=1):
        return {"rows": [{"k": k, "sq": k * k}], "verdict": {"ok": True}}

    yield
    unregister("_cp_sq")


def specs_for(ks):
    return [ScenarioSpec("_cp_sq", {"k": k}) for k in ks]


class TestCompaction:
    def test_compact_preserves_pending_and_banked_results(self, tmp_path):
        journal = JobJournal(tmp_path / "j.jsonl")
        specs = specs_for(range(6))
        journal.record_submit("job-1", specs)
        for spec in specs[:4]:
            journal.record_lease("job-1", spec.content_hash, "w1")
            journal.record_complete("job-1", run_spec(spec))
        info = journal.compact()
        journal.close()
        assert info["generation"] == 1
        assert info["live_jobs"] == 1

        state = JobJournal.replay(tmp_path / "j.jsonl")
        assert state.from_snapshot and not state.torn_snapshot
        job = state.jobs["job-1"]
        assert len(job.results) == 4
        assert [s.content_hash for s in job.pending_specs()] == [
            s.content_hash for s in specs[4:]
        ]

    def test_replay_work_is_proportional_to_live_jobs(self, tmp_path):
        """The tentpole number: a long history folds to O(live) records."""
        path = tmp_path / "j.jsonl"
        journal = JobJournal(path)
        # 30 finished jobs of history plus one live job
        for n in range(1, 31):
            spec = ScenarioSpec("_cp_sq", {"k": n})
            journal.record_submit(f"job-{n}", [spec])
            journal.record_lease(f"job-{n}", spec.content_hash, "w1")
            journal.record_complete(f"job-{n}", run_spec(spec))
            journal.record_job_done(f"job-{n}", "done")
        live = specs_for([100, 101, 102])
        journal.record_submit("job-31", live)

        uncompacted = JobJournal.replay(path)
        assert uncompacted.replayed_records == 30 * 4 + 1

        journal.compact()
        journal.close()
        compacted = JobJournal.replay(path)
        # the tail holds exactly one record: the generation marker
        assert compacted.replayed_records == 1
        assert compacted.from_snapshot
        assert len(compacted.jobs["job-31"].pending_specs()) == 3

    def test_appends_after_compaction_fold_on_top_of_the_snapshot(
        self, tmp_path
    ):
        path = tmp_path / "j.jsonl"
        journal = JobJournal(path)
        specs = specs_for(range(4))
        journal.record_submit("job-1", specs)
        journal.record_complete("job-1", run_spec(specs[0]))
        journal.compact()
        # post-compaction life continues in the tail
        journal.record_complete("job-1", run_spec(specs[1]))
        journal.record_resume()
        journal.close()

        state = JobJournal.replay(path)
        assert state.from_snapshot
        assert state.replayed_records == 3  # marker + complete + resume
        assert state.resumes == 1
        assert len(state.jobs["job-1"].results) == 2
        assert len(state.jobs["job-1"].pending_specs()) == 2

    def test_auto_compaction_triggers_on_the_record_threshold(
        self, tmp_path
    ):
        path = tmp_path / "j.jsonl"
        journal = JobJournal(path, compact_every=5)
        specs = specs_for(range(8))
        journal.record_submit("job-1", specs)          # 1 record
        for spec in specs[:6]:                         # 6 more
            journal.record_complete("job-1", run_spec(spec))
        journal.close()
        assert journal.last_compaction is not None
        assert journal.snapshot_path.exists()
        state = JobJournal.replay(path)
        assert state.generation >= 1
        assert len(state.jobs["job-1"].results) == 6

    def test_torn_snapshot_falls_back_to_the_tail(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = JobJournal(path)
        specs = specs_for(range(3))
        journal.record_submit("job-1", specs)
        journal.compact()
        journal.record_resume()
        journal.close()
        # corrupt the snapshot: replay must degrade, not die
        journal.snapshot_path.write_text('{"format": 1, "gener')
        state = JobJournal.replay(path)
        assert state.torn_snapshot and not state.from_snapshot
        assert state.resumes == 1          # the tail still folded
        assert state.jobs == {}            # history is gone, flagged

    def test_missing_snapshot_with_a_marker_is_tolerated(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = JobJournal(path)
        journal.record_submit("job-1", specs_for([1]))
        journal.compact()
        journal.close()
        journal.snapshot_path.unlink()
        state = JobJournal.replay(path)
        assert state.torn_snapshot

    def test_stale_snapshot_generation_is_ignored(self, tmp_path):
        # crash window: snapshot renamed for generation 2 but the
        # journal swap never happened (marker still says 1) — the
        # journal is authoritative, the snapshot is not trusted
        path = tmp_path / "j.jsonl"
        journal = JobJournal(path)
        journal.record_submit("job-1", specs_for([1, 2]))
        journal.compact()
        journal.record_complete(
            "job-1", run_spec(ScenarioSpec("_cp_sq", {"k": 1}))
        )
        journal.close()
        snapshot = json.loads(journal.snapshot_path.read_text())
        snapshot["generation"] = 2
        snapshot["jobs"] = []              # a wrong, newer snapshot
        journal.snapshot_path.write_text(json.dumps(snapshot))
        state = JobJournal.replay(path)
        assert state.torn_snapshot         # mismatch → tail fallback
        assert not state.from_snapshot

    def test_keep_finished_caps_the_snapshot_and_floors_job_numbers(
        self, tmp_path
    ):
        path = tmp_path / "j.jsonl"
        journal = JobJournal(path, keep_finished=2)
        for n in range(1, 6):
            spec = ScenarioSpec("_cp_sq", {"k": n})
            journal.record_submit(f"job-{n}", [spec])
            journal.record_complete(f"job-{n}", run_spec(spec))
            journal.record_job_done(f"job-{n}", "done")
        info = journal.compact()
        journal.close()
        assert info["dropped_finished_jobs"] == 3
        state = JobJournal.replay(path)
        assert set(state.jobs) == {"job-4", "job-5"}
        # dropping job-1..3 must never let their ids be recycled
        assert state.max_job_number() == 5
        assert state.job_number_floor == 5

    def test_second_compaction_bumps_the_generation(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = JobJournal(path)
        journal.record_submit("job-1", specs_for([1, 2]))
        assert journal.compact()["generation"] == 1
        journal.record_complete(
            "job-1", run_spec(ScenarioSpec("_cp_sq", {"k": 1}))
        )
        assert journal.compact()["generation"] == 2
        journal.close()
        state = JobJournal.replay(path)
        assert state.generation == 2
        assert len(state.jobs["job-1"].results) == 1


class TestResumeFromCompactedJournal:
    def test_resume_finishes_the_job_without_reexecution(self, tmp_path):
        """End-to-end acceptance: crash → compact → --resume → parity,
        with replay cost asserted at O(live) and zero re-executions."""
        path = tmp_path / "j.jsonl"
        specs = specs_for(range(6))
        journal = JobJournal(path)
        journal.record_submit("job-1", specs)
        done = []
        for spec in specs[:4]:
            journal.record_lease("job-1", spec.content_hash, "w-old")
            result = run_spec(spec)
            journal.record_complete("job-1", result)
            done.append(result)
        journal.compact()
        journal.close()

        resumed = ClusterCoordinator(
            port=0, journal_path=str(path), resume=True,
            lease_timeout_s=3.0,
        )
        with BackgroundServer(server=resumed) as bg:
            worker = BackgroundWorker(bg.host, bg.port,
                                      name="fresh").start()
            try:
                with ServiceClient(bg.host, bg.port, timeout=60) as client:
                    merged = list(client.stream_job("job-1"))
                    assert client.last_done["total"] == 6
                    assert client.last_done["failed"] == 0
                # zero re-executions of compacted-away completions
                assert worker.worker.executed == 2
            finally:
                worker.stop()

        final = JobJournal.replay(path)
        assert final.from_snapshot
        assert final.jobs["job-1"].finished
        # the audit the chaos CI smoke scripts run: nothing leased
        # after the resume marker was already complete before it
        completed_before = {r.spec_hash for r in done}
        post = final.leases_after_last_resume()
        assert post
        assert not [
            h for (_j, h, _w) in post if h in completed_before
        ]

    def test_resumed_coordinator_keeps_compacting(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = JobJournal(path)
        journal.record_submit("job-1", specs_for([1, 2]))
        journal.compact()
        journal.close()

        resumed = ClusterCoordinator(
            port=0, journal_path=str(path), resume=True,
            lease_timeout_s=3.0, compact_every=4,
        )
        with BackgroundServer(server=resumed) as bg:
            worker = BackgroundWorker(bg.host, bg.port, name="w").start()
            try:
                with ServiceClient(bg.host, bg.port, timeout=60) as client:
                    merged = list(client.stream_job("job-1"))
                    assert len(merged) == 2
                deadline = time.monotonic() + 5
                while (resumed.journal.last_compaction is None
                       and time.monotonic() < deadline):
                    time.sleep(0.02)
                # resume marker + 2 leases + 2 completes + job-done
                # crossed the threshold: the journal recompacted and
                # the status frame advertises it
                assert resumed.journal.last_compaction is not None
                assert resumed.journal.last_compaction["generation"] == 2
                status = resumed._cluster_status()
                assert status["last_compaction"]["generation"] == 2
            finally:
                worker.stop()
        state = JobJournal.replay(path)
        assert state.generation == 2
        assert state.jobs["job-1"].finished


# -- in-memory fold vs replay -------------------------------------------------


def _spec(k):
    return ScenarioSpec("_cp_fold", {"k": k})


def _result(k, n):
    """A result for spec *k*; *n* makes every result text distinct."""
    spec = _spec(k)
    return ScenarioResult(name=spec.name, spec_hash=spec.content_hash,
                          params=spec.params_dict(), rows=[{"n": n}],
                          verdict={"ok": True})


def _replay_compact(path, keep_finished):
    """The reference compaction: replay the journal, write the snapshot.

    This is how a compaction worked before the writer kept its fold in
    memory: it re-read the files and re-encoded every retained job
    with the default JSON separators.
    """
    state = JobJournal.replay(path)
    generation = state.generation + 1
    finished = [j for j in state.jobs.values() if j.finished]
    drop = {j.id for j in finished[:max(0, len(finished) - keep_finished)]}
    snapshot = {
        "format": JobJournal.SNAPSHOT_FORMAT,
        "generation": generation,
        "t": time.time(),
        "resumes": state.resumes,
        "job_number_floor": state.max_job_number(),
        "jobs": [
            {"id": j.id, "state": j.state,
             "specs": [s.to_dict() for s in j.specs],
             "results": [r.to_dict() for r in j.results]}
            for j in state.jobs.values() if j.id not in drop
        ],
    }
    path.with_name(path.name + ".snapshot").write_text(
        json.dumps(snapshot, default=str))
    path.write_text(json.dumps({"e": "compacted", "gen": generation,
                                "t": snapshot["t"]}) + "\n")


def _folded(state):
    """What a replay recovered, in comparable form."""
    return {
        "jobs": {
            job.id: (
                job.state,
                [s.content_hash for s in job.pending_specs()],
                [r.to_dict() for r in job.results],
            )
            for job in state.jobs.values()
        },
        "max_job_number": state.max_job_number(),
        "resumes": state.resumes,
        "generation": state.generation,
    }


def _snapshot_content(path):
    data = json.loads(path.with_name(path.name + ".snapshot").read_text())
    del data["t"]
    return data


_JOB_IDS = st.sampled_from(["job-1", "job-2", "job-3", "job-12", "adhoc"])
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("submit"), _JOB_IDS,
                  st.lists(st.integers(0, 3), max_size=4)),
        st.tuples(st.just("complete"), _JOB_IDS, st.integers(0, 4)),
        st.tuples(st.just("job-done"), _JOB_IDS,
                  st.sampled_from(["done", "cancelled", "error"])),
        st.tuples(st.just("resume")),
        st.tuples(st.just("lease"), _JOB_IDS, st.integers(0, 3)),
        st.tuples(st.just("assign"), _JOB_IDS, st.integers(0, 3)),
        st.tuples(st.just("compact")),
    ),
    max_size=40,
)


class TestInMemoryFold:
    @settings(max_examples=200, deadline=None)
    @given(ops=_OPS, keep_finished=st.sampled_from([0, 1, 2]),
           compact_every=st.sampled_from([None, 3]))
    # a dropped job's id submitted again joins the end of the order
    @example(ops=[("submit", "job-1", [0]), ("job-done", "job-1", "done"),
                  ("submit", "job-2", [1]), ("job-done", "job-2", "done"),
                  ("compact",),
                  ("submit", "job-1", [2]), ("job-done", "job-1", "done"),
                  ("compact",)],
             keep_finished=1, compact_every=None)
    # a late result for a finished job reaches the next snapshot
    @example(ops=[("submit", "job-1", [0, 1]),
                  ("job-done", "job-1", "done"), ("compact",),
                  ("complete", "job-1", 1), ("compact",)],
             keep_finished=1, compact_every=None)
    # so does a second job-done that changes a finished job's state
    @example(ops=[("submit", "job-1", [0]), ("job-done", "job-1", "done"),
                  ("compact",), ("job-done", "job-1", "error"),
                  ("compact",)],
             keep_finished=1, compact_every=None)
    def test_in_memory_compaction_equals_replay_compaction(
        self, ops, keep_finished, compact_every
    ):
        """Duplicate specs and completions, results past a hash's
        multiplicity and for unknown jobs, and compactions (explicit
        and automatic) at arbitrary points: the compacting journal
        replays to exactly what an uncompacted twin written with
        ``compact_every=None`` replays to once the twin gets the same
        finished-job cap, applied by replay-based compaction at the
        same points."""
        with tempfile.TemporaryDirectory() as tmp:
            path, twin_path = Path(tmp) / "j.jsonl", Path(tmp) / "t.jsonl"
            journal = JobJournal(path, compact_every=compact_every,
                                 keep_finished=keep_finished)
            twin = JobJournal(twin_path, compact_every=None)
            for n, op in enumerate(ops):
                generation = (journal.last_compaction or {}).get(
                    "generation", 0)
                if op[0] == "compact":
                    journal.compact()
                for target in (journal, twin):
                    if op[0] == "submit":
                        target.record_submit(op[1], [_spec(k) for k in op[2]])
                    elif op[0] == "complete":
                        target.record_complete(op[1], _result(op[2], n))
                    elif op[0] == "job-done":
                        target.record_job_done(op[1], op[2])
                    elif op[0] == "resume":
                        target.record_resume()
                    elif op[0] == "lease":
                        target.record_lease(op[1], _spec(op[2]).content_hash,
                                            "w1")
                    elif op[0] == "assign":
                        target.record_assign(op[1],
                                             _spec(op[2]).content_hash, "p")
                    if op[0] == "compact":
                        break
                if (journal.last_compaction or {}).get(
                        "generation", 0) > generation:
                    twin.close()
                    _replay_compact(twin_path, keep_finished)
            journal.compact()
            journal.close()
            twin.close()
            _replay_compact(twin_path, keep_finished)

            assert (_folded(JobJournal.replay(path))
                    == _folded(JobJournal.replay(twin_path)))
            # the retained content is identical, not just its fold
            assert _snapshot_content(path) == _snapshot_content(twin_path)

    def test_snapshot_written_by_replay_compaction_resumes(self, tmp_path):
        """Old-style snapshots (default separators) open and extend."""
        path = tmp_path / "j.jsonl"
        old = JobJournal(path)
        old.record_submit("job-4", [_spec(1), _spec(2)])
        old.record_complete("job-4", _result(1, 0))
        old.close()
        _replay_compact(path, keep_finished=64)

        journal = JobJournal(path, compact_every=2)
        assert journal.recovered.from_snapshot
        journal.record_complete("job-4", _result(2, 1))
        journal.record_job_done("job-4", "done")   # auto-compacts
        journal.close()
        assert journal.last_compaction["generation"] == 2
        job = JobJournal.replay(path).jobs["job-4"]
        assert job.finished and len(job.results) == 2

    def test_concurrent_writers_lose_no_record(self, tmp_path):
        """A federation front records from forwarder threads and the
        event loop at once; auto-compactions interleave with both."""
        path = tmp_path / "j.jsonl"
        journal = JobJournal(path, compact_every=7)
        threads_n, specs_n = 6, 12

        def writer(t):
            job_id = f"job-{t + 1}"
            ks = [t * 100 + k for k in range(specs_n)]
            journal.record_submit(job_id, [_spec(k) for k in ks])
            for k in ks:
                journal.record_assign(job_id, _spec(k).content_hash, "p")
                journal.record_complete(job_id, _result(k, k))
            journal.record_job_done(job_id, "done")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=writer, args=(t,))
                       for t in range(threads_n)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        journal.compact()
        journal.close()
        state = JobJournal.replay(path)
        assert len(state.jobs) == threads_n
        for job in state.jobs.values():
            assert job.finished and len(job.results) == specs_n
            assert job.pending_specs() == []

    def test_compaction_never_reads_the_files_back(self, tmp_path,
                                                   monkeypatch):
        path = tmp_path / "j.jsonl"
        previous = JobJournal(path)
        previous.record_submit("job-1", [_spec(k) for k in range(4)])
        previous.record_complete("job-1", _result(0, 0))
        previous.compact()
        previous.record_complete("job-1", _result(1, 1))
        previous.close()

        journal = JobJournal(path, compact_every=3, keep_finished=1)
        reads = []

        def forbidden(cls, *args, **kwargs):
            reads.append(args)
            raise AssertionError("the journal read its files back")

        # the journal is open: from here on nothing may read it back
        monkeypatch.setattr(JobJournal, "replay", classmethod(forbidden))
        monkeypatch.setattr(JobJournal, "_load_snapshot",
                            classmethod(forbidden))
        journal.record_resume()
        for k in (2, 3):
            journal.record_lease("job-1", _spec(k).content_hash, "w2")
            journal.record_complete("job-1", _result(k, k))
        journal.record_job_done("job-1", "done")
        for n in range(2, 6):
            job_id = f"job-{n}"
            journal.record_submit(job_id, [_spec(n)])
            journal.record_complete(job_id, _result(n, 10 + n))
            journal.record_job_done(job_id, "done")
        journal.close()
        assert reads == []
        assert journal.last_compaction["generation"] >= 5

        monkeypatch.undo()
        state = JobJournal.replay(path)
        assert state.from_snapshot and state.resumes == 1
        assert list(state.jobs) == ["job-5"]        # keep_finished=1
        assert state.max_job_number() == 5
        job = state.jobs["job-5"]
        assert job.finished and len(job.results) == 1

    def test_resume_reuses_the_replay_made_at_open(self, tmp_path,
                                                   monkeypatch):
        path = tmp_path / "j.jsonl"
        previous = JobJournal(path)
        previous.record_submit("job-1", specs_for([1, 2]))
        previous.record_complete(
            "job-1", run_spec(ScenarioSpec("_cp_sq", {"k": 1})))
        previous.close()

        replays = []
        real_replay = JobJournal.replay.__func__

        def counting(cls, journal_path):
            replays.append(journal_path)
            return real_replay(cls, journal_path)

        monkeypatch.setattr(JobJournal, "replay", classmethod(counting))
        resumed = ClusterCoordinator(
            port=0, journal_path=str(path), resume=True,
            lease_timeout_s=3.0, compact_every=2,
        )
        with BackgroundServer(server=resumed) as bg:
            worker = BackgroundWorker(bg.host, bg.port, name="w").start()
            try:
                with ServiceClient(bg.host, bg.port, timeout=60) as client:
                    assert len(list(client.stream_job("job-1"))) == 2
                assert worker.worker.executed == 1
            finally:
                worker.stop()
        # one replay when the journal opened; the resume and every
        # auto-compaction since reused the in-memory fold
        assert len(replays) == 1
        assert resumed.journal.last_compaction["generation"] >= 2


# -- crash safety: truncate at every byte offset ------------------------------


def _owed_exactly_once(state):
    """Every submitted spec is either pending or banked, never both."""
    for job in state.jobs.values():
        pending = Counter(s.content_hash for s in job.pending_specs())
        banked = Counter(r.spec_hash for r in job.results)
        assert pending + banked == Counter(s.content_hash
                                           for s in job.specs), job.id


def _write_history(journal, first_job):
    specs = [_spec(0), _spec(0), _spec(1)]           # a duplicate spec
    journal.record_submit(first_job, specs)
    journal.record_lease(first_job, specs[0].content_hash, "w1")
    journal.record_complete(first_job, _result(0, 1))
    journal.record_complete(first_job, _result(0, 2))
    journal.record_complete(first_job, _result(0, 3))   # over-multiplicity
    journal.record_resume()
    journal.record_complete(first_job, _result(1, 4))
    journal.record_job_done(first_job, "done")


class TestTruncationAtEveryOffset:
    """A crash can cut the journal anywhere: replay must never raise,
    must lose at most the record the cut tore, and must still owe or
    bank every spec it knows of."""

    def _check_every_cut(self, tmp_path, data, snapshot, usable_from):
        cut = tmp_path / "cut.jsonl"
        if snapshot is not None:
            cut.with_name(cut.name + ".snapshot").write_text(snapshot)
        whole_lines = tmp_path / "whole.jsonl"
        if snapshot is not None:
            whole_lines.with_name(
                whole_lines.name + ".snapshot").write_text(snapshot)
        for offset in range(len(data) + 1):
            prefix = data[:offset]
            cut.write_bytes(prefix)
            state = JobJournal.replay(cut)           # never raises
            _owed_exactly_once(state)
            if offset < usable_from:
                continue
            # the reference: the same prefix with the torn record gone
            intact = prefix if prefix.endswith(b"\n") else (
                prefix[:prefix.rfind(b"\n") + 1])
            whole_lines.write_bytes(intact)
            reference = JobJournal.replay(whole_lines)
            if _folded(state) != _folded(reference):
                # a cut exactly at a record's end leaves it whole
                whole_lines.write_bytes(prefix + b"\n")
                reference = JobJournal.replay(whole_lines)
            assert _folded(state) == _folded(reference), offset
            assert state.dropped_lines <= 1, offset
            assert state.from_snapshot == (snapshot is not None), offset

    def test_uncompacted_journal(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = JobJournal(path)
        _write_history(journal, "job-1")
        journal.close()
        self._check_every_cut(tmp_path, path.read_bytes(), None, 0)

    def test_tail_beside_its_snapshot(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = JobJournal(path)
        _write_history(journal, "job-1")
        journal.record_submit("job-2", [_spec(2), _spec(3)])
        journal.compact()
        _write_history(journal, "job-3")
        journal.record_complete("job-2", _result(3, 5))
        journal.close()
        data = path.read_bytes()
        snapshot = journal.snapshot_path.read_text()
        # the marker line is installed whole by an atomic rename, so a
        # crash can only cut the tail after it
        marker_end = data.index(b"\n") + 1
        self._check_every_cut(tmp_path, data, snapshot, marker_end)

    def test_tail_without_its_snapshot(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = JobJournal(path)
        journal.record_submit("job-1", [_spec(1)])
        journal.compact()
        _write_history(journal, "job-2")
        journal.close()
        data = path.read_bytes()
        cut = tmp_path / "cut.jsonl"
        for offset in range(len(data) + 1):
            cut.write_bytes(data[:offset])
            state = JobJournal.replay(cut)
            assert not state.from_snapshot
            _owed_exactly_once(state)
            assert state.dropped_lines <= 1

    def test_reopening_a_torn_journal_seals_the_torn_line(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = JobJournal(path)
        journal.record_submit("job-1", [_spec(1), _spec(2)])
        journal.close()
        with path.open("a") as fh:
            fh.write('{"e":"complete","job":"job-1","resu')    # crash
        reopened = JobJournal(path)
        reopened.record_complete("job-1", _result(2, 0))
        reopened.close()
        state = JobJournal.replay(path)
        assert state.dropped_lines == 1            # only the torn line
        job = state.jobs["job-1"]
        assert [r.spec_hash for r in job.results] == [_spec(2).content_hash]
        assert [s.content_hash for s in job.pending_specs()] == [
            _spec(1).content_hash
        ]
