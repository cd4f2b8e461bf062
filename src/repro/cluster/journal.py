"""Append-only JSONL job journal: crash-durable coordinator state.

Every state transition the coordinator must survive is one JSON line:

``{"e": "submit", "job": .., "specs": [..]}``
    a job was accepted, with its full (already sweep-expanded,
    already shard-selected) spec list;
``{"e": "lease", "job": .., "spec": <hash>, "worker": ..}``
    a spec was leased to a worker (informational — requeue state is
    derived from submit minus complete, but the lease trail is what
    the crash-resume tests use to prove completed specs never run
    again);
``{"e": "assign", "job": .., "spec": <hash>, "pool": ..}``
    the federation front granted a spec to a peer coordinator pool —
    the cross-hop analogue of ``lease``, folded into the same lease
    trail (with ``pool:<name>`` in the worker slot) so
    ``scripts/check_no_reexecution.py`` audits a front journal
    unchanged;
``{"e": "complete", "job": .., "result": {..}}``
    a :class:`ScenarioResult` landed;
``{"e": "job-done", "job": .., "state": "done"|"cancelled"|"error"}``
    the job finished;
``{"e": "resume"}``
    a coordinator restarted against this journal.

:meth:`JobJournal.replay` folds the log back into per-job state: which
specs each unfinished job still owes (its *pending* set) and the
results already banked, in completion order.  A torn final line — the
signature of a crash mid-write — is tolerated and dropped.  Writes are
flushed per record so an abrupt coordinator death loses at most the
record being written.

Compaction keeps replay O(live jobs) instead of O(history): every
``compact_every`` appended records (or on an explicit
:meth:`JobJournal.compact` call) the folded state is written as one
atomic JSON **snapshot** beside the journal and the journal itself is
swapped for a fresh tail holding only a ``{"e": "compacted",
"gen": G}`` marker.  Replay loads the snapshot and folds just the
tail.  The writer is the file's only author, so it keeps that fold in
memory as it appends — seeded by one replay when it opens an existing
file — and a compaction writes the snapshot from it without reading
either file back.  Each spec list and result is JSON-encoded once, for
its journal record, and that text is spliced into every snapshot that
retains it.  The write order — snapshot to a temp file, fsync, atomic
rename, *then* the journal swap — means a crash can never leave a
torn snapshot installed; and if the snapshot is nonetheless
missing/corrupt (or its generation does not match the tail marker),
replay falls back to folding whatever the journal holds rather than
failing.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, TextIO

from repro.engine.results import ScenarioResult
from repro.engine.spec import ScenarioSpec


def _dumps(value: Any) -> str:
    """The journal's one JSON encoding: compact, never failing."""
    return json.dumps(value, separators=(",", ":"), default=str)


def _highest_job_number(floor: int, job_ids: Iterable[str]) -> int:
    """Highest ``job-N`` counter among *job_ids*, never below *floor*."""
    highest = floor
    for job_id in job_ids:
        _prefix, _dash, tail = job_id.rpartition("-")
        if tail.isdigit():
            highest = max(highest, int(tail))
    return highest


@dataclass
class JournaledJob:
    """One job's folded journal state.

    Bookkeeping is by content-hash *multiplicity*, not bare hash
    membership: a sweep may legitimately contain duplicate specs (e.g.
    ``--sweep seed=1,1,2``), and a resume must owe exactly as many
    executions per hash as were submitted minus completed — while a
    replayed duplicate ``complete`` record for a single-copy spec
    stays idempotent.  Counters keep the whole fold linear in journal
    length.
    """

    id: str
    specs: List[ScenarioSpec] = field(default_factory=list)
    #: results in journaled completion order (stream replay order).
    results: List[ScenarioResult] = field(default_factory=list)
    state: str = "running"
    _spec_counts: Counter = field(default_factory=Counter, repr=False)
    _result_counts: Counter = field(default_factory=Counter, repr=False)

    def __post_init__(self) -> None:
        self._spec_counts = Counter(s.content_hash for s in self.specs)
        self._result_counts = Counter(r.spec_hash for r in self.results)

    @property
    def finished(self) -> bool:
        return self.state != "running"

    def completed_hashes(self) -> set:
        return set(self._result_counts)

    def add_result(self, result: ScenarioResult) -> bool:
        """Bank a completion (capped at the hash's submit multiplicity)."""
        if (self._result_counts[result.spec_hash]
                >= self._spec_counts[result.spec_hash]):
            return False
        self._result_counts[result.spec_hash] += 1
        self.results.append(result)
        return True

    def pending_specs(self) -> List[ScenarioSpec]:
        """Specs still owed, in submit order, respecting multiplicity."""
        banked = Counter(self._result_counts)
        pending: List[ScenarioSpec] = []
        for spec in self.specs:
            if banked[spec.content_hash] > 0:
                banked[spec.content_hash] -= 1
            else:
                pending.append(spec)
        return pending

    @classmethod
    def from_snapshot(cls, data: Mapping[str, Any]) -> "JournaledJob":
        job = cls(
            id=str(data["id"]),
            specs=[ScenarioSpec.from_dict(s) for s in data["specs"]],
            state=str(data.get("state", "running")),
        )
        for result in data.get("results", ()):
            job.add_result(ScenarioResult.from_dict(result))
        return job


@dataclass
class JournalState:
    """Everything :meth:`JobJournal.replay` recovers from a log."""

    jobs: Dict[str, JournaledJob] = field(default_factory=dict)
    #: lease/assign events as (job, spec_hash, worker-or-pool) in log
    #: order (tail only after a compaction — the snapshot keeps no
    #: lease trail); federation pool grants carry ``pool:<name>``.
    leases: List[tuple] = field(default_factory=list)
    resumes: int = 0
    dropped_lines: int = 0
    #: compaction generation this state descends from (0 = never).
    generation: int = 0
    #: True when a snapshot seeded the fold (tail-only journal read).
    from_snapshot: bool = False
    #: True when a tail marker referenced a snapshot that was missing
    #: or unreadable — replay fell back to the tail journal alone.
    torn_snapshot: bool = False
    #: journal records actually folded (the O(live) replay-cost proof:
    #: after a compaction this counts tail lines, not history).
    replayed_records: int = 0
    #: job-counter floor carried by the snapshot, so compacting away
    #: old finished jobs can never recycle their ids.
    job_number_floor: int = 0
    #: at the *last* ``resume`` marker: how many leases had been
    #: folded, and which spec hashes were already completed — the
    #: zero-re-execution audit (scripts/check_no_reexecution.py).
    leases_at_last_resume: int = 0
    completed_at_last_resume: set = field(default_factory=set)

    def unfinished(self) -> List[JournaledJob]:
        return [j for j in self.jobs.values() if not j.finished]

    def max_job_number(self) -> int:
        """Highest ``job-N`` counter seen (0 when empty/unnumbered)."""
        return _highest_job_number(self.job_number_floor, self.jobs)

    def leases_after_last_resume(self) -> List[tuple]:
        return self.leases[self.leases_at_last_resume:]


class _FoldedJob:
    """The writer's fold of one job, kept as the JSON text it wrote.

    Mirrors :class:`JournaledJob` — the same multiplicity cap, the same
    completion order — but holds the spec list and each result as the
    text already encoded for their journal records, so a compaction
    splices text instead of decoding and re-encoding it.  A finished
    job's snapshot entry is built once and cached; any later record
    for the job (a late ``complete``, a second ``job-done``) drops the
    cache so the fold stays exactly what replay would produce.
    """

    __slots__ = ("id", "specs_text", "state", "_spec_counts",
                 "_result_counts", "_results", "_entry")

    def __init__(self, job_id: str, specs_text: str,
                 spec_hashes: Iterable[str]):
        self.id = job_id
        self.specs_text = specs_text
        self.state = "running"
        self._spec_counts = Counter(spec_hashes)
        self._result_counts: Counter = Counter()
        self._results: List[str] = []
        self._entry: Optional[str] = None

    @classmethod
    def from_replayed(cls, job: JournaledJob) -> "_FoldedJob":
        folded = cls(job.id, _dumps([s.to_dict() for s in job.specs]),
                     (s.content_hash for s in job.specs))
        for result in job.results:
            folded.add_result(result.spec_hash, _dumps(result.to_dict()))
        folded.state = job.state
        return folded

    @property
    def finished(self) -> bool:
        return self.state != "running"

    def add_result(self, spec_hash: str, text: str) -> None:
        """Bank a completion (capped at the hash's submit multiplicity)."""
        if self._result_counts[spec_hash] >= self._spec_counts[spec_hash]:
            return
        self._result_counts[spec_hash] += 1
        self._results.append(text)
        self._entry = None

    def set_state(self, state: str) -> None:
        self.state = state
        self._entry = None

    def snapshot_entry(self) -> str:
        """This job's element of the snapshot's ``jobs`` list."""
        if self._entry is not None:
            return self._entry
        entry = '{"id":%s,"state":%s,"specs":%s,"results":[%s]}' % (
            _dumps(self.id), _dumps(self.state), self.specs_text,
            ",".join(self._results),
        )
        if self.finished:
            self._entry = entry
        return entry


class JobJournal:
    """The writer half: one coordinator appending to one JSONL file.

    ``compact_every=N`` auto-compacts after every N appended records;
    ``None``/0 leaves compaction to explicit :meth:`compact` calls.
    ``keep_finished`` bounds how many finished jobs a snapshot retains
    (mirroring the server's ``MAX_FINISHED_JOBS`` history cap), which
    is what keeps snapshot size — and hence resume replay work —
    proportional to *live* jobs.

    Opening a journal replays an existing file once: the result is
    :attr:`recovered` (what ``--resume`` restores) and the seed of the
    in-memory fold every later record updates and every compaction
    writes out.
    """

    SNAPSHOT_FORMAT = 1

    def __init__(
        self,
        path: str | Path,
        *,
        compact_every: Optional[int] = None,
        keep_finished: int = 64,
    ):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.compact_every = compact_every or None
        self.keep_finished = keep_finished
        self._fh: Optional[TextIO] = None
        self._appended = 0
        #: a federation front appends from forwarder threads while the
        #: event loop journals completions; reentrant because a record
        #: may auto-compact (which re-enters the lock).
        self._lock = threading.RLock()
        #: set by :meth:`compact`; surfaced in coordinator status.
        self.last_compaction: Optional[Dict[str, Any]] = None
        #: the state replayed from the file when the journal opened.
        self.recovered = self.replay(self.path)
        # the fold: what replay of the files would give right now,
        # minus the lease trail (a snapshot keeps none)
        self._jobs: Dict[str, _FoldedJob] = {
            job.id: _FoldedJob.from_replayed(job)
            for job in self.recovered.jobs.values()
        }
        self._resumes = self.recovered.resumes
        self._generation = self.recovered.generation
        self._job_number_floor = self.recovered.job_number_floor

    @property
    def snapshot_path(self) -> Path:
        return self.path.with_name(self.path.name + ".snapshot")

    def _append(self, line: str) -> None:
        """Write one record line; the caller holds the lock."""
        if self._fh is None:
            self._fh = self.path.open("a")
            if _ends_torn(self.path):
                # seal a crash-torn final line so this record starts a
                # line of its own, as the fold assumes
                self._fh.write("\n")
        self._fh.write(line + "\n")
        self._fh.flush()
        self._appended += 1

    def _maybe_compact(self) -> None:
        """Auto-compact once the fold holds the record just appended."""
        if self.compact_every and self._appended >= self.compact_every:
            self._compact_locked()

    def _write(self, event: Mapping[str, Any]) -> None:
        """Append a record that changes no folded state."""
        with self._lock:
            self._append(_dumps(dict(event)))
            self._maybe_compact()

    # -- events -------------------------------------------------------------

    def record_submit(self, job_id: str, specs: List[ScenarioSpec]) -> None:
        specs_text = _dumps([s.to_dict() for s in specs])
        line = '{"e":"submit","job":%s,"specs":%s,"t":%s}' % (
            _dumps(job_id), specs_text, _dumps(time.time()),
        )
        job = _FoldedJob(job_id, specs_text,
                         [s.content_hash for s in specs])
        with self._lock:
            self._append(line)
            self._jobs[job_id] = job
            self._maybe_compact()

    def record_lease(self, job_id: str, spec_hash: str,
                     worker: str) -> None:
        self._write({"e": "lease", "job": job_id, "spec": spec_hash,
                     "worker": worker})

    def record_assign(self, job_id: str, spec_hash: str,
                      pool: str) -> None:
        """A federation front granted a spec to a peer pool."""
        self._write({"e": "assign", "job": job_id, "spec": spec_hash,
                     "pool": pool})

    def record_complete(self, job_id: str, result: ScenarioResult) -> None:
        text = _dumps(result.to_dict())
        line = '{"e":"complete","job":%s,"result":%s}' % (
            _dumps(job_id), text,
        )
        with self._lock:
            self._append(line)
            job = self._jobs.get(job_id)
            if job is not None:
                job.add_result(result.spec_hash, text)
            self._maybe_compact()

    def record_job_done(self, job_id: str, state: str) -> None:
        with self._lock:
            self._append(_dumps({"e": "job-done", "job": job_id,
                                 "state": state}))
            job = self._jobs.get(job_id)
            if job is not None:
                job.set_state(state)
            self._maybe_compact()

    def record_resume(self) -> None:
        with self._lock:
            self._append(_dumps({"e": "resume", "t": time.time()}))
            self._resumes += 1
            self._maybe_compact()

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    # -- compaction ---------------------------------------------------------

    def compact(self) -> Dict[str, Any]:
        """Write the fold as an atomic snapshot + a fresh tail.

        Ordering is the crash-safety argument: (1) the snapshot is
        written to a temp file, fsynced, and atomically renamed into
        place — a crash before the rename leaves the old snapshot (or
        none) and the untouched full journal; (2) only then is the
        journal swapped (same temp-write + rename) for a tail holding
        just the ``compacted`` generation marker.  A crash between
        (1) and (2) leaves a new snapshot whose generation the old
        journal's marker does *not* carry, so replay ignores it and
        folds the full journal — never wrong, merely uncompacted.
        The fold forgets dropped jobs only once both files are in
        place, so a failed compaction changes nothing.
        """
        with self._lock:
            return self._compact_locked()

    def _compact_locked(self) -> Dict[str, Any]:
        self.close()
        generation = self._generation + 1
        finished = [j.id for j in self._jobs.values() if j.finished]
        drop = set(finished[:max(0, len(finished) - self.keep_finished)])
        kept = [j for j in self._jobs.values() if j.id not in drop]
        floor = _highest_job_number(self._job_number_floor, self._jobs)
        t = time.time()
        self._replace(
            self.snapshot_path,
            '{"format":%d,"generation":%d,"t":%s,"resumes":%d,'
            '"job_number_floor":%d,"jobs":[%s]}' % (
                self.SNAPSHOT_FORMAT, generation, _dumps(t),
                self._resumes, floor,
                ",".join(j.snapshot_entry() for j in kept),
            ),
        )
        self._replace(
            self.path,
            _dumps({"e": "compacted", "gen": generation, "t": t}) + "\n",
        )
        for job_id in drop:
            del self._jobs[job_id]
        self._generation = generation
        self._job_number_floor = floor
        self._appended = 0
        self.last_compaction = {
            "t": t,
            "generation": generation,
            "live_jobs": sum(1 for j in kept if not j.finished),
            "snapshot_jobs": len(kept),
            "dropped_finished_jobs": len(drop),
        }
        return self.last_compaction

    @staticmethod
    def _replace(path: Path, text: str) -> None:
        """Write *text* to *path* via temp file + fsync + atomic rename."""
        tmp = path.with_name(path.name + ".tmp")
        with tmp.open("w") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)

    # -- replay -------------------------------------------------------------

    @classmethod
    def replay(cls, path: str | Path) -> JournalState:
        """Fold a journal (snapshot + tail, or full log) back into state.

        Unparseable lines are counted and skipped: the only expected
        one is a torn final line from a crash mid-write, but a corrupt
        middle line must not take the whole recovery down either.
        Events for jobs with no ``submit`` record (lost to the same
        torn write) are likewise dropped.

        The snapshot beside the journal is used only when its
        generation matches the journal's leading ``compacted`` marker;
        on any mismatch — torn snapshot, missing snapshot, crash
        between snapshot rename and journal swap — replay falls back
        to folding the journal alone.
        """
        path = Path(path)
        state = JournalState()
        if not path.exists():
            return state
        marker_gen = cls._peek_marker_generation(path)
        if marker_gen is not None:
            snapshot = cls._load_snapshot(
                path.with_name(path.name + ".snapshot")
            )
            if snapshot is not None and snapshot.generation == marker_gen:
                state = snapshot
                state.from_snapshot = True
            else:
                # the tail says "I am generation N's tail" but no
                # matching snapshot exists: tolerate, fold the tail
                state.torn_snapshot = True
        with path.open() as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                state.replayed_records += 1
                try:
                    event = json.loads(line)
                    kind = event["e"]
                except (ValueError, KeyError, TypeError):
                    state.dropped_lines += 1
                    continue
                try:
                    cls._fold(state, kind, event)
                except (KeyError, TypeError, ValueError):
                    state.dropped_lines += 1
        return state

    @staticmethod
    def _peek_marker_generation(path: Path) -> Optional[int]:
        """Generation of a leading ``compacted`` marker, else None."""
        try:
            with path.open() as fh:
                for line in fh:
                    line = line.strip()
                    if not line:
                        continue
                    event = json.loads(line)
                    if event.get("e") == "compacted":
                        return int(event["gen"])
                    return None
        except (OSError, ValueError, KeyError, TypeError):
            return None
        return None

    @classmethod
    def _load_snapshot(cls, path: Path) -> Optional[JournalState]:
        """A state seeded from a snapshot file; None if torn/absent."""
        try:
            data = json.loads(path.read_text())
            if data.get("format") != cls.SNAPSHOT_FORMAT:
                return None
            state = JournalState(
                generation=int(data["generation"]),
                resumes=int(data.get("resumes", 0)),
                job_number_floor=int(data.get("job_number_floor", 0)),
            )
            for job_data in data.get("jobs", ()):
                job = JournaledJob.from_snapshot(job_data)
                state.jobs[job.id] = job
            return state
        except (OSError, ValueError, KeyError, TypeError):
            return None

    @staticmethod
    def _fold(state: JournalState, kind: str,
              event: Mapping[str, Any]) -> None:
        if kind == "submit":
            job_id = event["job"]
            state.jobs[job_id] = JournaledJob(
                id=job_id,
                specs=[ScenarioSpec.from_dict(s) for s in event["specs"]],
            )
        elif kind == "lease":
            state.leases.append(
                (event["job"], event["spec"], event.get("worker", ""))
            )
        elif kind == "assign":
            # a federation pool grant joins the lease trail so the
            # no-re-execution audit sees cross-hop grants too
            state.leases.append(
                (event["job"], event["spec"],
                 f"pool:{event.get('pool', '')}")
            )
        elif kind == "complete":
            job = state.jobs.get(event["job"])
            if job is not None:
                job.add_result(ScenarioResult.from_dict(event["result"]))
        elif kind == "job-done":
            job = state.jobs.get(event["job"])
            if job is not None:
                job.state = event.get("state", "done")
        elif kind == "resume":
            state.resumes += 1
            state.leases_at_last_resume = len(state.leases)
            state.completed_at_last_resume = set()
            for job in state.jobs.values():
                state.completed_at_last_resume |= job.completed_hashes()
        elif kind == "compacted":
            state.generation = max(state.generation, int(event["gen"]))
        # unknown event kinds are ignored: forward compatibility


def _ends_torn(path: Path) -> bool:
    """True when *path* is non-empty and its last byte is not a newline."""
    try:
        with path.open("rb") as fh:
            fh.seek(-1, os.SEEK_END)
            return fh.read(1) != b"\n"
    except OSError:  # missing or empty
        return False
