"""The four workloads, the traced layer probe and the tier ladder.

All load comes from one client (this process) over one connection,
in a closed loop: the next sweep is submitted when the previous one
has streamed its last result.  Every spec is derived from the run's
``--seed`` through ``ScenarioSpec.with_seed``.
"""

from __future__ import annotations

import json
import os
import sqlite3
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from layers import REPEATING
from metrics import (
    check_result, count_mismatches, history_slowdown, imbalance,
    makespan_efficiency, percentile,
)
from procs import HOST, BenchError, Deployment, proc_cpu_s, proc_hwm_mb

from repro.engine import registry
from repro.engine.executor import execute, run_spec
from repro.engine.results import ScenarioResult
from repro.engine.spec import ScenarioSpec
from repro.service import protocol
from repro.service.client import ServiceClient

#: sub-millisecond scenarios: spec work is a small share of a sweep.
CHEAP = ("E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9",
         "E12", "E13", "E16", "E17")
#: the slowest scenarios, two seeds each in the mixed sweep.
HEAVY = ("E14", "E18", "A3", "A4", "E11", "E15")
#: scenarios whose wall time is reported on its own.
TRACKED = ("E14", "E18", "A3", "A4", "E11", "E15", "A5", "E10", "A2", "DSE")
KINDS = ("client", "coordinator", "worker", "front")

#: spec seeds of one run live in [seed * STRIDE, (seed + 1) * STRIDE),
#: so no two specs of a run, or of runs with other seeds, share a hash.
STRIDE = 10_000_000
HEAVY_OFFSET = 8_000_000
LADDER_OFFSET = 7_000_000
WARM_OFFSET = 9_000_000

SWEEP_SMALL = 500        # specs per sweep-small sweep
SWEEP_OBSERVED = 200     # specs per campaign-observed sweep
#: ``--seconds`` sets the amount of work, not a deadline: the same
#: seconds always give the same inputs, so two versions of the program
#: are measured on identical work and identical journal history.  The
#: unit durations are those of the timed parts on a 2-vCPU box.
SUITE_PASS_S = 3.5
SMALL_SWEEP_S = 1.25
MIXED_SWEEP_S = 5.0
OBSERVED_SWEEP_S = 0.8
MIXED_CHEAP_PER_HEAVY = 25
LADDER_SPECS = 13 * 20
SETUPS = 3               # set-ups per run; setup_s is their median
TRACED_PASSES = 2


def spec(name: str, seed: int) -> ScenarioSpec:
    return registry.get(name).spec.with_seed(seed)


def cheap_specs(base: int, start: int, count: int) -> List[ScenarioSpec]:
    return [spec(CHEAP[i % len(CHEAP)], base + i)
            for i in range(start, start + count)]


def suite_specs(seed: int) -> List[ScenarioSpec]:
    return [s.spec.with_seed(seed) for s in registry.all_scenarios()]


@dataclass
class Run:
    """One benchmark invocation: inputs, failures and metrics."""

    root: Path
    run_dir: Path
    seed: int
    seconds: float
    trace: bool
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    e2e: Dict[str, float] = field(default_factory=dict)
    layer: Dict[str, float] = field(default_factory=dict)

    @property
    def base(self) -> int:
        return self.seed * STRIDE

    def gate(self, results: Sequence[ScenarioResult],
             reference: Dict[str, ScenarioResult]) -> None:
        for result in results:
            reason = check_result(result, reference.get(result.spec_hash))
            if reason:
                self.failures.append(reason)


# -- sweeps over the wire ----------------------------------------------------

@dataclass
class Sweep:
    """One submitted job, timed on the client's clock."""

    size: int
    submitted: float
    acked: float = 0.0
    done: float = 0.0
    arrivals: List[float] = field(default_factory=list)
    results: List[ScenarioResult] = field(default_factory=list)

    @property
    def makespan(self) -> float:
        """Submit to the ``done`` frame: the sweep as its client saw it."""
        return self.done - self.submitted

    @property
    def gaps_ms(self) -> List[float]:
        return [(b - a) * 1e3 for a, b in zip(self.arrivals,
                                              self.arrivals[1:])]


def sweep(client: ServiceClient, specs: Sequence[ScenarioSpec]) -> Sweep:
    """Submit ``specs`` as one job and wait for every streamed result."""
    record = Sweep(len(specs), time.perf_counter())
    client.send(protocol.make_submit([s.to_dict() for s in specs]))
    while True:
        frame = client.recv()
        type_ = frame.get("type")
        if type_ == "result":
            record.arrivals.append(time.perf_counter())
            record.results.append(ScenarioResult.from_dict(frame["result"]))
        elif type_ == "ack":
            record.acked = time.perf_counter()
        elif type_ == "done":
            record.done = time.perf_counter()
            return record
        elif type_ == "error":
            raise BenchError(f"submit rejected: {frame.get('code')}: "
                             f"{frame.get('message')}")


# -- deployments -------------------------------------------------------------

@dataclass
class Cluster:
    """A started deployment plus the client's load connection."""

    dep: Deployment
    client: ServiceClient
    journals: List[Path]
    caches: List[Path]
    warehouse: Optional[Path]

    def close(self) -> None:
        try:
            self.client.close()
        finally:
            self.dep.teardown()


def statuses(ports: Sequence[int]) -> List[dict]:
    frames = []
    for port in ports:
        with ServiceClient(HOST, port, timeout=10.0) as client:
            frames.append(client.status_full())
    return frames


def _workers_done(ports: Sequence[int]) -> List[int]:
    """Specs completed by each registered worker, pool by pool."""
    done = []
    for frame in statuses(ports):
        workers = (frame.get("cluster") or {}).get("workers") or {}
        done.extend(w.get("completed", 0) for w in workers.values())
    return done


def deploy(run: Run, name: str, pools: int, workers: int, *,
           front: bool = False, observed: bool = False,
           worker_cache: bool = False, pool_warehouse: bool = False,
           warm_seed: int = 0) -> Cluster:
    """Start coordinators, workers and an optional federation front,
    wait for every worker to register and warm each one with a spec."""
    from repro.service.client import ServiceError

    dep = Deployment(run.run_dir / name, run.root / "src")
    deadline = time.monotonic() + 60.0
    client = None
    try:
        journals, caches = [], []
        coords = []
        for p in range(pools):
            journal = dep.run_dir / f"pool{p}.journal.jsonl"
            args = ["coordinator", "--port", "0", "--journal", str(journal)]
            if pool_warehouse:
                args += ["--warehouse", str(dep.run_dir / f"pool{p}.sqlite")]
            coords.append(dep.spawn("coordinator", args, events=observed))
            journals.append(journal)
        dep.pools = [tier.wait_port(deadline) for tier in coords]
        for p, port in enumerate(dep.pools):
            for w in range(workers):
                args = ["worker", "--connect", f"{HOST}:{port}",
                        "--name", f"pool{p}-w{w}", "--retry", "100"]
                if worker_cache:
                    cache = dep.run_dir / f"cache-pool{p}-w{w}"
                    caches.append(cache)
                    args += ["--cache", str(cache)]
                else:
                    args.append("--no-cache")
                dep.spawn("worker", args, events=observed)
        warehouse = None
        if front:
            args = ["federate", "--port", "0",
                    "--journal", str(dep.run_dir / "front.journal.jsonl")]
            for port in dep.pools:
                args += ["--pool", f"{HOST}:{port}"]
            warehouse = dep.run_dir / "front.sqlite"
            args += ["--warehouse", str(warehouse)]
            dep.front = dep.spawn("front", args, events=observed
                                  ).wait_port(deadline)
        if pool_warehouse:
            warehouse = dep.run_dir / "pool0.sqlite"
        while len(_workers_done(dep.pools)) < pools * workers:
            if time.monotonic() > deadline:
                raise BenchError(f"{name}: workers did not register")
            time.sleep(0.01)
        client = ServiceClient(HOST, dep.front or dep.pools[0],
                               timeout=60.0)
        # the first lease on a fresh worker pays the lazy registry
        # import: warm every worker before anything is timed
        warm = 0
        while min(_workers_done(dep.pools)) < 1:
            if time.monotonic() > deadline:
                raise BenchError(f"{name}: warm-up did not reach "
                                 "every worker")
            batch = max(pools * workers, 4 * pools if front else 0)
            sweep(client, cheap_specs(warm_seed + warm, 0, batch))
            warm += batch
        return Cluster(dep, client, journals, caches, warehouse)
    except (BenchError, ServiceError, OSError):
        if client is not None:
            client.close()
        dep.teardown()
        raise


def setup_cluster(run: Run, name: str, **kwargs) -> Tuple[Cluster, float]:
    """Set the deployment up :data:`SETUPS` times, keep the last one,
    and return it with the median set-up time."""
    samples = []
    for attempt in range(SETUPS):
        start = time.perf_counter()
        cluster = deploy(run, f"{name}-{attempt}",
                         warm_seed=run.base + WARM_OFFSET + 1000 * attempt,
                         **kwargs)
        samples.append(time.perf_counter() - start)
        if attempt < SETUPS - 1:
            cluster.close()
    return cluster, statistics.median(samples)


# -- timed campaign ----------------------------------------------------------

@dataclass
class Campaign:
    sweeps: List[Sweep]
    window: Tuple[float, float]           # time.time() bounds
    cpu: Dict[str, float]                 # timed CPU seconds per kind
    worker_cpu: List[float]               # timed CPU seconds per worker
    sweep_cpu: List[float]                # all processes' CPU per sweep
    hwm: Dict[str, float]                 # peak RSS MiB per kind
    before: List[dict]                    # pool status frames
    after: List[dict]
    snapshot_kb: float
    cache_kb: Tuple[float, float]         # worker caches before/after

    @property
    def results(self) -> List[ScenarioResult]:
        return [r for s in self.sweeps for r in s.results]

    @property
    def specs(self) -> int:
        return sum(s.size for s in self.sweeps)


def _tree_kb(paths: Sequence[Path]) -> float:
    total = 0
    for path in paths:
        for dirpath, _dirs, files in os.walk(path):
            total += sum(os.path.getsize(os.path.join(dirpath, f))
                         for f in files)
    return total / 1024.0


def _snapshot_kb(journals: Sequence[Path]) -> float:
    total = 0
    for journal in journals:
        snap = journal.with_name(journal.name + ".snapshot")
        if snap.exists():
            total += snap.stat().st_size
    return total / 1024.0


def units(run: Run, unit_s: float, least: int = 1) -> int:
    """How many work units of about ``unit_s`` fill ``run.seconds``."""
    return max(least, round(run.seconds / unit_s))


def campaign(run: Run, cluster: Cluster,
             batches: Sequence[Sequence[ScenarioSpec]]) -> Campaign:
    """One closed-loop sweep per batch, back to back."""
    dep = cluster.dep
    before = statuses(dep.pools)
    cache0 = _tree_kb(cluster.caches)
    tiers = list(dep.tiers)
    me = os.getpid()
    cpu0 = [t.cpu_s() for t in tiers]
    client0 = proc_cpu_s(me)

    def total_cpu() -> float:
        return proc_cpu_s(me) + sum(t.cpu_s() for t in tiers)

    wall0 = time.time()
    sweeps: List[Sweep] = []
    marks = [total_cpu()]
    for batch in batches:
        sweeps.append(sweep(cluster.client, batch))
        marks.append(total_cpu())
    wall1 = time.time()
    cpu1 = [t.cpu_s() for t in tiers]
    cpu = {"client": proc_cpu_s(me) - client0}
    worker_cpu = []
    for tier, a, b in zip(tiers, cpu0, cpu1):
        cpu[tier.kind] = cpu.get(tier.kind, 0.0) + (b - a)
        if tier.kind == "worker":
            worker_cpu.append(b - a)
    hwm = dep.hwm_by_kind()
    hwm["client"] = proc_hwm_mb(me)
    return Campaign(
        sweeps=sweeps, window=(wall0, wall1), cpu=cpu,
        worker_cpu=worker_cpu, hwm=hwm, before=before,
        sweep_cpu=[b - a for a, b in zip(marks, marks[1:])],
        after=statuses(dep.pools),
        snapshot_kb=_snapshot_kb(cluster.journals),
        cache_kb=(cache0, _tree_kb(cluster.caches)),
    )


def _counter(frames: Sequence[dict], name: str) -> float:
    return sum(((f.get("metrics") or {}).get("counters") or {}).get(name, 0)
               for f in frames)


def _ms_p(values: Sequence[float], q: float) -> float:
    return percentile(values, q)[0] if values else 0.0


def finish_campaign(run: Run, cluster: Cluster, camp: Campaign,
                    setup_s: float) -> None:
    """Tear down, gate every result against serial ``run_spec`` and
    record the end-to-end and per-layer figures."""
    events = _read_events(cluster.dep.run_dir, camp.window) \
        if run.trace else None
    cluster.close()
    warehouse = _warehouse(cluster.warehouse, camp.window) \
        if run.trace and cluster.warehouse else None
    results = camp.results
    n = camp.specs
    run.attempted += n
    if len(results) != n:
        run.failures.append(f"{n - len(results)} specs never returned")
    reference = {}
    for result in results:
        if result.spec_hash not in reference:
            reference[result.spec_hash] = run_spec(ScenarioSpec(
                result.name, result.params, result.seed))
    run.gate(results, reference)

    run.e2e.update({
        "specs_per_s": statistics.median(
            len(s.results) / s.makespan for s in camp.sweeps),
        "cpu_ms_per_spec": statistics.median(
            cpu * 1e3 / s.size for s, cpu in zip(camp.sweeps,
                                                  camp.sweep_cpu)),
        "peak_rss_mb": sum(camp.hwm.values()),
        "setup_s": setup_s,
    })
    if not run.trace:
        return
    layer = run.layer
    for kind in KINDS:
        layer[f"cpu.{kind}_ms_per_spec"] = camp.cpu.get(kind, 0.0) * 1e3 / n
        layer[f"rss.{kind}_mb"] = camp.hwm.get(kind, 0.0)
    per_sweep = [s.makespan * 1e3 / s.size for s in camp.sweeps]
    layer["cluster.history_slowdown"] = (
        history_slowdown(per_sweep) if len(per_sweep) > 1 else 1.0)
    layer["cluster.compactions"] = sum(
        ((f.get("cluster") or {}).get("last_compaction") or {})
        .get("generation", 0) for f in camp.after)
    layer["cluster.snapshot_kb"] = camp.snapshot_kb
    for metric, counter in (("leases", "cluster.leases_granted"),
                            ("steals", "cluster.steals")):
        layer[f"cluster.{metric}_per_spec"] = (
            _counter(camp.after, counter)
            - _counter(camp.before, counter)) / n
    workers = len(camp.worker_cpu)
    layer["cluster.makespan_efficiency"] = statistics.median(
        makespan_efficiency([r.elapsed_s for r in s.results], workers,
                            s.makespan)
        for s in camp.sweeps)
    layer["cluster.worker_cpu_imbalance"] = imbalance(camp.worker_cpu)
    busy = sum(r.elapsed_s for r in results)
    layer["worker.overhead_frac"] = 1.0 - busy / sum(camp.worker_cpu)
    gaps = [g for s in camp.sweeps for g in s.gaps_ms]
    layer["client.ack_ms"] = statistics.median(
        (s.acked - s.submitted) * 1e3 for s in camp.sweeps)
    layer["client.first_result_ms"] = statistics.median(
        (s.arrivals[0] - s.submitted) * 1e3 for s in camp.sweeps
        if s.arrivals)
    layer["client.result_gap_ms_p50"] = _ms_p(gaps, 50)
    layer["client.result_gap_ms_p99"] = _ms_p(gaps, 99)
    layer["client.result_gaps"] = len(gaps)
    cache0, cache1 = camp.cache_kb
    layer["engine.cache_kb_per_spec"] = (cache1 - cache0) / n
    if events is not None and events["lines"]:
        spans = events["spans"]
        layer["federation.assigns_per_spec"] = events["assigns"] / n
        shares = list(events["pool_completes"].values())
        layer["federation.pool_share_imbalance"] = (
            imbalance(shares) if shares else 0.0)
        layer["hop.assign_ms_p50"] = _ms_p(spans.get("assign", []), 50)
        layer["hop.lease_ms_p50"] = _ms_p(spans.get("lease", []), 50)
        layer["hop.lease_ms_p99"] = _ms_p(spans.get("lease", []), 99)
        layer["hop.execute_ms_p50"] = _ms_p(spans.get("execute", []), 50)
        layer["telemetry.events_per_spec"] = events["lines"] / n
        layer["telemetry.event_kb_per_spec"] = events["bytes"] / 1024 / n
        layer["telemetry.spans_per_spec"] = (
            sum(len(v) for v in spans.values()) / n)
    if warehouse is not None:
        layer["telemetry.warehouse_rows_per_spec"] = warehouse[0] / n
        layer["telemetry.warehouse_kb_per_spec"] = warehouse[1] / n


def _read_events(run_dir: Path, window: Tuple[float, float]) -> dict:
    """Event lines written inside the timed window, all processes."""
    lines = size = assigns = 0
    spans: Dict[str, List[float]] = {}
    pool_completes: Dict[str, int] = {}
    for path in sorted(run_dir.glob("*.events.jsonl")):
        with path.open("rb") as fh:
            for raw in fh:
                event = json.loads(raw)
                if not window[0] <= event.get("ts", 0.0) <= window[1]:
                    continue
                lines += 1
                size += len(raw)
                kind = event.get("kind")
                payload = event.get("payload") or {}
                if kind == "span" and "duration_s" in payload:
                    spans.setdefault(payload.get("name", ""), []).append(
                        payload["duration_s"] * 1e3)
                elif kind == "pool-assign":
                    assigns += 1
                elif kind == "pool-complete":
                    pool = str(payload.get("pool"))
                    pool_completes[pool] = pool_completes.get(pool, 0) + 1
    return {"lines": lines, "bytes": size, "spans": spans,
            "assigns": assigns, "pool_completes": pool_completes}


def _warehouse(path: Path, window: Tuple[float, float]
               ) -> Tuple[int, float]:
    """Rows recorded inside the window and the database's size (KiB)
    per row, read after the writer closed it."""
    con = sqlite3.connect(f"file:{path}?mode=ro", uri=True)
    try:
        rows = con.execute(
            "SELECT COUNT(*) FROM results WHERE recorded_at BETWEEN ? AND ?",
            window).fetchone()[0]
        total = con.execute("SELECT COUNT(*) FROM results").fetchone()[0]
    finally:
        con.close()
    size = sum(p.stat().st_size for p in path.parent.glob(path.name + "*"))
    return rows, (size / 1024.0) * rows / total if total else 0.0


# -- workloads ---------------------------------------------------------------

def sweep_small(run: Run) -> None:
    cluster, setup_s = setup_cluster(run, "sweep-small", pools=1, workers=2)
    try:
        camp = campaign(run, cluster, [
            cheap_specs(run.base, k * SWEEP_SMALL, SWEEP_SMALL)
            for k in range(units(run, SMALL_SWEEP_S, least=2))])
    except BaseException:
        cluster.close()
        raise
    finish_campaign(run, cluster, camp, setup_s)


def mixed_specs(base: int) -> List[ScenarioSpec]:
    heavy = [spec(name, base + HEAVY_OFFSET + j)
             for j in range(2) for name in HEAVY]
    cheap = cheap_specs(base, 0, MIXED_CHEAP_PER_HEAVY * len(heavy))
    specs: List[ScenarioSpec] = []
    for i, item in enumerate(heavy):
        specs.extend(cheap[i * MIXED_CHEAP_PER_HEAVY:
                           (i + 1) * MIXED_CHEAP_PER_HEAVY])
        specs.append(item)
    return specs


def sweep_mixed(run: Run) -> None:
    cluster, setup_s = setup_cluster(run, "sweep-mixed", pools=1, workers=2)
    specs = mixed_specs(run.base)
    try:
        camp = campaign(run, cluster,
                        [specs] * units(run, MIXED_SWEEP_S))
    except BaseException:
        cluster.close()
        raise
    finish_campaign(run, cluster, camp, setup_s)


def campaign_observed(run: Run) -> None:
    cluster, setup_s = setup_cluster(
        run, "campaign-observed", pools=2, workers=1, front=True,
        observed=True, worker_cache=True)
    try:
        camp = campaign(run, cluster, [
            cheap_specs(run.base, k * SWEEP_OBSERVED, SWEEP_OBSERVED)
            for k in range(units(run, OBSERVED_SWEEP_S, least=2))])
    except BaseException:
        cluster.close()
        raise
    finish_campaign(run, cluster, camp, setup_s)


_PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]);"
    "from repro.engine import registry; from repro.engine.executor "
    "import run_spec; registry.load_all();"
    "r = run_spec(registry.get('E1').spec.with_seed(int(sys.argv[2])));"
    "sys.exit(0 if r.ok else 1)"
)


def _timed_pass(specs: Sequence[ScenarioSpec]
                ) -> Tuple[List[ScenarioResult], Dict[str, Tuple[float, float]]]:
    """One suite pass and each spec's (wall, CPU) seconds, taken from
    the executor's progress callback, so ``run_spec`` is included."""
    costs: Dict[str, Tuple[float, float]] = {}
    last = [time.perf_counter(), time.process_time()]

    def progress(result: ScenarioResult) -> None:
        now = [time.perf_counter(), time.process_time()]
        costs[result.spec_hash] = (now[0] - last[0], now[1] - last[1])
        last[:] = now

    report = execute(specs, workers=1, cache=None, progress=progress)
    return list(report.results), costs


def paper_suite(run: Run) -> None:
    """All registered scenarios, serially in-process (``repro run
    --no-cache``); set-up is a fresh interpreter importing the engine,
    loading the registry and running one spec.

    The host's speed moved whole passes by up to a third within one
    run, so each spec's cost is its median over the passes and a pass
    is the sum of those medians."""
    samples = []
    for attempt in range(SETUPS):
        start = time.perf_counter()
        code = subprocess.call(
            [sys.executable, "-c", _PROBE, str(run.root / "src"),
             str(run.base + WARM_OFFSET + attempt)],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - start)
        if code != 0:
            raise BenchError("set-up probe failed")
    registry.load_all()
    run_spec(spec("E1", run.base + WARM_OFFSET))
    specs = suite_specs(run.seed)
    passes = [_timed_pass(specs) for _ in range(units(run, SUITE_PASS_S))]
    hwm = proc_hwm_mb(os.getpid())
    results = [r for rs, _costs in passes for r in rs]
    run.attempted += len(results)
    run.gate(results, {r.spec_hash: r for r in passes[0][0]})
    wall = sum(statistics.median(c[h][0] for _rs, c in passes)
               for h in passes[0][1])
    cpu = sum(statistics.median(c[h][1] for _rs, c in passes)
              for h in passes[0][1])
    run.e2e.update({
        "specs_per_s": len(specs) / wall,
        "cpu_ms_per_spec": cpu * 1e3 / len(specs),
        "peak_rss_mb": hwm,
        "setup_s": statistics.median(samples),
    })
    if run.trace:
        run.layer["cpu.client_ms_per_spec"] = run.e2e["cpu_ms_per_spec"]
        run.layer["rss.client_mb"] = hwm


# -- traced extras -----------------------------------------------------------

def _probe_pass(run: Run, trace: bool, index: int) -> dict:
    """One paper-suite pass in a fresh interpreter (``probe.py``)."""
    out = run.run_dir / f"probe-{index}.json"
    run.run_dir.mkdir(parents=True, exist_ok=True)
    try:
        subprocess.run(
            [sys.executable, str(Path(__file__).with_name("probe.py")),
             str(run.root / "src"), str(run.seed), "1" if trace else "0",
             str(out)],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            check=True, timeout=150)
    except (subprocess.SubprocessError, OSError) as exc:
        raise BenchError(f"probe pass failed: {exc}") from None
    with out.open() as fh:
        data = json.load(fh)
    data["results"] = [ScenarioResult.from_dict(r) for r in data["results"]]
    return data


def layer_probe(run: Run) -> None:
    """Paper-suite passes, each in a fresh interpreter, untraced and
    traced in turn: the domain layers' counts and times, the engine's
    per-spec overhead and the tracing overhead."""
    # alternate untraced and traced passes so a drift in host speed
    # does not land on one side of the tracing overhead
    untraced, traced = [], []
    for index in range(2 * TRACED_PASSES):
        (traced if index % 2 else untraced).append(
            _probe_pass(run, bool(index % 2), index))
    reference = {r.spec_hash: r for r in untraced[0]["results"]}
    for data in untraced + traced:
        run.gate(data["results"], reference)
    mismatched = count_mismatches(
        [{k: d["counts"].get(k, 0) for k in REPEATING} for d in traced])
    if mismatched:
        run.failures.append(f"counts {mismatched} differ between passes")

    def mean(values) -> float:
        values = list(values)
        return sum(values) / len(values)

    def count(name: str) -> float:
        return mean(d["counts"].get(name, 0) for d in traced)

    def busy(name: str) -> float:
        return mean(d["times"].get(name, 0.0) for d in traced)

    layer = run.layer
    per_pass: Dict[str, float] = {}
    for data in traced:
        for name, values in data["scenario_walls"].items():
            per_pass[name] = per_pass.get(name, 0.0) + sum(values) / len(traced)
    for name in TRACKED:
        layer[f"analysis.{name}.wall_s"] = per_pass.get(name, 0.0)
    layer["analysis.rest.wall_s"] = sum(
        v for name, v in per_pass.items() if name not in TRACKED)
    layer["sim.run_s"] = busy("sim.run")
    layer["sim.events"] = count("sim.events")
    layer["sim.events_per_s"] = (layer["sim.events"] / layer["sim.run_s"]
                                 if layer["sim.run_s"] else 0.0)
    layer["noc.packets"] = count("noc.packets")
    layer["noc.flow_evals"] = count("noc.flow_evals")
    layer["noc.flow_s"] = busy("noc.flow")
    layer["noc.routing_builds"] = count("noc.routing_builds")
    lookups = count("noc.routing_lookups")
    layer["noc.routing_hit_ratio"] = (
        1.0 - layer["noc.routing_builds"] / lookups if lookups else 0.0)
    layer["dsoc.calls"] = count("dsoc.calls")
    layer["dsoc.host_us_per_call"] = (
        layer["analysis.E14.wall_s"] * 1e6 / layer["dsoc.calls"]
        if layer["dsoc.calls"] else 0.0)
    layer["apps.lpm_insert_s"] = busy("apps.lpm_insert")
    layer["apps.lpm_lookup_s"] = busy("apps.lpm_lookup")
    layer["apps.lpm_lookups"] = count("apps.lpm_lookups")
    layer["mapping.anneal_s"] = busy("mapping.anneal")
    layer["mapping.proposals"] = count("mapping.proposals")
    layer["mapping.accept_ratio"] = (
        count("mapping.commits") / layer["mapping.proposals"]
        if layer["mapping.proposals"] else 0.0)
    layer["mapping.batch_candidates"] = count("mapping.batch_candidates")
    layer["tlm.syncs"] = count("tlm.syncs")
    overheads = [o for d in traced for o in d["run_spec_overheads"]]
    layer["engine.run_spec_overhead_us"] = statistics.median(overheads) * 1e6
    # CPU time, not wall: the host's steal time moved the wall of
    # identical passes by up to a quarter, more than the wrappers cost
    layer["trace.overhead_frac"] = (
        statistics.median(d["cpu_s"] for d in traced)
        / statistics.median(d["cpu_s"] for d in untraced) - 1.0)


def _per_spec_us(fn: Callable[[], Sequence[ScenarioResult]],
                 count: int) -> Tuple[float, Sequence[ScenarioResult]]:
    start = time.perf_counter()
    results = fn()
    return (time.perf_counter() - start) * 1e6 / count, results


def tier_ladder(run: Run) -> None:
    """The same spec set through each serving tier, one worker each."""
    from repro.service.backend import LocalBackend
    from repro.service.server import BackgroundServer

    registry.load_all()
    specs = cheap_specs(run.base + LADDER_OFFSET, 0, LADDER_SPECS)
    warm = cheap_specs(run.base + LADDER_OFFSET, LADDER_SPECS, 1)
    n = len(specs)
    layer = run.layer
    layer["tier.run_spec_us"], reference = _per_spec_us(
        lambda: [run_spec(s) for s in specs], n)
    reference = {r.spec_hash: r for r in reference}
    layer["tier.local_backend_us"], results = _per_spec_us(
        lambda: LocalBackend(backend="serial").run(specs), n)
    run.gate(results, reference)
    with BackgroundServer(LocalBackend(backend="serial")) as server:
        with ServiceClient(server.host, server.port, timeout=60.0) as client:
            sweep(client, warm)
            layer["tier.server_us"], results = _per_spec_us(
                lambda: sweep(client, specs).results, n)
    run.gate(results, reference)
    for metric, kwargs in (
            ("tier.coordinator_us", {}),
            ("tier.coordinator_observed_us",
             {"observed": True, "pool_warehouse": True}),
            ("tier.federation_us", {"front": True})):
        cluster = deploy(run, metric, pools=1, workers=1,
                         warm_seed=run.base + LADDER_OFFSET + 500_000,
                         **kwargs)
        try:
            layer[metric], results = _per_spec_us(
                lambda: sweep(cluster.client, specs).results, n)
        finally:
            cluster.close()
        run.gate(results, reference)


WORKLOADS: Dict[str, Callable[[Run], None]] = {
    "paper-suite": paper_suite,
    "sweep-small": sweep_small,
    "sweep-mixed": sweep_mixed,
    "campaign-observed": campaign_observed,
}
