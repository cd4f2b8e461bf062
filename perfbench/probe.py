"""One pass of the paper suite in a fresh interpreter, for the traced run.

    python3 perfbench/probe.py SRC SEED TRACE OUT

Runs every registered scenario at SEED serially, as ``repro run
--no-cache`` would in a new process (so process-wide memos such as the
routing-table cache start cold on every pass), with the layer wrappers
installed when TRACE is 1.  Writes the pass's wall and CPU time,
counters, layer times, spans and results to OUT as JSON.
"""

from __future__ import annotations

import json
import sys
import time


def main(argv) -> int:
    src, seed, trace, out = argv[0], int(argv[1]), argv[2] == "1", argv[3]
    sys.path.insert(0, src)
    from layers import Tracer

    from repro.engine import registry
    from repro.engine.executor import execute

    registry.load_all()
    specs = [s.spec.with_seed(seed) for s in registry.all_scenarios()]
    tracer = Tracer()
    if trace:
        tracer.install()
    start, cpu = time.perf_counter(), time.process_time()
    report = execute(specs, workers=1, cache=None)
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu
    tracer.uninstall()
    with open(out, "w") as fh:
        json.dump({
            "wall_s": wall,
            "cpu_s": cpu,
            "counts": tracer.counts,
            "times": tracer.times,
            "scenario_walls": tracer.scenario_walls(),
            "run_spec_overheads": tracer.run_spec_overheads(),
            "results": [r.to_dict() for r in report.results],
        }, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
