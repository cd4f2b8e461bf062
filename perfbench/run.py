"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Prints, as the last line of stdout,
one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` — the end-to-end metrics of ``BENCHMARK.json`` with
``--trace 0``, its per-layer metrics with ``--trace 1``.  Exits 1
when any spec failed the correctness gate, 2 on a usage error or a
checkout without the program.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path


def main(argv=None) -> int:
    root = Path.cwd()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0",
              file=sys.stderr)
        return 2
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {src}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    with open(root / "BENCHMARK.json") as fh:
        spec = json.load(fh)

    import workloads
    from procs import BenchError

    from repro.service.client import ServiceError

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    run_dir = root / ".perfbench_runs" / f"{args.workload}-{os.getpid()}"
    run = workloads.Run(root=root, run_dir=run_dir, seed=args.seed,
                        seconds=args.seconds, trace=bool(args.trace))
    started = time.perf_counter()
    try:
        workloads.WORKLOADS[args.workload](run)
        if run.trace:
            workloads.layer_probe(run)
            workloads.tier_ladder(run)
    except (BenchError, ServiceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            run_dir.parent.rmdir()
        except OSError:
            pass  # another run still owns a directory there
    failed = min(len(run.failures), run.attempted)
    for reason in run.failures[:20]:
        print(f"gate: {reason}", file=sys.stderr)
    if run.trace:
        run.layer["error_rate"] = failed / run.attempted
        wanted, values = spec["per_layer"], run.layer
    else:
        wanted, values = spec["end_to_end"], run.e2e
    print(f"{args.workload}: {run.attempted} specs, {failed} failed, "
          f"{time.perf_counter() - started:.1f}s", file=sys.stderr)
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": float(values.get(m["name"], 0.0)),
                        "unit": m["unit"]}
            for m in wanted
        },
    }))
    return 0 if not run.failures else 1


if __name__ == "__main__":
    sys.exit(main())
