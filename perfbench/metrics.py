"""Pure metric math for the benchmark: no processes, no sockets.

Everything here is a function of plain numbers or text, so the
benchmark's own tests (``test_metrics.py``) check it without spawning
a single tier.
"""

from __future__ import annotations

import json
import math
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

# -- summary statistics ------------------------------------------------------

def percentile(values: Sequence[float], q: float) -> Tuple[float, int]:
    """Nearest-rank ``q``-th percentile of ``values`` and the sample count.

    The count travels with the value so a reader can tell a p99 over
    5,000 gaps from a p99 over 40.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} outside [0, 100]")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1]), len(ordered)


# -- /proc parsing -----------------------------------------------------------

def parse_proc_stat(text: str) -> Tuple[int, int]:
    """``(utime, stime)`` in clock ticks from a ``/proc/<pid>/stat`` line.

    The command name (field 2) is parenthesised and may itself hold
    spaces or parentheses, so fields are counted from the *last* ``)``.
    """
    tail = text[text.rindex(")") + 2:].split()
    # tail[0] is field 3 (state); utime/stime are fields 14 and 15
    return int(tail[11]), int(tail[12])


def parse_proc_status(text: str) -> Dict[str, int]:
    """The ``Vm*`` sizes of a ``/proc/<pid>/status`` file, in kB."""
    sizes: Dict[str, int] = {}
    for line in text.splitlines():
        key, _colon, rest = line.partition(":")
        if key.startswith("Vm"):
            fields = rest.split()
            if fields and fields[0].isdigit():
                sizes[key] = int(fields[0])
    return sizes


# -- span arithmetic ---------------------------------------------------------

def covered(span: Tuple[float, float],
            children: Iterable[Tuple[float, float]]) -> float:
    """Length of ``span`` covered by the union of ``children``."""
    start, end = span
    clipped = sorted(
        (max(start, s), min(end, e)) for s, e in children
        if min(end, e) > max(start, s)
    )
    total = 0.0
    cur_s: Optional[float] = None
    cur_e = 0.0
    for s, e in clipped:
        if cur_s is None or s > cur_e:
            if cur_s is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_s is not None:
        total += cur_e - cur_s
    return total


def self_time(span: Tuple[float, float],
              children: Iterable[Tuple[float, float]]) -> float:
    """A span's duration minus the part its child spans cover."""
    return (span[1] - span[0]) - covered(span, children)


# -- cluster figures ---------------------------------------------------------

def makespan_efficiency(elapsed_s: Sequence[float], workers: int,
                        makespan_s: float) -> float:
    """Lower bound on the makespan over the measured makespan.

    No schedule over ``workers`` serial workers can beat the larger of
    the perfect split (Σ elapsed ÷ workers) and the longest single
    spec; 1.0 means the scheduler reached that bound.
    """
    if makespan_s <= 0 or not elapsed_s:
        raise ValueError("makespan efficiency needs specs and a makespan")
    bound = max(sum(elapsed_s) / workers, max(elapsed_s))
    return bound / makespan_s


def history_slowdown(ms_per_spec: Sequence[float]) -> float:
    """ms/spec of a campaign's last sweep over its first timed sweep."""
    if len(ms_per_spec) < 2:
        raise ValueError("history slowdown needs at least two sweeps")
    return ms_per_spec[-1] / ms_per_spec[0]


def imbalance(values: Sequence[float]) -> float:
    """Largest share over the mean share (1.0 = perfectly even)."""
    mean = sum(values) / len(values)
    return max(values) / mean if mean else math.inf


# -- correctness gate --------------------------------------------------------

#: row columns that hold a host wall-clock measurement, which differs
#: on every execution (A4 reports how long each mapper ran).  They are
#: left out of the row comparison; every other column must match.
HOST_TIMED_COLUMNS = frozenset({"map_time_ms"})


def canonical_rows(rows) -> str:
    """Rows as canonical JSON: tuples and lists compare equal, as they
    do after a trip over the wire, and host-timed columns are dropped."""
    rows = [
        {k: v for k, v in row.items() if k not in HOST_TIMED_COLUMNS}
        if isinstance(row, dict) else row
        for row in rows
    ]
    return json.dumps(rows, sort_keys=True, default=str)


def verdict_failures(verdict: Mapping, expected_false: Iterable[str]
                     ) -> List[str]:
    """Boolean verdict keys that are False and not negative controls."""
    negative = set(expected_false)
    return sorted(
        k for k, v in verdict.items()
        if isinstance(v, bool) and not v and k not in negative
    )


def check_result(result, reference=None) -> Optional[str]:
    """Why ``result`` fails the gate, or None when it passes.

    A result passes when it completed, every boolean verdict holds
    except the scenario's ``expected_false`` controls, and — given a
    serial ``reference`` of the same spec — its rows equal the
    reference rows.
    """
    if result.status != "ok":
        return f"{result.name}: status {result.status}"
    failed = verdict_failures(result.verdict, result.expected_false)
    if failed:
        return f"{result.name}: verdict {failed} is False"
    if reference is not None:
        if reference.spec_hash != result.spec_hash:
            return f"{result.name}: reference is another spec"
        if canonical_rows(result.rows) != canonical_rows(reference.rows):
            return f"{result.name}: rows differ from serial run_spec"
    return None


def count_mismatches(passes: Sequence[Mapping[str, float]]) -> List[str]:
    """Counters whose value differs between passes of one seed."""
    if not passes:
        return []
    first = passes[0]
    return sorted(
        name for name in first
        if any(p.get(name) != first[name] for p in passes[1:])
    )
