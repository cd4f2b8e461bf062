"""Client-side tracing of the domain layers for the traced run.

Wrappers are installed around the calls into each layer, from the
benchmark's own code: the program itself carries no tracing.  Each
wrapper counts calls and, where the layer's time is wanted, adds the
call's wall time — outermost call only, so a re-entrant call is not
counted twice.  ``run_spec`` and the scenario function also record a
span each, so the engine's own cost is a span's self time.

A wrapper must replace the name the caller resolves.  A method is
resolved through its class; a function bound into another module with
``from x import f`` is a separate name, so every ``repro`` module
attribute holding the original function is replaced.
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

from metrics import self_time

#: counters that must repeat exactly for a seed (a pure speed-up of a
#: layer leaves them identical).
REPEATING = ("sim.events", "noc.packets", "dsoc.calls", "mapping.proposals")


class Tracer:
    """Counters, layer times and spans of one or more traced passes."""

    def __init__(self) -> None:
        self.counts: Dict[str, float] = {}
        self.times: Dict[str, float] = {}
        #: (name, start, end, parent index or -1)
        self.spans: List[Tuple[str, float, float, int]] = []
        self._depth: Dict[str, int] = {}
        self._open: List[int] = []
        self._restore: List[Callable[[], None]] = []

    # -- recording --------------------------------------------------------

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def _timed(self, name: str, fn: Callable, *args, **kwargs):
        depth = self._depth.get(name, 0)
        self._depth[name] = depth + 1
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            if depth == 0:
                self.times[name] = (self.times.get(name, 0.0)
                                    + time.perf_counter() - start)
            self._depth[name] = depth

    def _span(self, name: str, fn: Callable, *args, **kwargs):
        parent = self._open[-1] if self._open else -1
        index = len(self.spans)
        self.spans.append((name, time.perf_counter(), 0.0, parent))
        self._open.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self._open.pop()
            label, start, _end, parent = self.spans[index]
            self.spans[index] = (label, start, time.perf_counter(), parent)

    # -- patching ---------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        original = owner.__dict__[attr]
        setattr(owner, attr, value)
        self._restore.append(lambda: setattr(owner, attr, original))

    def patch_method(self, cls, attr: str, make: Callable) -> None:
        original = cls.__dict__[attr]
        self._set(cls, attr, functools.wraps(original)(make(original)))

    def patch_function(self, module_name: str, attr: str,
                       make: Callable) -> None:
        original = getattr(sys.modules[module_name], attr)
        wrapped = functools.wraps(original)(make(original))
        for name, module in list(sys.modules.items()):
            if not (name == "repro" or name.startswith("repro.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._set(module, key, wrapped)

    def install(self) -> "Tracer":
        """Wrap every traced layer (the registry must be loaded)."""
        from repro.apps.lpm import LpmTrie
        from repro.dsoc.broker import Proxy
        from repro.engine import registry
        from repro.mapping.evaluator import IncrementalMapping, MappingEvaluator
        from repro.noc.flow import FlowModel
        from repro.noc.network import Network
        from repro.sim.core import Simulator
        from repro.tlm.quantum import QuantumKeeper

        tracer = self

        def counted(name: str, size: Optional[Callable] = None):
            def make(fn):
                def wrapper(*args, **kwargs):
                    tracer.count(name, size(*args, **kwargs) if size else 1)
                    return fn(*args, **kwargs)
                return wrapper
            return make

        def timed(name: str, count: Optional[str] = None,
                  size: Optional[Callable] = None):
            def make(fn):
                def wrapper(*args, **kwargs):
                    if count:
                        tracer.count(count,
                                     size(*args, **kwargs) if size else 1)
                    return tracer._timed(name, fn, *args, **kwargs)
                return wrapper
            return make

        def simulated(fn):
            def wrapper(sim, *args, **kwargs):
                before = sim.events_executed
                try:
                    return tracer._timed("sim.run", fn, sim, *args, **kwargs)
                finally:
                    tracer.count("sim.events", sim.events_executed - before)
            return wrapper

        self.patch_method(Simulator, "run", simulated)
        self.patch_method(Simulator, "run_steps", simulated)
        self.patch_method(Network, "send", counted("noc.packets"))
        self.patch_method(FlowModel, "evaluate",
                          timed("noc.flow", count="noc.flow_evals"))
        self.patch_function("repro.noc.routing", "build_routing",
                            counted("noc.routing_builds"))
        self.patch_function("repro.noc.routing", "cached_routing",
                            counted("noc.routing_lookups"))
        self.patch_method(Proxy, "call", counted("dsoc.calls"))
        self.patch_method(LpmTrie, "insert_many", timed("apps.lpm_insert"))
        self.patch_method(LpmTrie, "lookup",
                          timed("apps.lpm_lookup", count="apps.lpm_lookups"))
        self.patch_method(
            LpmTrie, "lookup_many",
            timed("apps.lpm_lookup", count="apps.lpm_lookups",
                  size=lambda _self, addresses: len(addresses)),
        )
        self.patch_function("repro.mapping.anneal", "anneal_map",
                            timed("mapping.anneal"))
        self.patch_method(IncrementalMapping, "propose",
                          counted("mapping.proposals"))
        self.patch_method(IncrementalMapping, "commit",
                          counted("mapping.commits"))
        self.patch_method(
            MappingEvaluator, "evaluate_batch",
            counted("mapping.batch_candidates",
                    size=lambda _self, assignments, *a, **k: len(assignments)),
        )
        self.patch_method(QuantumKeeper, "sync", counted("tlm.syncs"))
        self.patch_function(
            "repro.engine.executor", "run_spec",
            lambda fn: lambda *a, **k: tracer._span("run_spec", fn, *a, **k),
        )
        # run_spec calls the registry entry's fn: re-register each
        # scenario with a spanned wrapper, the original afterwards
        for entry in registry.all_scenarios():
            original = entry.fn

            def spanned(*args, _fn=original, _name=entry.name, **kwargs):
                return tracer._span(f"scenario.{_name}", _fn, *args, **kwargs)

            functools.update_wrapper(spanned, original)
            registry.register(entry.spec, spanned,
                              expected_false=entry.expected_false)
            self._restore.append(
                lambda e=entry: registry.register(
                    e.spec, e.fn, expected_false=e.expected_false)
            )
        return self

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # -- read-out ---------------------------------------------------------

    def scenario_walls(self) -> Dict[str, List[float]]:
        """Scenario name -> wall of each traced call."""
        walls: Dict[str, List[float]] = {}
        for name, start, end, _parent in self.spans:
            if name.startswith("scenario."):
                walls.setdefault(name[9:], []).append(end - start)
        return walls

    def run_spec_overheads(self) -> List[float]:
        """Self time of every ``run_spec`` span (its scenario excluded)."""
        children: Dict[int, List[Tuple[float, float]]] = {}
        for name, start, end, parent in self.spans:
            if parent >= 0:
                children.setdefault(parent, []).append((start, end))
        return [
            self_time((start, end), children.get(index, ()))
            for index, (name, start, end, _p) in enumerate(self.spans)
            if name == "run_spec"
        ]
