"""Outside-in span tracing of fogcast's public functions.

The tracer replaces each traced function with a wrapper at the place its
caller looks the name up (``fogcast.experiment.extract_path``,
``fogcast.service_router.extract_path``, ``RendezvousTable.match``, ...),
so no file of the package changes. Every call becomes a span
``(name, start, end, parent)`` kept in flat in-memory arrays and written
out once at the end. A span's self time is its duration minus the
durations of its child spans. Calls are single-threaded and nested, so
children never overlap.

Wrappers are installed only in a traced process; a target that no longer
exists after a refactor is skipped and simply reads as zero calls.
"""
from __future__ import annotations

import functools
import importlib
import time
from array import array
from pathlib import Path
from typing import Callable

import numpy as np

# (span name, module that looks the name up, attribute path in that module)
TARGETS = [
    ("topology.load_topology", "experiment", "load_topology"),
    ("topology.all_pairs", "experiment", "all_pairs"),
    ("topology.extract_path", "experiment", "extract_path"),
    ("topology.extract_path", "service_router", "extract_path"),
    ("topology.extract_path", "dns_baseline", "extract_path"),
    ("topology.extract_path", "rendezvous", "extract_path"),
    ("workload.load_population", "experiment", "load_population"),
    ("workload.assign_population", "experiment", "assign_population"),
    ("workload.build_catalogue", "experiment", "build_catalogue"),
    ("workload.draw_demand", "experiment", "draw_demand"),
    ("placement.place_all", "experiment", "place_all"),
    ("service_router.make_profiles", "experiment", "make_profiles"),
    ("service_router.build_rendezvous", "experiment", "build_rendezvous"),
    ("service_router.resolve_request", "experiment", "resolve_request"),
    ("service_router.group_rate", "experiment", "group_rate"),
    ("rendezvous.match", "rendezvous", "RendezvousTable.match"),
    ("dns_baseline.resolve_request_dns", "experiment", "resolve_request_dns"),
    ("forwarding.encode_tree", "experiment", "encode_tree"),
    ("forwarding.deliver", "experiment", "deliver"),
    ("forwarding.forward", "experiment", "forward"),
    ("forwarding.forward", "forwarding", "forward"),
    ("forwarding.label_arc", "forwarding", "label_arc"),
    ("experiment.run_trial", "experiment", "run_trial"),
    ("experiment.run_sweep", "experiment", "run_sweep"),
    ("experiment.run_sweep", "cli", "run_sweep"),
]

Observer = Callable[[tuple, object], None]


def self_times(starts: np.ndarray, ends: np.ndarray, parents: np.ndarray) -> np.ndarray:
    """Per-span self time: duration minus the summed durations of its children."""
    durations = np.asarray(ends, dtype=np.int64) - np.asarray(starts, dtype=np.int64)
    parents = np.asarray(parents, dtype=np.int64)
    nested = parents >= 0
    children = np.bincount(parents[nested], weights=durations[nested],
                           minlength=len(durations))
    return durations - children


class Tracer:
    """In-memory span recorder; ``wrap`` turns a function into a traced one."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("i")
        self._stack = [-1]

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn: Callable, observe: Observer | None = None) -> Callable:
        """Traced version of ``fn``; ``observe(args, result)`` runs after the span."""
        nid = self._name_id(name)
        name_ids, starts, ends, parents, stack = (
            self.name_ids, self.starts, self.ends, self.parents, self._stack)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        traced.perfbench_traced = True
        return traced

    def install(self, observers: dict[str, Observer] | None = None) -> list[str]:
        """Wrap every target in ``TARGETS`` that exists; return the wrapped ones."""
        observers = observers or {}
        installed = []
        for name, module_name, attr_path in TARGETS:
            owner = importlib.import_module(f"fogcast.{module_name}")
            *parents, attr = attr_path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None)
            if not callable(fn) or getattr(fn, "perfbench_traced", False):
                continue
            setattr(owner, attr, self.wrap(name, fn, observers.get(name)))
            installed.append(f"fogcast.{module_name}.{attr_path}")
        return installed

    def totals(self) -> dict[str, tuple[int, int, float]]:
        """Per span name: (calls, summed duration ns, summed self time ns)."""
        ids = np.frombuffer(self.name_ids, dtype=np.int32)
        starts = np.frombuffer(self.starts, dtype=np.int64)
        ends = np.frombuffer(self.ends, dtype=np.int64)
        own = self_times(starts, ends, np.frombuffer(self.parents, dtype=np.int32))
        n = len(self.names)
        calls = np.bincount(ids, minlength=n)
        total = np.bincount(ids, weights=ends - starts, minlength=n)
        self_ns = np.bincount(ids, weights=own, minlength=n)
        return {name: (int(calls[i]), int(total[i]), float(self_ns[i]))
                for i, name in enumerate(self.names)}

    def write(self, path: Path) -> None:
        """Write all spans as a compressed ``.npz`` (names, name, start, end, parent)."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name_ids, dtype=np.int32),
            start=np.frombuffer(self.starts, dtype=np.int64),
            end=np.frombuffer(self.ends, dtype=np.int64),
            parent=np.frombuffer(self.parents, dtype=np.int32),
        )
