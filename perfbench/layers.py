"""Per-layer metrics of one traced sweep.

``LayerProbe`` supplies the observers that the tracer runs after a traced
call returns. They only count or keep references; everything costlier
(false-positive arcs, arc monotonicity) is worked out in ``metrics`` after
the sweep, off the clock.

Units: ``calls``, ``self_ms``, ``workload.*`` counts and ``fp_arcs`` are
per trial; ``_s`` metrics, ``csv_bytes`` and the monotonicity violations are
per run. Where each layer should show end to end:

- topology set-up (``load_topology_s``, ``all_pairs_s``) and
  ``workload.assign_population_s``: ``setup_s`` and ``peak_rss_mb`` on
  scale_2k, about zero elsewhere;
- ``topology.extract_path``: ``trials_per_s`` on grid_icn and grid_dns;
- ``workload.*``: ``trials_per_s`` everywhere, the floor no routing change
  removes; ``placement.place_all``: small, its cls share on grid_dns;
- ``rendezvous.match``, ``service_router.*``: ``trials_per_s`` and
  ``wall_s`` on grid_icn, no change expected on grid_dns;
  ``resolves_per_client_node`` is resolve calls / distinct client nodes;
- ``dns_baseline.*``: ``trials_per_s`` on grid_dns;
- ``forwarding.*``: ``trials_per_s`` and ``trial_ms_p95`` on bloom_icn,
  zero work elsewhere; ``fp_arcs`` are delivered arcs outside the
  encoded tree;
- ``experiment.run_trial.self_ms`` (the accounting loops):
  ``trials_per_s`` on grid_icn and bloom_icn; ``run_sweep.self_s``
  (aggregation and CSV output) and ``csv_bytes``: ``wall_s`` on grid_icn;
- ``arc_monotonicity_violations``: arc samples where an aggregated load
  exceeds unicast or a larger interval exceeds a smaller one; non-zero
  while unicast and catchment trees charge different paths.
"""
from __future__ import annotations

import numpy as np

# Arc loads are in bits; float summation order moves them far less than this.
REL_TOL = 1e-9

# (calls, total ns, self ns) of a span name that never ran.
_UNCALLED = (0, 0, 0.0)


class LayerProbe:
    def __init__(self) -> None:
        self.requests = 0
        self.distinct_keys = 0
        self.client_nodes = 0
        self.plans = 0
        self.local_plans = 0
        self.fallback_plans = 0
        self.encoded: list[tuple[object, frozenset[int]]] = []
        self.forwarded: list[tuple[object, set[int]]] = []
        self.outcomes: list[object] = []

    def observers(self) -> dict:
        return {
            "workload.draw_demand": self._on_demand,
            "service_router.resolve_request": self._on_plan,
            "dns_baseline.resolve_request_dns": self._on_plan,
            "forwarding.encode_tree": lambda args, fid: self.encoded.append((fid, args[0].arcs)),
            "forwarding.forward": lambda args, arcs: self.forwarded.append((args[0], arcs)),
            "experiment.run_trial": lambda args, outcome: self.outcomes.append(outcome),
        }

    def _on_demand(self, args, demand) -> None:
        self.requests += demand.total_requests
        self.distinct_keys += len(demand.requests)
        self.client_nodes += len({node for node, _ in demand.requests})

    def _on_plan(self, args, plan) -> None:
        self.plans += 1
        self.local_plans += plan.client_path_hops == 0
        self.fallback_plans += len(plan.legs) > 1

    def forwarding_arcs(self) -> tuple[int, int]:
        """(delivered arcs outside their encoded tree, delivered arcs in total)."""
        delivered: dict[int, set[int]] = {}
        for fid, arcs in self.forwarded:
            delivered.setdefault(id(fid), set()).update(arcs)
        outside = total = 0
        for fid, tree_arcs in self.encoded:
            arcs = delivered.get(id(fid), set())
            outside += len(arcs - tree_arcs)
            total += len(arcs)
        return outside, total

    def monotonicity_violations(self) -> int:
        """Arc samples where an aggregated load exceeds unicast, or a larger
        catchment interval exceeds a smaller one."""
        violations = 0
        for outcome in self.outcomes:
            unicast = outcome.unicast.arc_load
            loads = [outcome.by_catchment[t].arc_load for t in sorted(outcome.by_catchment)]
            for load in loads:
                violations += _exceeds(load, unicast)
            for smaller, larger in zip(loads, loads[1:]):
                violations += _exceeds(larger, smaller)
        return violations

    def metrics(self, totals: dict[str, tuple[int, int, float]]) -> dict[str, tuple[float, str]]:
        """Every per-layer metric as ``name -> (value, unit)``."""
        trials = max(len(self.outcomes), 1)

        def calls(name):
            return totals.get(name, _UNCALLED)[0] / trials

        def self_ms(name):
            return totals.get(name, _UNCALLED)[2] / trials / 1e6

        def seconds(name):
            return totals.get(name, _UNCALLED)[1] / 1e9

        resolves = calls("service_router.resolve_request") + calls(
            "dns_baseline.resolve_request_dns")
        fp_arcs, delivered = self.forwarding_arcs()
        return {
            "topology.load_topology_s": (seconds("topology.load_topology"), "s"),
            "topology.all_pairs_s": (seconds("topology.all_pairs"), "s"),
            "topology.extract_path.calls": (calls("topology.extract_path"), "calls"),
            "topology.extract_path.self_ms": (self_ms("topology.extract_path"), "ms"),
            "workload.assign_population_s": (seconds("workload.assign_population"), "s"),
            "workload.draw_demand.self_ms": (self_ms("workload.draw_demand"), "ms"),
            "workload.build_catalogue.self_ms": (self_ms("workload.build_catalogue"), "ms"),
            "workload.requests": (self.requests / trials, "count"),
            "workload.distinct_keys": (self.distinct_keys / trials, "count"),
            "placement.place_all.self_ms": (self_ms("placement.place_all"), "ms"),
            "rendezvous.match.calls": (calls("rendezvous.match"), "calls"),
            "rendezvous.match.self_ms": (self_ms("rendezvous.match"), "ms"),
            "service_router.resolve_request.calls": (
                calls("service_router.resolve_request"), "calls"),
            "service_router.resolve_request.self_ms": (
                self_ms("service_router.resolve_request"), "ms"),
            "service_router.group_rate.calls": (calls("service_router.group_rate"), "calls"),
            "service_router.group_rate.self_ms": (self_ms("service_router.group_rate"), "ms"),
            "service_router.resolves_per_client_node": (
                _ratio(resolves * trials, self.client_nodes), "ratio"),
            "service_router.local_serve_frac": (_ratio(self.local_plans, self.plans), "frac"),
            "service_router.fallback_frac": (_ratio(self.fallback_plans, self.plans), "frac"),
            "dns_baseline.resolve_request_dns.calls": (
                calls("dns_baseline.resolve_request_dns"), "calls"),
            "dns_baseline.resolve_request_dns.self_ms": (
                self_ms("dns_baseline.resolve_request_dns"), "ms"),
            "forwarding.label_arc.calls": (calls("forwarding.label_arc"), "calls"),
            "forwarding.label_arc.self_ms": (self_ms("forwarding.label_arc"), "ms"),
            "forwarding.forward.calls": (calls("forwarding.forward"), "calls"),
            "forwarding.forward.self_ms": (self_ms("forwarding.forward"), "ms"),
            "forwarding.encode_tree.self_ms": (self_ms("forwarding.encode_tree"), "ms"),
            "forwarding.deliver.self_ms": (self_ms("forwarding.deliver"), "ms"),
            "forwarding.fp_arcs": (fp_arcs / trials, "count"),
            "forwarding.tree_arc_frac": (_ratio(delivered - fp_arcs, delivered), "frac"),
            "experiment.run_trial.self_ms": (self_ms("experiment.run_trial"), "ms"),
            "experiment.run_sweep.self_s": (
                totals.get("experiment.run_sweep", _UNCALLED)[2] / 1e9, "s"),
            "experiment.arc_monotonicity_violations": (self.monotonicity_violations(), "count"),
        }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _exceeds(load: np.ndarray, bound: np.ndarray) -> int:
    return int(np.count_nonzero(load > bound + REL_TOL * np.maximum(np.abs(bound), 1.0)))
