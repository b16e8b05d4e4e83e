"""Flow-level simulator of service-routed fog delivery.

Requests are matched to their true nearest service point by a pub/sub
rendezvous function, responses can be aggregated into stateless
source-routed multicast trees, and the whole pipeline is compared against
a resolver-redirection baseline on seeded, reproducible trials.
"""
from .experiment import ScenarioConfig, backhaul, ecdf, run_sweep, run_trial
from .topology import load_topology

__all__ = [
    "ScenarioConfig",
    "backhaul",
    "ecdf",
    "run_sweep",
    "run_trial",
    "load_topology",
]

__version__ = "0.1.0"
