"""Empty: resolver redirection runs through ``service_router.resolve_nodes``,
and its scalar oracle ``resolve_request_dns`` is in ``tests/oracles.py``. The
module stays only because perfbench's tracer imports every module it names.
"""
