"""Empty: scoped names, the rendezvous table and its delivery trees are the
scalar oracles in ``tests/oracles.py``, and ``NoSubscriberError`` is in
``errors``. The module stays only because perfbench's tracer imports every
module it names.
"""
