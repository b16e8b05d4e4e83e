"""Empty: scoped names, the rendezvous table, its error and its delivery
trees are the scalar oracles in ``tests/oracles.py``. The module stays only
because perfbench's tracer imports every module it names.
"""
