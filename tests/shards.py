"""Helpers shared by the sharding tests: forcing shards, and where each call runs.

A plain module, imported as ``oracles`` is: a ``tests/conftest.py`` would
share the module name ``conftest`` with ``perfbench/tests/conftest.py``, and
which of the two ``import conftest`` finds depends on the order pytest
loads them in.

Every sharded pass of ``tqla`` goes through ``quantizer._run_shards``.
``sharding`` sets the constants that decide how many shards a call gets, so
that small inputs split as large ones do, and ``shard_counts`` records how
many an export call got. ``ThreadProbe`` records the thread of each kernel
call and of each public entry point, to check that shard 0 runs in the
calling thread, every other shard on the pool, and everything else in the
calling thread.
"""

import threading

import tqla
from tqla import packing, quantizer
from tqla.quantizer import GroupLayout


def sharding(mp, workers, block=None):
    """Split every sharded pass over ``workers`` shards through the monkeypatch ``mp``.

    One worker never splits; more workers split from one element, the
    export, layer step, snapshot and optimizer passes
    (``quantizer._SHARD_MIN``) and the decode (``packing._DECODE_SHARD_MIN``)
    alike. ``block`` replaces ``quantizer._SUM_BLOCK``, which sizes the sum
    buffers and the blocks of the snapshot and the optimizer, and picks the
    compares of the kernels.
    """
    least = 1 if workers > 1 else 1 << 62
    mp.setattr(quantizer, "_SHARD_MIN", least)
    mp.setattr(packing, "_DECODE_SHARD_MIN", least)
    mp.setattr(quantizer, "_usable_cpus", lambda: workers)
    if block is not None:
        mp.setattr(quantizer, "_SUM_BLOCK", block)


def shard_counts(mp):
    """Record the shards of every sharded export call through the monkeypatch ``mp``.

    Returns a list that gets one ``(name, shards)`` pair per call of
    ``_run_shards`` from ``quantizer`` or ``packing``: the function whose
    shards ran (``quantize``, ``deadzone_mask``, ``_pack_layer``,
    ``unpack_codes``) and how many there were.
    """
    calls = []
    run = quantizer._run_shards

    def recorded(work, shards):
        calls.append((work.__qualname__.split(".")[-3], len(shards)))
        return run(work, shards)

    for module in (quantizer, packing):
        mp.setattr(module, "_run_shards", recorded)
    return calls


def address(a):
    """Address of the first element of ``a``."""
    return a.__array_interface__["data"][0]


class ThreadProbe:
    """Where each kernel and each public entry point of ``tqla`` runs.

    Built on a monkeypatch, the probe wraps every public function of
    ``modules`` wherever a ``tqla`` module binds it, ``GroupLayout.__init__``
    and each ``(class, name)`` of ``methods``, and records each call's name,
    arguments and thread in ``calls``. ``kernel`` wraps a shard's kernel and
    records in ``kernels`` whether each call is shard 0 and its thread.
    """

    def __init__(self, mp, modules, methods=()):
        self.mp = mp
        self.calls = []  # (name, args, thread)
        self.kernels = []  # (name, whether the call is shard 0, thread)
        holders = [m for m in vars(tqla).values() if getattr(m, "__name__", "").startswith("tqla.")]
        holders.append(tqla)
        for module in modules:
            for name, value in list(vars(module).items()):
                if not (
                    callable(value)
                    and not name.startswith("_")
                    and not isinstance(value, type)
                    and getattr(value, "__module__", None) == module.__name__
                ):
                    continue
                for holder in holders:
                    for key, bound in list(vars(holder).items()):
                        if bound is value:
                            mp.setattr(holder, key, self._recorded(name, value))
        for cls, name in ((GroupLayout, "__init__"), *methods):
            mp.setattr(cls, name, self._recorded(name, getattr(cls, name)))

    def _recorded(self, name, fn):
        def wrapped(*args, **kwargs):
            self.calls.append((name, args, threading.current_thread()))
            return fn(*args, **kwargs)

        return wrapped

    def kernel(self, module, name, first):
        """Wrap ``module.name``; ``first(*args)`` tells whether a call is shard 0."""
        fn = getattr(module, name)

        def wrapped(*args, **kwargs):
            self.kernels.append((name, first(*args), threading.current_thread()))
            return fn(*args, **kwargs)

        self.mp.setattr(module, name, wrapped)

    def names(self):
        """Names of the wrapped entry points that were called."""
        return {name for name, _, _ in self.calls}

    def check(self):
        """Shard 0 and every entry point in the calling thread, every other shard on the pool."""
        main = threading.main_thread()
        assert {thread for _, _, thread in self.calls} == {main}
        assert {thread for _, first, thread in self.kernels if first} == {main}
        others = [thread for _, first, thread in self.kernels if not first]
        assert others and all(thread.name.startswith("tqla-shard") for thread in others)
