"""Span tracing of tqla's layers, done from outside the package.

A ``Tracer`` replaces public entry points with wrappers that record one
span per call: name, start, end and the index of the enclosing span. Every
binding of an entry point in the loaded ``tqla`` modules is replaced, so a
name that ``training`` or ``qat`` imported from ``quantizer`` is traced
too. ``uninstall`` puts the originals back and reports any binding that
did not come back.
"""

from __future__ import annotations

import gzip
import json
import sys
import time

#: (span name, dotted owner, attribute) for every traced entry point.
TARGETS = (
    ("training.train_toy", "tqla.training", "train_toy"),
    ("qat.forward", "tqla.qat:QuantLinearLayer", "forward"),
    ("qat.backward", "tqla.qat:QuantLinearLayer", "backward"),
    ("qat.optimizer_step", "tqla.qat", "optimizer_step"),
    ("quantizer.quantize", "tqla.quantizer", "quantize"),
    ("quantizer.dequantize", "tqla.quantizer", "dequantize"),
    ("quantizer.deadzone_mask", "tqla.quantizer", "deadzone_mask"),
    ("quantizer.tequila_bias", "tqla.quantizer", "tequila_bias"),
    ("quantizer.group_layout", "tqla.quantizer:GroupLayout", "__init__"),
    ("diagnostics.take_snapshot", "tqla.diagnostics", "take_snapshot"),
    ("packing.pack_model", "tqla.packing", "pack_model"),
    ("packing.write_packed", "tqla.packing", "write_packed"),
    ("packing.read_packed", "tqla.packing", "read_packed"),
    ("packing.unpack_codes", "tqla.packing:PackedLayer", "unpack_codes"),
)

TRACED_NAMES = tuple(name for name, _, _ in TARGETS)


def _resolve(dotted: str):
    module_name, _, cls = dotted.partition(":")
    owner = sys.modules[module_name]
    return getattr(owner, cls) if cls else owner


class Tracer:
    """In-memory spans in parallel lists; index order is start order."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.starts.append(0.0)
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts[i] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.ends[i] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def install(self) -> None:
        """Wrap every binding of each target in the loaded tqla modules."""
        modules = [
            m for n, m in sorted(sys.modules.items()) if n == "tqla" or n.startswith("tqla.")
        ]
        for name, dotted, attr in TARGETS:
            owner = _resolve(dotted)
            original = vars(owner)[attr]
            wrapper = self.wrap(name, original)
            holders = [owner] if isinstance(owner, type) else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
                        self._patches.append((holder, key, original))

    def uninstall(self) -> list[str]:
        """Restore every patched binding; returns those left unrestored."""
        for holder, key, original in reversed(self._patches):
            setattr(holder, key, original)
        left = [
            f"{getattr(holder, '__name__', holder)}.{key}"
            for holder, key, original in self._patches
            if vars(holder).get(key) is not original
        ]
        self._patches = []
        return left

    def write(self, path) -> None:
        """Write the spans as gzipped JSON: a name table and one row per span."""
        table = sorted(set(self.names))
        ids = {n: i for i, n in enumerate(table)}
        rows = [
            [ids[n], s, e, p]
            for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
        ]
        doc = {"names": table, "columns": ["name", "start", "end", "parent"], "spans": rows}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh)


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread, so children of a span never overlap and
    the time they cover is the sum of their durations.
    """
    out = [e - s for s, e in zip(starts, ends)]
    for i, p in enumerate(parents):
        if p >= 0:
            out[p] -= ends[i] - starts[i]
    return out


def roots(parents) -> list[int]:
    """Index of the outermost enclosing span of each span (itself if none)."""
    out = []
    for i, p in enumerate(parents):
        out.append(i if p < 0 else out[p])
    return out
