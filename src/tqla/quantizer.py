"""Ternary weight quantization.

Pure functions mapping full-precision weight matrices to ternary codes with
per-group scales and thresholds, plus deadzone identification and the
deadzone-sum bias used by the tequila scheme.

Weight matrices are plain 2-D float64 numpy arrays (rows = output channels,
cols = input features). Group statistics and the tequila row sums are
accumulated strictly left-to-right by one helper, ``_sequential_sums``, so
that results are bit-identical to a naive scalar loop over the same
elements; the test suite relies on this. The helper gets its speed from a
cache-sized transposed copy: numpy's ``add.reduce`` over the leading axis
of a contiguous block adds one row of the block at a time, so every output
is still a strict left-to-right sum while the additions run across many
runs at once. Its docstring lists the two cases in which that reduce would
not match the scalar loop, and what is done about each.

For a ``w`` larger than one such block no step builds a float64 matrix of
its size: the summed terms (``|w|``, or the weights a mask selects) are
formed block by block on their way into the buffer; per-group thresholds
and scales reach the elements by broadcasting (``GroupLayout.apply``), not
by an expanded copy; and the deadzone ``|w| < delta`` is read from the
compares ``w >= delta`` and ``w <= -delta`` that also give the codes. A
smaller ``w`` is compared against one expansion of its thresholds, which
stays in cache.

The three export calls, ``quantize``, ``deadzone_mask`` and
``packing.pack_model``, split a large matrix into row ranges ("shards"),
one per usable CPU, and run them at once on a small thread pool while the
calling thread waits. numpy releases the GIL inside its ufunc, ``take``
and reduce loops, so the shards do run in parallel. The split is exact: a per-group or per-channel
group lies within one row, so a shard's sums, thresholds, codes and mask
depend only on its own rows and are bit for bit those of one pass over the
matrix, and ``pack_model`` cuts on multiples of 8 rows so that each shard
encodes whole index and sign bytes. A per-tensor group spans every row, so
``quantize`` and ``deadzone_mask`` keep such a matrix on one shard.
Matrices below ``_SHARD_MIN`` elements stay on one shard, run inline: for
them the hand-over to the pool costs more than the second core gives.
Workers call only the private kernels; every public entry point and each
shard's ``GroupLayout`` run in the calling thread.

The export checks each weight matrix for NaN and Inf once. ``quantize``
reads finiteness from its ``|w|`` group sums and ``pack_model`` from its
masked row sums (NaN and Inf times a clear mask bit are NaN); only when a
sum is not finite is the matrix scanned, to tell a non-finite weight from
finite weights whose sum overflows. ``deadzone_mask`` scans in its shards.
"""

from __future__ import annotations

import numbers
import os
import threading
from collections import deque
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import InvalidParam, InvalidShape, InvalidThreshold, TqlaError, UnsupportedScheme

PER_TENSOR = "per-tensor"
PER_CHANNEL = "per-channel"
PER_GROUP = "per-group"
GRANULARITY_KINDS = (PER_TENSOR, PER_CHANNEL, PER_GROUP)

DEFAULT_GROUP_SIZE = 128

#: Schemes with fully static (alpha, delta) estimators.
STATIC_SCHEMES = ("absmean", "twn")


@dataclass(frozen=True)
class Granularity:
    """How a weight matrix is partitioned into quantization groups.

    ``per-tensor`` is a single group spanning the whole matrix,
    ``per-channel`` is one group per output row, and ``per-group`` slices
    each row into contiguous blocks of ``group_size`` columns (the last
    block may be short). ``per-channel`` is identical to ``per-group`` with
    ``group_size == cols``.
    """

    kind: str = PER_GROUP
    group_size: int = DEFAULT_GROUP_SIZE

    def __post_init__(self):
        if self.kind not in GRANULARITY_KINDS:
            raise InvalidParam(f"unknown granularity kind: {self.kind!r}")
        # every kind carries a positive size, so reports never show a negative one
        object.__setattr__(self, "group_size", _count("group_size", self.group_size, 1))

    def to_dict(self):
        return {"kind": self.kind, "group_size": self.group_size}

    @classmethod
    def from_dict(cls, d):
        if not isinstance(d, dict) or "kind" not in d:
            raise InvalidParam(f"granularity must be a dict with a 'kind', got {d!r}")
        return cls(kind=d["kind"], group_size=d.get("group_size", DEFAULT_GROUP_SIZE))


class GroupLayout:
    """A granularity resolved against a concrete matrix shape.

    The matrix is read through a 2-D view: ``(1, rows * cols)`` for
    per-tensor, ``(rows, cols)`` otherwise. Groups are runs of ``size``
    elements along each view row (``size`` is the whole view row for
    per-tensor and per-channel, and never more than it); the full runs are
    one reshape of the view and a short last run, when ``size`` does not
    divide the row, is the tail. ``lens`` holds the run lengths of one view
    row and group ``(r, k)`` of view row ``r`` has flat id
    ``r * groups_per_row + k``.
    """

    def __init__(self, granularity: Granularity, rows: int, cols: int):
        if rows < 1 or cols < 1:
            raise InvalidShape(f"matrix must be at least 1x1, got {rows}x{cols}")
        self.granularity = _granularity("granularity", granularity)
        self.rows = rows
        self.cols = cols
        if granularity.kind == PER_TENSOR:
            self.view = (1, rows * cols)
        else:
            self.view = (rows, cols)
        width = self.view[1]
        if granularity.kind == PER_GROUP:
            self.size = min(granularity.group_size, width)
        else:
            self.size = width
        full, tail = divmod(width, self.size)
        self.lens = np.array([self.size] * full + [tail] * (tail > 0), dtype=np.int64)
        self.groups_per_row = len(self.lens)
        self.n_groups = self.view[0] * self.groups_per_row
        self._cut = full * self.size  # view columns in full runs; a tail follows when < width
        self._runs = (self.view[0], full, self.size)

    def _table(self, per_group) -> np.ndarray:
        """One value per group as a (view rows, groups per row) table."""
        per_group = np.asarray(per_group)
        if per_group.shape != (self.n_groups,):
            raise InvalidShape(
                f"expected {self.n_groups} per-group values, got shape {per_group.shape}"
            )
        return per_group.reshape(self.view[0], self.groups_per_row)

    def _views(self, elem: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """(full runs as (view rows, full, size), tail as (view rows, 1, tail) or None)."""
        if elem.shape != (self.rows, self.cols):
            raise InvalidShape(f"expected {(self.rows, self.cols)}, got {elem.shape}")
        v = elem.reshape(self.view)
        cut = self._cut
        return v[:, :cut].reshape(self._runs), (v[:, None, cut:] if cut < self.view[1] else None)

    def expand(self, per_group: np.ndarray) -> np.ndarray:
        """Broadcast one value per group to a full (rows, cols) matrix."""
        return np.repeat(self._table(per_group), self.lens, axis=1).reshape(self.rows, self.cols)

    def apply(self, op: np.ufunc, elem: np.ndarray, per_group, out=None) -> np.ndarray:
        """``op(elem, self.expand(per_group), out=out)`` for a binary ufunc, without the expansion.

        The table of group values broadcasts over the full runs of the view
        and its last column over the tail, so every element meets the same
        value as in the expanded matrix and the result is identical. ``out``,
        when given, is a (rows, cols) array for the result; it may be ``elem``.
        """
        table = self._table(per_group)[:, :, None]
        runs, tail = self._views(elem)
        if out is None:
            if tail is None:
                return op(runs, table).reshape(self.rows, self.cols)
            dtype = op(elem[:0, :0], table[:0, 0]).dtype  # an empty call picks the loop
            out = np.empty((self.rows, self.cols), dtype=dtype)
        out_runs, out_tail = self._views(out)
        full = self._runs[1]
        op(runs, table[:, :full], out=out_runs)
        if tail is not None:
            op(tail, table[:, full:], out=out_tail)
        return out

    def _reduce(self, run_sums, *elems: np.ndarray) -> np.ndarray:
        """Apply ``run_sums`` (sums along the last axis) to every group's run of ``elems``."""
        runs, tails = zip(*(self._views(e) for e in elems))
        sums = run_sums(*runs)
        if tails[0] is not None:
            sums = np.concatenate([sums, run_sums(*tails)], axis=1)
        return sums.reshape(-1)

    def reduce_sum(self, elem: np.ndarray) -> np.ndarray:
        """Sum a (rows, cols) matrix over each group; returns (n_groups,)."""
        return self._reduce(lambda runs: runs.sum(axis=-1), elem)

    def _seq_group_sums(self, elem, mask=None, magnitude=False) -> np.ndarray:
        """Left-to-right sequential group sums, matching a scalar loop exactly.

        The summed terms are those of ``_sequential_sums``: ``elem``, or
        ``|elem|`` with ``magnitude``, where the bool ``mask`` is set.
        """
        arrays = (elem,) if mask is None else (elem, mask)
        return self._reduce(partial(_sequential_sums, magnitude=magnitude), *arrays)


@dataclass
class QuantizedTensor:
    """Ternary codes plus one (scale, threshold) pair per group.

    ``codes`` is int8 in {-1, 0, +1}; ``scales`` and ``thresholds`` are
    float64 arrays indexed by flat group id of ``layout``, the group layout
    the tensor was quantized with. A group whose scale is zero is
    degenerate: its codes are all zero and it contributes nothing.
    """

    codes: np.ndarray
    scales: np.ndarray
    thresholds: np.ndarray
    layout: GroupLayout

    @property
    def rows(self) -> int:
        return self.codes.shape[0]

    @property
    def cols(self) -> int:
        return self.codes.shape[1]

    @property
    def granularity(self) -> Granularity:
        return self.layout.granularity

    def element_scales(self) -> np.ndarray:
        return self.layout.expand(self.scales)

    def element_thresholds(self) -> np.ndarray:
        return self.layout.expand(self.thresholds)


def _granularity(name: str, value) -> Granularity:
    """``value`` if it is a ``Granularity``, else InvalidParam naming ``name``."""
    if not isinstance(value, Granularity):
        raise InvalidParam(f"{name} must be a Granularity, got {value!r}")
    return value


def _as_matrix(w, scan=True) -> np.ndarray:
    """``w`` as a non-empty float64 matrix; with ``scan``, also checked finite."""
    w = np.asarray(w, dtype=np.float64)
    if w.ndim == 1:
        w = w.reshape(1, -1)
    if w.ndim != 2 or w.size == 0:
        raise InvalidShape(f"expected a non-empty 2-D weight matrix, got shape {w.shape}")
    if scan:
        _require_finite(w)
    return w


def _require_finite(w: np.ndarray) -> None:
    if not np.isfinite(w).all():
        raise InvalidParam("weight matrix contains NaN or Inf")


def _count(name: str, value, minimum: int) -> int:
    """``value`` as an int; InvalidParam for a bool, a non-integer or a value below ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidParam(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise InvalidParam(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def _real(name: str, value) -> float:
    """``value`` as a float; InvalidParam for a bool or a value that is not a real number."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InvalidParam(f"{name} must be a real number, got {value!r}")
    return float(value)


def _real_where(rule: str, holds):
    """Check of a real parameter: its float, or InvalidParam when ``holds`` is false for it."""

    def check(name, value):
        value = _real(name, value)
        if not holds(value):
            raise InvalidParam(f"{name} must be {rule}, got {value}")
        return value

    return check


_lam = _real_where("finite", np.isfinite)


#: Elements (512 KiB of float64) copied per block by ``_sequential_sums``.
_SUM_BLOCK = 1 << 16


def _sequential_sums(a: np.ndarray, mask=None, magnitude=False) -> np.ndarray:
    """Strict left-to-right sums along the last axis, bit for bit.

    The summed terms are ``a``, or ``|a|`` with ``magnitude``, where the bool
    ``mask`` (of ``a``'s shape) is set, and +0.0 where it is clear: the
    result equals ``np.add.accumulate(np.where(mask, t, 0.0), axis=-1)[..., -1]``
    with ``t`` those terms. Each sum is that of a scalar loop starting from
    the run's first term (not from 0.0, so a run of -0.0 sums to -0.0).
    ``a`` has at least two axes. Blocks of about ``_SUM_BLOCK`` elements,
    whole indices of the first axis at a time, are copied with all axes
    reversed into one reused contiguous buffer, so the summed axis comes
    first; the terms are formed on the way (a masked block is first
    multiplied by its mask into a second block-sized buffer, and ``np.abs``
    runs in place after the copy), and ``np.add.reduce`` over the buffer
    then adds its rows one after another, each output a left-to-right sum.
    Two guards keep the result exact:

    - A block holding a single run reduces as a 1-D array, which numpy sums
      pairwise; such a run (a row wider than half a block, or a short last
      block) is summed with ``np.add.accumulate`` instead, one buffer-sized
      chunk at a time, each chunk's first term adding the total so far.
    - ``add.reduce`` starts from +0.0, so a run made only of -0.0 sums to
      +0.0 where the scalar loop gives -0.0; and the mask multiply leaves
      -0.0, not +0.0, for a clear negative term. Signed zero terms change a
      left-to-right sum only while it is zero, so only the outputs that are
      zero can differ: they are recomputed with ``np.add.accumulate`` over
      the ``np.where`` form of their runs. Magnitudes hold no -0.0, so with
      ``magnitude`` every zero output is already +0.0 and none is redone.
    """
    n = a.shape[-1]
    per_index = a[0].size
    step = max(1, _SUM_BLOCK // per_index)
    out = np.empty(a.shape[:-1], dtype=a.dtype)
    size = min(step, a.shape[0]) * per_index
    if per_index == n:  # every block of one index is a single run, summed in chunks
        size = min(size, _SUM_BLOCK)
    buf = np.empty(size, dtype=a.dtype)
    masked = None if mask is None else np.empty(size, dtype=a.dtype)

    def terms(part):
        """Block ``part(a)``'s terms, selected by ``part(mask)``, in ``buf``, axes reversed."""
        src = part(a)
        if mask is not None:
            src = np.multiply(src, part(mask), out=masked[: src.size].reshape(src.shape))
        t = buf[: src.size].reshape(src.shape[::-1])
        np.copyto(t, src.T)
        if magnitude:
            np.abs(t, out=t)
        return t

    for i in range(0, a.shape[0], step):
        block = a[i : i + step]
        if block.size == n:
            for j in range(0, n, size):
                t = terms(lambda x: x[i].reshape(n)[j : j + size])
                if j:
                    t[0] += total
                total = np.add.accumulate(t, out=t)[-1]
            out[i] = total
            continue
        t = terms(lambda x: x[i : i + step])
        np.add.reduce(t, axis=0, out=out[i : i + step].T)
    if not magnitude:
        zero = out == 0.0
        if zero.any():
            runs = a[zero] if mask is None else np.where(mask[zero], a[zero], 0.0)
            out[zero] = np.add.accumulate(runs, axis=-1)[:, -1]
    return out


#: Elements (3 MiB of float64) from which a matrix is split into shards. In
#: four-layer export loops on 2 cores sharding won 5 of 5 pairs from 660x660
#: up, but only 3-10% in 3-4 of 5 from 512x512 to 600x600.
_SHARD_MIN = 3 << 17

_pool = None  # a concurrent.futures.ThreadPoolExecutor, made on first use
_pool_lock = threading.Lock()


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _row_ranges(rows: int, size: int, align: int = 1) -> list[tuple[int, int]]:
    """Half-open row ranges, one per usable CPU, of a matrix of ``size`` elements.

    Every range but the last holds a multiple of ``align`` rows. A matrix
    below ``_SHARD_MIN`` elements, or a process with one usable CPU, gets
    the single range ``(0, rows)``.
    """
    if size < _SHARD_MIN:
        return [(0, rows)]
    step = -(-rows // _usable_cpus())
    step += -step % align
    return [(lo, min(lo + step, rows)) for lo in range(0, rows, step)]


def _group_shards(layout: GroupLayout) -> list[tuple[slice, slice, GroupLayout]]:
    """(row slice, group-id slice, layout) of each shard of a matrix with ``layout``.

    Ranges run over the layout's view rows, so a per-tensor matrix is one
    shard; a single shard keeps ``layout`` itself. The shards' layouts are
    built here, in the calling thread.
    """
    ranges = _row_ranges(layout.view[0], layout.rows * layout.cols)
    if len(ranges) == 1:
        return [(slice(None), slice(None), layout)]
    g = layout.groups_per_row
    parts = [GroupLayout(layout.granularity, hi - lo, layout.cols) for lo, hi in ranges]
    return [(slice(lo, hi), slice(lo * g, hi * g), p) for (lo, hi), p in zip(ranges, parts)]


def _run_shards(work, shards) -> list:
    """``[work(*shard) for shard in shards]``, all at once when there are several.

    One shard runs inline. Several go to the pool as one task per shard,
    each taking shards from a shared queue until it is empty, so that a
    task that starts late (its CPU busy elsewhere) leaves its shard to
    another. The calling thread waits meanwhile, which frees its CPU for a
    pool thread. Each shard runs under the caller's numpy error state.
    """
    if len(shards) == 1:
        return [work(*shards[0])]
    # imported here, so that a process that never shards does not load it
    from concurrent.futures import ThreadPoolExecutor, wait

    state = np.geterr()
    results = [None] * len(shards)
    pending = deque(enumerate(shards))

    def drain():
        with np.errstate(**state):
            while True:
                try:
                    i, shard = pending.popleft()
                except IndexError:
                    return
                try:
                    results[i] = work(*shard)
                except BaseException:
                    pending.clear()  # start no further shard
                    raise

    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(len(shards), thread_name_prefix="tqla-shard")
        pool = _pool
    drains = [pool.submit(drain) for _ in shards]
    wait(drains)
    for drained in drains:
        drained.result()
    return results


def _drop_pool() -> None:
    """Forget the pool in a forked child, whose copy of it has no threads."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_pool)


def _per_tensor_params(w, scheme: str) -> tuple[float, float]:
    """(scale, threshold) of ``w``, of any shape, quantized as one per-tensor group."""
    q = quantize(np.reshape(w, (1, -1)), scheme, Granularity(PER_TENSOR))
    return float(q.scales[0]), float(q.thresholds[0])


def absmean_params(w) -> tuple[float, float]:
    """Absmean estimator: alpha = mean |w|, delta = alpha / 2.

    ``w`` of any shape is one group, scaled and checked by per-tensor ``quantize``.
    """
    return _per_tensor_params(w, "absmean")


def twn_params(w) -> tuple[float, float]:
    """Threshold-first estimator: delta = 0.75 * mean |w|.

    Alpha is the mean of |w| over the elements at or outside the threshold,
    which minimizes the squared reconstruction error for that fixed delta.
    An empty outside set yields alpha = 0 (degenerate group). Computed like
    ``absmean_params``.
    """
    return _per_tensor_params(w, "twn")


def ternarize(w, delta: float) -> np.ndarray:
    """Map weights to codes in {-1, 0, +1} for a single threshold.

    Branches are evaluated top-down: w >= delta -> +1, then |w| < delta -> 0,
    else -1. Values exactly at +-delta therefore quantize to +-1, and at
    delta == 0 a zero weight takes the first branch (+1).
    """
    delta = float(delta)
    if not np.isfinite(delta) or delta < 0:
        raise InvalidThreshold(f"threshold must be finite and >= 0, got {delta}")
    w = np.asarray(w, dtype=np.float64)
    if not np.isfinite(w).all():
        raise InvalidParam("weights contain NaN or Inf")
    return _ternary(w >= delta, np.abs(w) >= delta)[0]


def _sides(w: np.ndarray, layout: GroupLayout, deltas, pos=None, live=None):
    """(``w >= delta``, ``|w| >= delta``) with each element's group threshold.

    Every delta is >= 0 or +inf; ``w`` is finite, or its caller rejects it
    after the compares, where NaN is on neither side. A matrix larger than one
    ``_SUM_BLOCK`` is compared by broadcasting, with ``|w| >= delta`` read
    as ``w >= delta or w <= -delta``, so that it holds no float64 matrix of
    its size. A smaller one is compared against one expansion of the
    thresholds and its ``|w|``: both stay in cache, where numpy's
    contiguous compares beat broadcasts over short group runs. Both give
    the same bits. ``pos`` and ``live``, when given, are bool arrays of
    ``w``'s shape for the two results.
    """
    if w.size > _SUM_BLOCK:
        pos = layout.apply(np.greater_equal, w, deltas, out=pos)
        live = layout.apply(np.less_equal, w, -deltas, out=live)
        return pos, np.logical_or(live, pos, out=live)
    thr = layout.expand(deltas)
    return np.greater_equal(w, thr, out=pos), np.greater_equal(np.abs(w), thr, out=live)


def _ternary(pos: np.ndarray, live: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(int8 codes, bool deadzone mask) of the top-down ternarizer; consumes both.

    ``pos`` is ``w >= delta`` and ``live`` is ``|w| >= delta``: +1 where
    ``pos``, -1 where ``live`` but not ``pos``, 0 (the deadzone) elsewhere.
    So at delta == 0 a zero weight takes the first branch (+1).
    """
    neg = np.logical_xor(live, pos)  # pos implies live
    codes = pos.view(np.int8)
    np.subtract(codes, neg.view(np.int8), out=codes)
    return codes, np.logical_not(live, out=live)


def _group_params(w: np.ndarray, scheme: str, layout: GroupLayout):
    """Per-group (alpha, delta) arrays for a static scheme."""
    counts = np.tile(layout.lens.astype(np.float64), layout.view[0])
    means = layout._seq_group_sums(w, magnitude=True) / counts
    if scheme == "absmean":
        return means, means / 2.0
    # twn: threshold first, then the mean of |w| over the kept elements (|w| >= delta)
    deltas = 0.75 * means
    keep = _sides(w, layout, deltas)[1]
    kept_totals = layout._seq_group_sums(w, keep, magnitude=True)
    kept_counts = layout.reduce_sum(keep)
    alphas = np.divide(
        kept_totals, kept_counts, out=np.zeros_like(kept_totals), where=kept_counts > 0
    )
    return alphas, deltas


def quantize(w, scheme: str, granularity: Granularity) -> QuantizedTensor:
    """Quantize a weight matrix group-wise under a static scheme.

    Each group's (alpha, delta) comes from the scheme estimator, codes from
    the top-down ternarizer. Groups with alpha == 0 are forced to all-zero
    codes so the representation stays canonical.
    """
    if scheme not in STATIC_SCHEMES:
        raise UnsupportedScheme(
            f"unknown scheme {scheme!r}; static schemes are {STATIC_SCHEMES}"
        )
    w = _as_matrix(w, scan=False)
    try:
        layout = GroupLayout(granularity, *w.shape)
    except TqlaError:
        _require_finite(w)  # a non-finite weight is reported first
        raise
    codes = np.empty(w.shape, dtype=np.int8)
    scales = np.empty(layout.n_groups)
    thresholds = np.empty(layout.n_groups)

    def shard(rows, groups, part):
        q = _quantized_view(w[rows], scheme, part, codes=codes[rows])[0]
        scales[groups] = q.scales
        thresholds[groups] = q.thresholds

    _run_shards(shard, _group_shards(layout))
    # each threshold is a finite multiple of its group's |w| sum, which is
    # NaN or Inf for a non-finite weight and Inf when finite weights overflow
    if not np.isfinite(thresholds).all():
        _require_finite(w)
    return QuantizedTensor(codes=codes, scales=scales, thresholds=thresholds, layout=layout)


def _quantized_view(w: np.ndarray, scheme: str, layout: GroupLayout, params=None, codes=None):
    """``quantize`` without validation, plus the deadzone mask it computes.

    ``params`` gives the per-group (alpha, delta) instead of the ``scheme``
    estimator. Returns ``(tensor, mask)``: the bool mask ``|w| < delta`` is
    the ternarizer's zero branch, so it comes from the same compares as the
    codes. Groups with alpha == 0 have their codes forced to zero. The
    tensor owns ``layout`` and, when given, ``codes``: an int8 array of
    ``w``'s shape that receives the codes.
    """
    alphas, deltas = _group_params(w, scheme, layout) if params is None else params
    pos = None if codes is None else codes.view(bool)
    codes, dead = _ternary(*_sides(w, layout, deltas, pos))
    degenerate = alphas == 0.0
    if degenerate.any():
        codes[layout.expand(degenerate)] = 0
    return QuantizedTensor(codes=codes, scales=alphas, thresholds=deltas, layout=layout), dead


def dequantize(q: QuantizedTensor) -> np.ndarray:
    """Reconstruct the quantized weights: element = code * group scale."""
    w_q = q.codes.astype(np.float64)
    return q.layout.apply(np.multiply, w_q, q.scales, out=w_q)


def deadzone_mask(w, q: QuantizedTensor) -> np.ndarray:
    """Bool mask of elements with |w| strictly below their group threshold.

    Every threshold must be >= 0 (+inf included), as ``quantize`` makes
    them; a NaN or negative one raises InvalidThreshold.
    """
    w = _as_matrix(w, scan=False)
    thresholds = np.asarray(q.thresholds)
    try:
        if w.shape != q.codes.shape:
            raise InvalidShape(f"weights {w.shape} do not match codes {q.codes.shape}")
        if not (thresholds >= 0).all():
            bad = thresholds[~(thresholds >= 0)][0]
            raise InvalidThreshold(f"thresholds must be >= 0, got {bad}")
        q.layout._table(thresholds)  # one per group, before the shards slice them
    except TqlaError:
        _require_finite(w)  # a non-finite weight is reported first
        raise
    mask = np.empty(w.shape, dtype=bool)

    def shard(rows, groups, part):
        if not np.isfinite(w[rows]).all():
            return False
        live = _sides(w[rows], part, thresholds[groups], live=mask[rows])[1]
        np.logical_not(live, out=live)
        return True

    if not all(_run_shards(shard, _group_shards(q.layout))):
        _require_finite(w)
    return mask


def tequila_bias(w, mask, lam: float) -> np.ndarray:
    """Per-row bias: values[r] = lam * sum of row r's weights where bool ``mask`` is set."""
    w = _as_matrix(w)
    mask = np.asarray(mask, dtype=bool)
    if w.shape != mask.shape:
        raise InvalidShape(f"weights {w.shape} do not match mask {mask.shape}")
    return _tequila_bias(w, mask, _lam("lambda", lam))


def _tequila_bias(w: np.ndarray, dead: np.ndarray, lam: float) -> np.ndarray:
    """``tequila_bias`` without validation; ``w`` must be finite.

    The sums are those of ``np.where(dead, w, 0.0)``, the selected weights
    formed block by block inside ``_sequential_sums``.
    """
    return lam * _sequential_sums(w, dead)
