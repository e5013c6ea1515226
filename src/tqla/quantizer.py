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
by an expanded copy; and ``quantize`` reads the codes and the deadzone
``|w| < delta`` from the compares ``w >= delta`` and ``w <= -delta``. A
smaller ``w`` is compared against one expansion of its thresholds, which
stays in cache. ``deadzone_mask`` reads each weight once: it forms ``|w|``
in one block-sized float64 buffer and compares each element once with its
group threshold, broadcast over the group's run. One planner,
``_block_plan``, cuts the blocks of both passes that compare weights with
their thresholds, ``deadzone_mask`` and the trap snapshot
(``diagnostics.take_snapshot``), and makes their views in the calling
thread; one check, ``_checked_pair``, checks the (weights, quantized)
pair of either.

``quantize`` and ``deadzone_mask`` split a matrix of ``_SHARD_MIN``
elements or more into row ranges ("shards"), one per usable CPU, and run
them at once through ``_run_shards``, whose docstring states the contract
every sharded pass of the package keeps. The split is exact: a per-group
or per-channel group lies within one row, so a shard's sums, thresholds,
codes and mask depend only on its own rows and are bit for bit those of
one pass over the matrix. A per-tensor group spans every row, so such a
matrix stays on one shard. A smaller matrix also stays on one shard, run
inline: for it the hand-over to the pool costs more than the second core
gives. The shards of a split matrix size their float64 buffers, the sum
buffers, any expanded compare and the deadzone's ``|w|`` block, from their
share of it (``_export_block``), so that all of them at once hold about half
a float64 matrix at most; a call on one shard keeps blocks of
``_SUM_BLOCK``.

The export checks each weight matrix for NaN and Inf once. ``quantize``
reads finiteness from its ``|w|`` group sums and ``pack_model`` from its
masked row sums (NaN and Inf times a clear mask bit are NaN); only when a
sum is not finite is the matrix scanned, to tell a non-finite weight from
finite weights whose sum overflows. ``deadzone_mask`` reads finiteness
from the maximum of each ``|w|`` block, and scans only a block whose
maximum is not finite.
"""

from __future__ import annotations

import numbers
import os
import threading
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
        unknown = set(d) - {"kind", "group_size"}
        if unknown:
            raise InvalidParam(f"unknown granularity keys: {sorted(unknown, key=repr)}")
        return cls(**d)


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

    def expand(self, per_group: np.ndarray, out=None) -> np.ndarray:
        """Broadcast one value per group to a full (rows, cols) matrix, or into ``out``."""
        table = self._table(per_group)[:, :, None]
        if out is None:
            out = np.empty((self.rows, self.cols), dtype=table.dtype)
        runs, tail = self._views(out)
        full = self._runs[1]
        np.copyto(runs, table[:, :full])
        if tail is not None:
            np.copyto(tail, table[:, full:])
        return out

    def apply(self, op: np.ufunc, elem: np.ndarray, per_group, out: np.ndarray) -> np.ndarray:
        """``op(elem, self.expand(per_group), out=out)`` for a binary ufunc, without the expansion.

        The table of group values broadcasts over the full runs of the view
        and its last column over the tail, so every element meets the same
        value as in the expanded matrix and the result is identical. ``out``
        is a (rows, cols) array for the result; it may be ``elem``.
        """
        table = self._table(per_group)[:, :, None]
        runs, tail = self._views(elem)
        out_runs, out_tail = self._views(out)
        full = self._runs[1]
        op(runs, table[:, :full], out=out_runs)
        if tail is not None:
            op(tail, table[:, full:], out=out_tail)
        return out

    def _reduce(self, run_sums, *elems: np.ndarray) -> np.ndarray:
        """Apply ``run_sums`` to every group's run of ``elems``; float64 (n_groups,).

        ``run_sums(*runs, out=)`` writes the sums along the last axis of
        ``runs`` into ``out``: the full runs into the first columns of the
        (view rows, groups per row) table and the tail into its last.
        """
        runs, tails = zip(*(self._views(e) for e in elems))
        table = np.empty((self.view[0], self.groups_per_row))
        full = self._runs[1]
        run_sums(*runs, out=table[:, :full])
        if tails[0] is not None:
            run_sums(*tails, out=table[:, full:])
        return table.reshape(-1)

    def reduce_sum(self, elem: np.ndarray) -> np.ndarray:
        """Sum a (rows, cols) matrix over each group; returns float64 (n_groups,)."""
        return self._reduce(lambda runs, out: runs.sum(axis=-1, out=out), elem)


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


def _granularity(name: str, value) -> Granularity:
    """``value`` if it is a ``Granularity``, else InvalidParam naming ``name``."""
    if not isinstance(value, Granularity):
        raise InvalidParam(f"{name} must be a Granularity, got {value!r}")
    return value


def _as_matrix(w, scan=True) -> np.ndarray:
    """``w`` as a non-empty float64 matrix; with ``scan``, also checked finite."""
    w = _as_real(w, "weight matrix")
    if w.ndim == 1:
        w = w.reshape(1, -1)
    if w.ndim != 2 or w.size == 0:
        raise InvalidShape(f"expected a non-empty 2-D weight matrix, got shape {w.shape}")
    if scan:
        _require_finite(w)
    return w


def _as_real(a, what: str) -> np.ndarray:
    """``a`` as float64; InvalidParam for a complex ``a``, whose imaginary part a cast drops."""
    a = np.asarray(a)
    if a.dtype.kind == "c":
        raise InvalidParam(f"{what} must be real, got {a.dtype}")
    return a.astype(np.float64, copy=False)


def _require_finite(w: np.ndarray) -> None:
    if not np.isfinite(w).all():
        raise InvalidParam("weight matrix contains NaN or Inf")


def _require_ternary(name: str, codes: np.ndarray) -> None:
    """InvalidParam naming ``name`` unless the non-empty ``codes`` are integers in {-1, 0, +1}."""
    if codes.dtype.kind != "i" or codes.min() < -1 or codes.max() > 1:
        span = f" from {codes.min()} to {codes.max()}" if codes.dtype.kind in "biuf" else ""
        raise InvalidParam(f"{name} must be integers in {{-1, 0, +1}}, got {codes.dtype}{span}")


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


#: Elements (512 KiB of float64) copied per block by ``_sequential_sums``; also
#: the block size of ``qat.optimizer_step`` and ``diagnostics.take_snapshot``.
_SUM_BLOCK = 1 << 16


def _sequential_sums(a: np.ndarray, mask=None, *, out, magnitude=False, scratch=None, block=None):
    """Strict left-to-right sums along the last axis, bit for bit.

    The summed terms are ``a``, or ``|a|`` with ``magnitude``, where the bool
    ``mask`` (of ``a``'s shape) is set, and +0.0 where it is clear: the
    result equals ``np.add.accumulate(np.where(mask, t, 0.0), axis=-1)[..., -1]``
    with ``t`` those terms. Each sum is that of a scalar loop starting from
    the run's first term (not from 0.0, so a run of -0.0 sums to -0.0).
    ``a`` has at least two axes. Blocks of about ``block`` elements
    (``_SUM_BLOCK`` when None), whole indices of the first axis at a time,
    are copied with all axes reversed into one reused contiguous buffer, so
    the summed axis comes first; the terms are formed on the way (a masked
    block is first multiplied by its mask into a second block-sized buffer,
    and ``np.abs`` runs in place after the copy), and ``np.add.reduce`` over
    the buffer then adds its rows one after another, each output a
    left-to-right sum. The sums go into ``out`` (of shape ``a.shape[:-1]``,
    a view is fine), which is returned. The buffers are slices of the 1-D
    float64 ``scratch`` when it is given and holds them, so that a shard
    need allocate none. A buffer never holds more elements than ``a``, nor
    more than ``block`` or one index of ``a``, whichever is larger. Two
    guards keep the result exact:

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
    block = _SUM_BLOCK if block is None else block
    n = a.shape[-1]
    per_index = a[0].size
    step = max(1, block // per_index)
    size = min(step, a.shape[0]) * per_index
    if per_index == n:  # every block of one index is a single run, summed in chunks
        size = min(size, block)
    need = size if mask is None else 2 * size
    if scratch is None or scratch.size < need:
        scratch = np.empty(need, dtype=a.dtype)
    buf = scratch[:size]
    masked = None if mask is None else scratch[size : 2 * size]

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


#: Elements (160 Ki, a 405x405 layer) from which a pass over float64 weights
#: is split into shards: the export (``quantize``, ``deadzone_mask``,
#: ``pack_model``), the layer step, ``qat.optimizer_step`` and
#: ``diagnostics.take_snapshot``. In-process on 2 cores (one BLAS thread),
#: sharded over inline time: a layer step (batch 32, per-group 128) read
#: 1.23-1.54 at 256x256, 1.01-1.10 at 384x384 (tequila 0.97), 0.87-0.94 at
#: 416x416 and 0.85-0.96 at 512x512; the export of one per-group 128 layer
#: 1.47 at 300x300, 0.97 at 405x405 and 0.71 at 512x512; the optimizer
#: step 0.85 and the snapshot 0.80 on three 256x256 layers. An export
#: shard sizes its float64 buffers from its share of the matrix
#: (``_export_block``), so that the shards at once stay well under one
#: float64 matrix of the weights.
_SHARD_MIN = 5 << 15

_pool = None  # a concurrent.futures.ThreadPoolExecutor, made on first use, replaced to grow
_pool_lock = threading.Lock()


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _row_ranges(rows: int, size: int, align: int = 1, least=None) -> list[tuple[int, int]]:
    """Half-open row ranges, one per usable CPU, of a matrix of ``size`` elements.

    Every range but the last holds a multiple of ``align`` rows. A matrix
    below ``least`` elements (``_SHARD_MIN`` when not given), or a process
    with one usable CPU, gets the single range ``(0, rows)``.
    """
    if size < (_SHARD_MIN if least is None else least):
        return [(0, rows)]
    step = -(-rows // _usable_cpus())
    step += -step % align
    return [(lo, min(lo + step, rows)) for lo in range(0, rows, step)]


def _export_block(size: int, shards: int) -> int:
    """Elements of each float64 buffer of one of ``shards`` export shards of ``size`` elements.

    One shard keeps ``_SUM_BLOCK``. Several take a quarter of their share
    of the matrix, at most ``_SUM_BLOCK``: a shard holds at most two such
    buffers at once (a masked sum's, or the expanded thresholds and ``|w|``
    of a compare; a deadzone shard holds one, its ``|w|`` block), so all
    shards together hold about half a float64 matrix at most, and a shard
    larger than its block compares by broadcasting.
    """
    if shards == 1:
        return _SUM_BLOCK
    return min(_SUM_BLOCK, -(-size // (4 * shards)))


def _group_shards(layout: GroupLayout) -> list[tuple[slice, slice, GroupLayout]]:
    """(row slice, group-id slice, layout) of each shard of a matrix with ``layout``.

    Ranges run over the layout's view rows, so a per-tensor matrix is one
    shard; a single shard keeps ``layout`` itself. The shards' layouts are
    built here, in the calling thread, one per distinct shard height.
    """
    ranges = _row_ranges(layout.view[0], layout.rows * layout.cols)
    if len(ranges) == 1:
        return [(slice(None), slice(None), layout)]
    g = layout.groups_per_row
    heights = {hi - lo for lo, hi in ranges}
    parts = {n: GroupLayout(layout.granularity, n, layout.cols) for n in heights}
    return [(slice(lo, hi), slice(lo * g, hi * g), parts[hi - lo]) for lo, hi in ranges]


def _run_shards(work, shards) -> list:
    """``[work(*shard) for shard in shards]``, all at once when there are several.

    Every sharded pass of the package runs through here and keeps one
    contract:

    - The calling thread allocates every output, and every scratch buffer
      it hands a shard; each shard writes only its own rows, groups or
      blocks of them, so no output is joined from pieces.
    - Besides per-group, per-row and per-block results (a block's bin
      counts, and their sum over a layer's blocks), a shard allocates only
      float64 buffers of at most the block size its caller picks (two at
      once at most: a masked sum's, or the expanded thresholds and ``|w|``
      of a compare; a sum buffer may also hold one index of the summed
      runs), the runs ``_sequential_sums`` sums again because their sum is
      zero, and int8, bool and index arrays (masks, the encoder's keys).
      The layer step sums into scratch it is handed, with blocks of
      ``_SUM_BLOCK``; an export shard allocates its buffers, of
      ``_export_block`` elements, so that all shards together hold about
      half a float64 matrix at most. A ``deadzone_mask`` shard and a
      snapshot shard allocate no buffer: the calling thread allocates
      their scratch, the ``|w|`` block of ``_export_block`` elements that
      ``_block_plan`` cuts into the blocks' views, and the snapshot's
      scratch set of ``_SUM_BLOCK`` elements. Not counted above:
      numpy allocates iterator buffers for each broadcast of a table over
      group runs, with no cast too: about 0.14 MB per shard at the deploy
      shapes (a compare of a 65x7x128 ``|w|`` run view with its
      thresholds) and 0.07 MB for a 128x4x128 snapshot block. Both
      ``deadzone_mask`` and the snapshot make such broadcasts in their
      shards.
    - Every public entry point, and every ``GroupLayout``, runs in the
      calling thread; the pool's threads (named ``tqla-shard``) run only the
      shards' private kernels. numpy releases the GIL inside its ufunc,
      ``take`` and reduce loops, so the shards do run in parallel.

    One shard runs inline. With several, every shard but the first goes to
    the pool, one task each, and the calling thread then runs shard 0
    itself and waits for the rest. A call with more pool shards than the
    pool has threads first makes a larger pool, so that its shards do not
    queue for one another. Each pool shard runs under the caller's numpy
    error state. The results come in shard order; a shard's exception, the
    caller's own included, is raised only once every shard has finished.
    """
    if len(shards) == 1:
        return [work(*shards[0])]
    # imported here, so that a process that never shards does not load it
    from concurrent.futures import ThreadPoolExecutor, wait

    state = np.geterr()

    def run(shard):
        with np.errstate(**state):
            return work(*shard)

    global _pool
    with _pool_lock:
        if _pool is None or _pool._max_workers < len(shards) - 1:
            # a smaller pool is dropped, not shut down: a caller that took it
            # may still submit to it, and its threads exit once it is freed
            _pool = ThreadPoolExecutor(len(shards) - 1, thread_name_prefix="tqla-shard")
        pool = _pool
    futures = [pool.submit(run, shard) for shard in shards[1:]]
    try:
        first = work(*shards[0])
    finally:
        wait(futures)
    return [first] + [future.result() for future in futures]


def _drop_pool() -> None:
    """Forget the pool in a forked child, whose copy of it has no threads."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_pool)


def _sides(w: np.ndarray, layout: GroupLayout, deltas, out, block=None):
    """Write ``w >= delta`` and ``|w| >= delta``, with each element's group threshold, into ``out``.

    ``out`` is the pair of bool arrays of ``w``'s shape to write, which is
    returned. Every delta is >= 0 or +inf; ``w`` is finite, or its caller
    rejects it after the compares, where NaN is on neither side. A matrix
    larger than ``block`` elements (``_SUM_BLOCK`` when None) is compared by
    broadcasting, with ``|w| >= delta`` read as ``w >= delta or w <= -delta``,
    so that it holds no float64 matrix of its size. A smaller one is
    compared against one expansion of the thresholds and its ``|w|``: both
    stay in cache, where numpy's contiguous compares beat broadcasts over
    short group runs. Both give the same bits.
    """
    pos, live = out
    if w.size > (_SUM_BLOCK if block is None else block):
        layout.apply(np.greater_equal, w, deltas, out=pos)
        layout.apply(np.less_equal, w, -deltas, out=live)
        np.logical_or(live, pos, out=live)
    else:
        thr = layout.expand(deltas)
        np.greater_equal(w, thr, out=pos)
        np.greater_equal(np.abs(w), thr, out=live)
    return pos, live


def _group_params(
    w: np.ndarray, scheme: str, layout: GroupLayout, out, codes, dead, scratch=None, block=None
) -> None:
    """Write the per-group (alpha, delta) of a static scheme into the pair of arrays ``out``.

    ``codes`` (int8) and ``dead`` (bool), of ``w``'s shape, are the
    ternarizer's outputs, which it overwrites: ``twn`` compares ``w`` with
    its thresholds into them, as ``_sides``' pair. ``scratch`` is passed
    on to ``_sequential_sums``, ``block`` to it and to ``_sides``.
    """
    alphas, deltas = out
    counts = np.tile(layout.lens.astype(np.float64), layout.view[0])
    # each group's |w|, or the |w| a mask keeps, summed as a scalar loop sums them
    magnitudes = partial(_sequential_sums, magnitude=True, scratch=scratch, block=block)
    sums = layout._reduce(magnitudes, w)
    if scheme == "absmean":
        np.divide(np.divide(sums, counts, out=alphas), 2.0, out=deltas)
        return
    # twn: threshold first, then alpha is the mean of |w| over the kept elements
    # (|w| >= delta), which minimizes the squared reconstruction error for that
    # fixed delta; a group that keeps none gets alpha = 0 (degenerate)
    np.multiply(0.75, np.divide(sums, counts, out=deltas), out=deltas)
    keep = _sides(w, layout, deltas, (codes.view(bool), dead), block=block)[1]
    # a masked sum holds two buffers, here beside the codes and the mask, so
    # each takes half a block
    half = max(1, (_SUM_BLOCK if block is None else block) // 2)
    kept_totals = layout._reduce(partial(magnitudes, block=half), w, keep)
    kept_counts = layout.reduce_sum(keep)
    alphas[...] = 0.0
    np.divide(kept_totals, kept_counts, out=alphas, where=kept_counts > 0)


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
    dead = np.empty(w.shape, dtype=bool)  # scratch of twn and of the ternarizer
    scales, thresholds = np.empty(layout.n_groups), np.empty(layout.n_groups)

    shards = _group_shards(layout)
    block = _export_block(w.size, len(shards))

    def shard(rows, groups, part):
        alphas, deltas = scales[groups], thresholds[groups]
        w_rows, codes_rows, dead_rows = w[rows], codes[rows], dead[rows]
        _group_params(w_rows, scheme, part, (alphas, deltas), codes_rows, dead_rows, block=block)
        _ternarize(w_rows, part, alphas, deltas, codes_rows, dead_rows, block)

    _run_shards(shard, shards)
    # each threshold is a finite multiple of its group's |w| sum, which is
    # NaN or Inf for a non-finite weight and Inf when finite weights overflow
    if not np.isfinite(thresholds).all():
        _require_finite(w)
    return QuantizedTensor(codes=codes, scales=scales, thresholds=thresholds, layout=layout)


def _ternarize(w: np.ndarray, layout: GroupLayout, alphas, deltas, codes, dead, block=None) -> None:
    """Write the int8 ``codes`` and bool deadzone mask ``dead`` of ``w``, without validation.

    ``codes`` and ``dead`` have ``w``'s shape. The top-down ternarizer gives
    +1 where ``w >= delta``, -1 where ``|w| >= delta`` but not ``w >= delta``
    and 0 elsewhere, so at delta == 0 a zero weight takes the first branch
    (+1). Its zero branch is the deadzone ``|w| < delta``, so the mask comes
    from the same compares as the codes. Groups with alpha == 0 have their
    codes forced to zero. ``block`` is passed on to ``_sides``.
    """
    # codes and dead first hold w >= delta and |w| >= delta; the first implies the second
    _sides(w, layout, deltas, out=(codes.view(bool), dead), block=block)
    np.add(codes, codes, out=codes)  # code = 2 * (w >= delta) - (|w| >= delta)
    np.subtract(codes, dead.view(np.int8), out=codes)
    np.logical_not(dead, out=dead)
    degenerate = alphas == 0.0
    if degenerate.any():
        codes[layout.expand(degenerate)] = 0


def dequantize(q: QuantizedTensor) -> np.ndarray:
    """Reconstruct the quantized weights: element = code * group scale."""
    return _dequantize_into(q.codes, q.scales, q.layout, np.empty(q.codes.shape))


def _dequantize_into(codes, scales, layout: GroupLayout, out: np.ndarray) -> np.ndarray:
    """``dequantize`` of ``codes`` with the group ``scales`` of ``layout``, written into ``out``."""
    np.copyto(out, codes)
    return layout.apply(np.multiply, out, scales, out=out)


def _checked_pair(w, q: QuantizedTensor) -> tuple[np.ndarray, np.ndarray]:
    """(``w`` as a float64 matrix, ``q``'s thresholds as one table) of a (weights, quantized) pair.

    The check ``deadzone_mask`` and the trap snapshot share: ``w`` must
    match the codes and the layout of ``q``, and every threshold must be
    >= 0 (+inf included), as ``quantize`` makes them; a NaN or negative one
    raises InvalidThreshold. A non-finite weight is reported before any
    other fault of the pair; ``w`` is scanned for one only then. The table
    is ``q.layout._table`` of the thresholds.
    """
    w = _as_matrix(w, scan=False)
    thresholds = np.asarray(q.thresholds)
    layout = q.layout
    try:
        if w.shape != q.codes.shape:
            raise InvalidShape(f"weights {w.shape} do not match codes {q.codes.shape}")
        if w.shape != (layout.rows, layout.cols):
            raise InvalidShape(f"weights {w.shape} do not match layout {layout.rows, layout.cols}")
        if not (thresholds >= 0).all():
            bad = thresholds[~(thresholds >= 0)][0]
            raise InvalidThreshold(f"thresholds must be >= 0, got {bad}")
        return w, layout._table(thresholds)
    except TqlaError:
        _require_finite(w)  # a non-finite weight is reported first
        raise


def _block_plan(layout, tables, lo: int, hi: int, block: int, runs, whole=()) -> list:
    """The blocks of view rows ``lo:hi`` of a matrix with ``layout`` and the views its kernel reads.

    A view row of at most ``block`` elements goes whole into a block of as
    many rows as fit; a wider one (a per-tensor view, or a row wider than
    the block) is cut into pieces of at most ``block`` elements that hold
    whole groups, or lie within one group. ``runs`` and ``whole`` hold
    arrays: a matrix of the layout's shape, whose block is the block's part
    of it, or a 1-D scratch buffer of at least the largest block's size,
    whose block is its first elements. ``tables`` hold one value per group
    each, as (view rows, groups per row) tables.

    A block is ``(*views, groups)``: the block of each array of ``runs``
    and then of ``whole``, and one tuple in ``groups`` for the block's full
    group runs and one for a group it holds only part of (a tail). Such a
    tuple holds the run views of each array of ``runs`` and then the view
    of each table that broadcasts over them. Every view of these arrays
    and tables is made here, in the calling thread; only ``runs`` arrays
    get run views, as each costs Python time per block.
    """
    width, run = layout.view[1], layout.size
    if width <= block:
        step = block // width
        cuts = [(r, min(r + step, hi), 0, width) for r in range(lo, hi, step)]
    else:  # pieces of whole groups, or of at most a block within one group
        span = run if run > block else block // run * run
        piece = min(span, block)
        cuts = [
            (r, r + 1, a, min(a + piece, s + span, width))
            for r in range(lo, hi)
            for s in range(0, width, span)
            for a in range(s, min(s + span, width), piece)
        ]
    arrays = [x.reshape(layout.view) if x.ndim == 2 else x for x in (*runs, *whole)]
    count = len(runs)
    blocks = []
    for r0, r1, a, b in cuts:
        n, m = r1 - r0, b - a
        k = a // run
        full = m // run if a % run == 0 else 0
        cut = full * run
        views, fulls, tails = [], [], []
        for i, x in enumerate(arrays):
            v = x[r0:r1, a:b] if x.ndim == 2 else x[: n * m].reshape(n, m)
            views.append(v)
            if i < count and full:
                fulls.append(v[:, :cut].reshape(n, full, run))
            if i < count and cut < m:
                tails.append(v[:, None, cut:])
        groups = []
        if full:
            groups.append(fulls + [t[r0:r1, k : k + full, None] for t in tables])
        if cut < m:
            groups.append(tails + [t[r0:r1, k + full, None, None] for t in tables])
        blocks.append((*views, groups))
    return blocks


def deadzone_mask(w, q: QuantizedTensor) -> np.ndarray:
    """Bool mask of elements with |w| strictly below their group threshold.

    Every threshold must be >= 0 (+inf included), as ``quantize`` makes
    them; a NaN or negative one raises InvalidThreshold. The calling
    thread checks the inputs (``_checked_pair``), allocates the mask and
    each shard's one float64 block, and plans every block of every shard
    (``_block_plan``); the shards then run ``_deadzone_blocks``, which
    reads each weight once: into ``|w|`` in its shard's block, then one
    compare per element against its group threshold.
    """
    w, table = _checked_pair(w, q)
    layout = q.layout
    mask = np.empty(w.shape, dtype=bool)
    ranges = _row_ranges(layout.view[0], w.size)
    block = _export_block(w.size, len(ranges))
    plans = []
    for lo, hi in ranges:
        mag = np.empty(min(block, (hi - lo) * layout.view[1]))
        plans.append((_block_plan(layout, (table,), lo, hi, block, (mag, mask), (w,)),))

    def shard(blocks):
        _deadzone_blocks(blocks)

    _run_shards(shard, plans)
    return mask


def _deadzone_blocks(blocks) -> None:
    """Write the deadzone mask of each of ``blocks``; ufunc calls only.

    A block is ``(|w|, mask, w, groups)`` of ``_block_plan``, with ``|w|``
    in its shard's scratch. ``|w|`` is formed first, and its maximum tells
    whether the block is finite: NaN propagates through ``np.maximum`` and
    ``inf < inf`` is false. Only a block that is not finite is scanned, to
    raise. Each element is then compared once, ``|w| < delta``.
    """
    for mag, _, w, groups in blocks:
        np.abs(w, out=mag)
        if not np.maximum.reduce(mag, axis=None) < np.inf:
            _require_finite(w)
        for runs, dead, thr in groups:
            np.less(runs, thr, out=dead)


def tequila_bias(w, mask, lam: float) -> np.ndarray:
    """Per-row bias: values[r] = lam * sum of row r's weights where bool ``mask`` is set."""
    w = _as_matrix(w)
    mask = np.asarray(mask, dtype=bool)
    if w.shape != mask.shape:
        raise InvalidShape(f"weights {w.shape} do not match mask {mask.shape}")
    return _tequila_bias(w, mask, _lam("lambda", lam))


def _tequila_bias(w: np.ndarray, dead: np.ndarray, lam: float, scratch=None) -> np.ndarray:
    """``tequila_bias`` without validation; ``w`` must be finite.

    The sums are those of ``np.where(dead, w, 0.0)``, the selected weights
    formed block by block inside ``_sequential_sums``, with ``scratch``.
    """
    return lam * _sequential_sums(w, dead, out=np.empty(w.shape[0]), scratch=scratch)
