"""Deadzone-trapping diagnostics.

Quantifies how weights behave around the quantization deadzone during
training: occupancy of the deadzone, mass accumulated near its boundary,
and how often ternary codes flip between snapshots. A snapshot makes one
pass over each layer's weights, with the group thresholds broadcast over
them, and reads every metric from that pass.

The pass runs on blocks. The calling thread scans the weights for NaN
and Inf, checks every pair as ``deadzone_mask`` does
(``quantizer._checked_pair``), picks each layer's normalization and plans
every block with the planner of the deadzone mask,
``quantizer._block_plan``: blocks of at most ``quantizer._SUM_BLOCK``
elements, each with the views of its group runs of the weights and of
the per-group tables (thresholds, band bounds, divisors) that broadcast
over them. No ``GroupLayout`` is built per block. The calling thread also
allocates one block-sized scratch set per shard. The kernel,
``_block_counts``, counts each block's deadzone and near-boundary weights
and bins it, writing every element-wise result into its shard's scratch,
so a block stays in cache across its passes. It is the only code that
runs off the calling thread: a snapshot of ``quantizer._SHARD_MIN``
elements or more splits its block list over the usable CPUs, under the
contract of ``quantizer._run_shards``, and a smaller one runs inline.
The calling thread then adds up each layer's integer counts, forms the
fractions and pushes the codes into the history. Every count is an
integer sum, so the blocks and shards change no bit of a report.

Histograms bin w / threshold over [-3, 3] with ``np.linspace(-3, 3, bins + 1)``
edges. Every bin is half-open, ``[lo, hi)``, except the last, which is closed.
Values beyond the range, and the +-inf of nonzero weights whose threshold is
zero, go to the end bins. The counts equal ``np.histogram``'s for the clipped
values, bit for bit.
"""

from __future__ import annotations

import warnings
from collections import deque
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import quantizer
from .errors import DegenerateNormalization, InsufficientHistory, InvalidParam, InvalidShape
from .quantizer import (
    _as_matrix,
    _block_plan,
    _count,
    _checked_pair,
    _real_where,
    _require_ternary,
    _row_ranges,
    _run_shards,
)

DEFAULT_BAND = 0.1
DEFAULT_BINS = 120
DEFAULT_HISTORY_WINDOW = 8
DEFAULT_SNAPSHOT_EVERY = 50
HISTOGRAM_RANGE = 3.0  # in units of the group threshold


@dataclass
class Histogram:
    """Counts of threshold-normalized weights over [-3, 3].

    Bins are half-open, ``[edge[k], edge[k + 1])``, and the last one is
    closed. Overflow, and the +-inf of nonzero weights whose threshold is
    zero, go to the end bins. The counts equal ``np.histogram``'s.
    """

    bin_edges: np.ndarray
    counts: np.ndarray
    normalized: bool = True  # False after the all-zero-threshold fallback

    def to_dict(self):
        return {
            "bin_edges": self.bin_edges.tolist(),
            "counts": self.counts.tolist(),
            "normalized": self.normalized,
        }


@dataclass
class TrapReport:
    """One diagnostic snapshot of a training run."""

    step: int
    loss: float
    deadzone_fraction: float
    boundary_fraction: float
    mean_flip_rate: float
    histogram: Histogram

    def to_dict(self):
        return {
            "step": self.step,
            "loss": self.loss,
            "deadzone_fraction": self.deadzone_fraction,
            "boundary_fraction": self.boundary_fraction,
            "mean_flip_rate": self.mean_flip_rate,
            "histogram": self.histogram.to_dict(),
        }


@dataclass
class CodeHistory:
    """Code flips over a sliding window of ternary code snapshots.

    Each push counts the flips between the new snapshot and the one before
    it, once; the window keeps the counts of its ``window - 1`` adjacent
    pairs and only the latest codes. A snapshot is one non-empty array of
    integer codes in {-1, 0, +1} per layer, of the shapes pushed before;
    anything else raises and leaves the history as it was.
    """

    window: int = DEFAULT_HISTORY_WINDOW
    _last: list | None = field(default=None, init=False, repr=False)
    _flips: deque = field(init=False, repr=False)

    def __post_init__(self):
        self.window = _count("history window", self.window, 2)
        self._flips = deque(maxlen=self.window - 1)

    def push(self, codes_per_layer):
        snap = [np.asarray(c) for c in codes_per_layer]
        if not snap or any(c.size == 0 for c in snap):
            raise InvalidShape("a snapshot needs at least one code array, none of them empty")
        for k, c in enumerate(snap):
            _require_ternary(f"layer {k} codes", c)
        snap = [c.astype(np.int8) for c in snap]
        prev = self._last
        if prev is not None:
            if len(prev) != len(snap) or any(a.shape != b.shape for a, b in zip(prev, snap)):
                raise InvalidShape("snapshot shapes differ from history")
            self._flips.append(sum(np.count_nonzero(a != b) for a, b in zip(prev, snap)))
        self._last = snap

    def __len__(self):
        """Snapshots in the window."""
        return 0 if self._last is None else len(self._flips) + 1


def _edge_tables(bins: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(edges, lower, upper) of ``bins`` bins over [-R, R], R = ``HISTOGRAM_RANGE``.

    ``edges`` is ``np.linspace(-R, R, bins + 1)``; ``lower`` holds each bin's
    lower edge and ends in ``+inf``, ``upper`` each bin's upper edge but the
    last, and ends in ``+inf``.
    """
    edges = np.linspace(-HISTOGRAM_RANGE, HISTOGRAM_RANGE, bins + 1)
    return edges, np.append(edges[:-1], np.inf), np.append(edges[1:-1], np.inf)


def _bin_counts(x, lower, upper, guess, idx, flag) -> np.ndarray:
    """``np.histogram(x, bins, range=(-R, R))[0]`` for a flat ``x`` already in [-R, R].

    ``lower`` and ``upper`` are the tables of ``_edge_tables(bins)``;
    ``guess`` (float64), ``idx`` (intp) and ``flag`` (bool) are scratch of
    ``x``'s size. The index guess ``(x + R) * bins / 2R`` is at most one bin
    off, and only next to an edge; one compare against the bin's lower edge
    and one against its upper edge correct it. The ``+inf`` ending ``lower``
    sends a guess of ``bins`` (x = R) down one; the ``+inf`` ending ``upper``
    keeps the last bin closed. Every index stays in both tables, so ``take``
    runs in its unbuffered ``clip`` mode.
    """
    bins = len(upper)
    np.add(x, HISTOGRAM_RANGE, out=guess)
    np.multiply(guess, bins / (2.0 * HISTOGRAM_RANGE), out=guess)
    np.copyto(idx, guess, casting="unsafe")  # truncates as astype(np.intp) does
    np.less(x, lower.take(idx, out=guess, mode="clip"), out=flag)
    np.subtract(idx, flag, out=idx)
    np.greater_equal(x, upper.take(idx, out=guess, mode="clip"), out=flag)
    np.add(idx, flag, out=idx)
    return np.bincount(idx, minlength=bins)


def _block_counts(lower, upper, blocks, scratch) -> list:
    """(dead, near, bin counts) of each of ``blocks``; the snapshot's kernel.

    A block is ``((w, groups), mixed)``: a block of ``quantizer._block_plan``
    of one layer, whose groups each hold the run views of ``w`` and the
    thresholds, band bounds and divisors that broadcast over them; ``mixed``
    is set when some of the layer's divisors are zero. Every element-wise
    result goes into ``scratch``, two float64, two bool and one intp buffer
    of at least the largest block's size, where each group's runs take the
    next elements in the shape of its run view; only each block's bin
    counts are allocated here.
    """
    values, guess, flag, flag2, idx = scratch
    out = []
    # only a zero divisor divides by zero or makes 0 / 0, and its results are meant
    with np.errstate(divide="ignore", invalid="ignore"):
        for (_, groups), mixed in blocks:
            n = dead = near = 0
            for w, thr, near_lo, near_hi, div in groups:
                a, hit, hit2 = (x[n : n + w.size].reshape(w.shape) for x in (values, flag, flag2))
                n += w.size
                np.abs(w, out=a)
                dead += np.count_nonzero(np.less(a, thr, out=hit))
                np.greater_equal(a, near_lo, out=hit)
                np.less_equal(a, near_hi, out=hit2)
                near += np.count_nonzero(np.logical_and(hit, hit2, out=hit))
                np.divide(w, div, out=a)  # the values overwrite |w|
                if mixed:
                    # a zero divisor sends a nonzero weight to its signed infinity and
                    # a zero weight to NaN, which is set to 0 with every other zero weight
                    np.copyto(a, 0.0, where=np.equal(w, 0.0, out=hit))
            np.clip(values[:n], -HISTOGRAM_RANGE, HISTOGRAM_RANGE, out=values[:n])
            counts = _bin_counts(values[:n], lower, upper, guess[:n], idx[:n], flag[:n])
            out.append((dead, near, counts))
    return out


_band = _real_where("in (0, 1)", lambda v: 0.0 < v < 1.0)


def _layer_stats(pairs, band, bins) -> list:
    """(size, deadzone fraction, boundary fraction, histogram) of each layer of ``pairs``.

    Runs in the calling thread but for ``_block_counts`` (see the module
    docstring). A layer divides its weights by its group thresholds; where
    some thresholds are zero, nonzero weights there go to the end bins;
    where all are zero, it divides by ones, which bins the raw weights bit
    for bit.
    """
    band = _band("band", band)
    bins = _count("bins", bins, 2)
    edges, lower, upper = _edge_tables(bins)
    layers, blocks, owners = [], [], []
    largest = 0
    for k, (w, q) in enumerate(pairs):
        w, thr = _checked_pair(_as_matrix(w), q)
        normalized = not (thr == 0).all()
        positive = (thr > 0).all()
        div = thr if positive else np.where(thr > 0, thr, 0.0 if normalized else 1.0)
        tables = (thr, (1.0 - band) * thr, (1.0 + band) * thr, div)
        plan = _block_plan(q.layout, tables, 0, q.layout.view[0], quantizer._SUM_BLOCK, (w,))
        blocks += [(b, normalized and not positive) for b in plan]
        owners += [k] * len(plan)
        largest = max(largest, *(b[0].size for b in plan))
        layers.append((w.size, normalized))
    total = sum(n for n, _ in layers)
    buffers = (np.float64, np.float64, bool, bool, np.intp)
    shards = [
        (blocks[lo:hi], tuple(np.empty(largest, dtype=t) for t in buffers))
        for lo, hi in _row_ranges(len(blocks), total)
    ]
    dead, near, counts = [0] * len(layers), [0] * len(layers), [0] * len(layers)
    work = partial(_block_counts, lower, upper)
    results = (r for shard in _run_shards(work, shards) for r in shard)
    for k, (d, b, c) in zip(owners, results):
        dead[k] += d
        near[k] += b
        counts[k] += c
    return [
        (n, dead[k] / n, near[k] / n, Histogram(edges, counts[k], normalized))
        for k, (n, normalized) in enumerate(layers)
    ]


def flip_rate(history: CodeHistory) -> float:
    """Mean per-weight frequency of code changes between adjacent snapshots."""
    pairs = len(history._flips)
    if pairs < 1:
        raise InsufficientHistory(f"need at least 2 snapshots, have {len(history)}")
    total_weights = sum(c.size for c in history._last)
    return sum(history._flips) / (pairs * total_weights)


def take_snapshot(
    step: int,
    loss: float,
    pairs,
    history: CodeHistory | None = None,
    band: float = DEFAULT_BAND,
    bins: int = DEFAULT_BINS,
) -> TrapReport:
    """Aggregate trap metrics over (weights, quantized) pairs for one step.

    Pushes the current codes into ``history`` first; the flip rate is 0.0
    until the history holds a second snapshot. Warns when some, but not
    all, layers have only zero thresholds.
    """
    pairs = list(pairs)
    if not pairs:
        raise InvalidParam("need at least one (weights, quantized) pair")
    sizes, dead, near, hists = zip(*_layer_stats(pairs, band, bins))
    total = sum(sizes)
    normalized = [h.normalized for h in hists]
    if any(normalized) and not all(normalized):
        warnings.warn(
            "some layers have all thresholds zero; their raw weight values are binned",
            DegenerateNormalization,
        )
    hist = Histogram(
        bin_edges=hists[0].bin_edges,
        counts=sum(h.counts for h in hists),
        normalized=all(normalized),
    )
    rate = 0.0
    if history is not None:
        history.push([q.codes for _, q in pairs])
        if len(history) >= 2:
            rate = flip_rate(history)
    return TrapReport(
        step=step,
        loss=float(loss),
        deadzone_fraction=sum(f * n for f, n in zip(dead, sizes)) / total,
        boundary_fraction=sum(f * n for f, n in zip(near, sizes)) / total,
        mean_flip_rate=rate,
        histogram=hist,
    )
