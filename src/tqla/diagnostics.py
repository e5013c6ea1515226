"""Deadzone-trapping diagnostics.

Quantifies how weights behave around the quantization deadzone during
training: occupancy of the deadzone, mass accumulated near its boundary,
and how often ternary codes flip between snapshots. A snapshot makes one
pass per layer: the pair is validated once, the group thresholds are
broadcast over the weights, and every metric is read from that pass.

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

import numpy as np

from .errors import DegenerateNormalization, InsufficientHistory, InvalidParam, InvalidShape
from .quantizer import QuantizedTensor, _as_matrix, _count, _real_where, _require_ternary

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


def _normalized_values(w: np.ndarray, thr: np.ndarray) -> np.ndarray:
    """w / threshold with zero-threshold elements mapped to 0 or +-inf."""
    out = np.zeros_like(w)
    nonzero = thr > 0
    np.divide(w, thr, out=out, where=nonzero)
    zero_thr = ~nonzero & (w != 0)
    out[zero_thr] = np.sign(w[zero_thr]) * np.inf
    return out


def _bin_counts(values: np.ndarray, bins: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.histogram(values, bins, range=(-R, R))`` for values already in
    [-R, R], with R = ``HISTOGRAM_RANGE``.

    The index guess ``(x + R) * bins / 2R`` is at most one bin off, and only
    next to an edge; one compare against the bin's lower edge and one against
    its upper edge correct it. The ``+inf`` ending the lower-edge table sends
    a guess of ``bins`` (x = R) down one; the ``+inf`` ending the upper-edge
    table keeps the last bin closed.
    """
    edges = np.linspace(-HISTOGRAM_RANGE, HISTOGRAM_RANGE, bins + 1)
    lower = np.append(edges[:-1], np.inf)
    upper = np.append(edges[1:-1], np.inf)
    x = values.reshape(-1)
    guess = x + HISTOGRAM_RANGE
    guess *= bins / (2.0 * HISTOGRAM_RANGE)
    idx = guess.astype(np.intp)
    idx -= x < lower.take(idx)
    idx += x >= upper.take(idx)
    return np.bincount(idx, minlength=bins), edges


_band = _real_where("in (0, 1)", lambda v: 0.0 < v < 1.0)


def _layer_stats(w, q: QuantizedTensor, band=DEFAULT_BAND, bins=DEFAULT_BINS):
    """(size, deadzone fraction, boundary fraction, histogram) of one layer.

    The pair is validated once for all three; the thresholds are broadcast over the weights.
    """
    band = _band("band", band)
    bins = _count("bins", bins, 2)
    w = _as_matrix(w)
    if w.shape != q.codes.shape:
        raise InvalidShape(f"weights {w.shape} do not match codes {q.codes.shape}")
    apply, thr = q.layout.apply, q.thresholds
    a = np.abs(w)
    dead = np.count_nonzero(apply(np.less, a, thr))
    # the per-group products give the bits of multiplying each element's threshold
    near = apply(np.greater_equal, a, (1.0 - band) * thr)
    near &= apply(np.less_equal, a, (1.0 + band) * thr)
    normalized = not (thr == 0).all()
    if (thr > 0).all():
        values = apply(np.divide, w, thr)
    elif normalized:
        values = _normalized_values(w, q.layout.expand(thr))
    else:
        values = w.copy()  # w may be the caller's array; it is clipped in place
    np.clip(values, -HISTOGRAM_RANGE, HISTOGRAM_RANGE, out=values)
    counts, edges = _bin_counts(values, bins)
    hist = Histogram(bin_edges=edges, counts=counts, normalized=normalized)
    return w.size, dead / w.size, np.count_nonzero(near) / w.size, hist


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
    sizes, dead, near, hists = zip(*(_layer_stats(w, q, band, bins) for w, q in pairs))
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
