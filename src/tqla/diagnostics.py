"""Deadzone-trapping diagnostics.

Quantifies how weights behave around the quantization deadzone during
training: occupancy of the deadzone, mass accumulated near its boundary,
and how often ternary codes flip between snapshots. A snapshot makes one
pass per layer: the pair is validated and its thresholds expanded once,
and every metric is read from that pass. Snapshot rows export to CSV (one
row per snapshot) and JSON (full histograms); both round-trip losslessly.

Histograms bin w / threshold over [-3, 3] with ``np.linspace(-3, 3, bins + 1)``
edges. Every bin is half-open, ``[lo, hi)``, except the last, which is closed.
Values beyond the range, and the +-inf of nonzero weights whose threshold is
zero, go to the end bins. The counts equal ``np.histogram``'s for the clipped
values, bit for bit.
"""

from __future__ import annotations

import csv
import json
import warnings
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateNormalization,
    FormatError,
    InsufficientHistory,
    InvalidParam,
    InvalidShape,
    IoError,
)
from .quantizer import QuantizedTensor, _as_matrix, _count, _real_where

DEFAULT_BAND = 0.1
DEFAULT_BINS = 120
DEFAULT_HISTORY_WINDOW = 8
DEFAULT_SNAPSHOT_EVERY = 50
HISTOGRAM_RANGE = 3.0  # in units of the group threshold
_SCHEMA_VERSION = 1  # of the JSON report file

CSV_COLUMNS = ("step", "loss", "deadzone_fraction", "boundary_fraction", "mean_flip_rate")


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

    @classmethod
    def from_dict(cls, d):
        return cls(
            bin_edges=np.array(d["bin_edges"], dtype=np.float64),
            counts=np.array(d["counts"], dtype=np.int64),
            normalized=bool(d["normalized"]),
        )


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

    @classmethod
    def from_dict(cls, d):
        return cls(
            step=int(d["step"]),
            loss=float(d["loss"]),
            deadzone_fraction=float(d["deadzone_fraction"]),
            boundary_fraction=float(d["boundary_fraction"]),
            mean_flip_rate=float(d["mean_flip_rate"]),
            histogram=Histogram.from_dict(d["histogram"]),
        )


@dataclass
class CodeHistory:
    """Code flips over a sliding window of ternary code snapshots.

    Each push counts the flips between the new snapshot and the one before
    it, once; the window keeps the counts of its ``window - 1`` adjacent
    pairs and only the latest codes.
    """

    window: int = DEFAULT_HISTORY_WINDOW
    _last: list | None = field(default=None, init=False, repr=False)
    _flips: deque = field(init=False, repr=False)

    def __post_init__(self):
        self.window = _count("history window", self.window, 2)
        self._flips = deque(maxlen=self.window - 1)

    def push(self, codes_per_layer):
        snap = [np.asarray(c, dtype=np.int8).copy() for c in codes_per_layer]
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

    The pair is validated and its thresholds expanded once for all three.
    """
    band = _band("band", band)
    bins = _count("bins", bins, 2)
    w = _as_matrix(w)
    if w.shape != q.codes.shape:
        raise InvalidShape(f"weights {w.shape} do not match codes {q.codes.shape}")
    expand = q.layout.expand
    thr = expand(q.thresholds)
    a = np.abs(w)
    dead = np.count_nonzero(a < thr)
    # expanding the per-group products gives the bits of multiplying the expansion
    lo = expand((1.0 - band) * q.thresholds)
    hi = expand((1.0 + band) * q.thresholds)
    near = np.count_nonzero((a >= lo) & (a <= hi))
    normalized = not (q.thresholds == 0).all()
    if (q.thresholds > 0).all():
        values = w / thr
    elif normalized:
        values = _normalized_values(w, thr)
    else:
        values = w.copy()  # w may be the caller's array; it is clipped in place
    np.clip(values, -HISTOGRAM_RANGE, HISTOGRAM_RANGE, out=values)
    counts, edges = _bin_counts(values, bins)
    hist = Histogram(bin_edges=edges, counts=counts, normalized=normalized)
    return w.size, dead / w.size, near / w.size, hist


def deadzone_fraction(w, q: QuantizedTensor) -> float:
    """Share of weights strictly inside the deadzone of their group."""
    return _layer_stats(w, q)[1]


def boundary_fraction(w, q: QuantizedTensor, band: float = DEFAULT_BAND) -> float:
    """Share of weights with |w| within a relative band of the threshold."""
    return _layer_stats(w, q, band=band)[2]


def flip_rate(history: CodeHistory) -> float:
    """Mean per-weight frequency of code changes between adjacent snapshots."""
    pairs = len(history._flips)
    if pairs < 1:
        raise InsufficientHistory(f"need at least 2 snapshots, have {len(history)}")
    total_weights = sum(c.size for c in history._last)
    return sum(history._flips) / (pairs * total_weights)


def weight_histogram(w, q: QuantizedTensor, bins: int = DEFAULT_BINS) -> Histogram:
    """Histogram of w / threshold over [-3, 3]; end bins absorb overflow.

    If every threshold is zero the normalization is degenerate: the raw
    weight values are binned instead and the result is flagged.
    """
    hist = _layer_stats(w, q, bins=bins)[3]
    if not hist.normalized:
        warnings.warn(
            "all thresholds are zero; histogram uses raw weight values",
            DegenerateNormalization,
        )
    return hist


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


def _fmt(value) -> str:
    """Shortest lossless decimal text for a float."""
    return repr(float(value))


def export_report(reports, base_path) -> tuple[str, str]:
    """Write snapshots to ``<base>.csv`` (metrics) and ``<base>.json`` (full).

    Returns the two paths. Both files round-trip through ``load_report``.
    """
    reports = list(reports)
    if not reports:
        raise InvalidParam("cannot export an empty report sequence")
    base = str(base_path)
    csv_path = base + ".csv"
    json_path = base + ".json"
    try:
        with open(csv_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for r in reports:
                writer.writerow(
                    [
                        r.step,
                        _fmt(r.loss),
                        _fmt(r.deadzone_fraction),
                        _fmt(r.boundary_fraction),
                        _fmt(r.mean_flip_rate),
                    ]
                )
        payload = {"schema_version": _SCHEMA_VERSION, "reports": [r.to_dict() for r in reports]}
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True, indent=2)
            fh.write("\n")
    except OSError as exc:
        raise IoError(f"failed to write report files at {base!r}: {exc}") from exc
    return csv_path, json_path


def load_report(base_path) -> list[TrapReport]:
    """Read back a report pair written by ``export_report``."""
    base = str(base_path)
    try:
        with open(base + ".json", "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise IoError(f"failed to read report files at {base!r}: {exc}") from exc
    except ValueError as exc:  # undecodable text or JSON
        raise FormatError(f"report file {base!r}.json is not JSON: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("schema_version") != _SCHEMA_VERSION:
        raise FormatError(f"report file {base!r}.json is not schema version {_SCHEMA_VERSION}")
    try:
        return [TrapReport.from_dict(d) for d in payload["reports"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"report file {base!r}.json is malformed: {exc!r}") from exc
