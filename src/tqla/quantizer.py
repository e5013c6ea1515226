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
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParam, InvalidShape, InvalidThreshold, UnsupportedScheme

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

    def expand(self, per_group: np.ndarray) -> np.ndarray:
        """Broadcast one value per group to a full (rows, cols) matrix."""
        per_group = np.asarray(per_group)
        if per_group.shape != (self.n_groups,):
            raise InvalidShape(
                f"expected {self.n_groups} per-group values, got shape {per_group.shape}"
            )
        table = per_group.reshape(self.view[0], self.groups_per_row)
        return np.repeat(table, self.lens, axis=1).reshape(self.rows, self.cols)

    def _reduce(self, elem: np.ndarray, run_sums) -> np.ndarray:
        """Apply ``run_sums`` (sums along the last axis) to every group's run."""
        if elem.shape != (self.rows, self.cols):
            raise InvalidShape(f"expected {(self.rows, self.cols)}, got {elem.shape}")
        v = elem.reshape(self.view)
        full = self.view[1] // self.size
        cut = full * self.size
        sums = run_sums(v[:, :cut].reshape(self.view[0], full, self.size))
        if cut < self.view[1]:
            sums = np.concatenate([sums, run_sums(v[:, None, cut:])], axis=1)
        return sums.reshape(-1)

    def reduce_sum(self, elem: np.ndarray) -> np.ndarray:
        """Sum a (rows, cols) matrix over each group; returns (n_groups,)."""
        return self._reduce(elem, lambda runs: runs.sum(axis=-1))

    def _seq_group_sums(self, elem: np.ndarray) -> np.ndarray:
        """Left-to-right sequential group sums, matching a scalar loop exactly."""
        return self._reduce(elem, _sequential_sums)


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


def _as_matrix(w) -> np.ndarray:
    w = np.asarray(w, dtype=np.float64)
    if w.ndim == 1:
        w = w.reshape(1, -1)
    if w.ndim != 2 or w.size == 0:
        raise InvalidShape(f"expected a non-empty 2-D weight matrix, got shape {w.shape}")
    if not np.isfinite(w).all():
        raise InvalidParam("weight matrix contains NaN or Inf")
    return w


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


def _sequential_sums(a: np.ndarray) -> np.ndarray:
    """Strict left-to-right sums along the last axis, bit for bit.

    Each sum is that of a scalar loop starting from the run's first element
    (not from 0.0, so a run of -0.0 sums to -0.0). ``a`` has at least two
    axes. Blocks of about ``_SUM_BLOCK`` elements,
    whole indices of the first axis at a time, are copied with all axes
    reversed into one reused contiguous buffer, so the summed axis comes
    first; ``np.add.reduce`` over it then adds the buffer's rows one after
    another, each output a left-to-right sum. Two guards keep the result
    equal to ``np.add.accumulate(a, axis=-1)[..., -1]``:

    - A block holding a single run reduces as a 1-D array, which numpy sums
      pairwise; such a run (a row wider than half a block, or a short last
      block) goes through ``np.add.accumulate`` instead.
    - ``add.reduce`` starts from +0.0, so a run made only of -0.0 sums to
      +0.0 where the scalar loop gives -0.0. Any other run sums to the same
      value either way, since adding a signed zero changes nothing once the
      partial sum differs from zero; the outputs that are zero are
      recomputed with ``np.add.accumulate``.
    """
    n = a.shape[-1]
    per_index = a[0].size
    step = max(1, _SUM_BLOCK // per_index)
    out = np.empty(a.shape[:-1], dtype=a.dtype)
    buf = np.empty(min(step, a.shape[0]) * per_index, dtype=a.dtype)
    for i in range(0, a.shape[0], step):
        block = a[i : i + step]
        if block.size == n:
            out[i] = np.add.accumulate(block.reshape(n))[-1]
            continue
        t = buf[: block.size].reshape(block.shape[::-1])
        np.copyto(t, block.T)
        np.add.reduce(t, axis=0, out=out[i : i + step].T)
    zero = out == 0.0
    if zero.any():
        out[zero] = np.add.accumulate(a[zero], axis=-1)[:, -1]
    return out


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
    return _ternarize_elementwise(w, delta, np.abs(w) < delta)


def _ternarize_elementwise(w: np.ndarray, delta, dead: np.ndarray) -> np.ndarray:
    """Ternarize with a scalar or per-element threshold (no validation).

    ``dead`` is the deadzone mask ``|w| < delta``. Branches top-down like
    ``ternarize``: ``w >= delta`` -> +1, then ``dead`` -> 0, else -1; so at
    ``delta == 0`` both zeros give +1, and NaN gives -1.
    """
    pos = w >= delta
    neg = pos | dead
    np.logical_not(neg, out=neg)
    return np.subtract(pos.view(np.int8), neg.view(np.int8))


def _group_params(a: np.ndarray, scheme: str, layout: GroupLayout):
    """Per-group (alpha, delta) arrays for a static scheme, from ``a = |w|``."""
    counts = np.tile(layout.lens.astype(np.float64), layout.view[0])
    means = layout._seq_group_sums(a) / counts
    if scheme == "absmean":
        return means, means / 2.0
    # twn: threshold first, then the mean of |w| over the kept elements
    deltas = 0.75 * means
    keep = a >= layout.expand(deltas)
    kept_totals = layout._seq_group_sums(a * keep)  # a >= +0.0: same as np.where
    kept_counts = layout.reduce_sum(keep.astype(np.float64))
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
    w = _as_matrix(w)
    return _quantized_view(w, scheme, GroupLayout(granularity, *w.shape))[0]


def _quantized_view(w: np.ndarray, scheme: str, layout: GroupLayout, params=None):
    """``quantize`` without validation, plus the deadzone mask it computes.

    ``params`` gives the per-group (alpha, delta) instead of the ``scheme``
    estimator. Returns ``(tensor, mask)``: the bool mask ``|w| < delta`` is
    the ternarizer's zero branch, so it comes from the same ``|w|`` and the
    same threshold expand as the codes. Only groups with alpha == 0 are
    expanded a second time, to force their codes to zero. The tensor owns
    ``layout``.
    """
    a = np.abs(w)
    alphas, deltas = _group_params(a, scheme, layout) if params is None else params
    thresholds = layout.expand(deltas)
    dead = a < thresholds
    codes = _ternarize_elementwise(w, thresholds, dead)
    degenerate = alphas == 0.0
    if degenerate.any():
        codes[layout.expand(degenerate)] = 0
    return QuantizedTensor(codes=codes, scales=alphas, thresholds=deltas, layout=layout), dead


def dequantize(q: QuantizedTensor) -> np.ndarray:
    """Reconstruct the quantized weights: element = code * group scale."""
    return q.codes.astype(np.float64) * q.element_scales()


def deadzone_mask(w, q: QuantizedTensor) -> np.ndarray:
    """Bool mask of elements with |w| strictly below their group threshold."""
    w = _as_matrix(w)
    if w.shape != q.codes.shape:
        raise InvalidShape(f"weights {w.shape} do not match codes {q.codes.shape}")
    return np.abs(w) < q.element_thresholds()


def tequila_bias(w, mask, lam: float) -> np.ndarray:
    """Per-row bias: values[r] = lam * sum of row r's weights where bool ``mask`` is set."""
    w = _as_matrix(w)
    mask = np.asarray(mask, dtype=bool)
    if w.shape != mask.shape:
        raise InvalidShape(f"weights {w.shape} do not match mask {mask.shape}")
    return _tequila_bias(w, mask, _lam("lambda", lam))


def _tequila_bias(w: np.ndarray, dead: np.ndarray, lam: float) -> np.ndarray:
    """``tequila_bias`` without validation; ``w`` must be finite.

    The sums are those of ``np.where(dead, w, 0.0)``, built faster from
    ``w * dead`` (``dead`` is boolean). The two differ only where a live
    negative weight leaves -0.0 in the product instead of +0.0, and signed
    zero terms change a left-to-right sum only when that sum is zero. So
    the rows that sum to zero are summed again in the ``np.where`` form,
    which gives +0.0 for a row of live negative weights and -0.0 for a
    deadzone holding only -0.0.
    """
    sums = _sequential_sums(w * dead)
    zero = sums == 0.0
    if zero.any():
        sums[zero] = _sequential_sums(np.where(dead[zero], w[zero], 0.0))
    return lam * sums
