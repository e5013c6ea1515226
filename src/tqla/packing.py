"""Offline packing of ternary weights for deployment.

Every three ternary weights form a triple encoded as a 4-bit index into a
canonical table of 14 patterns plus one sign bit. The 26 nonzero triples
split into 13 pairs related by negation; the canonical table keeps the
member whose first nonzero element is +1, plus the all-zero triple, in
lexicographic order (-1 < 0 < +1), which puts the zero pattern at index 0:

    0:(0,0,0)   1:(0,0,+)   2:(0,+,-)   3:(0,+,0)   4:(0,+,+)
    5:(+,-,-)   6:(+,-,0)   7:(+,-,+)   8:(+,0,-)   9:(+,0,0)
   10:(+,0,+)  11:(+,+,-)  12:(+,+,0)  13:(+,+,+)

Indices 14 and 15 are invalid. The reader accepts exactly what the writer
produces: the zero pattern carries a clear sign bit, padding columns hold
zero codes, and padding nibbles and sign bits after the last triple are
clear, and lambda, scales and biases are finite; anything else raises
``FormatError`` with its byte offset.

On-disk "TQLA" layout (all little-endian):

    magic "TQLA" | version u32 | lambda f32 | n_layers u32
    per layer:
      rows u32 | cols u32 (pre-padding) | group_size u32 (0 = per-tensor)
      indices: ceil(rows*S/2) bytes, two 4-bit codes per byte, low nibble
               first, row-major over S = ceil(cols/3) triples per row
      signs:   ceil(rows*S/8) bytes, bit k%8 of byte k/8, set bit = negative
      scales:  f32 per group (1 for per-tensor, rows*ceil(cols/group_size)
               otherwise, row-major)
      bias:    f32 per row (the frozen deadzone bias)

Both directions go through tables built once from the pattern table, so the
format lives in one place. Encoding looks up the index byte of each pair of
triples by their two keys; keys order triples lexicographically with the
zero triple at 13, so a triple's sign bit is set exactly when its key is
below 13. Decoding reads each index byte with the two sign bits of its
triples as one 16-bit key, ``index byte | sign pair << 8``: a 256-entry
table splits every sign byte into its four 2-bit pairs, one per index byte,
and the keys index a table of 1024 entries, each holding the six signed
codes of a byte, so a layer decodes with one gather.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, InvalidParam, InvalidShape
from .quantizer import (
    PER_CHANNEL,
    PER_TENSOR,
    Granularity,
    QuantizedTensor,
    _as_matrix,
    _count,
    _real,
    _require_finite,
    _row_ranges,
    _run_shards,
    _sequential_sums,
)

MAGIC = b"TQLA"
FORMAT_VERSION = 1
N_PATTERNS = 14


def _build_patterns() -> np.ndarray:
    pats = [(0, 0, 0)]
    for a in (-1, 0, 1):
        for b in (-1, 0, 1):
            for c in (-1, 0, 1):
                t = (a, b, c)
                first = next((v for v in t if v != 0), 0)
                if first == 1:
                    pats.append(t)
    pats = [pats[0]] + sorted(pats[1:])
    return np.array(pats, dtype=np.int8)


PATTERNS = _build_patterns()

# key = 9*(a+1) + 3*(b+1) + (c+1) of a triple (a, b, c) -> its pattern index;
# the keys below _ZERO_KEY are the negated patterns, which carry a set sign bit
_ZERO_KEY = 13
_KEY_TO_INDEX = np.zeros(27, dtype=np.uint8)
for _i, _p in enumerate(PATTERNS):
    for _t in (_p, -_p):
        _KEY_TO_INDEX[9 * (_t[0] + 1) + 3 * (_t[1] + 1) + (_t[2] + 1)] = _i

# _PAIR_TO_BYTE[27*key(t0) + key(t1)]: the index byte of triples t0, t1
_PAIR_TO_BYTE = (_KEY_TO_INDEX[:, None] | (_KEY_TO_INDEX[None, :] << 4)).reshape(-1)


def _build_decode_table() -> np.ndarray:
    """The six codes of index byte b with sign bits s0, s1 at key b | (s0 + 2*s1) << 8.

    Each entry is one 6-byte item, so decoding is a single ``take``. Nibbles
    14 and 15 decode to zeros; ``read_packed`` rejects them before they can.
    """
    signed = np.zeros((2, 16, 3), dtype=np.int8)
    signed[0, :N_PATTERNS] = PATTERNS
    signed[1, :N_PATTERNS] = -PATTERNS
    b = np.arange(256)
    s = np.arange(4)[:, None]
    table = np.concatenate([signed[s & 1, b & 0x0F], signed[s >> 1, b >> 4]], axis=2)
    return table.reshape(1024, 6).view("V6").reshape(1024)


_DECODE = _build_decode_table()

# _SIGN_PAIRS[s]: sign byte s split into its four 2-bit pairs, little-endian
# byte j holding pair j, the sign bits of the j-th of the four index bytes it covers
_SIGN_PAIRS = sum(((np.arange(256) >> 2 * j) & 3) << 8 * j for j in range(4)).astype("<u4")

# _TAIL_ZERO[r][i]: pattern i is zero after its first r elements, so it may
# close a row whose cols % 3 == r
_TAIL_ZERO = (None,) + tuple(~PATTERNS[:, r:].any(axis=1) for r in (1, 2))


def _encode(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(index bytes, sign bytes) of a (rows, cols) int8 code matrix."""
    rows, cols = codes.shape
    per_row = -(-cols // 3)
    n = rows * per_row
    # a zero triple pads an odd count to whole index bytes
    flat = np.zeros(3 * (n + n % 2), dtype=np.int8)
    flat[: 3 * n].reshape(rows, 3 * per_row)[:, :cols] = codes
    t = flat.reshape(-1, 3)
    keys = 9 * t[:, 0] + 3 * t[:, 1] + t[:, 2] + _ZERO_KEY  # the key above, in int8
    index_bytes = _PAIR_TO_BYTE[27 * keys[0::2].astype(np.intp) + keys[1::2]]
    sign_bytes = np.packbits(keys[:n] < _ZERO_KEY, bitorder="little")
    return index_bytes, sign_bytes


def _section_sizes(rows: int, cols: int, group_size: int) -> tuple[int, int, int, int]:
    """Item counts of a layer's index, sign, scale and bias sections."""
    n = rows * -(-cols // 3)
    n_scales = 1 if group_size == 0 else rows * -(-cols // group_size)
    return (n + 1) // 2, (n + 7) // 8, n_scales, rows


@dataclass
class PackedLayer:
    """One layer in deployment form: packed codes, scales, frozen bias.

    The header fields are u32 counts, as ``read_packed`` reads them: ``rows``
    and ``cols`` at least 1 and ``group_size`` at least 0; any other value
    raises InvalidParam naming the field. A section whose size does not fit
    the shape raises InvalidShape naming it.
    """

    rows: int
    cols: int
    group_size: int  # 0 encodes per-tensor granularity
    index_bytes: np.ndarray  # uint8, two 4-bit codes each
    sign_bytes: np.ndarray  # uint8, one bit per triple
    scales: np.ndarray  # float32, one per group
    bias: np.ndarray  # float32, one per row

    def __post_init__(self):
        for name, minimum in (("rows", 1), ("cols", 1), ("group_size", 0)):
            value = _count(name, getattr(self, name), minimum)
            if value >= 2**32:
                raise InvalidParam(f"{name} must fit in a u32, got {value}")
            setattr(self, name, value)
        sizes = _section_sizes(self.rows, self.cols, self.group_size)
        got = (self.index_bytes.size, self.sign_bytes.size, self.scales.size, self.bias.size)
        for name, size, n in zip(("index_bytes", "sign_bytes", "scales", "bias"), sizes, got):
            if n != size:
                raise InvalidShape(f"{self.rows}x{self.cols} layer needs {size} {name}, got {n}")

    @property
    def n_triples_per_row(self) -> int:
        return -(-self.cols // 3)

    @property
    def padded_cols(self) -> int:
        return 3 * self.n_triples_per_row

    def unpack_codes(self) -> np.ndarray:
        """Ternary codes (rows, padded_cols), padding columns included."""
        n = self.rows * self.n_triples_per_row
        m = self.index_bytes.size
        keys = np.empty((m, 2), dtype=np.uint8)  # little-endian u2: index byte, sign pair
        keys[:, 0] = self.index_bytes
        keys[:, 1] = _SIGN_PAIRS.take(self.sign_bytes).view(np.uint8)[:m]
        codes = _DECODE.take(keys.view("<u2").reshape(m))
        return codes.view(np.int8)[: 3 * n].reshape(self.rows, self.padded_cols)


@dataclass
class PackedModel:
    """A stack of packed layers plus the reactivation strength they froze."""

    lam: float
    layers: list


def _granularity_to_group_size(granularity: Granularity, cols: int) -> int:
    if granularity.kind == PER_TENSOR:
        return 0
    if granularity.kind == PER_CHANNEL:
        return cols
    return granularity.group_size


def _finite_float32(values, what: str) -> np.ndarray:
    """``values`` cast to float32; raises InvalidParam if any is not finite there."""
    values = np.asarray(values, dtype=np.float64)
    with np.errstate(over="ignore"):
        cast = values.astype(np.float32)
    finite = np.isfinite(cast)
    if not finite.all():
        raise InvalidParam(f"{what} must be finite as float32, got {values[~finite][0]}")
    return cast


def _pack_layer(
    q: QuantizedTensor, shadow: np.ndarray, mask: np.ndarray, lam: float
) -> PackedLayer:
    """Encode ``q.codes`` and freeze ``lam`` times the masked row sums of ``shadow``.

    Shards cut on multiples of 8 rows, so each one encodes whole index and
    sign bytes. A non-finite shadow weight makes its row's masked sum
    non-finite (NaN and Inf times a clear mask bit are NaN); only then is
    ``shadow`` scanned, to tell it from finite weights whose sum overflows.
    """
    rows, cols = q.codes.shape
    per_row = -(-cols // 3)
    n_index, n_sign, _, _ = _section_sizes(rows, cols, 0)
    index_bytes = np.empty(n_index, dtype=np.uint8)
    sign_bytes = np.empty(n_sign, dtype=np.uint8)
    sums = np.empty(rows)

    def shard(lo, hi):
        with np.errstate(invalid="ignore"):  # Inf times a clear mask bit
            sums[lo:hi] = _sequential_sums(shadow[lo:hi], mask[lo:hi])
        index, sign = _encode(q.codes[lo:hi])
        start = lo * per_row  # triples before the shard, a multiple of 8
        index_bytes[start // 2 : start // 2 + index.size] = index
        sign_bytes[start // 8 : start // 8 + sign.size] = sign

    _run_shards(shard, _row_ranges(rows, shadow.size, align=8))
    if not np.isfinite(sums).all():
        _require_finite(shadow)
    return PackedLayer(
        rows=rows,
        cols=cols,
        group_size=_granularity_to_group_size(q.granularity, cols),
        index_bytes=index_bytes,
        sign_bytes=sign_bytes,
        scales=_finite_float32(q.scales, "scale"),
        bias=_finite_float32(lam * sums, "bias"),
    )


def pack_model(layers, lam: float) -> PackedModel:
    """Pack (QuantizedTensor, shadow weights, bool deadzone mask) triples.

    The per-row bias is the deadzone sum of the final shadow weights scaled
    by ``lam``, frozen here for inference. Each shadow matrix is checked
    once: finite, and of the same shape as its codes and mask. Codes are
    padded to a multiple of three columns with zeros; packing is lossless
    for codes and within float32 rounding for scales and biases. A lambda,
    scale or bias that is not finite as float32 raises InvalidParam, since
    the file stores float32.
    """
    lam = _real("lambda", lam)
    _finite_float32(lam, "lambda")
    packed = []
    for q, shadow, mask in layers:
        shadow = _as_matrix(shadow, scan=False)
        mask = np.asarray(mask, dtype=bool)
        if not shadow.shape == mask.shape == q.codes.shape:
            _require_finite(shadow)  # a non-finite weight is reported first
            raise InvalidShape(f"shadow {shadow.shape}, mask {mask.shape}, codes {q.codes.shape}")
        packed.append(_pack_layer(q, shadow, mask, lam))
    return PackedModel(lam=lam, layers=packed)


_HEADER = struct.Struct("<4sIfI")
_LAYER_HEADER = struct.Struct("<III")


def write_packed(model: PackedModel, path) -> None:
    """Serialize to the TQLA binary layout; identical models give identical bytes."""
    blob = bytearray()
    blob += _HEADER.pack(MAGIC, FORMAT_VERSION, np.float32(model.lam), len(model.layers))
    for layer in model.layers:
        blob += _LAYER_HEADER.pack(layer.rows, layer.cols, layer.group_size)
        blob += layer.index_bytes.tobytes()
        blob += layer.sign_bytes.tobytes()
        blob += layer.scales.astype("<f4").tobytes()
        blob += layer.bias.astype("<f4").tobytes()
    with open(path, "wb") as fh:
        fh.write(bytes(blob))


def _take(blob: bytes, offset: int, count: int, what: str) -> tuple[bytes, int]:
    if offset + count > len(blob):
        raise FormatError(f"file truncated while reading {what}", offset=offset)
    return blob[offset : offset + count], offset + count


def read_packed(path) -> PackedModel:
    """Parse and validate a TQLA file; malformed input raises FormatError."""
    with open(path, "rb") as fh:
        blob = fh.read()
    raw, offset = _take(blob, 0, _HEADER.size, "header")
    magic, version, lam, n_layers = _HEADER.unpack(raw)
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {MAGIC!r}", offset=0)
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported format version {version}", offset=4)
    if not np.isfinite(lam):
        raise FormatError(f"non-finite lambda {lam}", offset=8)
    layers = []
    for _ in range(n_layers):
        raw, offset = _take(blob, offset, _LAYER_HEADER.size, "layer header")
        rows, cols, group_size = _LAYER_HEADER.unpack(raw)
        if rows < 1 or cols < 1:
            raise FormatError(
                f"layer shape must be at least 1x1, got {rows}x{cols}",
                offset=offset - _LAYER_HEADER.size,
            )
        n_index, n_sign, n_scales, _ = _section_sizes(rows, cols, group_size)
        idx_offset = offset
        raw, offset = _take(blob, offset, n_index, "packed indices")
        index_bytes = np.frombuffer(raw, dtype=np.uint8)
        sign_offset = offset
        raw, offset = _take(blob, offset, n_sign, "packed signs")
        sign_bytes = np.frombuffer(raw, dtype=np.uint8)
        _validate_codes(index_bytes, sign_bytes, rows, cols, idx_offset, sign_offset)
        scale_offset = offset
        raw, offset = _take(blob, offset, 4 * n_scales, "scales")
        scales = np.frombuffer(raw, dtype="<f4")
        raw, offset = _take(blob, offset, 4 * rows, "bias")
        bias = np.frombuffer(raw, dtype="<f4")
        _check_finite(blob, scale_offset, n_scales, rows)
        layers.append(
            PackedLayer(
                rows=rows,
                cols=cols,
                group_size=group_size,
                index_bytes=index_bytes.copy(),
                sign_bytes=sign_bytes.copy(),
                scales=scales.astype(np.float32),
                bias=bias.astype(np.float32),
            )
        )
    if offset != len(blob):
        raise FormatError(f"{len(blob) - offset} trailing bytes", offset=offset)
    return PackedModel(lam=float(lam), layers=layers)


def _check_finite(blob: bytes, offset: int, n_scales: int, rows: int) -> None:
    """Reject a non-finite scale or bias: adjacent float32s starting at ``offset``."""
    finite = np.isfinite(np.frombuffer(blob, dtype="<f4", count=n_scales + rows, offset=offset))
    if not finite.all():
        k = int(np.argmin(finite))
        what = "scale" if k < n_scales else "bias"
        raise FormatError(f"non-finite {what}", offset=offset + 4 * k)


def _validate_codes(index_bytes, sign_bytes, rows, cols, idx_offset, sign_offset) -> None:
    """Reject any packed codes the writer cannot produce."""
    per_row = -(-cols // 3)
    n_triples = rows * per_row
    nibbles = np.empty(index_bytes.size * 2, dtype=np.uint8)
    nibbles[0::2] = index_bytes & 0x0F
    nibbles[1::2] = index_bytes >> 4
    idx = nibbles[:n_triples]
    invalid = idx >= N_PATTERNS
    if invalid.any():
        k = int(np.argmax(invalid))
        raise FormatError(f"invalid pattern index {int(idx[k])}", offset=idx_offset + k // 2)
    if nibbles[n_triples:].any():
        raise FormatError("nonzero padding nibble", offset=idx_offset + n_triples // 2)
    if cols % 3:
        # the last triple of each row is padded with zero codes
        ok = _TAIL_ZERO[cols % 3][idx[per_row - 1 :: per_row]]
        if not ok.all():
            k = int(np.argmin(ok)) * per_row + per_row - 1
            raise FormatError("nonzero code in a padding column", offset=idx_offset + k // 2)
    if n_triples % 8 and sign_bytes[-1] >> (n_triples % 8):
        raise FormatError(
            "set sign bit after the last triple", offset=sign_offset + n_triples // 8
        )
    negative_zero = sign_bytes & np.packbits(idx == 0, bitorder="little")
    if negative_zero.any():
        k = int(np.argmax(negative_zero != 0))
        raise FormatError("negative sign on the zero pattern", offset=sign_offset + k)
