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
produces, because both go through one definition of a valid layer.
``PackedLayer`` and ``PackedModel`` hold every rule of the format: header
fields are u32 counts, sections have their dtype and size, the zero pattern
carries a clear sign bit, padding columns hold zero codes, padding nibbles
and sign bits after the last triple are clear, and lambda, scales and
biases are finite as float32. Anything else raises InvalidParam naming the
field or section, and for a value that breaks a rule the byte within it; a
section of the wrong size raises InvalidShape. ``pack_model`` and
``read_packed`` build their results through these constructors, so neither
can hand out what the other would refuse; a layer keeps read-only copies of
its sections and a model its own list of layers, so neither changes once
built. The one exception is a section whose memory is an immutable
``bytes`` object and that is aligned for its dtype, as ``read_packed``
frames most of them over the file's bytes: nothing can write to it, so the
layer keeps it without a copy. ``read_packed`` itself only frames bytes:
magic, version, truncation and trailing bytes; a fault a constructor finds
is re-raised as ``FormatError`` at that byte of the file. Every framing
fault is reported before any content fault.

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
table puts each of a sign byte's four 2-bit pairs into the high byte of the
key of its index byte, and the keys index a table of 1024 entries, each
holding the six signed codes of a byte, so each shard of a layer decodes
with one gather.

``pack_model`` cuts a layer of ``quantizer._SHARD_MIN`` elements or more,
and ``PackedLayer.unpack_codes`` one of ``_DECODE_SHARD_MIN`` or more, into
row shards, one per usable CPU, under the contract of
``quantizer._run_shards``. The cut falls on multiples of 8 rows, so every
shard starts on a whole index byte and a whole sign byte: an export shard
sums its rows' deadzone weights in buffers sized from its share of the
layer (``quantizer._export_block``), frees them, and encodes straight into
the layer's sections, copying in only the sign bytes ``np.packbits``
returns (1/24 of the codes' size); a decode shard gathers straight into
its own rows of the result; only the last shard can end in a half index
byte.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, InvalidParam, InvalidShape, TqlaError
from .quantizer import (
    PER_CHANNEL,
    PER_TENSOR,
    Granularity,
    QuantizedTensor,
    _as_matrix,
    _count,
    _export_block,
    _real,
    _require_finite,
    _require_ternary,
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
    14 and 15 decode to zeros; ``PackedLayer`` refuses them before they can.
    """
    signed = np.zeros((2, 16, 3), dtype=np.int8)
    signed[0, :N_PATTERNS] = PATTERNS
    signed[1, :N_PATTERNS] = -PATTERNS
    b = np.arange(256)
    s = np.arange(4)[:, None]
    table = np.concatenate([signed[s & 1, b & 0x0F], signed[s >> 1, b >> 4]], axis=2)
    return table.reshape(1024, 6).view("V6").reshape(1024)


_DECODE = _build_decode_table()

# _SIGN_KEYS[s, j]: pair j of sign byte s, the sign bits of the j-th of the four
# index bytes it covers, shifted into the high byte of that index byte's key
_SIGN_KEYS = (((np.arange(256)[:, None] >> 2 * np.arange(4)) & 3) << 8).astype("<u2")

# _TAIL_ZERO[r][i]: pattern i is zero after its first r elements, so it may
# close a row whose cols % 3 == r
_TAIL_ZERO = (None,) + tuple(~PATTERNS[:, r:].any(axis=1) for r in (1, 2))


def _triples_per_row(cols: int) -> int:
    return -(-cols // 3)


def _shard_bytes(index_bytes, sign_bytes, lo: int, hi: int, per_row: int):
    """The index and sign bytes of rows ``lo:hi``; ``lo`` is a multiple of 8."""
    start, stop = lo * per_row, hi * per_row  # triples; start is a multiple of 8
    return index_bytes[start // 2 : -(-stop // 2)], sign_bytes[start // 8 : -(-stop // 8)]


def _encode(codes: np.ndarray, out) -> tuple[np.ndarray, np.ndarray]:
    """Write the (index bytes, sign bytes) of a (rows, cols) int8 code matrix into ``out``.

    ``out`` is a pair of uint8 arrays of their sizes; it is returned.
    """
    rows, cols = codes.shape
    per_row = _triples_per_row(cols)
    n = rows * per_row
    index_bytes, sign_bytes = out
    # a zero triple pads an odd count to whole index bytes
    flat = np.zeros(3 * (n + n % 2), dtype=np.int8)
    flat[: 3 * n].reshape(rows, 3 * per_row)[:, :cols] = codes
    t = flat.reshape(-1, 3)
    keys = 9 * t[:, 0] + 3 * t[:, 1] + t[:, 2] + _ZERO_KEY  # the key above, in int8
    pairs = keys[0::2].astype(np.intp)
    pairs *= 27
    pairs += keys[1::2]
    # every pair key is in range; "clip" lets take write into out without a buffer
    _PAIR_TO_BYTE.take(pairs, out=index_bytes, mode="clip")
    sign_bytes[...] = np.packbits(keys[:n] < _ZERO_KEY, bitorder="little")  # packbits has no out
    return out


def _decode(index_bytes: np.ndarray, sign_bytes: np.ndarray, out: np.ndarray) -> None:
    """Write the codes of packed triples into ``out``, a C-contiguous int8 array.

    ``out`` holds three codes per triple; the sections start on its first
    triple and cover all of them. An odd triple count ends in a half index
    byte, whose three codes are copied on their own.
    """
    codes = out.reshape(-1)
    n = codes.size // 3
    m = n // 2  # whole index bytes
    keys = _SIGN_KEYS.take(sign_bytes, axis=0).reshape(-1)[: m + n % 2]
    np.bitwise_or(keys, index_bytes, out=keys)
    # every key is in range; "clip" lets take write into out without a buffer
    _DECODE.take(keys[:m], out=codes[: 6 * m].view(_DECODE.dtype), mode="clip")
    if n % 2:
        codes[6 * m :] = _DECODE[keys[m:]].view(np.int8)[:3]


#: Elements (3 MiB of int8 codes) from which ``PackedLayer.unpack_codes``
#: decodes on row shards: it stays above the export's ``_SHARD_MIN``
#: because, with both the export and the decode sharded at 512x512, a loop
#: that exported and then loaded read 17% slower per load (0.561 -> 0.659 ms
#: on 2 cores).
_DECODE_SHARD_MIN = 3 << 17


def _section_sizes(rows: int, cols: int, group_size: int) -> tuple[int, int, int, int]:
    """Item counts of a layer's index, sign, scale and bias sections."""
    n = rows * _triples_per_row(cols)
    n_scales = 1 if group_size == 0 else rows * -(-cols // group_size)
    return (n + 1) // 2, (n + 7) // 8, n_scales, rows


#: a layer's u32 header fields, in file order
_HEADER_FIELDS = ("rows", "cols", "group_size")

#: (name, dtype) of a layer's sections, in file order
_SECTIONS = (
    ("index_bytes", np.dtype("u1")),
    ("sign_bytes", np.dtype("u1")),
    ("scales", np.dtype("<f4")),
    ("bias", np.dtype("<f4")),
)


class _Fault(InvalidParam):
    """A broken format rule at ``byte`` of the header field or section ``field``.

    ``read_packed`` re-raises it as FormatError at that byte of the file.
    """

    def __init__(self, message: str, field: str, byte: int = 0):
        super().__init__(f"{message} at byte {byte} of {field}")
        self.field, self.byte = field, byte


_NOT_FINITE = "non-finite {what}: {what} must be finite as float32, got {got}"

#: the least magnitude that rounds to Inf in float32, halfway from its largest value to 2**128
_FLOAT32_INF = 2.0**128 - 2.0**103


def _require_finite32(values: np.ndarray, field: str, what: str) -> None:
    """Fault at the first of the float32 ``values`` not finite; each takes 4 bytes of ``field``."""
    finite = np.isfinite(values)
    if not finite.all():
        k = int(np.argmin(finite))
        raise _Fault(_NOT_FINITE.format(what=what, got=values[k]), field, 4 * k)


def _lambda(lam) -> float:
    """``lam`` as a float; InvalidParam unless it is a real number finite as float32."""
    lam = _real("lambda", lam)
    if not abs(lam) < _FLOAT32_INF:  # also false for NaN
        raise _Fault(_NOT_FINITE.format(what="lambda", got=lam), "lam")
    return lam


def _validate_codes(index_bytes, sign_bytes, rows, cols) -> None:
    """Fault at the first packed code the writer cannot produce."""
    per_row = _triples_per_row(cols)
    n = rows * per_row
    # triple k is the low (k even) or high (k odd) nibble of index byte k // 2;
    # spread into the two bytes of a little-endian u16, the nibbles read in triple order
    wide = index_bytes.astype(np.uint16)
    nibbles = ((wide | wide << 4) & 0x0F0F).astype("<u2", copy=False).view(np.uint8)
    idx = nibbles[:n]
    if idx.max() >= N_PATTERNS:
        k = int(np.argmax(idx >= N_PATTERNS))
        raise _Fault(f"invalid pattern index {idx[k]}", "index_bytes", k // 2)
    if n % 2 and nibbles[n]:
        raise _Fault("nonzero padding nibble", "index_bytes", n // 2)
    if cols % 3:
        # the last triple of each row is padded with zero codes
        ok = _TAIL_ZERO[cols % 3][idx[per_row - 1 :: per_row]]
        if not ok.all():
            k = int(np.argmin(ok)) * per_row + per_row - 1
            raise _Fault("nonzero code in a padding column", "index_bytes", k // 2)
    if n % 8 and sign_bytes[-1] >> (n % 8):
        raise _Fault("set sign bit after the last triple", "sign_bytes", n // 8)
    negative_zero = sign_bytes & np.packbits(idx == 0, bitorder="little")
    if negative_zero.any():
        k = int(np.argmax(negative_zero != 0))
        raise _Fault("negative sign on the zero pattern", "sign_bytes", k)


@dataclass(frozen=True)
class PackedLayer:
    """One layer in deployment form: packed codes, scales, frozen bias.

    A layer holds only what a TQLA file can: the constructor checks every
    rule of the format and ``read_packed`` frames bytes into this type, so
    the two accept the same layers. The header fields are u32 counts:
    ``rows`` and ``cols`` at least 1 and ``group_size`` at least 0. The
    sections are 1-D numpy arrays of the dtypes below, whose size fits the
    shape (else InvalidShape naming the section). The codes are ones the
    writer produces: pattern indices below 14, clear padding nibbles, zero
    codes in padding columns, clear sign bits after the last triple and on
    the zero pattern. Scales and biases are finite. Any other value raises
    InvalidParam naming the field or section, and for a value that breaks a
    rule the byte within it. The layer keeps a read-only copy of each
    section, checked after copying, so a built layer stays valid; an
    aligned section over an immutable ``bytes`` object is kept as it is.
    """

    rows: int
    cols: int
    group_size: int  # 0 encodes per-tensor granularity
    index_bytes: np.ndarray  # uint8, two 4-bit codes each
    sign_bytes: np.ndarray  # uint8, one bit per triple
    scales: np.ndarray  # float32, one per group
    bias: np.ndarray  # float32, one per row

    def __post_init__(self):
        for name, minimum in zip(_HEADER_FIELDS, (1, 1, 0)):
            value = _count(name, getattr(self, name), 0)
            if not minimum <= value < 2**32:
                raise _Fault(f"{name} must be a u32 count of at least {minimum}, got {value}", name)
            object.__setattr__(self, name, value)
        sizes = _section_sizes(self.rows, self.cols, self.group_size)
        for (name, dtype), size in zip(_SECTIONS, sizes):
            section = getattr(self, name)
            if not isinstance(section, np.ndarray) or section.dtype != dtype or section.ndim != 1:
                got = getattr(section, "dtype", type(section).__name__)
                raise InvalidParam(
                    f"{name} must be a 1-D {dtype} array, got {got} of shape {np.shape(section)}"
                )
            if section.size != size:
                raise InvalidShape(
                    f"{self.rows}x{self.cols} layer needs {size} {name}, got {section.size}"
                )
            if not (isinstance(section.base, bytes) and section.flags.aligned):
                section = section.copy()
                section.setflags(write=False)
                object.__setattr__(self, name, section)
        _validate_codes(self.index_bytes, self.sign_bytes, self.rows, self.cols)
        _require_finite32(self.scales, "scales", "scale")
        _require_finite32(self.bias, "bias", "bias")

    @property
    def n_triples_per_row(self) -> int:
        return _triples_per_row(self.cols)

    @property
    def padded_cols(self) -> int:
        return 3 * self.n_triples_per_row

    def unpack_codes(self) -> np.ndarray:
        """Ternary codes (rows, padded_cols), padding columns included.

        The result is allocated here and each row shard decodes into its own
        rows. Shards cut on multiples of 8 rows, as ``pack_model``'s do, so
        each one starts on whole index and sign bytes.
        """
        rows, per_row = self.rows, self.n_triples_per_row
        out = np.empty((rows, 3 * per_row), dtype=np.int8)

        def shard(lo, hi):
            _decode(*_shard_bytes(self.index_bytes, self.sign_bytes, lo, hi, per_row), out[lo:hi])

        _run_shards(shard, _row_ranges(rows, out.size, align=8, least=_DECODE_SHARD_MIN))
        return out


@dataclass(frozen=True)
class PackedModel:
    """A stack of packed layers plus the reactivation strength they froze.

    ``lam`` is a real number finite as float32, as the file stores it, and
    ``layers`` a list of ``PackedLayer``; anything else raises InvalidParam.
    The model keeps its own copy of the list.
    """

    lam: float
    layers: list

    def __post_init__(self):
        object.__setattr__(self, "lam", _lambda(self.lam))
        layers = self.layers
        if not isinstance(layers, list) or not all(isinstance(x, PackedLayer) for x in layers):
            got = [type(x).__name__ for x in layers] if isinstance(layers, list) else layers
            raise InvalidParam(f"layers must be a list of PackedLayer, got {got!r}")
        object.__setattr__(self, "layers", list(layers))


def _granularity_to_group_size(granularity: Granularity, cols: int) -> int:
    if granularity.kind == PER_TENSOR:
        return 0
    if granularity.kind == PER_CHANNEL:
        return cols
    return granularity.group_size


def _pack_layer(
    q: QuantizedTensor, shadow: np.ndarray, mask: np.ndarray, lam: float
) -> PackedLayer:
    """Encode ``q.codes`` and freeze ``lam`` times the masked row sums of ``shadow``.

    The row sums, index bytes and sign bytes are allocated here and each
    shard writes its own part of them. Shards cut on multiples of 8 rows,
    so each one encodes whole index and sign bytes and the bytes are those
    of one pass. A shard's two sum buffers, of ``_export_block`` elements,
    are freed before it encodes. A non-finite shadow weight makes its row's
    masked sum non-finite (NaN and Inf times a clear mask bit are NaN); only
    then is ``shadow`` scanned, to tell it from finite weights whose sum
    overflows.
    """
    rows, cols = q.codes.shape
    per_row = _triples_per_row(cols)
    n_index, n_sign, _, _ = _section_sizes(rows, cols, 0)
    sums = np.empty(rows)
    index_bytes = np.empty(n_index, dtype=np.uint8)
    sign_bytes = np.empty(n_sign, dtype=np.uint8)

    ranges = _row_ranges(rows, shadow.size, align=8)
    block = _export_block(shadow.size, len(ranges))

    def shard(lo, hi):
        with np.errstate(invalid="ignore"):  # Inf times a clear mask bit
            _sequential_sums(shadow[lo:hi], mask[lo:hi], out=sums[lo:hi], block=block)
        _encode(q.codes[lo:hi], _shard_bytes(index_bytes, sign_bytes, lo, hi, per_row))

    _run_shards(shard, ranges)
    if not np.isfinite(sums).all():
        _require_finite(shadow)
    bias = np.multiply(sums, lam, out=sums)
    with np.errstate(over="ignore"):  # a value that overflows float32 is left for PackedLayer
        scales, bias = np.asarray(q.scales, dtype=np.float64).astype("<f4"), bias.astype("<f4")
    return PackedLayer(
        rows=rows,
        cols=cols,
        group_size=_granularity_to_group_size(q.granularity, cols),
        index_bytes=index_bytes,
        sign_bytes=sign_bytes,
        scales=scales,
        bias=bias,
    )


def pack_model(layers, lam: float) -> PackedModel:
    """Pack (QuantizedTensor, shadow weights, bool deadzone mask) triples.

    The per-row bias is the deadzone sum of the final shadow weights scaled
    by ``lam``, frozen here for inference. Each shadow matrix is checked
    once: finite, and of the same shape as its codes and mask; codes must be
    integers in {-1, 0, +1}. A non-finite shadow weight is reported before
    any other fault of its layer. Codes are padded to a multiple of three
    columns with zeros; packing is lossless for codes and within float32
    rounding for scales and biases. ``lam`` is checked first, as
    ``PackedModel`` checks it; a scale or bias that is not finite as float32
    is refused by ``PackedLayer``, since the file stores float32. Both raise
    InvalidParam.
    """
    lam = _lambda(lam)
    packed = []
    for k, (q, shadow, mask) in enumerate(layers):
        shadow = _as_matrix(shadow, scan=False)
        mask = np.asarray(mask, dtype=bool)
        codes = q.codes
        try:
            if not shadow.shape == mask.shape == codes.shape:
                raise InvalidShape(f"shadow {shadow.shape}, mask {mask.shape}, codes {codes.shape}")
            _require_ternary(f"layer {k} codes", codes)
        except TqlaError:
            _require_finite(shadow)  # a non-finite weight is reported first
            raise
        packed.append(_pack_layer(q, shadow, mask, lam))
    return PackedModel(lam=lam, layers=packed)


_HEADER = struct.Struct("<4sIfI")
_LAYER_HEADER = struct.Struct("<III")


def write_packed(model: PackedModel, path) -> None:
    """Serialize to the TQLA binary layout; identical models give identical bytes.

    A ``PackedModel`` holds only what the format allows, so ``read_packed``
    accepts every file written here.
    """
    blob = bytearray()
    blob += _HEADER.pack(MAGIC, FORMAT_VERSION, np.float32(model.lam), len(model.layers))
    for layer in model.layers:
        blob += _LAYER_HEADER.pack(*(getattr(layer, name) for name in _HEADER_FIELDS))
        for name, _ in _SECTIONS:
            blob += getattr(layer, name).tobytes()
    with open(path, "wb") as fh:
        fh.write(blob)


def _take(blob: bytes, offset: int, count: int, what: str) -> int:
    """The offset after ``count`` bytes at ``offset``; FormatError if the file ends first."""
    if offset + count > len(blob):
        raise FormatError(f"file truncated while reading {what}", offset=offset)
    return offset + count


def _build(cls, offsets: dict, **fields):
    """``cls(**fields)``; a fault at byte b of field f raises FormatError at ``offsets[f] + b``."""
    try:
        return cls(**fields)
    except _Fault as fault:
        raise FormatError(str(fault), offset=offsets[fault.field] + fault.byte) from None


def read_packed(path) -> PackedModel:
    """Frame a TQLA file into a ``PackedModel``; malformed input raises FormatError.

    The reader checks the magic, the version, truncation and trailing bytes;
    every other rule is the constructors', whose faults it raises at their
    file offsets. All framing is checked before any layer is built.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    offset = _take(blob, 0, _HEADER.size, "header")
    magic, version, lam, n_layers = _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {MAGIC!r}", offset=0)
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported format version {version}", offset=4)
    framed = []  # (constructor fields, file offset of each field) of each layer
    for _ in range(n_layers):
        start, offset = offset, _take(blob, offset, _LAYER_HEADER.size, "layer header")
        fields = dict(zip(_HEADER_FIELDS, _LAYER_HEADER.unpack_from(blob, start)))
        offsets = {name: start + 4 * k for k, name in enumerate(_HEADER_FIELDS)}
        for (name, dtype), count in zip(_SECTIONS, _section_sizes(*fields.values())):
            offsets[name], offset = offset, _take(blob, offset, count * dtype.itemsize, name)
            fields[name] = np.frombuffer(blob, dtype, count, offsets[name])
        framed.append((fields, offsets))
    if offset != len(blob):
        raise FormatError(f"{len(blob) - offset} trailing bytes", offset=offset)
    layers = [_build(PackedLayer, offsets, **fields) for fields, offsets in framed]
    return _build(PackedModel, {"lam": 8}, lam=lam, layers=layers)  # lambda's place in the header
