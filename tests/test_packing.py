import hashlib
import itertools
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import gemv_scalar, pack_codes_scalar, rel_err, unpack_codes_scalar

from tqla import Granularity, deadzone_mask, quantize, quantizer, tequila_bias
from tqla.errors import FormatError, InvalidParam, InvalidShape
from tqla.packing import (
    FORMAT_VERSION,
    PATTERNS,
    PackedLayer,
    PackedModel,
    _encode,
    pack_model,
    read_packed,
    write_packed,
)
from tqla.quantizer import GroupLayout

HEADER_BYTES = 16
LAYER_HEADER_BYTES = 12
LAM = 1e-3


def granularities(cols):
    return st.one_of(
        st.just(Granularity("per-tensor")),
        st.just(Granularity("per-channel")),
        st.integers(1, cols + 3).map(lambda n: Granularity("per-group", n)),
    )


@st.composite
def layers(draw):
    rows = draw(st.integers(1, 9))
    cols = draw(st.integers(1, 20))
    granularity = draw(granularities(cols))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = rng.standard_normal((rows, cols)) * draw(st.sampled_from([1e-3, 1.0, 50.0]))
    if draw(st.booleans()):
        w[: draw(st.integers(0, rows))] = 0.0  # degenerate groups
    return w, granularity


def write_model(path, stack):
    packed = []
    for w, granularity in stack:
        q = quantize(w, "absmean", granularity)
        packed.append((q, w, deadzone_mask(w, q)))
    write_packed(pack_model(packed, LAM), path)
    return packed


@settings(max_examples=60, deadline=None)
@given(st.lists(layers(), min_size=1, max_size=3))
def test_roundtrip(tmp_path_factory, stack):
    path = tmp_path_factory.mktemp("rt") / "model.tqla"
    written = write_model(path, stack)
    model = read_packed(path)
    assert model.lam == float(np.float32(LAM))
    assert len(model.layers) == len(written)
    for layer, (q, w, mask) in zip(model.layers, written):
        index, signs = pack_codes_scalar(q.codes.tolist())
        assert layer.index_bytes.tobytes() == index
        assert layer.sign_bytes.tobytes() == signs
        codes = layer.unpack_codes()
        np.testing.assert_array_equal(codes, unpack_codes_scalar(index, signs, *q.codes.shape))
        np.testing.assert_array_equal(codes[:, : layer.cols], q.codes)
        assert not codes[:, layer.cols :].any()
        assert layer.scales.size == q.scales.size
        np.testing.assert_array_equal(layer.scales, q.scales.astype(np.float32))
        np.testing.assert_array_equal(layer.bias, tequila_bias(w, mask, LAM).astype(np.float32))
    blob = path.read_bytes()
    write_packed(model, path)
    assert path.read_bytes() == blob


ALL_TRIPLES = [v for t in itertools.product((-1, 0, 1), repeat=3) for v in t]
RNG_CODES = np.random.default_rng(3809)


def code_cases():
    # every triple in the low nibble of its byte (27 triples), then in the high one (28)
    yield np.array([ALL_TRIPLES])
    yield np.array([[0, 0, 0] + ALL_TRIPLES])
    # odd and even triple counts, with cols % 3 in {0, 1, 2}
    for rows, cols in [(1, 1), (1, 2), (3, 7), (2, 8), (5, 9), (4, 9), (3, 10), (2, 11), (6, 12)]:
        yield RNG_CODES.integers(-1, 2, size=(rows, cols))


@pytest.mark.parametrize("codes", list(code_cases()), ids=lambda c: "x".join(map(str, c.shape)))
def test_sections_match_scalar_oracle(tmp_path, codes):
    path = tmp_path / "model.tqla"
    ((q, _, _),) = write_model(path, [(codes.astype(np.float64), Granularity("per-tensor"))])
    np.testing.assert_array_equal(q.codes, codes)
    index, signs = pack_codes_scalar(codes.tolist())
    start = HEADER_BYTES + LAYER_HEADER_BYTES
    blob = path.read_bytes()
    assert blob[start : start + len(index)] == index
    assert blob[start + len(index) : start + len(index) + len(signs)] == signs
    (layer,) = read_packed(path).layers
    np.testing.assert_array_equal(layer.unpack_codes(), unpack_codes_scalar(index, signs, *codes.shape))


#: Every (index byte, sign pair) key ``byte | pair << 8`` whose nibbles are both
#: pattern indices: 14 x 14 patterns x 4 sign pairs. The writer produces the 729
#: of them that put no sign bit on a zero pattern; the decoder reads all 784.
DECODE_KEYS = np.array(
    [b | s << 8 for s in range(4) for b in range(256) if b & 0x0F < 14 and b >> 4 < 14]
)


def layer_of_keys(keys, rows, cols):
    """A layer whose index byte j and sign pair j come from key ``keys[j % len(keys)]``."""
    n = rows * -(-cols // 3)
    key = np.resize(keys, (n + 1) // 2)
    pair_bits = (key[:, None] >> np.array([8, 9])) & 1
    sign_bytes = np.packbits(pair_bits.reshape(-1), bitorder="little")
    return code_layer(rows, cols, (key & 0xFF).astype(np.uint8), sign_bytes)


def code_layer(rows, cols, index_bytes, sign_bytes):
    """A per-tensor layer of the given packed codes, unit scale and zero bias."""
    scales, bias = np.ones(1, np.float32), np.zeros(rows, np.float32)
    return PackedLayer(rows, cols, 0, index_bytes, sign_bytes, scales, bias)


# a cycle of 785 keys puts each of the 784 at all four places of a sign byte
# within 4 * 785 index bytes; odd and even triple counts with each cols % 3
@pytest.mark.parametrize(
    "rows,cols",
    [
        (1, 1),
        (1, 2),
        (1, 3),
        (2, 4),
        (1, 3 * 6281),
        (8, 3 * 786),
        (7, 3 * 899 - 2),
        (4, 3 * 1571 - 2),
        (5, 3 * 1257 - 1),
        (2, 3 * 3141 - 1),
    ],
)
def test_every_decode_key_matches_scalar_oracle(rows, cols):
    layer = layer_of_keys(np.append(DECODE_KEYS, DECODE_KEYS[0]), rows, cols)
    codes = layer.unpack_codes()
    assert type(codes) is np.ndarray and codes.dtype == np.int8
    assert codes.shape == (rows, layer.padded_cols) and codes.flags.c_contiguous
    for source in (layer.index_bytes, layer.sign_bytes, layer.unpack_codes()):
        assert not np.shares_memory(codes, source)
    index, signs = layer.index_bytes.tobytes(), layer.sign_bytes.tobytes()
    np.testing.assert_array_equal(codes, unpack_codes_scalar(index, signs, rows, cols))


def test_every_sign_byte_matches_scalar_oracle():
    # all 256 sign bytes over (+,+,+) triples, so each bit shows as a sign
    index, signs = bytes([0xDD] * 1024), bytes(range(256))
    layer = code_layer(2, 3 * 1024, np.frombuffer(index, np.uint8), np.frombuffer(signs, np.uint8))
    expected = unpack_codes_scalar(index, signs, 2, 3 * 1024)
    np.testing.assert_array_equal(layer.unpack_codes(), expected)


def test_sign_bit_marks_a_first_nonzero_minus_one():
    triples = list(itertools.product((-1, 0, 1), repeat=3))
    _, sign_bytes = _encode(np.array([ALL_TRIPLES], dtype=np.int8))
    negative = np.unpackbits(sign_bytes, count=len(triples), bitorder="little")
    for (a, b, c), bit in zip(triples, negative):
        first = next((v for v in (a, b, c) if v), 0)
        assert bit == (first == -1) == (9 * (a + 1) + 3 * (b + 1) + (c + 1) < 13)


#: SHA-256 of the file written by ``fixed_model_file``; recorded before the
#: codec became table-driven, so any change to the written bytes shows here.
FIXED_FILE_SHA256 = "c1fac29112b3a74dc9f4c770957547591215509146c468edcdc0ce9fe1e7bb1d"


def fixed_model_file(path):
    """Five layers: uneven groups, groups crossing triples, all three granularities."""
    rng = np.random.default_rng(2509)
    stack = []
    for (rows, cols), granularity, scheme in [
        ((5, 13), Granularity("per-group", 5), "absmean"),
        ((4, 130), Granularity("per-group", 128), "twn"),
        ((7, 9), Granularity("per-channel"), "absmean"),
        ((3, 8), Granularity("per-tensor"), "twn"),
        ((2, 1), Granularity("per-channel"), "absmean"),
    ]:
        w = rng.standard_normal((rows, cols))
        q = quantize(w, scheme, granularity)
        stack.append((q, w, deadzone_mask(w, q)))
    write_packed(pack_model(stack, 0.05), path)


def test_fixed_file_digest_unchanged(tmp_path):
    path = tmp_path / "model.tqla"
    fixed_model_file(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == FIXED_FILE_SHA256


def test_writer_only_writes_the_readable_version(tmp_path):
    with pytest.raises(TypeError):
        PackedModel(lam=0.0, layers=[], version=2)
    path = tmp_path / "empty.tqla"
    write_packed(PackedModel(lam=0.0, layers=[]), path)
    assert path.read_bytes()[4:8] == FORMAT_VERSION.to_bytes(4, "little")
    assert read_packed(path) == PackedModel(lam=0.0, layers=[])


@pytest.mark.parametrize("lam", [np.nan, np.inf, -np.inf])
def test_non_finite_lambda_rejected(lam):
    w = np.array([[0.5, -1.0, 0.0]])
    q = quantize(w, "absmean", Granularity("per-tensor"))
    with pytest.raises(InvalidParam, match="lambda"):
        pack_model([(q, w, deadzone_mask(w, q))], lam)


def test_pack_model_input_checks():
    w = np.array([[0.5, -1.0, 0.0], [0.25, 0.0, -2.0]])
    q = quantize(w, "absmean", Granularity("per-channel"))
    mask = deadzone_mask(w, q)
    with pytest.raises(InvalidShape):
        pack_model([(q, w, mask[:, :2])], LAM)
    with pytest.raises(InvalidShape):
        pack_model([(q, w[:1], mask)], LAM)
    with pytest.raises(InvalidShape):
        pack_model([(q, w.T, mask.T)], LAM)
    bad = w.copy()
    bad[1, 2] = np.nan
    with pytest.raises(InvalidParam):
        pack_model([(q, bad, mask)], LAM)
    # any bool array is a mask: a hand-written one packs like the computed one
    assert type(mask) is np.ndarray and mask.dtype == bool
    by_hand = np.array([[False, False, True], [True, True, False]])
    (layer,) = pack_model([(q, w, by_hand)], LAM).layers
    np.testing.assert_array_equal(layer.bias, np.float32([0.0, 0.25 * LAM]))
    assert layer.bias.tobytes() == pack_model([(q, w, mask)], LAM).layers[0].bias.tobytes()


def sections_of_sizes(index, signs, scales, biases):
    u8, f4 = np.uint8, np.float32
    return np.zeros(index, u8), np.zeros(signs, u8), np.ones(scales, f4), np.zeros(biases, f4)


@pytest.mark.parametrize(
    "rows,cols,group_size,sizes,section",
    [
        # 10 triples: 5 index bytes and 2 sign bytes
        (1, 30, 0, (5, 0, 1, 1), "sign_bytes"),
        (1, 30, 0, (4, 2, 1, 1), "index_bytes"),
        (1, 30, 0, (6, 2, 1, 1), "index_bytes"),
        (1, 3, 0, (1, 1, 2, 1), "scales"),
        # per-group 3 over 7 columns: 3 groups a row
        (2, 7, 3, (3, 1, 3, 2), "scales"),
        (2, 7, 7, (3, 1, 2, 1), "bias"),
    ],
)
def test_layer_sections_must_fit_its_shape(rows, cols, group_size, sizes, section):
    with pytest.raises(InvalidShape, match=section):
        PackedLayer(rows, cols, group_size, *sections_of_sizes(*sizes))


@pytest.mark.parametrize(
    "rows,cols,group_size,field",
    [
        (0, 3, 0, "rows"),  # read_packed refuses a layer of no rows
        (1, 0, 0, "cols"),
        (1, 3, 2**33, "group_size"),  # does not fit the u32 header field
        (1, 3, -1, "group_size"),
        (2**32, 1, 0, "rows"),
    ],
)
def test_header_fields_must_be_u32_counts(rows, cols, group_size, field):
    # sections of a 1x3 per-tensor layer: only the header field is wrong
    with pytest.raises(InvalidParam, match=field):
        PackedLayer(rows, cols, group_size, *sections_of_sizes(1, 1, 1, 1))


def test_non_float32_values_rejected():
    # finite in float64 but not in float32 (largest float32 is about 3.4e38)
    w = np.array([[0.5, -1.0, 0.0], [0.25, 0.0, -2.0]])
    pt = Granularity("per-tensor")

    def pack(w, lam):
        q = quantize(w, "absmean", pt)
        return pack_model([(q, w, deadzone_mask(w, q))], lam)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidParam, match="lambda"):
            pack(w, 1e39)
        with pytest.raises(InvalidParam, match="scale"):
            pack(w * 1e39, LAM)
        # scales of about 1e10 fit; lambda times the deadzone sum does not
        with pytest.raises(InvalidParam, match="bias"):
            pack(w * 1e10, 1e30)
        pack(w * 1e10, 1e20)


def patch_float32(path, offset, value):
    blob = bytearray(path.read_bytes())
    blob[offset : offset + 4] = np.array(value, dtype="<f4").tobytes()
    path.write_bytes(bytes(blob))


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_non_finite_floats_rejected(tmp_path, value):
    # 2x4 per-channel: 2 index bytes, 1 sign byte, 2 scales, 2 biases
    w = np.array([[0.5, -1.0, 0.0, 0.25], [0.1, 0.0, -2.0, 1.0]])
    path = tmp_path / "model.tqla"
    write_model(path, [(w, Granularity("per-channel"))])
    blob = path.read_bytes()
    scales = HEADER_BYTES + LAYER_HEADER_BYTES + 3
    for offset, what in [(8, "lambda"), (scales + 4, "scale"), (scales + 12, "bias")]:
        path.write_bytes(blob)
        read_packed(path)
        patch_float32(path, offset, value)
        assert f"non-finite {what}" in expect_format_error(path, offset)


def one_layer_file(tmp_path, codes_row):
    """A 1-row file whose codes are exactly ``codes_row`` (per-tensor)."""
    w = np.asarray([codes_row], dtype=np.float64)
    path = tmp_path / "model.tqla"
    ((q, _, _),) = write_model(path, [(w, Granularity("per-tensor"))])
    assert q.codes.tolist() == [codes_row]
    return path


def patch(path, offset, value):
    blob = bytearray(path.read_bytes())
    blob[offset] = value
    path.write_bytes(bytes(blob))


def expect_format_error(path, offset):
    with pytest.raises(FormatError) as info:
        read_packed(path)
    assert info.value.offset == offset
    return str(info.value)


def test_set_sign_bit_after_last_triple_rejected(tmp_path):
    # 4 columns -> 2 triples -> 1 index byte, then 1 sign byte with 6 padding bits
    path = one_layer_file(tmp_path, [1, -1, 0, 1])
    sign_offset = HEADER_BYTES + LAYER_HEADER_BYTES + 1
    assert read_packed(path).layers[0].sign_bytes.tolist() == [0]
    patch(path, sign_offset, 0b10000000)
    assert "sign bit" in expect_format_error(path, sign_offset)


def test_negative_zero_pattern_rejected(tmp_path):
    # the first triple is all zero (index 0); its sign bit must stay clear
    path = one_layer_file(tmp_path, [0, 0, 0, 1, -1, 1])
    sign_offset = HEADER_BYTES + LAYER_HEADER_BYTES + 1
    assert read_packed(path).layers[0].sign_bytes.tolist() == [0]
    patch(path, sign_offset, 0b1)
    assert "zero pattern" in expect_format_error(path, sign_offset)


def test_nonzero_code_in_padding_column_rejected(tmp_path):
    # 4 columns: the second triple holds column 3 and two padding columns
    path = one_layer_file(tmp_path, [1, 1, 1, 1])
    idx_offset = HEADER_BYTES + LAYER_HEADER_BYTES
    index = read_packed(path).layers[0].index_bytes[0]
    assert PATTERNS[index >> 4].tolist() == [1, 0, 0]
    patch(path, idx_offset, (index & 0x0F) | (3 << 4))  # (0, +, 0)
    assert "padding column" in expect_format_error(path, idx_offset)


def test_invalid_index_and_padding_nibble_rejected(tmp_path):
    path = one_layer_file(tmp_path, [1, -1, 0])
    idx_offset = HEADER_BYTES + LAYER_HEADER_BYTES
    patch(path, idx_offset, 14)
    assert "invalid pattern index 14" in expect_format_error(path, idx_offset)
    path = one_layer_file(tmp_path, [1, -1, 0])
    patch(path, idx_offset, read_packed(path).layers[0].index_bytes[0] | 0x10)
    assert "padding nibble" in expect_format_error(path, idx_offset)


def test_truncation_and_trailing_bytes(tmp_path):
    path = one_layer_file(tmp_path, [1, -1, 0, 1])
    blob = path.read_bytes()
    path.write_bytes(blob[:-1])
    assert "truncated" in expect_format_error(path, len(blob) - 4)
    path.write_bytes(blob + b"\0")
    assert "trailing" in expect_format_error(path, len(blob))


@pytest.mark.parametrize("cols", [9, 10, 11], ids=lambda c: f"cols%3={c % 3}")
@pytest.mark.parametrize(
    "granularity",
    [Granularity("per-tensor"), Granularity("per-channel"), Granularity("per-group", 4)],
    ids=lambda g: g.kind,
)
def test_packed_forward_matches_scalar_gemv(tmp_path, granularity, cols):
    # quantize, pack, write and read a layer, then run its forward from the
    # file alone: float32 codes * scales, a float32 product and the bias
    rng = np.random.default_rng(cols)
    rows = 5
    w = rng.standard_normal((rows, cols))
    w[1, :4] = 0.0  # a degenerate group for per-group 4
    q = quantize(w, "absmean", granularity)
    path = tmp_path / "layer.tqla"
    write_packed(pack_model([(q, w, deadzone_mask(w, q))], 0.05), path)
    (layer,) = read_packed(path).layers
    codes = layer.unpack_codes()[:, :cols]
    scales = GroupLayout(granularity, rows, cols).expand(layer.scales)
    assert scales.dtype == np.float32
    for _ in range(4):
        x = rng.standard_normal(cols).astype(np.float32)
        y = (codes * scales) @ x + layer.bias
        ref = gemv_scalar(
            codes.tolist(),
            layer.scales.tolist(),
            layer.bias.tolist(),
            x.tolist(),
            granularity.kind,
            granularity.group_size,
        )
        # float32 products and sums of at most 11 terms against float64
        assert rel_err(y, ref) < 1e-5


def _traced_peak(fn):
    """Bytes ``fn()`` holds at its peak, as numpy reports them to tracemalloc."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


@pytest.mark.parametrize(
    "shape,granularity",
    [
        ((512, 500), Granularity("per-group", 128)),
        ((500, 512), Granularity("per-channel")),
        ((500, 512), Granularity("per-tensor")),  # one run, summed in buffer-sized chunks
        # above the size constant: two shards, each with its own temporaries
        ((1024, 1000), Granularity("per-group", 128)),
        ((1000, 1024), Granularity("per-channel")),
    ],
    ids=lambda case: getattr(case, "kind", None),
)
def test_export_holds_no_full_size_float64_temporary(monkeypatch, shape, granularity):
    # quantize, deadzone_mask and pack_model form |w|, the thresholds and the
    # deadzone sums block by block or by broadcasting; their peak, results
    # included, stays below one float64 matrix of the weights' size
    monkeypatch.setattr(quantizer, "_usable_cpus", lambda: 2)
    w = np.random.default_rng(0).standard_normal(shape)

    def export():
        q = quantize(w, "absmean", granularity)
        pack_model([(q, w, deadzone_mask(w, q))], LAM)

    export()
    assert _traced_peak(export) < w.nbytes
