import dataclasses
import hashlib
import itertools
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import (
    gemv_scalar,
    pack_codes_scalar,
    packed_mlp_scalar,
    rel_err,
    unpack_codes_scalar,
)
from shards import shard_counts

from tqla import Granularity, deadzone_mask, quantize, quantizer, tequila_bias
from tqla.errors import FormatError, InvalidParam, InvalidShape
from tqla.packing import (
    FORMAT_VERSION,
    PATTERNS,
    PackedLayer,
    PackedModel,
    _encode,
    _section_sizes,
    pack_model,
    read_packed,
    write_packed,
)
from tqla.quantizer import GroupLayout, QuantizedTensor

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
    """A layer whose index byte j and sign pair j come from key ``keys[j % len(keys)]``.

    The keys replace a built all-zero layer's sections, past its checks: some
    of them put a sign bit on a zero pattern or codes in padding columns,
    which ``PackedLayer`` refuses to be built with, and the decoder must still
    read them.
    """
    n = rows * -(-cols // 3)
    key = np.resize(keys, (n + 1) // 2)
    pair_bits = (key[:, None] >> np.array([8, 9])) & 1
    sign_bytes = np.packbits(pair_bits.reshape(-1), bitorder="little")
    layer = code_layer(rows, cols, np.zeros(key.size, np.uint8), np.zeros_like(sign_bytes))
    object.__setattr__(layer, "index_bytes", (key & 0xFF).astype(np.uint8))
    object.__setattr__(layer, "sign_bytes", sign_bytes)
    return layer


def encode(codes):
    """(index bytes, sign bytes) of an int8 code matrix, in fresh arrays."""
    sizes = _section_sizes(*codes.shape, 0)[:2]
    return _encode(codes, tuple(np.empty(n, dtype=np.uint8) for n in sizes))


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
    _, sign_bytes = encode(np.array([ALL_TRIPLES], dtype=np.int8))
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
    "section,value",
    [
        ("index_bytes", np.zeros(5, np.int16)),  # the right size, but twice the bytes
        ("index_bytes", [0] * 5),
        ("sign_bytes", np.zeros((2, 1), np.uint8)),
        ("scales", np.ones(1)),
        ("bias", np.zeros(1, np.float16)),
        ("bias", np.zeros((1, 1), np.float32)),
    ],
    ids=["int16", "list", "2-D", "float64", "float16", "2-D-float32"],
)
def test_layer_sections_must_be_1d_arrays_of_their_dtype(section, value):
    # sections of a 1x30 per-tensor layer: 10 triples, 5 index and 2 sign bytes
    names = ("index_bytes", "sign_bytes", "scales", "bias")
    sections = dict(zip(names, sections_of_sizes(5, 2, 1, 1)))
    sections[section] = value
    with pytest.raises(InvalidParam, match=section):
        PackedLayer(1, 30, 0, **sections)


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


def test_framing_faults_come_before_content_faults(tmp_path):
    path = one_layer_file(tmp_path, [1, -1, 0, 1])
    blob = bytearray(path.read_bytes())
    blob[HEADER_BYTES + LAYER_HEADER_BYTES] = 14  # an invalid pattern index
    for framed, offset, message in [
        (blob[:-1], len(blob) - 4, "truncated"),
        (blob + b"\0", len(blob), "trailing"),
        (blob, HEADER_BYTES + LAYER_HEADER_BYTES, "invalid pattern index 14"),
    ]:
        path.write_bytes(bytes(framed))
        assert message in expect_format_error(path, offset)


SECTION_DTYPES = {
    "index_bytes": np.uint8,
    "sign_bytes": np.uint8,
    "scales": np.float32,
    "bias": np.float32,
}


def one_layer(**changes):
    """Fields of a 1x4 per-tensor layer of codes (1, -1, 0, 1), with ``changes`` made.

    Its two triples (+,-,0) and (+,0,0) are patterns 6 and 9: one index byte,
    one sign byte, one scale and one bias.
    """
    fields = {"rows": 1, "cols": 4, "group_size": 0, "index_bytes": [0x96], "sign_bytes": [0]}
    fields.update({"scales": [1.0], "bias": [0.0]}, **changes)
    for name, dtype in SECTION_DTYPES.items():
        fields[name] = np.array(fields[name], dtype)
    return fields


def tqla_bytes(lam, stack):
    """A TQLA file of ``lam`` and the layer fields in ``stack``, put together without any check."""
    blob = struct.pack("<4sIfI", b"TQLA", FORMAT_VERSION, lam, len(stack))
    for fields in stack:
        blob += struct.pack("<III", fields["rows"], fields["cols"], fields["group_size"])
        blob += b"".join(np.asarray(fields[name]).tobytes() for name in SECTION_DTYPES)
    return blob


#: Layers that the reader refuses and the writer once wrote, each by the
#: changes that break ``one_layer`` and the message that refuses them
REFUSED_LAYERS = {
    "pattern index 14": (
        {"index_bytes": [0x9E]},
        "invalid pattern index 14 at byte 0 of index_bytes",
    ),
    "padding nibble": (
        {"cols": 3, "index_bytes": [0x16]},
        "nonzero padding nibble at byte 0 of index_bytes",
    ),
    "zero pattern sign": (
        {"index_bytes": [0x90], "sign_bytes": [0b01]},
        "negative sign on the zero pattern at byte 0 of sign_bytes",
    ),
    "padding column code": (
        {"index_bytes": [0x36]},
        "nonzero code in a padding column at byte 0 of index_bytes",
    ),
    "trailing sign bit": (
        {"sign_bytes": [0b100]},
        "set sign bit after the last triple at byte 0 of sign_bytes",
    ),
    "NaN scale": ({"scales": [np.nan]}, "non-finite scale: .* at byte 0 of scales"),
    "Inf bias": ({"bias": [np.inf]}, "non-finite bias: .* at byte 0 of bias"),
}


@pytest.mark.parametrize("case", list(REFUSED_LAYERS))
def test_a_layer_the_reader_refuses_cannot_be_built(tmp_path, case):
    changes, message = REFUSED_LAYERS[case]
    PackedLayer(**one_layer())
    path = tmp_path / "model.tqla"
    with pytest.raises(InvalidParam, match=message):
        write_packed(PackedModel(LAM, [PackedLayer(**one_layer(**changes))]), path)
    assert not path.exists()
    # the reader refuses the same bytes with the same message
    path.write_bytes(tqla_bytes(LAM, [one_layer(**changes)]))
    with pytest.raises(FormatError, match=message):
        read_packed(path)


@pytest.mark.parametrize("lam", [np.nan, np.inf, -np.inf, 1e39, -1e39, "x", None, True], ids=repr)
def test_model_lambda_must_be_a_real_finite_as_float32(tmp_path, lam):
    path = tmp_path / "model.tqla"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidParam, match="lambda"):
            write_packed(PackedModel(lam, []), path)
    assert not path.exists()


def test_model_lambda_is_refused_exactly_where_float32_overflows(tmp_path):
    largest = float(np.finfo(np.float32).max)
    edge = 2.0**128 - 2.0**103  # halfway from the largest float32 to 2**128: rounds to Inf
    path = tmp_path / "model.tqla"
    for lam in (largest, np.nextafter(edge, 0.0), -np.nextafter(edge, 0.0)):
        write_packed(PackedModel(lam, []), path)
        assert read_packed(path).lam == np.copysign(largest, lam)
    for lam in (edge, -edge):
        with pytest.raises(InvalidParam, match="lambda"):
            PackedModel(lam, [])


def test_model_holds_a_list_of_packed_layers():
    layer = PackedLayer(**one_layer())
    for layers in [(layer,), [layer, one_layer()], None]:
        with pytest.raises(InvalidParam, match="layers"):
            PackedModel(LAM, layers)
    model = PackedModel(np.float32(LAM), [layer])
    assert type(model.lam) is float
    with pytest.raises(dataclasses.FrozenInstanceError):
        model.lam = np.nan
    with pytest.raises(dataclasses.FrozenInstanceError):
        layer.rows = 0


def test_a_built_model_does_not_change(tmp_path):
    # a set sign bit written into a built 1x3 all-zero layer used to reach
    # the file, which the reader then refused
    fields = one_layer(cols=3, index_bytes=[0])
    layer = PackedLayer(**fields)
    for name in SECTION_DTYPES:
        fields[name][0] = 1  # the caller's arrays were copied
        with pytest.raises(ValueError, match="read-only"):
            getattr(layer, name)[0] = 1
    layers = [layer]
    model = PackedModel(LAM, layers)
    layers.append(PackedLayer(**one_layer()))
    layers[0] = layers[1]
    assert len(model.layers) == 1 and model.layers[0] is layer
    path = tmp_path / "model.tqla"
    write_packed(model, path)
    (read,) = read_packed(path).layers
    assert [getattr(read, name).tolist() for name in SECTION_DTYPES] == [[0], [0], [1.0], [0.0]]
    assert not any(getattr(read, name).flags.writeable for name in SECTION_DTYPES)
    w = np.array([[0.5, -1.0, 0.0]])
    q = quantize(w, "absmean", Granularity("per-tensor"))
    (packed,) = pack_model([(q, w, deadzone_mask(w, q))], LAM).layers
    assert not any(getattr(packed, name).flags.writeable for name in SECTION_DTYPES)


def test_read_sections_share_the_file_bytes(tmp_path):
    # sections framed over the immutable bytes of a file are kept as they are;
    # an unaligned float32 section, and every section passed in, is copied
    aligned = one_layer(rows=32, cols=3, index_bytes=[0] * 16, sign_bytes=[0] * 4, bias=[0.0] * 32)
    unaligned = one_layer()
    path = tmp_path / "model.tqla"
    path.write_bytes(tqla_bytes(LAM, [aligned, unaligned]))
    read = read_packed(path).layers
    blob = read[0].index_bytes.base
    assert isinstance(blob, bytes) and len(blob) == path.stat().st_size
    assert all(getattr(read[0], name).base is blob for name in SECTION_DTYPES)
    for name, dtype in SECTION_DTYPES.items():
        section = getattr(read[1], name)
        assert (section.base is blob) == (dtype == np.uint8)
        assert section.flags.aligned and not section.flags.writeable
    for layer in read:
        assert not any(getattr(layer, name).flags.writeable for name in SECTION_DTYPES)
    built = PackedLayer(**aligned)
    assert all(getattr(built, name).flags.owndata for name in SECTION_DTYPES)


@pytest.mark.parametrize("field,k", [("rows", 0), ("cols", 1)])
def test_header_count_faults_point_at_their_field(tmp_path, field, k):
    # a 0-row or 0-column layer whose sections fit its sizes, so only the count is wrong
    fields = one_layer(**{field: 0})
    for name, size in zip(SECTION_DTYPES, _section_sizes(fields["rows"], fields["cols"], 0)):
        fields[name] = fields[name][:size]
    path = tmp_path / "model.tqla"
    path.write_bytes(tqla_bytes(LAM, [fields]))
    message = expect_format_error(path, HEADER_BYTES + 4 * k)
    assert f"{field} must be a u32 count of at least 1, got 0" in message


@pytest.mark.parametrize("codes", [[0, 0, 2], [0, 0, 5], [-2, 1, 0], [0.0, 1.0, -1.0]], ids=str)
def test_pack_model_rejects_codes_that_are_not_ternary(codes):
    # (0, 0, 2) used to pack as (0, +1, -1) and (0, 0, 5) as (+1, -1, -1); codes
    # of a float dtype are refused whatever their values
    w = np.array([[0.5, -1.0, 0.0]])
    q = quantize(w, "absmean", Granularity("per-tensor"))
    bad = QuantizedTensor(np.array([codes]), q.scales, q.thresholds, q.layout)
    mask = deadzone_mask(w, q)
    with pytest.raises(InvalidParam, match="layer 1 codes"):
        pack_model([(q, w, mask), (bad, w, mask)], LAM)


def writer_produces(index, signs, rows, cols):
    """Whether packed codes decode and re-encode to the same bytes (scalar oracles)."""
    try:
        codes = unpack_codes_scalar(index, signs, rows, cols)
    except IndexError:  # pattern index 14 or 15
        return False
    return pack_codes_scalar([row[:cols] for row in codes]) == (bytes(index), bytes(signs))


@st.composite
def layer_fields(draw):
    """A small layer's fields: packed codes the writer produces or random bytes; random floats."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 10))
    group_size = draw(st.sampled_from([0, cols, draw(st.integers(1, cols + 2))]))
    sizes = dict(zip(SECTION_DTYPES, _section_sizes(rows, cols, group_size)))
    codes = draw(st.lists(st.integers(-1, 1), min_size=rows * cols, max_size=rows * cols))
    fields = dict(zip(SECTION_DTYPES, encode(np.array(codes, np.int8).reshape(rows, cols))))
    for name in ("index_bytes", "sign_bytes"):
        if draw(st.booleans()):
            raw = draw(st.binary(min_size=sizes[name], max_size=sizes[name]))
            fields[name] = np.frombuffer(raw, np.uint8)
    for name in ("scales", "bias"):
        values = st.lists(st.floats(width=32), min_size=sizes[name], max_size=sizes[name])
        fields[name] = np.array(draw(values), np.float32)
    return dict(rows=rows, cols=cols, group_size=group_size, **fields)


def follows_the_format(lam, stack):
    """Whether ``lam`` and each layer's sections are what the writer produces."""
    return np.isfinite(np.float32(lam)) and all(
        writer_produces(f["index_bytes"], f["sign_bytes"], f["rows"], f["cols"])
        and np.isfinite(f["scales"]).all()
        and np.isfinite(f["bias"]).all()
        for f in stack
    )


@settings(max_examples=150, deadline=None)
@given(st.floats(width=32), st.lists(layer_fields(), max_size=3))
def test_a_model_builds_exactly_when_it_reads_back(tmp_path_factory, lam, stack):
    path = tmp_path_factory.mktemp("build") / "model.tqla"
    try:
        model = PackedModel(lam, [PackedLayer(**fields) for fields in stack])
    except InvalidParam as error:
        assert not follows_the_format(lam, stack)
        # the reader refuses the same bytes with the same message
        path.write_bytes(tqla_bytes(lam, stack))
        with pytest.raises(FormatError) as info:
            read_packed(path)
        assert str(info.value).startswith(str(error))
        return
    assert follows_the_format(lam, stack)
    write_packed(model, path)
    assert path.read_bytes() == tqla_bytes(lam, stack)
    back = read_packed(path)
    assert back.lam == lam
    assert len(back.layers) == len(stack)
    for layer, fields in zip(back.layers, stack):
        for name, value in fields.items():
            assert np.asarray(getattr(layer, name)).tobytes() == np.asarray(value).tobytes()


@settings(max_examples=150, deadline=None)
@given(
    st.floats(width=32),
    st.lists(layer_fields(), max_size=3),
    st.sampled_from(["none", "byte", "truncate", "append"]),
    st.data(),
)
def test_every_file_the_reader_accepts_is_rewritten_to_the_same_bytes(
    tmp_path_factory, lam, stack, damage, data
):
    blob = bytearray(tqla_bytes(lam, stack))
    if damage == "byte":
        blob[data.draw(st.integers(0, len(blob) - 1))] = data.draw(st.integers(0, 255))
    elif damage == "truncate":
        del blob[data.draw(st.integers(0, len(blob) - 1)) :]
    elif damage == "append":
        blob += data.draw(st.binary(min_size=1, max_size=8))
    path = tmp_path_factory.mktemp("read") / "model.tqla"
    path.write_bytes(bytes(blob))
    try:
        model = read_packed(path)
    except FormatError:
        return
    write_packed(model, path)
    assert path.read_bytes() == blob


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


@pytest.mark.parametrize(
    "stack",
    [
        # (rows, cols, granularity) per layer; each layer's cols are the rows below it
        [
            (8, 10, Granularity("per-group", 4)),  # cols % 3 == 1, a short last group
            (6, 8, Granularity("per-channel")),  # cols % 3 == 2
            (4, 6, Granularity("per-tensor")),
        ],
        [
            (7, 11, Granularity("per-group", 4)),  # cols % 3 == 2, a short last group
            (5, 7, Granularity("per-tensor")),  # cols % 3 == 1
            (3, 5, Granularity("per-channel")),
        ],
    ],
    ids=["cols%3=1-first", "cols%3=2-first"],
)
def test_packed_mlp_forward_matches_scalar_oracle(tmp_path, stack):
    # a written and re-read 3-layer file, run as a tanh MLP in float64 from
    # codes decoded by unpack_codes times the expanded scales, plus the bias
    rng = np.random.default_rng(stack[0][1])
    packed = []
    for rows, cols, granularity in stack:
        w = rng.standard_normal((rows, cols))
        w[0, :4] = 0.0  # a degenerate group for per-group 4
        q = quantize(w, "absmean", granularity)
        packed.append((q, w, deadzone_mask(w, q)))
    path = tmp_path / "mlp.tqla"
    write_packed(pack_model(packed, 0.05), path)
    layers = read_packed(path).layers
    assert [(layer.rows, layer.cols) for layer in layers] == [s[:2] for s in stack]
    for _ in range(3):
        x = rng.standard_normal(stack[0][1])
        h = x
        for k, (layer, (rows, cols, granularity)) in enumerate(zip(layers, stack)):
            codes = layer.unpack_codes()[:, :cols].astype(np.float64)
            scales = GroupLayout(granularity, rows, cols).expand(layer.scales.astype(np.float64))
            h = (codes * scales) @ h + layer.bias.astype(np.float64)
            if k < len(layers) - 1:
                h = np.tanh(h)
        # float64 on both sides, summed in different orders
        assert rel_err(h, packed_mlp_scalar(layers, x.tolist())) < 1e-12


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


@pytest.mark.parametrize("cpus", [2, 4])
@pytest.mark.parametrize(
    "shape,granularity",
    [
        ((512, 500), Granularity("per-group", 128)),
        ((500, 512), Granularity("per-channel")),
        ((500, 512), Granularity("per-tensor")),  # one run, summed in buffer-sized chunks
        ((1024, 1000), Granularity("per-group", 128)),
        ((1000, 1024), Granularity("per-channel")),
    ],
    ids=lambda case: getattr(case, "kind", None),
)
def test_export_holds_no_full_size_float64_temporary(monkeypatch, shape, granularity, cpus):
    # quantize, deadzone_mask and pack_model form |w|, the thresholds and the
    # deadzone sums block by block or by broadcasting; their peak, results
    # included, stays below one float64 matrix of the weights' size. Every
    # shape is above the size constant: each shard holds its own
    # temporaries, all at once
    monkeypatch.setattr(quantizer, "_usable_cpus", lambda: cpus)
    counts = shard_counts(monkeypatch)
    w = np.random.default_rng(0).standard_normal(shape)

    def export():
        q = quantize(w, "absmean", granularity)
        pack_model([(q, w, deadzone_mask(w, q))], LAM)

    export()
    shards = dict(counts)
    # a per-tensor matrix is one group, quantized on one shard
    assert shards["quantize"] == (1 if granularity.kind == "per-tensor" else cpus)
    assert shards["_pack_layer"] == cpus
    assert _traced_peak(export) < w.nbytes
