"""Row-sharded export and decode: one pass's bytes, same errors, calls from the calling thread.

``quantize``, ``deadzone_mask`` and ``pack_model`` split a matrix of at
least ``quantizer._SHARD_MIN`` elements, and ``PackedLayer.unpack_codes``
one of at least ``packing._DECODE_SHARD_MIN``, into one row range per
usable CPU. These tests lower those constants and set the CPU count, so
that small matrices are split into 2 or 3 shards, and compare against one
shard.
"""

import multiprocessing
import os
import sys
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import deadzone_mask_scalar, unpack_codes_scalar
from shards import ThreadProbe, address, shard_counts, sharding

from tqla import Granularity, deadzone_mask, packing, quantize, quantizer
from tqla.errors import InvalidParam, InvalidShape, InvalidThreshold, UnsupportedScheme
from tqla.packing import PackedLayer, pack_model, write_packed
from tqla.quantizer import GroupLayout, QuantizedTensor

LAM = 1e-3
NON_FINITE = "weight matrix contains NaN or Inf"


def export(layers, scheme="absmean"):
    """(quantized tensors, masks, packed model) of (weights, granularity) pairs."""
    qs = [quantize(w, scheme, g) for w, g in layers]
    masks = [deadzone_mask(w, q) for (w, _), q in zip(layers, qs)]
    return qs, masks, pack_model([(q, w, m) for (w, _), q, m in zip(layers, qs, masks)], LAM)


def as_bytes(qs, masks, model):
    out = []
    for q, mask, layer in zip(qs, masks, model.layers):
        out += [q.codes.tobytes(), q.scales.tobytes(), q.thresholds.tobytes(), mask.tobytes()]
        out += [layer.index_bytes.tobytes(), layer.sign_bytes.tobytes()]
        out += [layer.scales.tobytes(), layer.bias.tobytes(), repr(layer.group_size)]
    return out


def export_bytes(layers, scheme, path, workers):
    """Every output of one export, as bytes, with ``workers`` shards per matrix."""
    with pytest.MonkeyPatch.context() as mp:
        sharding(mp, workers)
        qs, masks, model = export(layers, scheme)
    write_packed(model, path)
    return [path.read_bytes()] + as_bytes(qs, masks, model)


@st.composite
def layer_inputs(draw):
    rows = draw(st.integers(1, 30))  # multiples of 8 and not
    cols = draw(st.integers(1, 25))  # every cols % 3
    granularity = draw(
        st.one_of(
            st.just(Granularity("per-tensor")),
            st.just(Granularity("per-channel")),
            st.integers(1, cols + 3).map(lambda n: Granularity("per-group", n)),
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = rng.standard_normal((rows, cols)) * draw(st.sampled_from([1e-3, 1.0, 50.0]))
    for r in draw(st.lists(st.integers(0, rows - 1), max_size=4)):
        w[r] = 0.0  # all-zero rows: degenerate groups, zero bias
    if draw(st.booleans()):
        w[rng.random(w.shape) < 0.3] = -0.0  # deadzone sums of signed zeros
    return w, granularity


@settings(max_examples=60, deadline=None)
@given(
    st.lists(layer_inputs(), min_size=1, max_size=3),
    st.sampled_from(["absmean", "twn"]),
    st.sampled_from([2, 3]),
)
def test_sharded_export_matches_one_shard(tmp_path_factory, layers, scheme, workers):
    path = tmp_path_factory.mktemp("shards") / "model.tqla"
    one = export_bytes(layers, scheme, path, 1)
    assert export_bytes(layers, scheme, path, workers) == one


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize(
    "shape,granularity",
    [
        # shards above one _sequential_sums block: broadcast compares, codes in place
        ((401, 500), Granularity("per-group", 128)),
        ((403, 517), Granularity("per-group", 100)),
        ((390, 520), Granularity("per-channel")),
        ((300, 301), Granularity("per-tensor")),
    ],
    ids=lambda case: getattr(case, "kind", None),
)
def test_large_shards_match_one_shard(tmp_path, shape, granularity, workers):
    rng = np.random.default_rng(shape[0])
    w = rng.standard_normal(shape)
    w[7] = 0.0
    for scheme in ("absmean", "twn"):
        one = export_bytes([(w, granularity)], scheme, tmp_path / "m.tqla", 1)
        assert export_bytes([(w, granularity)], scheme, tmp_path / "m.tqla", workers) == one


def test_concurrent_callers_under_a_short_switch_interval(monkeypatch):
    # four calling threads at once, each call in five shards on a fresh pool
    # of five threads: more threads than cores, switching as often as it can
    rng = np.random.default_rng(11)
    layers = [
        (rng.standard_normal((45, 37)), Granularity("per-group", 8)),
        (rng.standard_normal((37, 45)), Granularity("per-channel")),
    ]
    expected = as_bytes(*export(layers))
    sharding(monkeypatch, 5)
    monkeypatch.setattr(quantizer, "_pool", None)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as callers:
            got = list(callers.map(lambda _: as_bytes(*export(layers)), range(40), timeout=120))
    finally:
        sys.setswitchinterval(interval)
        if quantizer._pool is not None:
            quantizer._pool.shutdown()
    assert len(got) == 40 and all(g == expected for g in got)


def test_a_failing_shard_raises_once_every_shard_has_finished(monkeypatch, tmp_path):
    # shard 0 runs in the calling thread, shards 1 and 2 on the pool; fail
    # the caller's own shard, then a pool shard
    monkeypatch.setattr(quantizer, "_pool", None)
    rng = np.random.default_rng(8)
    layers = [
        (rng.standard_normal((40, 30)), Granularity("per-group", 8)),
        (rng.standard_normal((30, 40)), Granularity("per-channel")),
    ]
    one = export_bytes(layers, "absmean", tmp_path / "m.tqla", 1)
    try:
        for failing in (0, 1):
            finished = []

            def work(k, seconds):
                if k == failing:
                    raise ValueError(f"shard {k} failed")
                time.sleep(seconds)  # still running when the failing shard raises
                finished.append(k)
                return k

            with pytest.raises(ValueError, match=f"shard {failing} failed"):
                quantizer._run_shards(work, [(0, 0.05), (1, 0.05), (2, 0.3)])
            assert sorted(finished) == [k for k in range(3) if k != failing]
            pool = quantizer._pool
            # the same pool serves the next calls, in shard order
            assert quantizer._run_shards(lambda k: k * k, [(k,) for k in range(3)]) == [0, 1, 4]
            assert export_bytes(layers, "absmean", tmp_path / "m.tqla", 3) == one
            assert quantizer._pool is pool
    finally:
        if quantizer._pool is not None:
            quantizer._pool.shutdown()


def test_sharded_deploy_export_joins_nothing(monkeypatch, tmp_path):
    # every shard writes into the outputs the calling thread allocated, so a
    # 3-shard export of the deploy shapes concatenates nothing and hands out
    # arrays that own their data, with the bytes of one shard
    rng = np.random.default_rng(2)
    layers = [
        (rng.standard_normal((rows, cols)) / np.sqrt(cols), granularity)
        for rows, cols, granularity in (
            (1024, 1024, Granularity("per-group", 128)),
            (1024, 1000, Granularity("per-group", 128)),  # a short last group, a padded triple
            (1000, 1024, Granularity("per-channel")),
        )
    ]
    one = export_bytes(layers, "absmean", tmp_path / "m.tqla", 1)
    concatenate = np.concatenate
    joined = []

    def counted(*args, **kwargs):
        joined.append(len(args[0]))
        return concatenate(*args, **kwargs)

    monkeypatch.setattr(np, "concatenate", counted)
    with pytest.MonkeyPatch.context() as mp:
        sharding(mp, 3)
        qs, masks, model = export(layers)
    assert joined == []
    for q, mask, layer in zip(qs, masks, model.layers):
        arrays = [q.codes, q.scales, q.thresholds, mask]
        arrays += [getattr(layer, name) for name in ("index_bytes", "sign_bytes", "scales", "bias")]
        assert all(a.flags.owndata for a in arrays)
    write_packed(model, tmp_path / "m.tqla")
    assert [(tmp_path / "m.tqla").read_bytes()] + as_bytes(qs, masks, model) == one


def test_row_ranges():
    # one range below the size constant or with one CPU; else one per CPU, aligned
    assert quantizer._row_ranges(1000, quantizer._SHARD_MIN - 1) == [(0, 1000)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quantizer, "_usable_cpus", lambda: 1)
        assert quantizer._row_ranges(1000, 1 << 30, align=8) == [(0, 1000)]
        mp.setattr(quantizer, "_usable_cpus", lambda: 3)
        assert quantizer._row_ranges(1000, 1 << 30) == [(0, 334), (334, 668), (668, 1000)]
        assert quantizer._row_ranges(1000, 1 << 30, align=8) == [(0, 336), (336, 672), (672, 1000)]
        assert quantizer._row_ranges(10, 1 << 30, align=8) == [(0, 8), (8, 10)]
        assert quantizer._row_ranges(2, 1 << 30) == [(0, 1), (1, 2)]
        # a per-tensor matrix is one group: one shard, its own layout
        layout = GroupLayout(Granularity("per-tensor"), 1000, 1000)
        assert quantizer._group_shards(layout) == [(slice(None), slice(None), layout)]


def test_export_blocks():
    # one shard keeps the full block; several take a quarter of their share, at most a block
    block = quantizer._SUM_BLOCK
    assert quantizer._export_block(512 * 500, 1) == quantizer._export_block(7, 1) == block
    assert quantizer._export_block(512 * 512, 2) == block // 2
    assert quantizer._export_block(512 * 500, 4) == 16_000
    assert quantizer._export_block(10, 3) == 1
    assert quantizer._export_block(1024 * 1000, 2) == block


def test_deploy_shapes_with_the_real_cpu_count():
    # run again under one CPU (taskset -c 0), this takes the inline path
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert quantizer._usable_cpus() == cpus
    ranges = quantizer._row_ranges(1024, 1024 * 1000, align=8)
    assert (len(ranges) == 1) == (cpus == 1)
    assert [lo for lo, _ in ranges] == [0] + [hi for _, hi in ranges[:-1]] and ranges[-1][1] == 1024
    w = np.random.default_rng(1).standard_normal((1024, 1000))
    q = quantize(w, "absmean", Granularity("per-group", 128))
    mask = deadzone_mask(w, q)
    with pytest.MonkeyPatch.context() as mp:
        sharding(mp, 1)
        q1 = quantize(w, "absmean", Granularity("per-group", 128))
        mask1 = deadzone_mask(w, q1)
        packed1 = pack_model([(q1, w, mask1)], LAM).layers[0]
    packed = pack_model([(q, w, mask)], LAM).layers[0]
    assert q.codes.tobytes() == q1.codes.tobytes() and mask.tobytes() == mask1.tobytes()
    for section in ("index_bytes", "sign_bytes", "scales", "bias"):
        assert getattr(packed, section).tobytes() == getattr(packed1, section).tobytes()


def test_wide_trap_export_with_the_real_cpu_count(monkeypatch):
    # the 512x512 per-group 128 layers of wide-trap split in two exactly
    # when two CPUs are usable; run again under one CPU (taskset -c 0),
    # this takes the inline path
    cpus = quantizer._usable_cpus()
    layers = [(np.random.default_rng(3).standard_normal((512, 512)), Granularity("per-group", 128))]
    with pytest.MonkeyPatch.context() as mp:
        sharding(mp, 1)
        one = as_bytes(*export(layers))
    counts = shard_counts(monkeypatch)
    got = as_bytes(*export(layers))
    assert [name for name, _ in counts] == ["quantize", "deadzone_mask", "_pack_layer"]
    for _, shards in counts:
        assert (shards == 2) == (cpus == 2) and (shards == 1) == (cpus == 1)
    assert got == one


def packed_layer(rows, cols, granularity=Granularity("per-channel")):
    """A packed layer of a random ``rows`` x ``cols`` matrix, exported on one shard."""
    w = np.random.default_rng(rows * cols).standard_normal((rows, cols))
    with pytest.MonkeyPatch.context() as mp:
        sharding(mp, 1)
        (_, _, model) = export([(w, granularity)])
    return model.layers[0]


def unpack(layer, workers):
    with pytest.MonkeyPatch.context() as mp:
        sharding(mp, workers)
        return layer.unpack_codes()


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("granularity", [Granularity("per-tensor"), Granularity("per-channel")])
@pytest.mark.parametrize(
    "rows,cols",
    [
        # 3 triples a row: the last shard, rows 16-19, holds 9 triples and ends in a half byte
        (19, 9),
        (19, 7),
        (19, 8),
        # an even number of triples in every shard
        (24, 12),
        (30, 10),
        (17, 11),
        (1, 5),  # fewer rows than shards
    ],
)
def test_sharded_decode_matches_one_shard_and_the_scalar_oracle(rows, cols, granularity, workers):
    layer = packed_layer(rows, cols, granularity)
    one = unpack(layer, 1)
    index, signs = layer.index_bytes.tolist(), layer.sign_bytes.tolist()
    assert one.tolist() == unpack_codes_scalar(index, signs, rows, cols)
    got = unpack(layer, workers)
    assert got.dtype == np.int8 and got.shape == one.shape
    assert got.tobytes() == one.tobytes()
    if rows == 19:
        with pytest.MonkeyPatch.context() as mp:
            sharding(mp, workers)
            lo, hi = quantizer._row_ranges(rows, got.size, align=8)[-1]
        assert (hi - lo) * layer.n_triples_per_row % 2 == 1


@pytest.mark.parametrize("workers", [1, 3])
def test_decoded_codes_are_a_fresh_writable_array(monkeypatch, workers):
    layer = packed_layer(40, 31)
    sharding(monkeypatch, workers)
    codes = layer.unpack_codes()
    assert codes.flags.owndata and codes.flags.c_contiguous and codes.flags.writeable
    codes[:] = 0  # the layer's sections are untouched
    assert layer.unpack_codes().any()


def test_sharded_decode_runs_shard_0_in_the_calling_thread(monkeypatch):
    layer = packed_layer(40, 31)
    expected = unpack(layer, 1)
    sharding(monkeypatch, 3)
    probe = ThreadProbe(monkeypatch, (quantizer, packing), [(PackedLayer, "unpack_codes")])
    # shard 0 decodes from the layer's first index byte
    first = address(layer.index_bytes)
    probe.kernel(packing, "_decode", lambda index_bytes, *_: address(index_bytes) == first)
    assert layer.unpack_codes().tobytes() == expected.tobytes()
    assert len(probe.kernels) == 3 and "unpack_codes" in probe.names()
    probe.check()


def test_the_pool_grows_when_a_call_needs_more_threads(monkeypatch):
    # a 2-shard call makes a pool of one thread; a 3-shard call after it must
    # run its two pool shards at once, which the barrier needs to open
    layer = packed_layer(40, 31)
    expected = unpack(layer, 1)
    monkeypatch.setattr(quantizer, "_pool", None)
    pools = []
    try:
        sharding(monkeypatch, 2)
        assert layer.unpack_codes().tobytes() == expected.tobytes()
        pools.append(quantizer._pool)
        decode = packing._decode
        barrier = threading.Barrier(3, timeout=10)
        threads = []

        def together(index_bytes, sign_bytes, out):
            threads.append(threading.current_thread())
            barrier.wait()
            decode(index_bytes, sign_bytes, out)

        monkeypatch.setattr(packing, "_decode", together)
        sharding(monkeypatch, 3)
        assert layer.unpack_codes().tobytes() == expected.tobytes()
        pools.append(quantizer._pool)
        assert pools[1] is not pools[0]
        others = [thread for thread in threads if thread is not threading.main_thread()]
        assert len(threads) == 3 and len(set(others)) == 2
        # a call with fewer shards keeps the larger pool
        monkeypatch.setattr(packing, "_decode", decode)
        sharding(monkeypatch, 2)
        layer.unpack_codes()
        assert quantizer._pool is pools[1]
    finally:
        for pool in pools:
            pool.shutdown()


def test_deploy_decode_with_the_real_cpu_count():
    # run again under one CPU (taskset -c 0), this takes the inline path
    layer = packed_layer(1024, 1000, Granularity("per-group", 128))
    assert layer.n_triples_per_row * layer.rows % 2 == 0
    codes = layer.unpack_codes()
    assert codes.tobytes() == unpack(layer, 1).tobytes()
    odd = packed_layer(1023, 1003)  # an odd number of triples: the last shard ends in a half byte
    assert odd.n_triples_per_row * odd.rows % 2 == 1
    assert odd.unpack_codes().tobytes() == unpack(odd, 1).tobytes()


def test_sharded_export_calls_public_entry_points_from_the_calling_thread(monkeypatch):
    sharding(monkeypatch, 3)
    probe = ThreadProbe(monkeypatch, (quantizer, packing))
    firsts = set()  # address of each matrix's first element: shard 0 starts there
    # each shard's kernels take its rows of the weights or codes first
    for module, name in ((quantizer, "_group_params"), (quantizer, "_sides"), (packing, "_encode")):
        probe.kernel(module, name, lambda a, *_: address(a) in firsts)

    rng = np.random.default_rng(5)
    layers = [
        (rng.standard_normal((40, 30)), Granularity("per-group", 8)),
        (rng.standard_normal((30, 40)), Granularity("per-channel")),
    ]
    stack = []
    for w, granularity in layers:
        firsts.add(address(w))
        q = quantizer.quantize(w, "absmean", granularity)
        firsts.add(address(q.codes))
        stack.append((q, w, quantizer.deadzone_mask(w, q)))
    packing.pack_model(stack, LAM)
    assert {"quantize", "deadzone_mask", "pack_model", "__init__"} <= probe.names()
    probe.check()


def _export_in_child(expected):
    rng = np.random.default_rng(9)
    w = rng.standard_normal((64, 50))
    _, _, model = export([(w, Granularity("per-group", 16))])
    got = [(layer.index_bytes.tobytes(), layer.bias.tobytes()) for layer in model.layers]
    os._exit(0 if got == expected else 3)


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="no fork on this platform"
)
def test_forked_child_exports_after_the_parent_made_the_pool(monkeypatch):
    sharding(monkeypatch, 3)
    rng = np.random.default_rng(9)
    w = rng.standard_normal((64, 50))
    _, _, model = export([(w, Granularity("per-group", 16))])
    assert quantizer._pool is not None
    expected = [(layer.index_bytes.tobytes(), layer.bias.tobytes()) for layer in model.layers]
    child = multiprocessing.get_context("fork").Process(target=_export_in_child, args=(expected,))
    with warnings.catch_warnings():
        # newer Pythons warn that forking a process with threads may deadlock
        warnings.simplefilter("ignore", DeprecationWarning)
        child.start()
    child.join(timeout=60)
    hung = child.is_alive()
    if hung:
        child.kill()
    assert not hung and child.exitcode == 0


SHARDS = pytest.mark.parametrize("workers", [1, 3], ids=["one-shard", "sharded"])


def matrix(rows=12, cols=10):
    return np.random.default_rng(rows * cols).standard_normal((rows, cols))


@SHARDS
def test_quantize_reports_non_finite_weights_first(monkeypatch, workers):
    sharding(monkeypatch, workers)
    w = matrix()
    w[5, 3] = np.nan
    with pytest.raises(InvalidParam, match=NON_FINITE):
        quantize(w, "absmean", {"kind": "per-group"})
    with pytest.raises(InvalidParam, match="granularity must be a Granularity"):
        quantize(matrix(), "absmean", {"kind": "per-group"})
    with pytest.raises(UnsupportedScheme):  # the scheme is checked before the weights
        quantize(w, "lsq", Granularity())
    for bad in (np.nan, np.inf, -np.inf):
        w = matrix()
        w[-1, -1] = bad
        for scheme in ("absmean", "twn"):
            for granularity in (Granularity("per-group", 4), Granularity("per-tensor")):
                with pytest.raises(InvalidParam, match=NON_FINITE):
                    quantize(w, scheme, granularity)


@SHARDS
def test_deadzone_mask_reports_non_finite_weights_first(monkeypatch, workers):
    sharding(monkeypatch, workers)
    w = matrix()
    q = quantize(w, "absmean", Granularity("per-group", 4))
    bad = w.copy()
    bad[9, 0] = np.nan
    negative = QuantizedTensor(q.codes, q.scales, -q.thresholds, q.layout)
    with pytest.raises(InvalidParam, match=NON_FINITE):
        deadzone_mask(bad, negative)
    with pytest.raises(InvalidThreshold):
        deadzone_mask(w, negative)
    with pytest.raises(InvalidParam, match=NON_FINITE):
        deadzone_mask(bad[:, :9], q)
    with pytest.raises(InvalidShape, match="do not match codes"):
        deadzone_mask(w[:, :9], q)
    for thresholds in (q.thresholds[:-1], np.append(q.thresholds, 1.0)):
        miscounted = QuantizedTensor(q.codes, q.scales, thresholds, q.layout)
        with pytest.raises(InvalidParam, match=NON_FINITE):
            deadzone_mask(bad, miscounted)
        with pytest.raises(InvalidShape, match="per-group values"):
            deadzone_mask(w, miscounted)
    for value in (np.inf, -np.inf):
        bad[9, 0] = value
        with pytest.raises(InvalidParam, match=NON_FINITE):
            deadzone_mask(bad, q)


@SHARDS
def test_deadzone_mask_rejects_a_layout_of_another_shape(monkeypatch, workers):
    # 4x6 codes on a 6x4 layout: the group count matches, the shape does not
    sharding(monkeypatch, workers)
    w = matrix(4, 6)
    g = Granularity("per-group", 2)
    q = quantize(w, "absmean", g)
    swapped = QuantizedTensor(q.codes, q.scales, q.thresholds, GroupLayout(g, 6, 4))
    with pytest.raises(InvalidShape, match="do not match layout"):
        deadzone_mask(w, swapped)
    bad = w.copy()
    bad[3, 5] = np.nan
    with pytest.raises(InvalidParam, match=NON_FINITE):
        deadzone_mask(bad, swapped)


def deadzone_case(rows, cols, granularity, seed=0):
    """Weights and a tensor with thresholds of 0 and +inf, weights at +-delta and -0.0."""
    rng = np.random.default_rng(seed)
    layout = GroupLayout(granularity, rows, cols)
    thresholds = rng.choice([0.0, 0.3, 0.7, 1.2, np.inf], layout.n_groups)
    w = rng.standard_normal((rows, cols))
    thr = layout.expand(thresholds)
    at = rng.random(w.shape)
    w = np.where((at < 0.15) & np.isfinite(thr), np.where(at < 0.08, thr, -thr), w)
    w[rng.random(w.shape) < 0.1] = -0.0
    w[rng.random(w.shape) < 0.05] = 0.0
    codes = np.zeros(w.shape, dtype=np.int8)
    return w, QuantizedTensor(codes, np.ones(layout.n_groups), thresholds, layout)


#: ((rows, cols, granularity), block, workers) of the deadzone kernel's cases
DEADZONE_CASES = [
    # 3 rows a block; the second shard's last block has 2 rows; a 2-column group tail
    ((23, 10, Granularity("per-group", 4)), 30, 2),
    ((23, 10, Granularity("per-channel")), 30, 3),
    # one view row of 230 elements: pieces of 30 within the one group, the last of 20
    ((23, 10, Granularity("per-tensor")), 30, 2),
    # rows wider than the block: pieces of two whole groups, the last a 2-column tail
    ((5, 50, Granularity("per-group", 8)), 20, 2),
    # groups wider than the block: pieces within one group, the tail group in one piece
    ((5, 50, Granularity("per-group", 32)), 20, 2),
    ((5, 50, Granularity("per-channel")), 20, 3),
    ((7, 5, Granularity("per-group", 2)), 1, 3),  # one element a block
    ((40, 30, Granularity("per-group", 8)), None, 2),  # the full-size block: one block a shard
    ((1, 1, Granularity("per-channel")), 1, 2),
]
DEADZONE_IDS = [f"{r}x{c}-{g.kind}-{g.group_size}-b{b}-w{n}" for (r, c, g), b, n in DEADZONE_CASES]


@pytest.mark.parametrize("case,block,workers", DEADZONE_CASES, ids=DEADZONE_IDS)
def test_deadzone_blocks_match_the_scalar_oracle(monkeypatch, case, block, workers):
    rows, cols, granularity = case
    w, q = deadzone_case(rows, cols, granularity)
    kind, size = granularity.kind, granularity.group_size
    expected = deadzone_mask_scalar(w.tolist(), q.thresholds.tolist(), kind, size)
    sharding(monkeypatch, workers, block=block)
    counts = shard_counts(monkeypatch)
    mask = deadzone_mask(w, q)
    assert mask.dtype == bool and mask.flags.c_contiguous
    assert mask.tolist() == expected
    # a per-tensor matrix is one group, on one shard
    assert counts == [("deadzone_mask", 1 if kind == "per-tensor" or rows == 1 else workers)]
    # a weight-sized float64 array is read the same, whatever its memory order
    assert deadzone_mask(np.asfortranarray(w), q).tolist() == expected


@pytest.mark.parametrize("case,block,workers", DEADZONE_CASES, ids=DEADZONE_IDS)
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_weight_in_the_last_block_is_reported_first(
    monkeypatch, case, block, workers, value
):
    # the last element is in the last block of the last shard; every other
    # fault of the call is reported after it
    rows, cols, granularity = case
    w, q = deadzone_case(rows, cols, granularity)
    sharding(monkeypatch, workers, block=block)
    bad = w.copy()
    bad[-1, -1] = value
    layout = q.layout
    faults = [
        q,
        QuantizedTensor(q.codes, q.scales, -np.ones(layout.n_groups), layout),
        QuantizedTensor(q.codes, q.scales, np.append(q.thresholds, 1.0), layout),
        QuantizedTensor(q.codes[:, :0], q.scales, q.thresholds, layout),
        QuantizedTensor(q.codes, q.scales, q.thresholds[:1], GroupLayout(q.granularity, 1, 1)),
    ]
    for fault in faults:
        with pytest.raises(InvalidParam, match=NON_FINITE):
            deadzone_mask(bad, fault)


def test_sharded_deadzone_mask_plans_every_block_in_the_calling_thread(monkeypatch):
    # the shards run only the kernel: the calling thread made every view and
    # buffer, and builds no GroupLayout for the blocks or the shards
    w, q = deadzone_case(40, 30, Granularity("per-group", 8))
    expected = deadzone_mask_scalar(w.tolist(), q.thresholds.tolist(), "per-group", 8)
    sharding(monkeypatch, 3, block=50)
    probe = ThreadProbe(monkeypatch, (quantizer,))
    first = address(w)  # shard 0's first block starts there
    probe.kernel(quantizer, "_deadzone_blocks", lambda blocks: address(blocks[0][2]) == first)
    assert quantizer.deadzone_mask(w, q).tolist() == expected
    assert len(probe.kernels) == 3 and probe.names() == {"deadzone_mask"}
    probe.check()


@SHARDS
def test_pack_model_reports_non_finite_weights_first(monkeypatch, workers):
    sharding(monkeypatch, workers)
    w = matrix()
    q = quantize(w, "absmean", Granularity("per-channel"))
    mask = deadzone_mask(w, q)
    bad = w.copy()
    bad[4, 4] = np.nan
    with pytest.raises(InvalidParam, match=NON_FINITE):
        pack_model([(q, bad, mask[:, :9])], LAM)
    with pytest.raises(InvalidShape):
        pack_model([(q, w, mask[:, :9])], LAM)
    not_ternary = QuantizedTensor(np.full_like(q.codes, 2), q.scales, q.thresholds, q.layout)
    with pytest.raises(InvalidParam, match=NON_FINITE):
        pack_model([(not_ternary, bad, mask)], LAM)
    with pytest.raises(InvalidParam, match="layer 0 codes must be integers"):
        pack_model([(not_ternary, w, mask)], LAM)


@SHARDS
@pytest.mark.parametrize("lam", [LAM, 0.0])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_weight_is_found_wherever_the_mask_is(monkeypatch, workers, lam, value):
    # NaN and Inf times a clear mask bit are NaN, so a masked-out one shows too
    sharding(monkeypatch, workers)
    w = matrix()
    q = quantize(w, "absmean", Granularity("per-group", 4))
    mask = deadzone_mask(w, q)
    for dead in (False, True):
        rows, cols = np.nonzero(mask == dead)
        for k in (0, len(rows) - 1):
            bad = w.copy()
            bad[rows[k], cols[k]] = value
            with pytest.raises(InvalidParam, match=NON_FINITE):
                pack_model([(q, bad, mask)], lam)
    # an Inf and a -Inf in one row's deadzone
    bad = w.copy()
    bad[rows[0], cols[0]], bad[rows[1], cols[1]] = np.inf, -np.inf
    with pytest.raises(InvalidParam, match=NON_FINITE):
        pack_model([(q, bad, np.ones_like(mask))], lam)


@SHARDS
def test_finite_weights_whose_sums_overflow_export_as_before(monkeypatch, workers):
    sharding(monkeypatch, workers)
    w = np.full((16, 4), 1e308)
    w[1::2] *= -1
    per_group = Granularity("per-group", 4)
    with pytest.warns(RuntimeWarning, match="overflow"):
        quantize(w, "absmean", per_group)
    # the caller's error state reaches every shard
    with np.errstate(over="ignore"):
        for granularity in (per_group, Granularity("per-tensor")):
            a = quantize(w, "absmean", granularity)
            assert np.isinf(a.scales).all() and np.isinf(a.thresholds).all()
            assert not a.codes.any()
            mask = deadzone_mask(w, a)
            assert mask.all()
            with pytest.raises(InvalidParam, match="scale must be finite as float32"):
                pack_model([(a, w, mask)], LAM)
            t = quantize(w, "twn", granularity)
            assert not t.scales.any() and np.isinf(t.thresholds).all()
            with pytest.raises(InvalidParam, match="bias must be finite as float32"):
                pack_model([(t, w, deadzone_mask(w, t))], LAM)
            (layer,) = pack_model([(t, w, ~deadzone_mask(w, t))], LAM).layers
            assert layer.bias.tolist() == [0.0] * 16
