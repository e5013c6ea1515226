"""Row-sharded export: same bytes as one pass, same errors, calls from the calling thread.

``quantize``, ``deadzone_mask`` and ``pack_model`` split a matrix of at
least ``quantizer._SHARD_MIN`` elements into one row range per usable CPU.
These tests lower that constant and set the CPU count, so that small
matrices are split into 2 or 3 shards, and compare against one shard.
"""

import multiprocessing
import os
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tqla
from tqla import Granularity, deadzone_mask, packing, quantize, quantizer
from tqla.errors import InvalidParam, InvalidShape, InvalidThreshold, UnsupportedScheme
from tqla.packing import pack_model, write_packed
from tqla.quantizer import GroupLayout, QuantizedTensor

LAM = 1e-3
NON_FINITE = "weight matrix contains NaN or Inf"


def sharding(monkeypatch, workers):
    """Split every matrix into ``workers`` shards (1: never split)."""
    monkeypatch.setattr(quantizer, "_SHARD_MIN", 1 if workers > 1 else 1 << 62)
    monkeypatch.setattr(quantizer, "_usable_cpus", lambda: workers)


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


PUBLIC = [
    (module, name)
    for module in (quantizer, packing)
    for name, value in vars(module).items()
    if callable(value)
    and not name.startswith("_")
    and not isinstance(value, type)
    and getattr(value, "__module__", None) == module.__name__
]


def test_sharded_export_calls_public_entry_points_from_the_calling_thread(monkeypatch):
    sharding(monkeypatch, 3)
    calls = []  # (name, thread)
    kernel_threads = set()

    def wrap(name, fn):
        def wrapped(*args, **kwargs):
            calls.append((name, threading.current_thread()))
            return fn(*args, **kwargs)

        return wrapped

    modules = [m for m in vars(tqla).values() if getattr(m, "__name__", "").startswith("tqla.")]
    modules.append(tqla)
    for module, name in PUBLIC:
        original = getattr(module, name)
        for holder in modules:
            for key, value in list(vars(holder).items()):
                if value is original:
                    monkeypatch.setattr(holder, key, wrap(name, original))
    monkeypatch.setattr(GroupLayout, "__init__", wrap("GroupLayout", GroupLayout.__init__))
    sums = quantizer._sequential_sums

    def counted_sums(*args, **kwargs):
        kernel_threads.add(threading.current_thread())
        return sums(*args, **kwargs)

    monkeypatch.setattr(quantizer, "_sequential_sums", counted_sums)
    monkeypatch.setattr(packing, "_sequential_sums", counted_sums)

    rng = np.random.default_rng(5)
    layers = [
        (rng.standard_normal((40, 30)), Granularity("per-group", 8)),
        (rng.standard_normal((30, 40)), Granularity("per-channel")),
    ]
    stack = []
    for w, granularity in layers:
        q = quantizer.quantize(w, "absmean", granularity)
        stack.append((q, w, quantizer.deadzone_mask(w, q)))
    packing.pack_model(stack, LAM)
    names = {name for name, _ in calls}
    assert {"quantize", "deadzone_mask", "pack_model", "GroupLayout"} <= names
    assert {thread for _, thread in calls} == {threading.main_thread()}
    assert kernel_threads and threading.main_thread() not in kernel_threads  # on the pool


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
