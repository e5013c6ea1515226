"""Blocked and sharded trap snapshots: the same reports as one pass, counted off the calling thread.

``take_snapshot`` cuts each layer into blocks of at most
``quantizer._SUM_BLOCK`` elements (``quantizer._block_plan``) and, from
``quantizer._SHARD_MIN`` elements up, splits the block list over the
usable CPUs. These tests lower both constants and set the CPU count, so
that small layers are cut into many blocks on 1, 2 or 3 shards, and
compare against the default constants, under which every layer here is
one block, run inline.
"""

import hashlib
import json
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shards import ThreadProbe, address, sharding
from test_diagnostics import SNAPSHOT_DIGESTS, snapshot_cases
from tqla import Granularity, diagnostics, quantize, quantizer
from tqla.diagnostics import CodeHistory, take_snapshot
from tqla.errors import DegenerateNormalization, InvalidParam
from tqla.quantizer import GroupLayout

WORKERS = pytest.mark.parametrize("workers", [1, 2, 3])


def report_and_warnings(pairs, **kw):
    """(JSON of the report, messages of the warnings it raised) of one snapshot."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = take_snapshot(3, 0.5, pairs, **kw)
    return json.dumps(report.to_dict(), sort_keys=True), [str(w.message) for w in caught]


def sharded(workers, block, fn, *args, **kw):
    with pytest.MonkeyPatch.context() as mp:
        sharding(mp, workers, block)
        return fn(*args, **kw)


@st.composite
def snapshot_layer(draw):
    """One (weights, quantized) pair: any granularity, some zero thresholds or all."""
    rows = draw(st.integers(1, 30))
    cols = draw(st.integers(1, 25))
    granularity = draw(
        st.one_of(
            st.just(Granularity("per-tensor")),
            st.just(Granularity("per-channel")),
            st.integers(1, cols + 3).map(lambda n: Granularity("per-group", n)),
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = rng.standard_normal((rows, cols)) * draw(st.sampled_from([1e-3, 1.0, 50.0]))
    zeros = draw(st.sampled_from(["none", "rows", "thresholds", "all"]))
    if zeros == "rows":
        w[rng.random(rows) < 0.4] = 0.0  # zero-threshold groups, but for per-tensor
    elif zeros == "all":
        w[...] = 0.0  # every threshold zero: the raw weights are binned
    w[rng.random(w.shape) < 0.1] = -0.0
    q = quantize(w, "absmean", granularity)
    if zeros == "thresholds":
        q.thresholds[rng.random(q.thresholds.size) < 0.4] = 0.0
    # some weights on a band bound, on their threshold, or 4 thresholds out
    thr = q.layout.expand(q.thresholds)
    k = rng.random(w.shape) < 0.2
    w[k] = thr[k] * rng.choice([0.9, 1.0, 1.1, -4.0], np.count_nonzero(k))
    return w, q


@settings(max_examples=80, deadline=None)
@given(
    st.lists(snapshot_layer(), min_size=1, max_size=4),
    st.sampled_from([(0.1, 120), (0.37, 7), (0.9, 2), (0.01, 1000)]),
    st.sampled_from([1, 2, 3]),
    st.integers(1, 60),
)
def test_sharded_snapshot_matches_one_pass(pairs, band_bins, workers, block):
    band, bins = band_bins
    expected = report_and_warnings(pairs, band=band, bins=bins)
    assert sharded(workers, block, report_and_warnings, pairs, band=band, bins=bins) == expected


@WORKERS
def test_all_zero_layer_next_to_a_normal_one_warns_once(workers):
    rng = np.random.default_rng(3)
    w = rng.standard_normal((9, 10))
    zero = np.zeros((7, 6))
    pairs = [
        (w, quantize(w, "absmean", Granularity("per-group", 4))),
        (zero, quantize(zero, "absmean", Granularity("per-channel"))),
    ]
    expected = report_and_warnings(pairs)
    got = sharded(workers, 12, report_and_warnings, pairs)
    assert got == expected
    assert len(got[1]) == 1 and "all thresholds zero" in got[1][0]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sharded(workers, 12, take_snapshot, 0, 1.0, pairs)
    assert [type(w.message) for w in caught] == [DegenerateNormalization]


@WORKERS
@pytest.mark.parametrize("block", [1, 5, 40])
@pytest.mark.parametrize("case", list(SNAPSHOT_DIGESTS))
def test_sharded_snapshot_bytes_pinned(case, block, workers):
    with pytest.MonkeyPatch.context() as mp:
        sharding(mp, workers, block)
        reports = snapshot_cases()[case]()
    blob = json.dumps([r.to_dict() for r in reports], sort_keys=True).encode("utf-8")
    assert hashlib.sha256(blob).hexdigest() == SNAPSHOT_DIGESTS[case]


def test_layouts_are_built_and_counted_where_they_should_be(monkeypatch):
    # a snapshot builds no layout and applies none: its blocks and their
    # views come from the quantizer's block plan, in the calling thread; the
    # counting kernel of shard 0 runs in the caller and of every other shard
    # on the pool
    rng = np.random.default_rng(4)
    pairs = []
    for shape, granularity in (
        ((20, 10), Granularity("per-group", 3)),  # blocks of 4 rows
        ((12, 10), Granularity("per-group", 3)),
        ((9, 11), Granularity("per-channel")),  # blocks of 3 rows
        ((5, 7), Granularity("per-tensor")),  # one view row, in one block
    ):
        w = rng.standard_normal(shape)
        pairs.append((w, quantize(w, "absmean", granularity)))
    expected = report_and_warnings(pairs)
    sharding(monkeypatch, 3, 40)
    probe = ThreadProbe(monkeypatch, (quantizer, diagnostics), ((GroupLayout, "apply"),))
    # shard 0's first block starts at the first weight of the first layer
    first = address(pairs[0][0])
    probe.kernel(diagnostics, "_block_counts", lambda *args: address(args[2][0][0][0]) == first)
    report = diagnostics.take_snapshot(3, 0.5, pairs)
    assert json.dumps(report.to_dict(), sort_keys=True) == expected[0]
    assert probe.names() == {"take_snapshot"} and len(probe.kernels) == 3
    probe.check()


@WORKERS
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_weight_is_reported(workers, value):
    # in the last block of the last layer, whose pair is otherwise valid
    rng = np.random.default_rng(8)
    pairs = []
    for shape in ((9, 10), (7, 6)):
        w = rng.standard_normal(shape)
        pairs.append((w, quantize(w, "absmean", Granularity("per-group", 4))))
    pairs[-1][0][-1, -1] = value
    history = CodeHistory()
    with pytest.raises(InvalidParam, match="NaN or Inf"):
        sharded(workers, 12, take_snapshot, 0, 1.0, pairs, history)
    assert len(history) == 0


def overflowing_pairs():
    """A layer whose w / threshold overflows, next to one with zero-threshold rows."""
    w = np.full((6, 8), 1e300)
    w[1::2] *= -1
    q = quantize(w, "absmean", Granularity("per-channel"))
    q.thresholds[:] = 1e-300
    v = np.random.default_rng(5).standard_normal((6, 8))
    v[:2] = 0.0
    return [(w, q), (v, quantize(v, "absmean", Granularity("per-channel")))]


@WORKERS
def test_the_callers_error_state_reaches_every_shard(workers):
    pairs = overflowing_pairs()
    with pytest.warns(RuntimeWarning, match="overflow"):
        sharded(workers, 8, take_snapshot, 0, 1.0, pairs)
    with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
        sharded(workers, 8, take_snapshot, 0, 1.0, pairs)
    with np.errstate(over="ignore"):
        expected = report_and_warnings(pairs)
        got = sharded(workers, 8, report_and_warnings, pairs)
    assert got == expected and got[1] == []
    # zero thresholds divide nothing by zero as far as the caller can see
    with np.errstate(all="raise"):
        expected = report_and_warnings(pairs[1:])
        assert sharded(workers, 8, report_and_warnings, pairs[1:]) == expected


def test_shards_share_no_scratch():
    # six shards on a shortened switch interval, more shards than cores: a
    # scratch buffer two shards shared would mix their counts
    rng = np.random.default_rng(6)
    pairs = []
    for rows in (40, 37, 50):
        w = rng.standard_normal((rows, 30))
        w[::7] = 0.0
        pairs.append((w, quantize(w, "absmean", Granularity("per-group", 7))))
    expected = report_and_warnings(pairs)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            assert sharded(6, 60, report_and_warnings, pairs) == expected
    finally:
        sys.setswitchinterval(interval)


def test_wide_snapshot_with_the_real_cpu_count():
    # run again under one CPU (taskset -c 0), this takes the inline path
    rng = np.random.default_rng(7)
    pairs = []
    for _ in range(3):
        w = rng.standard_normal((512, 512)) * 0.05
        pairs.append((w, quantize(w, "absmean", Granularity("per-group", 128))))
    layout = pairs[0][1].layout
    blocks = 3 * len(quantizer._block_plan(layout, (), 0, 512, quantizer._SUM_BLOCK, ()))
    ranges = quantizer._row_ranges(blocks, 3 * 512 * 512)
    assert (len(ranges) == 1) == (quantizer._usable_cpus() == 1)
    expected = sharded(1, 1 << 62, report_and_warnings, pairs)
    assert report_and_warnings(pairs) == expected
