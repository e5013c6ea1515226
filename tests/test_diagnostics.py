import hashlib
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from tqla import Granularity, deadzone_mask, quantize
from tqla.diagnostics import (
    DEFAULT_BAND,
    DEFAULT_BINS,
    CodeHistory,
    _bin_counts,
    _edge_tables,
    _layer_stats,
    flip_rate,
    take_snapshot,
)
from tqla.errors import (
    DegenerateNormalization,
    InsufficientHistory,
    InvalidParam,
    InvalidShape,
    InvalidThreshold,
)
from tqla.quantizer import GroupLayout, QuantizedTensor

PT = Granularity("per-tensor")


def layer_stats(w, q, band=DEFAULT_BAND, bins=DEFAULT_BINS):
    """(size, deadzone fraction, boundary fraction, histogram) of the one layer (w, q)."""
    (stats,) = _layer_stats([(w, q)], band, bins)
    return stats


def quantized_pair(rng, rows=5, cols=17, kind="per-group", group_size=None):
    gs = group_size or int(rng.integers(1, cols + 3))
    g = Granularity(kind, gs) if kind == "per-group" else Granularity(kind)
    w = rng.standard_normal((rows, cols))
    return w, quantize(w, "absmean", g)


def count_fraction_oracle(w, thresholds_elem, predicate):
    rows, cols = w.shape
    hits = 0
    for r in range(rows):
        for c in range(cols):
            if predicate(w[r, c], thresholds_elem[r, c]):
                hits += 1
    return hits / (rows * cols)


class TestDeadzoneFraction:
    def test_all_zero_weights(self):
        q = quantize(np.ones((2, 4)), "absmean", PT)
        assert layer_stats(np.zeros((2, 4)), q)[1] == 1.0

    def test_zero_threshold(self):
        w = np.ones((2, 4))
        q = quantize(w, "absmean", PT)
        q.thresholds[:] = 0.0
        assert layer_stats(w, q)[1] == 0.0

    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            w, q = quantized_pair(rng)
            got = layer_stats(w, q)[1]
            ref = count_fraction_oracle(
                w, q.layout.expand(q.thresholds), lambda v, t: abs(v) < t
            )
            assert got == ref

    def test_shape_mismatch(self):
        q = quantize(np.ones((2, 4)), "absmean", PT)
        with pytest.raises(InvalidShape):
            layer_stats(np.ones((2, 5)), q)
        # codes of the weights' shape, but a layout of another
        other = QuantizedTensor(q.codes, q.scales, q.thresholds, GroupLayout(PT, 4, 2))
        with pytest.raises(InvalidShape):
            layer_stats(np.ones((2, 4)), other)


class TestBoundaryFraction:
    def test_exactly_on_boundary(self):
        w = np.array([[0.5]])
        q = quantize(w, "absmean", PT)
        q.thresholds[:] = 0.5
        for band in (0.01, 0.1, 0.5):
            assert layer_stats(w, q, band)[2] == 1.0

    def test_far_from_boundary(self):
        w = np.array([[10.0, -10.0, 0.001]])
        q = quantize(w, "absmean", PT)
        q.thresholds[:] = 1.0
        assert layer_stats(w, q, 0.1)[2] == 0.0

    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            w, q = quantized_pair(rng)
            band = float(rng.uniform(0.05, 0.5))
            got = layer_stats(w, q, band)[2]
            ref = count_fraction_oracle(
                w,
                q.layout.expand(q.thresholds),
                lambda v, t: (1 - band) * t <= abs(v) <= (1 + band) * t,
            )
            assert got == ref

    def test_band_out_of_range(self):
        w = np.ones((1, 2))
        q = quantize(w, "absmean", PT)
        for band in (0.0, 1.0, -0.3):
            with pytest.raises(InvalidParam, match="band"):
                layer_stats(w, q, band)

    def test_invariant_under_joint_rescale(self):
        rng = np.random.default_rng(2)
        w, q = quantized_pair(rng)
        base = layer_stats(w, q)[1:3]
        for factor in (0.5, 3.0, 100.0):
            q2 = quantize(w * factor, "absmean", q.granularity)
            assert layer_stats(w * factor, q2)[1:3] == base


class TestFlipRate:
    def test_constant_codes(self):
        h = CodeHistory(window=4)
        codes = np.ones((2, 3), dtype=np.int8)
        for _ in range(4):
            h.push([codes])
        assert flip_rate(h) == 0.0

    def test_single_alternating_weight(self):
        # one weight flips 0,+1,0,+1 across 4 snapshots; N total weights
        n_rows, n_cols = 3, 4
        h = CodeHistory(window=8)
        for s in range(4):
            codes = np.zeros((n_rows, n_cols), dtype=np.int8)
            codes[0, 0] = s % 2
            h.push([codes])
        assert flip_rate(h) == pytest.approx(1.0 / (n_rows * n_cols))

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        snaps = [rng.integers(-1, 2, size=(4, 6)).astype(np.int8) for _ in range(5)]
        h1 = CodeHistory(window=8)
        for s in snaps:
            h1.push([s])
        perm = rng.permutation(4 * 6)
        h2 = CodeHistory(window=8)
        for s in snaps:
            h2.push([s.reshape(-1)[perm].reshape(4, 6)])
        assert flip_rate(h1) == flip_rate(h2)

    def test_insufficient_history(self):
        h = CodeHistory(window=4)
        with pytest.raises(InsufficientHistory):
            flip_rate(h)
        h.push([np.zeros((1, 1), dtype=np.int8)])
        with pytest.raises(InsufficientHistory):
            flip_rate(h)

    def test_window_bounds_buffer(self):
        h = CodeHistory(window=3)
        for _ in range(10):
            h.push([np.zeros((1, 1), dtype=np.int8)])
        assert len(h) == 3

    @pytest.mark.parametrize("window", [1, 2.5, "3", True, None])
    def test_bad_window_rejected(self, window):
        with pytest.raises(InvalidParam, match="history window"):
            CodeHistory(window=window)

    def test_numpy_integer_window_accepted(self):
        h = CodeHistory(window=np.int64(3))
        assert type(h.window) is int

    def test_empty_snapshot_rejected(self):
        # flip_rate would divide by a total of zero weights
        h = CodeHistory(window=4)
        with pytest.raises(InvalidShape):
            h.push([])
        assert len(h) == 0

    @pytest.mark.parametrize("shape", [(0,), (2, 0), (0, 3)])
    def test_zero_size_codes_rejected(self, shape):
        h = CodeHistory(window=4)
        with pytest.raises(InvalidShape):
            h.push([np.zeros(shape, dtype=np.int8)])
        h.push([np.zeros((1, 1), dtype=np.int8)])
        with pytest.raises(InvalidShape):
            h.push([np.zeros(shape, dtype=np.int8)])
        assert len(h) == 1

    def test_shape_drift_rejected(self):
        h = CodeHistory(window=4)
        h.push([np.zeros((2, 2), dtype=np.int8)])
        with pytest.raises(InvalidShape):
            h.push([np.zeros((2, 3), dtype=np.int8)])

    @pytest.mark.parametrize(
        "first, second",
        [
            ([0.7, -1.9], [0.2, -1.2]),  # a cast to int8 reads both as [0, -1]
            (np.array([300], np.int16), np.array([44], np.int16)),  # both wrap to 44
            ([True, False], [False, True]),
            (["1", "0"], ["0", "1"]),
        ],
        ids=["float", "int16-wrap", "bool", "str"],
    )
    def test_non_ternary_codes_rejected(self, first, second):
        h = CodeHistory(window=4)
        for codes in (first, second):
            with pytest.raises(InvalidParam, match="layer 0 codes must be integers"):
                h.push([codes])
        assert len(h) == 0
        h.push([np.array([1, 0])])
        with pytest.raises(InvalidParam, match="layer 1 codes"):
            h.push([np.array([1, 0]), second])
        assert len(h) == 1

    @pytest.mark.parametrize("window", [2, 3, 5])
    def test_matches_recount_oracle_through_eviction(self, window):
        # two layers whose codes change a random share of positions per push;
        # 12 pushes evict the oldest pair from the window several times over
        rng = np.random.default_rng(window)
        codes = [rng.integers(-1, 2, size=s).astype(np.int8) for s in ((3, 7), (5, 2))]
        h = CodeHistory(window=window)
        pushes = []
        for k in range(12):
            codes = [
                np.where(rng.random(c.shape) < 0.1 * (k % 4), rng.integers(-1, 2, c.shape), c)
                for c in codes
            ]
            pushes.append([c.astype(np.int8) for c in codes])
            h.push(codes)
            assert len(h) == min(k + 1, window)
            if k >= 1:
                assert flip_rate(h) == oracles.flip_rate_recount(pushes, window)


class TestWeightHistogram:
    def test_boundary_spikes_land_at_unit_bins(self):
        w = np.array([[0.5, -0.5, 0.5, -0.5]])
        q = quantize(w, "absmean", PT)
        q.thresholds[:] = 0.5
        h = layer_stats(w, q, bins=12)[3]
        centers = (h.bin_edges[:-1] + h.bin_edges[1:]) / 2
        hot = centers[h.counts > 0]
        assert len(hot) == 2
        assert np.abs(np.abs(hot) - 1.0).max() < 0.5

    def test_counts_conserved(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            w, q = quantized_pair(rng)
            h = layer_stats(w, q)[3]
            assert h.counts.sum() == w.size

    def test_uniform_values_roughly_flat(self):
        rng = np.random.default_rng(5)
        w = rng.uniform(-1, 1, size=(100, 100))
        q = quantize(w, "absmean", PT)
        h = layer_stats(w, q, bins=10)[3]
        assert h.counts.sum() == w.size
        inner = h.counts[1:-1]
        assert inner.min() > 0

    def test_overflow_goes_to_end_bins(self):
        w = np.array([[100.0, -100.0, 0.0]])
        q = quantize(w, "absmean", PT)
        q.thresholds[:] = 1.0
        h = layer_stats(w, q, bins=6)[3]
        assert h.counts[0] == 1 and h.counts[-1] == 1
        assert h.counts.sum() == 3

    def test_degenerate_normalization_falls_back(self):
        w = np.array([[0.25, -0.75]])
        q = quantize(w, "absmean", PT)
        q.thresholds[:] = 0.0
        h = layer_stats(w, q, bins=6)[3]
        assert not h.normalized
        assert h.counts.sum() == 2

    def test_too_few_bins(self):
        w = np.ones((1, 2))
        q = quantize(w, "absmean", PT)
        with pytest.raises(InvalidParam, match="bins"):
            layer_stats(w, q, bins=1)

    @pytest.mark.parametrize(
        "bins",
        [2.5, 5.0, np.float64(5.0), True, False, "5", None],
        ids=["2.5", "5.0", "float64", "True", "False", "str", "None"],
    )
    def test_non_integer_bins_rejected(self, bins):
        rng = np.random.default_rng(14)
        w, q = quantized_pair(rng)
        with pytest.raises(InvalidParam, match="bins"):
            layer_stats(w, q, bins=bins)
        with pytest.raises(InvalidParam, match="bins"):
            take_snapshot(0, 1.0, [(w, q)], bins=bins)

    def test_numpy_integer_bins_accepted(self):
        rng = np.random.default_rng(15)
        w, q = quantized_pair(rng)
        h = layer_stats(w, q, bins=np.int64(5))[3]
        assert h.counts.tolist() == layer_stats(w, q, bins=5)[3].counts.tolist()

    def test_matches_counting_oracle(self):
        import bisect

        rng = np.random.default_rng(6)
        for _ in range(10):
            w, q = quantized_pair(rng, rows=9, cols=23)
            bins = int(rng.integers(3, 30))
            edges = np.linspace(-3.0, 3.0, bins + 1)
            # power-of-two thresholds keep w / thr exact; every fourth group is
            # zeroed (group 0 never is, so the normalization is not degenerate)
            q.thresholds[:] = 2.0 ** rng.integers(-3, 4, q.thresholds.size)
            q.thresholds[1::4] = 0.0
            thr = q.layout.expand(q.thresholds)
            special = np.concatenate(
                [
                    edges,
                    np.nextafter(edges, -np.inf),
                    np.nextafter(edges, np.inf),
                    [-3.0, 3.0, -1e3, 1e3, 0.0],
                ]
            )
            idx = rng.choice(w.size, size=min(w.size, special.size), replace=False)
            w.flat[idx] = rng.permutation(special)[: idx.size] * thr.flat[idx]
            on_zero = idx[thr.flat[idx] == 0]
            w.flat[on_zero] = rng.choice([-1.5, 0.0, 2.5], on_zero.size)
            h = layer_stats(w, q, bins=bins)[3]
            assert h.bin_edges.tobytes() == edges.tobytes()
            ref = [0] * bins
            for r in range(w.shape[0]):
                for c in range(w.shape[1]):
                    if thr[r, c] > 0:
                        v = w[r, c] / thr[r, c]
                    else:
                        v = float(np.sign(w[r, c])) * np.inf if w[r, c] != 0 else 0.0
                    v = min(max(v, -3.0), 3.0)
                    k = min(max(bisect.bisect_right(list(edges), v) - 1, 0), bins - 1)
                    ref[k] += 1
            assert h.counts.tolist() == ref


@st.composite
def clipped_values_and_bins(draw):
    """Bins and values in [-3, 3]: bin edges, the floats either side, +-3, uniform."""
    bins = draw(st.integers(2, 1024))
    edges = np.linspace(-3.0, 3.0, bins + 1)
    edge = st.integers(0, bins).map(lambda k: float(edges[k]))
    point = st.one_of(
        edge,
        edge.map(lambda v: float(np.nextafter(v, -np.inf))),
        edge.map(lambda v: float(np.nextafter(v, np.inf))),
        st.sampled_from([-3.0, 3.0]),
        st.floats(-3.0, 3.0),
    )
    values = draw(st.lists(point, min_size=1, max_size=300))
    return np.clip(np.array(values, dtype=np.float64), -3.0, 3.0), bins


def assert_same_histogram(values, bins):
    edges, lower, upper = _edge_tables(bins)
    scratch = [np.empty(values.size, dtype=t) for t in (np.float64, np.intp, bool)]
    counts = _bin_counts(values, lower, upper, *scratch)
    ref_counts, ref_edges = np.histogram(values, bins, range=(-3.0, 3.0))
    assert counts.dtype == ref_counts.dtype
    assert counts.tolist() == ref_counts.tolist()
    assert edges.tobytes() == ref_edges.tobytes()


class TestDirectBinning:
    @settings(max_examples=200, deadline=None)
    @given(clipped_values_and_bins())
    def test_matches_np_histogram(self, case):
        assert_same_histogram(*case)

    def test_every_edge_and_its_neighbours(self):
        for bins in [*range(2, 1001), (1 << 16) + 1, 999_983]:
            edges = np.linspace(-3.0, 3.0, bins + 1)
            values = np.concatenate(
                [edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)]
            )
            assert_same_histogram(np.clip(values, -3.0, 3.0), bins)

    @pytest.mark.parametrize("seed", range(36))
    def test_layer_stats_match_histogram_reference(self, seed):
        # kinds cycle per-tensor, per-channel, ragged per-group; thresholds are
        # all positive, partly zero, or all zero; some weights sit on the bin
        # edges (in threshold units), the floats either side, beyond +-3, at
        # 0 or at 7 (raw values beyond the range where thresholds are zero)
        rng = np.random.default_rng([seed, 91])
        kind = ("per-tensor", "per-channel", "per-group")[seed % 3]
        rows, cols = int(rng.integers(1, 12)), int(rng.integers(1, 40))
        w, q = quantized_pair(rng, rows, cols, kind)
        zeros = (seed // 3) % 3
        if zeros == 1:
            q.thresholds[rng.random(q.thresholds.size) < 0.4] = 0.0
        elif zeros == 2:
            q.thresholds[:] = 0.0
        band = float(rng.uniform(0.01, 0.99))
        bins = int(rng.integers(2, 200))
        edges = np.linspace(-3.0, 3.0, bins + 1)
        special = np.concatenate(
            [edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf), [0.0, -7.0, 7.0]]
        )
        thr = q.layout.expand(q.thresholds)
        idx = rng.choice(w.size, size=w.size // 2, replace=False)
        w.flat[idx] = rng.choice(special, idx.size) * thr.flat[idx]
        w.flat[rng.choice(w.size, size=w.size // 8, replace=False)] = 0.0
        w.flat[rng.choice(w.size, size=w.size // 8, replace=False)] = 7.0
        before = w.copy()
        size, dead, near, hist = layer_stats(w, q, band, bins)
        ref = oracles.layer_stats_reference(w, q, band, bins)
        assert (size, dead, near) == ref[:3]
        assert hist.counts.dtype == ref[3].dtype
        assert hist.counts.tolist() == ref[3].tolist()
        assert hist.bin_edges.tobytes() == ref[4].tobytes()
        assert hist.normalized == ref[5]
        assert w.tobytes() == before.tobytes()


class TestSnapshotAndExport:
    def test_snapshot_aggregates_layers(self):
        rng = np.random.default_rng(7)
        w1, q1 = quantized_pair(rng, rows=2, cols=6)
        w2, q2 = quantized_pair(rng, rows=3, cols=4)
        rep = take_snapshot(0, 1.0, [(w1, q1), (w2, q2)])
        total = w1.size + w2.size
        expected = (
            layer_stats(w1, q1)[1] * w1.size + layer_stats(w2, q2)[1] * w2.size
        ) / total
        assert rep.deadzone_fraction == pytest.approx(expected, rel=1e-12)
        assert rep.histogram.counts.sum() == total

    def test_first_snapshot_has_zero_flip_rate(self):
        rng = np.random.default_rng(8)
        history = CodeHistory(window=4)
        w, q = quantized_pair(rng)
        rep = take_snapshot(0, 0.5, [(w, q)], history)
        assert rep.mean_flip_rate == 0.0
        assert len(history) == 1

    def test_empty_sequence_rejected(self):
        history = CodeHistory(window=4)
        with pytest.raises(InvalidParam):
            take_snapshot(0, 1.0, [], history)
        assert len(history) == 0

    def test_thresholds_deadzone_mask_refuses_are_refused(self):
        # one check of a (weights, quantized) pair for the snapshot and the mask
        w = np.random.default_rng(0).standard_normal((4, 6))
        good = quantize(w, "absmean", Granularity("per-channel"))
        q = quantize(w, "absmean", Granularity("per-channel"))
        q.thresholds[1] = np.nan
        q.thresholds[2] = -0.5
        with pytest.raises(InvalidThreshold):
            deadzone_mask(w, q)
        history = CodeHistory(window=4)
        take_snapshot(0, 1.0, [(w, good)], history)
        last = history._last
        for pairs in ([(w, q)], [(w, good), (w, q)]):
            with pytest.raises(InvalidThreshold, match="thresholds must be >= 0"):
                take_snapshot(1, 1.0, pairs, history)
        assert len(history) == 1 and history._last is last
        # a non-finite weight is still reported first
        bad = w.copy()
        bad[3, 5] = np.nan
        with pytest.raises(InvalidParam, match="NaN or Inf"):
            take_snapshot(1, 1.0, [(bad, q)], history)


def uneven_snapshots(seed):
    """Four snapshots of 2x11, 13x16 and 5x17 layers sharing one history."""
    rng = np.random.default_rng([seed, 77])
    layers = (
        ((2, 11), Granularity("per-group", 5)),
        ((13, 16), Granularity("per-channel")),
        ((5, 17), PT),
    )
    history = CodeHistory(window=3)
    reports = []
    for step in range(4):
        pairs = []
        for shape, g in layers:
            w = rng.standard_normal(shape)
            pairs.append((w, quantize(w, "absmean", g)))
        reports.append(take_snapshot(step, rng.uniform(0.1, 2.0), pairs, history))
    return reports


def counted_snapshot():
    """Deadzone and boundary counts chosen so that sum(k) / n differs from
    sum((k / size) * size) / n in the last bit, for k over the three layers."""
    rng = np.random.default_rng(79)
    pairs = []
    for (rows, cols), g, inside, near in (
        ((2, 11), Granularity("per-group", 5), 10, 3),
        ((13, 16), Granularity("per-channel"), 108, 27),
        ((5, 17), PT, 13, 13),
    ):
        size = rows * cols
        mags = np.concatenate(
            [
                rng.uniform(0.1, 0.8, inside),
                rng.uniform(1.0, 1.08, near),
                rng.uniform(1.5, 2.5, size - inside - near),
            ]
        )
        w = (rng.permutation(mags) * rng.choice([-1.0, 1.0], size)).reshape(rows, cols)
        q = quantize(w, "absmean", g)
        q.thresholds[:] = 1.0
        pairs.append((w, q))
    return [take_snapshot(0, 1.0, pairs)]


def zero_threshold_snapshot():
    """Rows 1 and 2 have hand-zeroed thresholds: nonzero w bins as +-inf."""
    rng = np.random.default_rng(80)
    w = rng.standard_normal((4, 9))
    w[1, 3] = 0.0
    q = quantize(w, "absmean", Granularity("per-channel"))
    q.thresholds[[1, 2]] = 0.0
    return [take_snapshot(0, 0.5, [(w, q)])]


def degenerate_next_to_normal_snapshot():
    rng = np.random.default_rng(81)
    zero = np.zeros((3, 7))
    w = rng.standard_normal((6, 10))
    pairs = [(zero, quantize(zero, "absmean", PT)), (w, quantize(w, "absmean", PT))]
    with pytest.warns(DegenerateNormalization):
        return [take_snapshot(0, 0.25, pairs)]


def bin_edge_snapshot():
    """Weights on every edge of 12 bins, the next floats either side, and overflow."""
    edges = np.linspace(-3.0, 3.0, 13)
    w = np.concatenate(
        [
            edges,
            np.nextafter(edges, -np.inf),
            np.nextafter(edges, np.inf),
            [-3.0, 3.0, -7.5, 7.5, 0.0, 1e300, -1e300],
        ]
    ).reshape(1, -1)
    q = quantize(w, "absmean", PT)
    q.thresholds[:] = 1.0
    return [take_snapshot(0, 1.0, [(w, q)], bins=12)]


def band_and_bins_snapshot():
    rng = np.random.default_rng(82)
    pairs = [quantized_pair(rng, rows=7, cols=13), quantized_pair(rng, rows=3, cols=29)]
    return [take_snapshot(5, 0.75, pairs, band=0.37, bins=7)]


#: SHA-256 of ``json.dumps([r.to_dict() for r in reports], sort_keys=True)`` per case.
SNAPSHOT_DIGESTS = {
    "uneven-0": "06d7f512c4d13a59c2461319a7976f0c394827e4b74e50821fcc74357261b505",
    "uneven-1": "aaa35011e8bd5b5676fa775b806e8de50021844b841b205776263015751603b5",
    "uneven-2": "5aeb080e21bd917ab93adba4c45ef17786e44d1369fb8cc1201f8981efaf23bb",
    "counted": "d40dcbf0442955a9d74e27c226450cb805cc507ec023b7a7c5a96af750e9dc15",
    "zero-threshold": "204ce27ce53542af28cd2b94c8d6eda57149a7d4ef9a374e3c917ee3b362967b",
    "degenerate-next-to-normal": "6b5777a671eaf0d5a7cdb4c818a51c5c4bb7bdddbdc99cf552884ae87da8891c",
    "bin-edges": "eb9826d1a9b3bdc8ad6fa181be840393c659c53cd35385df6638039c9aad172b",
    "band-and-bins": "e11bb1fdd34b36b2fd218d558d5d5dc6cb9e2f5c4e364082a1381883e3523e4a",
}


def snapshot_cases():
    return {
        "uneven-0": lambda: uneven_snapshots(0),
        "uneven-1": lambda: uneven_snapshots(1),
        "uneven-2": lambda: uneven_snapshots(2),
        "counted": counted_snapshot,
        "zero-threshold": zero_threshold_snapshot,
        "degenerate-next-to-normal": degenerate_next_to_normal_snapshot,
        "bin-edges": bin_edge_snapshot,
        "band-and-bins": band_and_bins_snapshot,
    }


@pytest.mark.parametrize("case", list(SNAPSHOT_DIGESTS))
def test_snapshot_bytes_pinned(case):
    reports = snapshot_cases()[case]()
    blob = json.dumps([r.to_dict() for r in reports], sort_keys=True).encode("utf-8")
    assert hashlib.sha256(blob).hexdigest() == SNAPSHOT_DIGESTS[case]


def test_snapshot_degenerate_warning_rule():
    rng = np.random.default_rng(83)
    zeros = [np.zeros((2, 5)), np.zeros((4, 3))]
    degenerate = [(z, quantize(z, "absmean", PT)) for z in zeros]
    with pytest.warns(DegenerateNormalization):
        mixed = take_snapshot(0, 1.0, degenerate + [quantized_pair(rng)])
    assert not mixed.histogram.normalized
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        silent = take_snapshot(0, 1.0, degenerate)
    assert not silent.histogram.normalized
    assert silent.histogram.counts.sum() == 22
