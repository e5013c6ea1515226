import hashlib
import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from tqla import Granularity, deadzone_mask, dequantize, quantize, tequila_bias
from tqla.diagnostics import take_snapshot
from tqla.errors import InvalidParam, InvalidShape, InvalidThreshold, UnsupportedScheme
from tqla.packing import pack_model
from tqla.qat import QuantLinearLayer
from tqla.quantizer import _SUM_BLOCK, GroupLayout, _sequential_sums, _sides, _ternarize

PT = Granularity("per-tensor")
PC = Granularity("per-channel")


def random_matrix(rng, rows=None, cols=None, scale=1.0):
    rows = rows or int(rng.integers(1, 13))
    cols = cols or int(rng.integers(1, 49))
    return rng.standard_normal((rows, cols)) * scale


def random_granularity(rng, cols):
    kind = rng.choice(["per-tensor", "per-channel", "per-group"])
    if kind == "per-group":
        return Granularity(kind, int(rng.integers(1, cols + 4)))
    return Granularity(kind)


class TestGranularity:
    @pytest.mark.parametrize("kind", ["per-group", "per-channel", "per-tensor"])
    @pytest.mark.parametrize("size", [2.5, 3.7, 4.0, "4", None, True, False])
    def test_non_integer_group_size_rejected(self, kind, size):
        with pytest.raises(InvalidParam):
            Granularity(kind, size)
        with pytest.raises(InvalidParam):
            Granularity.from_dict({"kind": kind, "group_size": size})

    @pytest.mark.parametrize("kind", ["per-group", "per-channel", "per-tensor"])
    @pytest.mark.parametrize("size", [0, -5, np.int64(-1)])
    def test_non_positive_group_size_rejected(self, kind, size):
        with pytest.raises(InvalidParam, match="group_size"):
            Granularity(kind, size)
        with pytest.raises(InvalidParam, match="group_size"):
            Granularity.from_dict({"kind": kind, "group_size": size})

    def test_numpy_integer_group_size_becomes_int(self):
        g = Granularity("per-group", np.int64(5))
        assert type(g.group_size) is int
        assert g == Granularity("per-group", 5)
        assert json.dumps(g.to_dict()) == '{"kind": "per-group", "group_size": 5}'

    @pytest.mark.parametrize("granularity", ["per-group", None, {"kind": "per-tensor"}])
    def test_granularity_must_be_a_granularity(self, granularity):
        w = np.ones((2, 3))
        with pytest.raises(InvalidParam, match="granularity"):
            quantize(w, "absmean", granularity)
        with pytest.raises(InvalidParam, match="granularity"):
            QuantLinearLayer(w, "absmean", granularity)
        with pytest.raises(InvalidParam, match="granularity"):
            GroupLayout(granularity, 2, 3)


def per_tensor(w, scheme):
    """(alpha, delta) of ``w``, of any shape, quantized as one per-tensor group."""
    q = quantize(np.reshape(w, (1, -1)), scheme, PT)
    return q.scales[0], q.thresholds[0]


class TestAbsmeanParams:
    def test_hand_example(self):
        assert per_tensor([0.4, -0.2, 0.1, -0.9], "absmean") == (0.4, 0.2)

    def test_zero_vector(self):
        assert per_tensor([0.0, 0.0, 0.0, 0.0], "absmean") == (0.0, 0.0)

    def test_constant_vector(self):
        c = 0.37
        alpha, delta = per_tensor([c] * 9, "absmean")
        assert alpha == pytest.approx(c, rel=1e-15)
        assert delta == pytest.approx(c / 2, rel=1e-15)

    def test_empty_raises(self):
        with pytest.raises(InvalidShape):
            per_tensor([], "absmean")


#: scheme -> the scalar oracle of its estimator
ESTIMATORS = {"absmean": oracles.absmean_params_scalar, "twn": oracles.twn_params_scalar}


@pytest.mark.parametrize("scheme", list(ESTIMATORS))
class TestEstimatorsArePerTensorQuantize:
    @pytest.mark.parametrize("shape", [(), (7,), (3, 5), (2, 3, 4)])
    def test_any_shape_is_one_group(self, scheme, shape):
        w = np.random.default_rng(len(shape)).standard_normal(shape)
        assert per_tensor(w, scheme) == ESTIMATORS[scheme](np.ravel(w).tolist())

    @pytest.mark.parametrize("empty", [np.zeros(0), np.zeros((0, 3)), np.zeros((2, 0, 4))])
    def test_empty_raises(self, scheme, empty):
        with pytest.raises(InvalidShape):
            per_tensor(empty, scheme)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_raises(self, scheme, bad):
        with pytest.raises(InvalidParam):
            per_tensor(bad, scheme)
        with pytest.raises(InvalidParam):
            per_tensor([[0.5, bad], [1.0, -2.0]], scheme)


class TestTwnParams:
    def test_constant_vector(self):
        c = 1.3
        alpha, delta = per_tensor([c] * 5, "twn")
        assert alpha == pytest.approx(c, rel=1e-15)
        assert delta == pytest.approx(0.75 * c, rel=1e-15)

    def test_sparse_example(self):
        # mean |w| = 0.25, delta = 0.1875, only the 1.0 survives
        assert per_tensor([1.0, 0.0, 0.0, 0.0], "twn") == (1.0, 0.1875)

    def test_zero_vector(self):
        alpha, delta = per_tensor([0.0, 0.0], "twn")
        assert alpha == 0.0 and delta == 0.0

    def test_empty_raises(self):
        with pytest.raises(InvalidShape):
            per_tensor([], "twn")

    def test_alpha_beats_grid_search(self):
        # the closed-form alpha must be at least as good as a dense scan
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(2, 65))
            w = list(rng.standard_normal(n) * rng.uniform(0.1, 3.0))
            alpha, delta = per_tensor(w, "twn")
            _, grid_err = oracles.twn_alpha_grid(w, delta)
            err = oracles.recon_error(w, alpha, delta)
            assert err <= grid_err * (1 + 1e-6)


def ternarized(values, thresholds):
    """(codes, deadzone mask) of ``values`` under one threshold each, in groups of one."""
    w = np.array(values, dtype=np.float64).reshape(1, -1)
    layout = GroupLayout(Granularity("per-group", 1), 1, w.size)
    codes, dead = np.empty(w.shape, dtype=np.int8), np.empty(w.shape, dtype=bool)
    _ternarize(w, layout, np.ones(w.size), np.broadcast_to(thresholds, w.size), codes, dead)
    return codes[0], dead[0]


def ternary(values, delta):
    """Codes of the top-down ternarizer for one threshold ``delta``."""
    return ternarized(values, delta)[0].tolist()


class TestTernarize:
    def test_hand_example(self):
        assert ternary([0.4, -0.2, 0.1, -0.9], 0.2) == [1, -1, 0, -1]

    def test_boundary_inclusive(self):
        assert ternary([0.2, -0.2], 0.2) == [1, -1]

    def test_zero_delta_branch_order(self):
        # w == 0 hits the first branch when delta == 0
        assert ternary([0.0, -0.5], 0.0) == [1, -1]

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0]),
                st.floats(-10.0, 10.0, allow_subnormal=True),
            ),
            min_size=1,
            max_size=40,
        ),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_scalar_oracle_at_zero_delta(self, values, seed):
        assert ternary(values, 0.0) == [oracles.ternarize_scalar(v, 0.0) for v in values]
        w = np.array(values)
        # per-element thresholds, as quantize passes them, with some exactly zero
        rng = np.random.default_rng(seed)
        thr = np.where(rng.random(w.size) < 0.5, 0.0, rng.uniform(0.0, 2.0, w.size))
        codes, dead = ternarized(values, thr)
        assert codes.dtype == np.int8
        assert dead.tolist() == (np.abs(w) < thr).tolist()
        assert codes.tolist() == [oracles.ternarize_scalar(v, d) for v, d in zip(values, thr)]


class TestQuantize:
    def test_per_tensor_absmean_example(self):
        q = quantize([[0.4, -0.2, 0.1, -0.9]], "absmean", PT)
        assert q.codes.tolist() == [[1, -1, 0, -1]]
        assert q.scales.tolist() == [0.4]
        assert q.thresholds.tolist() == [0.2]

    def test_zero_matrix_degenerate(self):
        q = quantize(np.zeros((3, 5)), "absmean", PC)
        assert not q.codes.any()
        assert not q.scales.any()

    def test_unknown_scheme(self):
        with pytest.raises(UnsupportedScheme):
            quantize(np.ones((2, 2)), "int8", PT)

    def test_per_channel_equals_group_of_cols(self):
        rng = np.random.default_rng(3)
        w = random_matrix(rng, 6, 20)
        for scheme in ("absmean", "twn"):
            a = quantize(w, scheme, PC)
            b = quantize(w, scheme, Granularity("per-group", 20))
            assert np.array_equal(a.codes, b.codes)
            assert np.array_equal(a.scales, b.scales)
            assert np.array_equal(a.thresholds, b.thresholds)

    def test_per_tensor_equals_single_spanning_group(self):
        # one row: per-tensor and per-channel see the same single group
        rng = np.random.default_rng(4)
        w = random_matrix(rng, 1, 33)
        for scheme in ("absmean", "twn"):
            a = quantize(w, scheme, PT)
            b = quantize(w, scheme, PC)
            assert np.array_equal(a.codes, b.codes)
            assert np.array_equal(a.scales, b.scales)

    def test_sign_symmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            w = random_matrix(rng)
            g = random_granularity(rng, w.shape[1])
            for scheme in ("absmean", "twn"):
                qp = quantize(w, scheme, g)
                qn = quantize(-w, scheme, g)
                assert np.array_equal(qn.codes, -qp.codes)
                assert np.array_equal(qn.scales, qp.scales)
                assert np.array_equal(qn.thresholds, qp.thresholds)

    @pytest.mark.parametrize("scheme", ["absmean", "twn"])
    def test_matches_scalar_oracle_exactly(self, scheme):
        rng = np.random.default_rng(6)
        for _ in range(150):
            w = random_matrix(rng, scale=float(rng.uniform(0.01, 10.0)))
            g = random_granularity(rng, w.shape[1])
            q = quantize(w, scheme, g)
            codes, scales, thresholds = oracles.quantize_scalar(
                w.tolist(), scheme, g.kind, g.group_size
            )
            assert q.codes.tolist() == codes
            assert q.scales.tolist() == scales
            assert q.thresholds.tolist() == thresholds

    def test_ragged_last_group_uses_own_elements(self):
        w = np.array([[1.0, 1.0, 1.0, 5.0]])
        q = quantize(w, "absmean", Granularity("per-group", 3))
        assert q.scales.tolist() == [1.0, 5.0]


class TestDequantize:
    def test_direct_scaling(self):
        q = quantize([[0.4, -0.2, 0.1, -0.9]], "absmean", PT)
        assert dequantize(q).tolist() == [[0.4, -0.4, 0.0, -0.4]]

    def test_zero_codes(self):
        q = quantize(np.zeros((2, 3)), "absmean", PT)
        assert not dequantize(q).any()

    def test_roundtrip_when_scale_clears_threshold(self):
        # re-ternarizing the reconstruction recovers the codes when alpha > 2*delta
        rng = np.random.default_rng(7)
        found = 0
        for _ in range(300):
            w = random_matrix(rng, 4, 9)
            g = random_granularity(rng, 9)
            q = quantize(w, "twn", g)
            if not (q.scales > 2 * q.thresholds).all():
                continue
            found += 1
            thr = q.layout.expand(q.thresholds)
            re = np.where(dequantize(q) >= thr, 1, np.where(np.abs(dequantize(q)) < thr, 0, -1))
            assert np.array_equal(re, q.codes)
        assert found > 20


class TestDeadzoneMask:
    def test_hand_example(self):
        w = np.array([[0.4, -0.2, 0.1, -0.9]])
        q = quantize(w, "absmean", PT)
        m = deadzone_mask(w, q)
        assert m.tolist() == [[False, False, True, False]]
        assert m.sum(axis=1).tolist() == [1]

    def test_zero_threshold_empty_deadzone(self):
        w = np.array([[1.0, -2.0]])
        q = quantize(w, "absmean", PT)
        q.thresholds[:] = 0.0
        assert not deadzone_mask(w, q).any()

    def test_all_dead(self):
        w = np.zeros((2, 4))
        q = quantize(np.ones((2, 4)), "absmean", PT)
        assert deadzone_mask(w, q).all()

    def test_shape_mismatch(self):
        q = quantize(np.ones((2, 4)), "absmean", PT)
        with pytest.raises(InvalidShape):
            deadzone_mask(np.ones((2, 5)), q)

    @pytest.mark.parametrize("bad", [np.nan, -0.5, -np.inf])
    def test_nan_or_negative_threshold_rejected(self, bad):
        # the mask is read from w >= t and w <= -t, which is |w| < t only
        # for a threshold that is >= 0 (+inf included)
        w = np.array([[1.0, -2.0, 0.1, 0.0], [0.5, 0.25, -0.75, 3.0]])
        q = quantize(w, "absmean", PC)
        q.thresholds[1] = bad
        with pytest.raises(InvalidThreshold):
            deadzone_mask(w, q)

    def test_infinite_threshold_makes_the_group_dead(self):
        w = np.array([[1.0, -2.0, 0.0], [0.5, -0.25, 0.75]])
        q = quantize(w, "absmean", PC)
        q.thresholds[0] = np.inf
        q.thresholds[1] = 0.0
        assert deadzone_mask(w, q).tolist() == [[True] * 3, [False] * 3]

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            w = random_matrix(rng)
            g = random_granularity(rng, w.shape[1])
            q = quantize(w, "absmean", g)
            m = deadzone_mask(w, q)
            ref = oracles.deadzone_mask_scalar(
                w.tolist(), q.thresholds.tolist(), g.kind, g.group_size
            )
            assert m.tolist() == ref


class TestTequilaBias:
    def test_hand_example(self):
        w = np.array([[0.4, -0.2, 0.1, -0.9]])
        q = quantize(w, "absmean", PT)
        bias = tequila_bias(w, deadzone_mask(w, q), 1e-3)
        assert bias.tolist() == [1e-4]

    def test_empty_deadzone(self):
        w = np.array([[1.0, -1.0]])
        mask = np.zeros((1, 2), dtype=bool)
        assert tequila_bias(w, mask, 1e-3).tolist() == [0.0]

    def test_all_live_negative_row_sums_to_positive_zero(self):
        # the deadzone sum selects, not multiplies: -1.0 * False would be -0.0
        w = np.array([[-1.0, -1.0, -1.0]])
        bias = tequila_bias(w, deadzone_mask(w, quantize(w, "absmean", PT)), 1.0)
        assert bias.tolist() == [0.0] and not np.signbit(bias[0])

    def test_all_dead_is_scaled_row_sum(self):
        w = np.array([[0.1, 0.2, -0.05]])
        mask = np.ones((1, 3), dtype=bool)
        bias = tequila_bias(w, mask, 2.0)
        assert bias[0] == pytest.approx(2.0 * (0.1 + 0.2 - 0.05), rel=1e-15)

    def test_shape_mismatch(self):
        mask = np.ones((1, 3), dtype=bool)
        with pytest.raises(InvalidShape):
            tequila_bias(np.ones((2, 3)), mask, 1.0)

    def test_signed_zero_rows_pinned(self):
        # the row sum starts from its first selected weight, so a deadzone
        # holding only -0.0 sums to -0.0; deselected weights add +0.0
        w = np.array(
            [
                [-0.0, -0.0, -0.0, -0.0],  # all dead, all -0.0
                [-1.0, -2.0, -0.5, -3.0],  # all live and negative
                [-0.0, -1.0, -0.0, -2.0],  # dead -0.0 between live negatives
                [-0.0, 0.0, -0.0, -0.0],  # all dead, mixed zeros
            ]
        )
        dead = np.array([[1, 1, 1, 1], [0, 0, 0, 0], [1, 0, 1, 0], [1, 1, 1, 1]], dtype=bool)
        bias = tequila_bias(w, dead, 1e-3)
        assert bias.tobytes() == np.array([-0.0, 0.0, 0.0, 0.0]).tobytes()

    def test_non_finite_lambda(self):
        mask = np.ones((1, 3), dtype=bool)
        with pytest.raises(InvalidParam):
            tequila_bias(np.ones((1, 3)), mask, float("nan"))

    def test_matches_scalar_oracle_exactly(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            w = random_matrix(rng)
            g = random_granularity(rng, w.shape[1])
            q = quantize(w, "absmean", g)
            m = deadzone_mask(w, q)
            # rows of signed zeros, all -0.0 or mixed, some wholly dead: the
            # sign of a zero bias shows only in the bytes
            for r in np.flatnonzero(rng.random(w.shape[0]) < 0.3):
                w[r] = np.where(rng.random(w.shape[1]) < rng.choice([0.0, 0.5]), 0.0, -0.0)
                m[r] |= rng.random() < 0.5
            got = tequila_bias(w, m, 1e-3)
            ref = oracles.tequila_bias_scalar(w.tolist(), m.tolist(), 1e-3)
            assert got.tobytes() == np.array(ref).tobytes()


#: Shapes chosen around the block size of ``_sequential_sums`` so that every
#: branch of the blocked sum runs.
SUM_BRANCH_SHAPES = [
    (2 * (_SUM_BLOCK // 1000) + 1, 1000),  # full blocks, then a last block of one row
    (2, _SUM_BLOCK + 3),  # rows wider than a block: one row per block
    (3, 40_000),  # over half a block wide: still one row per block
    (150, 7, 128),  # 3-D group runs spanning several blocks
    (_SUM_BLOCK // 1000 + 1, 1, 1000),  # 3-D, last block a single run
    (1, 1, _SUM_BLOCK + 5),  # per-tensor view wider than a block
    (2, 1, 3 * _SUM_BLOCK + 7),  # single runs of three full chunks and a short one
    (1, 1, 5),  # per-tensor view of a small matrix
    (3, 1),  # runs of one element
]


#: Shapes of up to 40 elements along each of 2 or 3 axes.
SMALL_SUM_SHAPES = st.lists(st.integers(1, 40), min_size=2, max_size=3).map(tuple)


@st.composite
def sum_inputs(draw, shapes=st.one_of(st.sampled_from(SUM_BRANCH_SHAPES), SMALL_SUM_SHAPES)):
    """Arrays of ``shapes`` for ``_sequential_sums``, heavy in exact zeros of both signs."""
    shape = draw(shapes)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mode = draw(st.sampled_from(["gaussian", "signed-zeros", "cancelling"]))
    # a wider base sliced back to ``shape`` gives a non-contiguous view
    pad = draw(st.sampled_from([0, 0, 3]))
    full = shape[:-1] + (shape[-1] + pad,)
    if mode == "gaussian":
        a = rng.standard_normal(full)
        a[rng.random(full) < 0.2] = -0.0
    elif mode == "signed-zeros":
        a = np.where(rng.random(full) < 0.7, -0.0, 0.0)
    else:
        # small integers sum exactly, so many runs end at zero
        a = rng.integers(-2, 3, size=full).astype(np.float64)
        a[(a == 0) & (rng.random(full) < 0.5)] = -0.0
    # whole runs of -0.0
    a[rng.random(full[:-1]) < 0.3] = -0.0
    return a[..., : shape[-1]]


@st.composite
def blocked_sum_inputs(draw):
    """(array, block size) for ``_sequential_sums``, the size from one element to past the array."""
    a = draw(sum_inputs(SMALL_SUM_SHAPES))
    return a, draw(st.one_of(st.integers(1, 8), st.integers(1, a.size + 1)))


def _int_bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def sequential_sums(a, mask=None, **kw):
    """``_sequential_sums`` into a fresh array, of ``a.shape[:-1]``."""
    return _sequential_sums(a, mask, out=np.empty(a.shape[:-1]), **kw)


class TestSequentialSums:
    @settings(max_examples=60, deadline=None)
    @given(sum_inputs())
    @example(np.full((3, 5), -0.0))
    @example(np.full((2 * (_SUM_BLOCK // 8) + 1, 8), -0.0))
    def test_matches_accumulate_bit_for_bit(self, a):
        got = sequential_sums(a)
        ref = np.add.accumulate(a, axis=-1)[..., -1]
        assert got.shape == ref.shape
        np.testing.assert_array_equal(_int_bits(got), _int_bits(ref))

    @settings(max_examples=60, deadline=None)
    @given(sum_inputs(), st.sampled_from([0.0, 0.3, 0.9, 1.0]), st.booleans(), st.integers(0, 99))
    @example(np.full((3, 5), -0.0), 1.0, False, 0)
    @example(np.full((1, 1, 3 * _SUM_BLOCK + 7), -0.0), 1.0, False, 0)
    def test_terms_formed_in_the_buffer_match_accumulate(self, a, density, magnitude, seed):
        # a density of 1.0 selects every term; clearing the mask over the
        # first half of the runs leaves whole runs of +0.0 terms
        rng = np.random.default_rng(seed)
        mask = rng.random(a.shape) < density
        if seed % 4 == 0:
            mask[: a.shape[0] // 2] = False
        terms = np.abs(a) if magnitude else a
        ref = np.add.accumulate(np.where(mask, terms, 0.0), axis=-1)[..., -1]
        got = sequential_sums(a, mask, magnitude=magnitude)
        np.testing.assert_array_equal(_int_bits(got), _int_bits(ref))
        ref = np.add.accumulate(terms, axis=-1)[..., -1]
        got = sequential_sums(a, magnitude=magnitude)
        np.testing.assert_array_equal(_int_bits(got), _int_bits(ref))

    @settings(max_examples=80, deadline=None)
    @given(
        blocked_sum_inputs(), st.sampled_from([None, 0.3, 1.0]), st.booleans(), st.integers(0, 99)
    )
    @example((np.full((3, 5), -0.0), 1), 1.0, False, 0)  # one element per block, runs of -0.0
    @example((np.full((4, 7), -0.0), 3), None, False, 0)  # single-run rows summed in chunks
    @example((np.full((5, 3, 4), -0.0), 5), 0.3, True, 1)  # one index of the first axis per block
    def test_every_block_size_gives_the_same_bits(self, case, density, magnitude, seed):
        # an export shard's buffers hold from one element up to _SUM_BLOCK;
        # masked, magnitude and plain sums keep the bits of the default block
        a, block = case
        mask = None if density is None else np.random.default_rng(seed).random(a.shape) < density
        terms = np.abs(a) if magnitude else a
        if mask is not None:
            terms = np.where(mask, terms, 0.0)
        ref = np.add.accumulate(terms, axis=-1)[..., -1]
        got = sequential_sums(a, mask, magnitude=magnitude, block=block)
        np.testing.assert_array_equal(_int_bits(got), _int_bits(ref))
        default = sequential_sums(a, mask, magnitude=magnitude)
        np.testing.assert_array_equal(_int_bits(got), _int_bits(default))

    @pytest.mark.parametrize("shape", SUM_BRANCH_SHAPES, ids=str)
    def test_branch_shapes_with_signed_zero_runs(self, shape):
        rng = np.random.default_rng(sum(shape))
        a = rng.standard_normal(shape)
        a[::2] = -0.0
        a[1::4] = np.where(rng.random(a[1::4].shape) < 0.5, -0.0, 0.0)
        ref = np.add.accumulate(a, axis=-1)[..., -1]
        np.testing.assert_array_equal(_int_bits(sequential_sums(a)), _int_bits(ref))


BROADCAST_OPS = [np.multiply, np.divide, np.greater_equal, np.less_equal, np.less]


def _layouts():
    """Every layout of up to 4 rows and 8 columns: all kinds, tails and cols % 3."""
    for rows in range(1, 5):
        for cols in range(1, 9):
            yield GroupLayout(PT, rows, cols)
            yield GroupLayout(PC, rows, cols)
            for size in range(1, cols + 2):
                yield GroupLayout(Granularity("per-group", size), rows, cols)


class TestGroupLayoutApply:
    def test_matches_op_of_the_expansion_exhaustively(self):
        rng = np.random.default_rng(11)
        for layout in _layouts():
            shape = (layout.rows, layout.cols)
            elem = rng.standard_normal(shape)
            elem[rng.random(shape) < 0.2] = -0.0
            values = rng.uniform(0.1, 2.0, layout.n_groups)
            values[rng.random(layout.n_groups) < 0.3] *= -1
            for op in BROADCAST_OPS:
                ref = op(elem, layout.expand(values))
                got = layout.apply(op, elem, values, out=np.empty_like(ref))
                assert got.tobytes() == ref.tobytes(), (layout.view, layout.size, op)
            codes = rng.integers(-1, 2, size=shape).astype(np.int8)
            got = layout.apply(np.multiply, codes, values, out=np.empty(shape))
            assert got.tobytes() == (codes * layout.expand(values)).tobytes()
            # into the elements themselves, as the dequantization writes
            ref = elem * layout.expand(values)
            assert layout.apply(np.multiply, elem, values, out=elem) is elem
            assert elem.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("shape", [(13, 510), (130, 510)], ids=["cached", "broadcast"])
    def test_sides_match_the_expanded_compares(self, shape):
        # both sides of the _SUM_BLOCK switch, with weights exactly at +-delta,
        # signed zeros, and groups whose threshold is zero or +inf
        assert 13 * 510 <= _SUM_BLOCK < 130 * 510
        layout = GroupLayout(Granularity("per-group", 128), *shape)
        rng = np.random.default_rng(5)
        deltas = rng.uniform(0.1, 1.0, layout.n_groups)
        deltas[::7] = 0.0
        deltas[3::11] = np.inf
        thr = layout.expand(deltas)
        w = rng.standard_normal(shape)
        at = rng.random(shape)
        w = np.where(at < 0.1, thr, np.where(at < 0.2, -thr, w))
        w[~np.isfinite(w)] = 0.5
        w[rng.random(shape) < 0.05] = -0.0
        w[rng.random(shape) < 0.05] = 0.0
        pos, live = _sides(w, layout, deltas)
        assert pos.tolist() == (w >= thr).tolist()
        assert live.tolist() == (np.abs(w) >= thr).tolist()

    def test_shape_checks(self):
        layout = GroupLayout(Granularity("per-group", 3), 2, 7)
        with pytest.raises(InvalidShape):
            layout.apply(np.multiply, np.ones((2, 7)), np.ones(5), out=np.empty((2, 7)))
        with pytest.raises(InvalidShape):
            layout.apply(np.multiply, np.ones((7, 2)), np.ones(6), out=np.empty((2, 7)))


class TestInvariants:
    def test_degenerate_group_contributes_nothing(self):
        w = np.array([[0.0, 0.0, 0.0, 0.5, -0.5, 0.25]])
        q = quantize(w, "absmean", Granularity("per-group", 3))
        assert q.scales[0] == 0.0
        assert not q.codes[0, :3].any()
        assert dequantize(q)[0, :3].tolist() == [0.0, 0.0, 0.0]

    def test_non_finite_weights_rejected(self):
        with pytest.raises(InvalidParam):
            quantize(np.array([[1.0, np.nan]]), "absmean", PT)


# Byte pins for the group reductions, recorded before the grouping in
# ``GroupLayout`` was rewritten. ``reduce_sum`` uses numpy's pairwise sum, so
# its last bits depend on how each group's run is handed to numpy; the scalar
# oracles above only check the sequential sums.
PINNED_LAYOUTS = {
    "per-tensor-64x8193": ((64, 8193), PT),
    "per-group-128-67x1000": ((67, 1000), Granularity("per-group", 128)),
    "per-group-5-13x16": ((13, 16), Granularity("per-group", 5)),
    "per-group-4096-9x1000": ((9, 1000), Granularity("per-group", 4096)),
    "per-channel-31x257": ((31, 257), PC),
}

#: SHA-256 over every output of ``pinned_outputs`` per case.
PINNED_DIGESTS = {
    "per-tensor-64x8193": "1bf2a6b45750757dfe3f0376ecad8a3ff19f48e1c1b699221dfcc7c04ca748e9",
    "per-group-128-67x1000": "92e1c2eef32722cffb755d49c4daba8e3019a9609c983dbeb94fb310cdb4b8e5",
    "per-group-5-13x16": "e1844678654c55e76440de1c1c9ddf79bed4e3daa83aa6b3e0bbcef312d45e1e",
    "per-group-4096-9x1000": "bb52346edd57c14faf58e3cb0c8c67456f4dd60a1c359163a77158c21de16d94",
    "per-channel-31x257": "acbf22a465a50cbd8f520d3ca44699014f499b7b6d1641004ebbbb40bf1d2196",
    "vector-10000": "cb075a50192e0ae45c30fea34e08db2483cc7f35919f81fb13bd098245dd2726",
}


def _digest(arrays):
    h = hashlib.sha256()
    for a in arrays:
        a = np.asarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def pinned_outputs(name):
    shape, granularity = PINNED_LAYOUTS[name]
    rng = np.random.default_rng(sum(shape))
    w = rng.standard_normal(shape) * 0.02
    w[::4, : shape[1] // 2] = 0.0  # all-zero half rows: degenerate groups
    layout = GroupLayout(granularity, *shape)
    a = np.abs(w)
    out = [
        layout.reduce_sum(w),
        layout.reduce_sum(a),
        layout._reduce(_sequential_sums, a),
        layout.expand(rng.standard_normal(layout.n_groups)),
    ]
    for scheme in ("absmean", "twn"):
        q = quantize(w, scheme, granularity)
        out += [q.codes, q.scales, q.thresholds]
        mask = deadzone_mask(w, q)
        out += [mask, tequila_bias(w, mask, 1e-3)]
    return out


def vector_estimates():
    v = np.random.default_rng(10_000).standard_normal(10_000)
    v[:2500] = 0.0
    return [np.array(per_tensor(v, scheme)) for scheme in ("absmean", "twn")]


def test_every_pinned_case_has_a_digest():
    assert set(PINNED_DIGESTS) == set(PINNED_LAYOUTS) | {"vector-10000"}


@pytest.mark.parametrize("name", list(PINNED_LAYOUTS))
def test_group_outputs_pinned(name):
    assert _digest(pinned_outputs(name)) == PINNED_DIGESTS[name]


def test_vector_estimates_pinned():
    assert _digest(vector_estimates()) == PINNED_DIGESTS["vector-10000"]


#: (name the error must give, call) for each public parameter that takes a real number
REAL_PARAMETERS = {
    "create-lambda": (
        "lambda",
        lambda w, q, m, v: QuantLinearLayer(w, "tequila", PC, lam=v),
    ),
    "create-epsilon": (
        "epsilon",
        lambda w, q, m, v: QuantLinearLayer(w, "minima", PC, epsilon=v),
    ),
    "tequila_bias": ("lambda", lambda w, q, m, v: tequila_bias(w, m, v)),
    "pack_model": ("lambda", lambda w, q, m, v: pack_model([(q, w, m)], v)),
    "band": ("band", lambda w, q, m, v: take_snapshot(0, 1.0, [(w, q)], band=v)),
}


@pytest.mark.parametrize("value", ["0.001", True, np.bool_(False), None], ids=repr)
@pytest.mark.parametrize("call", list(REAL_PARAMETERS))
def test_real_parameters_reject_strings_and_bools(call, value):
    name, run = REAL_PARAMETERS[call]
    w = np.random.default_rng(16).standard_normal((3, 7))
    q = quantize(w, "absmean", PC)
    with pytest.raises(InvalidParam, match=name):
        run(w, q, deadzone_mask(w, q), value)


@pytest.mark.parametrize("value", [np.float32(0.125), np.float64(0.25)], ids=repr)
@pytest.mark.parametrize("call", list(REAL_PARAMETERS))
def test_real_parameters_accept_numpy_reals(call, value):
    w = np.random.default_rng(16).standard_normal((3, 7))
    q = quantize(w, "absmean", PC)
    REAL_PARAMETERS[call][1](w, q, deadzone_mask(w, q), value)
