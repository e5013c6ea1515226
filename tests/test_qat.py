import hashlib
import itertools

import numpy as np
import pytest

import oracles
from tqla import Granularity, dequantize, tequila_bias
from tqla.errors import CacheError, GradientError, InvalidParam, InvalidShape, UnsupportedScheme
from tqla.qat import SCHEMES, OptimizerState, QuantLinearLayer, optimizer_step

PT = Granularity("per-tensor")


def make_layer(rng, scheme, rows=4, cols=8, granularity=None, **kw):
    g = granularity or Granularity("per-group", int(rng.integers(1, cols + 3)))
    w = rng.standard_normal((rows, cols)) * float(rng.uniform(0.2, 2.0))
    return QuantLinearLayer.create(w, scheme, g, **kw)


def random_instance(rng, layer, batch=None):
    batch = batch or int(rng.integers(1, 5))
    x = rng.standard_normal((batch, layer.cols))
    g = rng.standard_normal((batch, layer.rows))
    return x, g


class TestForwardTernary:
    def test_unit_input_selects_column(self):
        rng = np.random.default_rng(0)
        layer = make_layer(rng, "absmean")
        j = 3
        x = np.zeros((1, layer.cols))
        x[0, j] = 1.0
        y = layer.forward(x)
        q = layer.cache.quantized
        expected = dequantize(q)[:, j]
        np.testing.assert_array_equal(y[0], expected)

    def test_zero_weights(self):
        layer = QuantLinearLayer.create(np.zeros((3, 4)), "absmean", PT)
        y = layer.forward(np.ones((2, 4)))
        assert not y.any()

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            layer = make_layer(rng, "absmean")
            x, _ = random_instance(rng, layer)
            y = layer.forward(x)
            q = layer.cache.quantized
            ref = oracles.forward_ternary_scalar(
                x.tolist(),
                q.codes.tolist(),
                q.scales.tolist(),
                layer.granularity.kind,
                layer.granularity.group_size,
            )
            assert oracles.rel_err(y, ref) < 1e-6

    def test_shape_mismatch(self):
        rng = np.random.default_rng(2)
        layer = make_layer(rng, "absmean")
        with pytest.raises(InvalidShape):
            layer.forward(np.ones((2, layer.cols + 1)))


class TestBackwardSte:
    def test_zero_upstream(self):
        rng = np.random.default_rng(3)
        layer = make_layer(rng, "absmean")
        x, g = random_instance(rng, layer)
        layer.forward(x)
        grad = layer.backward(np.zeros_like(g))[1]["w"]
        assert not grad.any()

    def test_single_element_outside_deadzone(self):
        # one live weight, x = 2, g = 0.5, alpha = 0.4 -> 0.4
        layer = QuantLinearLayer.create(np.array([[0.4]]), "absmean", PT)
        layer.forward(np.array([[2.0]]))
        # alpha = 0.4, delta = 0.2, |w| >= delta: outside deadzone
        grad = layer.backward(np.array([[0.5]]))[1]["w"]
        assert grad[0, 0] == pytest.approx(0.5 * 2.0 * 0.4, rel=1e-12)

    def test_single_element_inside_deadzone(self):
        # same upstream but the weight sits inside the deadzone: no alpha factor
        layer = QuantLinearLayer.create(np.array([[0.1, 0.9]]), "absmean", PT)
        layer.forward(np.array([[2.0, 0.0]]))
        assert layer.cache.mask[0, 0]
        grad = layer.backward(np.array([[0.5]]))[1]["w"]
        assert grad[0, 0] == pytest.approx(1.0, rel=1e-12)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            layer = make_layer(rng, "absmean")
            x, g = random_instance(rng, layer)
            layer.forward(x)
            cache = layer.cache
            grad = layer.backward(g)[1]["w"]
            live = (~cache.mask).tolist()
            ref = oracles.backward_ste_scalar(
                g.tolist(),
                x.tolist(),
                live,
                cache.quantized.scales.tolist(),
                layer.granularity.kind,
                layer.granularity.group_size,
            )
            assert oracles.rel_err(grad, ref) < 1e-6

    def test_stale_cache_rejected(self):
        rng = np.random.default_rng(5)
        layer = make_layer(rng, "absmean")
        x, g = random_instance(rng, layer)
        layer.forward(x)
        layer.backward(g)
        with pytest.raises(CacheError):
            layer.backward(g)
        with pytest.raises(CacheError):
            make_layer(rng, "absmean").backward(g)


class TestMinima:
    def test_eps_zero_is_plain_ternary(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            w = rng.standard_normal((4, 8))
            g = Granularity("per-group", int(rng.integers(1, 10)))
            a = QuantLinearLayer.create(w, "absmean", g)
            b = QuantLinearLayer.create(w, "minima", g, epsilon=0.0)
            x, up = random_instance(rng, a)
            ya = a.forward(x)
            yb = b.forward(x)
            assert np.array_equal(ya, yb)
            ga = a.backward(up)[1]["w"]
            gb = b.backward(up)[1]["w"]
            assert np.array_equal(ga, gb)

    def test_dead_weights_with_matching_input_signs(self):
        # dead weights whose inputs share their sign each contribute +eps
        w = np.array([[0.01, 0.01, 0.01, 0.01, 10.0, -10.0]])
        layer = QuantLinearLayer.create(w, "minima", PT, epsilon=1e-3)
        x = np.array([[1.0, 2.0, 3.0, 4.0, 0.0, 0.0]])
        y = layer.forward(x)
        mask = layer.cache.mask
        assert mask[0, :4].all() and not mask[0, 4:].any()
        assert y[0, 0] == pytest.approx(1e-3 * 4, rel=1e-12)

    def test_forward_matches_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            layer = make_layer(rng, "minima", epsilon=float(rng.uniform(1e-4, 1e-2)))
            x, _ = random_instance(rng, layer)
            y = layer.forward(x)
            c = layer.cache
            ref = oracles.forward_minima_scalar(
                x.tolist(),
                layer.shadow_weights.tolist(),
                c.quantized.codes.tolist(),
                c.quantized.scales.tolist(),
                c.mask.tolist(),
                layer.epsilon,
                layer.granularity.kind,
                layer.granularity.group_size,
            )
            assert oracles.rel_err(y, ref) < 1e-6

    def test_backward_dead_element_hand_value(self):
        # dead element, x = -3.0, g = 0.5, eps = 1e-3 -> -5e-4
        w = np.array([[0.01, 1.0]])
        layer = QuantLinearLayer.create(w, "minima", PT, epsilon=1e-3)
        x = np.array([[-3.0, 0.0]])
        layer.forward(x)
        assert layer.cache.mask[0, 0]
        grad = layer.backward(np.array([[0.5]]))[1]["w"]
        assert grad[0, 0] == pytest.approx(-5e-4, rel=1e-12)

    def test_backward_matches_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            layer = make_layer(rng, "minima", epsilon=float(rng.uniform(1e-4, 1e-2)))
            x, g = random_instance(rng, layer)
            layer.forward(x)
            c = layer.cache
            grad = layer.backward(g)[1]["w"]
            ref = oracles.backward_minima_scalar(
                g.tolist(),
                x.tolist(),
                c.mask.tolist(),
                c.quantized.scales.tolist(),
                layer.epsilon,
                layer.granularity.kind,
                layer.granularity.group_size,
            )
            assert oracles.rel_err(grad, ref) < 1e-6

    def test_dead_gradients_invariant_to_positive_input_scaling(self):
        rng = np.random.default_rng(9)
        layer = make_layer(rng, "minima")
        x, g = random_instance(rng, layer)
        layer.forward(x)
        cache = layer.cache
        grad1 = layer.backward(g)[1]["w"]
        layer.forward(x * 7.5)
        grad2 = layer.backward(g)[1]["w"]
        dead = cache.mask
        np.testing.assert_array_equal(grad1[dead], grad2[dead])


class TestTequila:
    def test_lambda_zero_matches_ternary(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            w = rng.standard_normal((4, 8))
            g = Granularity("per-group", int(rng.integers(1, 10)))
            a = QuantLinearLayer.create(w, "absmean", g)
            b = QuantLinearLayer.create(w, "tequila", g, lam=0.0)
            x, up = random_instance(rng, a)
            assert np.array_equal(a.forward(x), b.forward(x))
            assert np.array_equal(a.backward(up)[1]["w"], b.backward(up)[1]["w"])

    def test_zero_input_yields_bias(self):
        rng = np.random.default_rng(11)
        layer = make_layer(rng, "tequila")
        y = layer.forward(np.zeros((3, layer.cols)))
        c = layer.cache
        expected = tequila_bias(layer.shadow_weights, c.mask, layer.lam)
        for b in range(3):
            np.testing.assert_array_equal(y[b], expected)

    def test_forward_matches_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            layer = make_layer(rng, "tequila")
            x, _ = random_instance(rng, layer)
            y = layer.forward(x)
            c = layer.cache
            ref = oracles.forward_tequila_scalar(
                x.tolist(),
                layer.shadow_weights.tolist(),
                c.quantized.codes.tolist(),
                c.quantized.scales.tolist(),
                c.mask.tolist(),
                layer.lam,
                layer.granularity.kind,
                layer.granularity.group_size,
            )
            assert oracles.rel_err(y, ref) < 1e-6

    def test_backward_dead_element_hand_value(self):
        # dead element, x = 2.0, lam = 1e-3, g = 0.5 -> 0.5 * (2.0 + 0.001)
        w = np.array([[0.01, 1.0]])
        layer = QuantLinearLayer.create(w, "tequila", PT, lam=1e-3)
        layer.forward(np.array([[2.0, 0.0]]))
        assert layer.cache.mask[0, 0]
        grad = layer.backward(np.array([[0.5]]))[1]["w"]
        assert grad[0, 0] == pytest.approx(1.0005, rel=1e-12)

    @pytest.mark.parametrize("variant", ["tequila", "tequila-nomix"])
    def test_backward_matches_oracle(self, variant):
        rng = np.random.default_rng(13)
        for _ in range(30):
            layer = make_layer(rng, variant)
            x, g = random_instance(rng, layer)
            layer.forward(x)
            c = layer.cache
            grad = layer.backward(g)[1]["w"]
            ref = oracles.backward_tequila_scalar(
                g.tolist(),
                x.tolist(),
                c.mask.tolist(),
                c.quantized.scales.tolist(),
                layer.lam,
                layer.granularity.kind,
                layer.granularity.group_size,
                mixed=(variant == "tequila"),
            )
            assert oracles.rel_err(grad, ref) < 1e-6

    def test_bias_path_matches_finite_differences(self):
        # central differences of sum(g_row * bias) wrt a dead weight
        rng = np.random.default_rng(14)
        checked = 0
        for _ in range(40):
            layer = make_layer(rng, "tequila")
            x, g = random_instance(rng, layer)
            layer.forward(x)
            cache = layer.cache
            thr = cache.quantized.element_thresholds()
            safe = cache.mask & (np.abs(layer.shadow_weights) < 0.9 * thr)
            if not safe.any():
                continue
            r, j = np.argwhere(safe)[0]
            g_row = g.sum(axis=0)
            h = 1e-7

            def bias_functional(w):
                bias = tequila_bias(w, cache.mask, layer.lam)
                return float(g_row @ bias)

            wp = layer.shadow_weights.copy()
            wp[r, j] += h
            wm = layer.shadow_weights.copy()
            wm[r, j] -= h
            fd = (bias_functional(wp) - bias_functional(wm)) / (2 * h)
            analytic = layer.lam * g_row[r]
            if abs(analytic) < 1e-12:
                continue
            checked += 1
            assert fd == pytest.approx(analytic, rel=1e-6)
        assert checked >= 10


class TestLearnableSchemes:
    def test_dlt_b_zero_matches_ternary(self):
        rng = np.random.default_rng(15)
        for scheme in ("dlt", "seq", "lsq"):
            for _ in range(15):
                w = rng.standard_normal((4, 8))
                g = Granularity("per-group", int(rng.integers(1, 10)))
                plain = QuantLinearLayer.create(w, "absmean", g)
                learn = QuantLinearLayer.create(w, scheme, g)
                x, up = random_instance(rng, plain)
                assert np.array_equal(plain.forward(x), learn.forward(x))
                grad_plain = plain.backward(up)[1]["w"]
                grad_w = learn.backward(up)[1]["w"]
                assert np.array_equal(grad_plain, grad_w)

    def test_dlt_forward_matches_oracle(self):
        rng = np.random.default_rng(16)
        for _ in range(30):
            layer = make_layer(rng, "dlt")
            layer.learnable_b[:] = rng.standard_normal(layer.learnable_b.shape) * 0.1
            layer.learnable_alpha[:] = rng.uniform(0.1, 2.0, layer.learnable_alpha.shape)
            x, _ = random_instance(rng, layer)
            y = layer.forward(x)
            c = layer.cache
            ref = oracles.forward_dlt_scalar(
                x.tolist(),
                c.quantized.codes.tolist(),
                c.quantized.scales.tolist(),
                c.learnable_b.tolist(),
                layer.granularity.kind,
                layer.granularity.group_size,
            )
            assert oracles.rel_err(y, ref) < 1e-6

    def test_seq_forward_matches_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            layer = make_layer(rng, "seq")
            layer.learnable_b[:] = rng.standard_normal(layer.learnable_b.shape) * 0.1
            x, _ = random_instance(rng, layer)
            y = layer.forward(x)
            c = layer.cache
            ref = oracles.forward_seq_scalar(
                x.tolist(),
                c.quantized.codes.tolist(),
                c.quantized.scales.tolist(),
                c.learnable_b.tolist(),
                c.mask.tolist(),
                layer.granularity.kind,
                layer.granularity.group_size,
            )
            assert oracles.rel_err(y, ref) < 1e-6

    def test_dlt_grad_b_hand_value(self):
        # x = ones, batch 1, g = 0.5, group width 4 -> grad_b = 2.0
        w = np.array([[0.5, -0.5, 0.5, -0.5]])
        layer = QuantLinearLayer.create(w, "dlt", Granularity("per-group", 4))
        layer.forward(np.ones((1, 4)))
        grad_b = layer.backward(np.array([[0.5]]))[1]["b"]
        assert grad_b.tolist() == [2.0]

    def test_lsq_zero_codes_zero_grad_alpha(self):
        w = np.zeros((2, 4))
        layer = QuantLinearLayer.create(w, "lsq", PT)
        layer.forward(np.ones((1, 4)))
        assert not layer.cache.quantized.codes.any()
        grad_alpha = layer.backward(np.ones((1, 2)))[1]["alpha"]
        assert not grad_alpha.any()

    def test_grads_match_scalar_oracles(self):
        rng = np.random.default_rng(18)
        for scheme in ("lsq", "dlt", "seq"):
            for _ in range(20):
                layer = make_layer(rng, scheme)
                if layer.learnable_b is not None:
                    layer.learnable_b[:] = rng.standard_normal(layer.learnable_b.shape) * 0.1
                x, g = random_instance(rng, layer)
                layer.forward(x)
                cache = layer.cache
                _, grads = layer.backward(g)
                grad_alpha, grad_b = grads.get("alpha"), grads.get("b")
                kind, gs = layer.granularity.kind, layer.granularity.group_size
                if grad_alpha is not None:
                    ref_a = oracles.grad_alpha_scalar(
                        g.tolist(), x.tolist(), cache.quantized.codes.tolist(), kind, gs
                    )
                    assert oracles.rel_err(grad_alpha, ref_a) < 1e-6
                if scheme == "dlt":
                    ref_b = oracles.grad_b_dlt_scalar(g.tolist(), x.tolist(), layer.rows, kind, gs)
                    assert oracles.rel_err(grad_b, ref_b) < 1e-6
                if scheme == "seq":
                    ref_b = oracles.grad_b_seq_scalar(
                        g.tolist(),
                        x.tolist(),
                        cache.mask.tolist(),
                        cache.quantized.scales.tolist(),
                        kind,
                        gs,
                    )
                    assert oracles.rel_err(grad_b, ref_b) < 1e-6

    @pytest.mark.parametrize("scheme", ["lsq", "dlt", "seq"])
    def test_grads_match_finite_differences(self, scheme):
        rng = np.random.default_rng(19)
        for _ in range(10):
            layer = make_layer(rng, scheme)
            if layer.learnable_b is not None:
                layer.learnable_b[:] = rng.standard_normal(layer.learnable_b.shape) * 0.1
            x, g = random_instance(rng, layer)
            layer.forward(x)
            _, grads = layer.backward(g)
            grad_alpha, grad_b = grads.get("alpha"), grads.get("b")

            def functional():
                return float(np.sum(g * layer.forward(x)))

            h = 1e-6
            for name, grad, param in (
                ("alpha", grad_alpha, layer.learnable_alpha),
                ("b", grad_b, layer.learnable_b),
            ):
                if grad is None:
                    continue
                for idx in range(param.size):
                    orig = param[idx]
                    param[idx] = orig + h
                    fp = functional()
                    param[idx] = orig - h
                    fm = functional()
                    param[idx] = orig
                    fd = (fp - fm) / (2 * h)
                    if abs(grad[idx]) < 1e-9:
                        assert abs(fd) < 1e-6
                    else:
                        assert fd == pytest.approx(grad[idx], rel=1e-6), (scheme, name)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(UnsupportedScheme):
            QuantLinearLayer.create(np.ones((2, 2)), "binary", PT)


class TestLayerApi:
    def test_backward_without_forward(self):
        rng = np.random.default_rng(21)
        layer = make_layer(rng, "tequila")
        with pytest.raises(CacheError):
            layer.backward(np.ones((1, layer.rows)))

    def test_backward_clears_cache(self):
        rng = np.random.default_rng(22)
        layer = make_layer(rng, "tequila")
        x, g = random_instance(rng, layer)
        layer.forward(x)
        layer.backward(g)
        assert layer.cache is None
        with pytest.raises(CacheError):
            layer.backward(g)

    def test_mis_shaped_upstream_rejected(self):
        rng = np.random.default_rng(26)
        layer = make_layer(rng, "tequila")
        x, g = random_instance(rng, layer, batch=3)
        layer.forward(x)
        for bad in (g[:, :-1], g[:2], g.T, g[None], g.reshape(-1)):
            with pytest.raises(InvalidShape):
                layer.backward(bad)
        # a rejected g leaves the recorded forward for a well-shaped one
        grad_x, grads = layer.backward(g)
        assert grad_x.shape == x.shape and grads["w"].shape == layer.shadow_weights.shape

    def test_one_row_upstream_after_one_row_input(self):
        rng = np.random.default_rng(27)
        for scheme in SCHEMES:
            layer = make_layer(rng, scheme)
            x, g = random_instance(rng, layer, batch=1)
            layer.forward(x)
            grad_x, grads = layer.backward(g)
            layer.forward(x[0])
            grad_x_1d, grads_1d = layer.backward(g[0])
            np.testing.assert_array_equal(grad_x_1d, grad_x)
            for key in grads:
                np.testing.assert_array_equal(grads_1d[key], grads[key])

    def test_grad_x_matches_finite_differences(self):
        rng = np.random.default_rng(24)
        for scheme in ("absmean", "tequila", "dlt", "seq", "lsq"):
            layer = make_layer(rng, scheme)
            if layer.learnable_b is not None:
                layer.learnable_b[:] = rng.standard_normal(layer.learnable_b.shape) * 0.1
            x, g = random_instance(rng, layer, batch=2)
            layer.forward(x)
            grad_x, _ = layer.backward(g)
            h = 1e-6
            for _ in range(5):
                b = int(rng.integers(0, x.shape[0]))
                j = int(rng.integers(0, x.shape[1]))
                xp = x.copy()
                xp[b, j] += h
                xm = x.copy()
                xm[b, j] -= h
                fd = (
                    float(np.sum(g * layer.forward(xp)))
                    - float(np.sum(g * layer.forward(xm)))
                ) / (2 * h)
                assert fd == pytest.approx(grad_x[b, j], rel=1e-5, abs=1e-8), scheme


class TestOptimizer:
    def test_zero_gradient_leaves_params(self):
        p = {"w": np.array([1.0, -2.0])}
        state = OptimizerState()
        optimizer_step(p, {"w": np.zeros(2)}, state)
        assert p["w"].tolist() == [1.0, -2.0]
        assert state.step_count == 1

    def test_hand_checked_scalar_update(self):
        lr, b1, b2, eps = 1e-4, 0.9, 0.999, 1e-8
        g = 0.5
        m = (1 - b1) * g
        v = (1 - b2) * g * g
        mhat = m / (1 - b1)
        vhat = v / (1 - b2)
        expected = 1.0 - lr * mhat / (np.sqrt(vhat) + eps)
        p = {"w": np.array([1.0])}
        optimizer_step(p, {"w": np.array([g])}, OptimizerState())
        assert p["w"][0] == pytest.approx(expected, rel=1e-15)

    def test_deterministic(self):
        rng = np.random.default_rng(25)
        grads = [rng.standard_normal(5) for _ in range(10)]

        def run():
            p = {"w": np.linspace(-1, 1, 5)}
            state = OptimizerState()
            for g in grads:
                optimizer_step(p, {"w": g}, state)
            return p["w"]

        np.testing.assert_array_equal(run(), run())

    def test_non_finite_gradient_aborts_without_mutation(self):
        p = {"w": np.array([1.0]), "b": np.array([2.0])}
        state = OptimizerState()
        optimizer_step(p, {"w": np.array([0.1]), "b": np.array([0.1])}, state)
        snap_w = p["w"].copy()
        snap_m = {k: v.copy() for k, v in state.m.items()}
        with pytest.raises(GradientError):
            optimizer_step(p, {"w": np.array([np.nan]), "b": np.array([0.1])}, state)
        assert p["w"].tolist() == snap_w.tolist()
        assert state.step_count == 1
        for k in snap_m:
            np.testing.assert_array_equal(state.m[k], snap_m[k])

    def test_overflowing_update_aborts_without_mutation(self):
        # finite gradients whose step (-1) or second moment (1e200) overflows;
        # "b" comes first and must not be updated either
        for g_w in (-1.0, 1e200):
            p = {"b": np.array([2.0]), "w": np.array([1e308])}
            state = OptimizerState(learning_rate=1e308)
            with np.errstate(all="ignore"), pytest.raises(GradientError, match="'w'"):
                optimizer_step(p, {"b": np.array([0.1]), "w": np.array([g_w])}, state)
            assert p["b"].tolist() == [2.0] and p["w"].tolist() == [1e308]
            assert state.step_count == 0 and state.m == {} and state.v == {}

    def test_shape_mismatch(self):
        with pytest.raises(InvalidShape):
            optimizer_step({"w": np.ones(3)}, {"w": np.ones(4)}, OptimizerState())

    @pytest.mark.parametrize(
        "learning_rate", [True, np.bool_(True), "x", "0.1", None, np.nan, np.inf, -np.inf, 0.0, -1.0]
    )
    def test_bad_learning_rate_rejected(self, learning_rate):
        with pytest.raises(InvalidParam, match="learning_rate"):
            OptimizerState(learning_rate=learning_rate)

    @pytest.mark.parametrize("learning_rate", [np.float32(0.5), np.float64(0.5), 1])
    def test_learning_rate_stored_as_float(self, learning_rate):
        state = OptimizerState(learning_rate)
        assert type(state.learning_rate) is float and state.learning_rate == learning_rate

    def test_missing_gradient_rejected_without_mutation(self):
        p = {"w": np.array([1.0]), "b": np.array([2.0])}
        state = OptimizerState()
        optimizer_step(p, {"w": np.array([0.1]), "b": np.array([0.1])}, state)
        before = (p["w"].copy(), p["b"].copy(), state.m["w"].copy(), state.v["b"].copy())
        with pytest.raises(InvalidShape, match="'b'"):
            optimizer_step(p, {"w": np.array([0.1])}, state)
        after = (p["w"], p["b"], state.m["w"], state.v["b"])
        assert all(np.array_equal(a, b) for a, b in zip(before, after))
        assert state.step_count == 1


# Byte pins for the layer step and the optimizer, recorded before the forward,
# backward and optimizer were rewritten to share one quantized view and to
# advance the moments once. Each layer case has all-zero half rows (so some
# groups are degenerate), a column count that is not a multiple of 3 and, for
# the learnable slots, nonzero b and some zero alphas.
PIN_GRANULARITIES = {
    "per-group-5": Granularity("per-group", 5),
    "per-channel": Granularity("per-channel"),
    "per-tensor": PT,
}

#: SHA-256 over ``y``, ``grad_x`` and every gradient per (scheme, granularity).
LAYER_DIGESTS = {
    ('absmean', 'per-group-5'): "32b884f0996a75ecff39d78e8a9886c912c6949dbe7b7eca0457297bd5012bed",
    ('absmean', 'per-channel'): "d8f9242345fdb1099c23c23629e55efd186f36d6c266f6c462b1954a6f9a2cd0",
    ('absmean', 'per-tensor'): "c1a78a8d990c24818470ff498f141d2e23096f36d3c1bba3f22568f411533bc3",
    ('twn', 'per-group-5'): "b9ad3f5119a4a063e8e1634f96889fdcb45db3b6ca1ebeed686f6ea1abb7f779",
    ('twn', 'per-channel'): "44c45c8465768fb199f04decab19e9d745191901edc11ae5f677604f7ce73a70",
    ('twn', 'per-tensor'): "e88561e45de7b3adf736e42f4ee1a9391e5d0c9afec6af06e024c984c72a7651",
    ('lsq', 'per-group-5'): "29613d2f4fa0aa824e60b213c2e699fda5b2b9d4454fb9ef9ba2d13fc667ecc9",
    ('lsq', 'per-channel'): "6262c19dc8e4c4b1cda4ef6e46b348313d2bf4297f3cc96b8a6fe095e3198023",
    ('lsq', 'per-tensor'): "cf9f8f37eac0e6c7b55c90f0e2e0ee9713f1c7f3bfeb1a250dcaa3dd7d91e841",
    ('seq', 'per-group-5'): "538df55232dbf92517b49ce4ad01b622093f348bf608a032e1a96c1b40f2b3ff",
    ('seq', 'per-channel'): "30cec7d3796160579b7d404f3a3fbdfb33bb00dc10882b2f6eeddad9241d2636",
    ('seq', 'per-tensor'): "305372a5d990952127528dac11539e94d0dde3e009e795055befdb441af23048",
    ('dlt', 'per-group-5'): "ec69818c61e33953fc97322c1db31bdc911b7a15e114b953a53864a75024ecfd",
    ('dlt', 'per-channel'): "bc2b7dd74d1a97c44eb2a575e3cd77bcdda8d3da1cc2c3ad24af9b16cb179745",
    ('dlt', 'per-tensor'): "f0b7fb2a75a3b9e405a2f38793686b713737e649e47bd24f42a168d6342ec14d",
    ('minima', 'per-group-5'): "b6b38065c8434f33192f2c3984fead1db645eb3cab2f0c1b913dd1e2a0f921f9",
    ('minima', 'per-channel'): "fae3e60c17f5a0d06c24636efac2ae98257af7c63906cdec16985f07151a2adc",
    ('minima', 'per-tensor'): "27bc27c74e388dc2e0967790d22f7ba7a6f0849b8f7349abf5e55968dcab500b",
    ('tequila', 'per-group-5'): "625e920986a1848310aef1cc0ca84c200293b3cf66619b867e33760486755564",
    ('tequila', 'per-channel'): "9dcda3ce1d46308f6d5f5ed466793d88eddd076769dd2f9fddc8a77a17cebb6e",
    ('tequila', 'per-tensor'): "defa9f258f702d305405ca2de74c31960e64fe8640566b85dd12d61ba63257d9",
    ('tequila-nomix', 'per-group-5'): "fe98df076c5c3227c2af9541b1c649cf68cdec892f4dadd227784b42355b1ad8",
    ('tequila-nomix', 'per-channel'): "15e20d52fb09d0439bbf1194fa2ec9e4dc94940ea52a446815dc9ba13a8d1604",
    ('tequila-nomix', 'per-tensor'): "91a2009da81e24fc0d1d65943b9c6f2ea448bc4ce956e43d9801975d332b507b",
}

#: SHA-256 over params, ``m`` and ``v`` after each of three optimizer steps.
OPTIMIZER_DIGEST = "53b89f220e2b5d40705ffb30a97b1ee9885e2902b3b73420a45726a248cf1711"


def _digest(arrays):
    h = hashlib.sha256()
    for a in arrays:
        a = np.asarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def layer_step_outputs(scheme, gran_name):
    rng = np.random.default_rng([SCHEMES.index(scheme), len(gran_name)])
    w = rng.standard_normal((11, 17)) * 0.3
    w[::4, :8] = 0.0
    w[5] = 0.0
    layer = QuantLinearLayer.create(w, scheme, PIN_GRANULARITIES[gran_name], lam=0.05)
    if layer.learnable_alpha is not None:
        layer.learnable_alpha[1::3] = 0.0
    if layer.learnable_b is not None:
        layer.learnable_b[:] = rng.standard_normal(layer.learnable_b.shape) * 0.1
    x = rng.standard_normal((6, 17))
    g = rng.standard_normal((6, 11))
    y = layer.forward(x)
    grad_x, grads = layer.backward(g)
    return [y, grad_x] + [grads[k] for k in sorted(grads)]


def optimizer_outputs():
    rng = np.random.default_rng(2024)
    params = {
        "w": rng.standard_normal((7, 13)),
        "alpha": rng.standard_normal(5),
        "b": np.zeros(5),
    }
    state = OptimizerState(learning_rate=1e-2)
    out = []
    for _ in range(3):
        grads = {k: rng.standard_normal(p.shape) for k, p in params.items()}
        grads["w"][0] = 0.0
        optimizer_step(params, grads, state)
        for k in sorted(params):
            out += [params[k].copy(), state.m[k].copy(), state.v[k].copy()]
    return out


def test_every_layer_case_has_a_digest():
    assert set(LAYER_DIGESTS) == set(itertools.product(SCHEMES, PIN_GRANULARITIES))


@pytest.mark.parametrize("gran_name", list(PIN_GRANULARITIES))
@pytest.mark.parametrize("scheme", SCHEMES)
def test_layer_step_pinned(scheme, gran_name):
    assert _digest(layer_step_outputs(scheme, gran_name)) == LAYER_DIGESTS[(scheme, gran_name)]


def test_optimizer_steps_pinned():
    assert _digest(optimizer_outputs()) == OPTIMIZER_DIGEST
