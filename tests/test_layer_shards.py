"""Row-sharded layer steps: the same forward and backward as inline, run off the calling thread.

A ``QuantLinearLayer`` of ``quantizer._SHARD_MIN`` elements or more runs the
element-wise passes of its forward and backward on row shards, one per
usable CPU, while every matrix product stays in the calling thread. These
tests lower the threshold and set the CPU count, so that small layers run on
1, 2 or 3 shards, and compare against layers built under the defaults, under
which every layer here runs inline. A layer takes its shards when it is
built, so each is built under the setting it is run with.
"""

import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shards import ThreadProbe, sharding
from test_qat import LAYER_DIGESTS, PIN_GRANULARITIES, _digest, layer_step_outputs
from tqla import Granularity, qat, quantizer
from tqla.errors import InvalidShape
from tqla.qat import SCHEMES, QuantLinearLayer
from tqla.training import QuantMlp

WORKERS = pytest.mark.parametrize("workers", [1, 2, 3])


def sharded(workers, fn, *args, block=None, **kw):
    with pytest.MonkeyPatch.context() as mp:
        sharding(mp, workers, block)
        return fn(*args, **kw)


def step_bytes(w, scheme, granularity, x, g, lam=0.05, epsilon=0.05, zero_alpha=None, b=None):
    """Bytes of one forward and backward: y, the recorded view, grad_x and every gradient."""
    layer = QuantLinearLayer(w, scheme, granularity, lam=lam, epsilon=epsilon)
    if layer.learnable_alpha is not None and zero_alpha is not None:
        layer.learnable_alpha[zero_alpha[: layer.layout.n_groups]] = 0.0
    if layer.learnable_b is not None and b is not None:
        layer.learnable_b[...] = b[: layer.layout.n_groups]
    y = layer.forward(x)
    cache = layer.cache
    q = cache.quantized
    view = [q.codes, q.scales, q.thresholds, cache.mask, cache.x]
    if cache.learnable_b is not None:
        view.append(cache.learnable_b)
    grad_x, grads = layer.backward(g)
    arrays = [y, *view, grad_x, *(grads[k] for k in grads)]
    return list(grads), [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]


@WORKERS
@pytest.mark.parametrize("gran_name", list(PIN_GRANULARITIES))
@pytest.mark.parametrize("scheme", SCHEMES)
def test_layer_digests_hold_when_sharded(scheme, gran_name, workers):
    outputs = sharded(workers, layer_step_outputs, scheme, gran_name)
    assert _digest(outputs) == LAYER_DIGESTS[(scheme, gran_name)]


@st.composite
def layer_case(draw):
    """A layer step of any scheme and granularity, with degenerate groups and odd shapes."""
    rows = draw(st.integers(1, 14))
    cols = draw(st.integers(1, 17))
    granularity = draw(
        st.one_of(
            st.just(Granularity("per-tensor")),
            st.just(Granularity("per-channel")),
            st.integers(1, cols + 3).map(lambda n: Granularity("per-group", n)),
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = rng.standard_normal((rows, cols)) * draw(st.sampled_from([1e-3, 1.0, 50.0]))
    w[rng.random(rows) < 0.3] = 0.0  # all-zero rows: degenerate groups
    w[rng.random(w.shape) < 0.1] = -0.0
    batch = draw(st.integers(1, 4))
    x = rng.standard_normal((batch, cols))
    g = rng.standard_normal((batch, rows))
    g[:, rng.random(rows) < 0.2] = 0.0
    slots = dict(
        lam=draw(st.sampled_from([0.0, 0.05, -0.3])),
        epsilon=draw(st.sampled_from([0.0, 0.05])),
        zero_alpha=rng.random(rows * cols) < 0.3,  # some zero learnable alphas
        b=rng.standard_normal(rows * cols) * 0.1,  # nonzero b
    )
    return w, granularity, x, g, slots


@settings(max_examples=150, deadline=None)
@given(
    layer_case(),
    st.sampled_from(SCHEMES),
    st.sampled_from([2, 3]),
    st.one_of(st.none(), st.integers(1, 40)),
)
def test_sharded_step_matches_inline_bytes(case, scheme, workers, block):
    w, granularity, x, g, slots = case
    expected = step_bytes(w, scheme, granularity, x, g, **slots)
    got = sharded(workers, step_bytes, w, scheme, granularity, x, g, block=block, **slots)
    assert got == expected


def test_shards_cover_the_rows_and_per_tensor_stays_whole():
    rng = np.random.default_rng(1)
    with pytest.MonkeyPatch.context() as mp:
        sharding(mp, 3)
        w = rng.standard_normal((10, 7))
        per_group = QuantLinearLayer(w, "absmean", Granularity("per-group", 3))
        per_tensor = QuantLinearLayer(w, "absmean", Granularity("per-tensor"))
    assert [(s[0], s[1]) for s in per_group._shards] == [
        (slice(0, 4), slice(0, 12)),
        (slice(4, 8), slice(12, 24)),
        (slice(8, 10), slice(24, 30)),
    ]
    assert [(p.rows, p.cols) for _, _, p in per_group._shards] == [(4, 7), (4, 7), (2, 7)]
    assert per_tensor._shards == [(slice(None), slice(None), per_tensor.layout)]


def overflowing_layer(workers):
    """A layer whose backward overflows in ``e * alpha`` only, with its forward run."""
    rng = np.random.default_rng(2)
    w = rng.standard_normal((6, 8)) * 1e300
    layer = sharded(workers, QuantLinearLayer, w, "absmean", Granularity("per-channel"))
    with np.errstate(all="ignore"):  # the forward's product overflows too, in the caller
        layer.forward(rng.standard_normal((1, 8)) * 1e10)
    return layer, np.ones((1, 6))


@WORKERS
def test_the_callers_error_state_reaches_every_shard(workers):
    layer, g = overflowing_layer(workers)
    with pytest.warns(RuntimeWarning, match="overflow"):
        layer.backward(g)
    layer, g = overflowing_layer(workers)
    with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
        layer.backward(g)
    layer, g = overflowing_layer(workers)
    inline, _ = overflowing_layer(1)
    with np.errstate(over="ignore"), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got, expected = layer.backward(g), inline.backward(g)
    assert [str(w.message) for w in caught] == []
    assert got[0].tobytes() == expected[0].tobytes()
    assert got[1]["w"].tobytes() == expected[1]["w"].tobytes()
    assert np.isinf(got[1]["w"]).any()


def test_kernels_run_on_the_pool_and_everything_else_in_the_caller(monkeypatch):
    # the tracer wraps public entry points and records spans from one thread:
    # none of them, and no pool submit, may run on a worker
    methods = [(QuantLinearLayer, "forward"), (QuantLinearLayer, "backward")]
    probe = ThreadProbe(monkeypatch, (quantizer, qat), methods + [(ThreadPoolExecutor, "submit")])
    for name in ("_forward_rows", "_backward_rows"):
        # the shard's row slice comes before its group slice and layout
        probe.kernel(qat, name, lambda *args: args[-3].start == 0)
    sharding(monkeypatch, 3)
    rng = np.random.default_rng(3)
    for scheme in SCHEMES:
        layer = QuantLinearLayer(rng.standard_normal((9, 10)), scheme, Granularity("per-group", 4))
        layer.forward(rng.standard_normal((2, 10)))
        layer.backward(rng.standard_normal((2, 9)))
    assert {"forward", "backward", "submit", "__init__"} <= probe.names()
    assert {name for name, _, _ in probe.kernels} == {"_forward_rows", "_backward_rows"}
    probe.check()


@WORKERS
def test_mis_shaped_gradient_leaves_the_cache(workers):
    rng = np.random.default_rng(4)
    w = rng.standard_normal((7, 5))
    x, g = rng.standard_normal((3, 5)), rng.standard_normal((3, 7))
    layer = sharded(workers, QuantLinearLayer, w, "dlt", Granularity("per-group", 2))
    layer.forward(x)
    cache = layer.cache
    for bad in (np.ones((3, 6)), np.ones((2, 7)), np.ones((3, 7, 1))):
        with pytest.raises(InvalidShape):
            layer.backward(bad)
        assert layer.cache is cache
    got = layer.backward(g)
    inline = QuantLinearLayer(w, "dlt", Granularity("per-group", 2))
    inline.forward(x)
    expected = inline.backward(g)
    assert got[0].tobytes() == expected[0].tobytes()
    assert all(got[1][k].tobytes() == expected[1][k].tobytes() for k in expected[1])


@pytest.mark.parametrize("scheme", ["absmean", "minima", "tequila", "dlt"])
def test_wide_layers_with_the_real_cpu_count(scheme):
    # the wide-trap shape; run again under one CPU (taskset -c 0), this takes the inline path
    rng = np.random.default_rng(5)
    weights = [rng.standard_normal((512, 512)) / np.sqrt(512) for _ in range(3)]
    x, g = rng.standard_normal((32, 512)), rng.standard_normal((32, 512))

    def step():
        granularity = Granularity("per-group", 128)
        mlp = QuantMlp([QuantLinearLayer(w, scheme, granularity) for w in weights])
        y = mlp.forward(x)
        grads = mlp.backward(g)
        return mlp, [y.tobytes()] + [grads[k].tobytes() for k in sorted(grads)]

    mlp, got = step()
    shards = {len(layer._shards) for layer in mlp.layers}
    assert (shards == {1}) == (quantizer._usable_cpus() == 1)
    assert got == sharded(1, step)[1]
