"""Quantization-aware training primitives.

A ``QuantLinearLayer`` keeps full-precision shadow weights that accumulate
gradient updates while every forward pass requantizes them fresh. Every
scheme is one entry of ``SCHEME_TABLE``; a single forward and a single
backward read the entry. Gradients are closed-form; there is no autograd.

With x (batch, cols), weights (rows, cols), ``w_q = codes * alpha`` and
``dead`` the deadzone mask (|w| < delta), each scheme computes
``y = x @ w_q.T`` plus its entry's term:

  absmean        none; alpha = mean |w|, delta = alpha / 2
  twn            none; delta = 0.75 * mean |w|, alpha = mean |w| over |w| >= delta
  lsq            none; alpha learnable, delta frozen at its absmean start
  seq            x @ C.T with coupling C = alpha * b * dead (dead weights read alpha * b)
  dlt            x @ C.T with coupling C = b; alpha and b learnable, delta frozen
  minima         eps * sign(x) @ (sign(w) * dead).T; with eps == 0 it runs as absmean
  tequila        lam * (row sums of the dead weights), broadcast over the batch
  tequila-nomix  as tequila; its dead weights drop the STE term of their gradient

The backward treats the quantizer straight through. With e = g.T @ x, live
weights get e * alpha; dead weights get the entry's dead-branch gradient:

  STE      e                                       (absmean, twn, lsq, seq, dlt)
  minima   eps * g.T @ sign(x)
  tequila  e + lam * sum_b g[b][r]
  nomix    lam * sum_b g[b][r]

The input gradient is g @ w_q, plus g @ C for a coupling. The partials of
the learnable slots hold codes and deadzone membership fixed:

  alpha_g (lsq, dlt)  sum over the group of code * e
  b_g (dlt)           sum over the group of e
  b_g (seq)           alpha_g * sum over the group's dead positions of e

Data flow of one layer step. The forward builds one quantized view of the
shadow weights on the layer's own layout: from one set of compares of
``w`` with the group thresholds it gets the codes and the bool deadzone
mask, and it records them in the layer's public ``cache`` (a
``ForwardCache``). The backward and the trap snapshot read that view
instead of quantizing again; the backward broadcasts the group scales
into ``e * alpha`` and ``w_q`` without expanding them, and
clears ``cache``. The hot path does not re-check the shadow weights: the
``QuantLinearLayer`` constructor validates them and ``optimizer_step`` only
commits finite values. An MLP reads each layer's recorded input ``cache.x``
as its activation. The optimizer's moment decays and epsilon are fixed
constants; only the learning rate is set per run.

Each direction runs all of its full-size element-wise passes in one row
kernel. ``_forward_rows`` forms the group sums, the compares and the
ternarizer, the dequantization to ``w_q`` and the entry's operand:
tequila's row sums, minima's ``sign(w) * dead`` or the coupling C.
``_backward_rows`` forms ``e * alpha``, the dead-branch select, the alpha
and b group sums, and ``w_q`` and C again. A per-group or per-channel group
lies within one row, so every pass is exact per row. A layer of
``quantizer._SHARD_MIN`` elements or more, the size from which every pass
over float64 weights shards, runs its kernels on row shards, one per
usable CPU, under the contract of ``quantizer._run_shards``; the layer
builds their layouts once, with its own. A smaller or per-tensor layer
runs the same kernels inline, on one shard. Until a shard's rows of
``w_q`` take their values they are its scratch: the buffers of the
forward's sequential sums, in blocks of ``quantizer._SUM_BLOCK`` elements
whether the layer is sharded or not, and the products the backward sums
over groups or selects through. Every matrix product (``x @ w_q.T``,
``x @ C.T``, ``sign(x) @ D.T``, ``g.T @ x``, ``g.T @ sign(x)``, ``g @ w_q``
and ``g @ C``) stays in the calling thread on the full arrays: a product
split by rows does not give the bits of the whole one.

``optimizer_step`` stages its update on blocks of at most
``quantizer._SUM_BLOCK`` elements, so that each block stays in cache
across the dozen element-wise passes of one update; a parameter that fits
in one block is passed whole. A step of ``quantizer._SHARD_MIN`` elements
or more shares its blocks out over the usable CPUs, one run of blocks per
shard, under the contract of ``quantizer._run_shards``; a smaller one runs
inline. Each ufunc is exact per element, so the bits are those of one
full-size pass. The calling thread allocates the staged moments and
values and every shard's block-sized scratch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from . import quantizer
from .errors import CacheError, GradientError, InvalidShape, UnsupportedScheme
from .quantizer import (
    Granularity,
    GroupLayout,
    QuantizedTensor,
    _as_matrix,
    _as_real,
    _dequantize_into,
    _group_params,
    _group_shards,
    _lam,
    _real_where,
    _row_ranges,
    _run_shards,
    _tequila_bias,
    _ternarize,
)

DEFAULT_LAMBDA = 1e-3
DEFAULT_EPSILON = 1e-3
DEFAULT_LEARNING_RATE = 1e-4
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8  # optimizer_step's moment decays and epsilon

# Entry callables reach quantizer functions through this module's globals
# (never a stored reference), so rebinding those names reaches every scheme.
# A ``fill`` runs in the row kernels and writes rows of the scheme's operand
# S: (layer, w, dead, alpha, b, layout, out, scratch) for the weights ``w``
# of those rows, their mask, group scales and b, their ``layout``, S's rows
# ``out`` and a ``_sequential_sums`` scratch (None in the backward).


def _minima_fill(layer, w, dead, alpha, b, layout, out, scratch):
    np.sign(w, out=out)
    np.multiply(out, dead, out=out)


def _minima_term(layer, x, d):
    return layer.epsilon * (np.sign(x) @ d.T)


def _tequila_fill(layer, w, dead, alpha, b, layout, out, scratch):
    out[...] = _tequila_bias(w, dead, layer.lam, scratch)


def _tequila_term(layer, x, bias):
    return bias


def _dlt_fill(layer, w, dead, alpha, b, layout, out, scratch):
    layout.expand(b, out=out)


def _seq_fill(layer, w, dead, alpha, b, layout, out, scratch):
    layout.apply(np.multiply, dead, alpha * b, out=out)


def _coupling_term(layer, x, c):
    return x @ c.T


# A dead-branch gradient runs in the calling thread, where it forms its
# products, and returns the row kernels' part: a function of a row slice
# that gives the dead weights' gradient on those rows, as an array that
# broadcasts to them. It may form that array in place in the rows of ``e``
# or of its own product; the kernel reads neither again.


def _dead_ste(layer, e, g, x):
    return lambda rows: e[rows]


def _dead_minima(layer, e, g, x):
    m = g.T @ np.sign(x)
    return lambda rows: np.multiply(layer.epsilon, m[rows], out=m[rows])


def _dead_tequila(layer, e, g, x):
    row = layer.lam * g.sum(axis=0)[:, None]
    return lambda rows: np.add(e[rows], row[rows], out=e[rows])


def _dead_nomix(layer, e, g, x):
    row = layer.lam * g.sum(axis=0)[:, None]
    return lambda rows: row[rows]


def _dlt_grad_b(e, dead, alpha, layout, scratch):
    return layout.reduce_sum(e)


def _seq_grad_b(e, dead, alpha, layout, scratch):
    return alpha * layout.reduce_sum(np.multiply(e, dead, out=scratch))


@dataclass(frozen=True)
class Scheme:
    """One row of ``SCHEME_TABLE``; the module docstring gives the maths."""

    #: ``quantize`` estimator; the starting alpha and delta when alpha is learnable
    estimator: str
    #: learnable slots besides the shadow weights: "alpha" and/or "b"; with b,
    #: S is a coupling C: the forward adds x @ C.T and the backward g @ C
    learnable: tuple = ()
    #: writes rows of the operand S the forward's row kernel builds (see above)
    fill: Callable | None = None
    #: S holds one value per row rather than one per weight
    per_row: bool = False
    #: (layer, x, S) -> term added to y
    extra: Callable | None = None
    #: (layer, e, g, x) -> the row kernels' dead-branch gradient (see above)
    dead_grad: Callable = _dead_ste
    #: (e, dead, alpha, layout, scratch) -> gradient of b for the rows of ``e``
    grad_b: Callable | None = None


SCHEME_TABLE = {
    "absmean": Scheme("absmean"),
    "twn": Scheme("twn"),
    "lsq": Scheme("absmean", learnable=("alpha",)),
    "seq": Scheme(
        "absmean",
        learnable=("b",),
        fill=_seq_fill,
        extra=_coupling_term,
        grad_b=_seq_grad_b,
    ),
    "dlt": Scheme(
        "absmean",
        learnable=("alpha", "b"),
        fill=_dlt_fill,
        extra=_coupling_term,
        grad_b=_dlt_grad_b,
    ),
    "minima": Scheme("absmean", fill=_minima_fill, extra=_minima_term, dead_grad=_dead_minima),
    "tequila": Scheme(
        "absmean", fill=_tequila_fill, per_row=True, extra=_tequila_term, dead_grad=_dead_tequila
    ),
    "tequila-nomix": Scheme(
        "absmean", fill=_tequila_fill, per_row=True, extra=_tequila_term, dead_grad=_dead_nomix
    ),
}

SCHEMES = tuple(SCHEME_TABLE)


def _scheme(name, value):
    """``value`` if it names a scheme, else UnsupportedScheme naming ``name``."""
    if value not in SCHEMES:
        raise UnsupportedScheme(f"unknown {name} {value!r}; known: {SCHEMES}")
    return value


_epsilon = _real_where("finite and >= 0", lambda v: np.isfinite(v) and v >= 0)
_learning_rate = _real_where("finite and > 0", lambda v: np.isfinite(v) and v > 0)


@dataclass
class ForwardCache:
    """The quantized view one forward recorded for its backward.

    ``quantized`` (codes, group statistics and the layer's layout) and the
    bool deadzone ``mask`` come from the same ternarizer pass; the trap
    snapshot reads ``quantized`` as well. Besides them only the input and a
    copy of b are kept: no per-element float64 array is held between
    forward and backward.
    """

    x: np.ndarray
    quantized: QuantizedTensor
    mask: np.ndarray
    learnable_b: np.ndarray | None = None


@dataclass(frozen=True)
class QuantLinearLayer:
    """A linear layer trained with quantization-aware updates.

    ``shadow_weights`` stay full precision; the ternary view is rebuilt from
    them at every forward, on the ``layout`` built once from the weights'
    shape and ``granularity``.

    The constructor is the one way to build a layer. In order, it checks the
    scheme; takes a float64 copy of the weights, a non-empty, finite, real
    matrix, so training never writes into the caller's array; checks ``lam``
    (finite) and ``epsilon`` (finite, >= 0); and builds the layout, which
    checks ``granularity``, and the row shards its steps run on (see the
    module docstring). An unknown scheme raises ``UnsupportedScheme``,
    a bad shape ``InvalidShape`` and any other bad value ``InvalidParam``.
    It then fills the slots of the schemes that use them: ``lsq`` and
    ``dlt`` start ``learnable_alpha`` at the estimator's scales and freeze
    its thresholds in ``frozen_thresholds``; ``seq`` and ``dlt`` start
    ``learnable_b`` at zero. ``dataclasses.replace`` runs the constructor again, so its copy starts
    alpha from the current weights and b at zero, not at the learnt values.

    A built layer is frozen, as ``PackedLayer`` is: assigning any field
    raises ``dataclasses.FrozenInstanceError``, so the checked values stay
    the ones every forward reads. Only the constructor and ``forward`` and
    ``backward``, which set ``cache``, bind fields; ``optimizer_step`` trains
    the layer by writing into its parameter arrays in place.
    """

    shadow_weights: np.ndarray
    scheme: str
    granularity: Granularity
    lam: float = DEFAULT_LAMBDA
    epsilon: float = DEFAULT_EPSILON
    learnable_alpha: np.ndarray | None = field(default=None, init=False)
    learnable_b: np.ndarray | None = field(default=None, init=False)
    frozen_thresholds: np.ndarray | None = field(default=None, init=False)
    #: the view the last forward recorded; ``backward`` consumes it
    cache: ForwardCache | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        _scheme("scheme", self.scheme)
        w = _as_matrix(self.shadow_weights).copy()
        object.__setattr__(self, "shadow_weights", w)
        object.__setattr__(self, "lam", _lam("lambda", self.lam))
        object.__setattr__(self, "epsilon", _epsilon("epsilon", self.epsilon))
        layout = GroupLayout(self.granularity, *w.shape)
        object.__setattr__(self, "layout", layout)
        object.__setattr__(self, "_shards", _group_shards(layout))
        entry = SCHEME_TABLE[self.scheme]
        if "alpha" in entry.learnable:
            # alpha becomes learnable; the threshold keeps its initial estimate
            alpha, thresholds = np.empty(layout.n_groups), np.empty(layout.n_groups)
            _group_params(w, entry.estimator, layout, (alpha, thresholds))
            object.__setattr__(self, "learnable_alpha", alpha)
            object.__setattr__(self, "frozen_thresholds", thresholds)
        if "b" in entry.learnable:
            object.__setattr__(self, "learnable_b", np.zeros(layout.n_groups))

    @property
    def rows(self) -> int:
        return self.shadow_weights.shape[0]

    @property
    def cols(self) -> int:
        return self.shadow_weights.shape[1]

    def params(self) -> dict[str, np.ndarray]:
        out = {"w": self.shadow_weights}
        if self.learnable_alpha is not None:
            out["alpha"] = self.learnable_alpha
        if self.learnable_b is not None:
            out["b"] = self.learnable_b
        return out

    def _entry(self) -> Scheme:
        # minima without a reactivation strength is plain absmean, both ways
        if self.scheme == "minima" and self.epsilon == 0.0:
            return SCHEME_TABLE["absmean"]
        return SCHEME_TABLE[self.scheme]

    def forward(self, x) -> np.ndarray:
        """y = x @ w_q.T plus the entry's coupling and extra term.

        Records the quantized view, the bool deadzone mask and the input in
        ``cache`` for the next ``backward``.
        """
        entry = self._entry()
        x = _as_batch(x, None, self.cols, "input")
        shape = self.shadow_weights.shape
        if "alpha" in entry.learnable:
            scales, thresholds = self.learnable_alpha.copy(), self.frozen_thresholds.copy()
        else:
            scales, thresholds = np.empty(self.layout.n_groups), np.empty(self.layout.n_groups)
        q = QuantizedTensor(np.empty(shape, dtype=np.int8), scales, thresholds, self.layout)
        mask = np.empty(shape, dtype=bool)
        b = None if self.learnable_b is None else self.learnable_b.copy()
        w_q = np.empty(shape)
        side = None if entry.fill is None else np.empty(self.rows if entry.per_row else shape)
        _run_shards(partial(_forward_rows, self, entry, q, mask, b, w_q, side), self._shards)
        y = x @ w_q.T
        if entry.extra is not None:
            y = y + entry.extra(self, x, side)
        object.__setattr__(self, "cache", ForwardCache(x=x, quantized=q, mask=mask, learnable_b=b))
        return y

    def backward(self, g) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        """Consume the cache; returns (grad wrt input, grads per parameter).

        ``g`` is (batch, rows) for the recorded batch, or one row of ``rows``
        values after a forward of one input row; a mis-shaped ``g`` raises
        ``InvalidShape`` and leaves the cache in place.
        """
        cache = self.cache
        if cache is None:
            raise CacheError("backward called without a recorded forward")
        g = _as_batch(g, len(cache.x), self.rows, "upstream gradient")
        object.__setattr__(self, "cache", None)
        entry = self._entry()
        x = cache.x
        shape = self.shadow_weights.shape
        e = g.T @ x
        grads = {"w": np.empty(shape)}
        for key in entry.learnable:
            grads[key] = np.empty(self.layout.n_groups)
        w_q = np.empty(shape)
        side = np.empty(shape) if "b" in entry.learnable else None
        dead_grad = entry.dead_grad(self, e, g, x)
        work = partial(_backward_rows, self, entry, cache, e, dead_grad, grads, w_q, side)
        _run_shards(work, self._shards)
        grad_x = g @ w_q
        if side is not None:
            grad_x = grad_x + g @ side
        return grad_x, grads


def _forward_rows(layer, entry, q, mask, b, w_q, side, rows, groups, part):
    """The forward's element-wise passes over one shard of ``layer``.

    The shard holds the weights ``rows`` and the groups ``groups`` and has
    the layout ``part``. Writes those rows of the codes and the deadzone
    ``mask`` and, for a static estimator, those groups' scales and
    thresholds in ``q``; the rows of ``w_q``; and the rows of the entry's
    operand ``side``. Until they take their values, the rows of ``w_q``
    hold the buffers of the sequential sums.
    """
    w, codes, dead = layer.shadow_weights[rows], q.codes[rows], mask[rows]
    scratch = w_q[rows].reshape(-1)
    alpha, delta = q.scales[groups], q.thresholds[groups]
    if "alpha" not in entry.learnable:
        _group_params(w, entry.estimator, part, (alpha, delta), scratch)
    _ternarize(w, part, alpha, delta, codes, dead)
    if entry.fill is not None:
        b = None if b is None else b[groups]
        entry.fill(layer, w, dead, alpha, b, part, side[rows], scratch)
    _dequantize_into(codes, alpha, part, w_q[rows])


def _backward_rows(layer, entry, cache, e, dead_grad, grads, w_q, side, rows, groups, part):
    """The backward's element-wise passes over one shard (as ``_forward_rows``).

    Writes those rows of the weight gradient, of ``w_q`` and of the
    coupling ``side``, and those groups' gradients of alpha and b.
    """
    q, dead = cache.quantized, cache.mask[rows]
    codes, alpha, er = q.codes[rows], q.scales[groups], e[rows]
    grad_w, wq = grads["w"][rows], w_q[rows]
    part.apply(np.multiply, er, alpha, out=grad_w)
    # these rows of w_q are scratch until they are formed
    if "alpha" in grads:
        grads["alpha"][groups] = part.reduce_sum(np.multiply(er, codes, out=wq))
    if "b" in grads:
        grads["b"][groups] = entry.grad_b(er, dead, alpha, part, wq)
    _select(dead, dead_grad(rows), grad_w, wq)
    _dequantize_into(codes, alpha, part, wq)
    if "b" in grads:
        b = cache.learnable_b[groups]
        entry.fill(layer, layer.shadow_weights[rows], dead, alpha, b, part, side[rows], None)


def _select(mask, values, out, scratch) -> None:
    """``out[...] = np.where(mask, values, out)``, bit for bit, through int64 views.

    ``values`` broadcasts to the float64 ``out``; ``scratch`` is a float64
    array of ``out``'s shape. Each element of ``out`` takes its own bits
    xor those of the two values where ``mask`` is set, and xor zero
    elsewhere: three branch-free passes, which beat ``np.where``'s
    branching one where the mask is irregular, as a deadzone is.
    """
    o, t = out.view(np.int64), scratch.view(np.int64)
    np.bitwise_xor(o, values.view(np.int64), out=t)
    np.multiply(t, mask, out=t)
    np.bitwise_xor(o, t, out=o)


def _as_batch(a, batch: int | None, width: int, what: str) -> np.ndarray:
    """``a`` as a float64 (batch, width) matrix; a 1-D ``a`` is one row.

    ``batch=None`` accepts any number of rows.
    """
    a = _as_real(a, what)
    if a.ndim == 1:
        a = a.reshape(1, -1)
    if a.ndim != 2 or a.shape[1] != width or batch not in (None, a.shape[0]):
        expected = f"({'batch' if batch is None else batch}, {width})"
        raise InvalidShape(f"{what} shape {a.shape} does not match {expected}")
    return a


@dataclass
class OptimizerState:
    """Adaptive-moment optimizer state with a fixed, finite, positive learning rate."""

    learning_rate: float = DEFAULT_LEARNING_RATE
    step_count: int = field(default=0, init=False)
    m: dict = field(default_factory=dict, init=False)
    v: dict = field(default_factory=dict, init=False)

    def __post_init__(self):
        self.learning_rate = _learning_rate("learning_rate", self.learning_rate)


def _adam_blocks(lr: float, bc1: float, bc2: float, blocks, scratch) -> list:
    """Stage the update of each of ``blocks``; returns the keys of those that failed.

    A block is ``(key, g, m0, v0, p, m, v, new_p)``: same-shaped runs of a
    parameter's gradient, stored moments (the scalar 0.0 on its first step)
    and value, and of the staged moments and new value it writes.
    ``scratch`` maps each block shape to a float64 and a bool buffer of
    that shape (on 128x128 steps, reshaping a flat buffer for every block
    cost about 1% of the step). The ufuncs are those of one full-size pass, in its order;
    each is exact per element, so the blocking changes no bit. ``new_p``
    holds the decayed old moments until the new value is formed. A block
    fails when its second moment or new value is not finite; a non-finite
    ``m`` makes the new value non-finite too.
    """
    failed = []
    for key, g, m0, v0, p, m, v, new_p in blocks:
        # m = beta1 * m0 + (1 - beta1) * g and v = beta2 * v0 + (1 - beta2) * g**2
        np.multiply(g, 1.0 - _BETA1, out=m)
        np.multiply(m0, _BETA1, out=new_p)
        np.add(m, new_p, out=m)
        np.multiply(g, g, out=v)
        np.multiply(v, 1.0 - _BETA2, out=v)
        np.multiply(v0, _BETA2, out=new_p)
        np.add(v, new_p, out=v)
        # new_p = p - lr * (m / bc1) / (sqrt(v / bc2) + eps)
        d, ok = scratch[v.shape]
        np.divide(v, bc2, out=d)
        np.sqrt(d, out=d)
        np.add(d, _EPS, out=d)
        np.divide(m, bc1, out=new_p)
        np.multiply(new_p, lr, out=new_p)
        np.divide(new_p, d, out=new_p)
        np.subtract(p, new_p, out=new_p)
        # NaN propagates through the maximum, and where v is -inf or negative
        # the new value is NaN, so v's largest element tells whether v is finite
        if not (
            np.maximum.reduce(v, axis=None, initial=0.0) < np.inf
            and np.isfinite(new_p, out=ok).all()
        ):
            failed.append(key)
    return failed


def optimizer_step(params: dict, grads: dict, state: OptimizerState) -> dict:
    """One adaptive-moment update, in place on the parameter arrays.

    Every parameter needs a finite gradient of its own shape, checked before
    anything else, and stored moments, if it has any, of its shape. Each
    moment is then advanced once: for every parameter the new first and
    second moments and the new value are staged, and the second moment and
    the value are checked. Only when all are finite is the step committed,
    by rebinding the moments in ``state`` and copying each value into its
    parameter array; otherwise ``GradientError`` names the first failed
    parameter in ``params`` order and leaves parameters, moments and the
    step count untouched.

    The staging runs on blocks of at most ``quantizer._SUM_BLOCK`` elements,
    which stay in cache across their dozen ufunc passes; a parameter of one
    block is its own block, not a view of it. A step of ``_SHARD_MIN``
    elements or more splits its block list into one run of blocks per
    usable CPU (see the module docstring); a smaller step runs inline. The
    bits are those of one full-size pass.
    """
    for key in params:
        if key not in grads:
            raise InvalidShape(f"no gradient for parameter {key!r}")
    for key, grad in grads.items():
        if key not in params:
            raise InvalidShape(f"gradient for unknown parameter {key!r}")
        if np.shape(grad) != np.shape(params[key]):
            raise InvalidShape(
                f"gradient shape {np.shape(grad)} != parameter shape {np.shape(params[key])}"
            )
        if not np.isfinite(grad).all():
            raise GradientError(f"non-finite gradient for parameter {key!r}")
    t = state.step_count + 1
    bc1 = 1.0 - _BETA1**t
    bc2 = 1.0 - _BETA2**t
    size = quantizer._SUM_BLOCK
    staged = {}
    blocks = []
    shapes = set()
    total = 0
    for key, p in params.items():
        shape = p.shape
        m0, v0 = state.m.get(key, 0.0), state.v.get(key, 0.0)  # zero moments on a first step
        if (key in state.m and m0.shape != shape) or (key in state.v and v0.shape != shape):
            raise InvalidShape(
                f"stored moment shapes {np.shape(m0)}, {np.shape(v0)} != parameter shape {shape}"
                f" for {key!r}"
            )
        m, v, new_p = staged[key] = np.empty(shape), np.empty(shape), np.empty(shape)
        block = (key, np.asarray(grads[key], dtype=np.float64), m0, v0, p, m, v, new_p)
        n = m.size
        total += n
        if n <= size:
            blocks.append(block)
            shapes.add(shape)
            continue
        flat = [np.reshape(a, -1) if np.ndim(a) else a for a in block[1:]]
        for lo in range(0, n, size):
            blocks.append((key, *(a[lo : lo + size] if np.ndim(a) else a for a in flat)))
        shapes.update(((size,), (n - lo,)))
    shards = [
        (blocks[lo:hi], {s: (np.empty(s), np.empty(s, dtype=bool)) for s in shapes})
        for lo, hi in _row_ranges(len(blocks), total)
    ]
    work = partial(_adam_blocks, state.learning_rate, bc1, bc2)
    for failed in _run_shards(work, shards):  # in params order
        if failed:
            raise GradientError(f"non-finite update for parameter {failed[0]!r}")
    state.step_count = t
    for key, (m, v, new_p) in staged.items():
        state.m[key] = m
        state.v[key] = v
        params[key][...] = new_p
    return params
