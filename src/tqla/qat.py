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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import CacheError, GradientError, InvalidShape, UnsupportedScheme
from .quantizer import (
    Granularity,
    GroupLayout,
    QuantizedTensor,
    _as_matrix,
    _as_real,
    _group_params,
    _quantized_view,
    _lam,
    _real_where,
    _tequila_bias,
    dequantize,
)

DEFAULT_LAMBDA = 1e-3
DEFAULT_EPSILON = 1e-3
DEFAULT_LEARNING_RATE = 1e-4
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8  # optimizer_step's moment decays and epsilon


# Entry callables reach quantizer functions through this module's globals
# (never a stored reference), so rebinding those names reaches every scheme.


def _minima_term(layer, x, mask):
    return layer.epsilon * (np.sign(x) @ (np.sign(layer.shadow_weights) * mask).T)


def _tequila_term(layer, x, mask):
    return _tequila_bias(layer.shadow_weights, mask, layer.lam)


def _dead_ste(layer, e, g, x):
    return e


def _dead_minima(layer, e, g, x):
    return layer.epsilon * (g.T @ np.sign(x))


def _dead_tequila(layer, e, g, x):
    return e + layer.lam * g.sum(axis=0)[:, None]


def _dead_nomix(layer, e, g, x):
    return layer.lam * g.sum(axis=0)[:, None]


def _dlt_coupling(q, mask, b):
    return q.layout.expand(b)


def _seq_coupling(q, mask, b):
    return q.layout.expand(q.scales) * q.layout.expand(b) * mask


def _dlt_grad_b(e, q, mask):
    return q.layout.reduce_sum(e)


def _seq_grad_b(e, q, mask):
    return q.scales * q.layout.reduce_sum(e * mask)


@dataclass(frozen=True)
class Scheme:
    """One row of ``SCHEME_TABLE``; the module docstring gives the maths."""

    #: ``quantize`` estimator; the starting alpha and delta when alpha is learnable
    estimator: str
    #: learnable slots besides the shadow weights: "alpha" and/or "b"
    learnable: tuple = ()
    #: (layer, x, mask) -> term added to y
    extra: Callable | None = None
    #: (layer, e, g, x) -> weight gradient at dead positions
    dead_grad: Callable = _dead_ste
    #: (e, quantized, mask) -> gradient of b
    grad_b: Callable | None = None
    #: (quantized, mask, b) -> C; forward adds x @ C.T, backward adds g @ C
    coupling: Callable | None = None


SCHEME_TABLE = {
    "absmean": Scheme("absmean"),
    "twn": Scheme("twn"),
    "lsq": Scheme("absmean", learnable=("alpha",)),
    "seq": Scheme("absmean", learnable=("b",), grad_b=_seq_grad_b, coupling=_seq_coupling),
    "dlt": Scheme("absmean", learnable=("alpha", "b"), grad_b=_dlt_grad_b, coupling=_dlt_coupling),
    "minima": Scheme("absmean", extra=_minima_term, dead_grad=_dead_minima),
    "tequila": Scheme("absmean", extra=_tequila_term, dead_grad=_dead_tequila),
    "tequila-nomix": Scheme("absmean", extra=_tequila_term, dead_grad=_dead_nomix),
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


@dataclass
class QuantLinearLayer:
    """A linear layer trained with quantization-aware updates.

    ``shadow_weights`` stay full precision; the ternary view is rebuilt from
    them at every forward, on the ``layout`` built once from the weights'
    shape and ``granularity``.

    The constructor is the one way to build a layer. In order, it checks the
    scheme; takes a float64 copy of the weights, a non-empty, finite, real
    matrix, so training never writes into the caller's array; checks ``lam``
    (finite) and ``epsilon`` (finite, >= 0); and builds the layout, which
    checks ``granularity``. An unknown scheme raises ``UnsupportedScheme``,
    a bad shape ``InvalidShape`` and any other bad value ``InvalidParam``.
    It then fills the slots of the schemes that use them: ``lsq`` and
    ``dlt`` start ``learnable_alpha`` at the estimator's scales and freeze
    its thresholds in ``frozen_thresholds``; ``seq`` and ``dlt`` start
    ``learnable_b`` at zero. ``dataclasses.replace`` runs the constructor again, so its copy starts
    alpha from the current weights and b at zero, not at the learnt values.
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
        w = self.shadow_weights = _as_matrix(self.shadow_weights).copy()
        self.lam = _lam("lambda", self.lam)
        self.epsilon = _epsilon("epsilon", self.epsilon)
        layout = self.layout = GroupLayout(self.granularity, *w.shape)
        entry = SCHEME_TABLE[self.scheme]
        if "alpha" in entry.learnable:
            # alpha becomes learnable; the threshold keeps its initial estimate
            self.learnable_alpha, self.frozen_thresholds = _group_params(w, entry.estimator, layout)
        if "b" in entry.learnable:
            self.learnable_b = np.zeros(layout.n_groups)

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
        params = None
        if "alpha" in entry.learnable:
            params = (self.learnable_alpha.copy(), self.frozen_thresholds.copy())
        q, mask = _quantized_view(self.shadow_weights, entry.estimator, self.layout, params)
        b = None if self.learnable_b is None else self.learnable_b.copy()
        y = x @ dequantize(q).T
        if entry.coupling is not None:
            y = y + x @ entry.coupling(q, mask, b).T
        if entry.extra is not None:
            y = y + entry.extra(self, x, mask)
        self.cache = ForwardCache(x=x, quantized=q, mask=mask, learnable_b=b)
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
        self.cache = None
        entry = self._entry()
        x, q, mask = cache.x, cache.quantized, cache.mask
        e = g.T @ x
        live = q.layout.apply(np.multiply, e, q.scales)
        grads = {"w": np.where(mask, entry.dead_grad(self, e, g, x), live)}
        if "alpha" in entry.learnable:
            grads["alpha"] = q.layout.reduce_sum(e * q.codes)
        if "b" in entry.learnable:
            grads["b"] = entry.grad_b(e, q, mask)
        grad_x = g @ dequantize(q)
        if entry.coupling is not None:
            grad_x = grad_x + g @ entry.coupling(q, mask, cache.learnable_b)
        return grad_x, grads


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


def optimizer_step(params: dict, grads: dict, state: OptimizerState) -> dict:
    """One adaptive-moment update, in place on the parameter arrays.

    Every parameter needs a finite gradient of its own shape, checked before
    anything else. Each moment is then advanced once: for every parameter
    the new first and second moments and the new value are staged, and the
    second moment and the value are checked. Only when all are finite is
    the step committed, by rebinding the moments in ``state`` and copying
    each value into its parameter array; otherwise ``GradientError`` leaves
    parameters, moments and the step count untouched.
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
    staged = {}
    for key, p in params.items():
        g = np.asarray(grads[key], dtype=np.float64)
        # m = beta1 * m + (1 - beta1) * g and v = beta2 * v + (1 - beta2) * g**2,
        # from zero moments on a parameter's first step
        m = (1.0 - _BETA1) * g
        m += state.m.get(key, 0.0) * _BETA1
        v = g * g
        v *= 1.0 - _BETA2
        v += state.v.get(key, 0.0) * _BETA2
        # new_p = p - lr * (m / bc1) / (sqrt(v / bc2) + eps)
        den = v / bc2
        np.sqrt(den, out=den)
        den += _EPS
        new_p = m / bc1
        new_p *= state.learning_rate
        new_p /= den
        np.subtract(p, new_p, out=new_p)
        # a non-finite m makes new_p non-finite too
        if not (np.isfinite(v).all() and np.isfinite(new_p).all()):
            raise GradientError(f"non-finite update for parameter {key!r}")
        staged[key] = m, v, new_p
    state.step_count = t
    for key, (m, v, new_p) in staged.items():
        state.m[key] = m
        state.v[key] = v
        params[key][...] = new_p
    return params
