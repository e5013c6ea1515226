"""Desk-scale training harness.

The default task is teacher-student regression: a frozen random
full-precision perceptron with ternary-valued weights produces targets for
one fixed sample of seeded Gaussian inputs, and a student of identical
shape with quantized linear layers is trained full-batch to match it. A
character-level next-token task over a small embedded corpus is available
for qualitative convergence runs.

Everything is a pure function of (config, seed): data, inits, and update
order are drawn from fixed substreams, so two runs with the same config
produce identical reports bit for bit.
"""

from __future__ import annotations

import numbers
import time
from dataclasses import dataclass, field

import numpy as np

from .diagnostics import (
    DEFAULT_BAND,
    DEFAULT_BINS,
    DEFAULT_HISTORY_WINDOW,
    DEFAULT_SNAPSHOT_EVERY,
    CodeHistory,
    TrapReport,
    take_snapshot,
)
from .errors import GradientError, InvalidParam, UnsupportedScheme
from .qat import (
    DEFAULT_EPSILON,
    DEFAULT_LAMBDA,
    DEFAULT_LEARNING_RATE,
    SCHEMES,
    OptimizerState,
    QuantLinearLayer,
    optimizer_step,
)
from .quantizer import Granularity, dequantize, quantize

TASKS = ("synthetic-regression", "char-lm")

# substream tags so that data, teacher, and student draws never interleave
_STREAM_TEACHER = 1
_STREAM_STUDENT = 2
_STREAM_DATA = 3

_CHAR_CONTEXT = 8

_CHAR_CORPUS = (
    "A good shot of espresso starts long before the machine warms up. The "
    "beans matter most: a fresh roast, rested for a week, ground fine enough "
    "that the puck resists the water without choking it. Dose eighteen grams "
    "into the basket, level the grounds with a light tap, and tamp with even "
    "pressure. Uneven tamping carves channels through the puck, and water "
    "always finds the easy path, leaving half the coffee untouched.\n"
    "Watch the first drops. They should appear after several seconds, dark "
    "and slow like warm honey, then widen into a steady amber stream. If the "
    "stream blonds early, the grind was too coarse; if the machine strains "
    "and drips, too fine. Aim for about two ounces in thirty seconds, then "
    "stop. The crema should be thick enough to hold a dusting of sugar for "
    "a moment before it sinks.\n"
    "Milk rewards the same patience. Cold milk, a clean steam wand, and a "
    "whirlpool that folds the foam back into the liquid until it shines "
    "like wet paint. Pour close to the surface and the pattern draws "
    "itself. None of this requires expensive equipment, only attention, "
    "repetition, and a willingness to taste every mistake.\n"
)


@dataclass(frozen=True)
class TrainConfig:
    """Everything that determines a training run. The seed pins it bitwise."""

    scheme: str = "absmean"
    granularity: Granularity = field(default_factory=Granularity)
    lam: float = DEFAULT_LAMBDA
    epsilon: float = DEFAULT_EPSILON
    seed: int = 0
    steps: int = 2000
    batch_size: int = 128
    widths: tuple = (128, 128, 128, 128)
    task: str = "synthetic-regression"
    learning_rate: float = DEFAULT_LEARNING_RATE
    snapshot_every: int = DEFAULT_SNAPSHOT_EVERY
    history_window: int = DEFAULT_HISTORY_WINDOW
    boundary_band: float = DEFAULT_BAND
    histogram_bins: int = DEFAULT_BINS

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise UnsupportedScheme(f"unknown scheme {self.scheme!r}; known: {SCHEMES}")
        if self.task not in TASKS:
            raise InvalidParam(f"unknown task {self.task!r}; known: {TASKS}")
        # counts are stored as int, so numpy integers serialize like the rest
        for name, minimum in _COUNT_MINIMA.items():
            object.__setattr__(self, name, _count(name, getattr(self, name), minimum))
        widths = tuple(_count("widths", w, 1) for w in self.widths)
        if len(widths) < 2:
            raise InvalidParam(f"widths must be >= 2 positive sizes, got {self.widths}")
        object.__setattr__(self, "widths", widths)
        # reals are stored as float, so numpy scalars and ints serialize as floats
        for name, attr in _REAL_FIELDS.items():
            object.__setattr__(self, attr, _real(name, getattr(self, attr)))
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise InvalidParam(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        # the layers and diagnostics reject these too, but only once train_toy is under way
        if not np.isfinite(self.lam):
            raise InvalidParam(f"lambda must be finite, got {self.lam}")
        if not (np.isfinite(self.epsilon) and self.epsilon >= 0):
            raise InvalidParam(f"epsilon must be finite and >= 0, got {self.epsilon}")
        if not 0.0 < self.boundary_band < 1.0:
            raise InvalidParam(f"boundary_band must be in (0, 1), got {self.boundary_band}")

    def to_dict(self):
        d = {key: getattr(self, attr) for key, (attr, _) in _CONFIG_KEYS.items()}
        d["granularity"] = self.granularity.to_dict()
        d["widths"] = list(self.widths)
        return d

    @classmethod
    def from_dict(cls, d):
        unknown = set(d) - set(_CONFIG_KEYS)
        if unknown:
            raise InvalidParam(f"unknown config keys: {sorted(unknown)}")
        kwargs = {attr: conv(d[key]) for key, (attr, conv) in _CONFIG_KEYS.items() if key in d}
        return cls(**kwargs)


def _raw(value):
    return value


#: Config dict key -> (``TrainConfig`` attribute, converter used by ``from_dict``),
#: in the order ``to_dict`` writes them. Counts and reals pass through raw, so
#: that the constructor's type checks see what the file holds.
_CONFIG_KEYS = {
    "scheme": ("scheme", str),
    "granularity": ("granularity", Granularity.from_dict),
    "lambda": ("lam", _raw),
    "epsilon": ("epsilon", _raw),
    "seed": ("seed", _raw),
    "steps": ("steps", _raw),
    "batch_size": ("batch_size", _raw),
    "widths": ("widths", _raw),
    "task": ("task", str),
    "learning_rate": ("learning_rate", _raw),
    "snapshot_every": ("snapshot_every", _raw),
    "history_window": ("history_window", _raw),
    "boundary_band": ("boundary_band", _raw),
    "histogram_bins": ("histogram_bins", _raw),
}

#: Integer ``TrainConfig`` fields and the least value each accepts.
_COUNT_MINIMA = {
    "seed": 0,
    "steps": 0,
    "batch_size": 1,
    "snapshot_every": 1,
    "history_window": 2,
    "histogram_bins": 2,
}


#: Real ``TrainConfig`` fields: config dict key -> attribute.
_REAL_FIELDS = {
    "lambda": "lam",
    "epsilon": "epsilon",
    "learning_rate": "learning_rate",
    "boundary_band": "boundary_band",
}


def _real(name: str, value) -> float:
    """``value`` as a float; InvalidParam for a bool or a value that is not a real number."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InvalidParam(f"{name} must be a real number, got {value!r}")
    return float(value)


def _count(name: str, value, minimum: int) -> int:
    """``value`` as an int; InvalidParam for a bool, a non-integer or a value below ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidParam(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise InvalidParam(f"{name} must be >= {minimum}, got {value}")
    return int(value)


@dataclass
class TrainReport:
    """Loss curve, trap snapshots, and the config that produced them.

    ``wall_time_s`` is informational only and deliberately excluded from
    serialization so that identical (config, seed) runs produce identical
    artifacts.
    """

    config: dict
    losses: list
    snapshots: list
    diverged: bool = False
    divergence_step: int | None = None
    wall_time_s: float | None = None

    @property
    def final_loss(self) -> float:
        return self.losses[-1]

    def to_dict(self):
        return {
            "config": self.config,
            "losses": self.losses,
            "snapshots": [s.to_dict() for s in self.snapshots],
            "diverged": self.diverged,
            "divergence_step": self.divergence_step,
        }

    @classmethod
    def from_dict(cls, d):
        return cls(
            config=d["config"],
            losses=[float(v) for v in d["losses"]],
            snapshots=[TrapReport.from_dict(s) for s in d["snapshots"]],
            diverged=bool(d["diverged"]),
            divergence_step=d["divergence_step"],
        )


def _init_weights(rng, widths):
    return [
        rng.standard_normal((out, fan_in)) / np.sqrt(fan_in)
        for fan_in, out in zip(widths, widths[1:])
    ]


def _mlp_forward_plain(weights, x):
    h = x
    for i, w in enumerate(weights):
        h = h @ w.T
        if i < len(weights) - 1:
            h = np.tanh(h)
    return h


class QuantMlp:
    """A stack of quantized linear layers with tanh between them."""

    def __init__(self, layers):
        self.layers = layers
        self._activations = None

    @classmethod
    def create(cls, weight_list, scheme, granularity, *, lam, epsilon):
        layers = [
            QuantLinearLayer.create(w, scheme, granularity, lam=lam, epsilon=epsilon)
            for w in weight_list
        ]
        return cls(layers)

    def forward(self, x):
        acts = []
        h = x
        for i, layer in enumerate(self.layers):
            z = layer.forward(h)
            if i < len(self.layers) - 1:
                h = np.tanh(z)
                acts.append(h)
            else:
                h = z
        self._activations = acts
        return h

    def backward(self, g):
        """Chain rule through the recorded forward; returns grads per parameter."""
        grads = {}
        for i in range(len(self.layers) - 1, -1, -1):
            grad_x, layer_grads = self.layers[i].backward(g)
            for name, value in layer_grads.items():
                grads[f"layer{i}.{name}"] = value
            if i > 0:
                a = self._activations[i - 1]
                g = grad_x * (1.0 - a * a)
        self._activations = None
        return grads

    def params(self):
        out = {}
        for i, layer in enumerate(self.layers):
            for name, value in layer.params().items():
                out[f"layer{i}.{name}"] = value
        return out

    def quantized_pairs(self):
        """(shadow weights, quantized view the last forward used) per layer."""
        return [(layer.shadow_weights, layer._cache.quantized) for layer in self.layers]


#: Scale of the per-row constants added to regression targets. Sized so a
#: deadzone-bias vector at the default reactivation strength can absorb them.
_TARGET_OFFSET_SCALE = 1e-3


class _RegressionTask:
    """Teacher-student regression on one fixed seeded sample.

    The teacher is a frozen random perceptron whose weights are rounded to
    ternary values, so a ternary student of the same shape can represent
    the data path exactly and the loss floor measures optimization quality
    rather than capacity. Small per-row constants on the targets probe the
    bias pathway: a plain ternary student is an odd function of its input
    and cannot express them. Training is full-batch gradient descent on a
    single sample of ``batch_size`` inputs, which keeps loss differences
    between schemes free of minibatch noise.
    """

    def __init__(self, config: TrainConfig, teacher_rng):
        self.widths = tuple(config.widths)
        self.batch_size = config.batch_size
        raw = _init_weights(teacher_rng, self.widths)
        per_channel = Granularity(kind="per-channel")
        self.teacher = [dequantize(quantize(w, "absmean", per_channel)) for w in raw]
        self.offset = teacher_rng.standard_normal(self.widths[-1]) * _TARGET_OFFSET_SCALE
        self._fixed = None

    @property
    def student_widths(self):
        return self.widths

    def batch(self, rng):
        if self._fixed is None:
            x = rng.standard_normal((self.batch_size, self.widths[0]))
            self._fixed = (x, _mlp_forward_plain(self.teacher, x) + self.offset)
            self.teacher = None  # the targets are all that is read from now on
        return self._fixed

    def loss(self, y, target):
        diff = y - target
        return float(np.mean(diff * diff))

    def loss_grad(self, y, target):
        return 2.0 * (y - target) / y.size


class _CharLmTask:
    """Next-character prediction over the embedded corpus, one-hot contexts."""

    def __init__(self, config: TrainConfig, _teacher_rng):
        self.batch_size = config.batch_size
        self.vocab = sorted(set(_CHAR_CORPUS))
        self.char_to_id = {c: i for i, c in enumerate(self.vocab)}
        self.ids = np.array([self.char_to_id[c] for c in _CHAR_CORPUS], dtype=np.int64)
        self.context = _CHAR_CONTEXT
        hidden = tuple(config.widths[1:-1])
        self.widths = (self.context * len(self.vocab), *hidden, len(self.vocab))

    @property
    def student_widths(self):
        return self.widths

    def batch(self, rng):
        v = len(self.vocab)
        pos = rng.integers(self.context, len(self.ids), size=self.batch_size)
        x = np.zeros((self.batch_size, self.context * v))
        for k in range(self.context):
            cols = self.ids[pos - self.context + k] + k * v
            x[np.arange(self.batch_size), cols] = 1.0
        return x, self.ids[pos]

    def _softmax(self, logits):
        z = logits - logits.max(axis=1, keepdims=True)
        e = np.exp(z)
        return e / e.sum(axis=1, keepdims=True)

    def loss(self, logits, targets):
        z = logits - logits.max(axis=1, keepdims=True)
        log_probs = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
        picked = log_probs[np.arange(len(targets)), targets]
        return float(-picked.mean())

    def loss_grad(self, logits, targets):
        probs = self._softmax(logits)
        probs[np.arange(len(targets)), targets] -= 1.0
        return probs / len(targets)


_TASKS = {"synthetic-regression": _RegressionTask, "char-lm": _CharLmTask}


def train_toy(config: TrainConfig) -> TrainReport:
    """Run one quantization-aware training experiment.

    Records the training loss at every step and a trap snapshot every
    ``snapshot_every`` steps, plus one final evaluation and snapshot after
    the last update. A non-finite loss or gradient halts the run with the
    partial curve retained and ``diverged`` set.
    """
    started = time.perf_counter()
    teacher_rng = np.random.default_rng([config.seed, _STREAM_TEACHER])
    student_rng = np.random.default_rng([config.seed, _STREAM_STUDENT])
    data_rng = np.random.default_rng([config.seed, _STREAM_DATA])

    task = _TASKS[config.task](config, teacher_rng)
    student = QuantMlp.create(
        _init_weights(student_rng, task.student_widths),
        config.scheme,
        config.granularity,
        lam=config.lam,
        epsilon=config.epsilon,
    )
    state = OptimizerState(learning_rate=config.learning_rate)
    params = student.params()
    history = CodeHistory(window=config.history_window)

    losses = []
    snapshots = []
    diverged = False
    divergence_step = None

    def snapshot(step, loss):
        snapshots.append(
            take_snapshot(
                step,
                loss,
                student.quantized_pairs(),
                history,
                band=config.boundary_band,
                bins=config.histogram_bins,
            )
        )

    for step in range(config.steps):
        x, target = task.batch(data_rng)
        y = student.forward(x)
        loss = task.loss(y, target)
        losses.append(loss)
        if not np.isfinite(loss):
            diverged = True
            divergence_step = step
            break
        if step % config.snapshot_every == 0:
            snapshot(step, loss)
        grads = student.backward(task.loss_grad(y, target))
        try:
            optimizer_step(params, grads, state)
        except GradientError:
            diverged = True
            divergence_step = step
            break
        del grads  # not held through the next forward, snapshot and backward

    if not diverged:
        x, target = task.batch(data_rng)
        y = student.forward(x)
        loss = task.loss(y, target)
        losses.append(loss)
        if np.isfinite(loss):
            snapshot(config.steps, loss)
        else:
            diverged = True
            divergence_step = config.steps

    return TrainReport(
        config=config.to_dict(),
        losses=losses,
        snapshots=snapshots,
        diverged=diverged,
        divergence_step=divergence_step,
        wall_time_s=time.perf_counter() - started,
    )
