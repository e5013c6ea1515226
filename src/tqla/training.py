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

``train_toy`` is one loop of ``steps + 1`` passes, each a forward, its loss
and, on snapshot steps, a trap snapshot of the view that forward recorded.
Every pass but the last then runs the backward and the update; the last
pass only evaluates the trained student.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .diagnostics import (
    DEFAULT_BAND,
    DEFAULT_BINS,
    DEFAULT_HISTORY_WINDOW,
    DEFAULT_SNAPSHOT_EVERY,
    CodeHistory,
    _band,
    take_snapshot,
)
from .errors import GradientError, InvalidParam
from .qat import (
    DEFAULT_EPSILON,
    DEFAULT_LAMBDA,
    DEFAULT_LEARNING_RATE,
    OptimizerState,
    QuantLinearLayer,
    _epsilon,
    _learning_rate,
    _scheme,
    optimizer_step,
)
from .quantizer import Granularity, _count, _granularity, _lam, dequantize, quantize

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
        # counts are stored as int and reals as float, so numpy scalars serialize
        # like the rest; a value the layers, optimizer or diagnostics also take
        # is checked by their own check, here before train_toy starts
        for key, (attr, check) in _FIELDS.items():
            object.__setattr__(self, attr, check(key, getattr(self, attr)))

    def to_dict(self):
        d = {key: getattr(self, attr) for key, (attr, _) in _FIELDS.items()}
        d["granularity"] = self.granularity.to_dict()
        d["widths"] = list(self.widths)
        return d

    @classmethod
    def from_dict(cls, d):
        unknown = set(d) - set(_FIELDS)
        if unknown:
            raise InvalidParam(f"unknown config keys: {sorted(unknown)}")
        kwargs = {attr: d[key] for key, (attr, _) in _FIELDS.items() if key in d}
        if "granularity" in kwargs:
            kwargs["granularity"] = Granularity.from_dict(kwargs["granularity"])
        return cls(**kwargs)


def _task(name, value):
    if value not in TASKS:
        raise InvalidParam(f"unknown {name} {value!r}; known: {TASKS}")
    return value


def _widths(name, value):
    widths = tuple(_count(name, w, 1) for w in value)
    if len(widths) < 2:
        raise InvalidParam(f"{name} must be >= 2 positive sizes, got {value}")
    return widths


#: Config dict key -> (``TrainConfig`` attribute, check), in the order ``to_dict``
#: writes them. A check takes the key and the given value and returns the value
#: to store, or raises naming the key.
_FIELDS = {
    "scheme": ("scheme", _scheme),
    "granularity": ("granularity", _granularity),
    "lambda": ("lam", _lam),
    "epsilon": ("epsilon", _epsilon),
    "seed": ("seed", partial(_count, minimum=0)),
    "steps": ("steps", partial(_count, minimum=0)),
    "batch_size": ("batch_size", partial(_count, minimum=1)),
    "widths": ("widths", _widths),
    "task": ("task", _task),
    "learning_rate": ("learning_rate", _learning_rate),
    "snapshot_every": ("snapshot_every", partial(_count, minimum=1)),
    "history_window": ("history_window", partial(_count, minimum=2)),
    "boundary_band": ("boundary_band", _band),
    "histogram_bins": ("histogram_bins", partial(_count, minimum=2)),
}


@dataclass
class TrainReport:
    """Loss curve, trap snapshots, and the config that produced them."""

    config: dict
    losses: list
    snapshots: list
    diverged: bool = False
    divergence_step: int | None = None

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

    @classmethod
    def create(cls, weight_list, scheme, granularity, *, lam, epsilon):
        layers = [
            QuantLinearLayer.create(w, scheme, granularity, lam=lam, epsilon=epsilon)
            for w in weight_list
        ]
        return cls(layers)

    def forward(self, x):
        h = self.layers[0].forward(x)
        for layer in self.layers[1:]:
            h = layer.forward(np.tanh(h))
        return h

    def backward(self, g):
        """Chain rule through the recorded forward; returns grads per parameter."""
        grads = {}
        for i in range(len(self.layers) - 1, -1, -1):
            cache = self.layers[i].cache
            grad_x, layer_grads = self.layers[i].backward(g)
            for name, value in layer_grads.items():
                grads[f"layer{i}.{name}"] = value
            if i > 0:
                a = cache.x  # the tanh output below, recorded as this layer's input
                g = grad_x * (1.0 - a * a)
        return grads

    def params(self):
        out = {}
        for i, layer in enumerate(self.layers):
            for name, value in layer.params().items():
                out[f"layer{i}.{name}"] = value
        return out

    def quantized_pairs(self):
        """(shadow weights, quantized view the last forward used) per layer."""
        return [(layer.shadow_weights, layer.cache.quantized) for layer in self.layers]


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

    def __init__(self, config: TrainConfig, teacher_rng, data_rng):
        self.widths = config.widths
        raw = _init_weights(teacher_rng, self.widths)
        per_channel = Granularity(kind="per-channel")
        teacher = [dequantize(quantize(w, "absmean", per_channel)) for w in raw]
        offset = teacher_rng.standard_normal(self.widths[-1]) * _TARGET_OFFSET_SCALE
        x = data_rng.standard_normal((config.batch_size, self.widths[0]))
        self.sample = (x, _mlp_forward_plain(teacher, x) + offset)

    def batch(self):
        return self.sample

    def loss(self, y, target):
        diff = y - target
        return float(np.mean(diff * diff))

    def loss_grad(self, y, target):
        return 2.0 * (y - target) / y.size


class _CharLmTask:
    """Next-character prediction over the embedded corpus, one-hot contexts."""

    def __init__(self, config: TrainConfig, _teacher_rng, data_rng):
        self.batch_size = config.batch_size
        self.rng = data_rng
        self.vocab = sorted(set(_CHAR_CORPUS))
        self.char_to_id = {c: i for i, c in enumerate(self.vocab)}
        self.ids = np.array([self.char_to_id[c] for c in _CHAR_CORPUS], dtype=np.int64)
        self.context = _CHAR_CONTEXT
        hidden = tuple(config.widths[1:-1])
        self.widths = (self.context * len(self.vocab), *hidden, len(self.vocab))

    def batch(self):
        v = len(self.vocab)
        pos = self.rng.integers(self.context, len(self.ids), size=self.batch_size)
        x = np.zeros((self.batch_size, self.context * v))
        for k in range(self.context):
            cols = self.ids[pos - self.context + k] + k * v
            x[np.arange(self.batch_size), cols] = 1.0
        return x, self.ids[pos]

    def loss(self, logits, targets):
        z = logits - logits.max(axis=1, keepdims=True)
        log_probs = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
        picked = log_probs[np.arange(len(targets)), targets]
        return float(-picked.mean())

    def loss_grad(self, logits, targets):
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs = e / e.sum(axis=1, keepdims=True)
        probs[np.arange(len(targets)), targets] -= 1.0
        return probs / len(targets)


_TASKS = {"synthetic-regression": _RegressionTask, "char-lm": _CharLmTask}

TASKS = tuple(_TASKS)


def train_toy(config: TrainConfig) -> TrainReport:
    """Run one quantization-aware training experiment.

    Runs ``config.steps`` updates and then one evaluation pass. Records the
    loss of every pass and a trap snapshot every ``snapshot_every`` steps
    and after the last pass. A non-finite loss or gradient halts the run
    with the partial curve retained and ``diverged`` set.
    """
    teacher_rng = np.random.default_rng([config.seed, _STREAM_TEACHER])
    student_rng = np.random.default_rng([config.seed, _STREAM_STUDENT])
    data_rng = np.random.default_rng([config.seed, _STREAM_DATA])

    task = _TASKS[config.task](config, teacher_rng, data_rng)
    student = QuantMlp.create(
        _init_weights(student_rng, task.widths),
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
    divergence_step = None
    for step in range(config.steps + 1):
        x, target = task.batch()
        y = student.forward(x)
        loss = task.loss(y, target)
        losses.append(loss)
        if not np.isfinite(loss):
            divergence_step = step
            break
        if step % config.snapshot_every == 0 or step == config.steps:
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
        if step == config.steps:
            break  # the last pass only evaluates
        grads = student.backward(task.loss_grad(y, target))
        try:
            optimizer_step(params, grads, state)
        except GradientError:
            divergence_step = step
            break
        del grads  # not held through the next forward, snapshot and backward

    return TrainReport(
        config=config.to_dict(),
        losses=losses,
        snapshots=snapshots,
        diverged=divergence_step is not None,
        divergence_step=divergence_step,
    )
