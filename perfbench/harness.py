"""Workloads, output checks and metrics of the tqla benchmark.

A workload is a round of operations run by one client in a closed loop:
each operation starts when the previous one returns. A round trains every
configuration of the workload with ``train_toy``, and after each training
run makes a fixed number of deploy cycles over seeded Gaussian layers. A
deploy cycle is one export (``quantize`` -> ``deadzone_mask`` ->
``pack_model`` -> ``write_packed``) and one load (``read_packed`` ->
``unpack_codes``). Rounds repeat until the run's time is used.

Every operation's output is checked, and a failed check counts the
operation as failed:

- a training run fails if it diverges, if its final loss departs from the
  stored reference for (workload, scheme, input seed) by more than
  ``LOSS_RTOL``, or if its report digest differs from the same run's
  digest earlier in the process;
- a deploy cycle fails unless the read-back codes equal the quantized
  codes, the scales and biases equal their float32 casts, and the file
  bytes equal those written during set-up.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import statistics
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from tqla import packing, quantizer, training
from tqla.errors import TqlaError
from tqla.qat import DEFAULT_LAMBDA, SCHEMES
from tqla.quantizer import Granularity
from tqla.training import TrainConfig

from tracing import TRACED_NAMES, Tracer, roots, self_times

WORKLOADS = ("toy-sweep", "wide-trap", "deploy")

#: ``--seed`` picks one of this many input sets; each has stored references.
REFERENCE_SEEDS = 32
#: Largest relative departure of a final loss from its stored reference.
LOSS_RTOL = 1e-3
#: Set-up is repeated this many times and its median reported.
SETUP_REPEATS = 3
#: A tail percentile has at least this many samples beyond it.
TAIL_BEYOND = 10
#: Highest tail percentile. Above it a 1-4 ms sample's rank is set by how
#: often the shared host preempts the process, not by the code under test.
TAIL_CAP = 90
#: Deploy cycles after each training run of a round.
CYCLES_PER_TRAIN = 4
#: Steps of each warm-up training run during set-up.
WARMUP_STEPS = 2

REFERENCES_PATH = Path(__file__).resolve().parent / "references.json"

PER_GROUP = Granularity(kind="per-group", group_size=128)
PER_CHANNEL = Granularity(kind="per-channel")


@dataclass(frozen=True)
class Workload:
    """The inputs of one benchmark run, all derived from the input seed."""

    name: str
    input_seed: int
    configs: tuple  # TrainConfig per training run in a round
    deploy_shapes: tuple  # (rows, cols, Granularity) per deployed layer
    references: dict  # scheme -> {"final_loss": float, "digest": str}


def _layer_shapes(widths, granularity):
    return tuple((out, fan_in, granularity) for fan_in, out in zip(widths, widths[1:]))


def load_references() -> dict:
    with open(REFERENCES_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def make_workload(name: str, seed: int, references=None, tiny: bool = False) -> Workload:
    """Build a named workload for ``seed``; ``tiny`` shrinks it for tests.

    References come from ``references`` (the stored file by default); a
    tiny workload starts with none and the caller supplies them.
    """
    input_seed = seed % REFERENCE_SEEDS
    if name == "toy-sweep":
        # default TrainConfig: widths 128x4, batch 128, per-group 128, snapshot every 50
        kw = dict(steps=150)
        if tiny:
            kw = dict(steps=3, widths=(8, 8, 8, 8), batch_size=4)
        configs = tuple(TrainConfig(scheme=s, seed=input_seed, **kw) for s in SCHEMES)
        shapes = _layer_shapes(configs[0].widths, PER_GROUP)
    elif name == "wide-trap":
        kw = dict(steps=12, widths=(512,) * 4, batch_size=32, snapshot_every=2)
        if tiny:
            kw = dict(steps=3, widths=(16,) * 4, batch_size=4, snapshot_every=2)
        configs = tuple(
            TrainConfig(scheme=s, seed=input_seed, **kw)
            for s in ("absmean", "minima", "tequila", "dlt")
        )
        shapes = _layer_shapes(configs[0].widths, PER_GROUP)
    elif name == "deploy":
        kw = dict(steps=20)
        shapes = (
            (1024, 1024, PER_GROUP),
            (1024, 1024, PER_GROUP),
            (1024, 1000, PER_GROUP),
            (1000, 1024, PER_CHANNEL),
        )
        if tiny:
            kw = dict(steps=2, widths=(8, 8, 8, 8), batch_size=4)
            shapes = ((12, 10, Granularity(kind="per-group", group_size=4)), (10, 12, PER_CHANNEL))
        configs = (TrainConfig(scheme="tequila", seed=input_seed, **kw),)
    else:
        raise ValueError(f"unknown workload {name!r}; known: {WORKLOADS}")
    if tiny:
        refs = {}
    else:
        if references is None:
            references = load_references()
        refs = references.get(name, {}).get(str(input_seed), {})
    return Workload(name, input_seed, configs, shapes, refs)


def report_digest(report) -> str:
    """SHA-256 of ``TrainReport.to_dict()`` as canonical JSON."""
    blob = json.dumps(report.to_dict(), sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def tail_percentile(n: int, beyond: int = TAIL_BEYOND) -> int:
    """Highest whole percentile up to ``TAIL_CAP`` with ``beyond`` of ``n`` samples above it.

    Nearest rank: the p-th percentile is the ceil(p * n / 100)-th smallest
    sample, which leaves n - ceil(p * n / 100) samples beyond it. Below
    ``2 * beyond`` samples no percentile from the median up qualifies, and
    the median is returned.
    """
    p = 100 * (n - beyond) // n if n > 0 else 0
    return max(50, min(TAIL_CAP, p))


def percentile(samples, p: int) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(samples)
    k = max(1, math.ceil(p * len(ordered) / 100))
    return ordered[k - 1]


def gmean(values) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Outcome:
    """Counts and samples gathered while rounds run."""

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    round_walls: list = field(default_factory=list)
    train_s: float = 0.0  # wall time inside training runs
    export_ms: list = field(default_factory=list)
    load_ms: list = field(default_factory=list)
    final_losses: dict = field(default_factory=dict)  # scheme -> final loss
    digests: dict = field(default_factory=dict)  # scheme -> report digest
    steps: int = 0

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)


class Bench:
    """One workload's inputs, expected outputs and operations."""

    def __init__(self, workload: Workload, workdir: Path):
        self.workload = workload
        self.path = Path(workdir) / "model.tqla"
        rng = np.random.default_rng([workload.input_seed, 7])
        self.weights = [
            rng.standard_normal((rows, cols)) / np.sqrt(cols)
            for rows, cols, _ in workload.deploy_shapes
        ]
        self.n_weights = sum(w.size for w in self.weights)
        self.lam = DEFAULT_LAMBDA
        self.expected_bias = []
        for w, (_, _, gran) in zip(self.weights, workload.deploy_shapes):
            q = quantizer.quantize(w, "absmean", gran)
            mask = quantizer.deadzone_mask(w, q)
            self.expected_bias.append(quantizer.tequila_bias(w, mask, self.lam).astype(np.float32))
        self.tracer: Tracer | None = None
        self.file_bytes = None

    def _op(self, name, fn, *args):
        if self.tracer is None:
            return fn(*args)
        return self.tracer.call(name, fn, *args)

    def warm_up(self) -> None:
        """Run each code path once and keep the file bytes to compare against."""
        for cfg in self.workload.configs:
            training.train_toy(replace(cfg, steps=WARMUP_STEPS))
        self._export()
        self.file_bytes = self.path.read_bytes()
        self._load()

    def _export(self):
        quantized = []
        for w, (_, _, gran) in zip(self.weights, self.workload.deploy_shapes):
            q = quantizer.quantize(w, "absmean", gran)
            quantized.append((q, w, quantizer.deadzone_mask(w, q)))
        packing.write_packed(packing.pack_model(quantized, self.lam), self.path)
        return [q for q, _, _ in quantized]

    def _load(self):
        model = packing.read_packed(self.path)
        return model, [layer.unpack_codes() for layer in model.layers]

    def train(self, cfg: TrainConfig, out: Outcome) -> float:
        """One checked training run; returns its wall time in seconds."""
        out.attempted += 1
        out.steps += cfg.steps
        scheme = cfg.scheme
        t0 = time.perf_counter()
        try:
            report = self._op("bench.train", training.train_toy, cfg)
        except TqlaError as exc:
            out.fail(f"{scheme}: {type(exc).__name__}: {exc}")
            return time.perf_counter() - t0
        wall = time.perf_counter() - t0
        digest = report_digest(report)
        ref = self.workload.references.get(scheme, {}).get("final_loss")
        if report.diverged:
            out.fail(f"{scheme}: diverged at step {report.divergence_step}")
        elif ref is None:
            out.fail(f"{scheme}: no stored reference for input seed {self.workload.input_seed}")
        elif abs(report.final_loss - ref) > LOSS_RTOL * abs(ref):
            out.fail(f"{scheme}: final loss {report.final_loss!r} departs from reference {ref!r}")
        elif out.digests.setdefault(scheme, digest) != digest:
            out.fail(f"{scheme}: report digest changed between runs of the same config")
        out.final_losses.setdefault(scheme, report.final_loss)
        return wall

    def deploy_cycle(self, out: Outcome) -> None:
        """One checked export and load of the deploy layers."""
        out.attempted += 1
        try:
            t0 = time.perf_counter()
            quantized = self._op("bench.export", self._export)
            t1 = time.perf_counter()
            model, codes = self._op("bench.load", self._load)
            t2 = time.perf_counter()
        except TqlaError as exc:
            out.fail(f"deploy: {type(exc).__name__}: {exc}")
            return
        out.export_ms.append(1e3 * (t1 - t0))
        out.load_ms.append(1e3 * (t2 - t1))
        problem = self.check_read_back(quantized, model, codes)
        if problem:
            out.fail(problem)

    def check_read_back(self, quantized, model, codes) -> str | None:
        """Describe the first mismatch between a load and its export, if any."""
        if self.path.read_bytes() != self.file_bytes:
            return "file bytes differ from the set-up export"
        if len(model.layers) != len(quantized):
            return f"read {len(model.layers)} layers, wrote {len(quantized)}"
        for k, (q, layer, c, bias) in enumerate(
            zip(quantized, model.layers, codes, self.expected_bias)
        ):
            if not np.array_equal(c[:, : q.cols], q.codes):
                return f"layer {k}: read-back codes differ from the quantized codes"
            if not np.array_equal(layer.scales, q.scales.astype(np.float32)):
                return f"layer {k}: scales differ from their float32 cast"
            if not np.array_equal(layer.bias, bias):
                return f"layer {k}: bias differs from its float32 cast"
        return None

    def run_round(self, out: Outcome) -> None:
        t0 = time.perf_counter()
        for cfg in self.workload.configs:
            out.train_s += self.train(cfg, out)
            for _ in range(CYCLES_PER_TRAIN):
                self.deploy_cycle(out)
        out.round_walls.append(time.perf_counter() - t0)

    def run_rounds(self, seconds: float, out: Outcome) -> Outcome:
        """Run whole rounds until ``seconds`` have passed; at least one."""
        start = time.perf_counter()
        while True:
            self.run_round(out)
            if time.perf_counter() - start >= seconds:
                return out


def set_up(workload: Workload, workdir: Path, repeats: int = SETUP_REPEATS):
    """Build inputs and warm up ``repeats`` times; returns (bench, median seconds)."""
    times = []
    bench = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        bench = Bench(workload, workdir)
        bench.warm_up()
        times.append(time.perf_counter() - t0)
    return bench, statistics.median(times)


def measure(workload: Workload, workdir, seconds, trace, import_s=0.0, spans_path=None):
    """Set up and run one workload; returns (outcomes, metrics).

    Untraced, the run's time goes to rounds and the end-to-end metrics come
    back. Traced, untraced and traced rounds alternate, so both see the
    same machine state; the traced rounds must reproduce the untraced
    report digests and leave every wrapped binding restored, or they count
    as failed.
    """
    bench, setup_s = set_up(workload, workdir)
    if not trace:
        out = bench.run_rounds(seconds, Outcome())
        return [out], end_to_end_metrics(bench, out, import_s + setup_s)
    untraced, traced = Outcome(), Outcome()
    tracer = Tracer()
    start = time.perf_counter()
    while True:
        bench.run_round(untraced)
        bench.tracer = tracer
        tracer.install()
        try:
            bench.run_round(traced)
        finally:
            unrestored = tracer.uninstall()
            bench.tracer = None
        for binding in unrestored:
            traced.fail(f"tracing left {binding} wrapped")
        if time.perf_counter() - start >= seconds:
            break
    for scheme, digest in untraced.digests.items():
        if traced.digests.get(scheme) != digest:
            traced.fail(f"{scheme}: traced report digest differs from untraced")
    if spans_path is not None:
        tracer.write(spans_path)
    return [untraced, traced], traced_metrics(tracer, traced, untraced, len(bench.file_bytes))


def end_to_end_metrics(bench: Bench, out: Outcome, setup_s: float) -> dict:
    """Every end-to-end metric as {name: (value, unit, note)}."""
    m = {
        "setup_s": (setup_s, "s", None),
        "train_steps_per_s": (out.steps / out.train_s, "1/s", f"{out.steps} steps"),
        "final_loss_gmean": (gmean(out.final_losses.values()), "loss", None),
    }
    for key, samples in (("pack", out.export_ms), ("load", out.load_ms)):
        p = tail_percentile(len(samples))
        m[f"{key}_ms_p50"] = (percentile(samples, 50), "ms", f"{len(samples)} samples")
        m[f"{key}_ms_tail"] = (percentile(samples, p), "ms", f"p{p} of {len(samples)} samples")
    bits = bench.path.stat().st_size * 8 / bench.n_weights
    m["file_bits_per_weight"] = (bits, "bit/weight", None)
    m["peak_rss_mb"] = (peak_rss_mb(), "MB", None)
    return m


def traced_metrics(
    tracer: Tracer, traced: Outcome, untraced: Outcome, file_bytes: int
) -> dict:
    """Every per-layer metric as {name: (value, unit, note)}.

    Per-step figures count only spans inside training runs; the ``.ms``
    figures of the deploy path are medians over cycles of the time spent
    in that function within one export or one load.
    """
    selfs = self_times(tracer.starts, tracer.ends, tracer.parents)
    root_of = roots(tracer.parents)
    names = tracer.names
    steps = traced.steps
    snap = "diagnostics.take_snapshot"
    snap_s = 0.0  # inclusive time of snapshots inside training runs
    train_self = dict.fromkeys(TRACED_NAMES, 0.0)
    train_calls = dict.fromkeys(TRACED_NAMES, 0)
    all_self = dict.fromkeys(TRACED_NAMES, 0.0)
    per_cycle: dict = {}  # (root index) -> {name: inclusive seconds}
    for i, name in enumerate(names):
        if name not in all_self:
            continue
        all_self[name] += selfs[i]
        root_name = names[root_of[i]]
        if root_name == "bench.train":
            train_self[name] += selfs[i]
            train_calls[name] += 1
            if name == snap:
                snap_s += tracer.ends[i] - tracer.starts[i]
        elif root_name in ("bench.export", "bench.load"):
            cycle = per_cycle.setdefault(root_of[i], {})
            cycle[name] = cycle.get(name, 0.0) + tracer.ends[i] - tracer.starts[i]

    def cycle_ms(root_name, name):
        values = [
            1e3 * c.get(name, 0.0) for r, c in per_cycle.items() if names[r] == root_name
        ]
        return statistics.median(values)

    m = {
        "quantizer.group_layout.inits_per_step": (
            train_calls["quantizer.group_layout"] / steps, "count", None
        ),
    }
    for name in ("quantizer.dequantize", "quantizer.quantize"):
        m[f"{name}.calls_per_step"] = (train_calls[name] / steps, "count", None)
    for name in (
        "qat.forward",
        "qat.backward",
        "training.train_toy",
        "quantizer.quantize",
        "quantizer.tequila_bias",
        "quantizer.deadzone_mask",
        "quantizer.dequantize",
        "qat.optimizer_step",
        snap,
    ):
        m[f"{name}.self_ms_per_step"] = (1e3 * train_self[name] / steps, "ms", None)
    m[f"{snap}.ms_per_call"] = (1e3 * snap_s / train_calls[snap], "ms", None)
    m[f"{snap}.calls_per_step"] = (train_calls[snap] / steps, "count", None)
    for name in ("quantizer.quantize", "packing.pack_model", "packing.write_packed"):
        m[f"{name}.ms"] = (cycle_ms("bench.export", name), "ms", "median per export")
    for name in ("packing.read_packed", "packing.unpack_codes"):
        m[f"{name}.ms"] = (cycle_ms("bench.load", name), "ms", "median per load")
    m["packing.bytes_written"] = (file_bytes, "B", None)
    traced_wall = sum(traced.round_walls)
    for name in TRACED_NAMES:
        m[f"{name}.share"] = (all_self[name] / traced_wall, "ratio", "of traced wall time")
    overhead = statistics.median(traced.round_walls) / statistics.median(untraced.round_walls) - 1
    m["trace.overhead_ratio"] = (overhead, "ratio", "median round wall, traced over untraced")
    return m
