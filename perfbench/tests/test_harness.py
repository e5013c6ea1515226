"""Tests of the benchmark's own code: span arithmetic, percentiles, checks.

    python -m pytest perfbench/tests
"""

import math
from dataclasses import replace

import numpy as np
import pytest

import harness
import tracing
from tqla import packing, qat, quantizer, training


def test_self_times_of_nested_spans():
    # A[0,10] holds B[1,4] (which holds C[2,3]) and D[5,9]; E[11,12] stands alone.
    starts = [0.0, 1.0, 2.0, 5.0, 11.0]
    ends = [10.0, 4.0, 3.0, 9.0, 12.0]
    parents = [-1, 0, 1, 0, -1]
    assert tracing.self_times(starts, ends, parents) == [3.0, 2.0, 1.0, 4.0, 1.0]
    assert tracing.roots(parents) == [0, 0, 0, 0, 4]


def test_tracer_records_parents_in_call_order():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * inner(x))
    assert outer(1) == 4
    assert tracer.names == ["outer", "inner", "inner"]
    assert tracer.parents == [-1, 0, 0]
    selfs = tracing.self_times(tracer.starts, tracer.ends, tracer.parents)
    assert all(t >= 0 for t in selfs)


def test_tracer_wraps_imported_names_and_restores_them():
    originals = {
        (mod, name): getattr(mod, name)
        for mod in (quantizer, qat, training, packing)
        for name in ("quantize", "dequantize", "tequila_bias", "take_snapshot", "optimizer_step")
        if hasattr(mod, name)
    }
    init = vars(quantizer.GroupLayout)["__init__"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (mod, name), fn in originals.items():
            assert getattr(mod, name) is not fn, f"{mod.__name__}.{name} not wrapped"
        quantizer.GroupLayout(quantizer.Granularity(), 2, 3)
    finally:
        assert tracer.uninstall() == []
    for (mod, name), fn in originals.items():
        assert getattr(mod, name) is fn
    assert vars(quantizer.GroupLayout)["__init__"] is init
    assert tracer.names == ["quantizer.group_layout"]


@pytest.mark.parametrize("n,p", [(100, 90), (80, 87), (1000, 90), (30, 66), (19, 50), (1, 50)])
def test_tail_percentile_examples(n, p):
    assert harness.tail_percentile(n) == p


def test_tail_percentile_leaves_ten_beyond_and_is_highest():
    for n in range(20, 3000):
        p = harness.tail_percentile(n)
        beyond = n - math.ceil(p * n / 100)
        assert beyond >= 10
        if p < harness.TAIL_CAP:
            assert n - math.ceil((p + 1) * n / 100) < 10


def test_percentile_is_nearest_rank():
    samples = list(range(100, 0, -1))  # 1..100, unsorted
    assert harness.percentile(samples, 50) == 50
    assert harness.percentile(samples, 90) == 90
    assert harness.percentile([7.0], 99) == 7.0


def _tiny(name):
    """A tiny workload with references from direct ``train_toy`` runs."""
    workload = harness.make_workload(name, 3, tiny=True)
    refs = {
        cfg.scheme: {"final_loss": training.train_toy(cfg).final_loss}
        for cfg in workload.configs
    }
    return replace(workload, references=refs)


@pytest.mark.parametrize("name", harness.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_each_workload(name, trace, tmp_path):
    spans = tmp_path / "spans.json.gz" if trace else None
    outcomes, metrics = harness.measure(_tiny(name), tmp_path, 0.0, trace, spans_path=spans)
    ops = len(harness.make_workload(name, 3, tiny=True).configs) * (1 + harness.CYCLES_PER_TRAIN)
    assert [o.attempted for o in outcomes] == [ops] * len(outcomes)
    assert sum(o.failed for o in outcomes) == 0, [o.failures for o in outcomes]
    assert all(math.isfinite(v) for v, _, _ in metrics.values())
    if trace:
        assert spans.stat().st_size > 0
        assert metrics["quantizer.quantize.calls_per_step"][0] > 0
        assert metrics["packing.unpack_codes.ms"][0] > 0
        assert "trace.overhead_ratio" in metrics
    else:
        assert metrics["train_steps_per_s"][0] > 0
        assert metrics["file_bits_per_weight"][0] > 0


def test_corrupted_read_back_counts_as_failed(tmp_path, monkeypatch):
    bench, _ = harness.set_up(_tiny("deploy"), tmp_path, repeats=1)
    unpack = packing.PackedLayer.unpack_codes

    def corrupted(layer):
        codes = unpack(layer).copy()
        codes[0, 0] = 1 - codes[0, 0]  # any change of a valid ternary code
        return codes

    monkeypatch.setattr(packing.PackedLayer, "unpack_codes", corrupted)
    out = bench.run_rounds(0.0, harness.Outcome())
    assert out.attempted == 1 + harness.CYCLES_PER_TRAIN
    assert out.failed == harness.CYCLES_PER_TRAIN
    assert all("read-back codes" in m for m in out.failures)


def test_changed_file_bytes_count_as_failed(tmp_path):
    bench, _ = harness.set_up(_tiny("deploy"), tmp_path, repeats=1)
    bench.file_bytes = bench.file_bytes[:-1] + bytes([bench.file_bytes[-1] ^ 1])
    out = bench.run_rounds(0.0, harness.Outcome())
    assert out.failed == harness.CYCLES_PER_TRAIN
    assert all("file bytes" in m for m in out.failures)


def test_wrong_or_missing_reference_counts_as_failed(tmp_path):
    workload = _tiny("toy-sweep")
    refs = dict(workload.references)
    refs["absmean"] = {"final_loss": refs["absmean"]["final_loss"] * (1 + 2 * harness.LOSS_RTOL)}
    del refs["tequila"]
    bench, _ = harness.set_up(replace(workload, references=refs), tmp_path, repeats=1)
    out = bench.run_rounds(0.0, harness.Outcome())
    assert out.failed == 2
    assert any("absmean: final loss" in m for m in out.failures)
    assert any("tequila: no stored reference" in m for m in out.failures)


def test_stored_references_cover_every_input_seed():
    refs = harness.load_references()
    for name in harness.WORKLOADS:
        for seed in (0, harness.REFERENCE_SEEDS - 1, 12345):
            workload = harness.make_workload(name, seed, references=refs)
            assert {c.scheme for c in workload.configs} <= set(workload.references)


def test_digest_is_canonical_json_of_report():
    cfg = training.TrainConfig(steps=2, widths=(4, 4), batch_size=2)
    a, b = training.train_toy(cfg), training.train_toy(cfg)
    assert harness.report_digest(a) == harness.report_digest(b)
    a.losses[-1] = np.nextafter(a.losses[-1], 1.0)
    assert harness.report_digest(a) != harness.report_digest(b)
