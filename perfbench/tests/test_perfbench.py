"""Tests of the benchmark's own logic: span arithmetic, wrapper removal,
input generation, operation accounting, and BENCHMARK.json agreeing with
the metrics the benchmark prints."""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (BENCH, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from agentsynth import pipeline  # noqa: E402
from agentsynth.errors import DataError  # noqa: E402


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_subtracts_direct_children_only():
    # a [0, 10] holds b [1, 7], which holds c [2, 5]; d [7.5, 9] is a's second child
    tracer = spans.Tracer(FakeClock([0, 1, 2, 5, 7, 7.5, 9, 10]))
    a = tracer.start("pipeline.run")
    b = tracer.start("vae.train")
    c = tracer.start("neural.forward")
    tracer.finish(c)
    tracer.finish(b)
    d = tracer.start("vae.train")
    tracer.finish(d)
    tracer.finish(a)
    assert [s.parent for s in tracer.spans] == [-1, 0, 1, 0]
    assert spans.self_times(tracer.spans) == [10 - 6 - 1.5, 6 - 3, 3, 1.5]
    by_name = spans.totals_by_name(tracer.spans)
    assert by_name["vae.train"].calls == 2
    assert by_name["vae.train"].self_s == pytest.approx(4.5)
    assert by_name["vae.train"].total_s == pytest.approx(7.5)
    by_layer = spans.totals_by_layer(tracer.spans)
    assert sum(entry.self_s for entry in by_layer.values()) == pytest.approx(10)
    assert by_layer["vae"].self_s == pytest.approx(4.5)


def test_nested_same_name_spans_count_once_in_totals():
    # ingest_csv calls read_pool_csv; both are "dataset.csv_read"
    tracer = spans.Tracer(FakeClock([0, 1, 3, 4]))
    outer = tracer.start("dataset.csv_read")
    inner = tracer.start("dataset.csv_read")
    tracer.finish(inner, items=50)
    tracer.finish(outer, items=50)
    entry = spans.totals_by_name(tracer.spans)["dataset.csv_read"]
    assert (entry.calls, entry.items, entry.total_s, entry.self_s) == (2, 50, 4, 4)


def test_failed_call_is_recorded_and_reraised():
    tracer = spans.Tracer()

    def broken():
        raise DataError("boom")

    with pytest.raises(DataError):
        spans.wrap(tracer, "bayesnet.exact", broken)()
    assert tracer.spans[0].failed
    assert spans.totals_by_layer(tracer.spans)["bayesnet"].failed == 1


def _tiny_config(out_dir):
    return pipeline.config_from_json({
        "seed": 1,
        "data": {"synthetic": {"kind": "latent-class", "size": 400, "seed": 5,
                               "n_variables": 4, "n_classes": 2, "category_width": 3}},
        "methods": [
            {"name": "vae", "kind": "vae",
             "params": {"hidden": [8], "latent_dim": 2, "epochs": 1, "seed": 3}},
            {"name": "gibbs", "kind": "gibbs",
             "params": {"warmup": 10, "thinning": 1, "seed": 4}},
            {"name": "bn", "kind": "bn", "params": {"algorithm": "tree"}},
        ],
        "generation_count": 50,
    }, out_dir=str(out_dir))


def test_wrappers_are_removed_after_the_traced_pass(tmp_path):
    table = layers.bindings()
    originals = [getattr(module, attr) for module, attr, _, _ in table]
    tracer = spans.Tracer()
    with spans.installed(tracer, table):
        assert all(getattr(module, attr) is not original
                   for (module, attr, _, _), original in zip(table, originals))
        pipeline.run_pipeline(_tiny_config(tmp_path / "ok"))
    assert [getattr(module, attr) for module, attr, _, _ in table] == originals
    metrics = layers.span_metrics(tracer.spans)
    assert metrics["vae.steps"] > 0 and metrics["gibbs.scans"] == 10 + 50
    assert metrics["metrics.freq_calls"] > 0
    with pytest.raises(RuntimeError):
        with spans.installed(spans.Tracer(), table):
            raise RuntimeError("pass failed")
    assert [getattr(module, attr) for module, attr, _, _ in table] == originals


def test_a_binding_listed_twice_is_refused():
    binding = (pipeline, "run_pipeline", "pipeline.run", None)
    with pytest.raises(ValueError):
        with spans.installed(spans.Tracer(), [binding, binding]):
            pass
    assert pipeline.run_pipeline.__name__ == "run_pipeline"
    assert not hasattr(pipeline.run_pipeline, "__wrapped__")


def test_mixed_csv_is_a_function_of_the_seed(tmp_path):
    first, _ = workloads.write_mixed_inputs(7, tmp_path / "a", rows=300)
    again, _ = workloads.write_mixed_inputs(7, tmp_path / "b", rows=300)
    other, schema = workloads.write_mixed_inputs(8, tmp_path / "c", rows=300)
    assert first.read_bytes() == again.read_bytes()
    assert first.read_bytes() != other.read_bytes()
    from agentsynth.dataset import ingest_csv

    pool = ingest_csv(other, json.loads(schema.read_text()))
    assert len(pool) == 300 and pool.schema.mode == "mixed"


def test_at_cap_failure_is_counted_not_raised():
    def refuses(codes, counts, max_vars):
        raise DataError("conditional table too large")

    ops = workloads.Operations()
    workloads.attempt_at_cap(ops, 2, search=refuses)
    assert (ops.attempted, ops.failed) == (1, ["bayesnet.exact-at-cap"])
    ops = workloads.Operations()
    workloads.attempt_at_cap(ops, 2, search=lambda codes, counts, max_vars: None)
    assert (ops.attempted, ops.failed) == (1, [])


def test_benchmark_json_names_what_the_benchmark_prints():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == layers.PER_LAYER
