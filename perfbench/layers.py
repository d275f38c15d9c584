"""Which agentsynth functions a traced pass wraps, and the per-layer
metrics computed from the spans and from the artifacts of a pass.

Layers are the modules of ``src/agentsynth``. Each wrapped function is
listed at every name a caller binds it under, because replacing
``dataset.write_pool_csv`` does not change the copy that
``from .dataset import write_pool_csv`` put into ``pipeline``.
Functions that ``synthdata`` imports stay unwrapped, so data generation
counts as ``synthdata`` time as a whole.

Time metrics named after an operation (``dataset.csv_write_s``) are the
time spent in that operation's outermost calls, children included.
``<layer>.busy_s`` is the layer's self time: its spans minus their child
spans, so busy times add up to at most the traced wall time.
"""

from __future__ import annotations

from spans import NameTotals, totals_by_layer, totals_by_name

LAYERS = ("synthdata", "dataset", "neural", "vae", "gibbs", "bayesnet", "baselines",
          "metrics", "pipeline", "cli")
METHODS = ("vae", "gibbs", "bn", "bn-greedy", "bn-exact")
PIPELINE_STAGES = ("acquire-data", "split", "method:vae", "method:gibbs", "method:bn",
                   "method:bn-greedy", "method:bn-exact", "baselines", "persist-models",
                   "evaluate", "scatter-and-pca")
CLI_COMMANDS = ("prepare", "train", "sample", "evaluate")


def _rows_returned(args, result):
    return len(result)


def _rows_given(args, result):
    return len(args[0])


def _pairs(args, result):
    return len(args[0]) * len(args[1])


def _scans(args, result):
    return result[1]["iterations"]


def bindings() -> list[tuple]:
    """``(module, attribute, span name, work count)`` for every wrapped name."""
    from agentsynth import baselines, bayesnet, cli, dataset, gibbs, metrics, pipeline, vae

    return [
        (pipeline, "run_pipeline", "pipeline.run", None),
        (pipeline, "acquire_data", "pipeline.acquire_data", None),
        (cli, "acquire_data", "pipeline.acquire_data", None),
        (pipeline, "fit_and_sample", "pipeline.fit_and_sample", None),
        (cli, "fit_and_sample", "pipeline.fit_and_sample", None),
        (cli, "load_config", "pipeline.load_config", None),
        (pipeline, "synth_generate", "synthdata.generate", _rows_returned),
        (vae, "forward", "neural.forward", None),
        (vae, "backward", "neural.backward", None),
        (vae, "rmsprop_step", "neural.rmsprop", None),
        (vae, "build_vae", "vae.build", None),
        (vae, "train", "vae.train", None),
        (vae, "loss_and_grads", "vae.step", None),
        (vae, "sample", "vae.sample", _rows_returned),
        (vae, "load_checkpoint", "vae.load", None),
        (vae, "write_training_log", "vae.write", None),
        (gibbs, "estimate_conditionals", "gibbs.fit", None),
        (gibbs, "run_chain", "gibbs.chain", _scans),
        (gibbs, "write_diagnostics", "gibbs.write", None),
        (bayesnet, "chow_liu", "bayesnet.tree", None),
        (bayesnet, "greedy_search", "bayesnet.greedy", None),
        (bayesnet, "exact_search", "bayesnet.exact", None),
        (bayesnet, "fit_cpts", "bayesnet.fit_cpts", None),
        (bayesnet, "ancestral_sample", "bayesnet.sample", _rows_returned),
        (bayesnet, "bn_to_dict", "bayesnet.save", None),
        (bayesnet, "load_bn", "bayesnet.load", None),
        (baselines, "fit_marginals", "baselines.fit", None),
        (baselines, "marginal_sample", "baselines.marginal", _rows_returned),
        (baselines, "resample_training", "baselines.resample", _rows_returned),
        (metrics, "evaluate", "metrics.evaluate", None),
        (metrics, "frequency_distribution_from_codes", "metrics.freq", None),
        (metrics, "cramers_v_from_codes", "metrics.cramers_v", None),
        (metrics, "nearest_sample_stats", "metrics.nearest", _pairs),
        (metrics, "codes_for_pool", "metrics.codes", _rows_given),
        (metrics, "write_scatter_csv", "metrics.scatter", None),
        (metrics, "pca_fit", "metrics.pca", None),
        (metrics, "pca_project", "metrics.pca", None),
        (metrics, "write_pca_csv", "metrics.pca", None),
        (metrics, "report_to_json", "metrics.report", None),
        (metrics, "write_report_csv", "metrics.report", None),
        (dataset, "read_pool_csv", "dataset.csv_read", _rows_returned),
        (cli, "read_pool_csv", "dataset.csv_read", _rows_returned),
        (pipeline, "ingest_csv", "dataset.csv_read", _rows_returned),
        (pipeline, "write_pool_csv", "dataset.csv_write", _rows_given),
        (cli, "write_pool_csv", "dataset.csv_write", _rows_given),
        (pipeline, "encode_pool", "dataset.encode", _rows_given),
        (metrics, "encode_pool", "dataset.encode", _rows_given),
        (pipeline, "pool_to_codes", "dataset.to_codes", _rows_given),
        (gibbs, "pool_to_codes", "dataset.to_codes", _rows_given),
        (baselines, "pool_to_codes", "dataset.to_codes", _rows_given),
        (vae, "matrix_to_codes", "dataset.to_codes", _rows_given),
        (pipeline, "codes_to_pool", "dataset.from_codes", _rows_returned),
        (gibbs, "codes_to_pool", "dataset.from_codes", _rows_returned),
        (baselines, "codes_to_pool", "dataset.from_codes", _rows_returned),
        (cli, "codes_to_pool", "dataset.from_codes", _rows_returned),
        (vae, "decode_rows", "dataset.decode_rows", _rows_returned),
        (pipeline, "split_pool", "dataset.split", _rows_given),
        (cli, "split_pool", "dataset.split", _rows_given),
    ]


# name -> unit, better; the order is the order of BENCHMARK.json
PER_LAYER = {
    "gibbs.fit_s": ("s", "lower"),
    "gibbs.chain_s": ("s", "lower"),
    "gibbs.scans": ("count", "lower"),
    "gibbs.scan_us": ("us", "lower"),
    "gibbs.distinct_ratio": ("ratio", "higher"),
    "vae.train_s": ("s", "lower"),
    "vae.steps": ("count", "lower"),
    "vae.step_ms": ("ms", "lower"),
    "vae.sample_s": ("s", "lower"),
    "vae.final_loss": ("nats", "lower"),
    "neural.forward_ms": ("ms", "lower"),
    "neural.backward_ms": ("ms", "lower"),
    "neural.rmsprop_ms": ("ms", "lower"),
    "metrics.evaluate_s": ("s", "lower"),
    "metrics.freq_calls": ("count", "lower"),
    "metrics.freq_us": ("us", "lower"),
    "metrics.cramers_v_calls": ("count", "lower"),
    "metrics.codes_s": ("s", "lower"),
    "metrics.scatter_s": ("s", "lower"),
    "metrics.pca_s": ("s", "lower"),
    "metrics.nearest_s": ("s", "lower"),
    "metrics.nearest_pairs_per_s": ("1/s", "higher"),
    **{f"metrics.mu_ns.{m}": ("rmse", "higher") for m in METHODS},
    **{f"metrics.srmse_tri.{m}": ("srmse", "lower") for m in METHODS},
    "dataset.csv_write_s": ("s", "lower"),
    "dataset.csv_write_rows_per_s": ("1/s", "higher"),
    "dataset.csv_read_s": ("s", "lower"),
    "dataset.csv_read_rows_per_s": ("1/s", "higher"),
    "dataset.encode_s": ("s", "lower"),
    "dataset.to_codes_s": ("s", "lower"),
    "dataset.from_codes_s": ("s", "lower"),
    "dataset.decode_rows_s": ("s", "lower"),
    "dataset.split_s": ("s", "lower"),
    "bayesnet.tree_s": ("s", "lower"),
    "bayesnet.greedy_s": ("s", "lower"),
    "bayesnet.exact_s": ("s", "lower"),
    "bayesnet.fit_cpts_s": ("s", "lower"),
    "bayesnet.sample_s": ("s", "lower"),
    "bayesnet.exact_mdl_gap": ("nats", "higher"),
    "bayesnet.exact_at_cap_failed": ("count", "lower"),
    "baselines.s": ("s", "lower"),
    "synthdata.generate_s": ("s", "lower"),
    **{f"cli.{c}_s": ("s", "lower") for c in CLI_COMMANDS},
    "cli.exit_nonzero": ("count", "lower"),
    **{f"pipeline.{stage.replace(':', '-')}_s": ("s", "lower") for stage in PIPELINE_STAGES},
    **{f"{layer}.{kind}": unit for layer in LAYERS
       for kind, unit in (("calls", ("count", "lower")), ("busy_s", ("s", "lower")),
                          ("failed", ("count", "lower")))},
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.covered_ratio": ("ratio", "higher"),
}


def span_metrics(spans) -> dict[str, float]:
    """Per-layer metrics that come from the spans of one traced pass."""
    names = totals_by_name(spans)
    layers = totals_by_layer(spans)

    def get(name: str) -> NameTotals:
        return names.get(name, NameTotals())

    def total(*names_):
        return sum(get(n).total_s for n in names_)

    def per_call(name: str, scale: float) -> float:
        entry = get(name)
        return entry.total_s / entry.calls * scale if entry.calls else 0.0

    def rate(name: str) -> float:
        entry = get(name)
        return entry.items / entry.total_s if entry.total_s > 0 else 0.0

    scans = get("gibbs.chain").items
    out = {
        "gibbs.fit_s": total("gibbs.fit"),
        "gibbs.chain_s": total("gibbs.chain"),
        "gibbs.scans": scans,
        "gibbs.scan_us": total("gibbs.chain") / scans * 1e6 if scans else 0.0,
        "vae.train_s": total("vae.train"),
        "vae.steps": get("vae.step").calls,
        "vae.step_ms": per_call("vae.step", 1e3),
        "vae.sample_s": total("vae.sample"),
        "neural.forward_ms": per_call("neural.forward", 1e3),
        "neural.backward_ms": per_call("neural.backward", 1e3),
        "neural.rmsprop_ms": per_call("neural.rmsprop", 1e3),
        "metrics.evaluate_s": total("metrics.evaluate"),
        "metrics.freq_calls": get("metrics.freq").calls,
        "metrics.freq_us": per_call("metrics.freq", 1e6),
        "metrics.cramers_v_calls": get("metrics.cramers_v").calls,
        "metrics.codes_s": total("metrics.codes"),
        "metrics.scatter_s": total("metrics.scatter"),
        "metrics.pca_s": total("metrics.pca"),
        "metrics.nearest_s": total("metrics.nearest"),
        "metrics.nearest_pairs_per_s": rate("metrics.nearest"),
        "dataset.csv_write_s": total("dataset.csv_write"),
        "dataset.csv_write_rows_per_s": rate("dataset.csv_write"),
        "dataset.csv_read_s": total("dataset.csv_read"),
        "dataset.csv_read_rows_per_s": rate("dataset.csv_read"),
        "dataset.encode_s": total("dataset.encode"),
        "dataset.to_codes_s": total("dataset.to_codes"),
        "dataset.from_codes_s": total("dataset.from_codes"),
        "dataset.decode_rows_s": total("dataset.decode_rows"),
        "dataset.split_s": total("dataset.split"),
        "bayesnet.tree_s": total("bayesnet.tree"),
        "bayesnet.greedy_s": total("bayesnet.greedy"),
        "bayesnet.exact_s": total("bayesnet.exact"),
        "bayesnet.fit_cpts_s": total("bayesnet.fit_cpts"),
        "bayesnet.sample_s": total("bayesnet.sample"),
        "baselines.s": total("baselines.fit", "baselines.marginal", "baselines.resample"),
        "synthdata.generate_s": total("synthdata.generate"),
    }
    for command in CLI_COMMANDS:
        out[f"cli.{command}_s"] = total(f"cli.{command}")
    for layer in LAYERS:
        entry = layers.get(layer, NameTotals())
        out[f"{layer}.calls"] = entry.calls
        out[f"{layer}.busy_s"] = entry.self_s
        out[f"{layer}.failed"] = entry.failed
    return out


def artifact_metrics(facts: dict) -> dict[str, float]:
    """Per-layer metrics read from a pass's artifacts (see ``pass_facts``).
    A method or stage the workload does not run reads 0."""
    report = facts.get("report", {})
    out = {
        "gibbs.distinct_ratio": facts.get("gibbs_distinct_ratio", 0.0),
        "vae.final_loss": facts.get("vae_final_loss", 0.0),
        "bayesnet.exact_mdl_gap": facts["mdl"]["bn-exact"] - facts["mdl"]["bn-greedy"]
        if "mdl" in facts else 0.0,
    }
    for method in METHODS:
        row = report.get(method, {})
        out[f"metrics.mu_ns.{method}"] = row.get("mu_ns", 0.0)
        out[f"metrics.srmse_tri.{method}"] = row.get("srmse_tri", 0.0)
    timings = facts.get("timings_seconds", {})
    for stage in PIPELINE_STAGES:
        out[f"pipeline.{stage.replace(':', '-')}_s"] = timings.get(stage, 0.0)
    return out
