"""End-to-end experiment orchestration.

A pipeline run ingests (or synthesizes) a population sample, splits it,
fits each configured generator, samples a pool per generator, and scores
everything with the shared evaluation protocol. Artifacts land in the
output directory:

    schema.json                resolved variable schema
    data/{source,train,validation,test}.csv
    pools/<method>.csv         one generated pool per method and baseline
    models/...                 VAE checkpoint, BN model, Gibbs diagnostics
    report.json, report.csv    the metric table
    scatter/<method>__<view>.csv
    pca/<pool>.csv             coordinates in the training data's components
    run_info.json              stage timings and status (non-deterministic)

All randomness flows from one master seed through named substreams, so two
runs with the same configuration produce byte-identical report JSON;
wall-clock timings are confined to run_info.json.
"""

from __future__ import annotations

import json
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import baselines, bayesnet, gibbs, metrics, vae
from .dataset import (
    AgentPool,
    codes_to_pool,
    encode_pool,
    ingest_csv,
    pool_to_codes,
    schema_to_json,
    split_pool,
    write_pool_csv,
)
from .errors import ConfigError, DataError
from .synthdata import SyntheticGeneratorSpec, spec_from_json, synth_generate

METHOD_KINDS = ("vae", "gibbs", "bn")
BASELINE_NAMES = ("marginal-sampler", "resample-training")
PCA_COMPONENTS = 5


def substream(master_seed: int, *labels) -> np.random.Generator:
    """Independent generator for a named stage of the pipeline."""
    key = tuple(zlib.crc32(str(label).encode()) for label in labels)
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=key))


@dataclass(frozen=True)
class MethodSpec:
    name: str
    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in METHOD_KINDS:
            raise ConfigError(f"unknown method kind {self.kind!r}")
        if self.name in BASELINE_NAMES or self.name == "training-set":
            raise ConfigError(f"method name {self.name!r} is reserved")


@dataclass
class ExperimentConfig:
    seed: int
    out_dir: str
    data_csv: str | None = None
    schema: dict | str | None = None
    synthetic: SyntheticGeneratorSpec | None = None
    train_frac: float = 0.2
    val_frac_of_train: float = 0.25
    methods: list[MethodSpec] = field(default_factory=list)
    generation_count: int = 10000
    projection: list[str] | None = None

    def __post_init__(self):
        if self.generation_count < 1:
            raise ConfigError("generation_count must be positive")
        if (self.data_csv is None) == (self.synthetic is None):
            raise ConfigError("configure exactly one of data_csv or synthetic")
        if self.data_csv is not None and self.schema is None:
            raise ConfigError("CSV data needs a schema document or path")
        names = [m.name for m in self.methods]
        if len(set(names)) != len(names):
            raise ConfigError("method names must be unique")


def config_from_json(doc: dict, out_dir: str | None = None) -> ExperimentConfig:
    try:
        methods = [
            MethodSpec(m.get("name", m["kind"]), m["kind"], m.get("params", {}))
            for m in doc.get("methods", [])
        ]
    except KeyError as exc:
        raise ConfigError(f"method entry missing {exc.args[0]!r}") from None
    data = doc.get("data", {})
    synthetic = None
    if "synthetic" in data:
        synthetic = spec_from_json(data["synthetic"])
    config = ExperimentConfig(
        seed=int(doc.get("seed", 0)),
        out_dir=out_dir or doc.get("out_dir", "out"),
        data_csv=data.get("csv"),
        schema=data.get("schema"),
        synthetic=synthetic,
        train_frac=float(doc.get("split", {}).get("train_frac", 0.2)),
        val_frac_of_train=float(doc.get("split", {}).get("val_frac_of_train", 0.25)),
        methods=methods,
        generation_count=int(doc.get("generation_count", 10000)),
        projection=doc.get("projection"),
    )
    return config


def load_config(path, out_dir: str | None = None, seed: int | None = None) -> ExperimentConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    config = config_from_json(doc, out_dir=out_dir)
    if seed is not None:
        config.seed = seed
    return config


# ---------------------------------------------------------------------------
# stages


def acquire_data(config: ExperimentConfig) -> AgentPool:
    if config.synthetic is not None:
        return synth_generate(config.synthetic)
    schema_doc = config.schema
    if isinstance(schema_doc, str):
        with open(schema_doc) as fh:
            schema_doc = json.load(fh)
    return ingest_csv(config.data_csv, schema_doc)


def fit_and_sample(method: MethodSpec, train: AgentPool, validation: AgentPool,
                   count: int, rng_fit: np.random.Generator,
                   rng_sample: np.random.Generator) -> tuple[AgentPool, dict]:
    """Fit one generator and draw its pool. Returns the pool plus an
    artifact dict for persistence (checkpoints, diagnostics, logs)."""
    params = dict(method.params)
    if method.kind == "vae":
        schema = train.schema
        enc_train = encode_pool(train)
        enc_val = encode_pool(validation, standardization=enc_train.standardization)
        config = vae.TrainConfig(
            epochs=params.get("epochs", 100),
            batch_size=params.get("batch_size", 64),
            seed=params.get("seed", int(rng_fit.integers(2 ** 31))),
            learning_rate=params.get("learning_rate", 0.001),
            hidden_options=[tuple(h) for h in params["hidden_options"]]
            if "hidden_options" in params else None,
            latent_options=params.get("latent_options"),
            beta_options=params.get("beta_options"),
            selection_variables=params.get("selection_variables"),
            selection_samples=params.get("selection_samples"),
            harden=params.get("harden", "argmax"),
        )
        config.grid()  # surface partial-grid errors before any training
        model = vae.build_vae(schema,
                              tuple(params.get("hidden", (50,))),
                              params.get("latent_dim", 10),
                              params.get("beta", 0.5),
                              rng_fit)
        result = vae.train(model, enc_train, enc_val, config)
        pool = vae.sample(result.model, count, rng_sample, harden=config.harden)
        artifact = {
            "kind": "vae",
            "checkpoint": vae.vae_to_dict(result.model, extra={
                "grid": result.grid_records, "selection_score": result.selection_score}),
            "history": result.history,
        }
        return pool, artifact
    if method.kind == "gibbs":
        tables = gibbs.estimate_conditionals(train)
        chain = gibbs.ChainConfig(
            target_count=count,
            warmup=params.get("warmup", 20000),
            thinning=params.get("thinning", 20),
            seed=params.get("seed", int(rng_fit.integers(2 ** 31))),
            restart_on_unreachable=params.get("restart_on_unreachable", False),
        )
        pool, diagnostics = gibbs.run_chain(tables, train, chain)
        return pool, {"kind": "gibbs", "diagnostics": diagnostics}
    # Bayesian network; conditionals are frequency tables, so every variable
    # must be categorical (numerics converted via bins)
    if train.schema.mode != "discretize-all":
        raise ConfigError("the bn method needs a discretize-all schema")
    algorithm = params.get("algorithm", "tree")
    codes = pool_to_codes(train)
    counts = train.schema.value_counts
    started = time.perf_counter()
    if algorithm == "tree":
        dag = bayesnet.chow_liu(codes, counts)
    elif algorithm == "greedy":
        dag = bayesnet.greedy_search(codes, counts, max_parents=params.get("max_parents", 3))
    elif algorithm == "exact":
        dag = bayesnet.exact_search(codes, counts, max_vars=params.get("max_vars", 12))
    else:
        raise ConfigError(f"unknown BN algorithm {algorithm!r}")
    runtime = time.perf_counter() - started
    cpts = bayesnet.fit_cpts(dag, codes, counts)
    sampled = bayesnet.ancestral_sample(dag, cpts, count, rng_sample)
    pool = codes_to_pool(sampled, train.schema, provenance="generated", rng=rng_sample)
    return pool, {"kind": "bn",
                  "model": bayesnet.bn_to_dict(dag, cpts, algorithm, runtime)}


def run_pipeline(config: ExperimentConfig) -> metrics.EvalReport:
    """Execute every stage and write all artifacts; returns the report."""
    out = Path(config.out_dir)
    timings: dict[str, float] = {}
    run_info = {"status": "running", "stage": None, "timings_seconds": timings}
    stage = "setup"

    def advance(name: str):
        nonlocal stage
        stage = name
        run_info["stage"] = name
        return time.perf_counter()

    try:
        out.mkdir(parents=True, exist_ok=True)
        (out / "data").mkdir(exist_ok=True)
        (out / "pools").mkdir(exist_ok=True)
        (out / "models").mkdir(exist_ok=True)
        (out / "scatter").mkdir(exist_ok=True)
        (out / "pca").mkdir(exist_ok=True)

        t0 = advance("acquire-data")
        source = acquire_data(config)
        schema = source.schema
        projection = None
        if config.projection is not None:
            try:
                projection = [schema.index(name) for name in config.projection]
            except DataError as exc:
                raise ConfigError(f"projection: {exc}") from None
        with open(out / "schema.json", "w") as fh:
            json.dump(schema_to_json(schema), fh, indent=2)
        write_pool_csv(source, out / "data" / "source.csv")
        timings[stage] = time.perf_counter() - t0

        t0 = advance("split")
        split_seed = int(substream(config.seed, "split").integers(2 ** 31))
        train, validation, test = split_pool(
            source, config.train_frac, config.val_frac_of_train, split_seed)
        write_pool_csv(train, out / "data" / "train.csv")
        write_pool_csv(validation, out / "data" / "validation.csv")
        write_pool_csv(test, out / "data" / "test.csv")
        timings[stage] = time.perf_counter() - t0

        pools: dict[str, AgentPool] = {}
        artifacts: dict[str, dict] = {}
        for index, method in enumerate(config.methods):
            t0 = advance(f"method:{method.name}")
            rng_fit = substream(config.seed, "method", index, method.name, "fit")
            rng_sample = substream(config.seed, "method", index, method.name, "sample")
            pool, artifact = fit_and_sample(method, train, validation,
                                            config.generation_count, rng_fit, rng_sample)
            pools[method.name] = pool
            artifacts[method.name] = artifact
            write_pool_csv(pool, out / "pools" / f"{method.name}.csv")
            timings[stage] = time.perf_counter() - t0

        t0 = advance("baselines")
        marginal = baselines.fit_marginals(train)
        pools["marginal-sampler"] = baselines.marginal_sample(
            marginal, config.generation_count, substream(config.seed, "baseline", "marginal"))
        pools["resample-training"] = baselines.resample_training(
            train, config.generation_count, substream(config.seed, "baseline", "resample"))
        for name in BASELINE_NAMES:
            write_pool_csv(pools[name], out / "pools" / f"{name}.csv")
        timings[stage] = time.perf_counter() - t0

        t0 = advance("persist-models")
        for name, artifact in artifacts.items():
            if artifact["kind"] == "vae":
                with open(out / "models" / f"{name}.json", "w") as fh:
                    json.dump(artifact["checkpoint"], fh)
                vae.write_training_log(artifact["history"],
                                       out / "models" / f"{name}-training-log.csv")
            elif artifact["kind"] == "gibbs":
                gibbs.write_diagnostics(artifact["diagnostics"],
                                        out / "models" / f"{name}-diagnostics.json")
            else:
                with open(out / "models" / f"{name}.json", "w") as fh:
                    json.dump(artifact["model"], fh)
        timings[stage] = time.perf_counter() - t0

        t0 = advance("evaluate")
        metadata = {
            "master_seed": config.seed,
            "generation_count": config.generation_count,
            "split": {"train_frac": config.train_frac,
                      "val_frac_of_train": config.val_frac_of_train,
                      "seed": split_seed},
            "sizes": {"train": len(train), "validation": len(validation), "test": len(test)},
            "methods": [{"name": m.name, "kind": m.kind, "params": m.params}
                        for m in config.methods],
            "projection": config.projection or list(schema.names[:min(4, schema.n_variables)]),
            "bin_policy": "uniform bins over the observed range; last bin right-closed",
            "schema": schema_to_json(schema),
        }
        report = metrics.evaluate(pools, test, train, projection=projection,
                                  metadata=metadata)
        with open(out / "report.json", "w") as fh:
            fh.write(metrics.report_to_json(report))
        metrics.write_report_csv(report, out / "report.csv")
        timings[stage] = time.perf_counter() - t0

        t0 = advance("scatter-and-pca")
        for name in pools:
            for view, test_vec in report.test_vectors.items():
                metrics.write_scatter_csv(report.vectors[name][view], test_vec,
                                          out / "scatter" / f"{name}__{view}.csv")
        enc_train = encode_pool(train)
        pca = metrics.pca_fit(enc_train)
        k = min(PCA_COMPONENTS, enc_train.values.shape[1])
        metrics.write_pca_csv(metrics.pca_project(pca, enc_train, k), out / "pca" / "train.csv")
        for name, pool in pools.items():
            enc = encode_pool(pool, standardization=enc_train.standardization)
            metrics.write_pca_csv(metrics.pca_project(pca, enc, k),
                                  out / "pca" / f"{name}.csv")
        timings[stage] = time.perf_counter() - t0

        run_info["status"] = "ok"
        run_info["stage"] = None
        return report
    except Exception as exc:
        run_info["status"] = "failed"
        run_info["error"] = f"{type(exc).__name__}: {exc}"
        raise
    finally:
        try:
            with open(out / "run_info.json", "w") as fh:
                json.dump(run_info, fh, indent=2)
        except OSError:
            pass
