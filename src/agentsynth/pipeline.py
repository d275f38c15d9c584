"""End-to-end experiment orchestration.

An experiment ingests (or synthesizes) a population sample, splits it,
fits each configured generator, samples a pool per generator, and scores
every pool with the shared evaluation protocol. Each step is one stage
function that takes in-memory inputs, writes its artifacts under the output
directory and returns its outputs:

    prepare_data    schema.json, data/{source,train,validation,test}.csv
    train_method    models/<method>.json (+ <method>-training-log.csv, VAE)
    sample_method   pools/<method>.csv (+ models/<method>-diagnostics.json, Gibbs)
    evaluate_pools  report.json, report.csv; draws and scores the baselines

:func:`run_pipeline` chains the stages in memory and the staged CLI
subcommands call them on files; both time them with :func:`recorded_stages`,
which writes run_info.json. Only run_pipeline also writes the baseline
pools, scatter/<pool>__<view>.csv and pca/<pool>.csv.

All randomness flows from one master seed through named substreams, so two
runs with the same configuration produce byte-identical report JSON;
wall-clock timings are confined to run_info.json.
"""

from __future__ import annotations

import json
import time
import zlib
from contextlib import contextmanager
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
    read_json,
    schema_to_json,
    split_pool,
    write_pool_csv,
)
from .errors import ConfigError, DataError, expect
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
    """The configuration a JSON document describes; a value of the wrong
    type is a ConfigError, never coerced."""
    expect(doc, "an object", "the configuration")
    methods = []
    for m in expect(doc.get("methods", []), "a list", "methods"):
        if "kind" not in expect(m, "an object", "a method entry"):
            raise ConfigError("method entry missing 'kind'")
        name = expect(m.get("name", m["kind"]), "a string", "a method name")
        methods.append(MethodSpec(name, m["kind"], expect(m.get("params", {}), "an object",
                                                          f"method {name!r}: params")))
    data = expect(doc.get("data", {}), "an object", "data")
    split = expect(doc.get("split", {}), "an object", "split")
    projection, data_csv = doc.get("projection"), data.get("csv")
    if projection is not None:
        expect(projection, "a list of names", "projection")
    if data_csv is not None:
        expect(data_csv, "a string", "data.csv")
    return ExperimentConfig(
        seed=expect(doc.get("seed", 0), "an integer", "seed"),
        out_dir=out_dir or expect(doc.get("out_dir", "out"), "a string", "out_dir"),
        data_csv=data_csv,
        schema=data.get("schema"),
        synthetic=spec_from_json(data["synthetic"]) if "synthetic" in data else None,
        train_frac=float(expect(split.get("train_frac", 0.2), "a number", "split.train_frac")),
        val_frac_of_train=float(expect(split.get("val_frac_of_train", 0.25), "a number",
                                       "split.val_frac_of_train")),
        methods=methods,
        generation_count=expect(doc.get("generation_count", 10000), "an integer",
                                "generation_count"),
        projection=projection,
    )


def load_config(path, out_dir: str | None = None, seed: int | None = None) -> ExperimentConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror or exc}") from None
    except ValueError as exc:  # not UTF-8 text, or not JSON
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    config = config_from_json(doc, out_dir=out_dir)
    if seed is not None:
        config.seed = seed
    return config


# ---------------------------------------------------------------------------
# stages


@contextmanager
def recorded_stages(out: Path):
    """Yield ``stage(name)``, a context manager timing one stage, and write
    ``out/run_info.json``: each finished stage's seconds, the status and, on
    failure, the failing stage and the error."""
    run_info = {"status": "running", "stage": None, "timings_seconds": {}}

    @contextmanager
    def stage(name: str):
        run_info["stage"] = name
        started = time.perf_counter()
        yield
        run_info["timings_seconds"][name] = time.perf_counter() - started

    try:
        out.mkdir(parents=True, exist_ok=True)
        yield stage
        run_info.update(status="ok", stage=None)
    except Exception as exc:
        run_info.update(status="failed", error=f"{type(exc).__name__}: {exc}")
        raise
    finally:
        try:
            with open(out / "run_info.json", "w") as fh:
                json.dump(run_info, fh, indent=2)
        except OSError:
            pass


def acquire_data(config: ExperimentConfig) -> AgentPool:
    if config.synthetic is not None:
        return synth_generate(config.synthetic)
    schema_doc = config.schema
    if isinstance(schema_doc, str):
        schema_doc = read_json(schema_doc)
    return ingest_csv(config.data_csv, schema_doc)


def _projection(config: ExperimentConfig, schema) -> list[int] | None:
    if config.projection is None:
        return None
    try:
        return [schema.index(name) for name in config.projection]
    except DataError as exc:
        raise ConfigError(f"projection: {exc}") from None


def _split_seed(config: ExperimentConfig) -> int:
    return int(substream(config.seed, "split").integers(2 ** 31))


def _method_stream(config: ExperimentConfig, method: MethodSpec,
                   purpose: str) -> np.random.Generator:
    index = config.methods.index(method)
    return substream(config.seed, "method", index, method.name, purpose)


def write_source(source: AgentPool, out: Path) -> None:
    """Write the resolved schema and the whole sample."""
    (out / "data").mkdir(parents=True, exist_ok=True)
    with open(out / "schema.json", "w") as fh:
        json.dump(schema_to_json(source.schema), fh, indent=2)
    write_pool_csv(source, out / "data" / "source.csv")


def prepare_data(config: ExperimentConfig, out: Path) -> tuple[AgentPool, AgentPool, AgentPool]:
    """Acquire the sample, write it with its schema, split it and write the
    splits; returns the train, validation and test pools."""
    source = acquire_data(config)
    _projection(config, source.schema)  # a bad projection fails before any training
    write_source(source, out)
    splits = split_pool(source, config.train_frac, config.val_frac_of_train,
                        _split_seed(config))
    for name, pool in zip(("train", "validation", "test"), splits):
        write_pool_csv(pool, out / "data" / f"{name}.csv")
    return splits


def train_method(config: ExperimentConfig, method: MethodSpec, train: AgentPool,
                 validation: AgentPool, out: Path):
    """Fit ``method`` and write its model to ``models/<name>.json``; returns
    the model :func:`sample_method` takes: a VAE network, a BN's DAG and
    CPTs, or the Gibbs chain's resolved settings, seed included."""
    rng_fit = _method_stream(config, method, "fit")
    (out / "models").mkdir(parents=True, exist_ok=True)
    path = out / "models" / f"{method.name}.json"

    def param(key: str, default, need: str = "an integer"):
        """``params[key]``, which must be ``need``, else ``default``."""
        if key not in method.params:
            return default
        return expect(method.params[key], need, f"method {method.name!r}: {key}")

    if method.kind == "vae":
        enc_train = encode_pool(train)
        enc_val = encode_pool(validation, standardization=enc_train.standardization)
        hidden_options = param("hidden_options", None, "a list of integer lists")
        train_config = vae.TrainConfig(
            epochs=param("epochs", 100),
            batch_size=param("batch_size", 64),
            seed=param("seed", int(rng_fit.integers(2 ** 31))),
            learning_rate=param("learning_rate", 0.001, "a number"),
            hidden_options=None if hidden_options is None else [tuple(h) for h in hidden_options],
            latent_options=param("latent_options", None, "a list of integers"),
            beta_options=param("beta_options", None, "a list of numbers"),
            selection_variables=param("selection_variables", None, "a list of names"),
            selection_samples=param("selection_samples", None),
            harden=param("harden", "argmax", "a string"),
        )
        train_config.grid()  # surface partial-grid errors before any training
        model = vae.build_vae(train.schema,
                              tuple(param("hidden", (50,), "a list of integers")),
                              param("latent_dim", 10),
                              param("beta", 0.5, "a number"),
                              rng_fit)
        result = vae.train(model, enc_train, enc_val, train_config)
        vae.save_checkpoint(result.model, path, extra={
            "grid": result.grid_records, "selection_score": result.selection_score})
        vae.write_training_log(result.history,
                               out / "models" / f"{method.name}-training-log.csv")
        return result.model
    if method.kind == "gibbs":
        chain = gibbs.chain_to_dict(gibbs.ChainConfig(
            target_count=config.generation_count,
            warmup=param("warmup", 20000),
            thinning=param("thinning", 20),
            seed=param("seed", int(rng_fit.integers(2 ** 31))),
        ))
        with open(path, "w") as fh:
            json.dump(chain, fh, indent=2)
        return chain
    # Bayesian network; conditionals are frequency tables, so every variable
    # must be categorical (numerics converted via bins)
    if train.schema.mode != "discretize-all":
        raise ConfigError("the bn method needs a discretize-all schema")
    algorithm = param("algorithm", "tree", "a string")
    codes = pool_to_codes(train)
    counts = train.schema.value_counts
    started = time.perf_counter()
    if algorithm == "tree":
        dag = bayesnet.chow_liu(codes, counts)
    elif algorithm == "greedy":
        dag = bayesnet.greedy_search(codes, counts, max_parents=param("max_parents", 3))
    elif algorithm == "exact":
        dag = bayesnet.exact_search(codes, counts, max_vars=param("max_vars", 12))
    else:
        raise ConfigError(f"unknown BN algorithm {algorithm!r}")
    runtime = time.perf_counter() - started
    cpts = bayesnet.fit_cpts(dag, codes, counts)
    bayesnet.save_bn(dag, cpts, algorithm, path, runtime, bayesnet.mdl_score(dag, codes, counts))
    return dag, cpts


# perfbench/layers.py binds this name on pipeline and cli; it stays until
# the benchmark's spans move to the stage functions
fit_and_sample = train_method


def load_model(method: MethodSpec, out: Path):
    """Read the model :func:`train_method` wrote for ``method``."""
    path = out / "models" / f"{method.name}.json"
    if not path.exists():
        raise DataError(f"{path} not found; run 'train' first")
    if method.kind == "vae":
        return vae.load_checkpoint(path)
    if method.kind == "bn":
        return bayesnet.load_bn(path)
    return read_json(path)


def sample_method(config: ExperimentConfig, method: MethodSpec, model, schema, count: int,
                  out: Path, train: AgentPool | None = None) -> AgentPool:
    """Draw ``count`` agents from ``method``'s model and write
    ``pools/<name>.csv``. Only Gibbs takes ``train``: its chain runs on
    conditionals estimated from the training rows."""
    rng_sample = _method_stream(config, method, "sample")
    if method.kind == "vae":
        pool = vae.sample(model, count, rng_sample, harden=method.params.get("harden", "argmax"))
    elif method.kind == "gibbs":
        tables = gibbs.estimate_conditionals(train)
        pool, diagnostics = gibbs.run_chain(tables, train, gibbs.chain_from_dict(model, count))
        gibbs.write_diagnostics(diagnostics,
                                out / "models" / f"{method.name}-diagnostics.json")
    else:
        dag, cpts = model
        codes = bayesnet.ancestral_sample(dag, cpts, count, rng_sample)
        pool = codes_to_pool(codes, schema, provenance="generated", rng=rng_sample)
    (out / "pools").mkdir(parents=True, exist_ok=True)
    write_pool_csv(pool, out / "pools" / f"{method.name}.csv")
    return pool


def evaluate_pools(config: ExperimentConfig, pools: dict[str, AgentPool], train: AgentPool,
                   validation: AgentPool, test: AgentPool,
                   out: Path) -> tuple[metrics.EvalReport, dict[str, AgentPool]]:
    """Draw the two baselines, score them after ``pools`` against the test
    split, and write ``report.json`` and ``report.csv``; returns the report
    and the baseline pools."""
    schema = test.schema
    projection = _projection(config, schema)
    baseline_pools = {
        "marginal-sampler": baselines.marginal_sample(
            baselines.fit_marginals(train), config.generation_count,
            substream(config.seed, "baseline", "marginal")),
        "resample-training": baselines.resample_training(
            train, config.generation_count, substream(config.seed, "baseline", "resample")),
    }
    metadata = {
        "master_seed": config.seed,
        "generation_count": config.generation_count,
        "split": {"train_frac": config.train_frac,
                  "val_frac_of_train": config.val_frac_of_train,
                  "seed": _split_seed(config)},
        "sizes": {"train": len(train), "validation": len(validation), "test": len(test)},
        "methods": [{"name": m.name, "kind": m.kind, "params": m.params}
                    for m in config.methods],
        "projection": config.projection or list(schema.names[:min(4, schema.n_variables)]),
        "bin_policy": "uniform bins over the observed range; last bin right-closed",
        "schema": schema_to_json(schema),
    }
    report = metrics.evaluate({**pools, **baseline_pools}, test, train,
                              projection=projection, metadata=metadata)
    with open(out / "report.json", "w") as fh:
        fh.write(metrics.report_to_json(report))
    metrics.write_report_csv(report, out / "report.csv")
    return report, baseline_pools


def write_run_outputs(report: metrics.EvalReport, train: AgentPool,
                      pools: dict[str, AgentPool], out: Path) -> None:
    """What only :func:`run_pipeline` writes: the baseline pools, and every
    pool's scatter data and coordinates in the training data's components."""
    for directory in ("pools", "scatter", "pca"):
        (out / directory).mkdir(exist_ok=True)
    for name in BASELINE_NAMES:
        write_pool_csv(pools[name], out / "pools" / f"{name}.csv")
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
        metrics.write_pca_csv(metrics.pca_project(pca, enc, k), out / "pca" / f"{name}.csv")


def run_pipeline(config: ExperimentConfig) -> metrics.EvalReport:
    """Execute every stage and write all artifacts; returns the report."""
    out = Path(config.out_dir)
    with recorded_stages(out) as stage:
        with stage("prepare"):
            train, validation, test = prepare_data(config, out)
        pools: dict[str, AgentPool] = {}
        for method in config.methods:
            with stage(f"train:{method.name}"):
                model = train_method(config, method, train, validation, out)
            with stage(f"sample:{method.name}"):
                pools[method.name] = sample_method(config, method, model, train.schema,
                                                   config.generation_count, out, train)
        with stage("evaluate"):
            report, baseline_pools = evaluate_pools(config, pools, train, validation, test, out)
        with stage("scatter-and-pca"):
            write_run_outputs(report, train, {**pools, **baseline_pools}, out)
    return report
