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

A method's params build its settings once, when the configuration loads
(:class:`MethodSpec`); the stages read only those.

:func:`run_pipeline` chains the stages in memory and the staged CLI
subcommands call them on files; both time them with :func:`recorded_stages`,
which writes run_info.json. Only run_pipeline also writes the baseline
pools, scatter/<view>.csv and pca/<pool>.csv (and pca/train.csv). A scatter
file has one row per bin of the view: bin_id, test_frequency, then one
column per pool named after it, the methods in configuration order and then
the two baselines. Scatter rows are formatted, and PCA coordinates encoded,
projected and formatted, in blocks of dataset.CSV_WRITE_BLOCK rows; the
scatter cells of a pool come from one table of formatted frequencies. PCA
rows with bit-identical coordinates share one line, formatted once; every
other row is formatted in its block.

All randomness flows from one master seed through named substreams, so two
runs with the same configuration produce byte-identical report JSON;
wall-clock timings are confined to run_info.json.
"""

from __future__ import annotations

import json
import platform
import resource
import sys
import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import baselines, bayesnet, gibbs, metrics, vae
from .dataset import (
    CSV_WRITE_BLOCK,
    SPLITS,
    AgentPool,
    codes_to_pool,
    encode_pool,
    ingest_csv,
    pool_to_codes,
    read_json,
    row_blocks,
    schema_from_json,
    schema_to_json,
    split_rows,
    write_pool_csv,
)
# perfbench/layers.py wraps this name on this module; it stays bound until
# the benchmark's bindings are updated
from .dataset import split_pool  # noqa: F401
from .errors import ConfigError, DataError, expect, expect_fields, read_fields
from .synthdata import SyntheticGeneratorSpec, spec_from_json, synth_generate

METHOD_KINDS = ("vae", "gibbs", "bn")
# the params a method of each kind accepts, and their JSON types
METHOD_PARAMS = {
    "vae": {"hidden": "a list of integers", "latent_dim": "an integer", "beta": "a number",
            "epochs": "an integer", "batch_size": "an integer", "seed": "a non-negative integer",
            "learning_rate": "a number", "hidden_options": "a list of integer lists",
            "latent_options": "a list of integers", "beta_options": "a list of numbers",
            "selection_variables": "a list of names", "selection_samples": "an integer",
            "harden": "a string"},
    "gibbs": {"warmup": "an integer", "thinning": "an integer", "seed": "a non-negative integer"},
    "bn": {"algorithm": "a string", "max_parents": "an integer"},
}
# the class that builds, checks and defaults a method's params, per kind
METHOD_SETTINGS = {"vae": vae.TrainConfig, "gibbs": gibbs.ChainConfig, "bn": bayesnet.SearchConfig}
# the JSON types of the configuration document's objects (config_from_json)
CONFIG_FIELDS = {"seed": "a non-negative integer", "out_dir": "a string", "data": "an object",
                 "split": "an object", "methods": "a list", "generation_count": "an integer",
                 "projection": "a list of names"}
DATA_FIELDS = {"csv": "a string", "schema": "an object or a string", "synthetic": "an object"}
SPLIT_FIELDS = {"train_frac": "a number", "val_frac_of_train": "a number"}
METHOD_FIELDS = {"name": "a string", "kind": "a string", "params": "an object"}
BASELINE_NAMES = ("marginal-sampler", "resample-training")
# names a method cannot take: the baselines', the training set's report row,
# the training split's PCA file, and the scatter files' first two columns
RESERVED_NAMES = (*BASELINE_NAMES, "training-set", "train", "bin_id", "test_frequency")
PCA_COMPONENTS = 5


def substream(master_seed: int, *labels) -> np.random.Generator:
    """Independent generator for a named stage of the pipeline."""
    key = tuple(zlib.crc32(str(label).encode()) for label in labels)
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=key))


@dataclass(frozen=True)
class MethodSpec:
    """A configured method. ``settings`` is built from ``params`` by its
    kind's METHOD_SETTINGS class, which checks every range that needs no
    data; the stages read only it, and whether ``params`` sets a seed."""

    name: str
    kind: str
    params: dict = field(default_factory=dict)
    settings: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in METHOD_KINDS:
            raise ConfigError(f"unknown method kind {self.kind!r}")
        if not self.name or self.name.startswith(".") or any(c in self.name for c in "/\\"):
            raise ConfigError(f"method name {self.name!r} is not a file name: it must be "
                              "non-empty, hold no / or \\ and not start with '.'")
        if self.name in RESERVED_NAMES:
            raise ConfigError(f"method name {self.name!r} is reserved")
        expect_fields(self.params, METHOD_PARAMS[self.kind], f"method {self.name!r}: params",
                      f"method {self.name!r}: ")
        try:
            settings = METHOD_SETTINGS[self.kind](**self.params)
        except ConfigError as exc:
            raise ConfigError(f"method {self.name!r}: {exc}") from None
        object.__setattr__(self, "settings", settings)


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
    # the JSON document the configuration was read from, if any
    document: dict | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.generation_count < 1:
            raise ConfigError("generation_count must be positive")
        if not (0.0 < self.train_frac < 1.0) or not (0.0 < self.val_frac_of_train < 1.0):
            raise ConfigError("split fractions must lie strictly between 0 and 1")
        if (self.data_csv is None) == (self.synthetic is None):
            raise ConfigError("configure exactly one of data_csv or synthetic")
        if self.data_csv is not None and self.schema is None:
            raise ConfigError("CSV data needs a schema document or path")
        names = [m.name for m in self.methods]
        if len(set(names)) != len(names):
            raise ConfigError("method names must be unique")


def config_from_json(doc: dict, out_dir: str | None = None) -> ExperimentConfig:
    """The configuration a JSON document describes; an unknown key or a
    value of the wrong type is a ConfigError, never coerced."""
    expect_fields(doc, CONFIG_FIELDS, "the configuration")
    methods = []
    for i, m in enumerate(doc.get("methods", [])):
        expect_fields(m, METHOD_FIELDS, f"methods[{i}]", f"methods[{i}].")
        if "kind" not in m:
            raise ConfigError("method entry missing 'kind'")
        methods.append(MethodSpec(m.get("name", m["kind"]), m["kind"], m.get("params", {})))
    data = expect_fields(doc.get("data", {}), DATA_FIELDS, "data", "data.")
    split = expect_fields(doc.get("split", {}), SPLIT_FIELDS, "split", "split.")
    # unset keys keep ExperimentConfig's defaults; report.json records the fractions as floats
    settings = {key: doc[key] for key in ("generation_count", "projection") if key in doc}
    return ExperimentConfig(
        seed=doc.get("seed", 0),
        out_dir=out_dir or doc.get("out_dir", "out"),
        data_csv=data.get("csv"),
        schema=data.get("schema"),
        synthetic=spec_from_json(data["synthetic"]) if "synthetic" in data else None,
        methods=methods,
        **settings,
        **{key: float(value) for key, value in split.items()},
        document=doc,
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
        config.seed = expect(seed, "a non-negative integer", "--seed")
    return config


def config_sha256(config: ExperimentConfig) -> str | None:
    """SHA-256 of the configuration's document with its ``seed`` and
    ``out_dir`` set to the values in effect (``--seed`` and ``--out``
    applied), as ``json.dumps`` with sorted keys writes it; None for a
    configuration not read from a document."""
    import hashlib  # loads OpenSSL (about 4 MB), which loading a configuration does not need

    if config.document is None:
        return None
    effective = {**config.document, "seed": config.seed, "out_dir": config.out_dir}
    return hashlib.sha256(json.dumps(effective, sort_keys=True).encode()).hexdigest()


# ---------------------------------------------------------------------------
# stages


def _peak_rss_mb() -> float:
    """The process's peak resident memory so far, in MiB: ``VmHWM`` from
    ``/proc/self/status``, which starts afresh when a program is executed.
    Where that file does not exist, ``ru_maxrss``: bytes on macOS, KiB
    elsewhere (Linux carries it over from the process that started this
    one)."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    scale = 1024 ** 2 if sys.platform == "darwin" else 1024
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / scale


@contextmanager
def recorded_stages(out: Path, config: ExperimentConfig):
    """Yield ``stage(name)``, a context manager timing one stage, and write
    ``out/run_info.json``: each finished stage's seconds and the process's
    peak resident memory at its end, the status and, on failure, the
    failing stage and the error; also the peak resident memory so far, the
    Python and numpy versions and the configuration's digest
    (:func:`config_sha256`)."""
    run_info = {"status": "running", "stage": None, "timings_seconds": {},
                "stage_peak_rss_mb": {},
                "python": platform.python_version(), "numpy": np.__version__}

    @contextmanager
    def stage(name: str):
        run_info["stage"] = name
        started = time.perf_counter()
        yield
        run_info["timings_seconds"][name] = time.perf_counter() - started
        run_info["stage_peak_rss_mb"][name] = _peak_rss_mb()

    try:
        out.mkdir(parents=True, exist_ok=True)
        yield stage
        run_info.update(status="ok", stage=None)
    except Exception as exc:
        run_info.update(status="failed", error=f"{type(exc).__name__}: {exc}")
        raise
    finally:
        run_info["peak_rss_mb"] = _peak_rss_mb()
        # after the peak is read: hashing loads OpenSSL, a few MB of its own
        run_info["config_sha256"] = config_sha256(config)
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


def _split_seed(config: ExperimentConfig) -> int:
    return int(substream(config.seed, "split").integers(2 ** 31))


def _method_stream(config: ExperimentConfig, method: MethodSpec,
                   purpose: str) -> np.random.Generator:
    index = config.methods.index(method)
    return substream(config.seed, "method", index, method.name, purpose)


def write_source(source: AgentPool, out: Path, splits=()) -> None:
    """Write the resolved schema and the whole sample, and each split's
    rows of it (``splits``: the row indices of :func:`split_rows`) to
    ``data/<split>.csv``, each row formatted once."""
    (out / "data").mkdir(parents=True, exist_ok=True)
    with open(out / "schema.json", "w") as fh:
        json.dump(schema_to_json(source.schema), fh, indent=2)
    write_pool_csv(source, out / "data" / "source.csv",
                   {out / "data" / f"{name}.csv": rows for name, rows in zip(SPLITS, splits)})


def prepare_data(config: ExperimentConfig, out: Path) -> tuple[AgentPool, AgentPool, AgentPool]:
    """Acquire the sample, split it, write it with its schema and write the
    splits; returns the train, validation and test pools."""
    source = acquire_data(config)
    source.schema.columns(config.projection, "projection")  # fails before any write
    for method in config.methods:
        if method.kind == "vae":
            source.schema.columns(method.settings.selection_variables, "selection_variables")
    rows = split_rows(len(source), config.train_frac, config.val_frac_of_train,
                      _split_seed(config))
    write_source(source, out, rows)
    return tuple(source.take(part, name) for part, name in zip(rows, SPLITS))


def train_method(config: ExperimentConfig, method: MethodSpec, train: AgentPool,
                 validation: AgentPool, out: Path):
    """Fit ``method`` and write its model to ``models/<name>.json``; returns
    the model :func:`sample_method` takes: a VAE network, a BN's DAG, CPTs
    and training schema, or the Gibbs chain's resolved settings, seed
    included."""
    rng_fit = _method_stream(config, method, "fit")
    # drawn even when the params set a seed, so that the VAE's initial
    # weights, drawn next from the same stream, do not depend on it
    seed = int(rng_fit.integers(2 ** 31))
    settings = method.settings
    if method.kind != "bn" and "seed" not in method.params:
        settings = replace(settings, seed=seed)
    (out / "models").mkdir(parents=True, exist_ok=True)
    path = out / "models" / f"{method.name}.json"
    if method.kind == "vae":
        model = vae.build_vae(train.schema, settings.hidden, settings.latent_dim,
                              settings.beta, rng_fit)
        result = vae.train(model, encode_pool(train), validation, settings)
        vae.save_checkpoint(result.model, path, extra={
            "grid": result.grid_records, "selection_score": result.selection_score})
        vae.write_training_log(result.history,
                               out / "models" / f"{method.name}-training-log.csv")
        return result.model
    if method.kind == "gibbs":
        chain = gibbs.chain_to_dict(settings)
        with open(path, "w") as fh:
            json.dump(chain, fh, indent=2)
        return chain
    # Bayesian network; conditionals are frequency tables, so every variable
    # must be categorical (numerics converted via bins)
    if train.schema.mode != "discretize-all":
        raise ConfigError("the bn method needs a discretize-all schema")
    codes = pool_to_codes(train)
    counts = train.schema.value_counts
    started = time.perf_counter()
    if settings.algorithm == "tree":
        dag = bayesnet.chow_liu(codes, counts)
    elif settings.algorithm == "greedy":
        dag = bayesnet.greedy_search(codes, counts, max_parents=settings.max_parents)
    else:
        dag = bayesnet.exact_search(codes, counts)
    runtime = time.perf_counter() - started
    cpts = bayesnet.fit_cpts(dag, codes, counts)
    bayesnet.save_bn(dag, cpts, settings.algorithm, path, runtime,
                     bayesnet.mdl_score(dag, codes, counts), schema=schema_to_json(train.schema))
    return dag, cpts, train.schema


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
        doc = read_json(path)
        dag, cpts = bayesnet.bn_from_dict(doc)
        schema, = read_fields(doc, {"schema": "an object"}, "a BN model document", "BN ")
        return dag, cpts, schema_from_json(schema)
    return read_json(path)


def sample_method(config: ExperimentConfig, method: MethodSpec, model, schema, count: int,
                  out: Path, train: AgentPool | None = None) -> AgentPool:
    """Draw ``count`` agents from ``method``'s model and write
    ``pools/<name>.csv``. Only Gibbs takes ``train``: its chain runs on
    conditionals estimated from the training rows. A VAE or BN trained on
    another schema than ``schema``, or a BN whose value counts are not
    ``schema``'s, is a DataError."""
    if method.kind == "vae":
        fits = model.schema == schema
    elif method.kind == "bn":
        fits = model[2] == schema and model[1].value_counts == schema.value_counts
    else:
        fits = True
    if not fits:
        raise DataError(f"models/{method.name}.json does not fit schema.json "
                        "(trained on another schema); run 'train' again")
    rng_sample = _method_stream(config, method, "sample")
    if method.kind == "vae":
        pool = vae.sample(model, count, rng_sample, harden=method.settings.harden)
    elif method.kind == "gibbs":
        pool, diagnostics = gibbs.run_chain(train, gibbs.chain_from_dict(model, count))
        gibbs.write_diagnostics(diagnostics,
                                out / "models" / f"{method.name}-diagnostics.json")
    else:
        dag, cpts, _ = model
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
    projection = [schema.names[j] for j in schema.columns(config.projection, "projection")]
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
        "projection": projection,
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
    """What only :func:`run_pipeline` writes: the baseline pools, one
    scatter file per view with a column per pool, each pool's cells looked
    up in one ``metrics.count_reprs`` table over the counts of all its
    views, and every pool's coordinates in the training data's principal
    components, rows with identical coordinates sharing their line
    (``metrics.write_pca_csv``)."""
    for directory in ("pools", "scatter", "pca"):
        (out / directory).mkdir(exist_ok=True)
    for name in BASELINE_NAMES:
        write_pool_csv(pools[name], out / "pools" / f"{name}.csv")
    test_reprs = metrics.count_reprs(report.test_vectors.values(), report.test_size)
    reprs = {name: metrics.count_reprs(report.vectors[name].values(), report.sizes[name])
             for name in pools}
    for view, test_vec in report.test_vectors.items():
        metrics.write_scatter_csv((test_vec, test_reprs),
                                  {name: (report.vectors[name][view], reprs[name])
                                   for name in pools},
                                  out / "scatter" / f"{view}.csv")
    del test_reprs, reprs
    enc_train = encode_pool(train)
    pca, standardization = metrics.pca_fit(enc_train), enc_train.standardization
    k = min(PCA_COMPONENTS, enc_train.values.shape[1])
    del enc_train  # the projections encode one block at a time
    for name, pool in [("train", train), *pools.items()]:
        metrics.write_pca_csv(_pca_coordinates(pca, pool, standardization, k),
                              out / "pca" / f"{name}.csv")


def _pca_coordinates(pca: metrics.PcaModel, pool: AgentPool,
                     standardization: dict[str, tuple[float, float]], k: int) -> np.ndarray:
    """The pool's coordinates in the first ``k`` components, encoded and
    projected in the ``row_blocks`` of ``CSV_WRITE_BLOCK`` rows, so they
    are those of one whole product."""
    coords = np.empty((len(pool), k))
    for rows in row_blocks(len(pool), CSV_WRITE_BLOCK):
        enc = encode_pool(pool.take(rows, pool.provenance), standardization=standardization)
        coords[rows] = metrics.pca_project(pca, enc, k)
    return coords


def run_pipeline(config: ExperimentConfig) -> metrics.EvalReport:
    """Execute every stage and write all artifacts; returns the report."""
    out = Path(config.out_dir)
    with recorded_stages(out, config) as stage:
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
