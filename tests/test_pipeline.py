"""Full pipeline runs: artifacts, determinism, configuration handling."""

import dataclasses
import importlib
import json
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from agentsynth import dataset, gibbs, metrics, pipeline
from agentsynth.dataset import codes_to_pool, encode_pool, read_pool_csv, schema_from_json
from agentsynth.errors import ConfigError, DivergenceError
from agentsynth.pipeline import (
    BASELINE_NAMES,
    METHOD_PARAMS,
    METHOD_SETTINGS,
    PCA_COMPONENTS,
    ExperimentConfig,
    MethodSpec,
    config_from_json,
    prepare_data,
    run_pipeline,
    sample_method,
    substream,
    train_method,
)
from agentsynth.synthdata import SyntheticGeneratorSpec

from conftest import categorical_schema
from oracles import former_pca_csv, former_scatter_csv, pca_csv_from_npy, scatter_csv_from_npy


def _small_config(tmp_path, methods=(), seed=11, count=400, **synth_kw):
    synth = SyntheticGeneratorSpec(
        "latent-class", size=600, seed=5, n_variables=5, n_classes=3,
        category_width=3, dependence=0.8, **synth_kw)
    return ExperimentConfig(
        seed=seed,
        out_dir=str(tmp_path / "out"),
        synthetic=synth,
        train_frac=0.4,
        val_frac_of_train=0.25,
        methods=list(methods),
        generation_count=count,
    )


def _fast_methods():
    return [
        MethodSpec("vae", "vae", {"hidden": [8], "latent_dim": 3, "beta": 0.1,
                                  "epochs": 8, "batch_size": 32}),
        MethodSpec("gibbs", "gibbs", {"warmup": 50, "thinning": 2}),
        MethodSpec("bn", "bn", {"algorithm": "tree"}),
    ]


class TestRunPipeline:
    def test_zero_methods_report_has_baselines_and_reference(self, tmp_path):
        config = _small_config(tmp_path)
        report = run_pipeline(config)
        assert report.method_names == ["marginal-sampler", "resample-training",
                                       "training-set"]

    def test_full_run_writes_all_artifacts(self, tmp_path):
        config = _small_config(tmp_path, methods=_fast_methods())
        report = run_pipeline(config)
        out = Path(config.out_dir)
        assert (out / "schema.json").exists()
        for name in ("source", "train", "validation", "test"):
            assert (out / "data" / f"{name}.csv").exists()
        for name in ("vae", "gibbs", "bn", "marginal-sampler", "resample-training"):
            assert (out / "pools" / f"{name}.csv").exists()
        assert (out / "models" / "vae.json").exists()
        assert (out / "models" / "vae-training-log.csv").exists()
        assert (out / "models" / "gibbs-diagnostics.json").exists()
        assert (out / "models" / "bn.json").exists()
        assert (out / "report.json").exists()
        assert (out / "report.csv").exists()
        assert (out / "pca" / "train.npy").exists()
        # one count file per view, with a column for the test split and one per pool
        assert sorted(f.name for f in (out / "scatter").iterdir()) == [
            "bivariate.npy", "columns.json", "marginal.npy", "projected.npy", "trivariate.npy"]
        columns = json.loads((out / "scatter" / "columns.json").read_text())
        assert [column.get("pool", column.get("split")) for column in columns] == [
            "test", "vae", "gibbs", "bn", "marginal-sampler", "resample-training"]
        assert np.load(out / "scatter" / "marginal.npy").shape == (15, 6)
        info = json.loads((out / "run_info.json").read_text())
        assert info["status"] == "ok"
        assert set(report.method_names) == {"vae", "gibbs", "bn", "marginal-sampler",
                                            "resample-training", "training-set"}

    def test_generated_pools_revalidate_against_schema(self, tmp_path):
        config = _small_config(tmp_path, methods=_fast_methods()[1:])
        run_pipeline(config)
        out = Path(config.out_dir)
        schema = schema_from_json(json.loads((out / "schema.json").read_text()))
        for name in ("gibbs", "bn", "marginal-sampler"):
            pool = read_pool_csv(out / "pools" / f"{name}.csv", schema,
                                 provenance="generated")
            pool.validate(strict_numeric=False)
            assert len(pool) == config.generation_count

    def test_rerun_is_byte_identical(self, tmp_path):
        config_a = _small_config(tmp_path / "a", methods=_fast_methods())
        config_b = _small_config(tmp_path / "b", methods=_fast_methods())
        run_pipeline(config_a)
        run_pipeline(config_b)
        report_a = (Path(config_a.out_dir) / "report.json").read_bytes()
        report_b = (Path(config_b.out_dir) / "report.json").read_bytes()
        assert report_a == report_b

    def test_failure_records_stage(self, tmp_path):
        # a learning rate this large passes the range check and diverges
        config = _small_config(tmp_path, methods=[
            MethodSpec("vae", "vae", {"hidden": [8], "latent_dim": 3, "epochs": 2,
                                      "learning_rate": 1e308})])
        with pytest.raises(DivergenceError):
            run_pipeline(config)
        info = json.loads((Path(config.out_dir) / "run_info.json").read_text())
        assert info["status"] == "failed"
        assert info["stage"] == "train:vae"
        assert "error" in info
        # the failing stage records neither its time nor its memory
        assert list(info["stage_peak_rss_mb"]) == list(info["timings_seconds"]) == ["prepare"]

    @pytest.mark.parametrize("platform, maxrss", [("darwin", 3 * 2 ** 20), ("linux", 3 * 2 ** 10),
                                                  ("freebsd13", 3 * 2 ** 10)])
    def test_peak_rss_without_proc_reads_maxrss_in_the_platform_unit(
            self, monkeypatch, platform, maxrss):
        """Without /proc/self/status the peak is ru_maxrss: bytes on macOS,
        KiB elsewhere."""
        def no_proc(path, *args, **kwargs):
            raise FileNotFoundError(path)

        monkeypatch.setattr(pipeline, "open", no_proc, raising=False)
        monkeypatch.setattr(pipeline, "sys", SimpleNamespace(platform=platform))
        monkeypatch.setattr(pipeline, "resource", SimpleNamespace(
            RUSAGE_SELF=0, getrusage=lambda who: SimpleNamespace(ru_maxrss=maxrss)))
        assert pipeline._peak_rss_mb() == 3.0

    def test_unknown_projection_is_config_error(self, tmp_path):
        # an unknown name, no name, or a name twice fails before any training
        config = _small_config(tmp_path, methods=_fast_methods())
        for projection in (["nope"], [], ["x00", "x00"]):
            config.projection = projection
            with pytest.raises(ConfigError, match="projection"):
                run_pipeline(config)
            assert not (tmp_path / "out" / "models").exists()

    def test_bn_rejects_mixed_schema(self, tmp_path):
        from agentsynth.dataset import AgentPool, Schema, VariableSpec
        from agentsynth.pipeline import train_method

        schema = Schema(
            (VariableSpec("v", "numerical-cont", bin_edges=(0.0, 1.0, 2.0)),
             VariableSpec("c", "binary", categories=("a", "b"))),
            "mixed",
        )
        rng = np.random.default_rng(0)
        rows = tuple((float(rng.uniform(0, 2)), "a" if rng.random() < 0.5 else "b")
                     for _ in range(20))
        pool = AgentPool.from_rows(schema, rows, "train")
        method = MethodSpec("bn", "bn")
        config = _small_config(tmp_path, methods=[method])
        with pytest.raises(ConfigError, match="discretize-all"):
            train_method(config, method, pool, pool, Path(config.out_dir))


class _ReadParams(dict):
    """Method params that remember how each key is read: ``("in", key)``
    for a membership test, ``("get", key)`` for a value."""

    def __init__(self, *args):
        super().__init__(*args)
        self.read = set()

    def __contains__(self, key):
        self.read.add(("in", key))
        return super().__contains__(key)

    def __getitem__(self, key):
        self.read.add(("get", key))
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(("get", key))
        return super().get(key, default)


# a value for every accepted key, none of them the key's default
EVERY_PARAM = {
    "vae": {"hidden": [4], "latent_dim": 2, "beta": 0.25, "epochs": 1, "batch_size": 16,
            "seed": 3, "learning_rate": 0.01, "hidden_options": [[4]], "latent_options": [2],
            "beta_options": [0.5], "selection_variables": ["x00", "x01"],
            "selection_samples": 50, "harden": "sample"},
    "gibbs": {"warmup": 5, "thinning": 1, "seed": 4},
    "bn": {"algorithm": "greedy", "max_parents": 2},
}


class TestMethodParams:
    @pytest.mark.parametrize("kind, key", [
        ("bn", "algoritm"), ("bn", "max_vars"), ("gibbs", "restart_on_unreachable"),
        ("vae", "epoch")])
    def test_unknown_key_is_config_error(self, kind, key):
        doc = {"data": {"synthetic": {"kind": "latent-class", "size": 100}},
               "methods": [{"name": "m", "kind": kind, "params": {key: 1}}]}
        accepted = ", ".join(map(repr, METHOD_PARAMS[kind]))
        with pytest.raises(ConfigError, match=rf"method 'm': params has unknown keys \['{key}'\]; "
                                              rf"it accepts \[{accepted}\]"):
            config_from_json(doc)

    @pytest.mark.parametrize("kind", sorted(METHOD_PARAMS))
    def test_every_accepted_key_is_read(self, tmp_path, kind):
        """Every key is read into the settings when the method is made, and
        the stages read the settings alone: of the params, only whether
        they set a seed."""
        assert set(EVERY_PARAM[kind]) == set(METHOD_PARAMS[kind])
        settings = MethodSpec("m", kind, EVERY_PARAM[kind]).settings
        for key in EVERY_PARAM[kind]:
            rest = {k: v for k, v in EVERY_PARAM[kind].items() if k != key}
            if key.endswith("_options"):  # a grid needs all three option lists
                with pytest.raises(ConfigError, match="grid search needs"):
                    MethodSpec("m", kind, rest)
            else:
                assert MethodSpec("m", kind, rest).settings != settings, key
        params = _ReadParams(EVERY_PARAM[kind])
        method = MethodSpec("m", kind, params)
        params.read.clear()
        config = _small_config(tmp_path, methods=[method], count=50)
        out = Path(config.out_dir)
        train, validation, _ = prepare_data(config, out)
        model = train_method(config, method, train, validation, out)
        pool = sample_method(config, method, model, train.schema, 50, out, train)
        assert len(pool) == 50
        assert params.read <= {("in", "seed")}

    @pytest.mark.parametrize("kind", sorted(METHOD_PARAMS))
    def test_params_are_the_fields_of_the_settings_class(self, kind):
        fields = {f.name for f in dataclasses.fields(METHOD_SETTINGS[kind])}
        # a Gibbs draw sets its own target count, and no configuration sets
        # where the chain starts
        unset = {"target_count", "init"} if kind == "gibbs" else set()
        assert set(METHOD_PARAMS[kind]) == fields - unset

    def test_gibbs_params_are_the_chain_settings(self):
        """A Gibbs method's params and the settings its model file holds are
        one table, so neither can gain a key the other lacks."""
        assert METHOD_PARAMS["gibbs"] is gibbs.CHAIN_SETTINGS


ROOT = Path(__file__).resolve().parents[1]


class TestShippedConfigurations:
    """Every configuration the project ships loads under the reader that
    rejects unknown keys."""

    def test_readme_example(self):
        section = (ROOT / "README.md").read_text().split("\n## Command line\n")[1]
        doc = json.loads(section.split("```json\n")[1].split("```")[0])
        config = config_from_json(doc)
        assert (config.data_csv, [m.kind for m in config.methods]) == \
            ("survey.csv", ["vae", "gibbs", "bn"])

    def test_readme_plot_data_recipe(self, tmp_path, monkeypatch):
        """README's snippet that reads the plot data runs on a small run's
        output and gives the report's frequencies and coordinates."""
        readme = (ROOT / "README.md").read_text()
        snippet, = [block.split("```")[0] for block in readme.split("```python\n")[1:]
                    if "columns.json" in block.split("```")[0]]
        config = _small_config(tmp_path, methods=_fast_methods()[:1])
        report = run_pipeline(config)
        monkeypatch.chdir(tmp_path)
        namespace = {}
        exec(snippet, namespace)
        assert Path(config.out_dir) == tmp_path / namespace["out"]
        np.testing.assert_array_equal(
            namespace["test"], report.test_vectors["trivariate"] / report.test_size)
        assert list(namespace["pools"]) == ["vae", *BASELINE_NAMES]
        for name, freqs in namespace["pools"].items():
            np.testing.assert_array_equal(
                freqs, report.vectors[name]["trivariate"] / report.sizes[name])
        assert namespace["coords"].shape == (config.generation_count, PCA_COMPONENTS)

    def test_benchmark_workloads(self, monkeypatch):
        monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
        workloads = importlib.import_module("workloads")
        docs = {"lc20-run": workloads.lc20_doc(2), "bn-search": workloads.bn_search_doc(2),
                "mixed-staged": workloads.mixed_doc(2, "survey.csv", "schema.json")}
        for name, doc in docs.items():
            config = config_from_json(doc, out_dir="out")
            assert [m.name for m in config.methods] == [m["name"] for m in doc["methods"]], name


def _reference_pool_vectors(codes, value_counts, subsets):
    """metrics._pool_vectors as view_counts counts every view, and every
    pair's Cramer's V from _cramers_v_table, one pair at a time."""
    n, vectors, pairwise = len(codes), {}, None
    for view, subs in subsets.items():
        counts, offsets = dataset.view_counts(codes, value_counts, subs)
        vectors[view] = counts.astype(np.min_scalar_type(n))
        if view == "bivariate":
            pairwise = np.full(len(subs), np.nan)
            for s, (i, j) in enumerate(subs):
                v = metrics._cramers_v_table(counts[offsets[s]:offsets[s + 1]].reshape(
                    value_counts[i], value_counts[j]).astype(float), n)
                pairwise[s] = np.nan if v is None else v
    return vectors, pairwise


class TestBatchedOutputsEqualReferences:
    @pytest.mark.parametrize("workload", ["lc20-run", "bn-search"])
    def test_report_scatter_and_pca_bytes(self, tmp_path, monkeypatch, workload):
        """The benchmark's configurations at 2,000 rows: a run with the
        product views writes the report of a run with every view counted
        by view_counts, and the scatter and PCA CSVs that the reference
        formatter rebuilds from its arrays are those the reference stage
        writes."""
        monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
        workloads = importlib.import_module("workloads")
        doc = {"lc20-run": workloads.lc20_doc, "bn-search": workloads.bn_search_doc}[workload](2)
        doc["data"]["synthetic"]["size"] = 2000
        doc["generation_count"] = 2000
        product_views = metrics._product_views
        calls = []
        monkeypatch.setattr(metrics, "_product_views",
                            lambda *args: calls.append(1) or product_views(*args))
        run_pipeline(config_from_json(doc, out_dir=str(tmp_path / "batched")))
        assert calls  # every pool's views came from the products
        with monkeypatch.context() as patch:
            patch.setattr(metrics, "_pool_vectors", _reference_pool_vectors)
            patch.setattr(pipeline, "write_run_outputs", _reference_write_run_outputs)
            run_pipeline(config_from_json(doc, out_dir=str(tmp_path / "reference")))
        batched, reference = tmp_path / "batched", tmp_path / "reference"
        assert (batched / "report.json").read_bytes() == (reference / "report.json").read_bytes()
        assert _rebuilt_csv_files(batched, reference, tmp_path / "rebuilt") == \
            4 + 1 + len(doc["methods"]) + 2


@pytest.mark.parametrize("numeric_variables", [0, 2])
def test_prepare_writes_each_split_pool(tmp_path, numeric_variables):
    """prepare formats the sample once and writes each split from those
    lines: the files and pools of splitting with split_pool and writing
    each pool."""
    config = _small_config(tmp_path, numeric_variables=numeric_variables)
    out = Path(config.out_dir)
    splits = prepare_data(config, out)
    expected = dataset.split_pool(pipeline.acquire_data(config), config.train_frac,
                                  config.val_frac_of_train, pipeline._split_seed(config))
    for name, pool, reference in zip(dataset.SPLITS, splits, expected):
        assert (pool.provenance, pool.rows) == (reference.provenance, reference.rows)
        dataset.write_pool_csv(reference, tmp_path / "expected.csv")
        assert (out / "data" / f"{name}.csv").read_bytes() == \
            (tmp_path / "expected.csv").read_bytes()


class TestToyEndToEnd:
    def test_all_methods_on_the_toy_population(self, tmp_path):
        from agentsynth import bayesnet, vae
        from agentsynth.dataset import encode_pool, read_pool_csv, schema_from_json

        config = ExperimentConfig(
            seed=9,
            out_dir=str(tmp_path / "toy"),
            synthetic=SyntheticGeneratorSpec("toy-appendix-a", size=400, seed=4,
                                             balanced=True),
            train_frac=0.4,
            val_frac_of_train=0.25,
            methods=[
                MethodSpec("vae", "vae", {"hidden": [], "latent_dim": 1, "beta": 1.0,
                                          "epochs": 1000, "batch_size": 200,
                                          "learning_rate": 0.01, "seed": 1}),
                MethodSpec("gibbs", "gibbs", {"warmup": 100, "thinning": 1, "seed": 2}),
                MethodSpec("bn", "bn", {"algorithm": "tree"}),
            ],
            generation_count=500,
        )
        report = run_pipeline(config)
        out = Path(config.out_dir)
        # Gibbs replicates the training prototypes exactly
        assert report.rows["gibbs"].diversity.mu_ns == 0.0
        # the VAE checkpoint separates the prototypes in latent space
        model = vae.load_checkpoint(out / "models" / "vae.json")
        schema = schema_from_json(json.loads((out / "schema.json").read_text()))
        train = read_pool_csv(out / "data" / "train.csv", schema, provenance="train")
        enc = encode_pool(train)
        mus = [vae.encode(model, enc.values[i]).mean[0] for i in range(len(train))]
        signs = {np.sign(m) for m in np.asarray(mus)}
        assert signs == {-1.0, 1.0}
        # the learned BN structure is connected
        dag, _ = bayesnet.load_bn(out / "models" / "bn.json")
        assert len(dag.edges) == 1


class TestConfigParsing:
    def test_minimal_document(self):
        doc = {
            "seed": 3,
            "out_dir": "x",
            "data": {"synthetic": {"kind": "toy-appendix-a", "size": 100}},
            "methods": [{"kind": "gibbs", "params": {"warmup": 10}}],
        }
        config = config_from_json(doc)
        assert config.methods[0].name == "gibbs"
        assert config.methods[0].params == {"warmup": 10}

    def test_both_data_sources_rejected(self):
        doc = {
            "seed": 1, "out_dir": "x",
            "data": {"csv": "a.csv", "schema": "s.json",
                     "synthetic": {"kind": "toy-appendix-a", "size": 5}},
        }
        with pytest.raises(ConfigError):
            config_from_json(doc)

    def test_missing_data_rejected(self):
        with pytest.raises(ConfigError):
            config_from_json({"seed": 1, "out_dir": "x"})

    def test_reserved_method_name_rejected(self):
        with pytest.raises(ConfigError, match="reserved"):
            MethodSpec("training-set", "vae")

    def test_duplicate_method_names_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            _small_config(tmp_path, methods=[
                MethodSpec("m", "gibbs"), MethodSpec("m", "bn")])


class TestSubstreams:
    def test_independent_named_streams(self):
        a = substream(7, "split").integers(2 ** 31, size=4)
        b = substream(7, "split").integers(2 ** 31, size=4)
        c = substream(7, "method", 0, "vae", "fit").integers(2 ** 31, size=4)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)


# ---------------------------------------------------------------------------
# the scatter-and-pca stage against the former CSV files


def _reference_write_run_outputs(report, train, pools, out):
    """The stage as it wrote CSV, with every frequency formatted whole and
    each pool encoded and projected whole."""
    for directory in ("pools", "scatter", "pca"):
        (out / directory).mkdir(parents=True, exist_ok=True)
    for name in BASELINE_NAMES:
        dataset.write_pool_csv(pools[name], out / "pools" / f"{name}.csv")
    for view, test_vec in report.test_vectors.items():
        former_scatter_csv(out / "scatter" / f"{view}.csv", list(pools), [
            test_vec / report.test_size,
            *(report.vectors[name][view] / report.sizes[name] for name in pools)])
    enc_train = encode_pool(train)
    pca = metrics.pca_fit(enc_train)
    k = min(PCA_COMPONENTS, enc_train.values.shape[1])
    former_pca_csv(out / "pca" / "train.csv", metrics.pca_project(pca, enc_train, k))
    for name, pool in pools.items():
        enc = encode_pool(pool, standardization=enc_train.standardization)
        former_pca_csv(out / "pca" / f"{name}.csv", metrics.pca_project(pca, enc, k))


def _rebuilt_csv_files(out, reference, rebuilt):
    """Rebuild every former scatter and PCA CSV from the arrays under
    ``out``, check that each equals the file of that name under
    ``reference`` byte for byte, and return how many there were."""
    files = sorted(f.relative_to(reference) for d in ("scatter", "pca")
                   for f in (reference / d).iterdir())
    assert [f.with_suffix(".npy") for f in files] == sorted(
        f.relative_to(out) for d in ("scatter", "pca") for f in (out / d).glob("*.npy"))
    for f in files:
        (rebuilt / f.parent).mkdir(parents=True, exist_ok=True)
        if f.parent.name == "scatter":
            scatter_csv_from_npy(out / "scatter", f.stem, rebuilt / f)
        else:
            pca_csv_from_npy(out / f.with_suffix(".npy"), rebuilt / f)
        assert (rebuilt / f).read_bytes() == (reference / f).read_bytes(), f
    return len(files)


def _categorical_run_config(tmp_path, count):
    """Latent-class data with two numerical-cont variables in a
    discretize-all schema; the training split spans three row blocks."""
    config = _small_config(tmp_path, methods=_fast_methods(), count=count, numeric_variables=2)
    config.synthetic = SyntheticGeneratorSpec(
        "latent-class", size=5000, seed=5, n_variables=5, n_classes=3, category_width=3,
        dependence=0.8, numeric_variables=2)
    config.train_frac = 0.6
    return config


def _mixed_run_config(tmp_path, count):
    """A mixed-mode CSV with numerical-cont and numerical-int columns."""
    rng = np.random.default_rng(3)
    group = rng.integers(0, 3, size=1500)
    weight = rng.normal(group * 2.0, 1.0)
    kids = np.rint(rng.normal(2.0 + group, 1.0)).astype(int)
    lines = ["cat,w,n"] + [f"{'abc'[g]},{w!r},{c}" for g, w, c
                           in zip(group.tolist(), weight.tolist(), kids.tolist())]
    (tmp_path / "survey.csv").write_text("\n".join(lines) + "\n")
    schema = {"mode": "mixed", "variables": [
        {"name": "cat", "kind": "categorical", "categories": ["a", "b", "c"]},
        {"name": "w", "kind": "numerical-cont", "bins": 4},
        {"name": "n", "kind": "numerical-int", "bins": 3}]}
    return ExperimentConfig(seed=11, out_dir=str(tmp_path / "out"),
                            data_csv=str(tmp_path / "survey.csv"), schema=schema,
                            train_frac=0.4, methods=_fast_methods()[:2], generation_count=count)


class TestScatterAndPcaStage:
    @pytest.mark.parametrize("count", [1, 17, 1023, 1024, 1025, 2051])
    @pytest.mark.parametrize("make_config", [_categorical_run_config, _mixed_run_config],
                             ids=["discretize-all", "mixed"])
    def test_equals_the_whole_pool_reference(self, tmp_path, monkeypatch, make_config, count):
        seen = {}
        stage = pipeline.write_run_outputs

        def recording(report, train, pools, out):
            seen.update(report=report, train=train, pools=pools)
            stage(report, train, pools, out)

        monkeypatch.setattr(pipeline, "write_run_outputs", recording)
        config = make_config(tmp_path, count)
        run_pipeline(config)
        out, ref = Path(config.out_dir), tmp_path / "reference"
        report, train, pools = seen["report"], seen["train"], seen["pools"]
        _reference_write_run_outputs(report, train, pools, ref)
        names = sorted(f.name for f in (ref / "pools").iterdir())
        assert names
        for name in names:
            assert (out / "pools" / name).read_bytes() == (ref / "pools" / name).read_bytes()
        assert _rebuilt_csv_files(out, ref, tmp_path / "rebuilt") == \
            len(report.test_vectors) + 1 + len(pools)
        # the blocked projection is the whole product, bit for bit
        enc_train = encode_pool(train)
        pca = metrics.pca_fit(enc_train)
        k = min(PCA_COMPONENTS, enc_train.values.shape[1])
        for name, pool in [("train", train), *pools.items()]:
            whole = metrics.pca_project(pca, encode_pool(pool, enc_train.standardization), k)
            written = np.load(out / "pca" / f"{name}.npy")
            np.testing.assert_array_equal(written.view(np.int64), whole.view(np.int64))

    def test_columns_name_awkward_pools_as_they_are(self, tmp_path):
        """A method name may hold a comma or a quote, or be "test":
        columns.json names each pool as it is and tells the test split
        apart, and the rebuilt former header quotes the names as csv.writer
        did."""
        rng = np.random.default_rng(3)
        schema = categorical_schema([2] * 4)
        make = lambda n: codes_to_pool(rng.integers(0, 2, size=(n, 4)), schema)
        names = ["a,b", 'say "hi"', "test", *BASELINE_NAMES]
        pools = {name: make(10 + k) for k, name in enumerate(names)}
        test_counts = rng.integers(0, 10, 8, dtype=np.uint8)
        report = metrics.EvalReport([], {}, {}, {"v": test_counts},
                                    {name: {"v": test_counts} for name in pools}, 40,
                                    {name: len(pool) for name, pool in pools.items()})
        pipeline.write_run_outputs(report, make(20).with_provenance("train"), pools, tmp_path)
        columns = json.loads((tmp_path / "scatter" / "columns.json").read_text())
        assert columns == [{"split": "test", "rows": 40},
                           *({"pool": name, "rows": 10 + k} for k, name in enumerate(names))]
        scatter_csv_from_npy(tmp_path / "scatter", "v", tmp_path / "v.csv")
        assert (tmp_path / "v.csv").read_bytes().split(b"\n")[0] == (
            b'bin_id,test_frequency,"a,b","say ""hi""",test,marginal-sampler,'
            b'resample-training\r')

    def test_former_plot_files_are_left_in_place(self, tmp_path):
        """A run into a directory that an earlier version wrote writes the
        arrays beside its old scatter and PCA CSVs and leaves those as they
        were."""
        rng = np.random.default_rng(5)
        schema = categorical_schema([2] * 3)
        make = lambda n: codes_to_pool(rng.integers(0, 2, size=(n, 3)), schema)
        pools = {name: make(12) for name in ["vae", *BASELINE_NAMES]}
        old = {"scatter/v.csv": b"bin_id,test_frequency,vae\r\n0,0.5,0.25\r\n",
               "pca/train.csv": b"pc1\r\n0.5\r\n", "pca/vae.csv": b"pc1\r\n-1.0\r\n"}
        for name, data in old.items():
            (tmp_path / name).parent.mkdir(exist_ok=True)
            (tmp_path / name).write_bytes(data)
        test_counts = rng.integers(0, 5, 8, dtype=np.uint8)
        report = metrics.EvalReport([], {}, {}, {"v": test_counts},
                                    {name: {"v": test_counts} for name in pools}, 20,
                                    dict.fromkeys(pools, 12))
        pipeline.write_run_outputs(report, make(20).with_provenance("train"), pools, tmp_path)
        for name, data in old.items():
            assert (tmp_path / name).read_bytes() == data, name
        assert sorted(f.name for f in (tmp_path / "scatter").iterdir()) == [
            "columns.json", "v.csv", "v.npy"]
        assert sorted(f.name for f in (tmp_path / "pca").iterdir()) == sorted(
            ["train.csv", "vae.csv", *(f"{name}.npy" for name in ["train", *pools])])

    def test_peak_follows_neither_pool_rows_nor_bins(self, tmp_path):
        """Traced allocations (the same on every run) while the stage writes
        a 50,000-row pool and a view of 2^18 bins stay below a quarter of
        that pool's code matrix at 8 bytes per code."""
        rng = np.random.default_rng(7)
        schema = categorical_schema([2] * 64)
        make = lambda n: codes_to_pool(rng.integers(0, 2, size=(n, 64)), schema)
        train, big = make(500).with_provenance("train"), make(50_000)
        pools = {"big": big, **{name: make(10) for name in BASELINE_NAMES}}
        test_counts = rng.integers(0, 50, 1 << 18, dtype=np.uint8)
        pool_counts = {name: {"wide": rng.permutation(test_counts)} for name in pools}
        report = metrics.EvalReport([], {}, {}, {"wide": test_counts}, pool_counts,
                                    50, dict.fromkeys(pools, 50))
        tracemalloc.start()
        try:
            pipeline.write_run_outputs(report, train, pools, tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the whole-pool stage peaked at 12 times this bound: a quarter of
        # the pool's codes at 8 bytes each (6.4 MB), as they were stored
        assert peak < big.codes.size * 8 / 4
