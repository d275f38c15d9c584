"""Full pipeline runs: artifacts, determinism, configuration handling."""

import csv
import dataclasses
import importlib
import itertools
import json
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from agentsynth import dataset, metrics, pipeline
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
        assert (out / "pca" / "train.csv").exists()
        # one scatter file per view, with a column per pool
        assert sorted(f.name for f in (out / "scatter").iterdir()) == [
            "bivariate.csv", "marginal.csv", "projected.csv", "trivariate.csv"]
        with open(out / "scatter" / "marginal.csv", newline="") as fh:
            assert next(csv.reader(fh)) == ["bin_id", "test_frequency", "vae", "gibbs", "bn",
                                            "marginal-sampler", "resample-training"]
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


def _per_block_scatter_csv(test, pools, path):
    """A scatter file whose columns are ``(counts, n)``: every block's cells
    formatted from ``counts / n`` by ``repr``."""
    columns = [test, *pools.values()]
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(["bin_id", "test_frequency", *pools])
        for start in range(0, len(test[0]), dataset.CSV_WRITE_BLOCK):
            stop = min(start + dataset.CSV_WRITE_BLOCK, len(test[0]))
            dataset.write_csv_block(fh, [map(str, range(start, stop)), *(
                [repr(x) for x in metrics._frequencies(vec[start:stop], n).tolist()]
                for vec, n in columns)])


class TestBatchedOutputsEqualReferences:
    @pytest.mark.parametrize("workload", ["lc20-run", "bn-search"])
    def test_report_scatter_and_pca_bytes(self, tmp_path, monkeypatch, workload):
        """The benchmark's configurations at 2,000 rows: a run with the
        product views, the shared scatter cells and the shared PCA lines
        writes the bytes of a run with every one of them replaced by its
        reference."""
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
            patch.setattr(metrics, "count_reprs", lambda vectors, n: n)
            patch.setattr(metrics, "write_scatter_csv", _per_block_scatter_csv)
            patch.setattr(metrics, "write_pca_csv", _reference_write_pca_csv)
            run_pipeline(config_from_json(doc, out_dir=str(tmp_path / "reference")))
        batched, reference = tmp_path / "batched", tmp_path / "reference"
        files = ["report.json", *(f"{d}/{f.name}" for d in ("scatter", "pca")
                                  for f in sorted((reference / d).iterdir()))]
        assert len(files) == 1 + 4 + 1 + len(doc["methods"]) + 2
        for name in files:
            assert (batched / name).read_bytes() == (reference / name).read_bytes(), name


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
# the scatter-and-pca stage against its former whole-pool form


def _reference_write_scatter_csv(method_vec, test_vec, path):
    """One pool's scatter file for one view, every vector formatted whole."""
    test_reprs, method_reprs = ([repr(x) for x in vec.tolist()] for vec in (test_vec, method_vec))
    with open(path, "w", newline="") as fh:
        fh.write("bin_id,test_frequency,method_frequency\r\n")
        fh.write("".join(map("{},{},{}\r\n".format, itertools.count(),
                             test_reprs, method_reprs)))


def _reference_write_pca_csv(coords, path):
    with open(path, "w", newline="") as fh:
        fh.write(",".join(f"pc{k + 1}" for k in range(coords.shape[1])) + "\r\n")
        fh.write("".join(",".join(map(repr, row)) + "\r\n" for row in coords.tolist()))


def _reference_write_run_outputs(report, train, pools, out):
    """The stage with one scatter file per pool and view, and each pool
    encoded and projected whole."""
    for directory in ("pools", "scatter", "pca"):
        (out / directory).mkdir(parents=True, exist_ok=True)
    for name in BASELINE_NAMES:
        dataset.write_pool_csv(pools[name], out / "pools" / f"{name}.csv")
    for name in pools:
        for view, test_vec in report.test_vectors.items():
            _reference_write_scatter_csv(
                metrics._frequencies(report.vectors[name][view], report.sizes[name]),
                metrics._frequencies(test_vec, report.test_size),
                out / "scatter" / f"{name}__{view}.csv")
    enc_train = encode_pool(train)
    pca = metrics.pca_fit(enc_train)
    k = min(PCA_COMPONENTS, enc_train.values.shape[1])
    _reference_write_pca_csv(metrics.pca_project(pca, enc_train, k), out / "pca" / "train.csv")
    for name, pool in pools.items():
        enc = encode_pool(pool, standardization=enc_train.standardization)
        _reference_write_pca_csv(metrics.pca_project(pca, enc, k), out / "pca" / f"{name}.csv")


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
        for directory in ("pca", "pools"):
            names = sorted(f.name for f in (ref / directory).iterdir())
            assert names
            for name in names:
                assert (out / directory / name).read_bytes() == \
                    (ref / directory / name).read_bytes(), name
        assert sorted(f.stem for f in (out / "scatter").iterdir()) == sorted(report.test_vectors)
        for view in report.test_vectors:
            with open(out / "scatter" / f"{view}.csv", newline="") as fh:
                header, *rows = csv.reader(fh)
            assert header == ["bin_id", "test_frequency", *pools]
            columns = list(zip(*rows))
            for j, name in enumerate(pools, start=2):
                with open(ref / "scatter" / f"{name}__{view}.csv", newline="") as fh:
                    _, *ref_rows = csv.reader(fh)
                ref_bins, ref_test, ref_pool = zip(*ref_rows)
                assert (columns[0], columns[1], columns[j]) == (ref_bins, ref_test, ref_pool)
        # the blocked projection is the whole product, bit for bit
        enc_train = encode_pool(train)
        pca = metrics.pca_fit(enc_train)
        k = min(PCA_COMPONENTS, enc_train.values.shape[1])
        for pool in [train, *pools.values()]:
            whole = metrics.pca_project(pca, encode_pool(pool, enc_train.standardization), k)
            blocked = pipeline._pca_coordinates(pca, pool, enc_train.standardization, k)
            np.testing.assert_array_equal(blocked.view(np.int64), whole.view(np.int64))

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
