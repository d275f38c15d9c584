"""Full pipeline runs: artifacts, determinism, configuration handling."""

import json
from pathlib import Path

import numpy as np
import pytest

from agentsynth.dataset import read_pool_csv, schema_from_json
from agentsynth.errors import ConfigError
from agentsynth.pipeline import (
    ExperimentConfig,
    MethodSpec,
    config_from_json,
    run_pipeline,
    substream,
)
from agentsynth.synthdata import SyntheticGeneratorSpec


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
        assert (out / "scatter" / "vae__marginal.csv").exists()
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
        config = _small_config(tmp_path, methods=[
            MethodSpec("bn", "bn", {"algorithm": "wrong"})])
        with pytest.raises(ConfigError):
            run_pipeline(config)
        info = json.loads((Path(config.out_dir) / "run_info.json").read_text())
        assert info["status"] == "failed"
        assert info["stage"] == "train:bn"
        assert "error" in info

    def test_unknown_projection_is_config_error(self, tmp_path):
        config = _small_config(tmp_path)
        config.projection = ["nope"]
        with pytest.raises(ConfigError, match="projection"):
            run_pipeline(config)

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
        pool = AgentPool(schema, rows, "train")
        method = MethodSpec("bn", "bn")
        config = _small_config(tmp_path, methods=[method])
        with pytest.raises(ConfigError, match="discretize-all"):
            train_method(config, method, pool, pool, Path(config.out_dir))


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
