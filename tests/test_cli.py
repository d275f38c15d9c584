"""CLI surface: subcommands, staged flow, exit codes."""

import json

import pytest

from agentsynth import cli
from agentsynth.bayesnet import bn_from_dict, mdl_score
from agentsynth.cli import main
from agentsynth.dataset import pool_to_codes, read_pool_csv, schema_from_json
from agentsynth.errors import StaleCacheError


def _write_config(tmp_path, out_dir, methods=None, seed=21, count=300):
    doc = {
        "seed": seed,
        "out_dir": str(out_dir),
        "data": {"synthetic": {"kind": "latent-class", "size": 500, "seed": 2,
                               "n_variables": 4, "n_classes": 3,
                               "category_width": 3, "dependence": 0.8}},
        "split": {"train_frac": 0.4, "val_frac_of_train": 0.25},
        "generation_count": count,
        "methods": methods if methods is not None else [
            {"name": "vae", "kind": "vae",
             "params": {"hidden": [6], "latent_dim": 2, "beta": 0.1,
                        "epochs": 5, "batch_size": 32}},
            {"name": "gibbs", "kind": "gibbs", "params": {"warmup": 40, "thinning": 2}},
            {"name": "bn", "kind": "bn", "params": {"algorithm": "tree"}},
        ],
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def _run_info(out):
    return json.loads((out / "run_info.json").read_text())


class TestStagedFlow:
    def test_synth_prepare_train_sample_evaluate_report(self, tmp_path):
        out = tmp_path / "out"
        config = _write_config(tmp_path, out)
        assert main(["synth", "--config", str(config)]) == 0
        assert (out / "data" / "source.csv").exists()
        assert list(_run_info(out)["timings_seconds"]) == ["synth"]
        assert main(["prepare", "--config", str(config)]) == 0
        assert (out / "data" / "train.csv").exists()
        for method in ("vae", "gibbs", "bn"):
            assert main(["train", "--config", str(config), "--method", method]) == 0
            assert main(["sample", "--config", str(config), "--method", method,
                         "--count", "150"]) == 0
            schema = schema_from_json(json.loads((out / "schema.json").read_text()))
            pool = read_pool_csv(out / "pools" / f"{method}.csv", schema,
                                 provenance="generated")
            assert len(pool) == 150
        assert main(["evaluate", "--config", str(config)]) == 0
        assert (out / "report.json").exists()
        (out / "report.csv").unlink()
        assert main(["report", "--out", str(out)]) == 0
        assert (out / "report.csv").exists()

    def test_staged_flow_matches_run(self, tmp_path):
        staged, whole = tmp_path / "staged", tmp_path / "whole"
        config = _write_config(tmp_path, staged)
        commands = [(["prepare"], "prepare")]
        for method in ("vae", "gibbs", "bn"):
            commands += [(["train", "--method", method], f"train:{method}"),
                         (["sample", "--method", method], f"sample:{method}")]
        commands.append((["evaluate"], "evaluate"))
        for argv, key in commands:
            assert main([*argv, "--config", str(config)]) == 0
            info = _run_info(staged)
            assert (info["status"], info["stage"], list(info["timings_seconds"])) == \
                ("ok", None, [key])
        assert main(["run", "--config", str(config), "--out", str(whole)]) == 0
        assert list(_run_info(whole)["timings_seconds"]) == \
            [key for _, key in commands] + ["scatter-and-pca"]
        same = ["data/train.csv", "data/validation.csv", "data/test.csv",
                "pools/vae.csv", "pools/gibbs.csv", "pools/bn.csv",
                "report.json", "report.csv",
                "models/vae.json", "models/vae-training-log.csv",
                "models/gibbs.json", "models/gibbs-diagnostics.json"]
        for name in same:
            assert (staged / name).read_bytes() == (whole / name).read_bytes(), name
        # BN models also record the structure search's wall-clock time
        staged_bn, whole_bn = (json.loads((out / "models" / "bn.json").read_text())
                               for out in (staged, whole))
        assert staged_bn.pop("runtime_seconds") is not None
        assert whole_bn.pop("runtime_seconds") is not None
        assert staged_bn == whole_bn
        metadata = json.loads((staged / "report.json").read_text())["metadata"]
        assert metadata["sizes"] == {"train": 150, "validation": 50, "test": 300}

    def test_failing_train_records_its_stage(self, tmp_path):
        out = tmp_path / "o"
        config = _write_config(tmp_path, out, methods=[
            {"name": "bn", "kind": "bn", "params": {"algorithm": "wrong"}}])
        assert main(["prepare", "--config", str(config)]) == 0
        assert main(["train", "--config", str(config), "--method", "bn"]) == 2
        info = _run_info(out)
        assert (info["status"], info["stage"]) == ("failed", "train:bn")
        assert "unknown BN algorithm" in info["error"]
        assert not (out / "models" / "bn.json").exists()

    def test_run_subcommand(self, tmp_path):
        out = tmp_path / "runout"
        config = _write_config(tmp_path, out, methods=[
            {"name": "gibbs", "kind": "gibbs", "params": {"warmup": 20, "thinning": 1}}])
        assert main(["run", "--config", str(config)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert "gibbs" in report["methods"]

    def test_bn_model_records_mdl_and_edges(self, tmp_path):
        out = tmp_path / "o10"
        config = _write_config(tmp_path, out, methods=[
            {"name": "bn", "kind": "bn", "params": {"algorithm": "greedy"}}])
        assert main(["prepare", "--config", str(config)]) == 0
        assert main(["train", "--config", str(config), "--method", "bn"]) == 0
        doc = json.loads((out / "models" / "bn.json").read_text())
        dag, _ = bn_from_dict(doc)
        schema = schema_from_json(json.loads((out / "schema.json").read_text()))
        codes = pool_to_codes(read_pool_csv(out / "data" / "train.csv", schema))
        assert doc["n_edges"] == len(dag.edges) > 0
        assert doc["mdl_score"] == mdl_score(dag, codes, schema.value_counts)


class TestExitCodes:
    def test_missing_config_is_config_error(self):
        assert main(["run"]) == 2

    def test_nonexistent_config_file(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.json")]) == 2

    def test_unknown_method_is_config_error(self, tmp_path):
        config = _write_config(tmp_path, tmp_path / "o")
        assert main(["train", "--config", str(config), "--method", "zzz"]) == 2

    def test_sample_before_train_is_data_error(self, tmp_path):
        out = tmp_path / "o2"
        config = _write_config(tmp_path, out)
        assert main(["prepare", "--config", str(config)]) == 0
        assert main(["sample", "--config", str(config), "--method", "vae"]) == 3

    @pytest.mark.parametrize("count", ["0", "-5"])
    def test_count_below_one_is_config_error(self, tmp_path, count):
        out = tmp_path / "o"
        config = _write_config(tmp_path, out)
        assert main(["prepare", "--config", str(config)]) == 0
        for method in ("vae", "gibbs", "bn"):
            assert main(["train", "--config", str(config), "--method", method]) == 0
            assert main(["sample", "--config", str(config), "--method", method,
                         "--count", count]) == 2
            assert not (out / "pools" / f"{method}.csv").exists()
        fresh = tmp_path / "fresh"
        assert main(["synth", "--config", str(config), "--out", str(fresh),
                     "--count", count]) == 2
        assert not (fresh / "data" / "source.csv").exists()

    @pytest.mark.parametrize("command", ["run", "prepare", "evaluate"])
    def test_unknown_projection_is_config_error(self, tmp_path, command):
        out = tmp_path / "o"
        config = _write_config(tmp_path, out, methods=[])
        if command == "evaluate":
            assert main(["prepare", "--config", str(config)]) == 0
        doc = json.loads(config.read_text())
        doc["projection"] = ["nope"]
        config.write_text(json.dumps(doc))
        assert main([command, "--config", str(config)]) == 2
        info = _run_info(out)
        assert (info["status"], info["stage"]) == \
            ("failed", "prepare" if command == "run" else command)

    def test_report_reads_the_configured_out_dir(self, tmp_path):
        out = tmp_path / "o"
        config = _write_config(tmp_path, out, methods=[])
        assert main(["run", "--config", str(config)]) == 0
        (out / "report.csv").unlink()
        assert main(["report", "--config", str(config)]) == 0
        assert (out / "report.csv").exists()
        assert main(["report", "--config", str(config), "--out", str(tmp_path / "x")]) == 3

    def test_evaluate_without_pools_is_data_error(self, tmp_path):
        out = tmp_path / "o3"
        config = _write_config(tmp_path, out)
        assert main(["prepare", "--config", str(config)]) == 0
        assert main(["evaluate", "--config", str(config)]) == 3

    def test_missing_data_csv_is_data_error(self, tmp_path, capsys):
        doc = {
            "seed": 1, "out_dir": str(tmp_path / "o7"),
            "data": {"csv": str(tmp_path / "data.csv"),
                     "schema": {"mode": "discretize-all", "variables": [
                         {"name": "sex", "kind": "binary", "categories": ["f", "m"]}]}},
            "methods": [],
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        assert main(["run", "--config", str(path)]) == 3
        assert "data error" in capsys.readouterr().err

    def test_non_numeric_cont_cell_is_data_error(self, tmp_path, capsys):
        (tmp_path / "data.csv").write_text("w,sex\n1.5,f\nabc,m\n2.0,f\n")
        doc = {
            "seed": 1, "out_dir": str(tmp_path / "o8"),
            "data": {"csv": str(tmp_path / "data.csv"),
                     "schema": {"mode": "discretize-all", "variables": [
                         {"name": "w", "kind": "numerical-cont", "bin_edges": [0, 1, 3]},
                         {"name": "sex", "kind": "binary", "categories": ["f", "m"]}]}},
            "methods": [],
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        assert main(["run", "--config", str(path)]) == 3
        assert "data.csv:3: 'w' needs a number, got 'abc'" in capsys.readouterr().err

    def test_bad_synth_spec_is_config_error(self, tmp_path):
        doc = {
            "seed": 1, "out_dir": str(tmp_path / "o4"),
            "data": {"synthetic": {"kind": "latent-class", "size": 10,
                                   "dependence": 2.0}},
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["synth", "--config", str(path)]) == 2

    def test_seed_and_out_overrides(self, tmp_path):
        out = tmp_path / "o5"
        override = tmp_path / "o6"
        config = _write_config(tmp_path, out, methods=[])
        assert main(["run", "--config", str(config), "--out", str(override),
                     "--seed", "99"]) == 0
        assert (override / "report.json").exists()
        report = json.loads((override / "report.json").read_text())
        assert report["metadata"]["master_seed"] == 99

    @pytest.mark.parametrize("corrupt, message", [
        (lambda doc: doc["decoder"]["layers"][-1]["biases"].pop(), "do not match"),
        (lambda doc: doc["decoder"]["heads"].pop(), "heads cover 9 of 12 output columns"),
    ])
    def test_corrupt_vae_checkpoint_is_data_error(self, tmp_path, capsys, corrupt, message):
        out = tmp_path / "o9"
        config = _write_config(tmp_path, out, methods=[
            {"name": "vae", "kind": "vae",
             "params": {"hidden": [6], "latent_dim": 2, "beta": 0.1,
                        "epochs": 1, "batch_size": 32}}])
        assert main(["prepare", "--config", str(config)]) == 0
        assert main(["train", "--config", str(config), "--method", "vae"]) == 0
        path = out / "models" / "vae.json"
        doc = json.loads(path.read_text())
        corrupt(doc)
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["sample", "--config", str(config), "--method", "vae"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and message in err

    @pytest.mark.parametrize("target, method, argv", [
        ("models/vae.json", "vae", ["sample", "--method", "vae"]),
        ("models/bn.json", "bn", ["sample", "--method", "bn"]),
        ("models/gibbs.json", "gibbs", ["sample", "--method", "gibbs"]),
        ("schema.json", None, ["train", "--method", "bn"]),
        ("report.json", None, ["report"]),
    ])
    def test_file_that_is_not_json_is_data_error(self, tmp_path, capsys, target, method, argv):
        out = tmp_path / "o"
        config = _write_config(tmp_path, out)
        assert main(["prepare", "--config", str(config)]) == 0
        if method is not None:
            assert main(["train", "--config", str(config), "--method", method]) == 0
        (out / target).write_text("{not json")
        capsys.readouterr()
        assert main([*argv, "--config", str(config)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and f"{target}: not valid JSON" in err

    def test_other_toolkit_errors_are_data_errors(self, tmp_path, monkeypatch, capsys):
        def stale(args):
            raise StaleCacheError("cache does not match")

        monkeypatch.setitem(cli.COMMANDS, "report", stale)
        assert main(["report", "--out", str(tmp_path)]) == 3
        assert "data error: cache does not match" in capsys.readouterr().err
