"""CLI surface: subcommands, staged flow, exit codes."""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import agentsynth
from agentsynth import cli, vae
from agentsynth.bayesnet import bn_from_dict, mdl_score
from agentsynth.cli import main
from agentsynth.dataset import Schema, VariableSpec, pool_to_codes, read_pool_csv, schema_from_json
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


def _assert_telemetry(info):
    assert (info["python"], info["numpy"]) == (platform.python_version(), np.__version__)
    assert isinstance(info["peak_rss_mb"], float) and 1 < info["peak_rss_mb"] < 1e6
    # the high-water mark at the end of each finished stage
    stage_peaks = info["stage_peak_rss_mb"]
    assert list(stage_peaks) == list(info["timings_seconds"])
    assert list(stage_peaks.values()) == sorted(stage_peaks.values())
    assert all(isinstance(peak, float) and 1 < peak <= info["peak_rss_mb"]
               for peak in stage_peaks.values())


def _numeric_bins_config(tmp_path, out_dir):
    """Latent-class data with two numerical-cont variables in a
    discretize-all schema: Gibbs, the BN and the VAE draw raw values
    inside bins."""
    path = _write_config(tmp_path, out_dir)
    doc = json.loads(path.read_text())
    doc["data"]["synthetic"]["numeric_variables"] = 2
    path.write_text(json.dumps(doc))
    return path


def _mixed_csv_config(tmp_path, out_dir):
    """A mixed-mode CSV with numerical-cont and numerical-int columns, fitted
    by the VAE and Gibbs."""
    rng = np.random.default_rng(3)
    group = rng.integers(0, 3, size=500)
    weight = rng.normal(group * 2.0, 1.0)
    count = np.rint(rng.normal(10.0 + 3.0 * group, 2.0)).astype(int)
    sex = np.where(rng.random(500) < 0.3 + 0.2 * group, "f", "m")
    lines = ["cat,w,n,sex"] + [f"{'abc'[g]},{w!r},{c},{x}" for g, w, c, x
                               in zip(group.tolist(), weight.tolist(), count.tolist(), sex)]
    (tmp_path / "survey.csv").write_text("\n".join(lines) + "\n")
    path = _write_config(tmp_path, out_dir, methods=[
        {"name": "vae", "kind": "vae", "params": {"hidden": [6], "latent_dim": 2, "beta": 0.1,
                                                  "epochs": 5, "batch_size": 32}},
        {"name": "gibbs", "kind": "gibbs", "params": {"warmup": 40, "thinning": 2}}])
    doc = json.loads(path.read_text())
    doc["data"] = {"csv": str(tmp_path / "survey.csv"), "schema": {"mode": "mixed", "variables": [
        {"name": "cat", "kind": "categorical", "categories": ["a", "b", "c"]},
        {"name": "w", "kind": "numerical-cont", "bins": 4},
        {"name": "n", "kind": "numerical-int", "bins": 3},
        {"name": "sex", "kind": "binary", "categories": ["f", "m"]}]}}
    path.write_text(json.dumps(doc))
    return path


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

    @pytest.mark.parametrize("write_config", [_write_config, _numeric_bins_config,
                                              _mixed_csv_config],
                             ids=["categorical", "numeric-bins", "mixed-csv"])
    def test_staged_flow_matches_run(self, tmp_path, write_config):
        staged, whole = tmp_path / "staged", tmp_path / "whole"
        config = write_config(tmp_path, staged)
        methods = [m["name"] for m in json.loads(config.read_text())["methods"]]
        commands = [(["prepare"], "prepare")]
        for method in methods:
            commands += [(["train", "--method", method], f"train:{method}"),
                         (["sample", "--method", method], f"sample:{method}")]
        commands.append((["evaluate"], "evaluate"))
        for argv, key in commands:
            assert main([*argv, "--config", str(config)]) == 0
            info = _run_info(staged)
            assert (info["status"], info["stage"], list(info["timings_seconds"])) == \
                ("ok", None, [key])
            _assert_telemetry(info)
        assert main(["run", "--config", str(config), "--out", str(whole)]) == 0
        assert list(_run_info(whole)["timings_seconds"]) == \
            [key for _, key in commands] + ["scatter-and-pca"]
        _assert_telemetry(_run_info(whole))
        same = ["data/train.csv", "data/validation.csv", "data/test.csv",
                "report.json", "report.csv", "models/vae-training-log.csv",
                "models/gibbs-diagnostics.json"]
        same += [f"pools/{m}.csv" for m in methods] + [f"models/{m}.json" for m in methods
                                                      if m != "bn"]
        for name in same:
            assert (staged / name).read_bytes() == (whole / name).read_bytes(), name
        if "bn" in methods:
            # BN models also record the structure search's wall-clock time
            staged_bn, whole_bn = (json.loads((out / "models" / "bn.json").read_text())
                                   for out in (staged, whole))
            assert staged_bn.pop("runtime_seconds") is not None
            assert whole_bn.pop("runtime_seconds") is not None
            assert staged_bn == whole_bn
        metadata = json.loads((staged / "report.json").read_text())["metadata"]
        assert metadata["sizes"] == {"train": 150, "validation": 50, "test": 300}

    def test_failing_train_records_its_stage(self, tmp_path):
        # a variable name is checked against the schema, so only when training
        out = tmp_path / "o"
        config = _write_config(tmp_path, out, methods=[
            {"name": "vae", "kind": "vae", "params": {"selection_variables": ["nope"]}}])
        assert main(["prepare", "--config", str(config)]) == 0
        assert main(["train", "--config", str(config), "--method", "vae"]) == 2
        info = _run_info(out)
        assert (info["status"], info["stage"]) == ("failed", "train:vae")
        assert "selection_variables must name distinct schema variables" in info["error"]
        assert not (out / "models" / "vae.json").exists()

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


def _set(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


class TestExitCodes:
    @pytest.mark.parametrize("command, path, value, message", [
        ("prepare", ("seed",), "abc", "seed must be a non-negative integer"),
        ("prepare", ("seed",), 2.7, "seed must be a non-negative integer"),
        ("prepare", ("seed",), True, "seed must be a non-negative integer, got True"),
        ("prepare", ("seed",), -1, "seed must be a non-negative integer, got -1"),
        ("prepare", ("--seed",), -1, "--seed must be a non-negative integer, got -1"),
        ("prepare", ("data", "synthetic", "seed"), -1,
         "generator seed must be a non-negative integer, got -1"),
        ("prepare", ("methods", 0, "params", "seed"), -1,
         "method 'vae': seed must be a non-negative integer, got -1"),
        ("prepare", ("methods", 1, "params", "seed"), -1,
         "method 'gibbs': seed must be a non-negative integer, got -1"),
        ("prepare", ("split", "train_frac"), None, "split.train_frac must be a number"),
        ("prepare", ("split", "train_frac"), "0.2", "split.train_frac must be a number"),
        ("prepare", ("methods",), "vae", "methods must be a list"),
        ("prepare", ("data",), [], "data must be an object"),
        ("prepare", ("data", "synthetic", "size"), "400", "generator size must be an integer"),
        ("prepare", ("data", "synthetic", "size"), 400.5, "generator size must be an integer"),
        ("prepare", ("generation_count",), 10.5, "generation_count must be an integer"),
        ("prepare", ("generation_count",), "50", "generation_count must be an integer"),
        ("prepare", ("projection",), "x00", "projection must be a list of names"),
        ("prepare", ("data",), {"csv": 5, "schema": {"variables": []}},
         "data.csv must be a string"),
        ("prepare", ("out_dir",), 7, "out_dir must be a string"),
        ("run", ("methods", 0, "params", "epochs"), "3",
         "method 'vae': epochs must be an integer"),
        ("run", ("methods", 0, "params", "hidden"), 8,
         "method 'vae': hidden must be a list of integers"),
        ("run", ("methods", 1, "params", "warmup"), "5",
         "method 'gibbs': warmup must be an integer"),
        ("run", ("methods", 2, "params"), {"algorithm": "greedy", "max_parents": "2"},
         "method 'bn': max_parents must be an integer"),
    ])
    def test_value_of_the_wrong_type_is_config_error(self, tmp_path, capsys, command, path,
                                                     value, message):
        config = _write_config(tmp_path, tmp_path / "o")
        argv = [command, "--config", str(config)]
        if path[0].startswith("--"):  # a command-line option
            argv += [path[0], str(value)]
        else:
            doc = json.loads(config.read_text())
            _set(doc, path, value)
            config.write_text(json.dumps(doc))
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and message in err, err

    @pytest.mark.parametrize("variables, cell, message", [
        ({"w": {"kind": "numerical-cont"}}, "2.5", "schema 'variables' must be a list"),
        ([{"name": "w", "kind": "numerical-cont", "bin_edges": [0, "x", 3]}], "2.5",
         "'w': bin_edges must be a list of numbers"),
        ([{"name": "w", "kind": "numerical-cont", "bin_edges": [0, 1, float("inf")]}], "0.5",
         "'w': bin edges must be finite"),
        ([{"name": "w", "kind": "numerical-cont", "bins": 2.5}], "2.5",
         "'w': bins must be an integer, got 2.5"),
        ([{"name": "w", "kind": "numerical-cont", "bins": "4"}], "2.5",
         "'w': bins must be an integer, got '4'"),
        ([{"name": "w", "kind": "numerical-cont", "bins": True}], "2.5",
         "'w': bins must be an integer, got True"),
        ([{"name": "w", "kind": "numerical-cont", "bins": 2}], "nan",
         "data.csv:3: column 'w' declares a bin count and holds 'nan'"),
        ([{"name": "w", "kind": "numerical-cont", "bins": 2}], "-inf",
         "data.csv:3: column 'w' declares a bin count and holds '-inf'"),
        ([{"name": "w", "kind": "numerical-cont", "bins": 2}], "abc",
         "data.csv:3: 'w' needs a number, got 'abc'"),
        ([{"name": "w", "kind": "numerical-cont", "bins": 2}], "",
         "data.csv:3: missing value for 'w'"),
        # the line end in the cell cuts line 3 short
        ([{"name": "w", "kind": "numerical-cont", "bins": 2}], "2.5\n0.5",
         "data.csv:3: expected 2 cells, got 1"),
        ([{"name": "w", "kind": "categorical", "categories": ["", "2.5"]}], "2.5",
         "variable 'w': a category cannot be empty"),
    ])
    def test_bad_schema_value_is_data_error(self, tmp_path, capsys, variables, cell, message):
        (tmp_path / "data.csv").write_text(f"w,sex\n1.5,f\n{cell},m\n0.5,f\n2.0,m\n")
        if isinstance(variables, list):
            variables = variables + [{"name": "sex", "kind": "binary", "categories": ["f", "m"]}]
        path = _write_config(tmp_path, tmp_path / "o", methods=[])
        doc = json.loads(path.read_text())
        doc["data"] = {"csv": str(tmp_path / "data.csv"),
                       "schema": {"mode": "discretize-all", "variables": variables}}
        path.write_text(json.dumps(doc))
        assert main(["prepare", "--config", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and message in err, err

    def test_short_row_before_a_bins_column_is_data_error(self, tmp_path, capsys):
        (tmp_path / "data.csv").write_text("sex,w\nf,1.5\nm\nf,0.5\nm,2.0\n")
        path = _write_config(tmp_path, tmp_path / "o", methods=[])
        doc = json.loads(path.read_text())
        doc["data"] = {"csv": str(tmp_path / "data.csv"), "schema": {"variables": [
            {"name": "sex", "kind": "binary", "categories": ["f", "m"]},
            {"name": "w", "kind": "numerical-cont", "bins": 2}]}}
        path.write_text(json.dumps(doc))
        assert main(["prepare", "--config", str(path)]) == 3
        assert "data.csv:3: expected 2 cells, got 1" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, params, message", [
        ("vae", {"selection_variables": ["x00", "nope"]}, "must name distinct schema variables"),
        ("vae", {"selection_variables": ["x00", "x00"]}, "must name distinct schema variables"),
        ("vae", {"selection_variables": []}, "must name distinct schema variables"),
    ])
    def test_invalid_method_setting_is_config_error(self, tmp_path, capsys, kind, params,
                                                    message):
        # a setting that names schema variables fails before training writes
        # the model file; the settings that need no data fail when the
        # configuration loads (TestExitCodeContract)
        grid = {"hidden_options": [[6]], "latent_options": [2], "beta_options": [0.1],
                "epochs": 2} if kind == "vae" else {}
        out = tmp_path / "o"
        config = _write_config(tmp_path, out, methods=[
            {"name": "m", "kind": kind, "params": {**grid, **params}}])
        assert main(["run", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and message in err, err
        assert _run_info(out)["stage"] == "train:m"
        assert not (out / "models" / "m.json").exists()

    def test_missing_config_is_config_error(self):
        assert main(["run"]) == 2

    def test_nonexistent_config_file(self, tmp_path, capsys):
        # a missing file, a directory, a non-UTF-8 byte and broken JSON
        (tmp_path / "latin.json").write_bytes(b'{"seed": 1, "n": "\xff"}')
        (tmp_path / "broken.json").write_bytes(b"{not json")
        for path in ("nope.json", ".", "latin.json", "broken.json"):
            assert main(["run", "--config", str(tmp_path / path)]) == 2, path
            assert capsys.readouterr().err.startswith("configuration error:"), path

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
        # an unknown name, no name, or a name twice
        for projection in (["nope"], [], ["x00", "x00"]):
            doc["projection"] = projection
            config.write_text(json.dumps(doc))
            assert main([command, "--config", str(config)]) == 2, projection
            info = _run_info(out)
            assert (info["status"], info["stage"]) == \
                ("failed", "prepare" if command == "run" else command)
            assert "projection" in info["error"]

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


# ---------------------------------------------------------------------------
# the exit-code contract, checked on a fresh interpreter per command


def _cli(*argv):
    """Exit code and stderr of ``python -m agentsynth.cli argv``."""
    paths = [str(Path(agentsynth.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    done = subprocess.run([sys.executable, "-m", "agentsynth.cli", *map(str, argv)],
                          capture_output=True, text=True, env=env, timeout=300)
    return done.returncode, done.stderr


def test_run_info_memory_is_the_commands_own(tmp_path):
    """A command started from a process that holds 150 MB reports its own
    peak, not the inherited one: ``ru_maxrss`` carries the parent's over."""
    ballast = bytearray(b"\1") * (150 << 20)  # written, so resident
    out = tmp_path / "out"
    code, err = _cli("prepare", "--config", _write_config(tmp_path, out, methods=[]))
    assert code == 0, err
    assert ballast[-1] == 1
    info = _run_info(out)
    assert list(info["stage_peak_rss_mb"]) == ["prepare"]
    assert 1 < info["peak_rss_mb"] < 150
    assert all(1 < peak < 150 for peak in info["stage_peak_rss_mb"].values())


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A prepared output directory with a model of each kind, and the
    configuration path and every model document as written."""
    root = tmp_path_factory.mktemp("contract")
    config = _write_config(root, root / "out", methods=[
        {"name": "vae", "kind": "vae",
         "params": {"hidden": [4], "latent_dim": 2, "epochs": 1, "batch_size": 32}},
        {"name": "gibbs", "kind": "gibbs", "params": {"warmup": 10, "thinning": 1}},
        {"name": "bn", "kind": "bn", "params": {"algorithm": "tree"}},
    ])
    assert main(["prepare", "--config", str(config)]) == 0
    docs = {}
    for method in ("vae", "gibbs", "bn"):
        assert main(["train", "--config", str(config), "--method", method]) == 0
        docs[method] = json.loads((root / "out" / "models" / f"{method}.json").read_text())
    return config, docs


def _mixed_checkpoint_without(name):
    """A mixed-schema VAE checkpoint whose standardization lacks ``name``."""
    schema = Schema((VariableSpec("age", "numerical-cont", bin_edges=(0.0, 50.0, 100.0)),
                     VariableSpec("income", "numerical-cont", bin_edges=(0.0, 1.0, 2.0)),
                     VariableSpec("sex", "binary", categories=("f", "m"))), "mixed")
    model = vae.build_vae(schema, (4,), 2, 0.5, np.random.default_rng(0))
    model.standardization = {"age": (40.0, 12.0), "income": (1.0, 0.5)}
    doc = vae.vae_to_dict(model)
    del doc["standardization"][name]
    return doc


class TestExitCodeContract:
    """Each malformed file or configuration exits with its documented code
    (2 configuration, 3 data) and a one-line message, never a traceback."""

    @pytest.mark.parametrize("method, corrupt, message", [
        ("vae", lambda doc: [], "a VAE checkpoint must be an object, got []"),
        ("bn", lambda doc: [], "a BN model document must be an object, got []"),
        ("gibbs", lambda doc: [], "a Gibbs chain model must be an object, got []"),
        ("vae", lambda doc: {**doc, "latent_dim": "two"},
         "VAE latent_dim must be an integer, got 'two'"),
        ("vae", lambda doc: _mixed_checkpoint_without("income"),
         "standardization of 'income' must be a list of numbers, got None"),
        ("bn", lambda doc: {**doc, "n_nodes": "4"}, "BN n_nodes must be an integer, got '4'"),
        ("gibbs", lambda doc: {**doc, "warmup": 1.5},
         "Gibbs chain warmup must be an integer, got 1.5"),
        ("gibbs", lambda doc: {**doc, "seed": True},
         "Gibbs chain seed must be a non-negative integer"),
        ("gibbs", lambda doc: {**doc, "seed": -1},
         "Gibbs chain seed must be a non-negative integer, got -1"),
    ])
    def test_malformed_model_file_exits_3(self, trained, method, corrupt, message):
        config, docs = trained
        path = config.parent / "out" / "models" / f"{method}.json"
        path.write_text(json.dumps(corrupt(docs[method])))
        code, err = _cli("sample", "--config", config, "--method", method)
        assert (code, "Traceback" in err) == (3, False), err
        assert err.startswith("data error:") and message in err, err

    @pytest.mark.parametrize("text, message", [
        ("{}", "report methods must be a list of names, got None"),
        ("[]", "the report must be an object, got []"),
    ])
    def test_malformed_report_exits_3(self, tmp_path, text, message):
        (tmp_path / "report.json").write_text(text)
        code, err = _cli("report", "--out", tmp_path)
        assert (code, "Traceback" in err) == (3, False), err
        assert err.startswith("data error:") and message in err, err
        assert not (tmp_path / "report.csv").exists()

    @pytest.mark.parametrize("command, path, value, message", [
        ("prepare", ("methods", 2, "params"), {"algoritm": "greedy"},
         "method 'bn': params has unknown keys ['algoritm']; it accepts "
         "['algorithm', 'max_parents']"),
        ("run", ("methods", 2, "params"), {"algoritm": "greedy"},
         "method 'bn': params has unknown keys ['algoritm']"),
        ("run", ("methods", 2, "params"), {"algorithm": "exact", "max_vars": 16},
         "method 'bn': params has unknown keys ['max_vars']"),
        ("prepare", ("methods", 1, "params", "restart_on_unreachable"), True,
         "method 'gibbs': params has unknown keys ['restart_on_unreachable']"),
        ("run", ("projection",), [99], "projection must be a list of names, got [99]"),
        ("prepare", ("methods", 0, "params", "beta"), "0.1",
         "method 'vae': beta must be a number, got '0.1'"),
        ("prepare", ("split", "train_frac"), 1.5,
         "split fractions must lie strictly between 0 and 1"),
        ("prepare", ("generation_cont",), 50,
         "the configuration has unknown keys ['generation_cont']; it accepts ['seed', "),
        ("prepare", ("data", "schemas"), {}, "data has unknown keys ['schemas']; it accepts "
         "['csv', 'schema', 'synthetic']"),
        ("prepare", ("split", "train_fraction"), 0.5, "split has unknown keys "
         "['train_fraction']; it accepts ['train_frac', 'val_frac_of_train']"),
        ("prepare", ("methods", 0, "param"), {}, "methods[0] has unknown keys ['param']; "
         "it accepts ['name', 'kind', 'params']"),
        ("prepare", ("data", "synthetic", "sise"), 50,
         "data.synthetic has unknown keys ['sise']; it accepts ['kind', 'size', "),
        # range errors that need no data fail when the configuration loads
        ("run", ("methods", 0, "params", "hidden"), [0],
         "method 'vae': layer widths must be >= 1, got hidden [0]"),
        ("prepare", ("methods", 0, "params", "latent_dim"), -2,
         "method 'vae': layer widths must be >= 1"),
        ("prepare", ("methods", 0, "params", "beta"), 0, "method 'vae': beta must be positive"),
        ("prepare", ("methods", 0, "params", "latent_options"), [2],
         "method 'vae': grid search needs hidden, latent, and beta options together"),
        ("prepare", ("methods", 0, "params"),
         {"hidden_options": [[6]], "latent_options": [2, 0], "beta_options": [0.1]},
         "method 'vae': layer widths must be >= 1"),
        ("prepare", ("methods", 0, "params"),
         {"hidden_options": [[6]], "latent_options": [2], "beta_options": [0.0]},
         "method 'vae': beta must be positive"),
        ("prepare", ("methods", 0, "params"),
         {"hidden_options": [[]], "latent_options": [], "beta_options": [0.1]},
         "method 'vae': grid search needs at least one value per option"),
        ("prepare", ("methods", 0, "params", "selection_samples"), 0,
         "method 'vae': selection_samples must be >= 1"),
        ("prepare", ("methods", 0, "params", "harden"), "mode",
         "method 'vae': unknown hardening rule 'mode'"),
        ("prepare", ("methods", 1, "params", "warmup"), -1, "method 'gibbs': warmup must be >= 0"),
        ("run", ("methods", 1, "params", "thinning"), 0, "method 'gibbs': thinning must be >= 1"),
        ("prepare", ("methods", 2, "params", "algorithm"), "wrong",
         "method 'bn': unknown BN algorithm 'wrong'"),
        ("run", ("methods", 2, "params"), {"algorithm": "greedy", "max_parents": -1},
         "method 'bn': max_parents must be >= 0"),
    ])
    def test_malformed_config_exits_2_before_any_work(self, tmp_path, command, path, value,
                                                      message):
        config = _write_config(tmp_path, tmp_path / "out")
        doc = json.loads(config.read_text())
        _set(doc, path, value)
        config.write_text(json.dumps(doc))
        code, err = _cli(command, "--config", config)
        assert (code, "Traceback" in err) == (2, False), err
        assert err.startswith("configuration error:") and message in err, err
        assert not (tmp_path / "out").exists()
