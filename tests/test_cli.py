"""CLI surface: subcommands, staged flow, exit codes."""

import hashlib
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
        # prepare checks the selection variables against the schema, and
        # training checks them again for a configuration changed since
        out = tmp_path / "o"
        config = _write_config(tmp_path, out, methods=[{"name": "vae", "kind": "vae"}])
        assert main(["prepare", "--config", str(config)]) == 0
        _write_config(tmp_path, out, methods=[
            {"name": "vae", "kind": "vae", "params": {"selection_variables": ["nope"]}}])
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


# every configuration field of JSON type "a number" or "a list of numbers",
# and the message a non-finite value gets
NUMBER_FIELDS = [
    (("split", "train_frac"), "split fractions must lie strictly between 0 and 1"),
    (("split", "val_frac_of_train"), "split fractions must lie strictly between 0 and 1"),
    (("data", "synthetic", "dependence"), "dependence must lie in [0, 1)"),
    (("methods", 0, "params", "beta"), "method 'vae': beta must be positive and finite"),
    (("methods", 0, "params", "beta_options"), "method 'vae': beta must be positive and finite"),
    (("methods", 0, "params", "learning_rate"),
     "method 'vae': learning_rate must be positive and finite"),
]


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
        # names and categories are strings, not coerced to them
        ([{"name": 7, "kind": "numerical-cont", "bins": 2}], "2.5",
         "variable 7: name must be a string, got 7"),
        ([{"name": "w", "kind": "categorical", "categories": [1, None, True]}], "1",
         "variable 'w': categories must be a list of names, got [1, None, True]"),
        ([{"name": "w", "kind": "numerical-cont", "bns": 2}], "2.5",
         "variable 'w' has unknown keys ['bns']; it accepts ['name', 'kind', 'categories', "
         "'bin_edges', 'bins']"),
        ([{"name": "w", "kind": "numerical-cont", "bins": 2, "bin_edges": [0, 1, 3]}], "2.5",
         "variable 'w' holds both 'bins' and 'bin_edges'"),
        # a key of the other kind of variable
        ([{"name": "w", "kind": "numerical-int", "categories": ["a", "b"],
           "bin_edges": [0, 1, 3]}], "2",
         "variable 'w' is numerical-int and holds 'categories'; it accepts ['name', 'kind', "
         "'bin_edges', 'bins']"),
        ([{"name": "w", "kind": "binary", "categories": ["2.5", "1.5"], "bins": 3}], "2.5",
         "variable 'w' is binary and holds 'bins'; it accepts ['name', 'kind', 'categories']"),
        ([{"name": "w", "kind": "categorical", "categories": ["2.5", "1.5", "0.5", "2.0"],
           "bins": 2}], "2.5",
         "variable 'w' is categorical and holds 'bins'; it accepts ['name', 'kind', "
         "'categories']"),
        ([{"name": "w", "kind": "categorical", "categories": ["2.5", "1.5", "0.5", "2.0"],
           "bin_edges": [0, 1, 3]}], "2.5",
         "variable 'w' is categorical and holds 'bin_edges'; it accepts ['name', 'kind', "
         "'categories']"),
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

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")],
                             ids=["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("path, message", NUMBER_FIELDS,
                             ids=[".".join(map(str, path)) for path, _ in NUMBER_FIELDS])
    def test_non_finite_number_is_config_error(self, tmp_path, capsys, path, message, value):
        # Python's json reads and writes NaN, Infinity and -Infinity
        out = tmp_path / "o"
        config = _write_config(tmp_path, out)
        doc = json.loads(config.read_text())
        if path[-1] == "beta_options":  # a grid needs all three option lists
            doc["methods"][0]["params"].update(hidden_options=[[6]], latent_options=[2])
            value = [0.1, value]
        _set(doc, path, value)
        config.write_text(json.dumps(doc))
        assert main(["run", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and message in err, err
        assert not (out / "data").exists()

    def test_number_fields_are_all_listed(self):
        # every configuration field of JSON type "a number" (or a list of
        # them) is in NUMBER_FIELDS
        from agentsynth import pipeline, synthdata

        tables = [pipeline.CONFIG_FIELDS, pipeline.DATA_FIELDS, pipeline.SPLIT_FIELDS,
                  pipeline.METHOD_FIELDS, synthdata.SPEC_FIELDS, *pipeline.METHOD_PARAMS.values()]
        numbers = {key for table in tables for key, kind in table.items()
                   if kind in ("a number", "a list of numbers")}
        assert numbers == {path[-1] for path, _ in NUMBER_FIELDS}

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
        # a setting that names schema variables fails in prepare, before
        # the data is written or a method listed before it trains; the
        # settings that need no data fail when the configuration loads
        # (TestExitCodeContract)
        grid = {"hidden_options": [[6]], "latent_options": [2], "beta_options": [0.1],
                "epochs": 2} if kind == "vae" else {}
        out = tmp_path / "o"
        config = _write_config(tmp_path, out, methods=[
            {"name": "bn", "kind": "bn", "params": {"algorithm": "tree"}},
            {"name": "m", "kind": kind, "params": {**grid, **params}}])
        assert main(["run", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and message in err, err
        assert _run_info(out)["stage"] == "prepare"
        assert not (out / "data").exists()
        assert not (out / "models").exists() and not (out / "pools").exists()

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


def test_run_info_records_the_config_digest(tmp_path):
    """``run`` and the staged subcommands of one configuration record the
    SHA-256 of its document, ``--seed`` and ``--out`` applied; the
    deterministic report does not hold it."""
    out = tmp_path / "out"
    config = _write_config(tmp_path, out, count=50, methods=[
        {"name": "bn", "kind": "bn", "params": {"algorithm": "tree"}}])
    doc = json.loads(config.read_text())

    def digest(**effective):
        text = json.dumps({**doc, **effective}, sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()

    digests = []
    for argv in (["prepare"], ["train", "--method", "bn"], ["sample", "--method", "bn"],
                 ["evaluate"], ["run"]):
        assert main([*argv, "--config", str(config)]) == 0
        digests.append(_run_info(out)["config_sha256"])
    assert digests == [digest()] * 5
    report = (out / "report.json").read_text()
    assert "config_sha256" not in report and digest() not in report
    assert main(["prepare", "--config", str(config), "--seed", "22"]) == 0
    assert _run_info(out)["config_sha256"] == digest(seed=22) != digest()
    other = tmp_path / "other"
    assert main(["prepare", "--config", str(config), "--out", str(other)]) == 0
    assert _run_info(other)["config_sha256"] == digest(out_dir=str(other)) != digest()


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


def _ragged_decoder(doc):
    """A copy of the VAE checkpoint ``doc`` whose decoder's second weight
    row is one value short."""
    doc = json.loads(json.dumps(doc))
    doc["decoder"]["layers"][0]["weights"][1].pop()
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
         "VAE standardization lacks 'income'"),
        ("bn", lambda doc: {**doc, "n_nodes": "4"}, "BN n_nodes must be an integer, got '4'"),
        ("gibbs", lambda doc: {**doc, "warmup": 1.5},
         "Gibbs chain warmup must be an integer, got 1.5"),
        ("gibbs", lambda doc: {**doc, "seed": True},
         "Gibbs chain seed must be a non-negative integer"),
        ("gibbs", lambda doc: {**doc, "seed": -1},
         "Gibbs chain seed must be a non-negative integer, got -1"),
        ("bn", lambda doc: {key: value for key, value in doc.items() if key != "parents"},
         "a BN model document lacks 'parents'"),
        ("bn", lambda doc: {key: value for key, value in doc.items() if key != "schema"},
         "a BN model document lacks 'schema'"),
        ("bn", lambda doc: {**doc, "schema": None}, "BN schema must be an object, got None"),
        ("vae", _ragged_decoder, "VAE decoder layer 0: weights row 1 has length 1, "
         "not 2 like row 0"),
        ("gibbs", lambda doc: {**doc, "thinning": 0},
         "Gibbs chain model: thinning must be >= 1"),
        ("vae", lambda doc: {**doc, "decoder": {**doc["decoder"], "heads": ["softmax"]}},
         "VAE decoder head 0 must be an object, got 'softmax'"),
    ])
    def test_malformed_model_file_exits_3(self, trained, method, corrupt, message):
        config, docs = trained
        path = config.parent / "out" / "models" / f"{method}.json"
        path.write_text(json.dumps(corrupt(docs[method])))
        code, err = _cli("sample", "--config", config, "--method", method)
        assert (code, "Traceback" in err, "Error(" in err, err.count("\n")) == (
            3, False, False, 1), err
        assert err.startswith("data error:") and message in err, err

    @pytest.mark.parametrize("case", ["bn-twice", "bn-plus-one", "vae-before-prepare"])
    def test_model_of_another_schema_exits_3(self, tmp_path, case):
        """A BN of 8 or 5 nodes over a 4-variable schema, and a VAE trained
        before a 5-variable prepare: unchecked, the first wrote 100 agents,
        the second failed in a reshape and the third wrote a pool of the
        old schema's columns."""
        out = tmp_path / "out"
        config = _write_config(tmp_path, out, count=50, methods=[
            {"name": "vae", "kind": "vae",
             "params": {"hidden": [4], "latent_dim": 2, "epochs": 1, "batch_size": 32}},
            {"name": "bn", "kind": "bn", "params": {"algorithm": "tree"}}])
        method = case.split("-")[0]
        assert main(["prepare", "--config", str(config)]) == 0
        assert main(["train", "--config", str(config), "--method", method]) == 0
        path = out / "models" / f"{method}.json"
        doc = json.loads(path.read_text())
        if case == "bn-twice":
            doc.update(n_nodes=8, value_counts=doc["value_counts"] * 2,
                       parents=doc["parents"] + [[p + 4 for p in pa] for pa in doc["parents"]],
                       tables=doc["tables"] * 2)
        elif case == "bn-plus-one":
            doc.update(n_nodes=5, value_counts=doc["value_counts"] + [2],
                       parents=doc["parents"] + [[]], tables=doc["tables"] + [[[0.5, 0.5]]])
        else:
            conf = json.loads(config.read_text())
            conf["data"]["synthetic"]["n_variables"] = 5
            config.write_text(json.dumps(conf))
            assert main(["prepare", "--config", str(config)]) == 0
        path.write_text(json.dumps(doc))
        code, err = _cli("sample", "--config", config, "--method", method)
        assert (code, "Traceback" in err, err.count("\n")) == (3, False, 1), err
        assert err.startswith(f"data error: models/{method}.json does not fit schema.json"), err
        assert not (out / "pools" / f"{method}.csv").exists()

    def test_bn_of_another_schema_with_equal_widths_exits_3(self, tmp_path):
        """A BN trained on columns a, b, sampled after prepare ran again with
        them renamed c, d: unchecked, it wrote c,d,provenance from the
        network of a, b."""
        out = tmp_path / "out"
        config = _write_config(tmp_path, out, count=50, methods=[
            {"name": "bn", "kind": "bn", "params": {"algorithm": "tree"}}])
        doc = json.loads(config.read_text())

        def prepare(first, second):
            (tmp_path / "data.csv").write_text(
                f"{first},{second}\n" + "".join(f"{i % 2},{i % 3}\n" for i in range(60)))
            doc["data"] = {"csv": str(tmp_path / "data.csv"), "schema": {"variables": [
                {"name": first, "kind": "binary", "categories": ["0", "1"]},
                {"name": second, "kind": "categorical", "categories": ["0", "1", "2"]}]}}
            config.write_text(json.dumps(doc))
            assert main(["prepare", "--config", str(config)]) == 0

        prepare("a", "b")
        assert main(["train", "--config", str(config), "--method", "bn"]) == 0
        path = out / "models" / "bn.json"
        assert json.loads(path.read_text())["schema"] == json.loads(
            (out / "schema.json").read_text())
        prepare("c", "d")
        code, err = _cli("sample", "--config", config, "--method", "bn")
        assert (code, "Traceback" in err, err.count("\n")) == (3, False, 1), err
        assert err.startswith("data error: models/bn.json does not fit schema.json"), err
        assert not (out / "pools" / "bn.csv").exists()

    @pytest.mark.parametrize("text, message", [
        ("{}", "the report lacks 'methods'"),
        ("[]", "the report must be an object, got []"),
        (json.dumps({"methods": ["g"], "metadata": {}, "rows": {"g": {
            "views": {"marginal": {"srmse": 0.1, "r2": 0.5}}, "pairwise_cramers_v": None,
            "mu_ns": 0.2, "sigma_ns": 0.1}}}), "'g' view 'marginal' lacks 'corr'"),
    ])
    def test_malformed_report_exits_3(self, tmp_path, text, message):
        (tmp_path / "report.json").write_text(text)
        code, err = _cli("report", "--out", tmp_path)
        assert (code, "Traceback" in err, "Error(" in err, err.count("\n")) == (
            3, False, False, 1), err
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
        ("run", ("methods", 0, "params", "learning_rate"), -0.001,
         "method 'vae': learning_rate must be positive and finite, got -0.001"),
        ("run", ("methods", 0, "params", "learning_rate"), 0,
         "method 'vae': learning_rate must be positive and finite, got 0"),
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

    def test_finite_learning_rate_that_diverges_exits_4(self, tmp_path):
        # the range check passes a finite positive rate; one this large
        # overflows the first step, and the next loss is not finite. The
        # overflow raises no numpy warning, so the error is the one line
        config = _write_config(tmp_path, tmp_path / "out")
        doc = json.loads(config.read_text())
        _set(doc, ("methods", 0, "params", "learning_rate"), 1e308)
        config.write_text(json.dumps(doc))
        code, err = _cli("run", "--config", config)
        assert (code, err) == (4, "method diverged: grid point 0, epoch 0: non-finite loss\n")

    @pytest.mark.parametrize("name, message", [
        ("", "method name '' is not a file name"),
        ("../escape", "method name '../escape' is not a file name"),
        ("a\\b", "method name 'a\\\\b' is not a file name"),
        (".hidden", "method name '.hidden' is not a file name"),
        ("train", "method name 'train' is reserved"),
    ])
    def test_method_name_that_is_no_safe_file_name_exits_2(self, tmp_path, name, message):
        """Method names become file names under models/, pools/ and pca/:
        unchecked, "train" overwrote the training split's PCA file,
        "../escape" wrote outside models/ and pools/ and "" wrote hidden
        files."""
        config = _write_config(tmp_path, tmp_path / "out", methods=[
            {"name": name, "kind": "bn", "params": {"algorithm": "tree"}}])
        code, err = _cli("run", "--config", config)
        assert (code, "Traceback" in err, err.count("\n")) == (2, False, 1), err
        assert err.startswith("configuration error:") and message in err, err
        assert not (tmp_path / "out").exists()

    def test_former_scatter_column_names_run(self, tmp_path):
        """"bin_id" and "test_frequency" named the first two columns of the
        former scatter CSVs and were reserved. The count files name no
        column, and columns.json tells the test split from a method named
        "test", so all three run."""
        names = ["bin_id", "test_frequency", "test"]
        out = tmp_path / "out"
        config = _write_config(tmp_path, out, methods=[
            {"name": name, "kind": "bn", "params": {"algorithm": "tree"}} for name in names])
        code, err = _cli("run", "--config", config)
        assert (code, err) == (0, "")
        columns = json.loads((out / "scatter" / "columns.json").read_text())
        assert columns == [{"split": "test", "rows": 300},
                           *({"pool": name, "rows": 300} for name in
                             names + ["marginal-sampler", "resample-training"])]
        assert np.load(out / "scatter" / "marginal.npy").shape == (12, 6)
        for name in names:
            assert (out / "pools" / f"{name}.csv").exists()
            assert np.load(out / "pca" / f"{name}.npy").shape == (300, 5)

    @pytest.mark.parametrize("path, names, stage", [
        (("projection",), 16, "prepare"),
        (("projection",), 33, "prepare"),
        (("methods", 0, "params", "selection_variables"), 33, "prepare"),
    ])
    def test_oversized_joint_exits_2_before_any_model(self, tmp_path, path, names, stage):
        """Over 40 variables of width 4: unchecked, a projection of 33 names
        failed in evaluate with numpy's "invalid dims", one of 16 names
        could not allocate 32 GiB, and 33 selection variables failed in
        train:vae with "invalid dims"."""
        out = tmp_path / "out"
        config = _write_config(tmp_path, out, count=50, methods=[
            {"name": "vae", "kind": "vae",
             "params": {"hidden_options": [[4]], "latent_options": [2], "beta_options": [0.1],
                        "epochs": 1, "batch_size": 32}}])
        doc = json.loads(config.read_text())
        doc["data"]["synthetic"].update(n_variables=40, category_width=4)
        _set(doc, path, [f"x{i:02d}" for i in range(names)])
        config.write_text(json.dumps(doc))
        code, err = _cli("run", "--config", config)
        assert (code, "Traceback" in err, err.count("\n")) == (2, False, 1), err
        assert err.startswith("configuration error:"), err
        assert f"has {4 ** names} bins, more than 4194304" in err, err
        assert "is the first four variables" in err, err
        assert _run_info(out)["stage"] == stage
        assert not (out / "models").exists() or not any((out / "models").iterdir())
