"""The three benchmark workloads: their inputs, one pass each, and the
checks on what a pass produced.

Every input is a function of the workload seed. ``DEFAULT_SEED`` gives the
ROADMAP baseline configuration of ``lc20-run`` (master seed 2, data seed
101, VAE seed 123, Gibbs seed 124); other seeds shift all four together.

This module imports only numpy at load time. Functions that run or check a
pass import ``agentsynth`` when they are called, so ``run.py`` can build
inputs without loading the program.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

WORKLOADS = ("lc20-run", "mixed-staged", "bn-search")
DEFAULT_SEED = 2

# mixed-staged: a survey-like CSV written by this module, so that a change
# to agentsynth.synthdata cannot change the input
MIXED_ROWS = 50_000
MIXED_CATEGORICAL = 10
MIXED_WIDTH = 5
MIXED_CONTINUOUS = 3
MIXED_CLASSES = 6
MIXED_DEPENDENCE = 0.85
MIXED_BINS = 8

# bn-search: widths (2, 3, 4) repeated four times
BN_WIDTHS = (2, 3, 4) * 4

# Methods whose pools have the training marginals in expectation, as the
# resampler's do: on the marginal view they tie it up to sampling noise
# (seed 5 of lc20-run: marginal sampler 0.0409, BN 0.0428, resampler 0.0432).
SAME_MARGINALS = ("marginal-sampler", "bn")

MDL_RELATIVE_SLACK = 1e-12

# the exact-search cap the library advertises: 12 variables of width 4
AT_CAP = {"kind": "bn-ground-truth", "size": 5000, "n_variables": 12,
          "category_width": 4, "max_parents": 2}


# ---------------------------------------------------------------------------
# inputs


def lc20_doc(seed: int) -> dict:
    """The C07 acceptance configuration plus a Chow-Liu network."""
    return {
        "seed": seed,
        "data": {"synthetic": {"kind": "latent-class", "size": 10_000, "seed": seed + 99,
                               "n_variables": 20, "n_classes": 6, "category_width": 4,
                               "dependence": 0.85}},
        "split": {"train_frac": 0.25, "val_frac_of_train": 0.2},
        "methods": [
            {"name": "vae", "kind": "vae",
             "params": {"hidden": [64], "latent_dim": 8, "beta": 0.5, "epochs": 100,
                        "batch_size": 64, "seed": seed + 121}},
            {"name": "gibbs", "kind": "gibbs",
             "params": {"warmup": 2000, "thinning": 5, "seed": seed + 122}},
            {"name": "bn", "kind": "bn", "params": {"algorithm": "tree"}},
        ],
        "generation_count": 10_000,
    }


def bn_search_doc(seed: int) -> dict:
    """The ground-truth network is the same for every seed; the seed drives
    the split and every method's and baseline's random stream. How well a
    tree fits a randomly drawn network varies a lot between networks (the
    tree's trivariate SRMSE ranged 0.15-0.28 over ten of them), which would
    swamp the quality figure."""
    return {
        "seed": seed,
        "data": {"synthetic": {"kind": "bn-ground-truth", "size": 25_000, "seed": DEFAULT_SEED,
                               "n_variables": len(BN_WIDTHS),
                               "category_width": list(BN_WIDTHS), "max_parents": 2}},
        "split": {"train_frac": 0.25, "val_frac_of_train": 0.2},
        "methods": [
            {"name": "bn", "kind": "bn", "params": {"algorithm": "tree"}},
            {"name": "bn-greedy", "kind": "bn",
             "params": {"algorithm": "greedy", "max_parents": 3}},
            {"name": "bn-exact", "kind": "bn", "params": {"algorithm": "exact"}},
        ],
        "generation_count": 10_000,
    }


def mixed_schema_doc() -> dict:
    variables = [{"name": f"cat{j:02d}", "kind": "categorical",
                  "categories": [f"v{v}" for v in range(MIXED_WIDTH)]}
                 for j in range(MIXED_CATEGORICAL)]
    variables += [{"name": f"num{k:02d}", "kind": "numerical-cont", "bins": MIXED_BINS}
                  for k in range(MIXED_CONTINUOUS)]
    variables.append({"name": "count00", "kind": "numerical-int", "bins": MIXED_BINS})
    return {"mode": "mixed", "variables": variables}


def mixed_doc(seed: int, csv_path: str, schema_path: str) -> dict:
    return {
        "seed": seed,
        "data": {"csv": csv_path, "schema": schema_path},
        "split": {"train_frac": 0.1, "val_frac_of_train": 0.2},
        "methods": [
            {"name": "vae", "kind": "vae",
             "params": {"hidden": [64], "latent_dim": 8, "beta": 0.5, "epochs": 30,
                        "batch_size": 64, "seed": seed + 121}},
        ],
        "generation_count": 20_000,
    }


def mixed_columns(seed: int, rows: int = MIXED_ROWS) -> list[list[str]]:
    """CSV cells of the mixed-staged survey, column by column.

    A hidden class per row drives every column: each categorical column puts
    ``MIXED_DEPENDENCE`` of its mass on a per-class anchor value, and each
    numeric column is a normal (or a rounded normal) around a per-class mean.
    """
    rng = np.random.default_rng(seed)
    classes = rng.integers(0, MIXED_CLASSES, size=rows)
    columns = []
    for _ in range(MIXED_CATEGORICAL):
        anchors = rng.integers(0, MIXED_WIDTH, size=MIXED_CLASSES)
        uniform = rng.integers(0, MIXED_WIDTH, size=rows)
        on_anchor = rng.random(rows) < MIXED_DEPENDENCE
        codes = np.where(on_anchor, anchors[classes], uniform)
        columns.append([f"v{c}" for c in codes.tolist()])
    for _ in range(MIXED_CONTINUOUS):
        means = rng.uniform(-3.0, 3.0, size=MIXED_CLASSES)
        values = rng.normal(means[classes], 1.0)
        columns.append([repr(v) for v in values.tolist()])
    means = rng.uniform(20.0, 60.0, size=MIXED_CLASSES)
    counts = np.maximum(np.rint(rng.normal(means[classes], 6.0)), 0).astype(np.int64)
    columns.append([str(v) for v in counts.tolist()])
    return columns


def write_mixed_inputs(seed: int, directory: Path, rows: int = MIXED_ROWS) -> tuple[Path, Path]:
    """Write the survey CSV and its schema document; returns both paths."""
    directory.mkdir(parents=True, exist_ok=True)
    schema = mixed_schema_doc()
    csv_path = directory / "survey.csv"
    schema_path = directory / "survey-schema.json"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([v["name"] for v in schema["variables"]])
        writer.writerows(zip(*mixed_columns(seed, rows)))
    with open(schema_path, "w") as fh:
        json.dump(schema, fh, indent=2)
    return csv_path, schema_path


def input_sizes(workload: str, seed: int) -> dict:
    """Sizes of a workload's inputs, recorded with every result."""
    if workload == "mixed-staged":
        doc = mixed_doc(seed, "", "")
        rows, variables = MIXED_ROWS, MIXED_CATEGORICAL + MIXED_CONTINUOUS + 1
    else:
        doc = lc20_doc(seed) if workload == "lc20-run" else bn_search_doc(seed)
        rows, variables = doc["data"]["synthetic"]["size"], doc["data"]["synthetic"]["n_variables"]
    block = round(rows * doc["split"]["train_frac"])
    sizes = {"rows": rows, "variables": variables,
             "train_rows": block - round(block * doc["split"]["val_frac_of_train"]),
             "generated_rows": doc["generation_count"]}
    if workload == "bn-search":
        sizes["at_cap_rows"] = AT_CAP["size"]
    return sizes


# ---------------------------------------------------------------------------
# one pass


def load_workload(workload: str, seed: int, out_dir: Path, inputs_dir: Path):
    """Load and validate the workload configuration (the set-up a user pays
    on every invocation). Returns what ``run_workload`` takes."""
    import agentsynth
    from agentsynth import pipeline

    if workload == "mixed-staged":
        from agentsynth import cli  # noqa: F401  (the staged flow's entry point)

        config_path = out_dir.parent / f"{out_dir.name}-config.json"
        doc = mixed_doc(seed, str(inputs_dir / "survey.csv"),
                        str(inputs_dir / "survey-schema.json"))
        with open(config_path, "w") as fh:
            json.dump(doc, fh)
        pipeline.load_config(config_path, out_dir=str(out_dir))
        return ["--config", str(config_path), "--out", str(out_dir)]
    doc = lc20_doc(seed) if workload == "lc20-run" else bn_search_doc(seed)
    return pipeline.config_from_json(doc, out_dir=str(out_dir))


class Operations:
    """Attempted and failed operations of one pass, by name."""

    def __init__(self):
        self.results: dict[str, bool] = {}

    def record(self, name: str, ok: bool) -> None:
        self.results[name] = bool(ok)

    @property
    def attempted(self) -> int:
        return len(self.results)

    @property
    def failed(self) -> list[str]:
        return [name for name, ok in self.results.items() if not ok]


STAGED_COMMANDS = (("prepare",), ("train", "--method", "vae"),
                   ("sample", "--method", "vae"), ("evaluate",))


def run_workload(workload: str, loaded, ops: Operations, around_command=None) -> None:
    """Run one pass. Pipeline stages and staged subcommands are recorded in
    ``ops``; ``around_command(name, call)`` may wrap each subcommand."""
    if workload == "mixed-staged":
        from agentsynth import cli

        for argv in STAGED_COMMANDS:
            call = lambda argv=argv: cli.main([*argv, *loaded])
            code = None
            try:
                code = around_command(argv[0], call) if around_command else call()
            finally:
                ops.record(f"cli.{argv[0]}", code == 0)
            if code != 0:
                return
        return
    from agentsynth import pipeline

    try:
        pipeline.run_pipeline(loaded)
    finally:
        info = read_json(Path(loaded.out_dir) / "run_info.json")
        for stage in info.get("timings_seconds", {}):
            ops.record(f"stage.{stage}", True)
        if info.get("status") != "ok":
            ops.record(f"stage.{info.get('stage')}", False)


# ---------------------------------------------------------------------------
# output checks


def read_json(path: Path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return {}


def report_digest(out_dir: Path) -> str:
    """SHA-256 of report.json, which holds no wall-clock data."""
    return hashlib.sha256((out_dir / "report.json").read_bytes()).hexdigest()


def _csv_rows(path: Path, n_columns: int) -> set[tuple[str, ...]]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        return {tuple(cells[:n_columns]) for cells in reader}


def _finite_values(node) -> bool:
    if isinstance(node, dict):
        return all(_finite_values(v) for v in node.values())
    if isinstance(node, list):
        return all(_finite_values(v) for v in node)
    if isinstance(node, bool) or isinstance(node, str):
        return True
    return isinstance(node, (int, float)) and math.isfinite(node)


def srmse_view(report: dict, method: str, view: str) -> float:
    return report["rows"][method]["views"][view]["srmse"]


def check_outputs(workload: str, out_dir: Path) -> tuple[dict[str, bool], dict]:
    """Checks on one pass's artifacts. Returns named pass/fail results plus
    the facts the checks measured on the way (MDL scores)."""
    report = read_json(out_dir / "report.json")
    checks: dict[str, bool] = {"check.report": bool(report.get("rows"))}
    facts: dict = {}
    if not checks["check.report"]:
        return checks, facts
    rows = report["rows"]
    methods = [m for m in report["methods"] if m != "training-set"]
    if workload == "lc20-run":
        checks["check.vae-half-of-marginal"] = (
            2.0 * srmse_view(report, "vae", "trivariate")
            <= srmse_view(report, "marginal-sampler", "trivariate"))
        checks["check.resample-best-every-view"] = all(
            min(contenders, key=lambda m: srmse_view(report, m, view)) == "resample-training"
            for view in ("marginal", "bivariate", "trivariate", "projected")
            for contenders in [[m for m in methods
                                if view != "marginal" or m not in SAME_MARGINALS]])
        checks["check.gibbs-zero-diversity"] = (
            rows["gibbs"]["mu_ns"] == 0.0 and rows["gibbs"]["sigma_ns"] == 0.0)
        names = read_json(out_dir / "schema.json").get("variables", [])
        train = _csv_rows(out_dir / "data" / "train.csv", len(names))
        checks["check.gibbs-rows-in-train"] = bool(train) and _csv_rows(
            out_dir / "pools" / "gibbs.csv", len(names)) <= train
    elif workload == "mixed-staged":
        checks["check.report-finite"] = _finite_values(rows)
        checks["check.resample-zero-diversity"] = rows["resample-training"]["mu_ns"] == 0.0
    else:
        facts = bn_mdl_scores(out_dir)
        # Markov-equivalent DAGs have equal MDL scores, but their per-node
        # terms differ, so the float sums may differ in the last digits
        slack = MDL_RELATIVE_SLACK * abs(facts["bn-exact"])
        checks["check.exact-mdl-at-least-greedy"] = facts["bn-exact"] + slack >= facts["bn-greedy"]
        checks["check.exact-mdl-at-least-tree"] = facts["bn-exact"] + slack >= facts["bn"]
    return checks, facts


def bn_mdl_scores(out_dir: Path) -> dict[str, float]:
    """MDL score of each learned DAG on the same training codes."""
    from agentsynth import bayesnet
    from agentsynth.dataset import pool_to_codes, read_pool_csv, schema_from_json

    schema = schema_from_json(read_json(out_dir / "schema.json"))
    codes = pool_to_codes(read_pool_csv(out_dir / "data" / "train.csv", schema))
    scores = {}
    for name in ("bn", "bn-greedy", "bn-exact"):
        dag, _ = bayesnet.load_bn(out_dir / "models" / f"{name}.json")
        scores[name] = bayesnet.mdl_score(dag, codes, schema.value_counts)
    return scores


def pass_facts(out_dir: Path) -> dict:
    """Deterministic results of a pass, read from its artifacts."""
    report = read_json(out_dir / "report.json")
    facts: dict = {
        "report": {name: {"srmse_tri": row["views"]["trivariate"]["srmse"],
                          "mu_ns": row["mu_ns"]}
                   for name, row in report.get("rows", {}).items()},
        "timings_seconds": read_json(out_dir / "run_info.json").get("timings_seconds", {}),
    }
    diagnostics = read_json(out_dir / "models" / "gibbs-diagnostics.json")
    if diagnostics:
        facts["gibbs_distinct_ratio"] = diagnostics["distinct_rows"] / diagnostics["target_count"]
    log = out_dir / "models" / "vae-training-log.csv"
    if log.exists():
        with open(log, newline="") as fh:
            total = list(csv.DictReader(fh))[-1]["total"]
        # the log writes repr() of numpy scalars: "np.float64(10.47...)"
        facts["vae_final_loss"] = float(total.removeprefix("np.float64(").removesuffix(")"))
    return facts


def attempt_at_cap(ops: Operations, seed: int, search=None) -> None:
    """Attempt ``exact_search`` at its advertised cap and record the outcome
    as one operation; a library error counts as a failure, never raises."""
    from agentsynth import bayesnet
    from agentsynth.dataset import pool_to_codes
    from agentsynth.errors import AgentSynthError
    from agentsynth.synthdata import spec_from_json, synth_generate

    search = search or bayesnet.exact_search
    pool = synth_generate(spec_from_json(dict(AT_CAP, seed=seed)))
    try:
        search(pool_to_codes(pool), pool.schema.value_counts, max_vars=AT_CAP["n_variables"])
    except AgentSynthError:
        ops.record("bayesnet.exact-at-cap", False)
    else:
        ops.record("bayesnet.exact-at-cap", True)
