"""Driving the staged command-line workflow on CSV survey data.

Writes a small CSV micro-sample plus a schema declaration (bin counts are
resolved from the observed range at ingestion), then runs the CLI stages:
prepare -> train -> sample -> evaluate -> report. Each stage reads the
previous stage's artifacts from the output directory, so the steps can run
on different machines or days.
"""

import csv
import json
import tempfile
from pathlib import Path

import numpy as np

from agentsynth.cli import main

print(__doc__)

work = Path(tempfile.mkdtemp(prefix="agentsynth-cli-"))
rng = np.random.default_rng(5)

# a correlated micro-sample: education tracks age band, sex independent
data_path = work / "survey.csv"
with open(data_path, "w", newline="") as fh:
    writer = csv.writer(fh)
    writer.writerow(["age", "edu", "sex"])
    for _ in range(1200):
        age = float(rng.uniform(18, 80))
        band = min(int((age - 18) // 21), 2)
        edu = ["basic", "secondary", "tertiary"][band] if rng.random() < 0.8 \
            else rng.choice(["basic", "secondary", "tertiary"])
        writer.writerow([f"{age:.1f}", edu, rng.choice(["f", "m"])])

schema_doc = {
    "mode": "discretize-all",
    "variables": [
        {"name": "age", "kind": "numerical-cont", "bins": 6},
        {"name": "edu", "kind": "categorical",
         "categories": ["basic", "secondary", "tertiary"]},
        {"name": "sex", "kind": "binary", "categories": ["f", "m"]},
    ],
}
config_doc = {
    "seed": 14,
    "out_dir": str(work / "out"),
    "data": {"csv": str(data_path), "schema": schema_doc},
    "split": {"train_frac": 0.3, "val_frac_of_train": 0.25},
    "generation_count": 2000,
    "methods": [
        {"name": "gibbs", "kind": "gibbs", "params": {"warmup": 500, "thinning": 2}},
        {"name": "bn", "kind": "bn", "params": {"algorithm": "greedy", "max_parents": 2}},
    ],
}
config_path = work / "config.json"
config_path.write_text(json.dumps(config_doc, indent=2))

for argv in (
    ["prepare", "--config", str(config_path)],
    ["train", "--config", str(config_path), "--method", "gibbs"],
    ["train", "--config", str(config_path), "--method", "bn"],
    ["sample", "--config", str(config_path), "--method", "gibbs"],
    ["sample", "--config", str(config_path), "--method", "bn"],
    ["evaluate", "--config", str(config_path)],
    ["report", "--config", str(config_path)],
):
    print(f"\n$ agentsynth {' '.join(argv)}")
    code = main(argv)
    assert code == 0, f"stage failed with exit code {code}"

print("\nreport.csv:")
print((work / "out" / "report.csv").read_text())
