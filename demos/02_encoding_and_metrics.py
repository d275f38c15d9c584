"""From raw survey rows to encoded matrices and back, plus the metric kit.

Covers: declaring a schema with uniform bins resolved from the observed
range, one-hot encoding with train-only standardization, decoding soft
outputs, and the evaluation metrics (SRMSE, Cramer's V, nearest-sample
diversity, PCA).
"""

import numpy as np

from agentsynth.dataset import (
    AgentPool,
    Schema,
    VariableSpec,
    build_uniform_edges,
    decode_rows,
    encode_pool,
    split_pool,
)
from agentsynth.metrics import (
    FrequencyDistribution,
    cramers_v,
    frequency_distribution,
    nearest_sample_stats,
    pca_fit,
    pca_project,
    srmse,
)

print(__doc__)

rng = np.random.default_rng(0)

# --- a mixed schema: age stays numeric, the rest one-hot -------------------
ages = rng.uniform(18, 81, size=600)
edges = build_uniform_edges(ages, 8)
schema = Schema(
    (
        VariableSpec("age", "numerical-cont", bin_edges=tuple(edges)),
        VariableSpec("household", "categorical", categories=("1", "2", "3", "4", "5+")),
        VariableSpec("sex", "binary", categories=("f", "m")),
    ),
    mode="mixed",
)
rows = tuple(
    (float(a), rng.choice(["1", "2", "3", "4", "5+"]), rng.choice(["f", "m"]))
    for a in ages
)
pool = AgentPool.from_rows(schema, rows, "train")
print(f"age bins resolved from the observed range: {np.round(edges, 1)}")

train, validation, test = split_pool(pool, train_frac=0.2, val_frac_of_train=0.25, seed=4)
print(f"split 600 rows into {len(train)} train / {len(validation)} validation / {len(test)} test")

enc_train = encode_pool(train)
print(f"encoded width {enc_train.values.shape[1]}: 1 standardized numeric + 5 + 2 one-hot, "
      f"starting at columns {schema.encoded_starts[:-1]}")
print(f"train age column after standardization: mean {enc_train.values[:, 0].mean():+.1e}, "
      f"std {enc_train.values[:, 0].std():.6f}")
enc_test = encode_pool(test, standardization=enc_train.standardization)
print("test encoded with the train statistics (no leakage)")

# a household of 2 is the one-hot block (0, 1, 0, 0, 0)
single = AgentPool.from_rows(schema, ((45.0, "2", "f"),), "train")
block = encode_pool(single, standardization=enc_train.standardization).values[0, 1:6]
print(f"household '2' encodes to {block}")

soft = enc_test.values[:3].copy()
decoded = decode_rows(type(enc_test)(soft, enc_test.standardization, schema))
print(f"decoding reproduces raw rows, e.g. {decoded.rows[0]}")

# --- metrics ----------------------------------------------------------------
print("\n-- metrics --")
p = FrequencyDistribution((0,), (2,), np.array([0.5, 0.5]))
q = FrequencyDistribution((0,), (2,), np.array([0.75, 0.25]))
print(f"SRMSE((0.75,0.25) vs (0.5,0.5)) = {srmse(q, p)}  (RMSE 0.25 over mean 0.5)")

fd_train = frequency_distribution(train, ("household", "sex"))
fd_test = frequency_distribution(test, ("household", "sex"))
print(f"household x sex joint, train vs test: SRMSE {srmse(fd_train, fd_test):.3f} "
      f"over {fd_train.n_bins} bins")
print(f"Cramer's V(household, sex) on the full pool: {cramers_v(pool, 'household', 'sex'):.3f}")

stats = nearest_sample_stats(train.with_provenance("generated"), train)
print(f"nearest-sample diversity of an exact copy: mu_NS={stats.mu_ns}, "
      f"sigma_NS={stats.sigma_ns} (pure replication)")

model = pca_fit(enc_train)
coords = pca_project(model, enc_test, 2)
explained = model.explained_variances
print(f"PCA: first two components explain "
      f"{100 * explained[:2].sum() / explained.sum():.1f}% of the encoded variance; "
      f"test pool projected to {coords.shape}")
