"""The smallest population that already misbehaves.

Two binary attributes, and only the prototypes (0,0) and (1,1) exist, in
equal shares. This walkthrough fits all three generators to that sample
and shows three signature behaviors: the Gibbs chain gets trapped on its
starting prototype, the VAE separates the prototypes in latent space and
samples them back 50/50, and MDL scoring picks the connected two-node
network.
"""

import numpy as np

from agentsynth import bayesnet, gibbs, vae
from agentsynth.dataset import encode_pool, pool_to_codes
from agentsynth.synthdata import SyntheticGeneratorSpec, synth_generate

print(__doc__)

pool = synth_generate(SyntheticGeneratorSpec("toy-appendix-a", size=1000, seed=1,
                                             balanced=True))
counts = {}
for row in pool.rows:
    counts[row] = counts.get(row, 0) + 1
print(f"population: {counts}")

# --- Gibbs: frequency-table conditionals are point masses here -------------
print("\n-- Gibbs sampler --")
tables = gibbs.estimate_conditionals(pool)
print("P(X | Y=0) =", tables[0].table[(0,)], "  P(X | Y=1) =", tables[0].table[(1,)])
chain, diag = gibbs.run_chain(
    pool,
    gibbs.ChainConfig(target_count=5000, warmup=0, thinning=1, init=("0", "0", ), seed=3))
emitted = {row for row in chain.rows}
print(f"5000 steps from (0,0) emitted {emitted}: the chain is trapped on its island")

# --- VAE: a linear encoder/decoder with a one-dimensional latent -----------
print("\n-- Variational autoencoder --")
enc = encode_pool(pool)
config = vae.TrainConfig(hidden=(), latent_dim=1, beta=1.0, epochs=1000,
                         batch_size=len(pool), seed=1, learning_rate=0.01)
trained = vae.train(enc, pool, config, np.random.default_rng(1)).model
lp0 = vae.encode(trained, enc.values[0])
lp1 = vae.encode(trained, enc.values[-1])
print(f"latent means: s0 -> {lp0.mean[0]:+.3f}, s1 -> {lp1.mean[0]:+.3f} "
      f"(log-variances {lp0.log_variance[0]:+.2f}, {lp1.log_variance[0]:+.2f})")
generated = vae.sample(trained, 10_000, 7)
share0 = sum(1 for r in generated.rows if r == ("0", "0")) / len(generated)
print(f"sampling z ~ N(0,1): share of s0 = {share0:.3f}, "
      f"kinds = {sorted(set(generated.rows))}")

# --- Bayesian network: scoring decides between two structures --------------
print("\n-- Bayesian network --")
codes = pool_to_codes(pool)
widths = pool.schema.value_counts
connected = bayesnet.mdl_score(bayesnet.Dag(2, ((), (0,))), codes, widths)
disconnected = bayesnet.mdl_score(bayesnet.Dag(2, ((), ())), codes, widths)
print(f"MDL score, connected X->Y:    {connected:10.2f}")
print(f"MDL score, disconnected:      {disconnected:10.2f}")
dag = bayesnet.chow_liu(codes, widths)
print(f"Chow-Liu returns edges {dag.edges}; the dependence is worth its parameters")
cpts = bayesnet.fit_cpts(dag, codes, widths)
bn_pool = bayesnet.ancestral_sample(dag, cpts, 10_000, 5)
share0 = float(np.mean(np.all(bn_pool == 0, axis=1)))
print(f"ancestral sampling: share of s0 = {share0:.3f}")
