"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -s``).

Criteria cover exact structural claims (replication, trapping, chain
accounting), the toy-problem behaviors of all three generators, gradient
and metric correctness against independent oracles, qualitative method
ordering on a latent-class benchmark, and end-to-end determinism.
"""

import itertools
import time

import numpy as np
import pytest

from agentsynth import bayesnet, gibbs, metrics, vae
from agentsynth.dataset import (
    AgentPool,
    Schema,
    VariableSpec,
    encode_pool,
    pool_to_codes,
)
from agentsynth.metrics import FrequencyDistribution, nearest_sample_stats, srmse
from agentsynth.neural import parameters
from agentsynth.pipeline import ExperimentConfig, MethodSpec, run_pipeline
from agentsynth.synthdata import SyntheticGeneratorSpec, synth_generate

from conftest import toy_pool
from oracles import evaluate_loss, joint_distribution


def _report(criterion: str, detail: str) -> None:
    print(f"[acceptance] {criterion} PASS  {detail}")


def test_c01_gibbs_replication():
    """Every Gibbs row replicates a training row; diversity exactly zero."""
    started = time.perf_counter()
    spec = SyntheticGeneratorSpec("latent-class", size=2000, seed=31, n_variables=10,
                                  n_classes=5, category_width=4, dependence=0.8)
    train = synth_generate(spec)
    pool, diag = gibbs.run_chain(
        train, gibbs.ChainConfig(target_count=2000, warmup=1000, thinning=2, seed=8))
    train_rows = set(train.rows)
    assert len(pool) == 2000
    assert all(row in train_rows for row in pool.rows)
    stats = nearest_sample_stats(pool, train)
    assert stats.mu_ns == 0.0
    assert stats.sigma_ns == 0.0
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _report("C01 gibbs-replication",
            f"2000/2000 rows in training set, mu_NS=sigma_NS=0 exactly, {elapsed:.1f}s")


def test_c02_toy_island_trapping():
    """A chain started at the first prototype never leaves it."""
    started = time.perf_counter()
    train = toy_pool(500)
    pool, _ = gibbs.run_chain(
        train,
        gibbs.ChainConfig(target_count=10000, warmup=0, thinning=1,
                          init=("0", "0"), seed=5))
    assert set(pool.rows) == {("0", "0")}
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _report("C02 toy-island-trapping", f"10000 steps emitted only s0, {elapsed:.2f}s")


def test_c03_toy_vae():
    """Linear VAE separates the prototypes in latent space and samples them
    back at 50/50."""
    started = time.perf_counter()
    train = toy_pool(32)  # 64 rows; full-pool batches make epochs == steps
    enc = encode_pool(train)
    config = vae.TrainConfig(hidden=(), latent_dim=1, beta=1.0, epochs=1000,
                             batch_size=len(train), seed=1, learning_rate=0.01)
    result = vae.train(enc, train, config, np.random.default_rng(1))
    trained = result.model
    lp0 = vae.encode(trained, enc.values[0])    # an s0 row
    lp1 = vae.encode(trained, enc.values[-1])   # an s1 row
    mu0, mu1 = float(lp0.mean[0]), float(lp1.mean[0])
    assert mu0 * mu1 < 0, "latent means must have opposite signs"
    assert 0.5 <= abs(mu0) <= 1.5
    assert 0.5 <= abs(mu1) <= 1.5
    for lv in (float(lp0.log_variance[0]), float(lp1.log_variance[0])):
        assert -3.0 <= lv <= -1.0
    # the two sides of the latent axis decode to the two prototypes
    low = np.argmax(vae.decode(trained, np.array([-2.0]))[:2])
    high = np.argmax(vae.decode(trained, np.array([2.0]))[:2])
    assert {low, high} == {0, 1}
    generated = vae.sample(trained, 10 ** 4, 77)
    counts = {}
    for row in generated.rows:
        counts[row] = counts.get(row, 0) + 1
    assert set(counts) <= {("0", "0"), ("1", "1")}
    share0 = counts.get(("0", "0"), 0) / 10 ** 4
    assert 0.45 <= share0 <= 0.55
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _report("C03 toy-vae",
            f"mu=({mu0:+.3f},{mu1:+.3f}), logvar in [-3,-1], "
            f"s0 share {share0:.3f}, {elapsed:.1f}s")


def test_c04_toy_bayesnet():
    """MDL prefers the connected 2-node structure; both learners find it."""
    started = time.perf_counter()
    spec = SyntheticGeneratorSpec("toy-appendix-a", size=1000, seed=3, balanced=True)
    codes = pool_to_codes(synth_generate(spec))
    counts = (2, 2)
    connected = bayesnet.mdl_score(bayesnet.Dag(2, ((), (0,))), codes, counts)
    disconnected = bayesnet.mdl_score(bayesnet.Dag(2, ((), ())), codes, counts)
    assert connected > disconnected
    assert len(bayesnet.chow_liu(codes, counts).edges) == 1
    assert len(bayesnet.greedy_search(codes, counts).edges) == 1
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _report("C04 toy-bayesnet",
            f"MDL {connected:.1f} > {disconnected:.1f}; tree and greedy connected, "
            f"{elapsed:.2f}s")


def test_c05_vae_gradient_check():
    """Analytic gradients of the full objective vs central differences."""
    started = time.perf_counter()
    rng = np.random.default_rng(12)
    schema = Schema(
        (
            VariableSpec("age", "numerical-cont", bin_edges=(0.0, 25.0, 50.0, 75.0, 100.0)),
            VariableSpec("size", "categorical", categories=("1", "2", "3")),
            VariableSpec("sex", "binary", categories=("f", "m")),
            VariableSpec("income", "numerical-cont", bin_edges=(0.0, 50.0, 100.0)),
        ),
        "mixed",
    )
    rows = tuple(
        (float(rng.uniform(0, 100)), rng.choice(["1", "2", "3"]),
         rng.choice(["f", "m"]), float(rng.uniform(0, 100)))
        for _ in range(6)
    )
    enc = encode_pool(AgentPool.from_rows(schema, rows, "train"))
    model = vae.build_vae(schema, (5,), 2, 0.5, rng)
    eps = rng.standard_normal((6, 2))
    _, enc_grads, dec_grads = vae.loss_and_grads(model, enc.values, eps)
    grads = enc_grads + dec_grads
    params = parameters(model.encoder) + parameters(model.decoder)
    h = 1e-5
    worst = 0.0
    n_params = 0
    for k, p in enumerate(params):
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + h
            up = evaluate_loss(model, enc.values, eps).total
            p[idx] = orig - h
            down = evaluate_loss(model, enc.values, eps).total
            p[idx] = orig
            fd = (up - down) / (2 * h)
            err = abs(grads[k][idx] - fd) / max(abs(grads[k][idx]) + abs(fd), 1e-6)
            worst = max(worst, err)
            n_params += 1
    assert worst < 1e-4
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _report("C05 vae-gradient-check",
            f"max relative error {worst:.2e} over {n_params} parameters, {elapsed:.1f}s")


def test_c06_srmse_oracle():
    """Hand-derived SRMSE values and brute-force agreement."""
    two = srmse(FrequencyDistribution((0,), (2,), np.array([0.75, 0.25])),
                FrequencyDistribution((0,), (2,), np.array([0.5, 0.5])))
    four = srmse(FrequencyDistribution((0,), (4,), np.array([0.25] * 4)),
                 FrequencyDistribution((0,), (4,), np.array([0.5, 0.5, 0.0, 0.0])))
    same = FrequencyDistribution((0,), (3,), np.array([0.2, 0.3, 0.5]))
    assert srmse(same, same) == 0.0
    assert abs(two - 0.5) < 1e-12
    assert abs(four - 1.0) < 1e-12
    rng = np.random.default_rng(1234)
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(2, 15))
        a, b = rng.random(k), rng.random(k)
        a /= a.sum()
        b /= b.sum()
        # brute force: scalar loops, no shared code with the implementation
        sq = 0.0
        for x, y in zip(a, b):
            sq += (x - y) ** 2
        expected = (sq / k) ** 0.5 / (sum(b) / k)
        got = srmse(FrequencyDistribution((0,), (k,), a),
                    FrequencyDistribution((0,), (k,), b))
        worst = max(worst, abs(got - expected))
    assert worst < 1e-10
    _report("C06 srmse-oracle",
            f"hand cases exact; 100 random pairs within {worst:.1e}")


@pytest.fixture(scope="module")
def benchmark_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("benchmark")
    config = ExperimentConfig(
        seed=2,
        out_dir=str(out),
        synthetic=SyntheticGeneratorSpec("latent-class", size=10000, seed=101,
                                         n_variables=20, n_classes=6,
                                         category_width=4, dependence=0.85),
        train_frac=0.25,       # 2000 training rows out of 10000
        val_frac_of_train=0.2,
        methods=[
            MethodSpec("vae", "vae", {"hidden": [64], "latent_dim": 8, "beta": 0.5,
                                      "epochs": 100, "batch_size": 64, "seed": 123}),
            MethodSpec("gibbs", "gibbs", {"warmup": 2000, "thinning": 5, "seed": 124}),
        ],
        generation_count=10000,
    )
    started = time.perf_counter()
    report = run_pipeline(config)
    return report, time.perf_counter() - started


def test_c07_method_ordering(benchmark_report):
    """Qualitative scalability finding on the 20-variable benchmark."""
    report, elapsed = benchmark_report
    rows = report.rows
    assert rows["training-set"].diversity.mu_ns > 0  # sanity: train != test
    tri_vae = rows["vae"].views["trivariate"].srmse
    tri_marg = rows["marginal-sampler"].views["trivariate"].srmse
    tri_res = rows["resample-training"].views["trivariate"].srmse
    # (a) the VAE beats the marginal sampler on trivariate structure by >= 2x
    assert tri_vae * 2.0 <= tri_marg
    # (b) the VAE generalizes while Gibbs replicates
    assert rows["vae"].diversity.mu_ns > 0.0
    assert rows["gibbs"].diversity.mu_ns == 0.0
    assert rows["gibbs"].diversity.sigma_ns == 0.0
    # (c) resampling the training set wins every view among the methods
    contenders = ("vae", "gibbs", "marginal-sampler", "resample-training")
    for view in ("marginal", "bivariate", "trivariate", "projected"):
        values = {name: rows[name].views[view].srmse for name in contenders}
        assert min(values, key=values.get) == "resample-training", (view, values)
    # the marginal sampler nails marginals but destroys higher-order views
    assert rows["marginal-sampler"].views["marginal"].srmse < 0.05
    assert tri_marg >= 5.0 * tri_res
    assert elapsed < 900.0
    _report("C07 method-ordering",
            f"trivariate marg/vae {tri_marg / tri_vae:.2f}x, vae mu_NS "
            f"{rows['vae'].diversity.mu_ns:.3f}, gibbs exact zero, resampler lowest "
            f"everywhere, {elapsed:.0f}s")


def _prufer_trees(nodes):
    """All labeled spanning trees on the given nodes via Prufer sequences."""
    n = len(nodes)
    for seq in itertools.product(range(n), repeat=n - 2):
        degree = [1] * n
        for s in seq:
            degree[s] += 1
        seq_list = list(seq)
        edges = []
        for s in seq_list:
            leaf = min(i for i in range(n) if degree[i] == 1)
            edges.append((min(leaf, s), max(leaf, s)))
            degree[leaf] -= 1
            degree[s] -= 1
        u, v = [i for i in range(n) if degree[i] == 1]
        edges.append((min(u, v), max(u, v)))
        yield {(nodes[a], nodes[b]) for a, b in edges}


def test_c08_chow_liu_recovery():
    """Exact skeleton recovery on a known 5-node tree, with a brute-force
    spanning-tree oracle on 4-node subcases."""
    started = time.perf_counter()
    rng = np.random.default_rng(17)
    n = 10 ** 5
    x0 = rng.integers(0, 2, n)
    flip = lambda parent: np.where(rng.random(n) < 0.9, parent, 1 - parent)
    x1 = flip(x0)
    x2 = flip(x1)
    x3 = flip(x1)
    x4 = flip(x3)
    codes = np.column_stack([x0, x1, x2, x3, x4])
    counts = (2,) * 5
    truth = {(0, 1), (1, 2), (1, 3), (3, 4)}
    dag = bayesnet.chow_liu(codes, counts)
    skeleton = {tuple(sorted(e)) for e in dag.edges}
    assert skeleton == truth
    # oracle: for 4-node subcases, enumerate all 16 spanning trees by total MI
    for subset in ((0, 1, 2, 3), (1, 2, 3, 4)):
        sub_codes = codes[:, subset]
        sub_counts = tuple(counts[i] for i in subset)
        mi = {}
        for a in range(4):
            for b in range(a + 1, 4):
                mi[(a, b)] = bayesnet.mutual_information(sub_codes, sub_counts, a, b)
        local_trees = list(_prufer_trees(tuple(range(4))))
        assert len(local_trees) == 16
        best = max(local_trees, key=lambda t: sum(mi[e] for e in t))
        sub_dag = bayesnet.chow_liu(sub_codes, sub_counts)
        sub_skeleton = {tuple(sorted(e)) for e in sub_dag.edges}
        assert sub_skeleton == best
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    _report("C08 chow-liu-recovery",
            f"exact skeleton at 1e5 rows; 4-node subcases match the 16-tree oracle, "
            f"{elapsed:.1f}s")


def test_c09_bn_sampling_fidelity():
    """Ancestral samples reproduce the enumerated joint, TV < 0.01."""
    dag = bayesnet.Dag(3, ((), (0,), (0, 1)))
    tables = (
        np.array([[0.3, 0.7]]),
        np.array([[0.9, 0.1], [0.2, 0.8]]),
        np.array([[0.5, 0.5], [0.8, 0.2], [0.1, 0.9], [0.6, 0.4]]),
    )
    cpts = bayesnet.CptSet((2, 2, 2), dag.parents, tables)
    analytic = joint_distribution(dag, cpts)
    samples = bayesnet.ancestral_sample(dag, cpts, 10 ** 5, 29)
    empirical = np.zeros((2, 2, 2))
    np.add.at(empirical, tuple(samples.T), 1.0)
    empirical /= samples.shape[0]
    tv = 0.5 * float(np.abs(analytic - empirical).sum())
    assert tv < 0.01
    _report("C09 bn-sampling-fidelity", f"total variation {tv:.4f} at 1e5 samples")


def test_c10_chain_accounting():
    """Iteration counter with the documented warm-up and thinning."""
    train = toy_pool(5)
    config = gibbs.ChainConfig(target_count=100000, warmup=20000, thinning=20, seed=0)
    _, diag = gibbs.run_chain(train, config)
    assert diag["iterations"] == 2020000
    _report("C10 chain-accounting",
            "20000 + 20*100000 = 2020000 iterations for 100000 agents")


def test_c11_pca_properties():
    """Orthonormal components, ordered variances, variance preservation."""
    rng = np.random.default_rng(41)
    worst_dot, worst_trace = 0.0, 0.0
    for trial in range(5):
        widths = [int(w) for w in rng.integers(2, 6, size=rng.integers(3, 7))]
        from conftest import random_categorical_pool
        pool = random_categorical_pool(rng, widths, n_rows=int(rng.integers(30, 200)))
        enc = encode_pool(pool)
        model = metrics.pca_fit(enc)
        gram = model.components.T @ model.components
        worst_dot = max(worst_dot, float(np.abs(gram - np.eye(gram.shape[0])).max()))
        assert np.all(np.diff(model.explained_variances) <= 1e-12)
        cov = np.cov(enc.values, rowvar=False)
        worst_trace = max(worst_trace,
                          abs(float(model.explained_variances.sum() - np.trace(cov))))
    assert worst_dot < 1e-9
    assert worst_trace < 1e-8
    _report("C11 pca-properties",
            f"orthonormality within {worst_dot:.1e}, trace preserved within "
            f"{worst_trace:.1e}")


def test_c12_pipeline_determinism(tmp_path):
    """Two identically configured runs write byte-identical report JSON."""
    def config(out_dir):
        return ExperimentConfig(
            seed=77,
            out_dir=str(out_dir),
            synthetic=SyntheticGeneratorSpec("latent-class", size=800, seed=6,
                                             n_variables=6, n_classes=3,
                                             category_width=3, dependence=0.8),
            train_frac=0.4,
            val_frac_of_train=0.25,
            methods=[
                MethodSpec("vae", "vae", {"hidden": [8], "latent_dim": 3, "beta": 0.5,
                                          "epochs": 10, "batch_size": 32, "seed": 5}),
                MethodSpec("gibbs", "gibbs", {"warmup": 100, "thinning": 2, "seed": 6}),
                MethodSpec("bn", "bn", {"algorithm": "tree"}),
            ],
            generation_count=500,
        )

    run_pipeline(config(tmp_path / "first"))
    run_pipeline(config(tmp_path / "second"))
    first = (tmp_path / "first" / "report.json").read_bytes()
    second = (tmp_path / "second" / "report.json").read_bytes()
    assert first == second
    _report("C12 pipeline-determinism",
            f"report.json byte-identical across reruns ({len(first)} bytes)")
