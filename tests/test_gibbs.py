"""Gibbs sampler: conditionals, trapping, replication, chain accounting."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from agentsynth import gibbs
from agentsynth.dataset import (AgentPool, Schema, VariableSpec, codes_to_pool, distinct_rows,
                                pool_to_codes)
from agentsynth.errors import ConfigError, DataError
from agentsynth.gibbs import (
    ChainConfig,
    ContextGroups,
    estimate_conditionals,
    run_chain,
)

from agentsynth.synthdata import SyntheticGeneratorSpec, synth_generate

from conftest import categorical_schema, pool_from_codes, random_categorical_pool, toy_pool
from oracles import UnreachableContextError, gibbs_step


def _traced(fn):
    """``fn()``, the traced allocations it keeps, and its traced peak."""
    tracemalloc.start()
    try:
        result = fn()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, kept, peak


class TestEstimateConditionals:
    def test_toy_point_mass_conditionals(self):
        tables = estimate_conditionals(toy_pool(500))
        # P(X | Y=0) puts all mass on X=0; P(X | Y=1) on X=1
        np.testing.assert_array_equal(tables[0].table[(0,)], [1.0, 0.0])
        np.testing.assert_array_equal(tables[0].table[(1,)], [0.0, 1.0])
        np.testing.assert_array_equal(tables[1].table[(0,)], [1.0, 0.0])

    def test_single_row_gives_point_masses(self, rng):
        pool = random_categorical_pool(rng, [3, 2, 4], 1)
        for table in estimate_conditionals(pool):
            assert len(table.table) == 1
            for vec in table.table.values():
                assert vec.max() == 1.0

    def test_matches_counting_oracle(self, rng):
        # Oracle: count-and-normalize with one dict update per row.
        for widths in ([2, 3, 2], [4], [3, 4, 2, 3, 4]):
            pool = random_categorical_pool(rng, widths, 200)
            codes = pool_to_codes(pool)
            tables = estimate_conditionals(pool)
            for i, width in enumerate(widths):
                counts = {}
                for row in codes:
                    vec = counts.setdefault(tuple(np.delete(row, i)), np.zeros(width))
                    vec[row[i]] += 1.0
                assert tables[i].table.keys() == counts.keys()
                for ctx, vec in counts.items():
                    np.testing.assert_array_equal(tables[i].table[ctx], vec / vec.sum())

    def test_empty_pool_rejected(self):
        schema = categorical_schema([2, 2])
        with pytest.raises(DataError):
            estimate_conditionals(AgentPool.from_rows(schema, (), "train"))


class TopDrawRng:
    """Every uniform is the largest double below 1."""

    def random(self, size=None):
        top = np.nextafter(1.0, 0.0)
        return top if size is None else np.full(size, top)


def _rounding_pool():
    # x00 is uniform over its first 10 of 12 values in every context, and
    # the cumulative sum of ten 0.1s ends at 0.9999999999999999
    schema = categorical_schema([12, 2])
    return pool_from_codes(schema, [[v, 0] for v in range(10)])


class TestGibbsStep:
    def test_draw_past_rounded_total_picks_last_positive_value(self):
        tables = estimate_conditionals(_rounding_pool())
        assert np.cumsum(tables[0].table[(0,)])[-1] <= np.nextafter(1.0, 0.0)
        assert gibbs_step((0, 0), tables, TopDrawRng()) == (9, 0)

    def test_toy_trapped_at_start(self, rng):
        tables = estimate_conditionals(toy_pool(500))
        row = (0, 0)
        for _ in range(50):
            row = gibbs_step(row, tables, rng)
            assert row == (0, 0)

    def test_point_mass_tables_are_identity(self, rng):
        pool = random_categorical_pool(rng, [3, 2, 4], 1)
        tables = estimate_conditionals(pool)
        start = tuple(int(v) for v in pool_to_codes(pool)[0])
        assert gibbs_step(start, tables, rng) == start

    def test_unreachable_context_raises(self, rng):
        # two prototypes over 3 variables: the context (0, 1) for the first
        # variable never occurs in training
        schema = categorical_schema([2, 2, 2])
        pool = pool_from_codes(schema, [[0, 0, 0]] * 5 + [[1, 1, 1]] * 5)
        tables = estimate_conditionals(pool)
        with pytest.raises(UnreachableContextError):
            gibbs_step((0, 0, 1), tables, rng)

    def test_single_variable_stationary_matches_marginal(self, rng):
        # chi-square goodness of fit against the training marginal;
        # critical value for dof=2 at p=0.01 is 9.21
        schema = categorical_schema([3])
        codes = rng.choice(3, size=2000, p=[0.5, 0.3, 0.2])[:, None]
        pool = pool_from_codes(schema, codes)
        tables = estimate_conditionals(pool)
        expected_probs = np.bincount(codes[:, 0], minlength=3) / 2000
        n_draws = 10 ** 5
        draws = np.zeros(3)
        row = (0,)
        for _ in range(n_draws):
            row = gibbs_step(row, tables, rng)
            draws[row[0]] += 1
        expected = expected_probs * n_draws
        chi2 = float(np.sum((draws - expected) ** 2 / expected))
        assert chi2 < 9.21


def reference_chain(tables, train, config):
    """run_chain's contract written with gibbs_step: one uniform per update,
    thinned states decoded with the same generator."""
    schema = train.schema
    rng = np.random.default_rng(config.seed)
    if config.init == "random-from-train":
        codes = pool_to_codes(train)
        row = tuple(int(v) for v in codes[rng.integers(len(codes))])
    else:
        single = AgentPool.from_rows(schema, (tuple(config.init),), "train")
        row = tuple(int(v) for v in pool_to_codes(single)[0])
    kept = []
    for scan in range(1, config.warmup + config.thinning * config.target_count + 1):
        row = gibbs_step(row, tables, rng)
        if scan > config.warmup and (scan - config.warmup) % config.thinning == 0:
            kept.append(row)
    kept = np.array(kept, dtype=np.int64).reshape(len(kept), schema.n_variables)
    return codes_to_pool(kept, schema, rng=rng)


def _pool_with_numeric(rng, widths, n_rows):
    # a binned numeric column makes the decoded pool depend on the
    # generator state the chain leaves behind
    schema = categorical_schema(widths)
    age = VariableSpec("age", "numerical-cont", bin_edges=(0.0, 1.0, 2.0, 3.0))
    schema = Schema(schema.variables + (age,), "discretize-all")
    cats = random_categorical_pool(rng, widths, n_rows)
    ages = rng.uniform(0.0, 3.0, size=n_rows)
    return AgentPool.from_rows(schema, tuple(r + (float(a),) for r, a in zip(cats.rows, ages)),
                               "train")


def _row_outside(pool, rng):
    seen = set(pool.rows)
    while True:
        row = tuple(var.categories[rng.integers(len(var.categories))] if not var.is_numerical
                    else float(rng.uniform(0.0, 3.0)) for var in pool.schema.variables)
        if row not in seen:
            return row


def _codes_in_pool(row, pool):
    # an outside row whose numeric value bins like a training row's is a training row
    code = pool_to_codes(AgentPool.from_rows(pool.schema, [row], "train"))[0]
    return bool((pool_to_codes(pool) == code).all(axis=1).any())


class TestRunChainMatchesReference:
    @pytest.mark.parametrize("block", [gibbs.UNIFORM_BLOCK, 7])
    @pytest.mark.parametrize("init", ["random-from-train", "training-row", "outside-row"])
    @pytest.mark.parametrize("restart", [False, True])
    def test_rows_equal_gibbs_step_chain(self, rng, monkeypatch, block, init, restart):
        # ``restart`` is the retired restart_on_unreachable setting an old
        # model file may still carry; it must not change the chain
        monkeypatch.setattr(gibbs, "UNIFORM_BLOCK", block)
        for trial in range(6):
            pool = _pool_with_numeric(rng, list(rng.integers(2, 4, size=3)),
                                      int(rng.integers(5, 60)))
            start = {"random-from-train": "random-from-train",
                     "training-row": pool.rows[int(rng.integers(len(pool)))],
                     "outside-row": _row_outside(pool, rng)}[init]
            doc = {"format": "agentsynth-gibbs", "version": 2,
                   "warmup": int(rng.integers(0, 15)), "thinning": int(rng.integers(1, 4)),
                   "seed": trial, "restart_on_unreachable": restart}
            config = dataclasses.replace(
                gibbs.chain_from_dict(doc, int(rng.integers(0, 40))), init=start)
            if start != "random-from-train" and not _codes_in_pool(start, pool):
                with pytest.raises(DataError, match="not a training row"):
                    run_chain(pool, config)
                continue
            expected = reference_chain(estimate_conditionals(pool), pool, config)
            out, diag = run_chain(pool, config)
            assert out.rows == expected.rows
            assert diag["distinct_rows"] == len(set(map(tuple, pool_to_codes(expected).tolist())))

    def test_wide_schema_runs_on_the_lexsort_path(self, rng):
        # 64 binary variables: neither the rows (2^64) nor a context (2^63)
        # fit one int64 key, so ContextGroups compares rows by lexsort
        base = rng.integers(0, 2, size=(6, 64))
        base[1] = 1 - base[0]  # every column takes both values
        flips = [row ^ (np.arange(64) == k) for row in base for k in rng.integers(0, 64, 4)]
        pool = pool_from_codes(categorical_schema([2] * 64), np.vstack([base, *flips]))
        assert (pool_to_codes(pool).max(axis=0) == 1).all()
        tables = estimate_conditionals(pool)
        config = ChainConfig(target_count=30, warmup=10, thinning=2, seed=4)
        out, diag = run_chain(pool, config)
        assert out.rows == reference_chain(tables, pool, config).rows
        assert diag["distinct_rows"] > 1

    def test_sixty_variables_of_width_four(self, rng):
        # the regime of the paper's scalability claim: 200 rows over 60
        # variables of width 4, near-copies of 8 prototypes so the chain can
        # move; the binned numeric column makes the decoded pool depend on
        # the generator state the chain leaves behind
        widths = np.array([4] * 60 + [3])
        base = rng.integers(0, 4, size=(8, 61)) % widths
        flips = np.repeat(base, 24, axis=0)
        cols = rng.integers(0, 61, size=len(flips))
        flips[np.arange(len(flips)), cols] = rng.integers(0, widths[cols])
        age = VariableSpec("age", "numerical-cont", bin_edges=(0.0, 1.0, 2.0, 3.0))
        schema = Schema(categorical_schema(widths[:-1]).variables + (age,), "discretize-all")
        pool = codes_to_pool(np.vstack([base, flips]), schema, provenance="train", rng=rng)
        config = ChainConfig(target_count=50, warmup=20, thinning=2, seed=6)
        out, diag = run_chain(pool, config)
        assert out.rows == reference_chain(estimate_conditionals(pool), pool, config).rows
        assert diag["distinct_rows"] > 1

    def test_draw_past_rounded_total_on_index(self, monkeypatch):
        pool = _rounding_pool()
        monkeypatch.setattr(np.random, "default_rng", lambda seed: TopDrawRng())
        out, _ = run_chain(pool, ChainConfig(target_count=5, warmup=0, thinning=1,
                                             init=("c0", "c0")))
        assert set(out.rows) == {("c9", "c0")}


class TestMovableUpdates:
    def test_ahead_counts_the_updates_to_the_next_movable_variable(self, rng):
        """Oracle: a row's group for variable i can move it iff the group
        holds two or more unique rows; from each variable the chain jumps
        to the next such variable in scan order, and a row with none is
        absorbing."""
        for widths in ([2, 3, 2], [3, 3, 3, 3], [2] * 6, [4]):
            pool = random_categorical_pool(rng, widths, int(rng.integers(1, 20)))
            index = ContextGroups.from_codes(pool_to_codes(pool))
            layout, start = index.transitions(widths)
            m, n = len(widths), len(index.rows)
            movable = [np.bincount(group)[group] > 1 for group in index.groups]

            def ahead_of(i, r):
                near = [d for d in range(m) if movable[(i + d) % m][r]]
                return near[0] if near else math.inf

            assert start == [ahead_of(0, r) for r in range(n)]
            for i, moves in enumerate(layout):
                assert len(moves) == n
                for r in range(n):
                    assert (moves[r] is not None) == bool(movable[i][r])
                    if moves[r] is None:
                        continue
                    cum, nxt, skip, then = moves[r]
                    # the bisection results a draw can give: a value of positive
                    # probability, or the width (a draw past the rounded total)
                    for k in range(len(cum) + 1):
                        if k == len(cum) or cum[k] > (cum[k - 1] if k else 0.0):
                            assert index.groups[i][nxt[k]] == index.groups[i][r]
                            assert skip[k] == 1 + ahead_of((i + 1) % m, nxt[k])
                            assert skip[k] == math.inf or then[k] == (i + skip[k]) % m

    @pytest.mark.parametrize("block", [gibbs.UNIFORM_BLOCK, 7])
    def test_absorbing_start_keeps_its_row_and_draws_every_uniform(self, monkeypatch, block):
        # a pool of two rows that differ in two variables: no update moves
        monkeypatch.setattr(gibbs, "UNIFORM_BLOCK", block)
        schema = _pool_with_numeric(np.random.default_rng(3), [2, 2, 3], 0).schema
        pool = AgentPool.from_rows(schema, [("c0", "c0", "c1", 0.5), ("c1", "c1", "c1", 0.5)])
        index = ContextGroups.from_codes(pool_to_codes(pool))
        layout, start = index.transitions((2, 2, 3, 3))
        assert layout == [[None, None]] * 4 and start == [math.inf, math.inf]
        config = ChainConfig(target_count=9, warmup=4, thinning=3, seed=8,
                             init=("c1", "c1", "c1", 0.5))
        out, diag = run_chain(pool, config)
        assert out.rows == reference_chain(estimate_conditionals(pool), pool, config).rows
        assert diag["distinct_rows"] == 1


class TestIndexFootprint:
    @pytest.mark.parametrize("widths", [[2, 3, 2], [4], [3, 4, 2, 3, 4], [2] * 64])
    def test_contexts_equal_the_distinct_rows_of_each_deletion(self, rng, widths):
        # 64 binary columns take the lexsort path of distinct_rows
        index = ContextGroups.from_codes(random_categorical_pool(rng, widths, 300).codes)
        for i in range(len(widths)):
            contexts = distinct_rows(np.delete(index.rows, i, axis=1))[0]
            assert index.n_groups[i] == len(contexts)
            assert index.contexts(i).dtype == contexts.dtype
            np.testing.assert_array_equal(index.contexts(i), contexts)

    def test_keeps_no_per_variable_copy_of_the_rows(self):
        pool = synth_generate(SyntheticGeneratorSpec(
            "latent-class", size=2000, seed=3, n_variables=60, n_classes=6, category_width=4))
        index, kept, _ = _traced(lambda: ContextGroups.from_codes(pool.codes))
        arrays = index.rows.nbytes + index.counts.nbytes + sum(g.nbytes for g in index.groups)
        # one context copy per variable would add about 60 times the rows' bytes
        assert kept < arrays + index.rows.nbytes

    def test_chain_peak_does_not_follow_the_chain_length(self):
        """The uniforms of one block are Python floats; the traced peak of a
        10,000-row chain over 2,000 training rows stays below 1 MB."""
        pool = synth_generate(SyntheticGeneratorSpec(
            "latent-class", size=2000, seed=3, n_variables=20, n_classes=6, category_width=4))
        index = ContextGroups.from_codes(pool.codes)
        layout = index.transitions(pool.schema.value_counts)
        config = ChainConfig(target_count=10_000, warmup=2000, thinning=5, seed=1)
        kept, _, peak = _traced(lambda: gibbs._run_on_index(
            layout, 0, config, np.random.default_rng(1)))
        assert len(kept) == 10_000
        assert peak < 1 << 20


class TestIslands:
    def test_toy_pool_has_two_single_row_islands(self):
        pool = toy_pool(50)
        _, diag = run_chain(pool, ChainConfig(target_count=20, warmup=5, thinning=1, seed=2))
        assert diag["islands"] == 2
        assert diag["start_island_rows"] == 1

    def test_labels_match_one_variable_neighbour_oracle(self, rng):
        for widths in ([3, 3, 3, 3], [2, 4, 3], [5]):
            codes = pool_to_codes(random_categorical_pool(rng, widths, 25))
            index = ContextGroups.from_codes(codes)
            # oracle: union rows that differ in exactly one variable
            parent = list(range(len(index.rows)))

            def find(a):
                while parent[a] != a:
                    a = parent[a]
                return a

            for a in range(len(index.rows)):
                for b in range(a):
                    if np.sum(index.rows[a] != index.rows[b]) == 1:
                        parent[find(a)] = find(b)
            oracle = [find(a) for a in range(len(index.rows))]
            labels = index.island_labels()
            for a in range(len(index.rows)):
                for b in range(len(index.rows)):
                    assert (labels[a] == labels[b]) == (oracle[a] == oracle[b])

    def test_chain_stays_in_its_start_island(self, rng):
        for seed in range(5):
            pool = random_categorical_pool(rng, [3, 3, 3, 3], 40)
            _, diag = run_chain(pool, ChainConfig(target_count=300, warmup=10, thinning=1,
                                                  seed=seed))
            assert 1 <= diag["islands"] <= len(set(pool.rows))
            assert diag["distinct_rows"] <= diag["start_island_rows"]


class TestRunChain:
    def test_zero_target_empty_pool_after_warmup(self):
        out, diag = run_chain(toy_pool(5), ChainConfig(target_count=0, warmup=50, thinning=3))
        assert len(out) == 0
        assert diag["iterations"] == 50

    def test_replication_on_categorical_data(self, rng):
        pool = random_categorical_pool(rng, [3, 2, 2, 3], 150)
        out, _ = run_chain(pool, ChainConfig(target_count=300, warmup=100, thinning=2, seed=4))
        train_rows = set(pool.rows)
        assert all(row in train_rows for row in out.rows)
        assert out.provenance == "generated"

    def test_explicit_start_trapping(self):
        out, _ = run_chain(toy_pool(100), ChainConfig(target_count=500, warmup=0, thinning=1,
                                                      init=("0", "0"), seed=9))
        assert set(out.rows) == {("0", "0")}

    def test_builds_the_index_once(self, rng, monkeypatch):
        built = []
        from_codes = ContextGroups.from_codes.__func__

        def counting(cls, codes):
            built.append(len(codes))
            return from_codes(cls, codes)

        monkeypatch.setattr(ContextGroups, "from_codes", classmethod(counting))
        pool = random_categorical_pool(rng, [3, 3, 2], 40)
        run_chain(pool, ChainConfig(target_count=10, warmup=5, thinning=1, seed=1))
        assert built == [40]

    def test_deterministic_under_seed(self, rng):
        pool = random_categorical_pool(rng, [3, 3], 60)
        config = ChainConfig(target_count=40, warmup=10, thinning=2, seed=33)
        a, _ = run_chain(pool, config)
        b, _ = run_chain(pool, config)
        assert a.rows == b.rows

    def _three_var_islands(self):
        schema = categorical_schema([2, 2, 2])
        return pool_from_codes(schema, [[0, 0, 0]] * 10 + [[1, 1, 1]] * 10)

    def test_restart_policy_counts(self):
        # the retired restart setting in an old model file restarts nothing:
        # an off-distribution start still fails, and no restarts are counted
        pool = self._three_var_islands()
        doc = {"format": "agentsynth-gibbs", "version": 2, "warmup": 0, "thinning": 1,
               "seed": 1, "restart_on_unreachable": True}
        config = dataclasses.replace(gibbs.chain_from_dict(doc, 10), init=("c0", "c0", "c1"))
        with pytest.raises(DataError, match="not a training row"):
            run_chain(pool, config)
        out, diag = run_chain(pool, dataclasses.replace(config, init=("c0", "c0", "c0")))
        assert "restarts" not in diag
        assert set(out.rows) == {("c0", "c0", "c0")}

    def test_without_restart_policy_raises(self):
        # start off-distribution: the context for x00 never occurs in training
        pool = self._three_var_islands()
        config = ChainConfig(target_count=10, warmup=0, thinning=1,
                             init=("c0", "c0", "c1"), seed=1)
        with pytest.raises(DataError, match="not a training row"):
            run_chain(pool, config)

    def test_start_outside_the_training_rows_is_data_error(self, rng):
        # random rows missing from their pools
        for _ in range(4):
            pool = random_categorical_pool(rng, [3, 3, 2], 10)
            config = ChainConfig(target_count=10, warmup=0, thinning=1,
                                 init=_row_outside(pool, rng), seed=1)
            with pytest.raises(DataError, match="not a training row"):
                run_chain(pool, config)

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigError):
            ChainConfig(target_count=10, thinning=0)

    def test_chain_model_round_trips_without_the_target_count(self):
        config = ChainConfig(target_count=10, warmup=7, thinning=3, seed=5)
        doc = gibbs.chain_to_dict(config)
        assert "target_count" not in doc
        assert gibbs.chain_from_dict(doc, 4) == ChainConfig(
            target_count=4, warmup=7, thinning=3, seed=5)

    def test_model_with_the_retired_restart_setting_loads(self):
        # model files written before the restart policy was removed carry it
        doc = {"format": "agentsynth-gibbs", "version": 2, "warmup": 7, "thinning": 3,
               "seed": 5, "restart_on_unreachable": True}
        assert gibbs.chain_from_dict(doc, 4) == ChainConfig(
            target_count=4, warmup=7, thinning=3, seed=5)

    @pytest.mark.parametrize("corrupt", [
        lambda doc: doc.update(format="agentsynth-bn"),
        lambda doc: doc.pop("seed"),
        lambda doc: doc.update(thinning=0),
        lambda doc: doc.update(warmup="many"),
        # integers only: neither a fraction nor true/false is coerced
        lambda doc: doc.update(warmup=1.5),
        lambda doc: doc.update(thinning=2.0),
        lambda doc: doc.update(seed=True),
        lambda doc: doc.update(warmup=-1),
    ])
    def test_malformed_chain_model_is_data_error(self, corrupt):
        doc = gibbs.chain_to_dict(ChainConfig(target_count=1))
        corrupt(doc)
        with pytest.raises(DataError):
            gibbs.chain_from_dict(doc, 10)

    @pytest.mark.parametrize("key", ["warmup", "thinning", "seed"])
    def test_missing_key_is_named(self, key):
        doc = gibbs.chain_to_dict(ChainConfig(target_count=1))
        del doc[key]
        with pytest.raises(DataError, match=f"^a Gibbs chain model lacks '{key}'$"):
            gibbs.chain_from_dict(doc, 10)

    @pytest.mark.parametrize("doc", [[], "gibbs", None])
    def test_document_that_is_no_object_is_data_error(self, doc):
        with pytest.raises(DataError, match="a Gibbs chain model must be an object"):
            gibbs.chain_from_dict(doc, 10)
