"""Bayesian networks: MI, structure learning, MDL, ancestral sampling."""

import itertools
import json

import numpy as np
import pytest

from agentsynth import bayesnet, pipeline
from agentsynth.bayesnet import (
    MAX_TABLE_CELLS,
    CptSet,
    Dag,
    ancestral_sample,
    bn_from_dict,
    bn_to_dict,
    chow_liu,
    exact_search,
    fit_cpts,
    greedy_search,
    mdl_score,
    mutual_information,
)
from agentsynth.cli import main
from agentsynth.dataset import pool_to_codes, schema_to_json, split_pool
from agentsynth.errors import DataError, ExactSearchLimitError
from agentsynth.pipeline import acquire_data, config_from_json
from agentsynth.synthdata import SyntheticGeneratorSpec, synth_generate

from conftest import categorical_schema, toy_pool
from oracles import joint_distribution


def _toy_codes(n_each=500):
    return pool_to_codes(toy_pool(n_each))


def _exact_product_codes():
    """Perfectly independent pair: every combination equally often."""
    return np.array(list(itertools.product(range(2), range(2))) * 25)


# ---------------------------------------------------------------------------
# references: the dense local score, the dict-DP exact search and the
# DFS-checked greedy search that the sparse scorer, the pruned search and
# the bitmask greedy search replace


def _dense_local_score(arr, value_counts, node, parents):
    n_rows = arr.shape[0]
    width = value_counts[node]
    parent_widths = [value_counts[p] for p in parents]
    n_combos = int(np.prod(parent_widths)) if parents else 1
    if n_combos * width > MAX_TABLE_CELLS:
        raise DataError(f"node {node}: conditional table too large ({n_combos} x {width})")
    if parents:
        combo = np.ravel_multi_index([arr[:, p] for p in parents], parent_widths)
    else:
        combo = np.zeros(n_rows, dtype=np.int64)
    counts = np.zeros((n_combos, width))
    np.add.at(counts, (combo, arr[:, node]), 1.0)
    totals = counts.sum(axis=1, keepdims=True)
    mask = counts > 0
    ll = float(np.sum(counts[mask] * np.log(counts[mask] / np.broadcast_to(totals, counts.shape)[mask])))
    penalty = 0.5 * np.log(n_rows) * (width - 1) * n_combos
    return ll - penalty


def _reference_exact_search(arr, value_counts):
    n = len(value_counts)
    full = (1 << n) - 1
    best_ps_score = [dict() for _ in range(n)]
    best_ps_mask = [dict() for _ in range(n)]
    for v in range(n):
        others_mask = full ^ (1 << v)
        subsets = []
        sub = 0
        while True:
            subsets.append(sub)
            if sub == others_mask:
                break
            sub = (sub - others_mask) & others_mask
        subsets.sort(key=lambda m: bin(m).count("1"))
        for mask in subsets:
            pa = tuple(u for u in range(n) if (mask >> u) & 1)
            score = _dense_local_score(arr, value_counts, v, pa)
            chosen = mask
            for u in pa:
                prev = mask ^ (1 << u)
                if best_ps_score[v][prev] > score:
                    score = best_ps_score[v][prev]
                    chosen = best_ps_mask[v][prev]
            best_ps_score[v][mask] = score
            best_ps_mask[v][mask] = chosen
    best = {0: 0.0}
    pick = {}
    for mask in range(1, full + 1):
        top, top_pair = None, None
        for v in range(n):
            if not (mask >> v) & 1:
                continue
            rest = mask ^ (1 << v)
            value = best[rest] + best_ps_score[v][rest]
            if top is None or value > top:
                top, top_pair = value, (v, rest)
        best[mask] = top
        pick[mask] = top_pair
    parents = [()] * n
    mask = full
    while mask:
        v, rest = pick[mask]
        chosen = best_ps_mask[v][rest]
        parents[v] = tuple(u for u in range(n) if (chosen >> u) & 1)
        mask = rest
    return Dag(n, tuple(parents))


def _reaches(parents, start, goal):
    """True if goal is reachable from start following child edges."""
    children = [[] for _ in range(len(parents))]
    for child, pa in enumerate(parents):
        for p in pa:
            children[p].append(child)
    stack, seen = [start], set()
    while stack:
        node = stack.pop()
        if node == goal:
            return True
        for c in children[node]:
            if c not in seen:
                seen.add(c)
                stack.append(c)
    return False


def _reference_greedy_search(codes, value_counts, max_parents=None):
    """Hill climbing on parent sets with a DFS per legality test and a copy
    of every parent set per candidate reversal; returns the DAG and the
    moves it applied, as (op, i, j)."""
    arr = np.asarray(codes, dtype=np.int64)
    n = len(value_counts)
    parents = [set() for _ in range(n)]
    scorer = bayesnet._FamilyScorer(arr, value_counts)
    cache = {}
    applied = []

    def local(node, pa_set):
        key = (node, tuple(sorted(pa_set)))
        if key not in cache:
            cache[key] = scorer.local(*key)
        return cache[key]

    improved = True
    while improved:
        improved = False
        best_gain = 1e-9
        best_apply = None
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                if i not in parents[j]:
                    if max_parents is not None and len(parents[j]) >= max_parents:
                        continue
                    if _reaches(parents, j, i):
                        continue
                    gain = local(j, parents[j] | {i}) - local(j, parents[j])
                    if gain > best_gain:
                        best_gain = gain
                        best_apply = ("add", i, j)
                else:
                    gain = local(j, parents[j] - {i}) - local(j, parents[j])
                    if gain > best_gain:
                        best_gain = gain
                        best_apply = ("remove", i, j)
                    if max_parents is None or len(parents[i]) < max_parents:
                        trial = [set(p) for p in parents]
                        trial[j].discard(i)
                        if not _reaches(trial, i, j):
                            gain = (local(j, parents[j] - {i}) - local(j, parents[j])
                                    + local(i, parents[i] | {j}) - local(i, parents[i]))
                            if gain > best_gain:
                                best_gain = gain
                                best_apply = ("reverse", i, j)
        if best_apply is not None:
            op, i, j = best_apply
            if op == "add":
                parents[j].add(i)
            elif op == "remove":
                parents[j].discard(i)
            else:
                parents[j].discard(i)
                parents[i].add(j)
            applied.append(best_apply)
            improved = True
    return Dag(n, tuple(tuple(sorted(p)) for p in parents)), applied


def _unique_rows_local_score(arr, value_counts, node, parents):
    """The same formula over np.unique parent rows (lexicographic, i.e. C
    order), with no dense table and no bound on the product of widths."""
    n_rows = arr.shape[0]
    width = value_counts[node]
    keys = arr[:, list(parents)] if parents else np.zeros((n_rows, 1), dtype=np.int64)
    inverse = np.unique(keys, axis=0, return_inverse=True)[1].ravel()
    counts = np.zeros((inverse.max() + 1, width))
    np.add.at(counts, (inverse, arr[:, node]), 1.0)
    totals = np.broadcast_to(counts.sum(axis=1, keepdims=True), counts.shape)
    mask = counts > 0
    ll = float(np.sum(counts[mask] * np.log(counts[mask] / totals[mask])))
    n_combos = 1
    for p in parents:
        n_combos *= value_counts[p]
    return ll - 0.5 * np.log(n_rows) * (width - 1) * n_combos


def _dependent_codes(rng, widths, n_rows):
    """Each column copies an earlier random column with probability 0.6,
    else draws uniformly; a width-1 column is constant."""
    cols = []
    for j, w in enumerate(widths):
        fresh = rng.integers(0, w, n_rows)
        if j and rng.random() < 0.8:
            src = cols[int(rng.integers(j))] % w
            fresh = np.where(rng.random(n_rows) < 0.6, src, fresh)
        cols.append(fresh)
    return np.column_stack(cols)


class TestMutualInformation:
    def test_exact_independence_is_zero(self):
        assert mutual_information(_exact_product_codes(), (2, 2), 0, 1) == 0.0

    def test_identical_fair_bits_give_log2(self):
        col = np.array([0, 1] * 50)
        codes = np.column_stack([col, col])
        mi = mutual_information(codes, (2, 2), 0, 1)
        assert abs(mi - np.log(2)) < 1e-12

    def test_toy_distribution_matches_formula_oracle(self):
        # Oracle: direct sum p log(p / (p_i p_j)) over the 2x2 table
        codes = _toy_codes()
        joint = np.zeros((2, 2))
        for x, y in codes:
            joint[x, y] += 1
        joint /= joint.sum()
        pi, pj = joint.sum(1), joint.sum(0)
        expected = sum(
            joint[a, b] * np.log(joint[a, b] / (pi[a] * pj[b]))
            for a in range(2) for b in range(2) if joint[a, b] > 0
        )
        assert abs(mutual_information(codes, (2, 2), 0, 1) - expected) < 1e-12
        assert abs(expected - np.log(2)) < 1e-12

    def test_symmetric_and_nonnegative(self, rng):
        codes = np.column_stack([rng.integers(0, 3, 300), rng.integers(0, 4, 300)])
        a = mutual_information(codes, (3, 4), 0, 1)
        b = mutual_information(codes, (3, 4), 1, 0)
        assert abs(a - b) < 1e-12
        assert a >= 0

    def test_empty_data_rejected(self):
        with pytest.raises(DataError):
            mutual_information(np.empty((0, 2), dtype=int), (2, 2), 0, 1)


class TestChowLiu:
    def test_two_variables_single_edge(self):
        dag = chow_liu(_toy_codes(), (2, 2))
        assert dag.edges == ((0, 1),)

    def test_chain_recovery_against_brute_force(self, rng):
        # X -> Y -> Z with strong links; oracle enumerates all 3 spanning
        # trees on 3 nodes by total MI
        n = 20000
        x = rng.integers(0, 2, n)
        y = np.where(rng.random(n) < 0.9, x, 1 - x)
        z = np.where(rng.random(n) < 0.9, y, 1 - y)
        codes = np.column_stack([x, y, z])
        counts = (2, 2, 2)
        mi = {(i, j): mutual_information(codes, counts, i, j)
              for i in range(3) for j in range(i + 1, 3)}
        trees = [
            {(0, 1), (1, 2)},
            {(0, 1), (0, 2)},
            {(0, 2), (1, 2)},
        ]
        best_tree = max(trees, key=lambda t: sum(mi[e] for e in t))
        assert best_tree == {(0, 1), (1, 2)}
        dag = chow_liu(codes, counts)
        skeleton = {tuple(sorted(e)) for e in dag.edges}
        assert skeleton == best_tree

    def test_one_variable_gives_the_edgeless_dag(self):
        codes = np.array([[0], [1], [1]])
        assert chow_liu(codes, (2,)) == Dag(1, ((),))
        assert greedy_search(codes, (2,)) == exact_search(codes, (2,)) == Dag(1, ((),))

    def test_toy_returns_connected_graph(self):
        dag = chow_liu(_toy_codes(), (2, 2))
        assert len(dag.edges) == 1

    def test_spanning_tree_shape(self, rng):
        n_vars = 6
        codes = rng.integers(0, 3, size=(500, n_vars))
        dag = chow_liu(codes, (3,) * n_vars)
        assert len(dag.edges) == n_vars - 1
        # connected: every node reachable from the root
        reached = {0}
        for _ in range(n_vars):
            for p, c in dag.edges:
                if p in reached:
                    reached.add(c)
        assert reached == set(range(n_vars))


class TestMdlScore:
    def test_empty_beats_single_edge_on_independent_data(self):
        # Oracle: evaluate both scores directly on an exact product table
        codes = _exact_product_codes()
        empty = Dag(2, ((), ()))
        one_edge = Dag(2, ((), (0,)))
        assert mdl_score(empty, codes, (2, 2)) >= mdl_score(one_edge, codes, (2, 2))

    def test_toy_connected_outscores_disconnected(self):
        codes = _toy_codes(500)  # N = 1000
        connected = Dag(2, ((), (0,)))
        disconnected = Dag(2, ((), ()))
        assert mdl_score(connected, codes, (2, 2)) > mdl_score(disconnected, codes, (2, 2))

    def test_edge_direction_equivalence_on_toy(self):
        codes = _toy_codes(500)
        xy = mdl_score(Dag(2, ((), (0,))), codes, (2, 2))
        yx = mdl_score(Dag(2, ((1,), ())), codes, (2, 2))
        assert abs(xy - yx) < 1e-9

    def test_hand_computed_toy_scores(self):
        # N=1000 balanced prototypes: LL(connected) = 1000 log .5,
        # LL(disconnected) = 2000 log .5; penalties 3 and 2 free params
        codes = _toy_codes(500)
        n = 1000
        connected = mdl_score(Dag(2, ((), (0,))), codes, (2, 2))
        disconnected = mdl_score(Dag(2, ((), ())), codes, (2, 2))
        assert abs(connected - (n * np.log(0.5) - 0.5 * np.log(n) * 3)) < 1e-9
        assert abs(disconnected - (2 * n * np.log(0.5) - 0.5 * np.log(n) * 2)) < 1e-9


class TestGreedySearch:
    def test_independent_data_keeps_empty_graph(self):
        codes = _exact_product_codes()
        dag = greedy_search(codes, (2, 2))
        assert dag.edges == ()

    def test_toy_returns_connected(self):
        dag = greedy_search(_toy_codes(500), (2, 2))
        assert len(dag.edges) == 1

    def test_score_at_least_chow_liu(self, rng):
        for seed in range(3):
            r = np.random.default_rng(seed)
            x = r.integers(0, 3, 800)
            y = (x + r.integers(0, 2, 800)) % 3
            z = r.integers(0, 2, 800)
            codes = np.column_stack([x, y, z])
            counts = (3, 3, 2)
            greedy = mdl_score(greedy_search(codes, counts), codes, counts)
            tree = mdl_score(chow_liu(codes, counts), codes, counts)
            assert greedy >= tree - 1e-9

    def test_max_parents_respected(self, rng):
        codes = rng.integers(0, 2, size=(400, 5))
        dag = greedy_search(codes, (2,) * 5, max_parents=1)
        assert all(len(p) <= 1 for p in dag.parents)


def _greedy_oracle_cases():
    """(codes, widths, max_parents) over both generators, 3-16 variables of
    widths 2-5, 50-3,000 rows and every max_parents setting."""
    r = np.random.default_rng(72)
    for case in range(30):
        n_vars = int(r.integers(3, 17))
        widths = tuple(int(w) for w in r.integers(2, 6, n_vars))
        kind = ("latent-class", "bn-ground-truth")[case % 2]
        extra = {"n_classes": int(r.integers(2, 7))} if kind == "latent-class" else \
            {"max_parents": int(r.integers(1, 4))}
        spec = SyntheticGeneratorSpec(kind=kind, size=int(r.integers(50, 3001)), seed=case,
                                      n_variables=n_vars, category_width=widths, **extra)
        yield pool_to_codes(synth_generate(spec)), widths, (None, 0, 1, 2, 3)[case % 5]


def _bn_search_training_codes(seed):
    """The training split of the bn-search benchmark workload at ``seed``."""
    config = config_from_json({
        "seed": seed,
        "data": {"synthetic": {"kind": "bn-ground-truth", "size": 25_000, "seed": 2,
                               "n_variables": 12, "category_width": [2, 3, 4] * 4,
                               "max_parents": 2}},
        "split": {"train_frac": 0.25, "val_frac_of_train": 0.2},
    })
    train = split_pool(acquire_data(config), config.train_frac, config.val_frac_of_train,
                       pipeline._split_seed(config))[0]
    return pool_to_codes(train), train.schema.value_counts


class TestGreedyMatchesReference:
    def test_random_schemas_and_every_move_kind(self):
        ops = set()
        for codes, widths, max_parents in _greedy_oracle_cases():
            expected, applied = _reference_greedy_search(codes, widths, max_parents)
            assert greedy_search(codes, widths, max_parents) == expected
            ops.update(op for op, _, _ in applied)
        # every legality rule was exercised by an applied move
        assert ops == {"add", "remove", "reverse"}

    @pytest.mark.parametrize("seed", [2, 3, 4])
    def test_bn_search_training_split(self, seed):
        codes, widths = _bn_search_training_codes(seed)
        expected, applied = _reference_greedy_search(codes, widths, 3)
        assert applied
        assert greedy_search(codes, widths, 3) == expected

    def test_wide_latent_class_pool(self):
        # 24 variables: 45 applied moves, each rescoring only its child's
        # column of the move-gain table
        spec = SyntheticGeneratorSpec(kind="latent-class", size=2000, seed=4, n_variables=24,
                                      category_width=4)
        codes, widths = pool_to_codes(synth_generate(spec)), (4,) * 24
        expected, applied = _reference_greedy_search(codes, widths, 3)
        assert len(applied) == 45
        assert greedy_search(codes, widths, 3) == expected

    @pytest.mark.parametrize("max_parents", [0, 1])
    def test_bn_search_training_split_few_parents(self, max_parents):
        codes, widths = _bn_search_training_codes(2)
        expected, applied = _reference_greedy_search(codes, widths, max_parents)
        assert bool(applied) == bool(max_parents)
        assert greedy_search(codes, widths, max_parents) == expected


class TestSparseScorer:
    def test_local_scores_equal_dense_reference(self):
        for seed in range(4):
            r = np.random.default_rng(200 + seed)
            widths = tuple(int(w) for w in r.integers(2, 6, 6))
            codes = _dependent_codes(r, widths, 300)
            # a deterministic child of columns 0 and 1: ll = 0 given both
            det = (codes[:, 0] * widths[1] + codes[:, 1]) % 5
            codes = np.column_stack([codes, det])
            widths += (5,)
            scorer = bayesnet._FamilyScorer(codes, widths)
            families = [(6, pa) for k in range(4) for pa in itertools.combinations(range(6), k)]
            for _ in range(60):
                node = int(r.integers(7))
                others = [u for u in range(7) if u != node]
                k = int(r.integers(0, 5))
                families.append((node, tuple(sorted(r.choice(others, k, replace=False).tolist()))))
            for node, parents in families:
                assert scorer.local(node, parents) == _dense_local_score(codes, widths, node, parents)
            assert scorer.local(6, (0, 1)) == -(0.5 * np.log(300) * 4 * (widths[0] * widths[1]))

    def test_raw_and_compact_ids_at_the_row_count(self):
        # widths 6 x 6 give 36 parent combinations: at 36 rows the family
        # {0, 2} sits exactly at the row count and keeps its raw ids, at 35
        # it is one cell above and is ranked; the width-1 column 1 changes
        # no range, and its zero penalty keeps every set open in the exact
        # search's candidate pass
        r = np.random.default_rng(410)
        widths = (6, 1, 6, 3, 2)
        for n_rows in (36, 35):
            codes = _dependent_codes(r, widths, n_rows)
            scorer = bayesnet._FamilyScorer(codes, widths)
            ids, size = scorer.family((0, 1, 2))
            raw = codes[:, 0] * 6 + codes[:, 2]
            if n_rows == 36:
                assert size == 36 and np.array_equal(ids, raw)
            else:
                assert size == len(np.unique(raw)) and np.array_equal(
                    ids, np.unique(raw, return_inverse=True)[1])
            for node in range(5):
                others = [u for u in range(5) if u != node]
                for k in range(5):
                    for parents in itertools.combinations(others, k):
                        assert scorer.local(node, parents) == \
                            _dense_local_score(codes, widths, node, parents)
            assert exact_search(codes, widths) == _reference_exact_search(codes, widths)

    def test_mdl_score_past_the_dense_table_bound(self, rng):
        widths = (20,) * 6
        codes = rng.integers(0, 20, size=(400, 6))
        dag = Dag(6, ((), (), (), (), (), (0, 1, 2, 3, 4)))
        assert 20 ** 6 > MAX_TABLE_CELLS
        with pytest.raises(DataError, match="too large"):
            _dense_local_score(codes, widths, 5, (0, 1, 2, 3, 4))
        expected = sum(_unique_rows_local_score(codes, widths, v, dag.parents[v])
                       for v in range(6))
        assert mdl_score(dag, codes, widths) == expected

    def test_widths_whose_product_overflows_int64(self, rng):
        widths = (60,) * 12
        assert 60 ** 12 > np.iinfo(np.int64).max
        codes = rng.integers(0, 60, size=(200, 12))
        dag = Dag(12, ((),) * 11 + (tuple(range(11)),))
        expected = sum(_unique_rows_local_score(codes, widths, v, dag.parents[v])
                       for v in range(12))
        assert mdl_score(dag, codes, widths) == expected
        # 200 rows cannot pay for one 60-wide parent: every set is pruned
        assert exact_search(codes, widths).edges == ()

    def test_codes_outside_the_widths_rejected(self):
        codes = np.array([[0, 1], [1, 2]])
        with pytest.raises(DataError, match=r"variable 1: codes outside \[0, 2\)"):
            mdl_score(Dag(2, ((), (0,))), codes, (2, 2))
        with pytest.raises(DataError, match="value counts"):
            exact_search(codes, (2, 3, 2))


class TestExactSearch:
    def test_two_independent_variables_empty(self):
        dag = exact_search(_exact_product_codes(), (2, 2))
        assert dag.edges == ()

    def test_toy_connected_score_matches_greedy(self):
        codes = _toy_codes(500)
        exact = exact_search(codes, (2, 2))
        assert len(exact.edges) == 1
        assert abs(mdl_score(exact, codes, (2, 2))
                   - mdl_score(greedy_search(codes, (2, 2)), codes, (2, 2))) < 1e-9

    def test_exhaustive_oracle_two_nodes(self, rng):
        # Oracle: enumerate all 3 two-node structures explicitly
        x = rng.integers(0, 2, 400)
        y = np.where(rng.random(400) < 0.8, x, 1 - x)
        codes = np.column_stack([x, y])
        counts = (2, 2)
        structures = [Dag(2, ((), ())), Dag(2, ((), (0,))), Dag(2, ((1,), ()))]
        best = max(mdl_score(d, codes, counts) for d in structures)
        assert abs(mdl_score(exact_search(codes, counts), codes, counts) - best) < 1e-9

    def test_v_structure_at_least_true_dag(self, rng):
        # X0, X1 independent parents; X2 = xor-ish; X3 noise child of X2
        n = 5000
        x0 = rng.integers(0, 2, n)
        x1 = rng.integers(0, 2, n)
        x2 = np.where(rng.random(n) < 0.95, (x0 ^ x1), rng.integers(0, 2, n))
        x3 = np.where(rng.random(n) < 0.9, x2, 1 - x2)
        codes = np.column_stack([x0, x1, x2, x3])
        counts = (2, 2, 2, 2)
        truth = Dag(4, ((), (), (0, 1), (2,)))
        found = exact_search(codes, counts)
        assert mdl_score(found, codes, counts) >= mdl_score(truth, codes, counts) - 1e-9

    def test_exact_at_least_greedy_at_least_empty(self, rng):
        for seed in range(3):
            r = np.random.default_rng(100 + seed)
            codes = np.column_stack([
                r.integers(0, 2, 600),
                r.integers(0, 3, 600),
                r.integers(0, 2, 600),
            ])
            counts = (2, 3, 2)
            s_exact = mdl_score(exact_search(codes, counts), codes, counts)
            s_greedy = mdl_score(greedy_search(codes, counts), codes, counts)
            s_empty = mdl_score(Dag(3, ((), (), ())), codes, counts)
            assert s_exact >= s_greedy - 1e-9
            assert s_greedy >= s_empty - 1e-9

    def test_cap_enforced(self, rng):
        codes = rng.integers(0, 2, size=(10, 13))
        with pytest.raises(ExactSearchLimitError, match="greedy"):
            exact_search(codes, (2,) * 13)

    def test_matches_dict_dp_reference(self):
        cases = []
        for seed in range(12):
            r = np.random.default_rng(300 + seed)
            n_vars = 3 + seed % 6
            widths = [int(w) for w in r.integers(2, 6, n_vars)]
            if seed % 3 == 0:
                widths[int(r.integers(n_vars))] = 1  # constant: every family ties at 0
            cases.append((_dependent_codes(r, widths, int(r.integers(150, 600))), widths))
        r = np.random.default_rng(320)
        # one and two variables: a level pass of one or two levels
        for widths in ([3], [2, 4]):
            cases.append((_dependent_codes(r, widths, 200), widths))
        # a duplicated column: parent sets that swap one copy for the other
        # score equal, and so do networks that swap the copies' roles
        codes = _dependent_codes(r, [3, 2, 4, 3], 300)
        cases.append((np.column_stack([codes, codes[:, 1]]), [3, 2, 4, 3, 2]))
        # two width-1 columns: each ties every parent set, the other included
        codes = _dependent_codes(r, [2, 3, 2], 300)
        constant = np.zeros(300, dtype=int)
        cases.append((np.column_stack([codes[:, 0], constant, codes[:, 1:], constant]),
                      [2, 1, 3, 2, 1]))
        for codes, widths in cases:
            assert exact_search(codes, widths) == _reference_exact_search(codes, widths)

    def test_constant_node_keeps_the_largest_tied_parent_set(self):
        # width 1: every family scores exactly 0, so the tie keeps the whole
        # candidate set; pruning on a tie would leave node 1 without parents
        r = np.random.default_rng(5)
        codes = np.column_stack([r.integers(0, 2, 300), np.zeros(300, dtype=int),
                                 r.integers(0, 3, 300)])
        expected = _reference_exact_search(codes, (2, 1, 3))
        assert expected.parents[1] != ()
        assert exact_search(codes, (2, 1, 3)) == expected

    def test_pruned_wide_parent_leaves_narrow_siblings(self):
        # {0} (width 30) is pruned for both skewed bits, while {1} -> 2 pays
        # for itself: skipping {0}'s subtree must not skip {1} or {2}
        r = np.random.default_rng(8)
        bit = (r.random(300) < 0.05).astype(int)
        copy = np.where(r.random(300) < 0.98, bit, 1 - bit)
        codes = np.column_stack([r.integers(0, 30, 300), bit, copy])
        expected = _reference_exact_search(codes, (30, 2, 2))
        assert len(expected.edges) == 1 and set(expected.edges[0]) == {1, 2}
        assert exact_search(codes, (30, 2, 2)) == expected

    def test_screen_scores_few_pairs(self, monkeypatch):
        # unscreened, the search scored 14,966 (node, parent set) pairs here
        spec = SyntheticGeneratorSpec(kind="bn-ground-truth", size=5000, seed=2,
                                      n_variables=12, category_width=[2, 3, 4] * 4,
                                      max_parents=2)
        codes = pool_to_codes(synth_generate(spec))
        scored = []
        score = bayesnet._FamilyScorer.score
        monkeypatch.setattr(bayesnet._FamilyScorer, "score",
                            lambda self, *args: scored.append(args[0]) or score(self, *args))
        found = exact_search(codes, (2, 3, 4) * 4)
        assert len(scored) < 1000
        assert found.parents == ((5,), (0,), (0, 5), (0,), (0, 1), (), (1, 3), (2, 6),
                                 (2, 6), (6, 8), (0, 3), (3, 5))

    def test_ties_and_near_ties_match_reference(self):
        r = np.random.default_rng(330)
        codes = _dependent_codes(r, [3, 4, 2, 3], 400)
        cases = [
            # duplicated columns, one of them twice
            (np.column_stack([codes, codes[:, 1], codes[:, 1], codes[:, 2]]),
             [3, 4, 2, 3, 4, 4, 2]),
            # a column equal to another modulo its width
            (np.column_stack([codes, codes[:, 1] % 2, codes[:, 0] % 2]), [3, 4, 2, 3, 2, 2]),
            # width-1 columns: every family of theirs scores 0
            (np.column_stack([np.zeros(400, dtype=int), codes[:, :2],
                              np.zeros(400, dtype=int)]), [1, 3, 4, 1]),
            (np.zeros((30, 3), dtype=int), [1, 1, 1]),
            # one row: log N = 0, so every family of every node scores 0
            (codes[:1], [3, 4, 2, 3]),
            # all rows equal: every log-likelihood is 0
            (np.repeat(codes[:1], 50, axis=0), [3, 4, 2, 3]),
        ]
        for case in range(63):
            n_vars = 1 + case % 7
            widths = [int(w) for w in r.integers(1, 5, n_vars)]
            codes = _dependent_codes(r, widths, int(r.integers(1, 300)))
            if case % 3 == 0 and n_vars > 1:
                copied = int(r.integers(n_vars - 1))
                codes[:, -1], widths[-1] = codes[:, copied], widths[copied]
            cases.append((codes, widths))
        for codes, widths in cases:
            assert exact_search(codes, widths) == _reference_exact_search(codes, widths)

    def test_screen_never_drops_a_winner(self, monkeypatch):
        """Every (node, set) pair whose dense score is strictly above that of
        each proper subset is scored exactly; most other pairs are not."""
        parents_of, scored = {}, set()
        extend, score = bayesnet._FamilyScorer.extend, bayesnet._FamilyScorer.score

        def tracked_extend(self, family, parent):
            result = extend(self, family, parent)
            # the families stay referenced, so no id is reused
            parents_of[id(result)] = (result, parents_of.get(id(family), (None, ()))[1]
                                      + (parent,))
            return result

        def tracked_score(self, node, family, n_combos):
            scored.add((node, parents_of.get(id(family), (None, ()))[1]))
            return score(self, node, family, n_combos)

        monkeypatch.setattr(bayesnet._FamilyScorer, "extend", tracked_extend)
        monkeypatch.setattr(bayesnet._FamilyScorer, "score", tracked_score)
        r = np.random.default_rng(340)
        pairs = n_scored = 0
        for case in range(8):
            n_vars = 3 + case % 4
            widths = [int(w) for w in r.integers(2, 5, n_vars)]
            codes = _dependent_codes(r, widths, int(r.integers(200, 2000)))
            if case % 2:
                codes[:, -1], widths[-1] = codes[:, 0], widths[0]
            parents_of.clear()
            scored.clear()
            exact_search(codes, widths)
            for v in range(n_vars):
                others = [u for u in range(n_vars) if u != v]
                dense = {pa: _dense_local_score(codes, widths, v, pa)
                         for k in range(n_vars) for pa in itertools.combinations(others, k)}
                for pa, value in dense.items():
                    proper = [sub for k in range(len(pa))
                              for sub in itertools.combinations(pa, k)]
                    if all(value > dense[sub] for sub in proper):
                        assert (v, pa) in scored, (case, v, pa)
                pairs += len(dense)
            n_scored += len(scored)
        assert n_scored < pairs / 2, (n_scored, pairs)

    def test_at_cap_beats_greedy_and_tree(self, monkeypatch):
        spec = SyntheticGeneratorSpec(kind="bn-ground-truth", size=5000, seed=2,
                                      n_variables=12, category_width=4, max_parents=2)
        codes = pool_to_codes(synth_generate(spec))
        widths = (4,) * 12
        with pytest.raises(DataError, match="too large"):
            _dense_local_score(codes, widths, 0, tuple(range(1, 12)))
        scored = []
        score = bayesnet._FamilyScorer.score
        monkeypatch.setattr(bayesnet._FamilyScorer, "score",
                            lambda self, *args: scored.append(args[0]) or score(self, *args))
        found = exact_search(codes, widths, max_vars=12)
        assert 12 <= len(scored) < 12 * 2 ** 11  # pruned sets are never counted
        monkeypatch.undo()
        s_exact = mdl_score(found, codes, widths)
        assert s_exact >= mdl_score(greedy_search(codes, widths), codes, widths)
        assert s_exact >= mdl_score(chow_liu(codes, widths), codes, widths)


class TestCpts:
    def test_observed_combos_are_maximum_likelihood(self):
        codes = _toy_codes(500)
        dag = Dag(2, ((), (0,)))
        cpts = fit_cpts(dag, codes, (2, 2))
        np.testing.assert_allclose(cpts.tables[0][0], [0.5, 0.5])
        np.testing.assert_allclose(cpts.tables[1][0], [1.0, 0.0])
        np.testing.assert_allclose(cpts.tables[1][1], [0.0, 1.0])

    def test_unseen_parent_combo_uniform(self):
        codes = np.array([[0, 0], [0, 1]])
        dag = Dag(2, ((), (0,)))
        cpts = fit_cpts(dag, codes, (3, 2))
        np.testing.assert_allclose(cpts.tables[1][1], [0.5, 0.5])
        np.testing.assert_allclose(cpts.tables[1][2], [0.5, 0.5])

    def test_rows_normalized(self, rng):
        codes = rng.integers(0, 3, size=(200, 3))
        dag = Dag(3, ((), (0,), (0, 1)))
        cpts = fit_cpts(dag, codes, (3, 3, 3))
        for t in cpts.tables:
            np.testing.assert_allclose(t.sum(axis=1), 1.0, atol=1e-12)

    def test_equals_scatter_add_reference(self, rng):
        # reference: the dense table filled by np.add.at, parents as listed
        widths = (3, 2, 4, 2)
        codes = np.column_stack([rng.integers(0, w, size=300) for w in widths])
        codes[:, 2] = np.minimum(codes[:, 2], 2)  # value 3 never occurs
        dag = Dag(4, ((), (0,), (3, 0), (1,)))
        cpts = fit_cpts(dag, codes, widths)
        for node, pa in enumerate(dag.parents):
            counts = np.zeros((int(np.prod([widths[p] for p in pa])), widths[node]))
            combo = (np.ravel_multi_index([codes[:, p] for p in pa], [widths[p] for p in pa])
                     if pa else np.zeros(len(codes), dtype=np.int64))
            np.add.at(counts, (combo, codes[:, node]), 1.0)
            totals = counts.sum(axis=1, keepdims=True)
            expected = np.full(counts.shape, 1.0 / widths[node])
            seen = totals[:, 0] > 0
            expected[seen] = counts[seen] / totals[seen]
            np.testing.assert_array_equal(cpts.tables[node], expected)

    def test_refit_from_samples_reproduces_tables(self, rng):
        # fit -> sample 1e5 -> refit: every table row within TV < 0.02
        base = np.column_stack([
            rng.integers(0, 2, 3000),
            rng.integers(0, 3, 3000),
        ])
        base[:, 1] = (base[:, 1] + base[:, 0]) % 3
        dag = Dag(2, ((), (0,)))
        cpts = fit_cpts(dag, base, (2, 3))
        samples = ancestral_sample(dag, cpts, 10 ** 5, rng)
        refit = fit_cpts(dag, samples, (2, 3))
        for t_old, t_new in zip(cpts.tables, refit.tables):
            tv = 0.5 * np.abs(t_old - t_new).sum(axis=1)
            assert np.all(tv < 0.02)


class TestAncestralSample:
    def test_point_mass_cpts_identical_rows(self):
        dag = Dag(2, ((), (0,)))
        cpts = CptSet((2, 2), dag.parents,
                      (np.array([[1.0, 0.0]]), np.array([[0.0, 1.0], [1.0, 0.0]])))
        codes = ancestral_sample(dag, cpts, 50, 7)
        assert np.all(codes == np.array([0, 1]))

    def test_toy_shares(self):
        codes = _toy_codes(500)
        dag = chow_liu(codes, (2, 2))
        cpts = fit_cpts(dag, codes, (2, 2))
        out = ancestral_sample(dag, cpts, 10 ** 4, 3)
        rows = {tuple(r) for r in out}
        assert rows <= {(0, 0), (1, 1)}
        share0 = np.mean(np.all(out == 0, axis=1))
        assert 0.47 <= share0 <= 0.53

    def test_three_node_joint_total_variation(self, rng):
        # Oracle: enumerate the analytic joint of a fixed random 3-node BN
        dag = Dag(3, ((), (0,), (0, 1)))
        tables = (
            np.array([[0.3, 0.7]]),
            np.array([[0.9, 0.1], [0.2, 0.8]]),
            np.array([[0.5, 0.5], [0.8, 0.2], [0.1, 0.9], [0.6, 0.4]]),
        )
        cpts = CptSet((2, 2, 2), dag.parents, tables)
        analytic = joint_distribution(dag, cpts)
        samples = ancestral_sample(dag, cpts, 10 ** 5, 11)
        empirical = np.zeros((2, 2, 2))
        np.add.at(empirical, tuple(samples.T), 1.0)
        empirical /= samples.shape[0]
        tv = 0.5 * np.abs(analytic - empirical).sum()
        assert tv < 0.01

    def test_zero_count(self):
        dag = Dag(1, ((),))
        cpts = CptSet((2,), dag.parents, (np.array([[0.5, 0.5]]),))
        assert ancestral_sample(dag, cpts, 0, 1).shape == (0, 1)

    def test_equals_inline_inverse_cdf_reference(self, rng):
        # reference: the inline draw ancestral_sample used before
        # dataset.draw_categories, one uniform column per node
        widths = (3, 2, 4)
        dag = Dag(3, ((), (0,), (1, 0)))
        cpts = fit_cpts(dag, np.column_stack(
            [rng.integers(0, w, size=200) for w in widths]), widths)
        ref_rng = np.random.default_rng(5)
        expected = np.zeros((500, 3), dtype=np.int64)
        for node in dag.topological_order():
            pa, table = dag.parents[node], cpts.tables[node]
            if pa:
                rows = table[np.ravel_multi_index([expected[:, p] for p in pa],
                                                  [widths[p] for p in pa])]
            else:
                rows = np.broadcast_to(table[0], (500, table.shape[1]))
            cum = np.cumsum(rows, axis=1)
            u = ref_rng.random((500, 1)) * cum[:, -1:]
            expected[:, node] = np.minimum((u > cum).sum(axis=1), table.shape[1] - 1)
        out_rng = np.random.default_rng(5)
        np.testing.assert_array_equal(ancestral_sample(dag, cpts, 500, out_rng), expected)
        assert out_rng.bit_generator.state == ref_rng.bit_generator.state


class TestDagAndSerialization:
    def test_cycle_rejected(self):
        with pytest.raises(DataError, match="cycle"):
            Dag(2, ((1,), (0,)))

    def test_duplicate_parent_rejected(self):
        with pytest.raises(DataError, match="node 2: duplicate parent"):
            Dag(3, ((), (), (1, 1)))

    def test_learned_structures_acyclic(self, rng):
        codes = rng.integers(0, 2, size=(300, 4))
        for dag in (chow_liu(codes, (2,) * 4), greedy_search(codes, (2,) * 4),
                    exact_search(codes, (2,) * 4)):
            assert len(dag.topological_order()) == 4

    def test_json_roundtrip(self, rng):
        codes = rng.integers(0, 2, size=(100, 3))
        dag = chow_liu(codes, (2, 2, 2))
        cpts = fit_cpts(dag, codes, (2, 2, 2))
        doc = bn_to_dict(dag, cpts, "tree", 0.5, schema=_schema_doc([2, 2, 2]))
        dag2, cpts2 = bn_from_dict(doc)
        assert dag2 == dag
        for a, b in zip(cpts.tables, cpts2.tables):
            np.testing.assert_allclose(a, b)
        assert doc["algorithm"] == "tree"

    def test_document_carries_mdl_and_edge_count(self, rng):
        codes = rng.integers(0, 2, size=(100, 3))
        dag = chow_liu(codes, (2, 2, 2))
        cpts = fit_cpts(dag, codes, (2, 2, 2))
        score = mdl_score(dag, codes, (2, 2, 2))
        doc = json.loads(json.dumps(bn_to_dict(dag, cpts, "tree", 0.5, score,
                                               schema=_schema_doc([2, 2, 2]))))
        assert doc["mdl_score"] == score and doc["n_edges"] == 2
        assert bn_from_dict(doc)[0] == dag
        assert bn_to_dict(dag, cpts, "tree", schema=_schema_doc([2, 2, 2]))["mdl_score"] is None

    def test_schema_is_required(self, rng):
        codes = rng.integers(0, 2, size=(100, 3))
        dag = chow_liu(codes, (2, 2, 2))
        cpts = fit_cpts(dag, codes, (2, 2, 2))
        with pytest.raises(TypeError, match="schema"):
            bn_to_dict(dag, cpts, "tree")
        with pytest.raises(TypeError, match="schema"):
            bayesnet.save_bn(dag, cpts, "tree", "unused.json")

    def test_saved_file_loads_through_the_pipeline(self, rng, tmp_path):
        # the file agentsynth sample reads: the network and the schema it was
        # trained on
        schema = categorical_schema([2, 3, 2])
        codes = np.column_stack([rng.integers(0, w, size=200) for w in (2, 3, 2)])
        dag = chow_liu(codes, schema.value_counts)
        cpts = fit_cpts(dag, codes, schema.value_counts)
        (tmp_path / "models").mkdir()
        bayesnet.save_bn(dag, cpts, "tree", tmp_path / "models" / "net.json", 0.5,
                         mdl_score(dag, codes, schema.value_counts), schema=schema_to_json(schema))
        loaded_dag, loaded_cpts, loaded_schema = pipeline.load_model(
            pipeline.MethodSpec("net", "bn"), tmp_path)
        assert (loaded_dag, loaded_schema) == (dag, schema)
        assert loaded_cpts.value_counts == cpts.value_counts
        for got, want in zip(loaded_cpts.tables, cpts.tables):
            np.testing.assert_array_equal(got, want)


def _schema_doc(widths):
    return schema_to_json(categorical_schema(widths))


def _bn_document():
    codes = np.random.default_rng(9).integers(0, 3, size=(200, 3))
    dag = Dag(3, ((), (0,), (0, 1)))
    doc = bn_to_dict(dag, fit_cpts(dag, codes, (3, 3, 3)), "greedy", schema=_schema_doc([3, 3, 3]))
    return json.loads(json.dumps(doc))


def _set_cell(doc, value):
    doc["tables"][1][2][0] = value


def _negative_row(doc):
    doc["tables"][1][2] = [1.5, -0.25, -0.25]


class TestBnDocumentValidation:
    @pytest.mark.parametrize("corrupt, message", [
        (lambda doc: _set_cell(doc, float("nan")), "node 1: table entries must be finite"),
        (_negative_row, "node 1: table entries must be finite and >= 0"),
        (lambda doc: _set_cell(doc, 0.9), "node 1: table rows must sum to 1"),
        (lambda doc: doc["value_counts"].pop(), "one positive width per node"),
        (lambda doc: doc["tables"][2].pop(), r"node 2: table shape \(8, 3\) is not \(9, 3\)"),
        (lambda doc: doc["parents"].__setitem__(2, [1, 1]), "node 2: duplicate parent"),
        (lambda doc: doc["tables"].pop(), "2 tables for 3 nodes"),
        (lambda doc: doc.pop("parents"), "^a BN model document lacks 'parents'$"),
        (lambda doc: doc["tables"][1][2].pop(),
         "^node 1: table row 2 has length 2, not 3 like row 0$"),
        # values of the wrong JSON type are rejected, not coerced
        (lambda doc: doc.update(n_nodes="3"), "BN n_nodes must be an integer, got '3'"),
        (lambda doc: doc.update(n_nodes=3.0), "BN n_nodes must be an integer"),
        (lambda doc: doc["parents"][1].__setitem__(0, "0"), "BN parents must be a list of"),
        (lambda doc: doc["value_counts"].__setitem__(0, 3.0), "BN value_counts must be a list"),
        (lambda doc: doc["value_counts"].__setitem__(0, True), "BN value_counts must be a list"),
        (lambda doc: _set_cell(doc, "0.5"), "node 1: table must be a list of number lists"),
        (lambda doc: doc.update(tables={}), "BN tables must be a list"),
    ])
    def test_corrupt_document_is_data_error(self, corrupt, message):
        doc = _bn_document()
        bn_from_dict(doc)
        corrupt(doc)
        with pytest.raises(DataError, match=message):
            bn_from_dict(doc)

    @pytest.mark.parametrize("key", ["n_nodes", "parents", "value_counts", "tables"])
    def test_missing_key_is_named(self, key):
        doc = _bn_document()
        del doc[key]
        with pytest.raises(DataError, match=f"^a BN model document lacks '{key}'$"):
            bn_from_dict(doc)

    @pytest.mark.parametrize("doc", [[], "bn", None])
    def test_document_that_is_no_object_is_data_error(self, doc):
        with pytest.raises(DataError, match="a BN model document must be an object"):
            bn_from_dict(doc)

    @pytest.mark.parametrize("corrupt, message", [
        (lambda doc: doc["tables"][-1].pop(), "table shape"),
        (lambda doc: doc["tables"][0][0].__setitem__(0, float("nan")), "finite"),
    ])
    def test_cli_sample_exits_3(self, tmp_path, capsys, corrupt, message):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "seed": 3, "out_dir": str(tmp_path / "out"),
            "data": {"synthetic": {"kind": "bn-ground-truth", "size": 300, "seed": 4,
                                   "n_variables": 3, "category_width": 3}},
            "split": {"train_frac": 0.5, "val_frac_of_train": 0.2},
            "methods": [{"name": "bn", "kind": "bn", "params": {"algorithm": "exact"}}],
        }))
        assert main(["prepare", "--config", str(config)]) == 0
        assert main(["train", "--config", str(config), "--method", "bn"]) == 0
        path = tmp_path / "out" / "models" / "bn.json"
        doc = json.loads(path.read_text())
        corrupt(doc)
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["sample", "--config", str(config), "--method", "bn"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and message in err
