"""Bayesian-network population synthesis over categorical codes.

Structure learning offers three routes: the Chow-Liu maximum-spanning tree
over pairwise mutual information (quadratic), greedy hill-climbing over
single-edge additions/removals/reversals under an MDL score (polynomial),
and an exact order-based dynamic program (exponential, capped at
``EXACT_MAX_VARS`` variables). The MDL score of a DAG is the data log-likelihood under
maximum-likelihood conditionals minus (log N / 2) free parameters, the
BIC-equivalent penalty; higher is better. Fitted networks sample agents
ancestrally, parents before children.

Local scores never build a table over every parent-value combination.
Appending a parent column maps each row's combination id to the mixed-radix
cell ``id * width + value``, one multiply-add, while the id range stays at
or below the row count. Past it, each cell is replaced by its rank among the
occupied cells (one bincount and one cumsum). Both keep C order over the
parents and the range stays at most the row count, so neither table size
nor int64 overflow bounds the parent widths. The exact search also prunes:
since a log-likelihood is at most 0, a parent set S whose penalty
(log N / 2) * (D_i - 1) * prod(D_S) exceeds -score(i | {}) scores strictly
below the empty set, and so does every superset of S (de Campos & Ji,
"Efficient structure learning of Bayesian networks using constraints",
JMLR 12, 2011). The best-subset and sink dynamic programs follow Silander &
Myllymaki, "A simple approach for finding the globally optimal Bayesian
network structure", UAI 2006.

Before scoring, the exact search screens the parent sets the bound leaves.
The log-likelihood of node v given T is A(T + v) - A(T), where A(U) is the
sum of c ln c over the occupied cells of the variable set U, so each set U
is counted once (a bincount of its ids, then a lookup in a c ln c table)
rather than once per (node, set) pair. A pair is dropped only when
its approximate score, plus twice a rounding bound, is strictly below the
approximate score of one of its proper subsets: its exact score is then
strictly below that subset's, and the best-subset program could never
pick it. Only the kept pairs are scored exactly, so the programs compare
the same floats as without the screen and return the same DAG; exact ties
are kept and settled by the exact scores.

The greedy search keeps each node's parents and ancestors as int bitmasks,
recomputing the ancestors in one topological pass per applied move, and
the local score of every single-edge change in a table whose column j
depends only on j's parents, so a move rescores only the columns of the
nodes whose parents it changes (bnlearn caches scores per node the same
way: Scutari, "Learning Bayesian Networks with the bnlearn R Package",
JSS 2010). Adding i -> j is legal iff j is not an ancestor of i; reversing
i -> j iff no other parent of j has ancestor i (a path from i to such a
parent cannot use i -> j, as it would close a cycle through j).

All functions work on integer code matrices (rows x variables) with
per-variable value counts; see dataset.pool_to_codes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .dataset import (MAX_TABLE_CELLS, check_codes, code_dtype, draw_categories, read_json,
                      view_counts)
from .errors import (ConfigError, DataError, ExactSearchLimitError, read_fields, read_format,
                     read_rows)

BN_ALGORITHMS = ("tree", "greedy", "exact")
# the most variables the exact search takes: its dynamic program is
# exponential in their count
EXACT_MAX_VARS = 12


@dataclass(frozen=True)
class SearchConfig:
    """A BN method's structure search; ``max_parents`` bounds the greedy one."""

    algorithm: str = "tree"
    max_parents: int = 3

    def __post_init__(self):
        if self.algorithm not in BN_ALGORITHMS:
            raise ConfigError(f"unknown BN algorithm {self.algorithm!r}")
        if self.max_parents < 0:
            raise ConfigError("max_parents must be >= 0")

    def check_schema(self, schema) -> None:
        """ConfigError unless this search can fit a network on ``schema``:
        the conditionals are frequency tables, so numerics must be binned
        (a discretize-all schema), and the exact search takes at most
        ``EXACT_MAX_VARS`` variables."""
        if schema.mode != "discretize-all":
            raise ConfigError("the bn method needs a discretize-all schema")
        if self.algorithm == "exact":
            _check_exact_cap(schema.n_variables, EXACT_MAX_VARS)


@dataclass(frozen=True)
class Dag:
    n_nodes: int
    parents: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.parents) != self.n_nodes:
            raise DataError("parent list length does not match node count")
        for node, pa in enumerate(self.parents):
            if len(set(pa)) != len(pa):
                raise DataError(f"node {node}: duplicate parent in {list(pa)}")
            for p in pa:
                if not (0 <= p < self.n_nodes) or p == node:
                    raise DataError(f"node {node}: invalid parent {p}")
        self.topological_order()  # raises on cycles

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple((p, child) for child, pa in enumerate(self.parents) for p in pa)

    def topological_order(self) -> list[int]:
        """Kahn's algorithm; raises DataError if the graph has a cycle."""
        remaining = {node: set(pa) for node, pa in enumerate(self.parents)}
        order = []
        while remaining:
            ready = sorted(n for n, pa in remaining.items() if not pa)
            if not ready:
                raise DataError("graph contains a cycle")
            for n in ready:
                order.append(n)
                del remaining[n]
            for pa in remaining.values():
                pa.difference_update(ready)
        return order


def _check_data(codes: np.ndarray) -> np.ndarray:
    arr = np.asarray(codes)
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise DataError("need a non-empty (rows x variables) code matrix")
    return arr


def mutual_information(codes: np.ndarray, value_counts, i: int, j: int) -> float:
    """Empirical mutual information in nats from the pairwise joint."""
    arr = _check_data(codes)
    counts, _ = view_counts(arr, value_counts, [(i, j)])
    return _table_mi(counts.reshape(value_counts[i], value_counts[j]), arr.shape[0])


def _table_mi(counts: np.ndarray, n: int) -> float:
    """Mutual information in nats of a two-way table of counts over n rows."""
    joint = counts / n
    pi = joint.sum(axis=1, keepdims=True)
    pj = joint.sum(axis=0, keepdims=True)
    mask = joint > 0
    mi = float(np.sum(joint[mask] * np.log(joint[mask] / (pi @ pj)[mask])))
    return max(mi, 0.0)


def chow_liu(codes: np.ndarray, value_counts) -> Dag:
    """Maximum-spanning tree over pairwise MI, rooted at variable 0 with
    edges directed away from the root. MI ties break to the lexicographically
    lowest (i, j) edge. A single variable gets the edgeless one-node DAG."""
    arr = _check_data(codes)
    n = len(value_counts)
    if n < 2:
        return Dag(n, ((),) * n)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    counts, offsets = view_counts(arr, value_counts, pairs)
    edges = sorted((-_table_mi(table.reshape(value_counts[i], value_counts[j]), arr.shape[0]), i, j)
                   for table, (i, j) in zip(np.split(counts, offsets[1:-1]), pairs))
    # Kruskal with union-find
    root = list(range(n))

    def find(a):
        while root[a] != a:
            root[a] = root[root[a]]
            a = root[a]
        return a

    adjacency = [[] for _ in range(n)]
    picked = 0
    for _, i, j in edges:
        ri, rj = find(i), find(j)
        if ri != rj:
            root[ri] = rj
            adjacency[i].append(j)
            adjacency[j].append(i)
            picked += 1
            if picked == n - 1:
                break
    parents = [[] for _ in range(n)]
    seen = {0}
    frontier = [0]
    while frontier:
        node = frontier.pop(0)
        for nb in sorted(adjacency[node]):
            if nb not in seen:
                seen.add(nb)
                parents[nb] = [node]
                frontier.append(nb)
    return Dag(n, tuple(tuple(p) for p in parents))


class _FamilyScorer:
    """MDL local scores of one node given a parent set, counted over the
    parent-value combinations that occur in the data.

    A parent set is represented by its family: one combination id per row,
    numbering the combinations in C order over the parents in ascending
    order, and the range of the ids. Appending a parent column takes the
    mixed-radix id ``id * width + value`` while the range stays at or below
    the row count. Past it, each such id is replaced by its rank among the
    occupied cells, so the range never exceeds the row count and ids never
    overflow. Either way the occupied cells keep their C order, so the score
    is the dense-table formula evaluated over the occurring rows only, in
    the same order: the same float.
    """

    def __init__(self, arr: np.ndarray, value_counts):
        check_codes(arr, value_counts)
        self.widths = [int(w) for w in value_counts]
        self.columns = np.ascontiguousarray(arr.T, dtype=np.int64)
        self.n_rows = arr.shape[0]
        half_log_n = 0.5 * np.log(self.n_rows)
        # (log N / 2) * (D_i - 1); times prod(D_parents) gives the penalty
        self.unit_penalty = [half_log_n * (w - 1) for w in self.widths]
        self.empty = (np.zeros(self.n_rows, dtype=np.int64), 1)

    def extend(self, family: tuple, parent: int) -> tuple:
        """Ids and id range of the parent set plus ``parent``, which must
        exceed every parent already in the set."""
        ids, size = family
        width = self.widths[parent]
        cells = ids * width + self.columns[parent]
        if size * width <= self.n_rows:
            return cells, size * width
        rank = np.cumsum(np.bincount(cells) > 0) - 1
        return rank[cells], int(rank[-1]) + 1

    def score(self, node: int, family: tuple, n_combos: int) -> float:
        """ML log-likelihood of ``node`` given the parent set, minus the
        (log N / 2) * (D_i - 1) * prod(D_parents) complexity penalty."""
        ids, size = family
        width = self.widths[node]
        counts = np.bincount(ids * width + self.columns[node], minlength=size * width)
        seen = counts.nonzero()[0]
        observed = counts[seen]
        totals = counts.reshape(size, width).sum(axis=1)
        ll = float((observed * np.log(observed / totals[seen // width])).sum())
        return ll - self.unit_penalty[node] * n_combos

    def family(self, parents: tuple[int, ...]) -> tuple:
        """Ids and id range of ``parents`` in ascending order."""
        family = self.empty
        for p in parents:
            family = self.extend(family, p)
        return family

    def local(self, node: int, parents: tuple[int, ...]) -> float:
        """Score of ``node`` given ``parents`` in ascending order."""
        return self.score(node, self.family(parents),
                          math.prod(self.widths[p] for p in parents))


def mdl_score(dag: Dag, codes: np.ndarray, value_counts) -> float:
    """MDL score of the whole structure; higher is better."""
    scorer = _FamilyScorer(_check_data(codes), value_counts)
    return sum(scorer.local(node, tuple(sorted(dag.parents[node])))
               for node in range(dag.n_nodes))


def _members(mask: int) -> tuple[int, ...]:
    """The nodes of a bitmask, ascending."""
    nodes = []
    while mask:
        low = mask & -mask
        nodes.append(low.bit_length() - 1)
        mask ^= low
    return tuple(nodes)


def _ancestor_masks(parents: list[int]) -> list[int]:
    """Each node's ancestor mask from the parent masks, in topological order:
    a node is settled once its parents are, at least one per sweep of a DAG."""
    ancestors, settled = list(parents), 0
    for _ in parents:
        for node, pa in enumerate(parents):
            if not (settled >> node) & 1 and not pa & ~settled:
                for p in _members(pa):
                    ancestors[node] |= ancestors[p]
                settled |= 1 << node
        if settled == (1 << len(parents)) - 1:
            break
    return ancestors


def _bit_matrix(masks: list[int], n: int) -> np.ndarray:
    """Boolean (len(masks), n) matrix whose [a, b] entry is bit b of masks[a]."""
    n_bytes = (n + 7) // 8
    raw = np.frombuffer(b"".join(m.to_bytes(n_bytes, "little") for m in masks), dtype=np.uint8)
    return np.unpackbits(raw.reshape(len(masks), n_bytes), axis=1, count=n,
                         bitorder="little").view(bool)


def greedy_search(codes: np.ndarray, value_counts, max_parents: int | None = None) -> Dag:
    """Hill-climbing from the empty graph over single-edge additions,
    removals, and reversals, keeping acyclicity, until no move improves the
    MDL score by more than 1e-9. Of equal best gains the first in the order
    (i, j, then removal before reversal) wins, so ties are deterministic.

    The search keeps a move-gain table: ``toggled[i, j]`` is the local score
    of j with the edge i -> j toggled, scored when a legal move first needs
    it, and ``base[j]`` that of j's current parents. A move changes the
    parents of j, and of i for a reversal, so only those columns are
    rescored; local scores are cached by (node, parent mask). Each round
    derives every move's gain and legality as (n, n) arrays and picks the
    best with one argmax over the (i, j, op) stack, illegal moves at
    -inf."""
    arr = _check_data(codes)
    n = len(value_counts)
    limit = n if max_parents is None else max_parents  # a node has at most n - 1 parents
    scorer = _FamilyScorer(arr, value_counts)
    if n < 2:
        return Dag(n, ((),) * n)
    cache: dict = {}

    def local(node, mask):
        if (node, mask) not in cache:
            cache[node, mask] = scorer.local(node, _members(mask))
        return cache[node, mask]

    parents, ancestors = [0] * n, [0] * n
    base = np.array([local(j, 0) for j in range(n)])
    toggled = np.full((n, n), np.nan)  # scored once a legal move needs it
    while True:
        is_parent = _bit_matrix(parents, n).T  # [i, j]: i -> j
        is_ancestor = _bit_matrix(ancestors, n)  # [a, b]: b is an ancestor of a
        not_full = is_parent.sum(axis=0) < limit  # [j]: j may gain a parent
        # [i, j]: i is an ancestor of a parent of j
        upstream = (is_ancestor.T.astype(float) @ is_parent.astype(float)) > 0
        single_ok = is_parent | (~is_ancestor & not_full & ~np.eye(n, dtype=bool))
        reverse = is_parent & ~upstream & not_full[:, None]
        # a reversal of i -> j also reads the addition of j -> i
        for i, j in np.argwhere((single_ok | reverse.T) & np.isnan(toggled)).tolist():
            toggled[i, j] = local(j, parents[j] ^ 1 << i)
        single = toggled - base  # addition or removal
        gains = np.stack([np.where(single_ok, single, -np.inf),
                          np.where(reverse, (single + toggled.T) - base[:, None], -np.inf)],
                         axis=2)
        best = int(np.argmax(gains))
        if not gains.flat[best] > 1e-9:
            return Dag(n, tuple(map(_members, parents)))
        i, j, op = map(int, np.unravel_index(best, gains.shape))
        parents[j] ^= 1 << i
        changed = (j,)
        if op:  # reversal: j -> i
            parents[i] |= 1 << j
            changed = (j, i)
        for c in changed:
            base[c], toggled[:, c] = local(c, parents[c]), np.nan
        ancestors = _ancestor_masks(parents)


def _candidates(scorer: _FamilyScorer, empty_scores: np.ndarray) -> np.ndarray:
    """The (node, parent set) pairs, as an (n, 2^n) boolean mask over node
    and set bitmask, that the pruning bound and the screen leave to be
    scored exactly; the empty set, already scored, is not among them.

    Parent sets are visited depth-first, each extending its prefix's
    combination ids by one column. A node's score given S is at most
    -penalty(S), since the log-likelihood is at most 0, so once penalty(S)
    exceeds -score(node | {}) that set and all its supersets score strictly
    below the empty set and are never picked (de Campos & Ji, JMLR 12,
    2011); they are never counted, and a subtree with no node left to score
    is skipped. A set visited for a node of width D >= 2 has at most
    1 + 2N ln D / ((D - 1) ln N) combinations, fewer than the N rows unless
    N is a handful, so its ids stay raw and extending them is one
    multiply-add; only width-1 nodes, whose penalty is 0, keep larger sets
    open. For each other pair the pass counts A(U) once per needed set U,
    most of them as the joint T + v of a set visited before, and
    approximates the score as A(T + v) - A(T) - penalty (see the module
    docstring)."""
    widths, unit_penalty, columns = scorer.widths, scorer.unit_penalty, scorer.columns
    n, n_rows = len(widths), scorer.n_rows
    bound = (-empty_scores).tolist()
    cells = np.arange(n_rows + 1)
    xlogx = cells * np.log(np.maximum(cells, 1))  # c ln c, 0 at c = 0
    entropy = [None] * (1 << n)  # A(U) of the sets counted so far
    approx = np.full((n, 1 << n), -np.inf)  # node x parent set
    approx[:, 0] = empty_scores  # exact, and no proper subset to beat

    def visit(mask: int, family: tuple, n_combos: int, first: int) -> None:
        for u in range(first, n):
            sub, sub_combos = mask | (1 << u), n_combos * widths[u]
            children = [v for v in range(n) if not (sub >> v) & 1
                        and unit_penalty[v] * sub_combos <= bound[v]]
            if not children:
                continue
            sub_family = scorer.extend(family, u)
            ids = sub_family[0]
            if entropy[sub] is None:
                entropy[sub] = float(xlogx[np.bincount(ids)].sum())
            for v in children:
                joint = sub | (1 << v)
                if entropy[joint] is None:
                    entropy[joint] = float(xlogx[np.bincount(ids * widths[v] + columns[v])].sum())
                approx[v, sub] = entropy[joint] - entropy[sub] - unit_penalty[v] * sub_combos
            visit(sub, sub_family, sub_combos, u + 1)

    visit(0, scorer.empty, 1, 0)
    # Rounding bound, u the unit roundoff and N the row count. Each A and
    # each log-likelihood is a sum of at most N nonzero terms c ln c or
    # c ln(c / c_parent) whose magnitudes add up to at most N ln N, and any
    # zero terms of empty cells add exactly; summed in any order, with a
    # few ulp of rounding per term, it errs by at most
    # about (N + 4) u N ln N. An approximate score rounds two such sums and
    # their difference, an exact score one sum, and both subtract the same
    # penalty float, at most bound[v] for a counted set, rounding once
    # more. So |approx - exact| is below eps with a wide margin, which also
    # covers rounding approx + 2 eps.
    unit_roundoff = np.finfo(float).eps / 2
    eps = 64 * unit_roundoff * (n_rows * (n_rows * np.log(n_rows) + 1) + np.array(bound))
    # the best approximation over all subsets of each set, one bit at a
    # time; entries for sets that hold their node are never read
    subset_best = approx.copy()
    for b in range(n):
        halves = subset_best.reshape(n, -1, 2, 1 << b)
        np.maximum(halves[:, :, 1], halves[:, :, 0], out=halves[:, :, 1])
    # keep a counted pair unless a proper subset's approximation exceeds its
    # own by more than 2 eps, making its exact score strictly below that
    # subset's. Exact ties, such as a width-1 node's or duplicated
    # columns', are kept and settled by the exact scores.
    keep = np.isfinite(approx) & (approx + 2 * eps[:, None] >= subset_best)
    keep[:, 0] = False
    return keep


def _check_exact_cap(n_variables: int, max_vars: int) -> None:
    if n_variables > max_vars:
        raise ExactSearchLimitError(f"{n_variables} variables exceed the exact-search cap "
                                    f"of {max_vars}; use greedy_search")


def exact_search(codes: np.ndarray, value_counts, max_vars: int = EXACT_MAX_VARS) -> Dag:
    """Globally MDL-optimal DAG by dynamic programming over variable subsets
    (Silander & Myllymaki, UAI 2006).

    Only the (node, parent set) pairs that :func:`_candidates` leaves are
    scored exactly: a pruned pair scores strictly below the empty set, and
    a screened-out pair provably strictly below one of its proper subsets,
    so neither is ever the best parent set within any set, and both enter
    the best-subset DP as -inf. Exponential in the variable count, hence
    the cap; above it, greedy_search is the intended route.
    """
    arr = _check_data(codes)
    n = len(value_counts)
    _check_exact_cap(n, max_vars)
    scorer = _FamilyScorer(arr, value_counts)
    local = np.full((n, 1 << n), -np.inf)  # node x parent set
    local[:, 0] = [scorer.score(v, scorer.empty, 1) for v in range(n)]
    keep = _candidates(scorer, local[:, 0])
    for sub in np.flatnonzero(keep.any(axis=0)).tolist():
        pa = _members(sub)
        family, n_combos = scorer.family(pa), math.prod(scorer.widths[p] for p in pa)
        for v in np.flatnonzero(keep[:, sub]).tolist():
            local[v, sub] = scorer.score(v, family, n_combos)
    # one pass over set sizes, each level settled from the one below: first
    # the best parent set within each k-set of every node outside it, in
    # place of its local score (the set itself unless a (k-1)-subset is
    # strictly better, the first in ascending order of the element it
    # drops), then each k-set's best network and its sink (the first best
    # node in ascending order). A node's entries for sets that hold it are
    # never read, so they are not filled.
    masks = np.arange(1 << n)
    inside = ((masks[:, None] >> np.arange(n)) & 1).astype(bool)
    size = inside.sum(axis=1)
    chosen = np.tile(masks, (n, 1))  # node x set: the best parent set within it
    best, sink = np.zeros(1 << n), np.zeros(1 << n, dtype=np.intp)
    for k in range(1, n + 1):
        level = np.flatnonzero(size == k)
        members = np.nonzero(inside[level])[1].reshape(-1, k)
        outside = np.nonzero(~inside[level])[1].reshape(len(level), n - k)
        rest = level[:, None] ^ (1 << members)
        sets = np.column_stack([level, rest])
        pick = local[outside[:, :, None], sets[:, None, :]].argmax(axis=2)
        source = np.take_along_axis(sets, pick, axis=1)
        local[outside, level[:, None]] = local[outside, source]
        chosen[outside, level[:, None]] = chosen[outside, source]
        value = best[rest] + local[members, rest]
        top = (np.arange(len(level)), value.argmax(axis=1))
        best[level], sink[level] = value[top], members[top]
    parents = [()] * n
    mask = (1 << n) - 1
    while mask:
        v = int(sink[mask])
        mask ^= 1 << v
        parents[v] = _members(int(chosen[v, mask]))
    return Dag(n, tuple(parents))


@dataclass(frozen=True)
class CptSet:
    """Conditional probability tables aligned with a DAG.

    ``tables[node]`` has one row per parent-value combination (C-order over
    the parents as listed) and one column per node value. Observed
    combinations carry maximum-likelihood estimates; combinations never seen
    in training get the uniform fallback so ancestral sampling cannot
    dead-end.
    """

    value_counts: tuple[int, ...]
    parents: tuple[tuple[int, ...], ...]
    tables: tuple[np.ndarray, ...]


def fit_cpts(dag: Dag, codes: np.ndarray, value_counts) -> CptSet:
    arr = _check_data(codes)
    tables = []
    for node in range(dag.n_nodes):
        pa = dag.parents[node]
        width = value_counts[node]
        n_combos = math.prod(value_counts[p] for p in pa)
        if n_combos * width > MAX_TABLE_CELLS:
            raise DataError(f"node {node}: conditional table too large ({n_combos} x {width})")
        counts = view_counts(arr, value_counts, [(*pa, node)])[0].reshape(n_combos, width)
        totals = counts.sum(axis=1, keepdims=True)
        probs = np.empty(counts.shape)
        seen = totals[:, 0] > 0
        probs[seen] = counts[seen] / totals[seen]
        probs[~seen] = 1.0 / width
        tables.append(probs)
    return CptSet(tuple(value_counts), dag.parents, tuple(tables))


def ancestral_sample(dag: Dag, cpts: CptSet, count: int, rng_or_seed) -> np.ndarray:
    """Sample agent codes parent-first along a topological order, in the
    value counts' :func:`~agentsynth.dataset.code_dtype`."""
    rng = np.random.default_rng(rng_or_seed)
    n = dag.n_nodes
    codes = np.zeros((count, n), dtype=code_dtype(cpts.value_counts))
    if count == 0:
        return codes
    for node in dag.topological_order():
        pa = dag.parents[node]
        table = cpts.tables[node]
        combo = np.ravel_multi_index([codes[:, p] for p in pa],
                                     [cpts.value_counts[p] for p in pa]) if pa else 0
        codes[:, node] = draw_categories(table[combo], rng.random(count))
    return codes


def bn_to_dict(dag: Dag, cpts: CptSet, algorithm: str, runtime_seconds: float | None = None,
               mdl: float | None = None, *, schema: dict) -> dict:
    """JSON document of a fitted network; ``mdl`` is the DAG's MDL score on
    its training codes, when known, and ``schema`` the JSON document of the
    schema the codes follow (:func:`dataset.schema_to_json`), which
    ``agentsynth sample`` checks the network against."""
    return {
        "format": "agentsynth-bn",
        "version": 1,
        "n_nodes": dag.n_nodes,
        "value_counts": list(cpts.value_counts),
        "parents": [list(p) for p in dag.parents],
        "tables": [t.tolist() for t in cpts.tables],
        "algorithm": algorithm,
        "runtime_seconds": runtime_seconds,
        "mdl_score": None if mdl is None else float(mdl),
        "n_edges": len(dag.edges),
        "schema": schema,
    }


def bn_from_dict(doc: dict) -> tuple[Dag, CptSet]:
    """Network from a JSON document, checked so that it can sample: one
    positive width per node, one table of shape (prod parent widths, width)
    per node, and finite non-negative rows that sum to 1; every value must
    have its JSON type."""
    read_format(doc, "agentsynth-bn", "a BN model document")
    n_nodes, parents, value_counts, tables = read_fields(doc, {
        "n_nodes": "an integer", "parents": "a list of integer lists",
        "value_counts": "a list of integers", "tables": "a list"}, "a BN model document", "BN ")
    dag = Dag(n_nodes, tuple(map(tuple, parents)))
    tables = tuple(np.asarray(read_rows(t, f"node {node}: table"), dtype=float)
                   for node, t in enumerate(tables))
    if len(value_counts) != dag.n_nodes or min(value_counts, default=1) < 1:
        raise DataError(f"value_counts {value_counts} must hold one positive width "
                        f"per node ({dag.n_nodes})")
    if len(tables) != dag.n_nodes:
        raise DataError(f"{len(tables)} tables for {dag.n_nodes} nodes")
    for node, table in enumerate(tables):
        shape = (math.prod(value_counts[p] for p in dag.parents[node]), value_counts[node])
        if table.shape != shape:
            raise DataError(f"node {node}: table shape {table.shape} is not {shape}")
        if not np.all(np.isfinite(table) & (table >= 0)):
            raise DataError(f"node {node}: table entries must be finite and >= 0")
        if np.any(np.abs(table.sum(axis=1) - 1.0) > 1e-9):
            raise DataError(f"node {node}: table rows must sum to 1")
    return dag, CptSet(tuple(value_counts), dag.parents, tables)


def save_bn(dag: Dag, cpts: CptSet, algorithm: str, path, runtime_seconds: float | None = None,
            mdl: float | None = None, *, schema: dict) -> None:
    with open(path, "w") as fh:
        json.dump(bn_to_dict(dag, cpts, algorithm, runtime_seconds, mdl, schema=schema), fh)


def load_bn(path) -> tuple[Dag, CptSet]:
    return bn_from_dict(read_json(path))
