"""Bayesian-network population synthesis over categorical codes.

Structure learning offers three routes: the Chow-Liu maximum-spanning tree
over pairwise mutual information (quadratic), greedy hill-climbing over
single-edge additions/removals/reversals under an MDL score (polynomial),
and an exact order-based dynamic program (exponential, capped at a small
variable count). The MDL score of a DAG is the data log-likelihood under
maximum-likelihood conditionals minus (log N / 2) free parameters, the
BIC-equivalent penalty; higher is better. Fitted networks sample agents
ancestrally, parents before children.

Local scores never build a table over every parent-value combination. The
rows' combination ids are compacted as each parent column is appended: the
cell ``id * width + value`` is replaced by its rank among the occupied
cells (one bincount and one cumsum), which keeps C order over the parents
and stays below the row count, so neither table size nor int64 overflow
bounds the parent widths. The exact search also prunes: since a
log-likelihood is at most 0, a parent set S whose penalty
(log N / 2) * (D_i - 1) * prod(D_S) exceeds -score(i | {}) scores strictly
below the empty set, and so does every superset of S (de Campos & Ji,
"Efficient structure learning of Bayesian networks using constraints",
JMLR 12, 2011). The best-subset and sink dynamic programs follow Silander &
Myllymaki, "A simple approach for finding the globally optimal Bayesian
network structure", UAI 2006.

All functions work on integer code matrices (rows x variables) with
per-variable value counts; see dataset.pool_to_codes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .dataset import read_json
from .errors import DataError, ExactSearchLimitError

MAX_TABLE_CELLS = 1 << 22  # guard on materialized CPT size


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
    arr = np.asarray(codes, dtype=np.int64)
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise DataError("need a non-empty (rows x variables) code matrix")
    return arr


def mutual_information(codes: np.ndarray, value_counts, i: int, j: int) -> float:
    """Empirical mutual information in nats from the pairwise joint."""
    arr = _check_data(codes)
    n = arr.shape[0]
    joint = np.zeros((value_counts[i], value_counts[j]))
    np.add.at(joint, (arr[:, i], arr[:, j]), 1.0)
    joint /= n
    pi = joint.sum(axis=1, keepdims=True)
    pj = joint.sum(axis=0, keepdims=True)
    mask = joint > 0
    mi = float(np.sum(joint[mask] * np.log(joint[mask] / (pi @ pj)[mask])))
    return max(mi, 0.0)


def chow_liu(codes: np.ndarray, value_counts) -> Dag:
    """Maximum-spanning tree over pairwise MI, rooted at variable 0 with
    edges directed away from the root. MI ties break to the lexicographically
    lowest (i, j) edge."""
    arr = _check_data(codes)
    n = len(value_counts)
    if n < 2:
        raise DataError("Chow-Liu needs at least 2 variables")
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            edges.append((-mutual_information(arr, value_counts, i, j), i, j))
    edges.sort()
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

    A parent set is represented by compact combination ids: one id per row,
    numbering the occurring combinations in C order over the parents in
    ascending order, plus each combination's row count. Appending a parent
    column maps ``id * width + value`` to its rank among the occurring
    cells, so ids stay below the row count and never overflow. The score is
    the dense-table formula evaluated over the occurring rows only, in the
    same order, so it is the same float.
    """

    def __init__(self, arr: np.ndarray, value_counts):
        self.widths = [int(w) for w in value_counts]
        if len(self.widths) != arr.shape[1]:
            raise DataError(f"{arr.shape[1]} code columns but {len(self.widths)} value counts")
        for node, (col, width) in enumerate(zip(arr.T, self.widths)):
            if col.min() < 0 or col.max() >= width:
                raise DataError(f"node {node}: codes outside [0, {width})")
        self.columns = np.ascontiguousarray(arr.T)
        n_rows = arr.shape[0]
        half_log_n = 0.5 * np.log(n_rows)
        # (log N / 2) * (D_i - 1); times prod(D_parents) gives the penalty
        self.unit_penalty = [half_log_n * (w - 1) for w in self.widths]
        self.empty = (np.zeros(n_rows, dtype=np.int64), np.array([n_rows]))

    def extend(self, family: tuple, parent: int) -> tuple:
        """Compact ids and row counts of the parent set plus ``parent``,
        which must exceed every parent already in the set."""
        ids, _ = family
        cells = ids * self.widths[parent] + self.columns[parent]
        counts = np.bincount(cells)
        occupied = counts > 0
        return (np.cumsum(occupied) - 1)[cells], counts[occupied]

    def score(self, node: int, family: tuple, n_combos: int) -> float:
        """ML log-likelihood of ``node`` given the parent set, minus the
        (log N / 2) * (D_i - 1) * prod(D_parents) complexity penalty."""
        ids, totals = family
        width = self.widths[node]
        counts = np.bincount(ids * width + self.columns[node])
        seen = np.flatnonzero(counts)
        observed = counts[seen]
        ll = float(np.sum(observed * np.log(observed / totals[seen // width])))
        return ll - self.unit_penalty[node] * n_combos

    def local(self, node: int, parents: tuple[int, ...]) -> float:
        """Score of ``node`` given ``parents`` in ascending order."""
        family = self.empty
        for p in parents:
            family = self.extend(family, p)
        return self.score(node, family, math.prod(self.widths[p] for p in parents))


def mdl_score(dag: Dag, codes: np.ndarray, value_counts) -> float:
    """MDL score of the whole structure; higher is better."""
    scorer = _FamilyScorer(_check_data(codes), value_counts)
    return sum(scorer.local(node, tuple(sorted(dag.parents[node])))
               for node in range(dag.n_nodes))


def _reaches(parents: list[set[int]], start: int, goal: int) -> bool:
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


def greedy_search(codes: np.ndarray, value_counts, max_parents: int | None = None) -> Dag:
    """Hill-climbing from the empty graph over single-edge additions,
    removals, and reversals, keeping acyclicity, until no move improves the
    MDL score. Move enumeration order is fixed, so ties are deterministic."""
    arr = _check_data(codes)
    n = len(value_counts)
    parents: list[set[int]] = [set() for _ in range(n)]
    scorer = _FamilyScorer(arr, value_counts)
    cache: dict = {}

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
                    # addition i -> j; a path j ~> i would make it a cycle
                    if max_parents is not None and len(parents[j]) >= max_parents:
                        continue
                    if _reaches(parents, j, i):
                        continue
                    gain = local(j, parents[j] | {i}) - local(j, parents[j])
                    if gain > best_gain:
                        best_gain = gain
                        best_apply = ("add", i, j)
                else:
                    # removal of i -> j
                    gain = local(j, parents[j] - {i}) - local(j, parents[j])
                    if gain > best_gain:
                        best_gain = gain
                        best_apply = ("remove", i, j)
                    # reversal i -> j  becomes  j -> i
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
            improved = True
    return Dag(n, tuple(tuple(sorted(p)) for p in parents))


def exact_search(codes: np.ndarray, value_counts, max_vars: int = 12) -> Dag:
    """Globally MDL-optimal DAG by dynamic programming over variable subsets
    (Silander & Myllymaki, UAI 2006).

    Parent sets are visited depth-first, each extending its prefix's compact
    combination ids by one column, and every node outside a set is scored
    against it. A node's score given S is at most -penalty(S), since the
    log-likelihood is at most 0, so once penalty(S) exceeds -score(node | {})
    that set and all its supersets score strictly below the empty set and
    are never picked (de Campos & Ji, JMLR 12, 2011). Such sets enter the
    best-subset DP as -inf and are never counted; a subtree with no node
    left to score is skipped. Exponential in the variable count, hence the
    cap; above it, greedy_search is the intended route.
    """
    arr = _check_data(codes)
    n = len(value_counts)
    if n > max_vars:
        raise ExactSearchLimitError(
            f"{n} variables exceed the exact-search cap of {max_vars}; use greedy_search")
    scorer = _FamilyScorer(arr, value_counts)
    widths, unit_penalty = scorer.widths, scorer.unit_penalty
    full = (1 << n) - 1
    local = [[-math.inf] * (1 << n) for _ in range(n)]
    for v in range(n):
        local[v][0] = scorer.score(v, scorer.empty, 1)
    bound = [-local[v][0] for v in range(n)]

    def visit(mask: int, family: tuple, n_combos: int, first: int) -> None:
        for u in range(first, n):
            sub, sub_combos = mask | (1 << u), n_combos * widths[u]
            children = [v for v in range(n) if not (sub >> v) & 1
                        and unit_penalty[v] * sub_combos <= bound[v]]
            if not children:
                continue
            sub_family = scorer.extend(family, u)
            for v in children:
                local[v][sub] = scorer.score(v, sub_family, sub_combos)
            visit(sub, sub_family, sub_combos, u + 1)

    visit(0, scorer.empty, 1, 0)
    # best parent set within each candidate set: subsets are enumerated in
    # ascending order, so every proper subset is settled before the set;
    # a strictly better subset replaces the set, scanned by ascending bit
    best_ps_score: list[list[float]] = []
    best_ps_mask: list[list[int]] = []
    for v in range(n):
        others_mask = full ^ (1 << v)
        score, chosen = local[v], list(range(full + 1))
        mask = 0
        while True:
            bits = mask
            while bits:
                prev = mask ^ (bits & -bits)
                if score[prev] > score[mask]:
                    score[mask], chosen[mask] = score[prev], chosen[prev]
                bits &= bits - 1
            if mask == others_mask:
                break
            mask = (mask - others_mask) & others_mask
        best_ps_score.append(score)
        best_ps_mask.append(chosen)
    # assemble sinks over growing subsets
    best: dict[int, float] = {0: 0.0}
    pick: dict[int, tuple[int, int]] = {}
    for mask in range(1, full + 1):
        top, top_pair = None, None
        for v in range(n):
            if not (mask >> v) & 1:
                continue
            rest = mask ^ (1 << v)  # rest never contains v
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
        parent_widths = [value_counts[p] for p in pa]
        n_combos = int(np.prod(parent_widths)) if pa else 1
        if n_combos * width > MAX_TABLE_CELLS:
            raise DataError(f"node {node}: conditional table too large ({n_combos} x {width})")
        counts = np.zeros((n_combos, width))
        if pa:
            combo = np.ravel_multi_index([arr[:, p] for p in pa], parent_widths)
        else:
            combo = np.zeros(arr.shape[0], dtype=np.int64)
        np.add.at(counts, (combo, arr[:, node]), 1.0)
        totals = counts.sum(axis=1, keepdims=True)
        probs = np.empty_like(counts)
        seen = totals[:, 0] > 0
        probs[seen] = counts[seen] / totals[seen]
        probs[~seen] = 1.0 / width
        tables.append(probs)
    return CptSet(tuple(value_counts), dag.parents, tuple(tables))


def ancestral_sample(dag: Dag, cpts: CptSet, count: int, rng_or_seed) -> np.ndarray:
    """Sample agent codes parent-first along a topological order."""
    rng = rng_or_seed if isinstance(rng_or_seed, np.random.Generator) \
        else np.random.default_rng(rng_or_seed)
    n = dag.n_nodes
    codes = np.zeros((count, n), dtype=np.int64)
    if count == 0:
        return codes
    for node in dag.topological_order():
        pa = dag.parents[node]
        table = cpts.tables[node]
        if pa:
            parent_widths = [cpts.value_counts[p] for p in pa]
            combo = np.ravel_multi_index([codes[:, p] for p in pa], parent_widths)
            rows = table[combo]
        else:
            rows = np.broadcast_to(table[0], (count, table.shape[1]))
        cum = np.cumsum(rows, axis=1)
        u = rng.random((count, 1)) * cum[:, -1:]
        codes[:, node] = np.minimum((u > cum).sum(axis=1), table.shape[1] - 1)
    return codes


def joint_distribution(dag: Dag, cpts: CptSet) -> np.ndarray:
    """Exact joint over the full product space, for small variable counts."""
    counts = cpts.value_counts
    size = int(np.prod(counts))
    if size > MAX_TABLE_CELLS:
        raise DataError(f"joint of {size} cells is too large to enumerate")
    joint = np.zeros(counts)
    for combo in np.ndindex(*counts):
        p = 1.0
        for node in range(dag.n_nodes):
            pa = dag.parents[node]
            if pa:
                parent_widths = [counts[q] for q in pa]
                row = int(np.ravel_multi_index([np.array([combo[q]]) for q in pa],
                                               parent_widths)[0])
            else:
                row = 0
            p *= cpts.tables[node][row, combo[node]]
        joint[combo] = p
    return joint


def bn_to_dict(dag: Dag, cpts: CptSet, algorithm: str,
               runtime_seconds: float | None = None, mdl: float | None = None) -> dict:
    """JSON document of a fitted network; ``mdl`` is the DAG's MDL score on
    its training codes, when known."""
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
    }


def bn_from_dict(doc: dict) -> tuple[Dag, CptSet]:
    """Network from a JSON document, checked so that it can sample: one
    positive width per node, one table of shape (prod parent widths, width)
    per node, and finite non-negative rows that sum to 1."""
    if doc.get("format") != "agentsynth-bn":
        raise DataError(f"not a BN model document: {doc.get('format')!r}")
    try:
        dag = Dag(int(doc["n_nodes"]), tuple(tuple(int(p) for p in pa) for pa in doc["parents"]))
        value_counts = tuple(int(w) for w in doc["value_counts"])
        tables = tuple(np.asarray(t, dtype=float) for t in doc["tables"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed BN model document: {exc!r}") from None
    if len(value_counts) != dag.n_nodes or min(value_counts, default=1) < 1:
        raise DataError(f"value_counts {list(value_counts)} must hold one positive width "
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
    return dag, CptSet(value_counts, dag.parents, tables)


def save_bn(dag: Dag, cpts: CptSet, algorithm: str, path,
            runtime_seconds: float | None = None, mdl: float | None = None) -> None:
    with open(path, "w") as fh:
        json.dump(bn_to_dict(dag, cpts, algorithm, runtime_seconds, mdl), fh)


def load_bn(path) -> tuple[Dag, CptSet]:
    return bn_from_dict(read_json(path))
