"""Gibbs sampler with frequency-table full conditionals.

The conditionals P(x_i | x_-i) are estimated as frequency tables straight
from the training pool: for each variable, every context (the values of
all other variables) observed in training maps to a probability vector
proportional to the observed counts. A chain started from a training row
can only ever visit training rows, because any value with positive
conditional probability completes its context into an observed row. That
makes the sampler a pure replicator on fully categorical data, and it can
get trapped on probability islands: contexts with a point-mass conditional
never let the chain leave.

:func:`run_chain` uses that fact. Its state is an index into the unique
training rows; for each variable every unique row belongs to a context
group (the rows equal to it on all other variables), and one update is a
bisection into the group's cumulative conditional that lands directly on
the next row index. An update whose group is a point mass keeps the row,
so the chain visits only the updates that can move and reads each one's
uniform by its position in the block of draws. The chain estimates its
conditionals on that same index (:meth:`ContextGroups.conditional`), so
every value it can draw completes a training row. The start must be a
training row; anything else is a DataError. :func:`estimate_conditionals`
gives the same conditionals as tuple-keyed tables, which the tests' one-scan
reference chain looks rows up in. The context groups also give the
probability islands: connected components of the unique training rows,
two rows being linked when they share a context group. Diagnostics report
how many islands there are and how many rows the chain's starting island
holds.

Mixed schemas are handled by discretizing numerics with the schema bins
before table estimation; emitted bin draws become bin-uniform raw values.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .dataset import AgentPool, codes_to_pool, distinct_rows, pool_to_codes
from .errors import ConfigError, DataError, read_fields, read_format

# Uniforms drawn per generator call in the chain. Each block is a list of
# Python floats, and the memory they free stays with the interpreter's
# allocator: 65,536 draws raised a 10,000-row chain's traced peak to
# 4.8 MB, 4,096 draws hold it near 0.4 MB. One generator call per 4,096
# draws is still a small cost next to the bisections they feed.
UNIFORM_BLOCK = 4096


@dataclass(frozen=True)
class ConditionalTable:
    """Full conditional for one variable: context tuple -> probabilities."""

    target: int
    table: dict[tuple, np.ndarray]


@dataclass(frozen=True)
class ChainConfig:
    target_count: int = 0  # set per draw: a Gibbs model file leaves it out
    warmup: int = 20000
    thinning: int = 20
    init: str | tuple = "random-from-train"
    seed: int = 0

    def __post_init__(self):
        if self.warmup < 0:
            raise ConfigError("warmup must be >= 0")
        if self.thinning < 1:
            raise ConfigError("thinning must be >= 1")
        if self.target_count < 0:
            raise ConfigError("target_count must be >= 0")


@dataclass(frozen=True)
class ContextGroups:
    """The unique rows of a code matrix and, per variable, their context groups.

    ``groups[i][r]`` is the group of unique row ``r`` for variable ``i``:
    rows share a group when they are equal on every column but ``i``.
    ``n_groups[i]`` is the number of variable ``i``'s groups; group ``g``'s
    context is any of its rows with column ``i`` removed.
    """

    rows: np.ndarray
    counts: np.ndarray
    groups: list[np.ndarray]
    n_groups: list[int]

    @classmethod
    def from_codes(cls, codes: np.ndarray) -> ContextGroups:
        rows, row_ids = distinct_rows(codes)
        groups, n_groups = [], []
        for i in range(rows.shape[1]):
            contexts, group = distinct_rows(np.delete(rows, i, axis=1))
            groups.append(group)
            n_groups.append(len(contexts))
        return cls(rows, np.bincount(row_ids), groups, n_groups)

    def contexts(self, i: int) -> np.ndarray:
        """Variable ``i``'s context of every group, in group order: the
        group's first row with column ``i`` removed."""
        first = np.unique(self.groups[i], return_index=True)[1]
        return np.delete(self.rows[first], i, axis=1)

    def island_labels(self) -> np.ndarray:
        """Per unique row, the smallest row index of its probability island."""
        n = len(self.rows)
        labels = np.arange(n)
        while True:
            before = labels
            for group in self.groups:
                low = np.full(n, n)
                np.minimum.at(low, group, labels)
                labels = low[group]
            # each label names a row of the same island with a smaller or
            # equal index, so following labels twice stays in the island
            labels = labels[labels]
            if np.array_equal(labels, before):
                return labels

    def conditional(self, i: int, width: int) -> np.ndarray:
        """Variable ``i``'s full conditional per context group: row ``g`` is
        the normalized training counts of group ``g`` over column ``i``."""
        n_groups = self.n_groups[i]
        counts = np.bincount(self.groups[i] * width + self.rows[:, i], weights=self.counts,
                             minlength=n_groups * width).reshape(n_groups, width)
        return counts / counts.sum(axis=1, keepdims=True)

    def transitions(self, widths) -> tuple[list[list], list]:
        """Every variable's moves and the chain's start offsets, each a
        sequence indexed by unique row.

        A row's offset is how many updates ahead, in scan order from
        variable 0, its first update that can move comes: the first
        variable whose context group for the row is not a point mass,
        ``math.inf`` when no variable's is (the row is absorbing). Its
        move at ``i`` is None for a point-mass group, whose update keeps
        the row; otherwise ``(cum, nxt, skip, then)``, the group's
        cumulative conditional and, per bisection result into it, the
        unique row it lands on, the updates from this one to that row's
        next movable update (``1 +`` the count ahead from ``i + 1``) and
        that update's variable.

        A draw at or past the rounded total (bisection result equal to the
        width) lands where the last value with positive probability does.
        """
        n, m = len(self.rows), len(self.groups)
        moves, movable = [], np.zeros((2 * m, n), dtype=bool)
        for i, group in enumerate(self.groups):
            probs = self.conditional(i, widths[i])
            width = probs.shape[1]
            positive = probs > 0
            spread = np.flatnonzero(positive.sum(axis=1) > 1)
            target = np.full((len(probs), width + 1), -1)
            target[group, self.rows[:, i]] = np.arange(n)
            target = target[spread]
            last = width - 1 - np.argmax(positive[spread, ::-1], axis=1)
            target[:, width] = target[np.arange(len(spread)), last]
            moves.append((spread, np.cumsum(probs[spread], axis=1), target))
            movable[i] = movable[i + m] = np.isin(group, spread)
        # the first movable position at or after each position of two scans;
        # a distance above m means none
        at = np.where(movable, np.arange(2 * m, dtype=np.int32)[:, None], 2 * m)
        ahead = np.minimum.accumulate(at[::-1], axis=0)[::-1][:m] - np.arange(m)[:, None]
        layout = []
        for i, (group, (spread, cum, target)) in enumerate(zip(self.groups, moves)):
            # only the landing rows of positive values are ever read
            beyond = ahead[(i + 1) % m][target].tolist()
            skip = [[math.inf if d > m else d + 1 for d in row] for row in beyond]
            then = ((i + 1 + ahead[(i + 1) % m][target]) % m).tolist()
            by_group = dict(zip(spread.tolist(), zip(cum.tolist(), target.tolist(), skip, then)))
            layout.append([by_group.get(g) for g in group.tolist()])
        return layout, [math.inf if d > m else d for d in ahead[0].tolist()]


def estimate_conditionals(train: AgentPool) -> list[ConditionalTable]:
    """Count-and-normalize conditionals for every variable.

    Contexts are present iff observed in training data; absent contexts
    stay absent (no smoothing), which is exactly what makes sampling zeros
    unreachable.
    """
    if len(train) == 0:
        raise DataError("cannot estimate conditionals from an empty pool")
    index = ContextGroups.from_codes(pool_to_codes(train))
    return [ConditionalTable(i, dict(zip(map(tuple, index.contexts(i).tolist()),
                                         index.conditional(i, w))))
            for i, w in enumerate(train.schema.value_counts)]


def _run_on_index(layout, row: int, config: ChainConfig,
                  rng: np.random.Generator) -> list[int]:
    """Run a chain from unique row ``row``; return the unique rows kept.

    Uniforms come in blocks of whole scans, in the order single draws per
    update would take them, and every block is drawn, so the generator ends
    where a draw per update leaves it. Only the updates that can move are
    visited (:meth:`ContextGroups.transitions`): an update whose group is a
    point mass keeps the row, so each move carries the chain straight to
    its landing row's next movable update, whose uniform is read by its
    position in its block. The scans that end between two visited updates
    keep the row they hold, and an absorbing row fills the rest of the kept
    rows."""
    moves, start = layout
    m = len(moves)
    end = (config.warmup + config.thinning * config.target_count) * m  # updates in the chain
    block = max(1, UNIFORM_BLOCK // m) * m
    kept: list[int] = []
    keep_at = (config.warmup + config.thinning) * m  # the update before which a row is kept
    pos = start[row]  # the next update to visit
    var = pos % m if pos < end else 0
    drawn = first = check = 0
    draws: list[float] = []
    while True:
        if pos >= check:  # a row to keep, the chain's end or a new block of uniforms
            if pos >= keep_at:
                count = (min(pos, end) - keep_at) // (config.thinning * m) + 1
                kept.extend(repeat(row, count))
                keep_at += count * config.thinning * m
            if pos >= end:
                break
            if pos >= drawn:
                while pos >= drawn:
                    first, values = drawn, rng.random(min(block, end - drawn))
                    drawn += len(values)
                draws = values.tolist()
            check = min(keep_at, drawn)
        cum, nxt, skip, then = moves[var][row]
        k = bisect_right(cum, draws[pos - first])
        row, var = nxt[k], then[k]
        pos += skip[k]
    while drawn < end:
        drawn += len(rng.random(min(block, end - drawn)))
    return kept


def run_chain(train: AgentPool, config: ChainConfig) -> tuple[AgentPool, dict]:
    """Run one chain on the unique rows of ``train``: warm up, then keep
    every ``thinning``-th full scan until ``target_count`` rows are emitted,
    warmup + thinning * target_count scans in all. The start
    (``config.init``, or a random training row) must be a training row.
    Diagnostics report iterations, the number of distinct emitted rows, the
    number of probability islands in the training rows, and the rows in the
    island the chain starts on.
    """
    if len(train) == 0:
        raise DataError("a Gibbs chain needs a non-empty training pool")
    schema = train.schema
    rng = np.random.default_rng(config.seed)
    train_codes = pool_to_codes(train)
    index = ContextGroups.from_codes(train_codes)
    if config.init == "random-from-train":
        row = train_codes[rng.integers(len(train))]
    else:
        row = pool_to_codes(AgentPool.from_rows(schema, [tuple(config.init)], "train"))[0]
    matches = np.flatnonzero((index.rows == row).all(axis=1))
    if len(matches) == 0:
        raise DataError(f"the chain's start {tuple(config.init)!r} is not a training row")
    start = int(matches[0])
    layout = index.transitions(schema.value_counts)
    kept = np.asarray(_run_on_index(layout, start, config, rng), dtype=np.intp)
    pool = codes_to_pool(index.rows[kept], schema, provenance="generated", rng=rng)
    labels = index.island_labels()
    diagnostics = {
        "iterations": config.warmup + config.thinning * config.target_count,
        # distinct values counted by bincount: np.unique would import numpy.ma
        "distinct_rows": int(np.count_nonzero(np.bincount(kept))),
        "islands": int(np.count_nonzero(np.bincount(labels))),
        "start_island_rows": int(np.sum(labels == labels[start])),
        **{key: getattr(config, key) for key in ("warmup", "thinning", "target_count", "seed")},
    }
    return pool, diagnostics


# a Gibbs method's params and its model file: a chain's resolved settings,
# without the per-draw target count, and the JSON type of each
CHAIN_SETTINGS = {"warmup": "an integer", "thinning": "an integer",
                  "seed": "a non-negative integer"}


def chain_to_dict(config: ChainConfig) -> dict:
    return {"format": "agentsynth-gibbs", "version": 2,
            **{key: getattr(config, key) for key in CHAIN_SETTINGS}}


def chain_from_dict(doc: dict, target_count: int) -> ChainConfig:
    """Inverse of :func:`chain_to_dict` for a draw of ``target_count`` rows;
    every setting must be an integer, the seed a non-negative one."""
    read_format(doc, "agentsynth-gibbs", "a Gibbs chain model")
    warmup, thinning, seed = read_fields(doc, CHAIN_SETTINGS, "a Gibbs chain model", "Gibbs chain ")
    try:
        return ChainConfig(target_count, warmup, thinning, seed=seed)
    except ConfigError as exc:  # a warmup or thinning out of range
        raise DataError(f"Gibbs chain model: {exc}") from None


def write_diagnostics(diagnostics, path) -> None:
    with open(path, "w") as fh:
        json.dump(diagnostics, fh, indent=2)
