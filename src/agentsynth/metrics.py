"""Evaluation machinery for generated populations.

Generated pools are compared against a held-out test pool through binned
frequency distributions. A "view" collects the bin frequencies of many
variable subsets into one long vector: the marginal view concatenates all
single-variable distributions, the bivariate view all pairs, the
trivariate view all triplets, and the projected view is the full joint of
a designated subset. Each view is scored with SRMSE (root mean squared
error over bins divided by the mean reference frequency), the Pearson
correlation of the two bin vectors, and the coefficient of determination.
Pairwise association patterns are compared through Cramer's V over all
variable pairs, and sample diversity through the distance of each
generated agent to its nearest training agent (mu_NS, sigma_NS): both
exactly zero precisely when every generated row replicates a training row.

:func:`evaluate` counts each pool once: the marginal, bivariate and
trivariate views come from one-hot products over the pool's distinct rows,
each weighted by its multiplicity (:func:`_product_views`), or from
``dataset.view_counts`` (one offset ``bincount`` per chunk of subsets)
where that is the cheaper kernel; both give the same integers. The
projected view, one subset, is the counts of
:func:`frequency_distribution_from_codes`. Cramer's V is read from the
bivariate counts, and the report keeps the bin counts of every view so
scatter output writes them without binning again, each cell looked up in
one table of formatted frequencies per pool (:func:`count_reprs`). The
single-subset functions (:func:`frequency_distribution_from_codes`,
:func:`cramers_v_from_codes`), ``view_counts`` and
:func:`_cramers_v_table` stay as the public API and as the references the
batched paths are tested against. Nearest-sample distances come from
one exact kernel for every schema mode: twice the number of mismatched
one-hot variables, read from the codes, plus direct squared differences of
the standardized numeric columns. It works on distinct rows, groups the
training rows by their categorical values, skips every group too far off
to hold the nearest row, and holds memory to fixed-size chunks. Without
numeric columns, generated tuples that copy a training tuple or differ
from one in a single variable are found by sorted-key search over their
mixed-radix keys (:func:`_within_one`), and only the rest take the
one-hot product; where a tuple does not fit one int64 key, all of them do.

All operations are pure; subset enumeration and neighbor scans are
data-parallel by construction.
"""

from __future__ import annotations

import csv
import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from .dataset import (CSV_WRITE_BLOCK, AgentPool, EncodedMatrix, check_codes, distinct_rows,
                      mixed_radix_keys, row_groups, standardize_column, view_counts,
                      write_csv_block)
# perfbench/layers.py wraps this name on this module; it stays bound until
# the benchmark's bindings are updated
from .dataset import encode_pool  # noqa: F401
from .errors import DataError, read_fields

MATCH_CHUNK = 1 << 18  # elements per block of mismatch counts in _nearest_distances
PAIR_CHUNK = 1 << 18  # row pairs per batch of numeric differences in _nearest_distances


def codes_for_pool(pool: AgentPool) -> np.ndarray:
    """Discrete codes for metric computation: ``pool.codes``, whose numerics
    are clamped into their outermost bins so generated pools always bin
    cleanly."""
    return pool.codes


@dataclass(frozen=True)
class FrequencyDistribution:
    """Relative frequencies over the full product bin space of a subset.

    ``freqs`` has one entry per combination of the subset's values,
    including never-observed combinations (frequency zero). ``counts`` are
    the integer bin counts ``freqs`` divides, where the distribution was
    counted from codes (:func:`frequency_distribution_from_codes`); None
    for one built from frequencies.
    """

    subset: tuple[int, ...]
    widths: tuple[int, ...]
    freqs: np.ndarray
    counts: np.ndarray | None = None

    @property
    def n_bins(self) -> int:
        return int(self.freqs.size)


def frequency_distribution_from_codes(codes: np.ndarray, value_counts: tuple[int, ...],
                                      subset: tuple[int, ...]) -> FrequencyDistribution:
    if len(subset) == 0:
        raise DataError("frequency distribution needs a non-empty variable subset")
    if codes.shape[0] == 0:
        raise DataError("frequency distribution of an empty pool")
    check_codes(codes, value_counts, subset)
    widths = tuple(value_counts[i] for i in subset)
    flat = np.ravel_multi_index([codes[:, i] for i in subset], widths)
    n_bins = int(np.prod(widths))
    counts = np.bincount(flat, minlength=n_bins)
    return FrequencyDistribution(tuple(subset), widths, counts / codes.shape[0], counts)


def frequency_distribution(pool: AgentPool, subset) -> FrequencyDistribution:
    """Joint relative frequencies of a variable subset (indices or names)."""
    idx = tuple(pool.schema.index(s) if isinstance(s, str) else int(s) for s in subset)
    return frequency_distribution_from_codes(codes_for_pool(pool),
                                             pool.schema.value_counts, idx)


def _srmse_vec(pred: np.ndarray, ref: np.ndarray) -> float:
    rmse = float(np.sqrt(np.mean((pred - ref) ** 2)))
    return rmse / float(np.mean(ref))


def srmse(p_hat: FrequencyDistribution, p: FrequencyDistribution) -> float:
    """RMSE over all bins divided by the mean reference frequency, the
    formula every report view is scored with."""
    if p_hat.subset != p.subset or p_hat.widths != p.widths:
        raise DataError(
            f"incomparable distributions: subsets {p_hat.subset} vs {p.subset}")
    return _srmse_vec(p_hat.freqs, p.freqs)


def _corr_r2_vec(pred: np.ndarray, ref: np.ndarray) -> tuple[float | None, float | None]:
    ref_centered = ref - ref.mean()
    pred_centered = pred - pred.mean()
    ss_tot = float(np.sum(ref_centered ** 2))
    ss_pred = float(np.sum(pred_centered ** 2))
    if ss_tot == 0.0:
        return None, None
    r2 = 1.0 - float(np.sum((ref - pred) ** 2)) / ss_tot
    if ss_pred == 0.0:
        return None, r2
    corr = float(np.sum(ref_centered * pred_centered) / np.sqrt(ss_tot * ss_pred))
    return corr, r2


def corr_r2(p_hat: FrequencyDistribution, p: FrequencyDistribution
            ) -> tuple[float | None, float | None]:
    """Pearson correlation of the bin vectors and R^2 of predicting the
    reference bins by the generated bins. A zero-variance vector leaves the
    correlation undefined, and a zero-variance reference R^2 too; undefined
    statistics are reported as None, never as 0."""
    if p_hat.subset != p.subset or p_hat.widths != p.widths:
        raise DataError(
            f"incomparable distributions: subsets {p_hat.subset} vs {p.subset}")
    return _corr_r2_vec(p_hat.freqs, p.freqs)


def cramers_v_from_codes(codes: np.ndarray, value_counts, i: int, j: int) -> float | None:
    """Cramer's V from the pairwise contingency table, without bias
    correction. None when either variable is constant in the data."""
    n = codes.shape[0]
    if n == 0:
        raise DataError("Cramer's V of an empty pool")
    check_codes(codes, value_counts, (i, j))
    table = np.zeros((value_counts[i], value_counts[j]))
    np.add.at(table, (codes[:, i], codes[:, j]), 1.0)
    return _cramers_v_table(table, n)


def _cramers_v_table(table: np.ndarray, n: int) -> float | None:
    table = table[table.sum(axis=1) > 0][:, table.sum(axis=0) > 0]
    r, c = table.shape
    if r < 2 or c < 2:
        return None
    row = table.sum(axis=1, keepdims=True)
    col = table.sum(axis=0, keepdims=True)
    expected = row @ col / n
    chi2 = float(np.sum((table - expected) ** 2 / expected))
    return min(1.0, float(np.sqrt(chi2 / (n * min(r - 1, c - 1)))))


def cramers_v(pool: AgentPool, i, j) -> float | None:
    ii = pool.schema.index(i) if isinstance(i, str) else int(i)
    jj = pool.schema.index(j) if isinstance(j, str) else int(j)
    return cramers_v_from_codes(codes_for_pool(pool), pool.schema.value_counts, ii, jj)


@dataclass(frozen=True)
class DiversityStats:
    mu_ns: float
    sigma_ns: float


@dataclass(frozen=True)
class _KernelRows:
    """Rows as the nearest-sample kernel compares them: the codes of the
    one-hot variables, their value counts, and the standardized numeric
    columns. The squared encoded distance of two rows is twice the number
    of codes they differ in plus the squared differences of the numerics."""

    codes: np.ndarray  # (n, len(widths)) integer codes
    widths: tuple[int, ...]
    numeric: np.ndarray  # (n, n_numeric) float64

    def __len__(self) -> int:
        return self.codes.shape[0]


def _pool_rows(pool: AgentPool, standardization: dict[str, tuple[float, float]] | None = None
               ) -> tuple[_KernelRows, dict[str, tuple[float, float]]]:
    """Kernel rows of a pool, and the standardization used:
    ``standardization``, else the pool's own. Numerical codes are clamped,
    as in the frequency views."""
    schema = pool.schema
    hot = [j for j, var in enumerate(schema.variables) if schema.is_one_hot(var)]
    numeric, stats = np.empty((len(pool), schema.n_variables - len(hot))), {}
    # the variables outside one-hot blocks are the numerical ones (mixed mode)
    for k, var in enumerate(v for v in schema.variables if not schema.is_one_hot(v)):
        numeric[:, k], stats[var.name] = standardize_column(
            var, pool.numeric[:, k], standardization)
    return (_KernelRows(pool.codes[:, hot], tuple(schema.value_counts[j] for j in hot), numeric),
            stats)


def nearest_sample_stats(generated: AgentPool, train: AgentPool,
                         standardization: dict[str, tuple[float, float]] | None = None
                         ) -> DiversityStats:
    """Mean and standard deviation of each generated agent's RMSE distance
    to its nearest training agent, in the shared encoded space.

    ``generated`` and ``train`` are pools of one schema (else a DataError).
    Numeric columns are standardized with ``standardization``, else with
    the training pool's statistics. Every schema goes through one exact
    kernel (:func:`_nearest_distances`): the squared distance is twice the
    number of mismatched one-hot variables plus the direct squared
    differences of the numeric columns, so a pure replicator scores (0, 0)
    exactly.
    """
    if generated.schema != train.schema:
        raise DataError("nearest-sample distances need pools of one schema")
    if len(train) == 0:
        raise DataError("nearest-sample distances need a non-empty training pool")
    if len(generated) == 0:
        raise DataError("nearest-sample distances need a non-empty generated pool")
    train_rows, stats = _pool_rows(train, standardization)
    dist = _nearest_distances(_pool_rows(generated, standardization or stats)[0], train_rows)
    return DiversityStats(float(dist.mean()), float(dist.std()))


def _distinct(rows: _KernelRows) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The distinct code tuples (in :func:`distinct_rows` order), then the
    distinct rows ordered by code tuple, as the tuple and the numerics of
    each, and the distinct row of every input row."""
    tuples, group = distinct_rows(rows.codes)
    if rows.numeric.shape[1] == 0:
        return tuples, np.arange(len(tuples)), rows.numeric[:len(tuples)], group
    # (tuple, numerics) rows as floats: tuple indices stay exact below 2^53
    rows_of, inverse = distinct_rows(np.column_stack((group, rows.numeric)))
    return tuples, rows_of[:, 0].astype(np.intp), rows_of[:, 1:], inverse


def _nearest_distances(gen: _KernelRows, ref: _KernelRows) -> np.ndarray:
    """RMSE distance of each generated row to its nearest reference row,
    ``sqrt(best / n_cols)`` with ``best`` the smallest squared encoded
    distance, computed exactly as ``2 * mismatches + sum_c (g_c - t_c)**2``
    (numeric columns summed in order).

    Both sides are deduplicated, and the distinct reference rows are grouped
    by code tuple. Without numeric columns ``best`` is twice the smallest
    mismatch count, and the tuples within one mismatch of a reference tuple
    are found by key lookup (:func:`_within_one`); it is skipped when a
    tuple does not fit one int64 key. For a chunk of the generated rows
    left, the mismatch count against every tuple comes from a float32
    product of one-hot rows, exact because it is an integer of at most
    ``n_variables``. With numeric columns each row visits its groups by
    mismatch count, the smallest first, and stops at the first count whose
    ``2 * mismatches`` is not below its best so far: no further group can
    hold a nearer row. A visit expands (generated row, group) pairs into row
    pairs in batches of at most ``PAIR_CHUNK`` pairs (or one group's rows),
    so memory stays bounded by the chunk sizes and the inputs.
    """
    widths, n_num = gen.widths, gen.numeric.shape[1]
    gen_tuples, gen_tuple, gen_num, inverse = _distinct(gen)
    tuples, ref_group, ref_num, _ = _distinct(ref)
    starts = np.concatenate(([0], np.cumsum(widths)[:-1])).astype(np.int64)
    n_cat, n_cols = len(widths), int(np.sum(widths)) + n_num

    def one_hot(codes: np.ndarray, order: str = "C") -> np.ndarray:
        out = np.zeros((codes.shape[0], n_cols - n_num), dtype=np.float32, order=order)
        out[np.arange(codes.shape[0])[:, None], codes + starts[:n_cat]] = 1.0
        return out

    tuples_t = one_hot(tuples, order="F").T  # C-contiguous, as a transposed copy would be
    sizes = np.bincount(ref_group, minlength=len(tuples))
    first_row = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    index_type = np.int32 if len(ref_group) < 2 ** 31 and len(gen_tuple) < 2 ** 31 else np.intp
    gen_num, ref_num = gen_num.T.copy(), ref_num.T.copy()
    best = np.empty(len(gen_tuple))
    left = np.arange(len(gen_tuple))  # the rows the product scores
    near = _within_one(gen_tuples, tuples, widths) if n_num == 0 else None
    if near is not None:  # without numerics, the distinct rows are the distinct tuples
        best[:] = 2.0 * near
        left = np.flatnonzero(near < 0)

    def visit(rows: np.ndarray, groups: np.ndarray, twice: np.ndarray,
              best_chunk: np.ndarray, chunk: np.ndarray) -> None:
        """Lower ``best_chunk[rows]`` to ``twice`` (2 * mismatches, float64)
        plus the smallest numeric part over each pair's group; ``chunk``
        holds the generated rows that ``rows`` index."""
        counts = sizes[groups]
        ends = np.cumsum(counts)
        lo = 0
        while lo < len(groups):
            base = ends[lo] - counts[lo]
            hi = max(lo + 1, int(np.searchsorted(ends, base + PAIR_CHUNK, side="right")))
            c = counts[lo:hi]
            seg = (ends[lo:hi] - c - base).astype(index_type)
            ref_idx = np.arange(ends[hi - 1] - base, dtype=index_type)
            ref_idx += np.repeat((first_row[groups[lo:hi]] - seg).astype(index_type), c)
            gen_rows = chunk[rows[lo:hi]]
            acc = None
            for col in range(n_num):
                d = np.repeat(gen_num[col, gen_rows], c)
                d -= ref_num[col].take(ref_idx)
                d *= d
                if acc is None:
                    acc = d
                else:
                    acc += d
            # adding the same 2 * mismatches to a whole segment is monotone
            # under rounding, so the segment minimum comes first
            near = np.minimum.reduceat(acc, seg)
            near += twice[lo:hi]
            np.minimum.at(best_chunk, rows[lo:hi], near)
            lo = hi

    step = max(1, MATCH_CHUNK // max(len(tuples), n_cols - n_num, 1))
    for start in range(0, len(left), step):
        chunk = left[start:start + step]
        match = one_hot(gen_tuples[gen_tuple[chunk]]) @ tuples_t
        m0 = n_cat - match.max(axis=1)  # exact integers in float32
        if n_num == 0:
            best[chunk] = 2.0 * m0
            continue
        mism = np.subtract(n_cat, match, out=match)
        best_chunk = np.full(len(m0), np.inf)
        # groups by mismatch count above each row's smallest: a row stops
        # at the first count whose 2 * mismatches reaches its best so far
        for delta in range(n_cat + 1):
            active = np.flatnonzero(2.0 * (m0 + delta) < best_chunk)
            if len(active) == 0:
                break
            level = m0[active] + delta
            rest = mism if len(active) == len(m0) else mism[active]
            rows, groups = np.divmod(np.flatnonzero(rest == level[:, None]), len(tuples))
            visit(active[rows], groups, 2.0 * level[rows].astype(np.float64), best_chunk, chunk)
        best[chunk] = best_chunk
    return np.sqrt(best / n_cols)[inverse]


def _within_one(gen_tuples: np.ndarray, tuples: np.ndarray, widths) -> np.ndarray | None:
    """The mismatch count of each distinct generated tuple to its nearest
    reference tuple where it is 0 or 1, else -1, by sorted-key search over
    the tuples' :func:`mixed_radix_keys` in radix ``widths``; None when the
    product of the widths does not fit one int64 key. A generated key found
    among the reference keys has 0 mismatches. A key left that matches a
    reference key once variable ``j``'s digit is zeroed in both has exactly
    1: the tuples agree everywhere but at ``j``. This is the one-mismatch
    case of the pigeonhole filter of multi-index hashing (Norouzi, Punjani
    and Fleet, CVPR 2012)."""
    gen_keys = mixed_radix_keys(gen_tuples, widths)
    if len(gen_keys) != 1:
        return None
    gen_key, (ref_key,) = gen_keys[0], mixed_radix_keys(tuples, widths)
    # the reference keys ascend: distinct tuples come in lexicographic order

    def found(keys: np.ndarray, ordered: np.ndarray) -> np.ndarray:
        at = np.searchsorted(ordered, keys).clip(max=len(ordered) - 1)
        return ordered[at] == keys

    near = np.full(len(gen_key), -1)
    hit = found(gen_key, ref_key)
    near[hit] = 0
    left = np.flatnonzero(~hit)
    stride = np.int64(1)
    for j in range(len(widths) - 1, -1, -1):
        if len(left) == 0:
            break
        zeroed = np.sort(ref_key - tuples[:, j] * stride)
        hit = found(gen_key[left] - gen_tuples[left, j] * stride, zeroed)
        near[left[hit]] = 1
        left = left[~hit]
        stride *= widths[j]
    return near


# ---------------------------------------------------------------------------
# principal components


@dataclass(frozen=True)
class PcaModel:
    mean: np.ndarray
    components: np.ndarray          # (n_features, n_components), orthonormal columns
    explained_variances: np.ndarray  # nonincreasing


def pca_fit(data) -> PcaModel:
    """Principal components of mean-centered data via the eigendecomposition
    of the sample covariance. Components are orthonormal and ordered by
    nonincreasing explained variance; tiny negative eigenvalues from
    round-off are clipped to zero."""
    values = data.values if isinstance(data, EncodedMatrix) else np.asarray(data, dtype=float)
    if values.ndim != 2 or values.shape[0] < 2:
        raise DataError("PCA needs a matrix with at least 2 rows")
    mean = values.mean(axis=0)
    centered = values - mean
    cov = centered.T @ centered / (values.shape[0] - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    return PcaModel(mean, eigvecs[:, order], np.maximum(eigvals[order], 0.0))


def pca_project(model: PcaModel, data, k: int) -> np.ndarray:
    """Coordinates of rows in the first k principal directions."""
    values = data.values if isinstance(data, EncodedMatrix) else np.asarray(data, dtype=float)
    k = min(k, model.components.shape[1])
    return (values - model.mean) @ model.components[:, :k]


# ---------------------------------------------------------------------------
# the full evaluation protocol


@dataclass(frozen=True)
class ViewMetrics:
    srmse: float
    corr: float | None
    r2: float | None


@dataclass
class MethodEvaluation:
    views: dict[str, ViewMetrics]
    pairwise: ViewMetrics | None
    diversity: DiversityStats


@dataclass
class EvalReport:
    """Metric rows plus, from :func:`evaluate`, every view of the test pool
    (``test_vectors``) and of each supplied pool (``vectors[name][view]``;
    not of the ``training-set`` row), and the row counts of those pools
    (``test_size``, ``sizes[name]``). A view of a pool of ``n`` rows is kept
    as its bin counts in ``np.min_scalar_type(n)``, uint16 up to 65,535
    rows. None of this is serialized."""

    method_names: list[str]
    rows: dict[str, MethodEvaluation]
    metadata: dict
    test_vectors: dict[str, np.ndarray] = field(default_factory=dict, repr=False, compare=False)
    vectors: dict[str, dict[str, np.ndarray]] = field(default_factory=dict, repr=False,
                                                      compare=False)
    test_size: int = field(default=0, repr=False, compare=False)
    sizes: dict[str, int] = field(default_factory=dict, repr=False, compare=False)

    VIEW_ORDER = ("marginal", "bivariate", "trivariate", "projected")
    # CSV column labels, matching the usual reporting layout
    COLUMNS = ("Marg.", "Bivar.", "Trivar.", "Basic", "Pair.", "mu_NS", "sigma_NS")


def _frequencies(counts: np.ndarray, n: int) -> np.ndarray:
    """A view as :func:`evaluate` keeps it, as frequencies: its bin counts
    divided by the pool's ``n`` rows, the same division and so the same
    bits as dividing int64 counts."""
    return counts / n


def view_subsets(n_variables: int, projection: tuple[int, ...]) -> dict[str, list[tuple[int, ...]]]:
    views: dict[str, list[tuple[int, ...]]] = {
        "marginal": [(i,) for i in range(n_variables)],
    }
    if n_variables >= 2:
        views["bivariate"] = list(itertools.combinations(range(n_variables), 2))
    if n_variables >= 3:
        views["trivariate"] = list(itertools.combinations(range(n_variables), 3))
    views["projected"] = [tuple(projection)]
    return views


def _pool_vectors(codes: np.ndarray, value_counts, subsets) -> tuple[dict[str, np.ndarray],
                                                                     np.ndarray | None]:
    """Every view of :func:`view_subsets`, each binned once, as
    :class:`EvalReport` keeps it: bin counts in ``np.min_scalar_type(n)``
    for ``n`` rows. Also the Cramer's V of every pair (NaN where
    undefined), read from the bivariate counts (:func:`_cramers_v_pairs`).

    The codes are checked once. The marginal, bivariate and trivariate
    counts come from one-hot products over the pool's distinct rows, each
    weighted by its multiplicity (:func:`_product_views`), unless their
    cost estimate (:func:`_products_pay`) is above that of
    ``dataset.view_counts``, which then counts each view. Both give the
    same integers. The projected view is one subset, so the single-subset
    function is the whole view (and perfbench's traced-pass test expects a
    pipeline run to call it)."""
    n = codes.shape[0]
    if n == 0:
        raise DataError("frequency distribution of an empty pool")
    check_codes(codes, value_counts)
    rows, inverse = distinct_rows(codes)
    counted = (_product_views(rows, np.bincount(inverse), value_counts)
               if _products_pay(n, len(rows), value_counts) else {})
    vectors: dict[str, np.ndarray] = {}
    for view, subs in subsets.items():
        if view == "projected":
            vectors[view] = frequency_distribution_from_codes(
                codes, value_counts, subs[0]).counts.astype(np.min_scalar_type(n))
        elif view in counted:
            vectors[view] = counted.pop(view)
        else:
            vectors[view] = view_counts(codes, value_counts, subs)[0]
    pairwise = (_cramers_v_pairs(vectors["bivariate"], value_counts, n)
                if "bivariate" in vectors else None)
    return vectors, pairwise


# Elements per block of float32 one-hot rows in _leading_products (256 KB):
# no more of a pool's one-hot encoding exists at once.
ONEHOT_BLOCK = 1 << 16
# What one multiply-add of the one-hot products costs, in bin ids that
# view_counts forms and counts in the same time. Calibrated at one BLAS
# thread on the benchmark workloads' pools: the products won at estimate
# ratios (multiply-adds per bin id) up to 31 (lc20-run, bn-search, 60
# variables of width 4) and were level or slower at 59-91 (mixed-staged).
PRODUCT_COST = 1 / 40


def _products_pay(n: int, distinct: int, value_counts) -> bool:
    """Whether :func:`_product_views` is the cheaper kernel for a pool of
    ``n`` rows, ``distinct`` of them distinct: it spends about ``distinct *
    sum_a C_a**2`` multiply-adds, ``C_a`` the padded one-hot columns after
    variable ``a`` (:func:`_leading_products`), where ``view_counts`` forms
    ``n * subsets`` bin ids for the pairs and triplets."""
    m = len(value_counts)
    squares = sum(((m - a - 1) * max(value_counts[a + 1:])) ** 2 for a in range(m - 1))
    subsets = m * (m - 1) // 2 + m * (m - 1) * (m - 2) // 6
    return distinct * squares * PRODUCT_COST <= n * subsets


def _product_views(rows: np.ndarray, weights: np.ndarray, value_counts) -> dict[str, np.ndarray]:
    """The marginal, bivariate and trivariate counts (the views of two or
    three variables where there are that many) of a pool given as its
    distinct code ``rows`` and their multiplicities ``weights``: the
    integers ``dataset.view_counts`` returns for the expanded pool, in its
    layout, in ``np.min_scalar_type(n)`` for ``n = weights.sum()`` rows.

    Marginals are weighted bincounts. Every pair and triplet led by
    variable ``a`` is read from ``a``'s product stack
    (:func:`_leading_products`, :func:`_leading_views`), and the floats
    are written straight into the narrow counts. The
    products are exact: every entry, and every partial sum BLAS forms on
    the way, is an integer of at most ``n``, exact in float32 below 2^24;
    from a total weight of 2^24 on they run in float64 (exact below 2^53).
    """
    n, m = int(weights.sum()), rows.shape[1]
    out = np.min_scalar_type(n)
    dtype = np.float32 if n < 2 ** 24 else np.float64
    views = {"marginal": np.concatenate([
        np.bincount(rows[:, j], weights, minlength=w) for j, w in enumerate(value_counts)
    ]).astype(out)}
    if m < 2:
        return views
    sizes = [0, 0, 0]  # bins of the views of one, two and three variables
    for w in value_counts:
        sizes[2] += sizes[1] * w
        sizes[1] += sizes[0] * w
        sizes[0] += w
    bivariate, trivariate = np.empty(sizes[1], out), np.empty(sizes[2], out)
    weights = weights.astype(dtype)
    done_pairs = done_triplets = 0  # bins written so far
    for a in range(m - 1):
        stack = _leading_products(rows, weights, value_counts, a)
        pairs, triplets = _leading_views(stack, value_counts[a + 1:])
        bivariate[done_pairs:done_pairs + len(pairs)] = pairs
        trivariate[done_triplets:done_triplets + len(triplets)] = triplets
        done_pairs += len(pairs)
        done_triplets += len(triplets)
    views["bivariate"] = bivariate
    if m > 2:
        views["trivariate"] = trivariate
    return views


def _leading_products(rows: np.ndarray, weights: np.ndarray, value_counts,
                      a: int) -> np.ndarray:
    """Variable ``a``'s product stack ``P``, of shape ``(w_a, C, C)``:
    ``P[v]`` is ``sum_r weights[r] * x_r x_r^T`` over the rows ``r`` whose
    code at ``a`` is ``v``, in ``weights``' dtype. ``x_r`` is the one-hot of
    the row's codes after ``a``, each variable padded to the widest of them
    (``C`` columns; one ``np.take`` from an identity builds a block).

    The rows are ordered by (code at ``a``, weight above 1) and multiplied
    in blocks of at most ``ONEHOT_BLOCK`` one-hot elements: ``X^T X`` (one
    symmetric product) for rows of weight 1, ``(X * w)^T X`` for the rest.
    """
    later, wa = rows.shape[1] - a - 1, value_counts[a]
    pad = max(value_counts[a + 1:])
    width = later * pad
    stack = np.zeros((wa, width, width), weights.dtype)
    key = rows[:, a].astype(np.intp) * 2 + (weights > 1)
    order = np.argsort(key, kind="stable")
    ends = np.cumsum(np.bincount(key, minlength=2 * wa))
    step = max(1, ONEHOT_BLOCK // width)
    eye = np.eye(pad, dtype=weights.dtype)
    hot = np.empty((step, later, pad), weights.dtype)
    scaled = np.empty((step, width), weights.dtype)
    for segment in range(2 * wa):
        v, weighted = divmod(segment, 2)
        for lo in range(ends[segment - 1] if segment else 0, ends[segment], step):
            take = order[lo:min(lo + step, ends[segment])]
            x = np.take(eye, rows[take, a + 1:], axis=0, mode="clip",
                        out=hot[:len(take)]).reshape(len(take), width)
            if weighted:
                x_w = np.multiply(x, weights[take, None], out=scaled[:len(take)])
                stack[v] += x_w.T @ x
            else:
                stack[v] += x.T @ x
    return stack


def _leading_views(stack: np.ndarray, later) -> tuple[np.ndarray, np.ndarray]:
    """The bins of the pairs and of the triplets led by variable ``a``,
    read from its product stack (:func:`_leading_products`; ``later`` are
    the widths of the variables after ``a``) in ``view_counts``' order:
    pair ``(a, b)`` is the diagonal of block ``(b, b)`` and triplet ``(a,
    b, c)`` block ``(b, c)``, for ``b < c`` in combination order, each over
    its bins ``(v, v_b[, v_c])`` in C order, the padding columns dropped."""
    wa, k = stack.shape[0], len(later)
    pad = stack.shape[1] // k
    blocks = stack.reshape(wa, k, pad, k, pad)
    real = np.arange(pad) < np.asarray(later)[:, None]  # (variable, column) not padding
    pairs = np.einsum("vbibi->bvi", blocks)[np.broadcast_to(real[:, None], (k, wa, pad))]
    b, c = np.triu_indices(k, 1)
    triplets = blocks.transpose(1, 3, 0, 2, 4)[b, c]
    cells = (real[b, :, None] & real[c, None, :])[:, None]
    return pairs, triplets[np.broadcast_to(cells, triplets.shape)]


def _cramers_v_pairs(counts: np.ndarray, value_counts, n: int) -> np.ndarray:
    """The Cramer's V of every pair from the bivariate counts, NaN where
    :func:`_cramers_v_table` returns None, with its floating-point
    operations in its order: pairs are grouped by table shape and, within a
    shape, by the numbers of non-empty rows and columns, and each group is
    one vectorized pass over its tables with the empty rows and columns
    dropped."""
    m = len(value_counts)
    first, second = np.triu_indices(m, 1)
    widths = np.asarray(value_counts)
    sizes = widths[first] * widths[second]
    offsets = np.cumsum(sizes) - sizes
    pairwise = np.full(len(first), np.nan)
    for wi, wj in sorted(set(zip(widths[first].tolist(), widths[second].tolist()))):
        pairs = np.flatnonzero((widths[first] == wi) & (widths[second] == wj))
        tables = counts[offsets[pairs, None] + np.arange(wi * wj)].reshape(-1, wi, wj)
        tables = tables.astype(float)
        full_rows, full_cols = tables.sum(axis=2) > 0, tables.sum(axis=1) > 0
        r, c = full_rows.sum(axis=1), full_cols.sum(axis=1)
        for ri, ci in sorted(set(zip(r.tolist(), c.tolist()))):
            if ri < 2 or ci < 2:
                continue
            group = np.flatnonzero((r == ri) & (c == ci))
            # the non-empty rows and columns of each table, in order
            keep_r = np.argsort(~full_rows[group], axis=1, kind="stable")[:, :ri]
            keep_c = np.argsort(~full_cols[group], axis=1, kind="stable")[:, :ci]
            table = tables[group[:, None, None], keep_r[:, :, None], keep_c[:, None, :]]
            row = table.sum(axis=2, keepdims=True)
            col = table.sum(axis=1, keepdims=True)
            expected = row @ col / n
            chi2 = np.sum((table - expected) ** 2 / expected, axis=(1, 2))
            pairwise[pairs[group]] = np.minimum(1.0, np.sqrt(chi2 / (n * min(ri - 1, ci - 1))))
    return pairwise


def evaluate(method_pools: dict[str, AgentPool], test_pool: AgentPool,
             train_pool: AgentPool, projection=None,
             metadata: dict | None = None) -> EvalReport:
    """Score every generated pool against the test pool.

    Rows cover each supplied method plus a ``training-set`` reference row
    (the training pool compared to the test pool; its diversity stats are
    also taken against the test pool). Views: concatenated marginals, all
    pairs, all triplets, and the projected joint of ``projection``: distinct
    variable names or indices (default: the schema's first four variables;
    anything else is a ConfigError). Each pool is binned once per view.
    The report keeps every view of the test pool and of the supplied pools
    as bin counts for scatter output (see :class:`EvalReport`), and the
    scores divide them by the pool's rows one view at a time.
    """
    schema = test_pool.schema
    for name, pool in method_pools.items():
        if pool.schema != schema:
            raise DataError(f"pool {name!r} does not share the evaluation schema")
    if projection is not None:  # variable indices become names; any other entry stays
        projection = [schema.names[p] if isinstance(p, (int, np.integer))
                      and not isinstance(p, bool) and 0 <= p < schema.n_variables else p
                      for p in projection]
    projection = tuple(schema.columns(projection, "projection"))
    value_counts = schema.value_counts
    subsets = view_subsets(schema.n_variables, projection)
    test_codes, train_codes = codes_for_pool(test_pool), codes_for_pool(train_pool)
    # the test pool's numerics are standardized with the training pool's statistics
    stats = _pool_rows(train_pool)[1]
    test_vectors, test_pairwise = _pool_vectors(test_codes, value_counts, subsets)
    vectors: dict[str, dict[str, np.ndarray]] = {}

    def score(codes: np.ndarray, diversity: DiversityStats
              ) -> tuple[MethodEvaluation, dict[str, np.ndarray]]:
        pool_vectors, vec_pairwise = _pool_vectors(codes, value_counts, subsets)
        views = {}
        for view, test_vec in test_vectors.items():
            vec = _frequencies(pool_vectors[view], len(codes))
            ref = _frequencies(test_vec, len(test_codes))
            corr, r2 = _corr_r2_vec(vec, ref)
            views[view] = ViewMetrics(_srmse_vec(vec, ref), corr, r2)
        pairwise = None
        if test_pairwise is not None:
            keep = ~(np.isnan(vec_pairwise) | np.isnan(test_pairwise))
            if keep.any() and test_pairwise[keep].mean() > 0:
                corr, r2 = _corr_r2_vec(vec_pairwise[keep], test_pairwise[keep])
                pairwise = ViewMetrics(
                    _srmse_vec(vec_pairwise[keep], test_pairwise[keep]), corr, r2)
        return MethodEvaluation(views, pairwise, diversity), pool_vectors

    rows: dict[str, MethodEvaluation] = {}
    for name, pool in method_pools.items():
        rows[name], vectors[name] = score(codes_for_pool(pool),
                                          nearest_sample_stats(pool, train_pool))
    # the training-set row's diversity is taken against the test pool; no
    # output reads its vectors
    rows["training-set"] = score(train_codes, nearest_sample_stats(
        train_pool, test_pool, stats))[0]
    return EvalReport(list(method_pools) + ["training-set"], rows, dict(metadata or {}),
                      test_vectors, vectors, len(test_pool),
                      {name: len(pool) for name, pool in method_pools.items()})


# ---------------------------------------------------------------------------
# report serialization


def _metric_entry(vm: ViewMetrics | None) -> dict | None:
    if vm is None:
        return None
    return {"srmse": vm.srmse, "corr": vm.corr, "r2": vm.r2}


def report_to_dict(report: EvalReport) -> dict:
    rows = {}
    for name in report.method_names:
        row = report.rows[name]
        rows[name] = {
            "views": {view: _metric_entry(row.views.get(view))
                      for view in EvalReport.VIEW_ORDER if view in row.views},
            "pairwise_cramers_v": _metric_entry(row.pairwise),
            "mu_ns": row.diversity.mu_ns,
            "sigma_ns": row.diversity.sigma_ns,
        }
    return {"methods": report.method_names, "rows": rows, "metadata": report.metadata}


def report_to_json(report: EvalReport) -> str:
    return json.dumps(report_to_dict(report), indent=2)


def _metric_from_entry(entry: dict | None, what: str) -> ViewMetrics | None:
    return None if entry is None else ViewMetrics(*read_fields(entry, {
        "srmse": "a number", "corr": "a number or null", "r2": "a number or null"},
        what, f"{what} "))


def report_from_dict(doc: dict) -> EvalReport:
    """Inverse of :func:`report_to_dict`; a document of another shape, or
    one without a row per listed method, is a DataError."""
    methods, rows_doc, metadata = read_fields(
        doc, {"methods": "a list of names", "rows": "an object", "metadata": "an object"},
        "the report", "report ")
    rows, row_fields = {}, dict.fromkeys(methods, "an object")  # one per distinct name
    for name, row in zip(row_fields, read_fields(rows_doc, row_fields, "report rows",
                                                 "report row ")):
        views, pairwise, mu_ns, sigma_ns = read_fields(row, {
            "views": "an object", "pairwise_cramers_v": "an object or null",
            "mu_ns": "a number", "sigma_ns": "a number"}, f"report row {name!r}", f"{name!r} ")
        rows[name] = MethodEvaluation(
            {view: _metric_from_entry(entry, f"{name!r} view {view!r}")
             for view, entry in views.items() if entry is not None},
            _metric_from_entry(pairwise, f"{name!r} pairwise_cramers_v"),
            DiversityStats(mu_ns, sigma_ns))
    return EvalReport(list(methods), rows, metadata)


def write_report_csv(report: EvalReport, path) -> None:
    """Flat SRMSE table: one row per method, columns for every view plus the
    pairwise Cramer's V SRMSE and the diversity statistics."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["Model", *EvalReport.COLUMNS])
        for name in report.method_names:
            row = report.rows[name]
            cells = [name]
            for view in EvalReport.VIEW_ORDER:
                vm = row.views.get(view)
                cells.append("" if vm is None else repr(vm.srmse))
            cells.append("" if row.pairwise is None else repr(row.pairwise.srmse))
            cells.append(repr(row.diversity.mu_ns))
            cells.append(repr(row.diversity.sigma_ns))
            writer.writerow(cells)


def count_reprs(vectors, n: int) -> np.ndarray:
    """The scatter cell of every count that the bin-count ``vectors`` of a
    pool of ``n`` rows hold: ``repr(c / n)``, in an object array indexed by
    the count, None at the counts none of them holds. Python's ``c / n``
    and numpy's float64 ``counts / n`` both round the exact quotient of two
    integers below 2^53 once, so the strings are those of the divided
    vectors."""
    held = np.zeros(n + 1, dtype=bool)
    for vec in vectors:
        held[vec] = True
    counts = np.flatnonzero(held)
    reprs = np.full(n + 1, None, dtype=object)
    reprs[counts] = [repr(c / n) for c in counts.tolist()]
    return reprs


def write_scatter_csv(test: tuple[np.ndarray, np.ndarray], pools: dict[str, tuple],
                      path) -> None:
    """One view's scatter data, ready for external plotting: one row per
    bin with its ``bin_id``, the test frequency (``test_frequency``) and a
    column per pool named after it, in the order of ``pools``. Each column
    is a pair ``(vector, reprs)``: the view as :class:`EvalReport` keeps it
    and its pool's :func:`count_reprs` table, from which each bin count's
    cell is looked up. The bytes are those ``csv.writer`` writes,
    ``\\r\\n`` line ends included. Rows are formatted ``CSV_WRITE_BLOCK``
    at a time."""
    columns = [test, *pools.values()]
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(["bin_id", "test_frequency", *pools])
        for start in range(0, len(test[0]), CSV_WRITE_BLOCK):
            stop = min(start + CSV_WRITE_BLOCK, len(test[0]))
            write_csv_block(fh, [map(str, range(start, stop)),
                                 *(reprs[vec[start:stop]].tolist() for vec, reprs in columns)])


def write_pca_csv(coords: np.ndarray, path) -> None:
    """PCA coordinates, one row per agent, as ``csv.writer`` writes them.

    Rows with bit-identical coordinates share one line (:func:`row_groups`
    over the bits): replicating pools repeat rows. The line of a group of
    two or more rows is formatted once up front; every other row is
    formatted in its block of ``CSV_WRITE_BLOCK`` rows."""
    coords = np.ascontiguousarray(coords, dtype=np.float64)
    first, group = row_groups(coords.view(np.int64))
    shared = np.flatnonzero(np.bincount(group, minlength=len(first)) > 1)
    lines = np.full(len(first), None, dtype=object)
    lines[shared] = _format_rows(coords[first[shared]])
    with open(path, "w", newline="") as fh:
        fh.write(",".join(f"pc{k + 1}" for k in range(coords.shape[1])) + "\r\n")
        for start in range(0, len(coords), CSV_WRITE_BLOCK):
            rows = slice(start, start + CSV_WRITE_BLOCK)
            block = lines[group[rows]]
            alone = np.flatnonzero(np.equal(block, None))
            block[alone] = _format_rows(coords[rows][alone])
            fh.write("\r\n".join(block.tolist()))
            fh.write("\r\n")


def _format_rows(coords: np.ndarray) -> list[str]:
    """The line of every row of ``coords``: its cells' ``repr`` joined by
    commas, formatted column by column."""
    return list(map(",".join, zip(*(map(repr, column) for column in coords.T.tolist()))))
