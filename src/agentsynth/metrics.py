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

:func:`evaluate` bins each pool once per view: :func:`view_counts` counts
every subset of a view with one offset ``bincount`` per chunk of subsets,
Cramer's V is read from the bivariate counts, and the report keeps the
vectors so scatter output writes them without binning again. The
single-subset functions (:func:`frequency_distribution_from_codes`,
:func:`cramers_v_from_codes`) stay as the public API and as the reference
the batched paths are tested against. Nearest-sample distances come from
one exact kernel for every schema mode: twice the number of mismatched
one-hot variables, read from the codes, plus direct squared differences of
the standardized numeric columns. It works on distinct rows, groups the
training rows by their categorical values, skips every group too far off
to hold the nearest row, and holds memory to fixed-size chunks.

All operations are pure; subset enumeration and neighbor scans are
data-parallel by construction.
"""

from __future__ import annotations

import csv
import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from .dataset import AgentPool, EncodedMatrix, pool_to_codes, standardize_column
# perfbench/layers.py wraps this name on this module; it stays bound until
# the benchmark's bindings are updated
from .dataset import encode_pool  # noqa: F401
from .errors import DataError

# Elements per chunk of flat bin ids in view_counts. Chunks of 64k ids ran
# faster than 1M on a 20-variable trivariate view (37 ms against 54 ms per
# 10,000-row pool), because they stay in cache.
VIEW_CHUNK = 1 << 16
MATCH_CHUNK = 1 << 20  # elements per block of mismatch counts in _nearest_distances
PAIR_CHUNK = 1 << 18  # row pairs per batch of numeric differences in _nearest_distances


def codes_for_pool(pool: AgentPool) -> np.ndarray:
    """Discrete codes for metric computation; numerics are clamped into
    their outermost bins so generated pools always bin cleanly."""
    return pool_to_codes(pool, clamp=True)


@dataclass(frozen=True)
class FrequencyDistribution:
    """Relative frequencies over the full product bin space of a subset.

    ``freqs`` has one entry per combination of the subset's values,
    including never-observed combinations (frequency zero).
    """

    subset: tuple[int, ...]
    widths: tuple[int, ...]
    freqs: np.ndarray

    @property
    def n_bins(self) -> int:
        return int(self.freqs.size)


def frequency_distribution_from_codes(codes: np.ndarray, value_counts: tuple[int, ...],
                                      subset: tuple[int, ...]) -> FrequencyDistribution:
    if len(subset) == 0:
        raise DataError("frequency distribution needs a non-empty variable subset")
    if codes.shape[0] == 0:
        raise DataError("frequency distribution of an empty pool")
    widths = tuple(value_counts[i] for i in subset)
    flat = np.ravel_multi_index([codes[:, i] for i in subset], widths)
    n_bins = int(np.prod(widths))
    counts = np.bincount(flat, minlength=n_bins)
    return FrequencyDistribution(tuple(subset), widths, counts / codes.shape[0])


def view_counts(codes: np.ndarray, value_counts: tuple[int, ...],
                subsets) -> tuple[np.ndarray, np.ndarray]:
    """Integer bin counts of every subset of a view, concatenated, plus the
    subset offsets: subset ``s`` owns ``counts[offsets[s]:offsets[s + 1]]``.

    All subsets have the same size. Every row gets one flat id per subset,
    ``codes[:, a] * w_b * w_c + codes[:, b] * w_c + codes[:, c] + offsets[s]``
    for a triplet, and one ``bincount`` per chunk of subsets counts them;
    chunks hold at most about ``VIEW_CHUNK`` ids. ``counts / n`` equals
    the concatenated :func:`frequency_distribution_from_codes` vectors.
    """
    n = codes.shape[0]
    if n == 0:
        raise DataError("frequency distribution of an empty pool")
    subs = np.asarray(subsets, dtype=np.intp).reshape(len(subsets), -1)
    if subs.shape[1] == 0:
        raise DataError("frequency distribution needs a non-empty variable subset")
    widths = np.asarray(value_counts, dtype=np.int64)[subs]
    strides = np.ones_like(widths)
    for p in range(subs.shape[1] - 2, -1, -1):
        strides[:, p] = strides[:, p + 1] * widths[:, p + 1]
    offsets = np.concatenate(([0], np.cumsum(widths.prod(axis=1))))
    dtype = np.int32 if offsets[-1] < 2 ** 31 else np.int64
    codes_t = np.ascontiguousarray(codes.T, dtype=dtype)
    strides, starts = strides.astype(dtype), offsets[:-1].astype(dtype)
    counts = np.empty(offsets[-1], dtype=np.int64)
    step = max(1, VIEW_CHUNK // n)
    for s0 in range(0, len(subs), step):
        s1 = min(s0 + step, len(subs))
        ids = codes_t[subs[s0:s1, 0]] * strides[s0:s1, :1]
        for p in range(1, subs.shape[1]):
            ids += codes_t[subs[s0:s1, p]] * strides[s0:s1, p:p + 1]
        ids += starts[s0:s1, None] - starts[s0]
        counts[offsets[s0]:offsets[s1]] = np.bincount(
            ids.ravel(), minlength=offsets[s1] - offsets[s0])
    return counts, offsets


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


def _unique_rows(codes: np.ndarray, value_counts: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of a code matrix, and the distinct row of every row.
    Rows are compared as one mixed-radix integer when the product space
    fits in int64 (a 1-D sort), else with ``np.unique(axis=0)``."""
    if codes.shape[1] == 0:
        return codes[:1], np.zeros(codes.shape[0], dtype=np.intp)
    if np.prod(value_counts, dtype=float) >= 2.0 ** 63:
        unique, inverse = np.unique(codes, axis=0, return_inverse=True)
        return unique, inverse.reshape(-1)
    keys = np.ravel_multi_index(tuple(codes.T), value_counts)
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return codes[first], inverse


def _distinct(rows: _KernelRows) -> tuple[_KernelRows, np.ndarray, np.ndarray, np.ndarray]:
    """Distinct rows ordered by code tuple, the distinct code tuples (in
    :func:`_unique_rows` order), the tuple of each distinct row, and the
    distinct row of every input row."""
    tuples, group = _unique_rows(rows.codes, rows.widths)
    if rows.numeric.shape[1] == 0:
        distinct = _KernelRows(tuples, rows.widths, rows.numeric[:len(tuples)])
        return distinct, tuples, np.arange(len(tuples)), group
    order = np.lexsort((*rows.numeric.T[::-1], group))
    num, group = rows.numeric[order], group[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (group[1:] != group[:-1]) | (num[1:] != num[:-1]).any(axis=1)
    inverse = np.empty(len(order), dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    keep = order[first]
    distinct = _KernelRows(rows.codes[keep], rows.widths, rows.numeric[keep])
    return distinct, tuples, group[first], inverse


def _nearest_distances(gen: _KernelRows, ref: _KernelRows) -> np.ndarray:
    """RMSE distance of each generated row to its nearest reference row,
    ``sqrt(best / n_cols)`` with ``best`` the smallest squared encoded
    distance, computed exactly as ``2 * mismatches + sum_c (g_c - t_c)**2``
    (numeric columns summed in order).

    Both sides are deduplicated, and the distinct reference rows are grouped
    by code tuple. For a chunk of generated rows, the mismatch count against
    every tuple comes from a float32 product of one-hot rows, exact because
    it is an integer of at most ``n_variables``. Without numeric columns
    ``best`` is twice the smallest count. Otherwise each row visits its
    groups by mismatch count, the smallest first, and stops at the first
    count whose ``2 * mismatches`` is not below its best so far: no further
    group can hold a nearer row. A visit expands (generated row, group)
    pairs into row pairs in batches of at most ``PAIR_CHUNK`` pairs (or one
    group's rows), so memory stays bounded by the chunk sizes and the inputs.
    """
    widths, n_num = gen.widths, gen.numeric.shape[1]
    gen, _, _, inverse = _distinct(gen)
    ref, tuples, ref_group, _ = _distinct(ref)
    starts = np.concatenate(([0], np.cumsum(widths)[:-1])).astype(np.int64)
    n_cat, n_cols = len(widths), int(np.sum(widths)) + n_num

    def one_hot(codes: np.ndarray) -> np.ndarray:
        out = np.zeros((codes.shape[0], n_cols - n_num), dtype=np.float32)
        out[np.arange(codes.shape[0])[:, None], codes + starts[:n_cat]] = 1.0
        return out

    tuples_t = one_hot(tuples).T.copy()
    sizes = np.bincount(ref_group, minlength=len(tuples))
    first_row = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    index_type = np.int32 if len(ref) < 2 ** 31 and len(gen) < 2 ** 31 else np.intp
    gen_num, ref_num = gen.numeric.T.copy(), ref.numeric.T.copy()
    best = np.empty(len(gen))

    def visit(rows: np.ndarray, groups: np.ndarray, twice: np.ndarray,
              best_chunk: np.ndarray, offset: int) -> None:
        """Lower ``best_chunk[rows]`` to ``twice`` (2 * mismatches, float64)
        plus the smallest numeric part over each pair's group."""
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
            gen_rows = rows[lo:hi] + offset
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
    for start in range(0, len(gen), step):
        match = one_hot(gen.codes[start:start + step]) @ tuples_t
        m0 = n_cat - match.max(axis=1)  # exact integers in float32
        if n_num == 0:
            best[start:start + step] = 2.0 * m0
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
            visit(active[rows], groups, 2.0 * level[rows].astype(np.float64), best_chunk, start)
        best[start:start + step] = best_chunk
    return np.sqrt(best / n_cols)[inverse]


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
    """Metric rows plus, from :func:`evaluate`, the frequency vector of every
    view of the test pool (``test_vectors``) and of each scored pool
    (``vectors[name][view]``). The vectors are not serialized."""

    method_names: list[str]
    rows: dict[str, MethodEvaluation]
    metadata: dict
    test_vectors: dict[str, np.ndarray] = field(default_factory=dict, repr=False, compare=False)
    vectors: dict[str, dict[str, np.ndarray]] = field(default_factory=dict, repr=False,
                                                      compare=False)

    VIEW_ORDER = ("marginal", "bivariate", "trivariate", "projected")
    # CSV column labels, matching the usual reporting layout
    COLUMNS = ("Marg.", "Bivar.", "Trivar.", "Basic", "Pair.", "mu_NS", "sigma_NS")


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
    """Frequency vector of every view, each binned once, and the Cramer's V
    of every pair (NaN where undefined) read from the bivariate counts."""
    n = codes.shape[0]
    vectors: dict[str, np.ndarray] = {}
    pairwise = None
    for view, subs in subsets.items():
        # One subset: the single-subset function is the whole view (and
        # perfbench's traced-pass test expects a pipeline run to call it).
        if view == "projected":
            vectors[view] = frequency_distribution_from_codes(codes, value_counts, subs[0]).freqs
            continue
        counts, offsets = view_counts(codes, value_counts, subs)
        vectors[view] = counts / n
        if view == "bivariate":
            pairwise = np.full(len(subs), np.nan)
            for s, (i, j) in enumerate(subs):
                table = counts[offsets[s]:offsets[s + 1]].reshape(value_counts[i], value_counts[j])
                v = _cramers_v_table(table.astype(float), n)
                if v is not None:
                    pairwise[s] = v
    return vectors, pairwise


def evaluate(method_pools: dict[str, AgentPool], test_pool: AgentPool,
             train_pool: AgentPool, projection=None,
             metadata: dict | None = None) -> EvalReport:
    """Score every generated pool against the test pool.

    Rows cover each supplied method plus a ``training-set`` reference row
    (the training pool compared to the test pool; its diversity stats are
    also taken against the test pool). Views: concatenated marginals, all
    pairs, all triplets, and the projected joint of ``projection`` (default:
    the schema's first four variables). Each pool is binned once per view;
    the report keeps the vectors for scatter output.
    """
    schema = test_pool.schema
    for name, pool in method_pools.items():
        if pool.schema != schema:
            raise DataError(f"pool {name!r} does not share the evaluation schema")
    if projection is None:
        projection = tuple(range(min(4, schema.n_variables)))
    else:
        projection = tuple(schema.index(p) if isinstance(p, str) else int(p)
                           for p in projection)
    counts = schema.value_counts
    subsets = view_subsets(schema.n_variables, projection)
    test_codes, train_codes = codes_for_pool(test_pool), codes_for_pool(train_pool)
    # the test pool's numerics are standardized with the training pool's statistics
    stats = _pool_rows(train_pool)[1]
    test_vectors, test_pairwise = _pool_vectors(test_codes, counts, subsets)
    vectors: dict[str, dict[str, np.ndarray]] = {}

    def score(name: str, codes: np.ndarray, diversity: DiversityStats) -> MethodEvaluation:
        vectors[name], vec_pairwise = _pool_vectors(codes, counts, subsets)
        views = {}
        for view, ref in test_vectors.items():
            vec = vectors[name][view]
            corr, r2 = _corr_r2_vec(vec, ref)
            views[view] = ViewMetrics(_srmse_vec(vec, ref), corr, r2)
        pairwise = None
        if test_pairwise is not None:
            keep = ~(np.isnan(vec_pairwise) | np.isnan(test_pairwise))
            if keep.any() and test_pairwise[keep].mean() > 0:
                corr, r2 = _corr_r2_vec(vec_pairwise[keep], test_pairwise[keep])
                pairwise = ViewMetrics(
                    _srmse_vec(vec_pairwise[keep], test_pairwise[keep]), corr, r2)
        return MethodEvaluation(views, pairwise, diversity)

    rows: dict[str, MethodEvaluation] = {}
    for name, pool in method_pools.items():
        rows[name] = score(name, codes_for_pool(pool), nearest_sample_stats(pool, train_pool))
    # the training-set row's diversity is taken against the test pool
    rows["training-set"] = score("training-set", train_codes, nearest_sample_stats(
        train_pool, test_pool, stats))
    return EvalReport(list(method_pools) + ["training-set"], rows, dict(metadata or {}),
                      test_vectors, vectors)


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


def _metric_from_entry(entry: dict | None) -> ViewMetrics | None:
    if entry is None:
        return None
    return ViewMetrics(entry["srmse"], entry.get("corr"), entry.get("r2"))


def report_from_dict(doc: dict) -> EvalReport:
    rows = {}
    for name, row in doc["rows"].items():
        views = {view: _metric_from_entry(entry)
                 for view, entry in row["views"].items() if entry is not None}
        rows[name] = MethodEvaluation(
            views,
            _metric_from_entry(row.get("pairwise_cramers_v")),
            DiversityStats(row["mu_ns"], row["sigma_ns"]),
        )
    return EvalReport(list(doc["methods"]), rows, dict(doc.get("metadata", {})))


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


def _float_reprs(vec: np.ndarray) -> list[str]:
    """``repr`` of every entry, formatted once per distinct bit pattern:
    a frequency vector ``counts / n`` holds few distinct values."""
    bits, inverse = np.unique(np.ascontiguousarray(vec, dtype=np.float64).view(np.int64),
                              return_inverse=True)
    reprs = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
    return reprs[inverse].tolist()


def write_scatter_csv(method_vec: np.ndarray, test_vec: np.ndarray, path) -> None:
    """Per-view scatter data: one row per bin with the test frequency and
    the method frequency, ready for external plotting. The bytes are those
    ``csv.writer`` writes, ``\\r\\n`` line ends included."""
    lines = map("{},{},{}\r\n".format, itertools.count(), _float_reprs(test_vec),
                _float_reprs(method_vec))
    with open(path, "w", newline="") as fh:
        fh.write("bin_id,test_frequency,method_frequency\r\n" + "".join(lines))


def write_pca_csv(coords: np.ndarray, path) -> None:
    header = ",".join(f"pc{k + 1}" for k in range(coords.shape[1]))
    lines = [",".join(map(repr, row)) + "\r\n" for row in coords.tolist()]
    with open(path, "w", newline="") as fh:
        fh.write(header + "\r\n" + "".join(lines))
