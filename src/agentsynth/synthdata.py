"""Synthetic benchmark populations with known ground truth.

Three generator kinds stand in for survey micro-data:

* ``latent-class``: a hidden class is drawn per agent, then each variable
  independently given the class. Inter-variable dependence arises entirely
  through the class, with strength controlled by how concentrated the
  class-conditional distributions are. One class means full independence.
* ``bn-ground-truth``: a fixed random DAG with random conditionals; the
  analytic joint is enumerable, so samplers can be checked exactly.
* ``toy-appendix-a``: two binary attributes, only the prototypes (0,0) and
  (1,1), in equal proportions. The smallest population that already shows
  probability islands and replication.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bayesnet import CptSet, Dag, ancestral_sample
from .dataset import (AgentPool, Schema, VariableSpec, build_uniform_edges, code_dtype,
                      codes_to_pool, draw_categories)
from .errors import ConfigError, expect_fields

GENERATOR_KINDS = ("latent-class", "bn-ground-truth", "toy-appendix-a")


@dataclass(frozen=True)
class SyntheticGeneratorSpec:
    kind: str
    size: int
    seed: int = 0
    n_variables: int = 10
    n_classes: int = 5
    category_width: int | tuple[int, ...] = 4
    dependence: float = 0.85
    numeric_variables: int = 0
    numeric_bins: int = 8
    balanced: bool = False
    max_parents: int = 2

    def __post_init__(self):
        if self.kind not in GENERATOR_KINDS:
            raise ConfigError(f"unknown generator kind {self.kind!r}")
        if self.size < 0:
            raise ConfigError("size must be >= 0")
        if self.kind == "latent-class":
            if self.n_classes < 1 or self.n_variables < 1:
                raise ConfigError("latent-class needs n_classes >= 1 and n_variables >= 1")
            if not (0.0 <= self.dependence < 1.0):
                raise ConfigError("dependence must lie in [0, 1)")
            if self.numeric_variables < 0 or self.numeric_bins < 2:
                raise ConfigError("numeric_variables >= 0 and numeric_bins >= 2 required")
        if self.kind == "bn-ground-truth":
            if self.n_variables < 2 or self.max_parents < 0:
                raise ConfigError("bn-ground-truth needs n_variables >= 2")
        for w in self.widths():
            if w < 2:
                raise ConfigError("category widths must be >= 2")

    def widths(self) -> tuple[int, ...]:
        if self.kind == "toy-appendix-a":
            return (2, 2)
        if isinstance(self.category_width, int):
            return (self.category_width,) * self.n_variables
        if len(self.category_width) != self.n_variables:
            raise ConfigError("category_width list must match n_variables")
        return tuple(self.category_width)


SPEC_FIELDS = {"kind": "a string", "size": "an integer", "seed": "a non-negative integer",
               "n_variables": "an integer", "n_classes": "an integer",
               "category_width": "an integer or a list of integers", "dependence": "a number",
               "numeric_variables": "an integer", "numeric_bins": "an integer",
               "balanced": "true or false", "max_parents": "an integer"}


def spec_from_json(doc: dict) -> SyntheticGeneratorSpec:
    """The generator a JSON object describes; an unknown key or a value of
    the wrong type is a ConfigError, never coerced."""
    expect_fields(doc, SPEC_FIELDS, "data.synthetic", "generator ")
    if "kind" not in doc or "size" not in doc:
        raise ConfigError("generator spec needs at least 'kind' and 'size'")
    doc = dict(doc)
    if isinstance(doc.get("category_width"), list):
        doc["category_width"] = tuple(doc["category_width"])
    return SyntheticGeneratorSpec(**doc)


def _categorical_variables(widths) -> tuple[VariableSpec, ...]:
    return tuple(
        VariableSpec(f"x{i:02d}", "categorical", categories=tuple(f"c{v}" for v in range(w)))
        for i, w in enumerate(widths)
    )


def _toy_generate(spec: SyntheticGeneratorSpec) -> AgentPool:
    schema = Schema(
        (VariableSpec("X", "binary", categories=("0", "1")),
         VariableSpec("Y", "binary", categories=("0", "1"))),
        "discretize-all",
    )
    if spec.balanced:
        half = spec.size // 2
        labels = np.repeat([0, 1], [half, spec.size - half])
    else:
        labels = np.random.default_rng(spec.seed).integers(0, 2, size=spec.size)
    codes = np.column_stack([labels, labels])
    return codes_to_pool(codes, schema, provenance="train")


def _latent_class_generate(spec: SyntheticGeneratorSpec) -> AgentPool:
    rng = np.random.default_rng(spec.seed)
    widths = spec.widths()
    s = spec.dependence
    # per (class, variable) anchor category; conditional mixes a point mass
    # on the anchor with the uniform distribution
    conditionals = []
    for w in widths:
        anchors = rng.integers(0, w, size=spec.n_classes)
        probs = np.full((spec.n_classes, w), (1.0 - s) / w)
        probs[np.arange(spec.n_classes), anchors] += s
        conditionals.append(probs)
    classes = rng.integers(0, spec.n_classes, size=spec.size)
    # the numeric columns' codes are filled in from their values by AgentPool
    codes = np.zeros((spec.size, spec.n_variables + spec.numeric_variables),
                     dtype=code_dtype([*widths] + [spec.numeric_bins] * spec.numeric_variables))
    for j, probs in enumerate(conditionals):
        codes[:, j] = draw_categories(probs[classes], rng.random(spec.size))
    variables = list(_categorical_variables(widths))
    # optional class-conditional Gaussian numerics for mixed-mode runs
    numeric = np.empty((spec.size, spec.numeric_variables))
    for k in range(spec.numeric_variables):
        means = rng.uniform(-2.0, 2.0, size=spec.n_classes) * (1.0 + 2.0 * s)
        numeric[:, k] = rng.normal(means[classes], 1.0)
        edges = build_uniform_edges(numeric[:, k], spec.numeric_bins)
        variables.append(VariableSpec(f"n{k:02d}", "numerical-cont", bin_edges=tuple(edges)))
    return AgentPool(Schema(tuple(variables), "discretize-all"), codes, numeric, "train")


def bn_ground_truth_model(spec: SyntheticGeneratorSpec) -> tuple[Dag, CptSet]:
    """The fixed random DAG and conditionals behind ``bn-ground-truth``."""
    if spec.kind != "bn-ground-truth":
        raise ConfigError("ground-truth model only exists for the bn-ground-truth kind")
    rng = np.random.default_rng(spec.seed)
    widths = spec.widths()
    n = spec.n_variables
    parents = []
    for node in range(n):
        candidates = [u for u in range(node) if rng.random() < 0.5]
        if len(candidates) > spec.max_parents:
            picked = rng.choice(len(candidates), size=spec.max_parents, replace=False)
            candidates = [candidates[i] for i in sorted(picked)]
        parents.append(tuple(candidates))
    dag = Dag(n, tuple(parents))
    tables = []
    for node in range(n):
        n_combos = int(np.prod([widths[p] for p in parents[node]])) if parents[node] else 1
        table = rng.dirichlet(np.full(widths[node], 0.8), size=n_combos)
        tables.append(table)
    return dag, CptSet(widths, dag.parents, tuple(tables))


def _bn_generate(spec: SyntheticGeneratorSpec) -> AgentPool:
    dag, cpts = bn_ground_truth_model(spec)
    rng = np.random.default_rng(spec.seed + 1)
    codes = ancestral_sample(dag, cpts, spec.size, rng)
    schema = Schema(_categorical_variables(spec.widths()), "discretize-all")
    return codes_to_pool(codes, schema, provenance="train")


def synth_generate(spec: SyntheticGeneratorSpec) -> AgentPool:
    """Generate a benchmark population; the schema rides along in the pool."""
    if spec.kind == "toy-appendix-a":
        return _toy_generate(spec)
    if spec.kind == "latent-class":
        return _latent_class_generate(spec)
    return _bn_generate(spec)
