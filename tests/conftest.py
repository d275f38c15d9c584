import numpy as np
import pytest

from agentsynth.dataset import AgentPool, Schema, VariableSpec


def categorical_schema(widths, mode="discretize-all"):
    """Schema of purely categorical variables with the given widths."""
    variables = tuple(
        VariableSpec(f"x{i:02d}", "categorical", categories=tuple(f"c{v}" for v in range(w)))
        for i, w in enumerate(widths)
    )
    return Schema(variables, mode)


def pool_from_codes(schema, codes, provenance="train"):
    """Build a pool whose categorical values are the given integer codes."""
    rows = []
    for row in np.asarray(codes, dtype=int):
        rows.append(tuple(var.categories[c] for var, c in zip(schema.variables, row)))
    return AgentPool.from_rows(schema, tuple(rows), provenance)


def random_categorical_pool(rng, widths, n_rows, provenance="train"):
    schema = categorical_schema(widths)
    codes = np.column_stack([rng.integers(0, w, size=n_rows) for w in widths])
    return pool_from_codes(schema, codes, provenance)


def toy_schema():
    """Two binary attributes, the smallest population of interest."""
    return Schema(
        (
            VariableSpec("X", "binary", categories=("0", "1")),
            VariableSpec("Y", "binary", categories=("0", "1")),
        ),
        "discretize-all",
    )


def toy_pool(n_each=500):
    """Balanced pool of the two prototypical agents (0,0) and (1,1)."""
    schema = toy_schema()
    rows = tuple([("0", "0")] * n_each + [("1", "1")] * n_each)
    return AgentPool.from_rows(schema, rows, "train")


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
