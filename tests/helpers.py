"""Helpers shared by several test modules."""

import re

import numpy as np

from depgraphs.distributions import _latent_blocks, _rows
from depgraphs.graphs import zero_rows
from depgraphs.predicates import form_syntax

# one text for each field a predicate form reads (predicates.READERS)
FIELD_EXAMPLES = {"pattern": "k3", "k": "3", "low": "1", "high": "3",
                  "t": "0.5", "a": "0,1", "b": "2,3"}


def example_predicate(form: str) -> str:
    """A text of one predicate form, with FIELD_EXAMPLES in its fields."""
    return re.sub(r"<(\w+)>", lambda field: FIELD_EXAMPLES[field[1]],
                  form_syntax(form))


def sample_rows(model, seeds) -> np.ndarray:
    """sample(model, seed).graph for each seed, as one block of (T, n, W)
    row words in the layout of graphs.zero_rows.

    Each trial draws as sample does, from this thread's generator reset to
    its seed, into one row of a block of latent values
    (distributions._latent_blocks), and distributions._rows packs each
    block; no Graph is built.
    """
    seeds = list(map(int, seeds))
    blocks = [_rows(model, drawn) for drawn in _latent_blocks(model, seeds, len(seeds))]
    if len(blocks) == 1:
        return blocks[0]
    return np.concatenate(blocks) if blocks else zero_rows(0, model.n)
