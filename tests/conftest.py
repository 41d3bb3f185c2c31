import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from neurotopo.model import neuron_graph

# entropy prefix keeping the test-graph stream independent of other seeded draws
GRAPH_STREAM = 940221


def random_signed_graph(seed, n_range=(6, 13), edge_prob=0.5):
    """Seeded random graph: 6-12 nodes, iid edges, signed uniform weights."""
    rng = np.random.default_rng(np.random.SeedSequence([GRAPH_STREAM, seed]))
    n = int(rng.integers(*n_range))
    upper = np.triu(rng.random((n, n)) < edge_prob, k=1)
    mask = upper | upper.T
    w = np.zeros((n, n))
    w[upper] = rng.uniform(-1.0, 1.0, size=int(upper.sum()))
    w = w + w.T
    return neuron_graph(weights=w, edge_mask=mask)


def graph_from_edges(n, edges):
    """Small handcrafted graph from (i, j, w) triples."""
    w = np.zeros((n, n))
    mask = np.zeros((n, n), dtype=bool)
    for i, j, weight in edges:
        w[i, j] = w[j, i] = weight
        mask[i, j] = mask[j, i] = True
    return neuron_graph(weights=w, edge_mask=mask)


def unit_graph(n, pairs):
    return graph_from_edges(n, [(i, j, 1.0) for i, j in pairs])


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(7)
