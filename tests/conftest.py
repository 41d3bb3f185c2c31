import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from neurotopo.model import LayeredNetwork, build_graph

# entropy prefix keeping the test-network stream independent of other seeded draws
GRAPH_STREAM = 940221


def random_layered_net(seed):
    """Seeded random layered network: 2-4 layers of 6-12 neurons in all,
    uniform(-1, 1) weights, about one in ten of them exactly zero.  Seeds
    0 mod 10 have no positive synapse, and seeds 5 mod 10 with a hidden layer
    isolate one hidden neuron in the positive view."""
    rng = np.random.default_rng(np.random.SeedSequence([GRAPH_STREAM, seed]))
    n, depth = int(rng.integers(6, 13)), int(rng.integers(1, 4))
    arch = np.diff([0, *np.sort(rng.choice(np.arange(1, n), size=depth, replace=False)), n]).tolist()
    weights = [np.where(rng.random((a, b)) < 0.1, 0.0, rng.uniform(-1.0, 1.0, size=(a, b)))
               for a, b in zip(arch, arch[1:])]
    if seed % 10 == 0:
        weights = [-np.abs(w) for w in weights]
    elif seed % 10 == 5 and depth > 1:
        h = int(rng.integers(arch[1]))
        weights[0][:, h] = -np.abs(weights[0][:, h])
        weights[1][h] = -np.abs(weights[1][h])
    return LayeredNetwork(arch=tuple(arch), weights=weights)


def layered_graph(arch, *weights):
    """The graph of a small handcrafted layered network, weights as nested lists."""
    return build_graph(LayeredNetwork(arch=arch, weights=weights))


def ones_graph(arch):
    """The graph of a layered network whose every weight is 1: (1, 1) is K2,
    (1, 1, 1) P3, (2, 2) K2,2 and (1, 3) a star around node 0."""
    return layered_graph(arch, *(np.ones((a, b)) for a, b in zip(arch, arch[1:])))


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(7)
