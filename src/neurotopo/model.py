"""Network data model, graph construction, thresholded views, and serialization.

A trained fully connected network is treated as a weighted undirected graph:
one node per neuron (input and output layers included), one edge per synapse
carrying its signed weight.  Centrality code consumes read-only views of that
graph; three view modes exist because different measures are defined on the
signed graph, on the positive subgraph, or on its binarized form.
"""

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .artifacts import read_json, write_json
from .errors import FormatError, StructuralError

MODEL_FORMAT = "nnx-json/1"

VIEW_ORIGINAL = "original-weighted"
VIEW_POSITIVE = "positive-weighted"
VIEW_POSITIVE_UNWEIGHTED = "positive-unweighted"
VIEW_MODES = (VIEW_ORIGINAL, VIEW_POSITIVE, VIEW_POSITIVE_UNWEIGHTED)

_META_REQUIRED = {
    "seed": (int,),
    "dataset_id": (str,),
    "epochs": (int,),
    "train_acc": (int, float),
    "test_acc": (int, float),
}


def _freeze(a):
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class LayeredNetwork:
    """A trained bias-free fully connected network.

    arch     -- layer sizes [l_0, ..., l_d]
    weights  -- d matrices; weights[a] has shape (l_a, l_{a+1})
    meta     -- training metadata (seed, dataset_id, epochs, train/test acc);
                unknown keys are carried along and survive serialization
    """

    arch: tuple
    weights: tuple
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        arch = tuple(int(x) for x in self.arch)
        if len(arch) < 2 or any(x < 1 for x in arch):
            raise StructuralError(f"arch must list >= 2 positive layer sizes, got {arch}")
        weights = tuple(np.ascontiguousarray(w, dtype=np.float64) for w in self.weights)
        if len(weights) != len(arch) - 1:
            raise StructuralError(
                f"expected {len(arch) - 1} weight matrices for arch {arch}, got {len(weights)}"
            )
        for a, w in enumerate(weights):
            want = (arch[a], arch[a + 1])
            if w.shape != want:
                raise StructuralError(f"weights[{a}]: expected shape {want}, got {w.shape}")
            if not np.all(np.isfinite(w)):
                raise StructuralError(f"weights[{a}]: non-finite values present")
        object.__setattr__(self, "arch", arch)
        object.__setattr__(self, "weights", tuple(_freeze(w) for w in weights))

    @property
    def depth(self):
        """Number of weight matrices d."""
        return len(self.arch) - 1

    @property
    def synapse_count(self):
        return int(sum(a * b for a, b in zip(self.arch[:-1], self.arch[1:])))


@dataclass(frozen=True)
class NeuronGraph:
    """Weighted undirected graph over all neurons.

    weights   -- (N, N) symmetric signed weight matrix, zero off the edge set
    edge_mask -- (N, N) symmetric boolean edge-existence matrix (a synapse of
                 weight zero is still an edge)
    layers    -- (N,) layer index per node, or None for graphs that did not
                 come from a layered network
    """

    weights: np.ndarray
    edge_mask: np.ndarray
    layers: np.ndarray | None = None

    def __post_init__(self):
        w = np.ascontiguousarray(self.weights, dtype=np.float64)
        m = np.ascontiguousarray(self.edge_mask, dtype=bool)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise StructuralError(f"weight matrix must be square, got {w.shape}")
        if m.shape != w.shape:
            raise StructuralError("edge mask and weight matrix shapes differ")
        if not np.array_equal(w, w.T) or not np.array_equal(m, m.T):
            raise StructuralError("graph must be symmetric")
        if not np.all(np.isfinite(w)):
            raise StructuralError("non-finite edge weights")
        if np.any(np.diag(m)):
            raise StructuralError("self-loops are not allowed")
        if np.any(w[~m] != 0.0):
            raise StructuralError("nonzero weight outside the edge set")
        layers = self.layers
        if layers is not None:
            layers = np.ascontiguousarray(layers, dtype=np.int64)
            if layers.shape != (w.shape[0],):
                raise StructuralError("layer tags must be one per node")
            layers = _freeze(layers)
        object.__setattr__(self, "weights", _freeze(w))
        object.__setattr__(self, "edge_mask", _freeze(m))
        object.__setattr__(self, "layers", layers)

    @classmethod
    def from_adjacency(cls, weights, edge_mask=None, layers=None):
        """Build a graph from a symmetric weight matrix.

        With edge_mask omitted, every nonzero entry is an edge; pass the mask
        explicitly when zero-weight edges must be represented.
        """
        w = np.asarray(weights, dtype=np.float64)
        mask = (w != 0.0) if edge_mask is None else np.asarray(edge_mask, dtype=bool)
        return cls(weights=w, edge_mask=mask, layers=layers)

    @property
    def node_count(self):
        return self.weights.shape[0]

    @property
    def edge_count(self):
        return int(self.edge_mask.sum()) // 2


@dataclass(frozen=True)
class GraphView:
    """A read-only thresholded view of a NeuronGraph.

    node_ids maps view positions to node ids of the base graph, so views
    restricted to a component keep their provenance.
    """

    base: NeuronGraph
    mode: str
    node_ids: np.ndarray
    weights: np.ndarray
    edge_mask: np.ndarray

    @property
    def node_count(self):
        return self.weights.shape[0]

    @property
    def edge_count(self):
        return int(self.edge_mask.sum()) // 2

    @property
    def layers(self):
        if self.base.layers is None:
            return None
        return self.base.layers[self.node_ids]


class LargestComponent(NamedTuple):
    view: GraphView
    dropped: np.ndarray  # base-graph node ids not in the component
    trivial: bool  # True when the view had no edges at all


def build_graph(net: LayeredNetwork) -> NeuronGraph:
    """Assemble the neuron graph of a layered network.

    Nodes are ordered layer-major: all of layer 0, then layer 1, and so on.
    Edges connect consecutive layers only; the graph is layered-bipartite.
    """
    n = int(sum(net.arch))
    weights = np.zeros((n, n), dtype=np.float64)
    mask = np.zeros((n, n), dtype=bool)
    layers = np.concatenate([np.full(sz, i, dtype=np.int64) for i, sz in enumerate(net.arch)])
    offsets = np.concatenate([[0], np.cumsum(net.arch)])
    for a, w in enumerate(net.weights):
        r0, r1 = offsets[a], offsets[a + 1]
        c0, c1 = offsets[a + 1], offsets[a + 2]
        weights[r0:r1, c0:c1] = w
        weights[c0:c1, r0:r1] = w.T
        mask[r0:r1, c0:c1] = True
        mask[c0:c1, r0:r1] = True
    return NeuronGraph(weights=weights, edge_mask=mask, layers=layers)


def threshold_view(graph: NeuronGraph, mode: str) -> GraphView:
    """Produce a view of the graph in one of the three modes.

    Positive modes keep exactly the edges with weight strictly greater than
    zero; the node set is never reduced (isolated nodes are permitted).  The
    positive-unweighted mode assigns weight 1 to every retained edge.
    """
    if mode not in VIEW_MODES:
        raise StructuralError(f"unknown view mode {mode!r}; expected one of {VIEW_MODES}")
    if mode == VIEW_ORIGINAL:
        mask = graph.edge_mask
        weights = graph.weights
    else:
        mask = graph.edge_mask & (graph.weights > 0.0)
        weights = np.where(mask, graph.weights, 0.0) if mode == VIEW_POSITIVE else mask.astype(np.float64)
    return GraphView(
        base=graph,
        mode=mode,
        node_ids=np.arange(graph.node_count),
        weights=np.asarray(weights, dtype=np.float64),
        edge_mask=np.asarray(mask, dtype=bool),
    )


def component_labels(edge_mask):
    """Connected components of a boolean adjacency matrix as (count, labels),
    by breadth-first search on the dense mask, one frontier at a time.
    Components are numbered in the order of their smallest node."""
    labels = np.full(edge_mask.shape[0], -1)
    count = 0
    for start in range(edge_mask.shape[0]):
        if labels[start] < 0:
            frontier = np.array([start])
            while frontier.size:
                labels[frontier] = count
                frontier = np.flatnonzero(edge_mask[frontier].any(axis=0) & (labels < 0))
            count += 1
    return count, labels


def largest_component(view: GraphView) -> LargestComponent:
    """Restrict a view to its largest connected component.

    Ties in component size go to the component containing the smallest node
    id.  A view with no edges at all yields the single smallest node, with
    the result flagged trivial.
    """
    if view.node_count == 0:
        raise StructuralError("empty view")
    _, labels = component_labels(view.edge_mask)
    # argmax takes the first largest label, the one holding the smallest node
    inside = labels == np.argmax(np.bincount(labels))
    keep = np.flatnonzero(inside)
    sub = view if keep.size == view.node_count else GraphView(
        base=view.base,
        mode=view.mode,
        node_ids=view.node_ids[keep],
        weights=view.weights[np.ix_(keep, keep)],
        edge_mask=view.edge_mask[np.ix_(keep, keep)],
    )
    return LargestComponent(view=sub, dropped=view.node_ids[~inside], trivial=view.edge_count == 0)


def save_model(net: LayeredNetwork, path) -> None:
    """Write a network in the nnx-json/1 format (full 64-bit weight precision)."""
    doc = {
        "format": MODEL_FORMAT,
        "arch": list(net.arch),
        "weights": [w.reshape(-1) for w in net.weights],
        "meta": dict(net.meta),
    }
    write_json(path, doc)


def load_model(path) -> LayeredNetwork:
    """Read a network written by save_model, validating every field."""
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: top-level value must be an object")
    if doc.get("format") != MODEL_FORMAT:
        raise FormatError(f"{path}: format: expected {MODEL_FORMAT!r}, got {doc.get('format')!r}")
    arch = doc.get("arch")
    if not isinstance(arch, list) or len(arch) < 2 or not all(type(x) is int and x >= 1 for x in arch):
        raise FormatError(f"{path}: arch: must be a list of >= 2 positive integers")
    flat = doc.get("weights")
    if not isinstance(flat, list) or len(flat) != len(arch) - 1:
        raise FormatError(f"{path}: weights: expected {len(arch) - 1} matrices")
    weights = []
    for a, values in enumerate(flat):
        want = arch[a] * arch[a + 1]
        if not isinstance(values, list) or len(values) != want:
            got = len(values) if isinstance(values, list) else type(values).__name__
            raise FormatError(f"{path}: weights[{a}]: expected {want} values, got {got}")
        # save_model writes floats only; numpy would also take "0.5", true or [0.5]
        if not all(type(x) is float for x in values):
            odd = next(x for x in values if type(x) is not float)
            raise FormatError(f"{path}: weights[{a}]: expected JSON floats, got {odd!r}")
        weights.append(np.array(values, dtype=np.float64).reshape(arch[a], arch[a + 1]))
    meta = doc.get("meta")
    if not isinstance(meta, dict):
        raise FormatError(f"{path}: meta: must be an object")
    for key, types in _META_REQUIRED.items():
        if key not in meta:
            raise FormatError(f"{path}: meta.{key}: missing")
        if not isinstance(meta[key], types) or isinstance(meta[key], bool):
            raise FormatError(f"{path}: meta.{key}: expected {types[0].__name__}")
    try:
        return LayeredNetwork(arch=tuple(arch), weights=tuple(weights), meta=meta)
    except StructuralError as exc:
        raise FormatError(f"{path}: {exc}") from exc
