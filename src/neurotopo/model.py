"""Network data model, graph construction, thresholded views, and serialization.

A trained fully connected network is treated as a weighted undirected graph:
one node per neuron (input and output layers included), one edge per synapse
carrying its signed weight.  One type, GraphView, holds that graph and
every read-only view of it as node groups and the blocks between them
(the layers and the weight matrices); two view modes exist
because some measures are defined on the signed graph and the others on its
positive subgraph.
"""

import json
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .artifacts import checked, json_blocks, json_floats, write_text
from .errors import FormatError, StructuralError

MODEL_FORMAT = "nnx-json/1"

VIEW_ORIGINAL = "original-weighted"
VIEW_POSITIVE = "positive-weighted"
VIEW_MODES = (VIEW_ORIGINAL, VIEW_POSITIVE)

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


ALL = slice(None)  # every position, for GraphView.block


@dataclass(frozen=True)
class GraphView:
    """A read-only weighted undirected graph over neurons, or a view of one.

    sizes  -- node count per group; groups hold consecutive positions
    blocks -- (a, b, weights, mask), a <= b: signed weights between groups a
              and b, zero off the boolean edge mask (a zero-weight synapse is
              still an edge); (b, a) is the transpose, unlisted pairs no edge
    layers -- (N,) layer index per position

    The constructor checks nothing: every view the library makes comes from
    build_graph, so its layer parity bipartitions its edges.
    """

    sizes: tuple
    blocks: tuple
    layers: np.ndarray

    @property
    def node_count(self):
        return sum(self.sizes)

    @property
    def offsets(self):
        return [0, *np.cumsum(self.sizes).tolist()]

    @property
    def degrees(self):
        """Edge count per position as float64, block by block (exact in any order)."""
        deg, off = np.zeros(self.node_count), self.offsets
        for a, b, _, m in self.blocks:
            deg[off[a] : off[a + 1]] += np.count_nonzero(m, axis=1)
            if a != b:
                deg[off[b] : off[b + 1]] += np.count_nonzero(m, axis=0)
        return deg

    @property
    def edge_count(self):
        return int(self.degrees.sum()) // 2

    @cached_property
    def labels(self):
        """Connected-component label of each position, read-only and computed
        once per view, by breadth-first search on the frontier's mask rows,
        one frontier at a time.  Components are numbered in the order of
        their smallest node."""
        labels, count = np.full(self.node_count, -1), 0
        for start in range(self.node_count):
            if labels[start] < 0:
                frontier = np.array([start])
                while frontier.size:
                    labels[frontier] = count
                    reached = self.block(frontier, ALL, mask=True).any(axis=0)
                    frontier = np.flatnonzero(reached & (labels < 0))
                count += 1
        return _freeze(labels)

    def block(self, rows, cols, mask=False):
        """The dense weights, or the edge mask, at positions rows × cols
        (slices or strictly ascending index arrays), read-only, assembled
        from the stored blocks."""
        n, off = self.node_count, self.offsets
        (size_r, split_r), (size_c, split_c) = _split(rows, n, off), _split(cols, n, off)
        out = np.zeros((size_r, size_c), dtype=bool if mask else np.float64)
        for a, b, w, m in self.blocks:
            x = m if mask else w
            for p, q, x in ((a, b, x), (b, a, x.T))[: 1 + (a != b)]:
                if split_r[p] and split_c[q]:
                    (i, ri), (j, rj) = split_r[p], split_c[q]
                    if isinstance(ri, np.ndarray) and isinstance(rj, np.ndarray):  # a slice indexes as it is
                        ri, rj = np.ix_(ri, rj)
                    out[i, j] = x[ri, rj]
        return _freeze(out)


def _split(pos, n, offsets):
    """The count of positions ``pos`` (a slice or an index array, which must
    ascend strictly) and per group None if none of them is in it, else
    (the slice of pos they fill, their indices in the group), the indices a
    slice where they run consecutively."""
    pos = np.arange(n)[pos]
    if np.any(pos[1:] <= pos[:-1]):
        raise StructuralError("block positions must ascend strictly")
    cut, parts = np.searchsorted(pos, offsets).tolist(), []
    for a, b, lo in zip(cut, cut[1:], offsets):
        i, k = (int(pos[a]) - lo, int(pos[b - 1]) + 1 - lo) if a < b else (0, 0)
        parts.append(None if a == b else (slice(a, b), slice(i, k) if k - i == b - a else pos[a:b] - lo))
    return pos.size, parts


def build_graph(net: LayeredNetwork) -> GraphView:
    """The neuron graph of a layered network: one group per layer and one
    block per weight matrix, the network's own array.

    Nodes are ordered layer-major: all of layer 0, then layer 1, and so on.
    Edges connect consecutive layers only; the graph is layered-bipartite.
    The network was checked when it was made, and the graph is symmetric,
    loop-free and zero off its mask by construction.
    """
    layers = _freeze(np.repeat(np.arange(len(net.arch)), net.arch))
    blocks = tuple((a, a + 1, w, np.broadcast_to(True, w.shape)) for a, w in enumerate(net.weights))
    return GraphView(net.arch, blocks, layers)


def threshold_view(view: GraphView, mode: str) -> GraphView:
    """A view of the graph in one of the two modes.

    The original mode is the view itself.  The positive mode keeps exactly
    the edges with weight strictly greater than zero, with their weights;
    the node set is never reduced (isolated nodes are permitted).
    """
    if mode not in VIEW_MODES:
        raise StructuralError(f"unknown view mode {mode!r}; expected one of {VIEW_MODES}")
    if mode == VIEW_ORIGINAL:
        return view
    kept = [(a, b, w, _freeze(m & (w > 0.0))) for a, b, w, m in view.blocks]
    return replace(view, blocks=tuple((a, b, _freeze(np.where(m, w, 0.0)), m) for a, b, w, m in kept))


def largest_component(view: GraphView):
    """The largest connected component of a view as (keep, view): its
    positions, ascending, and the view restricted to them, which is the
    argument itself when the view is one component.

    Ties in component size go to the component containing the smallest
    position.  A view with no edges at all yields its first node alone.
    """
    if view.node_count == 0:
        raise StructuralError("empty view")
    labels = view.labels
    # argmax takes the first largest label, the one holding the smallest node
    keep = np.flatnonzero(labels == np.argmax(np.bincount(labels)))
    if keep.size == view.node_count:
        return keep, view
    off = view.offsets
    local = [keep[(keep >= lo) & (keep < hi)] - lo for lo, hi in zip(off, off[1:])]
    blocks = tuple((a, b, *(_freeze(x[np.ix_(local[a], local[b])]) for x in (w, m)))
                   for a, b, w, m in view.blocks)
    return keep, GraphView(tuple(len(x) for x in local), blocks, _freeze(view.layers[keep]))


def save_model(net: LayeredNetwork, path) -> None:
    """Write a network in the nnx-json/1 format (full 64-bit weight precision):
    the layout load_model reads, piece by piece, each matrix as one flat
    row-major list of floats (``artifacts.json_floats``)."""
    meta = json.dumps(net.meta, allow_nan=False)  # before the file is opened

    def pieces():
        yield '{"format": ' + json.dumps(MODEL_FORMAT) + ', "arch": ' + json.dumps(list(net.arch))
        for a, w in enumerate(net.weights):
            yield ', [' if a else ', "weights": [['
            yield from json_floats(w.reshape(-1))
        yield '], "meta": ' + meta + "}\n"

    write_text(path, pieces())


def load_model(path) -> LayeredNetwork:
    """Read a network written by save_model, validating every field.

    The file must have save_model's layout: its keys in that order and
    ``json.dumps`` separators.  Each weights matrix is decoded in bounded
    pieces straight into its array (``artifacts.JsonBlocks``)."""
    with json_blocks(path) as doc:
        doc.expect('{"format": ')
        fmt = doc.value()
        if fmt != MODEL_FORMAT:
            raise FormatError(f"{path}: format: expected {MODEL_FORMAT!r}, got {fmt!r}")
        doc.expect(', "arch": ')
        arch = doc.value()
        if not isinstance(arch, list) or len(arch) < 2 or not all(type(x) is int and x >= 1 for x in arch):
            raise FormatError(f"{path}: arch: must be a list of >= 2 positive integers")
        weights = []
        for a in range(len(arch) - 1):
            doc.expect(', [' if a else ', "weights": [[')
            weights.append(doc.floats(arch[a] * arch[a + 1], f"weights[{a}]").reshape(arch[a], arch[a + 1]))
        doc.expect('], "meta": ')
        meta = doc.value()
        doc.expect("}")
        doc.end()
    if not isinstance(meta, dict):
        raise FormatError(f"{path}: meta: must be an object")
    try:
        for key, types, bounds in (("seed", int, None), ("dataset_id", str, None), ("epochs", int, None),
                                   ("train_acc", (int, float), (0, 1)), ("test_acc", (int, float), (0, 1))):
            checked(meta, key, types, bounds)
        return LayeredNetwork(arch=tuple(arch), weights=tuple(weights), meta=meta)
    except ValueError as exc:
        raise FormatError(f"{path}: meta.{exc}") from None
    except StructuralError as exc:
        raise FormatError(f"{path}: {exc}") from exc
