"""References independent of neurotopo's own functions, for output checks.

Models and IDX files are parsed here from their documented byte formats.
Centrality comes from networkx graphs and routines, or from textbook linear
algebra on networkx's matrices where networkx's own routine would take
minutes at these sizes (so) or seconds of Python loops (cfc); training is
re-run from the documented algorithm (uniform init per layer from the
weight seed, one permutation per epoch from the data seed, plain SGD on
softmax cross-entropy).
"""

import json
import math
import struct

import numpy as np

# hidden neurons checked for the measures that cost a solve per neuron
SAMPLED = 4

# tolerances of the acceptance suite's oracle checks, whose graphs are small
# and whose values are of order 1.  Each bounds |value - reference| / scale.
# Sums whose order differs from networkx's are held to round-off of their
# terms' magnitude; sg, which reaches e^lambda_max here, is held relatively;
# hc and so use max(1, |value|); cfc also scales by how much its resistance
# sum cancels (see _current_flow_closeness).
TOL = {"s": 1e-12, "snn": 1e-12, "bc": 1e-12, "mc": 0.0, "hc": 1e-9, "cfc": 1e-9, "so": 1e-6, "sg": 1e-8}


def read_model(path):
    """(arch, weights, meta) of an nnx-json/1 file."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("format") != "nnx-json/1":
        raise ValueError(f"{path}: format {doc.get('format')!r}")
    arch = doc["arch"]
    if len(doc["weights"]) != len(arch) - 1:
        raise ValueError(f"{path}: {len(doc['weights'])} weight matrices for arch {arch}")
    weights = []
    for a, flat in enumerate(doc["weights"]):
        if len(flat) != arch[a] * arch[a + 1]:
            raise ValueError(f"{path}: weights[{a}] holds {len(flat)} values")
        weights.append(np.array(flat, dtype=np.float64).reshape(arch[a], arch[a + 1]))
    return arch, weights, doc["meta"]


def read_idx(images_path, labels_path):
    """Images scaled to [0, 1] and labels of an uncompressed IDX pair."""
    with open(images_path, "rb") as fh:
        magic, n, rows, cols = struct.unpack(">IIII", fh.read(16))
        images = np.frombuffer(fh.read(), dtype=np.uint8)
    with open(labels_path, "rb") as fh:
        lmagic, ln = struct.unpack(">II", fh.read(8))
        labels = np.frombuffer(fh.read(), dtype=np.uint8)
    if (magic, lmagic) != (0x803, 0x801) or ln != n or images.size != n * rows * cols:
        raise ValueError(f"{images_path}: not an IDX image/label pair")
    return images.reshape(n, rows * cols) / 255.0, labels.astype(np.int64)


def _graphs(nx, arch, weights):
    """networkx graphs of the three views, nodes numbered layer-major."""
    offsets = np.concatenate([[0], np.cumsum(arch)])
    n = int(offsets[-1])
    views = {mode: nx.Graph() for mode in ("original", "positive", "unweighted")}
    for g in views.values():
        g.add_nodes_from(range(n))
    for a, w in enumerate(weights):
        rows, cols = np.indices(w.shape)
        u = (rows + offsets[a]).ravel().tolist()
        v = (cols + offsets[a + 1]).ravel().tolist()
        wf = w.ravel().tolist()
        views["original"].add_weighted_edges_from(zip(u, v, wf))
        pos = [(i, j, x) for i, j, x in zip(u, v, wf) if x > 0.0]
        views["positive"].add_weighted_edges_from(pos)
        views["unweighted"].add_edges_from((i, j) for i, j, _ in pos)
    return views, offsets


def _largest_component(nx, g):
    """Largest connected component; ties to the one holding the smallest node."""
    comps = [sorted(c) for c in nx.connected_components(g)]
    best = max(len(c) for c in comps)
    return min((c for c in comps if len(c) == best), key=lambda c: c[0])


def _second_order(nx, g, nodes):
    """Return-time std of the degree-balanced walk, one solve per target."""
    order = sorted(g.nodes)
    a = nx.to_numpy_array(g, nodelist=order, weight=None)
    n = a.shape[0]
    deg = a.sum(axis=1)
    p = a / deg.max()
    p[np.diag_indices(n)] += 1.0 - deg / deg.max()
    pos = {v: i for i, v in enumerate(order)}
    out = {}
    for v in nodes:
        q = p.copy()
        q[:, pos[v]] = 0.0
        passage = np.linalg.solve(np.eye(n) - q, np.ones(n))
        out[v] = math.sqrt(max(2.0 * passage.sum() - n * (n + 1), 0.0))
    return out


def _current_flow_closeness(nx, g):
    """(n-1) / sum of effective resistances, from the node-0-grounded Laplacian.

    The scale returned with each value is max(1, |value|) times how much
    the resistance sum cancels (sum of |r| over |sum of r|): on signed
    weights the sum can nearly cancel, and then two correct solvers agree
    only to that factor times their round-off.
    """
    order = sorted(g.nodes)
    n = len(order)
    lap = nx.laplacian_matrix(g, nodelist=order, weight="weight").toarray()
    potential = np.zeros((n, n))
    potential[1:, 1:] = np.linalg.inv(lap[1:, 1:])
    d = np.diag(potential)
    r = d[:, np.newaxis] + d[np.newaxis, :] - 2.0 * potential
    total = r.sum(axis=1)
    cancel = np.abs(r).sum(axis=1) / np.abs(total)
    out = {}
    for i, v in enumerate(order):
        value = (n - 1) / total[i]
        out[v] = (value, max(1.0, abs(value)) * max(1.0, cancel[i]))
    return out


def hidden_measures(model_path, measures):
    """Reference values for the hidden neurons of one model.

    Returns {measure: {node: (value, scale)}} keyed by layer-major node id,
    where ``scale`` is what the measure's tolerance is multiplied by.  ``hc``
    and ``so`` cost one shortest-path run or one dense solve per node, so
    they are computed for SAMPLED evenly spaced hidden neurons only.
    """
    import networkx as nx

    arch, weights, _ = read_model(model_path)
    views, offsets = _graphs(nx, arch, weights)
    hidden = list(range(int(offsets[1]), int(offsets[-2])))
    picks = [hidden[i] for i in np.linspace(0, len(hidden) - 1, SAMPLED).astype(int)]
    orig, posw, unw = views["original"], views["positive"], views["unweighted"]
    ref = {}
    if "s" in measures or "snn" in measures:
        strength = dict(orig.degree(weight="weight"))
        ref["s"], ref["snn"] = {}, {}
        for v in hidden:
            terms = [(d["weight"], strength[u]) for u, d in orig.adj[v].items()]
            s_abs = math.fsum(abs(w) for w, _ in terms)
            ref["s"][v] = (strength[v], s_abs)
            if strength[v] == 0.0:
                ref["snn"][v] = (math.nan, 1.0)
                continue
            snn = math.fsum(w * su for w, su in terms) / strength[v]
            # round-off of the numerator plus that of the strength it is divided by
            scale = (math.fsum(abs(w * su) for w, su in terms) + abs(snn) * s_abs) / abs(strength[v])
            ref["snn"][v] = (snn, scale)
    if "sg" in measures:
        sg = nx.subgraph_centrality(unw)
        ref["sg"] = {v: (sg[v], abs(sg[v])) for v in hidden}
    if "bc" in measures:
        bc = nx.bipartite.latapy_clustering(unw, nodes=hidden, mode="max")
        ref["bc"] = {v: (bc[v], 1.0) for v in hidden}
    if "mc" in measures:
        cliques = list(nx.find_cliques(unw))
        size = max(len(c) for c in cliques)
        counts = dict.fromkeys(hidden, 0)
        for c in cliques:
            if len(c) == size:
                for v in c:
                    if v in counts:
                        counts[v] += 1
        ref["mc"] = {v: (float(n), 1.0) for v, n in counts.items()}
    if "hc" in measures:
        ref["hc"] = {}
        for v in picks:
            dist = nx.single_source_dijkstra_path_length(posw, v, weight="weight")
            hc = math.fsum(1.0 / d for u, d in dist.items() if u != v)
            ref["hc"][v] = (hc, max(1.0, abs(hc)))
    if "so" in measures:
        comp = set(_largest_component(nx, unw))
        ref["so"] = {v: (math.nan, 1.0) for v in hidden if v not in comp}
        so = _second_order(nx, unw.subgraph(comp), [v for v in picks if v in comp])
        ref["so"].update((v, (x, max(1.0, abs(x)))) for v, x in so.items())
    if "cfc" in measures:
        comp = _largest_component(nx, orig)
        cfc = _current_flow_closeness(nx, orig.subgraph(comp))
        ref["cfc"] = {v: cfc.get(v, (math.nan, 1.0)) for v in hidden}
    return ref


def compare(measure, got, want, scale):
    """Whether a neurotopo value matches its reference at the measure's tolerance."""
    if math.isnan(want) or math.isnan(got):
        return math.isnan(want) and math.isnan(got)
    return abs(got - want) <= TOL[measure] * scale


def train_reference(arch, weight_seed, data_seed, images, labels, epochs, lr, batch, half_range):
    """Weights after plain SGD, following the documented trainer algorithm."""
    rng = np.random.default_rng(weight_seed)
    weights = [rng.uniform(-half_range, half_range, size=(arch[a], arch[a + 1]))
               for a in range(len(arch) - 1)]
    order = np.random.default_rng(data_seed)
    n = images.shape[0]
    for _ in range(epochs):
        perm = order.permutation(n)
        for start in range(0, n, batch):
            idx = perm[start:start + batch]
            acts = [images[idx]]
            for a, w in enumerate(weights):
                z = acts[-1] @ w
                acts.append(np.maximum(z, 0.0) if a < len(weights) - 1 else z)
            logits = acts[-1]
            e = np.exp(logits - logits.max(axis=1, keepdims=True))
            delta = e / e.sum(axis=1, keepdims=True)
            delta[np.arange(len(idx)), labels[idx]] -= 1.0
            delta /= len(idx)
            grads = [None] * len(weights)
            for a in range(len(weights) - 1, -1, -1):
                grads[a] = acts[a].T @ delta
                if a > 0:
                    delta = (delta @ weights[a].T) * (acts[a] > 0.0)
            weights = [w - lr * g for w, g in zip(weights, grads)]
    return weights


def accuracy(weights, images, labels):
    """Fraction of argmax-correct predictions of a ReLU stack with linear output."""
    h = images
    for a, w in enumerate(weights):
        h = h @ w
        if a < len(weights) - 1:
            h = np.maximum(h, 0.0)
    return float(np.mean(np.argmax(h, axis=1) == labels))
