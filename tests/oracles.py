"""Naive reference implementations for verifying the centrality measures,
the k-means fit, the model file writer and the surrogate digit corpus.

Everything here favors directness over speed: a dense N×N neuron graph,
explicit neighbor loops, exhaustive subset enumeration, per-target linear
systems, textbook Floyd-Warshall, a min-plus product column by column, a
grounded-node resistance solver, one dense (L + J/n)⁻¹, breadth-first
search for components, Lloyd's algorithm run one restart at a time, one
``json.dumps`` of a whole model document, and the digit corpus rendered
one image at a time.  Final scalar reductions use np.sum over operand
arrays assembled in ascending index order, which is what makes exact
comparison against the vectorized library implementations meaningful.
"""

import json
import math
from collections import deque
from itertools import combinations

import numpy as np

from neurotopo.model import GraphView


def strength_naive(weights):
    n = weights.shape[0]
    out = np.empty(n)
    for i in range(n):
        row = np.array([weights[i, j] for j in range(n)])
        out[i] = np.sum(row)
    return out


def avg_neighbor_strength_naive(weights):
    n = weights.shape[0]
    s = strength_naive(weights)
    out = np.full(n, np.nan)
    for i in range(n):
        if s[i] == 0.0:
            continue
        products = np.array([weights[i, j] * s[j] for j in range(n)])
        out[i] = np.sum(products) / s[i]
    return out


def second_order_naive(mask):
    """Per-target solves on the degree-balanced walk (column-zeroed systems)."""
    a = mask.astype(np.float64)
    n = a.shape[0]
    deg = a.sum(axis=1)
    d_max = deg.max()
    p = a / d_max
    p[np.diag_indices_from(p)] += 1.0 - deg / d_max
    out = np.empty(n)
    for i in range(n):
        q = p.copy()
        q[:, i] = 0.0
        m = np.linalg.solve(np.eye(n) - q, np.ones(n))
        out[i] = math.sqrt(max(2.0 * m.sum() - n * (n + 1), 0.0))
    return out


def second_order_montecarlo(mask, node, total_steps=1_000_000, seed=0):
    """Return-time standard deviation of the balanced walk, by simulation."""
    a = mask.astype(np.float64)
    deg = a.sum(axis=1).astype(int)
    d_max = int(deg.max())
    nbrs = [np.flatnonzero(a[i]).tolist() for i in range(a.shape[0])]
    rng = np.random.default_rng(seed)
    draws = rng.integers(0, d_max, size=total_steps)
    pos = node
    t = 0
    times = []
    for step in range(total_steps):
        r = draws[step]
        if r < deg[pos]:
            pos = nbrs[pos][r]
        t += 1
        if pos == node:
            times.append(t)
            t = 0
    return float(np.std(times))


def subgraph_series_naive(mask, terms=31):
    """Truncated closed-walk series sum_{l=0}^{terms-1} (A^l)_ii / l!."""
    a = mask.astype(np.float64)
    n = a.shape[0]
    power = np.eye(n)
    total = np.diag(power).copy()
    fact = 1.0
    for level in range(1, terms):
        power = power @ a
        fact *= level
        total += np.diag(power) / fact
    return total


def max_clique_count_naive(mask):
    """Exhaustive subset enumeration; counts membership in maximum cliques."""
    n = mask.shape[0]
    best_size = 0
    members = []
    for bits in range(1, 1 << n):
        nodes = [i for i in range(n) if bits >> i & 1]
        if len(nodes) < best_size:
            continue
        if all(mask[a, b] for a, b in combinations(nodes, 2)):
            if len(nodes) > best_size:
                best_size = len(nodes)
                members = [nodes]
            else:
                members.append(nodes)
    counts = np.zeros(n)
    for clique in members:
        for v in clique:
            counts[v] += 1
    return counts


def bipartite_clustering_naive(mask):
    """Set-based evaluation of the pairwise-coefficient average."""
    n = mask.shape[0]
    nbrs = [set(np.flatnonzero(mask[i]).tolist()) for i in range(n)]
    out = np.zeros(n)
    for v in range(n):
        second = set()
        for w in nbrs[v]:
            second |= nbrs[w]
        second.discard(v)
        if not second:
            continue
        pcs = np.array(
            [len(nbrs[v] & nbrs[u]) / max(len(nbrs[v]), len(nbrs[u])) for u in sorted(second)]
        )
        out[v] = np.mean(pcs)
    return out


def harmonic_naive(weights, mask):
    """Floyd-Warshall distances, then explicit reciprocal sums."""
    n = weights.shape[0]
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    dist[mask] = weights[mask]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                through = dist[i, k] + dist[k, j]
                if through < dist[i, j]:
                    dist[i, j] = through
    out = np.empty(n)
    for i in range(n):
        recips = [1.0 / dist[j, i] for j in range(n) if j != i and math.isfinite(dist[j, i])]
        out[i] = np.sum(np.array(recips)) if recips else 0.0
    return out


def minplus_naive(a, b):
    """Min-plus matrix product by the plain column loop: out_ij is the
    smallest a_ik + b_kj over the finite b_kj (inf when there is none)."""
    out = np.empty((a.shape[0], b.shape[1]))
    for j in range(b.shape[1]):
        k = np.flatnonzero(np.isfinite(b[:, j]))
        out[:, j] = np.min(a[:, k] + b[k, j], axis=1, initial=np.inf)
    return out


def build_graph_dense(net):
    """(weights, mask, layers) of a layered network's graph as N×N arrays,
    assembled block by block into one dense matrix and its mirror."""
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
        mask[r0:r1, c0:c1] = mask[c0:c1, r0:r1] = True
    return weights, mask, layers


def dense_graph_view(net):
    """The graph of a layered network as one N×N block over one node group."""
    weights, mask, layers = build_graph_dense(net)
    return GraphView((len(layers),), ((0, 0, weights, mask),), layers)


def positive_part(weights, mask):
    """(weights, mask) of the positive view of a dense graph: its edges of weight > 0."""
    keep = mask & (weights > 0.0)
    return np.where(keep, weights, 0.0), keep


def laplacian_pinv_diagonal_dense(w):
    """diag(L⁺) from one dense inverse, (L + J/n)⁻¹ = L⁺ + J/n, for the
    Laplacian of conductances ``w`` on a connected graph."""
    n = w.shape[0]
    return np.diag(np.linalg.inv(np.diag(w.sum(axis=1)) - w + 1.0 / n)) - 1.0 / n


def current_flow_closeness_naive(weights, mask):
    """Effective resistances from a grounded-node Laplacian inverse."""
    w = np.where(mask, weights, 0.0)
    n = w.shape[0]
    lap = np.diag(w.sum(axis=1)) - w
    x = np.linalg.inv(lap[1:, 1:])

    def r_eff(i, j):
        if i == j:
            return 0.0
        if i == 0:
            return x[j - 1, j - 1]
        if j == 0:
            return x[i - 1, i - 1]
        return x[i - 1, i - 1] + x[j - 1, j - 1] - 2.0 * x[i - 1, j - 1]

    out = np.empty(n)
    for i in range(n):
        out[i] = (n - 1) / np.sum(np.array([r_eff(i, j) for j in range(n)]))
    return out


def largest_component_naive(mask):
    """Sorted node ids of the largest connected component, by breadth-first
    search from each unvisited node in ascending order; a size tie keeps the
    component found first, the one holding the smallest node."""
    n = mask.shape[0]
    seen = [False] * n
    best = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        comp = [start]
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in range(n):
                if mask[u, v] and not seen[v]:
                    seen[v] = True
                    comp.append(v)
                    queue.append(v)
        if len(comp) > len(best):
            best = comp
    return sorted(best)


def _squared_distances(x, centers):
    # (r, k) squared Euclidean distances
    return ((x[:, np.newaxis, :] - centers[np.newaxis, :, :]) ** 2).sum(axis=2)


def kmeanspp_naive(x, k, rng):
    r = x.shape[0]
    centers = np.empty((k, x.shape[1]))
    centers[0] = x[rng.integers(r)]
    d2 = ((x - centers[0]) ** 2).sum(axis=1)
    for c in range(1, k):
        total = d2.sum()
        if total > 0.0:
            idx = rng.choice(r, p=d2 / total)
        else:
            idx = rng.integers(r)
        centers[c] = x[idx]
        d2 = np.minimum(d2, ((x - centers[c]) ** 2).sum(axis=1))
    return centers


def lloyd_naive(x, k, rng, rel_tol, max_iter):
    """One restart: (centers, inertia, inertia trace, stopped at max_iter)."""
    centers = kmeanspp_naive(x, k, rng)
    trace = []
    converged = False
    for _ in range(max_iter):
        d2 = _squared_distances(x, centers)
        labels = np.argmin(d2, axis=1)
        point_d2 = d2[np.arange(x.shape[0]), labels]
        trace.append(float(point_d2.sum()))
        new_centers = np.zeros_like(centers)
        counts = np.bincount(labels, minlength=k)
        np.add.at(new_centers, labels, x)
        nonempty = counts > 0
        new_centers[nonempty] /= counts[nonempty, np.newaxis]
        if not np.all(nonempty):
            # revive each empty cluster at the currently worst-fit point
            order = np.argsort(-point_d2, kind="stable")
            used = 0
            for c in np.flatnonzero(~nonempty):
                new_centers[c] = x[order[used]]
                used += 1
        shift = float(np.linalg.norm(new_centers - centers))
        scale = max(float(np.linalg.norm(centers)), 1e-300)
        centers = new_centers
        if shift / scale < rel_tol:
            converged = True
            break
    d2 = _squared_distances(x, centers)
    labels = np.argmin(d2, axis=1)
    inertia = float(d2[np.arange(x.shape[0]), labels].sum())
    return centers, inertia, trace, not converged


def kmeans_naive(x, k, restarts, rel_tol=1e-3, max_iter=300, seed=0):
    """Restarts one by one, each with a generator spawned from ``seed``; the
    lowest inertia wins, ties to the earliest.  Returns the unsorted best
    centers, its inertia, every trace, and the number of max-iter hits."""
    best = None
    traces = []
    hits = 0
    for child in np.random.SeedSequence(seed).spawn(restarts):
        centers, inertia, trace, hit = lloyd_naive(x, k, np.random.default_rng(child), rel_tol, max_iter)
        traces.append(trace)
        hits += hit
        if best is None or inertia < best[1]:
            best = (centers, inertia)
    return best[0], best[1], traces, hits


def model_file_naive(net):
    """The bytes of ``net`` in the nnx-json/1 format: the whole document,
    weights as flat lists of Python floats, in one ``json.dumps`` call."""
    doc = {
        "format": "nnx-json/1",
        "arch": list(net.arch),
        "weights": [w.reshape(-1).tolist() for w in net.weights],
        "meta": dict(net.meta),
    }
    return (json.dumps(doc, allow_nan=False) + "\n").encode("utf-8")


def _render_digit(rng, glyph_rows):
    canvas = np.zeros((28, 28))
    glyph = np.array([[c == "1" for c in row] for row in glyph_rows], dtype=float)
    scale = int(rng.integers(3, 5))
    big = np.kron(glyph, np.ones((scale, scale)))
    h, w = big.shape
    dy = (28 - h) // 2 + int(rng.integers(-2, 3))
    dx = (28 - w) // 2 + int(rng.integers(-2, 3))
    dy = min(max(dy, 0), 28 - h)
    dx = min(max(dx, 0), 28 - w)
    canvas[dy : dy + h, dx : dx + w] = big
    padded = np.pad(canvas, 1)
    blurred = sum(
        padded[1 + a : 29 + a, 1 + b : 29 + b] for a in (-1, 0, 1) for b in (-1, 0, 1)
    ) / 9.0
    contrast = rng.uniform(0.6, 1.0)
    noise = rng.uniform(0.0, 0.15, size=(28, 28))
    img = np.clip(blurred * contrast + noise, 0.0, 1.0)
    return (img * 255).astype(np.uint8)


def synthetic_digits_naive(count, seed, glyphs):
    """The surrogate corpus, one image at a time from ``glyphs`` (ten lists
    of 0/1 row strings): labels first, then each image's draws in turn."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 10, size=count).astype(np.uint8)
    return np.stack([_render_digit(rng, glyphs[d]) for d in labels]), labels
