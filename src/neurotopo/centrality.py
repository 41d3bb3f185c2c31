"""Per-neuron centrality measures on weighted undirected graphs.

Eight measures are provided, each bound to the graph view it is defined on:

    id    view                 meaning
    s     original-weighted    strength (signed weighted degree)
    snn   original-weighted    average neighbor strength
    so    positive-unweighted  second-order centrality (return-time std)
    sg    positive-unweighted  subgraph centrality (closed-walk sum)
    mc    positive-unweighted  participation in maximum cliques
    bc    positive-unweighted  bipartite local clustering
    hc    positive-weighted    harmonic centrality (weighted shortest paths)
    cfc   original-weighted    current-flow closeness (effective resistance)

All functions return one value per view node, as a float64 vector.  Undefined
values are NaN, never silent zeros.  ``measure_all`` runs a selection of
measures on a layered network and keeps the hidden-neuron rows only.
"""

import math
import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra

from .artifacts import read_csv_rows, write_csv
from .errors import FormatError, NumericalError, ResourceBudgetError, StructuralError
from .model import (
    VIEW_ORIGINAL,
    VIEW_POSITIVE,
    VIEW_POSITIVE_UNWEIGHTED,
    LayeredNetwork,
    build_graph,
    largest_component,
    threshold_view,
)

# radicand round-off this small is clamped to zero; anything lower is an error
SO_RADICAND_TOL = 1e-9


@dataclass(frozen=True)
class MeasureInfo:
    id: str
    view_mode: str
    cost_rank: int  # lower = cheaper to compute; used by the redundancy filter
    needs_connected: bool


MEASURES = {
    "s": MeasureInfo("s", VIEW_ORIGINAL, 1, False),
    "snn": MeasureInfo("snn", VIEW_ORIGINAL, 2, False),
    "so": MeasureInfo("so", VIEW_POSITIVE_UNWEIGHTED, 6, True),
    "sg": MeasureInfo("sg", VIEW_POSITIVE_UNWEIGHTED, 7, False),
    "mc": MeasureInfo("mc", VIEW_POSITIVE_UNWEIGHTED, 4, False),
    "bc": MeasureInfo("bc", VIEW_POSITIVE_UNWEIGHTED, 3, False),
    "hc": MeasureInfo("hc", VIEW_POSITIVE, 5, False),
    "cfc": MeasureInfo("cfc", VIEW_ORIGINAL, 8, True),
}

MEASURE_ORDER = ("s", "snn", "so", "sg", "mc", "bc", "hc", "cfc")

CSV_FIXED_COLUMNS = ("network_id", "layer", "neuron")


def strength(view):
    """Signed weighted degree: sum of incident edge weights per node."""
    return view.weights.sum(axis=1)


def avg_neighbor_strength(view):
    """Edge-weighted mean of neighbor strengths; NaN where strength is zero."""
    s = strength(view)
    num = (view.weights * s[np.newaxis, :]).sum(axis=1)
    out = np.full(view.node_count, np.nan)
    nz = s != 0.0
    out[nz] = num[nz] / s[nz]
    return out


def balanced_transition_matrix(mask):
    """Transition matrix of the unbiased walk on a binarized graph.

    Every node receives a self-loop topping its degree up to the maximum
    degree, which makes the walk's stationary law uniform.  The return-time
    standard deviation of this balanced walk is what the second-order
    formula computes; without the balancing its radicand can go negative on
    irregular graphs.
    """
    a = mask.astype(np.float64)
    deg = a.sum(axis=1)
    d_max = deg.max()
    if d_max == 0:
        raise StructuralError("second-order centrality requires at least one edge")
    p = a / d_max
    p[np.diag_indices_from(p)] += 1.0 - deg / d_max
    return p


def second_order(view):
    """Standard deviation of return times of a perpetual unbiased random walk.

    Works on the binarized view adjacency, degree-balanced with self-loops.
    Mean first-passage times come from the fundamental matrix of the walk's
    Markov chain (one exact linear solve); the diagonal is the stationary
    return time, which equals the node count for the balanced walk.  No
    simulation is involved.
    """
    n = view.node_count
    if n < 2:
        raise StructuralError("second-order centrality needs at least 2 nodes")
    ncomp, _ = connected_components(view.edge_mask.astype(np.int8), directed=False)
    if ncomp != 1:
        raise StructuralError("second-order centrality requires a connected view")
    p = balanced_transition_matrix(view.edge_mask)
    z = np.linalg.inv(np.eye(n) - p + np.full((n, n), 1.0 / n))
    # sum over j != i of first-passage times n*(z_ii - z_ji), plus return time n
    col = n * (n * np.diag(z) - z.sum(axis=0) + 1.0)
    radicand = 2.0 * col - n * (n + 1)
    bad = radicand < -SO_RADICAND_TOL
    if np.any(bad):
        raise NumericalError(
            f"second-order radicand fell below -{SO_RADICAND_TOL:g} at node {int(np.argmax(bad))}"
        )
    return np.sqrt(np.clip(radicand, 0.0, None))


def subgraph_centrality(view):
    """Closed-walk sum per node from the spectrum of the binarized adjacency."""
    a = view.edge_mask.astype(np.float64)
    try:
        lam, u = scipy.linalg.eigh(a)
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover - eigh on symmetric rarely fails
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc
    return (u * u) @ np.exp(lam)


def _iter_bits(x):
    while x:
        b = x & -x
        yield b.bit_length() - 1
        x ^= b


def max_clique_count(view, max_cliques=10_000_000, time_budget=300.0):
    """Number of maximum cliques each node participates in.

    Maximal cliques are enumerated depth-first with pivoting on the node
    covering the most candidates; only cliques of globally maximum
    cardinality are counted.  A graph with no edges has clique number 1 and
    every node participates once.  Enumerating more than ``max_cliques``
    maximal cliques or running past ``time_budget`` seconds is an error: the
    underlying problem is NP-complete and budgets keep it honest.
    """
    n = view.node_count
    nbr = [0] * n
    rows, cols = np.nonzero(view.edge_mask)
    for i, j in zip(rows.tolist(), cols.tolist()):
        nbr[i] |= 1 << j
    counts = np.zeros(n, dtype=np.int64)
    best_size = 0
    seen = 0
    deadline = time.monotonic() + time_budget

    def report(r_mask, size):
        nonlocal best_size, counts, seen
        seen += 1
        if seen > max_cliques:
            raise ResourceBudgetError(f"more than {max_cliques} maximal cliques")
        if not seen % 1024 and time.monotonic() > deadline:
            raise ResourceBudgetError(f"clique enumeration exceeded {time_budget:g} s")
        if size > best_size:
            best_size = size
            counts[:] = 0
        if size == best_size:
            for v in _iter_bits(r_mask):
                counts[v] += 1

    def expand(r_mask, r_size, p, x):
        if not p and not x:
            report(r_mask, r_size)
            return
        pivot = -1
        pivot_cover = -1
        for u in _iter_bits(p | x):
            cover = (p & nbr[u]).bit_count()
            if cover > pivot_cover:
                pivot_cover = cover
                pivot = u
        for v in _iter_bits(p & ~nbr[pivot]):
            bit = 1 << v
            expand(r_mask | bit, r_size + 1, p & nbr[v], x & nbr[v])
            p &= ~bit
            x |= bit

    expand(0, 0, (1 << n) - 1, 0)
    return counts.astype(np.float64)


def bipartite_clustering(view):
    """Second-neighbor overlap clustering (pairwise coefficient |N∩N|/max).

    For each node the pairwise coefficient is averaged over the node's
    second-order neighborhood (neighbors of neighbors, excluding the node
    itself); nodes without second-order neighbors score a defined zero.
    """
    a = view.edge_mask.astype(np.float64)
    n = view.node_count
    deg = a.sum(axis=1)
    common = a @ a  # common[v, u] = |N(v) ∩ N(u)|, exact small integers
    out = np.zeros(n)
    idx = np.arange(n)
    for v in range(n):
        cand = (common[v] >= 1.0) & (idx != v)
        if not np.any(cand):
            continue
        pc = common[v, cand] / np.maximum(deg[v], deg[cand])
        out[v] = np.mean(pc)
    return out


def harmonic(view):
    """Sum of reciprocal shortest-path distances, edge weights as lengths.

    Unreachable pairs contribute zero, so disconnected views are fine.
    """
    if np.any(view.weights[view.edge_mask] <= 0.0):
        raise StructuralError("harmonic centrality needs strictly positive edge lengths")
    graph = csr_matrix(np.where(view.edge_mask, view.weights, 0.0))
    dist = dijkstra(graph, directed=False)
    np.fill_diagonal(dist, np.inf)
    with np.errstate(divide="ignore"):
        inv = np.where(np.isfinite(dist), 1.0 / dist, 0.0)
    return inv.sum(axis=0)


def current_flow_closeness(view, mode="raw"):
    """Closeness over effective resistances from the Laplacian pseudoinverse.

    mode "raw" (default) uses the signed weights directly as conductances;
    "absolute" uses their magnitudes.  Non-finite results are flagged NaN.
    """
    if mode not in ("raw", "absolute"):
        raise StructuralError(f"unknown cfc mode {mode!r}")
    n = view.node_count
    ncomp, _ = connected_components(view.edge_mask.astype(np.int8), directed=False)
    if ncomp != 1:
        raise StructuralError("current-flow closeness requires a connected view")
    w = np.where(view.edge_mask, view.weights, 0.0)
    if mode == "absolute":
        w = np.abs(w)
    lap = np.diag(w.sum(axis=1)) - w
    try:
        lp = np.linalg.pinv(lap, hermitian=True)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"Laplacian pseudoinverse failed (mode={mode}): {exc}") from exc
    d = np.diag(lp)
    r_eff = d[:, np.newaxis] + d[np.newaxis, :] - 2.0 * lp
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (n - 1) / r_eff.sum(axis=1)
    out[~np.isfinite(out)] = np.nan
    return out


_MEASURE_FUNCS = {
    "s": strength,
    "snn": avg_neighbor_strength,
    "so": second_order,
    "sg": subgraph_centrality,
    "mc": max_clique_count,
    "bc": bipartite_clustering,
    "hc": harmonic,
    "cfc": current_flow_closeness,
}


def compute_measure(measure_id, view, **kwargs):
    """Run one measure on a view it is bound to (no component handling)."""
    if measure_id not in MEASURES:
        raise StructuralError(f"unknown measure {measure_id!r}; valid: {', '.join(MEASURE_ORDER)}")
    return _MEASURE_FUNCS[measure_id](view, **kwargs)


@dataclass(frozen=True)
class NeuronMeasures:
    """Measure table for the hidden neurons of one network.

    Rows are ordered (layer ascending, neuron-within-layer ascending).
    Values are NaN where a measure is undefined for that neuron.
    """

    network_id: str
    measures: tuple
    layer: np.ndarray  # (n_hidden,)
    neuron: np.ndarray  # (n_hidden,) index within its layer
    values: np.ndarray  # (n_hidden, len(measures))
    test_acc: float = math.nan

    def column(self, measure_id):
        try:
            j = self.measures.index(measure_id)
        except ValueError:
            raise StructuralError(f"table for {self.network_id!r} has no column {measure_id!r}")
        return self.values[:, j]

    @property
    def hidden_layers(self):
        return tuple(sorted(set(self.layer.tolist())))


def measure_all(
    net: LayeredNetwork,
    measures=MEASURE_ORDER,
    network_id=None,
    cfc_mode="raw",
    clique_budget=10_000_000,
    clique_time_budget=300.0,
) -> NeuronMeasures:
    """Compute the requested measures for every hidden neuron of a network.

    Each measure runs on its bound view.  Connectivity-requiring measures
    (so, cfc) run on the largest connected component of their view; hidden
    neurons outside that component come back NaN.
    """
    measures = tuple(measures)
    for m in measures:
        if m not in MEASURES:
            raise StructuralError(f"unknown measure {m!r}; valid: {', '.join(MEASURE_ORDER)}")
    graph = build_graph(net)
    views = {}
    full = {}
    for m in measures:
        info = MEASURES[m]
        if info.view_mode not in views:
            views[info.view_mode] = threshold_view(graph, info.view_mode)
        view = views[info.view_mode]
        kwargs = {}
        if m == "cfc":
            kwargs["mode"] = cfc_mode
        elif m == "mc":
            kwargs = {"max_cliques": clique_budget, "time_budget": clique_time_budget}
        if info.needs_connected:
            comp = largest_component(view)
            vec = np.full(graph.node_count, np.nan)
            if comp.view.node_count >= 2:
                vec[comp.view.node_ids] = compute_measure(m, comp.view, **kwargs)
            full[m] = vec
        else:
            full[m] = compute_measure(m, view, **kwargs)

    hidden = (graph.layers >= 1) & (graph.layers <= net.depth - 1)
    hidden_ids = np.flatnonzero(hidden)
    layer = graph.layers[hidden_ids]
    offsets = np.concatenate([[0], np.cumsum(net.arch)])
    neuron = hidden_ids - offsets[layer]
    values = np.column_stack([full[m][hidden_ids] for m in measures])
    if network_id is None:
        seed = net.meta.get("seed")
        network_id = f"seed{seed}" if seed is not None else "net"
    acc = net.meta.get("test_acc", math.nan)
    return NeuronMeasures(
        network_id=str(network_id),
        measures=measures,
        layer=layer,
        neuron=neuron,
        values=values,
        test_acc=float(acc) if acc is not None else math.nan,
    )


def write_measures_csv(tables, path):
    """Write measure tables as CSV: network_id,layer,neuron,<measure columns>.

    All tables must share the same measure list and carry distinct network
    ids; undefined values serialize as the literal NaN.
    """
    tables = list(tables)
    if not tables:
        raise StructuralError("no measure tables to write")
    measures = tables[0].measures
    seen = set()
    for t in tables:
        if t.measures != measures:
            raise StructuralError("measure tables disagree on their measure columns")
        if t.network_id in seen:
            raise StructuralError(f"network id {t.network_id!r} appears in more than one table")
        seen.add(t.network_id)
    write_csv(
        path,
        list(CSV_FIXED_COLUMNS) + list(measures),
        (
            [t.network_id, layer, neuron, *values]
            for t in tables
            for layer, neuron, values in zip(t.layer.tolist(), t.neuron.tolist(), t.values.tolist())
        ),
    )


def read_measures_csv(path, accuracies=None):
    """Read a measures CSV back into per-network tables (input order kept).

    Each network's rows must be contiguous.  accuracies, when given, maps
    network_id to test accuracy.
    """
    header, lines = read_csv_rows(path)
    if tuple(header[:3]) != CSV_FIXED_COLUMNS:
        raise FormatError(f"{path}: header must start with {','.join(CSV_FIXED_COLUMNS)}")
    measures = tuple(header[3:])
    unknown = [m for m in measures if m not in MEASURES]
    if not measures or unknown:
        raise FormatError(f"{path}: unknown measure columns {unknown}")
    if not lines:
        raise FormatError(f"{path}: no measure rows")
    rows = {}
    for lineno, row in lines:
        nid = row[0]
        if nid in rows and nid != last:
            raise FormatError(f"{path}:{lineno}: rows of network {nid!r} are not contiguous")
        last = nid
        try:
            rows.setdefault(nid, []).append((int(row[1]), int(row[2]), [float(x) for x in row[3:]]))
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: {exc}") from exc
    tables = []
    for nid, recs in rows.items():
        acc = math.nan
        if accuracies is not None and nid in accuracies:
            acc = float(accuracies[nid])
        tables.append(
            NeuronMeasures(
                network_id=nid,
                measures=measures,
                layer=np.array([r[0] for r in recs], dtype=np.int64),
                neuron=np.array([r[1] for r in recs], dtype=np.int64),
                values=np.array([r[2] for r in recs], dtype=np.float64),
                test_acc=acc,
            )
        )
    return tables
