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
measures on a layered network and computes the hidden-neuron rows only.
"""

import math
import time
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .artifacts import parse_float, parse_int, read_csv_rows, write_csv
from .errors import FormatError, NumericalError, ResourceBudgetError, StructuralError
from .model import (
    VIEW_ORIGINAL,
    VIEW_POSITIVE,
    VIEW_POSITIVE_UNWEIGHTED,
    LayeredNetwork,
    build_graph,
    component_labels,
    largest_component,
    threshold_view,
)

# radicand round-off this small is clamped to zero; anything lower is an error
SO_RADICAND_TOL = 1e-9


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


def _laplacian_pinv_diagonal(view, w, what):
    """diag(L⁺) for the Laplacian L of conductances ``w`` on a connected view.

    When the kernel of L is exactly the constants, (L + J/n)⁻¹ = L⁺ + J/n.
    A singular L + J/n (signed weights can widen the kernel) or a non-finite
    inverse raises NumericalError naming ``what``.
    """
    n = view.node_count
    if component_labels(view.edge_mask)[0] != 1:
        raise StructuralError(f"{what} requires a connected view")
    try:
        inv = np.linalg.inv(np.diag(w.sum(axis=1)) - w + 1.0 / n)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"{what}: L + J/n is singular ({exc})") from exc
    if not np.all(np.isfinite(inv)):
        raise NumericalError(f"{what}: the inverse of L + J/n is not finite")
    return np.diag(inv) - 1.0 / n


def second_order(view):
    """Standard deviation of return times of a perpetual unbiased random walk.

    Works on the binarized view adjacency, degree-balanced with self-loops so
    that the walk's stationary law is uniform (without the balancing the
    radicand can go negative on irregular graphs).  The walk's fundamental
    matrix (I - P + J/n)⁻¹ has diagonal d_max·L⁺_ii + 1/n, since I - P =
    L/d_max, and unit column sums; that gives the first-passage times.
    """
    n = view.node_count
    if n < 2:
        raise StructuralError("second-order centrality needs at least 2 nodes")
    a = view.edge_mask.astype(np.float64)
    lp = _laplacian_pinv_diagonal(view, a, f"so ({view.mode} view)")
    # 2·(first-passage times n²·Z_ii plus the return time n) - n(n+1)
    radicand = 2.0 * n * n * a.sum(axis=1).max() * lp - n * n + n
    bad = radicand < -SO_RADICAND_TOL
    if np.any(bad):
        raise NumericalError(
            f"so: radicand fell below -{SO_RADICAND_TOL:g} at node {int(np.argmax(bad))}"
        )
    return np.sqrt(np.clip(radicand, 0.0, None))


def subgraph_centrality(view):
    """Closed-walk sum per node from the spectrum of the binarized adjacency."""
    a = view.edge_mask.astype(np.float64)
    try:
        lam, u = scipy.linalg.eigh(a)
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover - eigh on symmetric rarely fails
        raise NumericalError(f"sg: eigendecomposition failed: {exc}") from exc
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
            raise ResourceBudgetError(f"mc: more than {max_cliques} maximal cliques")
        if not seen % 1024 and time.monotonic() > deadline:
            raise ResourceBudgetError(f"mc: clique enumeration exceeded {time_budget:g} s")
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


def bipartite_clustering(view, nodes=None):
    """Second-neighbor overlap clustering (pairwise coefficient |N∩N|/max).

    For each node the pairwise coefficient is averaged over the node's
    second-order neighborhood (neighbors of neighbors, excluding the node
    itself); nodes without second-order neighbors score a defined zero.
    With ``nodes`` (view positions), only those rows are computed.
    """
    a = view.edge_mask.astype(np.float64)
    nodes = np.arange(view.node_count) if nodes is None else nodes
    deg = a.sum(axis=1)
    common = a[nodes] @ a  # common[k, u] = |N(nodes[k]) ∩ N(u)|, exact small integers
    out = np.zeros(len(nodes))
    idx = np.arange(view.node_count)
    for k, v in enumerate(nodes):
        cand = (common[k] >= 1.0) & (idx != v)
        if not np.any(cand):
            continue
        pc = common[k, cand] / np.maximum(deg[v], deg[cand])
        out[k] = np.mean(pc)
    return out


def harmonic(view, nodes=None):
    """Sum of reciprocal shortest-path distances, edge weights as lengths.

    Unreachable pairs contribute zero, so disconnected views are fine.  With
    ``nodes`` (view positions), Dijkstra runs from those sources only.
    """
    if np.any(view.weights[view.edge_mask] <= 0.0):
        raise StructuralError("harmonic centrality needs strictly positive edge lengths")
    nodes = np.arange(view.node_count) if nodes is None else nodes
    graph = csr_matrix(np.where(view.edge_mask, view.weights, 0.0))
    dist = dijkstra(graph, directed=False, indices=nodes)
    dist[np.arange(len(nodes)), nodes] = np.inf
    with np.errstate(divide="ignore"):
        inv = np.where(np.isfinite(dist), 1.0 / dist, 0.0)
    return inv.sum(axis=1)


def current_flow_closeness(view, mode="raw"):
    """Closeness over effective resistances from the Laplacian pseudoinverse.

    mode "raw" (default) uses the signed weights directly as conductances;
    "absolute" uses their magnitudes.  Non-finite results are flagged NaN; a
    kernel wider than the constants raises NumericalError.
    """
    if mode not in ("raw", "absolute"):
        raise StructuralError(f"unknown cfc mode {mode!r}")
    n = view.node_count
    w = np.where(view.edge_mask, view.weights, 0.0)
    lp = _laplacian_pinv_diagonal(view, np.abs(w) if mode == "absolute" else w, f"cfc (mode={mode})")
    # the resistances from node i sum to n·L⁺_ii + tr L⁺, because rows of L⁺ sum to 0
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (n - 1) / (n * lp + lp.sum())
    out[~np.isfinite(out)] = np.nan
    return out


def _parity_sides(view):
    """Even- and odd-layer positions of a view whose layer parity bipartitions
    its edges; None for views without layer tags or with a same-parity edge."""
    if view.layers is None:
        return None
    odd = view.layers % 2 == 1
    if np.any(view.edge_mask & (odd[:, np.newaxis] == odd[np.newaxis, :])):
        return None
    return np.flatnonzero(~odd), np.flatnonzero(odd)


def _bipartite_subgraph_rows(view, nodes):
    """Subgraph centrality from a thin SVD B = UΣVᵀ of the even×odd biadjacency.

    exp(A) has diagonal blocks cosh(√(BBᵀ)) and cosh(√(BᵀB)), so sg_i is
    1 + Σ_k U_ik² (cosh σ_k - 1), with V on the odd side (Estrada &
    Rodríguez-Velázquez 2005).
    """
    sides = _parity_sides(view)
    if sides is None:
        return subgraph_centrality(view)[nodes]
    even, odd = sides
    b = view.edge_mask[np.ix_(even, odd)].astype(np.float64)
    try:
        u, sigma, vt = np.linalg.svd(b, full_matrices=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - SVD rarely fails to converge
        raise NumericalError(f"sg: biadjacency SVD failed: {exc}") from exc
    excess = 2.0 * np.sinh(sigma / 2.0) ** 2  # cosh σ - 1 without cancellation
    out = np.ones(view.node_count)
    out[even] += (u * u) @ excess
    out[odd] += (vt * vt).T @ excess
    return out[nodes]


def _bipartite_clique_rows(view, nodes, **budgets):
    """A bipartite graph has no triangles: with any edge, every maximum clique
    is an edge and a node's count is its degree; without edges it is 1."""
    if _parity_sides(view) is None:
        return max_clique_count(view, **budgets)[nodes]
    degree = view.edge_mask[nodes].sum(axis=1).astype(np.float64)
    return degree if view.edge_mask.any() else np.ones(len(nodes))


def _all_rows(func):
    """Row kernel of a measure computed at every node, kept at ``nodes``."""
    return lambda view, nodes, **kwargs: func(view, **kwargs)[nodes]


@dataclass(frozen=True)
class MeasureInfo:
    id: str
    view_mode: str
    cost_rank: int  # lower = cheaper to compute; used by the redundancy filter
    needs_connected: bool
    rows: Callable  # (view, nodes, **kwargs) -> the values at view positions nodes


MEASURES = {
    "s": MeasureInfo("s", VIEW_ORIGINAL, 1, False, _all_rows(strength)),
    "snn": MeasureInfo("snn", VIEW_ORIGINAL, 2, False, _all_rows(avg_neighbor_strength)),
    "so": MeasureInfo("so", VIEW_POSITIVE_UNWEIGHTED, 6, True, _all_rows(second_order)),
    "sg": MeasureInfo("sg", VIEW_POSITIVE_UNWEIGHTED, 7, False, _bipartite_subgraph_rows),
    "mc": MeasureInfo("mc", VIEW_POSITIVE_UNWEIGHTED, 4, False, _bipartite_clique_rows),
    "bc": MeasureInfo("bc", VIEW_POSITIVE_UNWEIGHTED, 3, False, bipartite_clustering),
    "hc": MeasureInfo("hc", VIEW_POSITIVE, 5, False, harmonic),
    "cfc": MeasureInfo("cfc", VIEW_ORIGINAL, 8, True, _all_rows(current_flow_closeness)),
}

MEASURE_ORDER = tuple(MEASURES)


def check_measure_ids(measure_ids):
    """The ids as a tuple; StructuralError for an empty list, an unknown id
    (naming the valid ids) or a repeated one."""
    measure_ids = tuple(measure_ids)
    if not measure_ids:
        raise StructuralError("at least one measure is required")
    unknown = [m for m in measure_ids if m not in MEASURES]
    if unknown:
        raise StructuralError(f"unknown measures {unknown}; valid ids: {', '.join(MEASURE_ORDER)}")
    if len(set(measure_ids)) != len(measure_ids):
        raise StructuralError(f"repeated measures in {list(measure_ids)}")
    return measure_ids


def compute_measure(measure_id, view, nodes=None, **kwargs):
    """Run one measure on a view it is bound to (no component handling).

    Returns the values at view positions ``nodes``, or at every node when
    ``nodes`` is None.  hc, bc, sg and mc compute those rows only; sg and mc
    use their bipartite rules when layer parity bipartitions the view's edges.
    """
    check_measure_ids([measure_id])
    nodes = np.arange(view.node_count) if nodes is None else np.asarray(nodes, dtype=np.int64)
    return MEASURES[measure_id].rows(view, nodes, **kwargs)


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


def nan_table(net: LayeredNetwork, measures=MEASURE_ORDER, network_id=None) -> NeuronMeasures:
    """Hidden-neuron measure table, all NaN; the id defaults to seed<meta.seed>."""
    layers = np.repeat(np.arange(len(net.arch)), net.arch)
    hidden_ids = np.flatnonzero((layers >= 1) & (layers < net.depth))
    offsets = np.concatenate([[0], np.cumsum(net.arch)])
    if network_id is None:
        seed = net.meta.get("seed")
        network_id = f"seed{seed}" if seed is not None else "net"
    acc = net.meta.get("test_acc", math.nan)
    return NeuronMeasures(
        network_id=str(network_id),
        measures=tuple(measures),
        layer=layers[hidden_ids],
        neuron=hidden_ids - offsets[layers[hidden_ids]],
        values=np.full((hidden_ids.size, len(measures)), np.nan),
        test_acc=float(acc) if acc is not None else math.nan,
    )


def measure_all(
    net: LayeredNetwork,
    measures=MEASURE_ORDER,
    network_id=None,
    cfc_mode="raw",
) -> NeuronMeasures:
    """Compute the requested measures for every hidden neuron of a network.

    Each measure runs on its bound view, for the hidden rows only.  Measures
    needing connectivity (so, cfc) run on the largest connected component of
    their view; hidden neurons outside that component come back NaN.
    """
    measures = check_measure_ids(measures)
    table = nan_table(net, measures, network_id)
    graph = build_graph(net)
    hidden_ids = np.flatnonzero((graph.layers >= 1) & (graph.layers < net.depth))
    views = {}
    kwargs = {"cfc": {"mode": cfc_mode}}
    for j, m in enumerate(measures):
        info = MEASURES[m]
        if info.view_mode not in views:
            views[info.view_mode] = threshold_view(graph, info.view_mode)
        view = views[info.view_mode]
        if info.needs_connected:
            view = largest_component(view).view
        if view.node_count < 2:
            continue  # a lone node: so and cfc are undefined there
        # node ids ascend in both, so hidden rows and view positions align
        inside = np.isin(hidden_ids, view.node_ids)
        nodes = np.flatnonzero(np.isin(view.node_ids, hidden_ids))
        table.values[inside, j] = compute_measure(m, view, nodes=nodes, **kwargs.get(m, {}))
    return table


def write_measures_csv(tables, path, sources=None):
    """Write measure tables as CSV: network_id,layer,neuron,<measure columns>.

    All tables must share the same measure list and carry distinct network
    ids; undefined values serialize as the literal NaN.  ``sources``, one
    label per table (say, its model file), names the tables an error is about.
    """
    tables = list(tables)
    if not tables:
        raise StructuralError("no measure tables to write")
    sources = [f"table {i}" for i in range(len(tables))] if sources is None else list(sources)
    measures = tables[0].measures
    origin = {}
    for t, source in zip(tables, sources):
        if t.measures != measures:
            raise StructuralError("measure tables disagree on their measure columns")
        if t.network_id in origin:
            raise StructuralError(
                f"network id {t.network_id!r} appears in more than one table: "
                f"{origin[t.network_id]} and {source}"
            )
        origin[t.network_id] = source
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
    try:
        measures = check_measure_ids(header[3:])
    except StructuralError as exc:
        raise FormatError(f"{path}: bad measure columns ({exc})") from exc
    if not lines:
        raise FormatError(f"{path}: no measure rows")
    rows = {}
    for lineno, row in lines:
        nid = row[0]
        if nid in rows and nid != last:
            raise FormatError(f"{path}:{lineno}: rows of network {nid!r} are not contiguous")
        last = nid
        try:
            cells = (parse_int(row[1]), parse_int(row[2]), [parse_float(x) for x in row[3:]])
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: {exc}") from exc
        rows.setdefault(nid, []).append(cells)
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
