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

Every function takes ``(view, nodes=None)`` and returns the float64 values at
view positions ``nodes``, or at every node when ``nodes`` is None.  Undefined
values are NaN, never silent zeros.  On a view whose layer parity bipartitions
its edges (a layered network's) sg, mc, hc, so and cfc take layered rules; the
same graph without layer tags takes the general path.  ``measure_all`` runs a
selection of measures on a layered network and computes the hidden-neuron rows
only.
"""

import logging
import math
import time
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.sparse.csgraph import dijkstra, floyd_warshall

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

# grounded-inverse pivots |d_e| > PIVOT_TAU·max|d| are eliminated, smaller ones
# stay in S: the error grows about as (max|d|/|d_e|)², 1e-11 relative at a ratio
# of 3.4e-4 and 4e-7 at 2.9e-6, so cfc stays inside its 1e-9 tolerance
PIVOT_TAU = 1e-4

# max_clique_count gives up past this many maximal cliques or seconds: the
# enumeration is NP-complete, and only graphs with same-parity edges reach it
MC_MAX_CLIQUES = 10_000_000
MC_TIME_BUDGET = 300.0

log = logging.getLogger(__name__)


CSV_FIXED_COLUMNS = ("network_id", "layer", "neuron")


def _at(values, nodes):
    return values if nodes is None else values[nodes]


def strength(view, nodes=None):
    """Signed weighted degree: sum of incident edge weights per node."""
    return _at(view.weights.sum(axis=1), nodes)


def avg_neighbor_strength(view, nodes=None):
    """Edge-weighted mean of neighbor strengths; NaN where strength is zero."""
    s = strength(view)
    num = (view.weights * s[np.newaxis, :]).sum(axis=1)
    out = np.full(view.node_count, np.nan)
    nz = s != 0.0
    out[nz] = num[nz] / s[nz]
    return _at(out, nodes)


def _laplacian_pinv_diagonal(view, w, what):
    """diag(L⁺) for the Laplacian L of conductances ``w`` on a connected view.

    Kron reduction (Dörfler & Bullo, IEEE TCAS-I 2013): with one odd-side node
    grounded, M = L_g⁻¹ is taken by blocks.  Layer parity makes the even side
    an independent set, so its nodes E with |d_e| > PIVOT_TAU·max|d| form a
    diagonal block D and the others stay in the dense Schur complement
    S = L_KK - W_KE·D⁻¹·W_EK.  Then diag(L⁺) = diag(M) - 2·M1/n + 1ᵀM1/n².
    A singular S (then L + J/n is singular: signed weights can widen the
    kernel) or a non-finite result raises NumericalError naming ``what``.
    """
    n = view.node_count
    if component_labels(view.edge_mask)[0] != 1:
        raise StructuralError(f"{what} requires a connected view")
    d = w.sum(axis=1)
    sides = _parity_sides(view)
    # without parity sides nothing is eliminated and node 0 is grounded
    even, odd = (np.zeros(0, dtype=np.int64), np.arange(n)) if sides is None else sides
    scale = np.abs(d).max()
    elim = even[np.abs(d[even]) > PIVOT_TAU * scale]
    kept = np.setdiff1d(np.arange(n), np.append(elim, odd[0]))
    log.debug("%s: tau %g, %d of %d even-side pivots kept in S of size %d, smallest pivot ratio %.3g",
              what, PIVOT_TAU, even.size - elim.size, even.size, kept.size,
              np.abs(d[even]).min() / scale if even.size and scale else math.nan)
    piv = 1.0 / d[elim]
    w_ek = w[np.ix_(elim, kept)]
    v = w_ek * piv[:, np.newaxis]  # D⁻¹·W_EK
    s = np.diag(d[kept]) - w[np.ix_(kept, kept)] - w_ek.T @ v
    try:
        x = np.linalg.inv(s)  # M_KK; M_EK = V·X and M_EE = D⁻¹ + V·X·Vᵀ
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"{what}: L + J/n is singular (grounded Schur block: {exc})") from exc
    diag = np.zeros(n)  # diag(M)
    rows = np.zeros(n)  # M·1
    diag[kept] = np.diag(x)
    rows[kept] = x @ (1.0 + v.sum(axis=0))
    diag[elim] = piv + np.einsum("ij,ij->i", v @ x, v)
    rows[elim] = piv + v @ rows[kept]
    lp = diag - 2.0 * rows / n + rows.sum() / (n * n)
    if not np.all(np.isfinite(lp)):
        raise NumericalError(f"{what}: the grounded inverse is not finite")
    return lp


def second_order(view, nodes=None):
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
    return _at(np.sqrt(np.clip(radicand, 0.0, None)), nodes)


def subgraph_centrality(view, nodes=None):
    """Closed-walk sum per node: the diagonal of exp(A), A the binarized adjacency.

    With parity sides, from a thin SVD B = UΣVᵀ of the even×odd biadjacency:
    exp(A) has diagonal blocks cosh(√(BBᵀ)) and cosh(√(BᵀB)), so sg_i is
    1 + Σ_k U_ik² (cosh σ_k - 1), with V on the odd side (Estrada &
    Rodríguez-Velázquez 2005).  Otherwise from the spectrum of A.
    """
    sides = _parity_sides(view)
    if sides is None:
        try:
            lam, u = scipy.linalg.eigh(view.edge_mask.astype(np.float64))
        except scipy.linalg.LinAlgError as exc:  # pragma: no cover - eigh on symmetric rarely fails
            raise NumericalError(f"sg: eigendecomposition failed: {exc}") from exc
        return _at((u * u) @ np.exp(lam), nodes)
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
    return _at(out, nodes)


def _iter_bits(x):
    while x:
        b = x & -x
        yield b.bit_length() - 1
        x ^= b


def max_clique_count(view, nodes=None):
    """Number of maximum cliques each node participates in.

    A graph with no edges has clique number 1 and every node participates
    once.  With parity sides the graph has no triangles, so every maximum
    clique is an edge and a node's count is its degree.  Otherwise maximal
    cliques are enumerated depth-first with pivoting on the node covering
    the most candidates, and only cliques of globally maximum cardinality
    are counted; more than ``MC_MAX_CLIQUES`` maximal cliques or more than
    ``MC_TIME_BUDGET`` seconds raise ResourceBudgetError.
    """
    if _parity_sides(view) is not None:
        mask = _at(view.edge_mask, nodes)
        return mask.sum(axis=1).astype(np.float64) if view.edge_mask.any() else np.ones(len(mask))
    n = view.node_count
    nbr = [0] * n
    rows, cols = np.nonzero(view.edge_mask)
    for i, j in zip(rows.tolist(), cols.tolist()):
        nbr[i] |= 1 << j
    counts = np.zeros(n, dtype=np.int64)
    best_size = 0
    seen = 0
    deadline = time.monotonic() + MC_TIME_BUDGET

    def report(r_mask, size):
        nonlocal best_size, counts, seen
        seen += 1
        if seen > MC_MAX_CLIQUES:
            raise ResourceBudgetError(f"mc: more than {MC_MAX_CLIQUES} maximal cliques")
        if not seen % 1024 and time.monotonic() > deadline:
            raise ResourceBudgetError(f"mc: clique enumeration exceeded {MC_TIME_BUDGET:g} s")
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
    return _at(counts.astype(np.float64), nodes)


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


def _minplus(a, b):
    """Min-plus matrix product, out_ij = min_k a_ik + b_kj over the finite b_kj."""
    at = np.ascontiguousarray(a.T)
    out = np.empty((a.shape[0], b.shape[1]))
    for j, finite in enumerate(np.isfinite(b).T):
        k = np.flatnonzero(finite)
        out[:, j] = np.min(at[k] + b[k, j, np.newaxis], axis=0, initial=np.inf)
    return out


def _input_eliminated_distances(view, nodes, inputs):
    """Shortest-path lengths from ``nodes`` to every node, the layer-0 nodes
    eliminated in the min-plus semiring.  The inputs are an independent set,
    so a path through input i joins two of its neighbors a, b at length
    l_ai + l_ib; with those via-input lengths the other nodes' all-pairs
    distances (Floyd-Warshall) are exact, and one more min-plus product over
    the inputs' neighbors gives the distances to the inputs."""
    length = np.where(view.edge_mask, view.weights, np.inf)
    ins, rest = np.flatnonzero(inputs), np.flatnonzero(~inputs)
    hub = np.flatnonzero(np.isfinite(length[np.ix_(ins, rest)]).any(axis=0))  # rest positions
    hub_in = length[np.ix_(rest[hub], ins)]
    d = length[np.ix_(rest, rest)]
    d[np.ix_(hub, hub)] = np.minimum(d[np.ix_(hub, hub)], _minplus(hub_in, hub_in.T))
    d = floyd_warshall(d, directed=False)
    from_input = inputs[nodes]
    pos = np.cumsum(~inputs) - 1  # node -> position among rest
    near = np.empty((len(nodes), rest.size))
    near[~from_input] = d[pos[nodes[~from_input]]]
    near[from_input] = _minplus(length[np.ix_(nodes[from_input], rest[hub])], d[hub])
    dist = np.empty((len(nodes), view.node_count))
    dist[:, rest] = near
    dist[:, ins] = _minplus(near[:, hub], hub_in)
    return dist


def harmonic(view, nodes=None):
    """Sum of reciprocal shortest-path distances, edge weights as lengths.

    Unreachable pairs contribute zero, so disconnected views are fine.  With
    ``nodes`` (view positions), distances run from those sources only: by
    ``_input_eliminated_distances`` when layer parity bipartitions the view's
    edges and it has layer-0 nodes, otherwise by Dijkstra.
    """
    if np.any(view.weights[view.edge_mask] <= 0.0):
        raise StructuralError("harmonic centrality needs strictly positive edge lengths")
    nodes = np.arange(view.node_count) if nodes is None else np.asarray(nodes)
    inputs = None if _parity_sides(view) is None else view.layers == 0
    if inputs is not None and inputs.any():
        dist = _input_eliminated_distances(view, nodes, inputs)
    else:
        dist = dijkstra(np.where(view.edge_mask, view.weights, 0.0), directed=False, indices=nodes)
    dist[np.arange(len(nodes)), nodes] = np.inf
    with np.errstate(divide="ignore"):
        inv = np.where(np.isfinite(dist), 1.0 / dist, 0.0)
    return inv.sum(axis=1)


def current_flow_closeness(view, nodes=None, mode="raw"):
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
    return _at(out, nodes)


def _parity_sides(view):
    """Even- and odd-layer positions of a view whose layer parity bipartitions
    its edges; None for views without layer tags or with a same-parity edge."""
    if view.layers is None:
        return None
    odd = view.layers % 2 == 1
    if np.any(view.edge_mask & (odd[:, np.newaxis] == odd[np.newaxis, :])):
        return None
    return np.flatnonzero(~odd), np.flatnonzero(odd)


@dataclass(frozen=True)
class MeasureInfo:
    view_mode: str
    needs_connected: bool
    func: Callable  # (view, nodes=None, **kwargs) -> the values at view positions nodes


MEASURES = {
    "s": MeasureInfo(VIEW_ORIGINAL, False, strength),
    "snn": MeasureInfo(VIEW_ORIGINAL, False, avg_neighbor_strength),
    "so": MeasureInfo(VIEW_POSITIVE_UNWEIGHTED, True, second_order),
    "sg": MeasureInfo(VIEW_POSITIVE_UNWEIGHTED, False, subgraph_centrality),
    "mc": MeasureInfo(VIEW_POSITIVE_UNWEIGHTED, False, max_clique_count),
    "bc": MeasureInfo(VIEW_POSITIVE_UNWEIGHTED, False, bipartite_clustering),
    "hc": MeasureInfo(VIEW_POSITIVE, False, harmonic),
    "cfc": MeasureInfo(VIEW_ORIGINAL, True, current_flow_closeness),
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
    ``nodes`` is None; hc and bc compute those rows only.
    """
    check_measure_ids([measure_id])
    return MEASURES[measure_id].func(view, nodes, **kwargs)


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
