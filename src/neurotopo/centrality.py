"""Per-neuron centrality measures on weighted undirected graphs.

Eight measures are provided, each bound to the graph view it is defined on
(so, sg, mc and bc read only that view's edge set):

    id    view               meaning
    s     original-weighted  strength (signed weighted degree)
    snn   original-weighted  average neighbor strength
    so    positive-weighted  second-order centrality (return-time std)
    sg    positive-weighted  subgraph centrality (closed-walk sum)
    mc    positive-weighted  participation in maximum cliques
    bc    positive-weighted  bipartite local clustering
    hc    positive-weighted  harmonic centrality (weighted shortest paths)
    cfc   original-weighted  current-flow closeness (effective resistance)

Every function takes ``(view, nodes=None)`` and returns the float64 values at
view positions ``nodes``, or at every node when ``nodes`` is None.  Undefined
values are NaN, never silent zeros; so and cfc, defined on connected graphs,
take the view's largest component and are NaN off it.  Every view is a
layered network's, its edges bipartitioned by layer parity, and sg, mc, hc,
so and cfc take layered rules that rest on it.  numpy is the only dependency.
``measure_all`` runs a selection of measures on a layered network and
computes the hidden-neuron rows only.
"""

import logging
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .artifacts import parse_float, parse_int, read_csv_rows, write_csv
from .errors import FormatError, NumericalError, StructuralError
from .model import (
    ALL,
    VIEW_MODES,
    VIEW_ORIGINAL,
    VIEW_POSITIVE,
    LayeredNetwork,
    build_graph,
    largest_component,
    threshold_view,
)

# radicand round-off this small is clamped to zero; anything lower is an error
SO_RADICAND_TOL = 1e-9

# grounded-inverse pivots |d_e| > PIVOT_TAU·max|d| are eliminated, smaller ones
# stay in S: the error grows about as (max|d|/|d_e|)², 1e-11 relative at a ratio
# of 3.4e-4 and 4e-7 at 2.9e-6, so cfc stays inside its 1e-9 tolerance
PIVOT_TAU = 1e-4

# a grounded inverse whose condition number (κ₁(S) or a lower bound on κ₁(L_g)) is above
# this raises (about 4 digits left); 500 seeded nets, 110 trained, read at most 1.6e8 (cfc) and 545 (so)
COND_MAX = 1e12

# the shortest lengths per row _minplus_gram bounds its entries by: at 784,200,100,10
# (trained and seeded) 64 leaves 2-4 of 44,100 entries to the column loop, 48 about 150
_GRAM_NEAR = 64

log = logging.getLogger(__name__)


CSV_FIXED_COLUMNS = ("network_id", "layer", "neuron")


def _at(values, nodes):
    return values if nodes is None else values[nodes]


def _row_sums(view, term=lambda w: w):
    """Row sums of ``term(weights)``, 64 rows at a time in one buffer that the
    blocks fill in place, clearing only what the chunk before filled: each
    row holds the N entries of its dense row, so its sum keeps their bits."""
    n, off = view.node_count, view.offsets
    out, buf, filled = np.empty(n), np.zeros((64, n)), []
    for r in range(0, n, 64):
        for span in filled:
            buf[span] = 0.0
        filled = []
        for a, b, w, _ in view.blocks:
            for p, q, x in ((a, b, w), (b, a, w.T))[: 1 + (a != b)]:
                lo, hi = max(r, off[p]), min(r + 64, off[p + 1])
                if lo < hi:
                    filled.append((slice(lo - r, hi - r), slice(off[q], off[q + 1])))
                    buf[filled[-1]] = x[lo - off[p] : hi - off[p]]
        out[r : r + 64] = term(buf[: min(64, n - r)]).sum(axis=1)
    return out


def strength(view, nodes=None):
    """Signed weighted degree: sum of incident edge weights per node."""
    return _at(_row_sums(view), nodes)


def avg_neighbor_strength(view, nodes=None):
    """Edge-weighted mean of neighbor strengths; NaN where strength is zero."""
    s = strength(view)
    num = _row_sums(view, lambda w: w * s)
    out = np.full(view.node_count, np.nan)
    nz = s != 0.0
    out[nz] = num[nz] / s[nz]
    return _at(out, nodes)


def _on_largest_component(view, nodes, rule):
    """``rule`` on the largest component of a view, at view positions
    ``nodes``: NaN off the component and at a lone node."""
    keep, comp = largest_component(view)
    out = np.full(view.node_count, np.nan)
    if keep.size > 1:
        out[keep] = rule(comp)
    return _at(out, nodes)


def _laplacian_pinv_diagonal(view, binary, what):
    """diag(L⁺) for the Laplacian L on a connected view, its conductances the
    view's weights, or its edge mask when ``binary`` (cast to float64 only in
    the blocks gathered from it).

    Kron reduction (Dörfler & Bullo, IEEE TCAS-I 2013): with one odd-side node
    grounded, M = L_g⁻¹ is taken by blocks.  Layer parity makes the even side
    an independent set, so its nodes E with |d_e| > PIVOT_TAU·max|d| form a
    diagonal block D and the others stay in the dense Schur complement
    S = L_KK - W_KE·D⁻¹·W_EK.  Then diag(L⁺) = diag(M) - 2·M1/n + 1ᵀM1/n².
    A singular S (then L + J/n is singular: signed weights can widen the
    kernel), a non-finite result, or a condition number above COND_MAX
    raises NumericalError naming ``what``.  The condition number is κ₁(S),
    or max_{j≠g}|d_j|·‖S⁻¹‖₁ when larger: a lower bound on κ₁(L_g), as
    |d_j| ≤ ‖L_g‖₁ and S⁻¹ is a principal block of M, which sees the nearly
    singular 1×1 S whose own κ₁ is 1.
    """
    n = view.node_count
    d = view.degrees if binary else _row_sums(view)
    even, odd = _parity_sides(view)
    scale = np.abs(d).max()
    elim = even[np.abs(d[even]) > PIVOT_TAU * scale]
    kept = np.setdiff1d(np.arange(n), np.append(elim, odd[0]))
    piv = 1.0 / d[elim]
    w_ek, w_kk = (view.block(r, kept, mask=binary).astype(np.float64, copy=False) for r in (elim, kept))
    v = w_ek * piv[:, np.newaxis]  # D⁻¹·W_EK
    s = np.diag(d[kept]) - w_kk - w_ek.T @ v
    try:
        x = np.linalg.inv(s)  # M_KK; M_EK = V·X and M_EE = D⁻¹ + V·X·Vᵀ
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"{what}: L + J/n is singular (grounded Schur block: {exc})") from exc
    # ‖S‖₁, or max_{j≠g}|d_j| ≤ ‖L_g‖₁ when larger
    norm = max(np.abs(s).sum(axis=0).max(initial=0.0), np.abs(np.delete(d, odd[0])).max())
    cond = norm * np.abs(x).sum(axis=0).max(initial=0.0)
    log.debug("%s: tau %g, %d of %d even-side pivots kept in S of size %d, smallest pivot ratio %.3g, "
              "condition number %.3g", what, PIVOT_TAU, even.size - elim.size, even.size, kept.size,
              np.abs(d[even]).min() / scale if even.size and scale else math.nan, cond)
    if not cond <= COND_MAX:
        raise NumericalError(f"{what}: the grounded inverse is ill-conditioned "
                             f"(condition number {cond:.3g} > {COND_MAX:g})")
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
    L/d_max, and unit column sums; that gives the first-passage times.  The
    walk is taken on the view's largest component: NaN off it, and NaN at a
    lone node, which has no return times to spread (its radicand is 0).
    """

    def rule(comp):
        n = comp.node_count
        lp = _laplacian_pinv_diagonal(comp, True, "so")
        # 2·(first-passage times n²·Z_ii plus the return time n) - n(n+1)
        radicand = 2.0 * n * n * comp.degrees.max() * lp - n * n + n
        bad = np.flatnonzero(radicand < -SO_RADICAND_TOL)
        if bad.size:
            raise NumericalError(f"so: radicand fell below -{SO_RADICAND_TOL:g} at node {bad[0]}")
        return np.sqrt(np.clip(radicand, 0.0, None))

    return _on_largest_component(view, nodes, rule)


def subgraph_centrality(view, nodes=None):
    """Closed-walk sum per node: the diagonal of exp(A), A the binarized adjacency.

    Taken per connected component (``view.labels``), a lone node exactly 1,
    so that round-off in one component is never scaled by another's
    cosh σ_max.  With B a component's biadjacency, its columns the smaller
    side, exp(A) has diagonal blocks cosh(√(BᵀB)) and cosh(√(BBᵀ)) (Estrada &
    Rodríguez-Velázquez 2005).  From eigh(BᵀB) = VΛVᵀ and σ = √λ, the
    columns get 1 + (V∘V)(cosh σ - 1) and the rows, as U = BV/σ,
    1 + (BV)²·r with r = 2sinh²(σ/2)/λ, which is ½ at λ = 0.
    """
    labels, side = view.labels, view.layers % 2
    out = np.ones(view.node_count)
    for c in np.flatnonzero(np.bincount(labels) > 1):
        members = np.flatnonzero(labels == c)
        rows, cols = members[side[members] == 0], members[side[members] == 1]
        if len(rows) < len(cols):
            rows, cols = cols, rows
        b = view.block(rows, cols, mask=True).astype(np.float64)
        try:
            lam, v = np.linalg.eigh(b.T @ b)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - eigh rarely fails to converge
            raise NumericalError(f"sg: eigh of the Gram matrix BᵀB failed: {exc}") from exc
        half = np.sinh(np.sqrt(np.clip(lam, 0.0, None)) / 2.0)
        excess = 2.0 * half**2  # cosh σ - 1 without cancellation
        with np.errstate(divide="ignore", invalid="ignore"):
            r = np.where(lam > 0.0, excess / lam, 0.5)
        out[cols] += (v * v) @ excess
        out[rows] += (b @ v) ** 2 @ r
    return _at(out, nodes)


def max_clique_count(view, nodes=None):
    """Number of maximum cliques each node participates in.

    Layer parity bipartitions the view, so it has no triangles: every
    maximum clique is an edge and a node's count is its degree.  A view with
    no edges has clique number 1 and every node participates once.
    """
    deg = _at(view.degrees, nodes)
    return deg if view.edge_count else np.ones(len(deg))


def bipartite_clustering(view, nodes=None):
    """Second-neighbor overlap clustering (pairwise coefficient |N∩N|/max).

    For each node the pairwise coefficient is averaged over the node's
    second-order neighborhood (neighbors of neighbors, excluding the node
    itself); nodes without second-order neighbors score a defined zero.
    With ``nodes`` (view positions), only those rows are computed.
    """
    nodes = np.arange(view.node_count) if nodes is None else nodes
    deg = view.degrees
    # |N(nodes[k]) ∩ N(u)|: sums of 0/1 products below 2**24 are exact in float32, in any order
    a = view.block(nodes, ALL, mask=True).astype(np.float32)
    common = np.zeros((len(nodes), view.node_count), dtype=np.float32)
    groups = [slice(lo, hi) for lo, hi in zip(view.offsets, view.offsets[1:])]
    for p in groups:  # by pairs of node groups, skipping those without an edge
        for q in groups:
            if (mask := view.block(p, q, mask=True)).any():
                common[:, q] += a[:, p] @ mask.astype(np.float32)
    out = np.zeros(len(nodes))
    idx = np.arange(view.node_count)
    for k, v in enumerate(nodes):
        cand = (common[k] >= 1.0) & (idx != v)
        if not np.any(cand):
            continue
        pc = common[k, cand] / np.maximum(deg[v], deg[cand])
        out[k] = np.mean(pc)
    return out


def _minplus_gram(a):
    """``_minplus(a, a.T)``, bit for bit, from each row's m = min(_GRAM_NEAR,
    K - 1) shortest of its K lengths (the threshold rule of Fagin, Lotem &
    Naor 2003): with t_i row i's next shortest, a sum a_ik + a_jk over a k
    in neither row's shortest is at least t_i + t_j (rounding is monotone),
    so the minimum over the k in either row's shortest is exact wherever it
    is at most t_i + t_j.  The other entries take the column loop."""
    at, m = np.ascontiguousarray(a.T), min(_GRAM_NEAR, a.shape[1] - 1)
    near, i = np.argpartition(a, m, axis=1), np.arange(a.shape[0])
    out, sums = np.full((2, a.shape[0], a.shape[0]), np.inf)
    for k in near[:, :m].T:  # out_ij: the shortest of row i's m against row j
        np.add(np.take(at, k, axis=0, out=sums), a[i, k, np.newaxis], out=sums)
        np.minimum(out, sums, out=out)
    np.minimum(out, out.T, out=out)
    cut = a[i, near[:, m]]
    _settle(out, out > np.add.outer(cut, cut), at, at)  # symmetric: row j is column j
    return out


def _settle(part, unsettled, at, b):
    """The plain column loop at the True entries of ``unsettled``: part_ji is
    the minimum over the finite b_kj of at_ki + b_kj."""
    for j in np.flatnonzero(unsettled.any(axis=1)):
        k = np.flatnonzero(np.isfinite(b[:, j]))
        part[j, unsettled[j]] = np.min(at[np.ix_(k, unsettled[j])] + b[k, j, np.newaxis], axis=0, initial=np.inf)


def _minplus(a, b, out=None, cols=None):
    """Min-plus matrix product, out_ij = min_k a_ik + b_kj over the finite b_kj;
    column j is written to column cols[j] of ``out`` when those are given.

    Pruned, in blocks of 128 columns, with the bits of the full product, as
    min-plus picks one sum and never re-associates one: the minimum over a
    column's m = min(8, K - 1) shortest of its K entries b_kj is exact
    wherever it is at most min_k a_ik plus the column's next shortest b_kj,
    which bounds every other sum from below (rounding is monotone).  The
    other entries take the whole column."""
    at, (inner, width) = np.ascontiguousarray(a.T), b.shape
    if out is None:
        out, cols = np.empty((a.shape[0], width)), np.arange(width)
    floor, m = a.min(axis=1), min(8, inner - 1)
    for lo in range(0, width, 128):
        blk = b[:, lo : lo + 128]
        span = np.arange(blk.shape[1])
        near = np.argpartition(blk, m, axis=0)[: m + 1].copy()  # not a view holding every index
        cut = blk[near[m], span]
        part, sums = np.full((2, len(span), a.shape[0]), np.inf)
        for k in near[:m]:
            np.add(np.take(at, k, axis=0, out=sums), blk[k, span, np.newaxis], out=sums)
            np.minimum(part, sums, out=part)
        _settle(part, part > np.add(floor, cut[:, np.newaxis], out=sums), at, blk)
        out[:, cols[lo : lo + 128]] = part.T
        del part, sums  # before the next block's are made
    return out


def _floyd_warshall(d):
    """All-pairs shortest paths, in place, from symmetric lengths ``d`` (inf off
    the edges), adding as scipy's floyd_warshall does, in order, so bit for bit."""
    np.fill_diagonal(d, 0.0)
    for k in range(len(d)):
        np.minimum(d, d[:, k, np.newaxis] + d[k], out=d)
    return d


def _even_eliminated_distances(view, nodes):
    """Shortest-path lengths from ``nodes`` to every node, the even side
    eliminated in the min-plus semiring: it is an independent set, so a path
    through even node e joins two of its odd neighbours a, b at length
    l_ae + l_eb, and with no odd-odd edges these via-even lengths are the
    odd side's whole graph, on which Floyd-Warshall is exact.  An even
    source reaches the odd side over its odd neighbours, and one more
    min-plus product over the odd side gives the distances to the even side."""
    even, odd = _parity_sides(view)
    side = view.layers % 2
    pos = np.where(side, np.cumsum(side), np.cumsum(1 - side)) - 1  # node -> position on its side
    lengths = np.where(view.block(odd, even, mask=True), view.block(odd, even), np.inf)
    d = _floyd_warshall(_minplus_gram(lengths))
    from_even = side[nodes] == 0
    to_odd = np.empty((len(odd), len(nodes)))  # transposed: the last product reads its columns
    to_odd[:, ~from_even] = d[pos[nodes[~from_even]]].T
    if from_even.any():
        to_odd[:, from_even] = _minplus(d, lengths[:, pos[nodes[from_even]]])
    del d
    dist = np.empty((len(nodes), view.node_count))
    dist[:, odd] = to_odd.T
    return _minplus(to_odd.T, lengths, dist, even)


def harmonic(view, nodes=None):
    """Sum of reciprocal shortest-path distances, edge weights as lengths.

    Unreachable pairs contribute zero, so disconnected views are fine.  With
    ``nodes`` (view positions), only those rows are summed.  Their distances
    come from ``_even_eliminated_distances``, which eliminates the even
    side; Floyd-Warshall over the odd side costs O(n³).
    """
    if any(np.any(w[m] <= 0.0) for _, _, w, m in view.blocks):
        raise StructuralError("harmonic centrality needs strictly positive edge lengths")
    nodes = np.arange(view.node_count) if nodes is None else np.asarray(nodes, dtype=np.intp)
    dist = _even_eliminated_distances(view, nodes)
    dist[np.arange(len(nodes)), nodes] = np.inf
    with np.errstate(divide="ignore"):
        np.divide(1.0, dist, out=dist)  # 1/inf is 0: unreachable pairs and the sources
    return dist.sum(axis=1)


def current_flow_closeness(view, nodes=None):
    """Closeness over effective resistances from the Laplacian pseudoinverse.

    The signed weights are the conductances, on the view's largest
    component.  Nodes off it, a lone node (no other node to be close to) and
    non-finite results are NaN; a kernel wider than the constants raises
    NumericalError.
    """

    def rule(comp):
        n = comp.node_count
        lp = _laplacian_pinv_diagonal(comp, False, "cfc")
        # the resistances from node i sum to n·L⁺_ii + tr L⁺, because rows of L⁺ sum to 0
        with np.errstate(divide="ignore", invalid="ignore"):
            out = (n - 1) / (n * lp + lp.sum())
        return np.where(np.isfinite(out), out, np.nan)

    return _on_largest_component(view, nodes, rule)


def _parity_sides(view):
    """Even- and odd-layer positions of a view, the two sides its edges join."""
    odd = view.layers % 2
    return np.flatnonzero(odd == 0), np.flatnonzero(odd)


@dataclass(frozen=True)
class MeasureInfo:
    view_mode: str
    func: Callable  # (view, nodes=None) -> the values at view positions nodes


MEASURES = {
    "s": MeasureInfo(VIEW_ORIGINAL, strength),
    "snn": MeasureInfo(VIEW_ORIGINAL, avg_neighbor_strength),
    "so": MeasureInfo(VIEW_POSITIVE, second_order),
    "sg": MeasureInfo(VIEW_POSITIVE, subgraph_centrality),
    "mc": MeasureInfo(VIEW_POSITIVE, max_clique_count),
    "bc": MeasureInfo(VIEW_POSITIVE, bipartite_clustering),
    "hc": MeasureInfo(VIEW_POSITIVE, harmonic),
    "cfc": MeasureInfo(VIEW_ORIGINAL, current_flow_closeness),
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


def compute_measure(measure_id, view, nodes=None):
    """Run one measure on a view it is bound to.

    Returns the values at view positions ``nodes``, or at every node when
    ``nodes`` is None; hc and bc compute those rows only.
    """
    check_measure_ids([measure_id])
    return MEASURES[measure_id].func(view, nodes)


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


def nan_table(net: LayeredNetwork, measures=MEASURE_ORDER) -> NeuronMeasures:
    """Hidden-neuron measure table, all NaN, with the id seed<meta.seed>."""
    layers = np.repeat(np.arange(len(net.arch)), net.arch)
    hidden_ids = np.flatnonzero((layers >= 1) & (layers < net.depth))
    offsets = np.concatenate([[0], np.cumsum(net.arch)])
    seed = net.meta.get("seed")
    acc = net.meta.get("test_acc", math.nan)
    return NeuronMeasures(
        network_id=f"seed{seed}" if seed is not None else "net",
        measures=tuple(measures),
        layer=layers[hidden_ids],
        neuron=hidden_ids - offsets[layers[hidden_ids]],
        values=np.full((hidden_ids.size, len(measures)), np.nan),
        test_acc=float(acc) if acc is not None else math.nan,
    )


def measure_all(net: LayeredNetwork, measures=MEASURE_ORDER) -> NeuronMeasures:
    """Compute the requested measures for every hidden neuron of a network.

    Each measure runs on its bound view, for the hidden rows only; so and
    cfc are NaN at hidden neurons off their view's largest component.  The
    original-view measures run first, on the network's own arrays, and the
    positive view then takes the graph's place.
    """
    measures = check_measure_ids(measures)
    table = nan_table(net, measures)
    view = build_graph(net)
    hidden = np.flatnonzero((view.layers >= 1) & (view.layers < net.depth))
    for mode in VIEW_MODES:  # the original view first: the positive one replaces it
        columns = [j for j, m in enumerate(measures) if MEASURES[m].view_mode == mode]
        if columns:
            view = threshold_view(view, mode)
            for j in columns:
                table.values[:, j] = compute_measure(measures[j], view, nodes=hidden)
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

    Each network's rows must be contiguous, with (layer, neuron) strictly
    ascending, layer >= 1 and neuron >= 0, as the writer leaves them.
    accuracies, when given, maps network_id to test accuracy.
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
        recs = rows.setdefault(nid, [])
        if cells[0] < 1 or cells[1] < 0 or (recs and cells[:2] <= recs[-1][:2]):
            raise FormatError(f"{path}:{lineno}: network {nid!r}: (layer {cells[0]}, neuron {cells[1]}) "
                              "breaks the strictly ascending order, layer >= 1 and neuron >= 0")
        recs.append(cells)
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
