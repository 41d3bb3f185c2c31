"""Unit checks for the eight measures: closed forms, hand-worked examples, properties."""

import logging
import math

import numpy as np
import pytest

import oracles
from conftest import graph_from_edges, random_signed_graph, unit_graph
from neurotopo import centrality
from neurotopo.centrality import (
    MEASURE_ORDER,
    MEASURES,
    avg_neighbor_strength,
    compute_measure,
    bipartite_clustering,
    current_flow_closeness,
    harmonic,
    max_clique_count,
    measure_all,
    read_measures_csv,
    second_order,
    strength,
    subgraph_centrality,
    write_measures_csv,
)
from neurotopo.errors import FormatError, NumericalError, ResourceBudgetError, StructuralError
from neurotopo.model import (
    VIEW_ORIGINAL,
    VIEW_POSITIVE,
    VIEW_POSITIVE_UNWEIGHTED,
    LayeredNetwork,
    NeuronGraph,
    build_graph,
    largest_component,
    threshold_view,
)
from neurotopo.trainer import init_network


def K(n):
    return unit_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def view(graph, mode=VIEW_POSITIVE_UNWEIGHTED):
    return threshold_view(graph, mode)


class TestStrength:
    def test_signed_path(self):
        g = graph_from_edges(3, [(0, 1, 0.5), (1, 2, -0.2)])
        s = strength(view(g, VIEW_ORIGINAL))
        np.testing.assert_allclose(s, [0.5, 0.3, -0.2])

    def test_isolated_node_zero(self):
        g = graph_from_edges(2, [(0, 1, 1.0)])
        padded = NeuronGraph.from_adjacency(np.pad(g.weights, (0, 1)), np.pad(g.edge_mask, (0, 1)))
        assert strength(view(padded, VIEW_ORIGINAL))[2] == 0.0

    def test_negative_k2(self):
        g = graph_from_edges(2, [(0, 1, -1.0)])
        np.testing.assert_array_equal(strength(view(g, VIEW_ORIGINAL)), [-1.0, -1.0])

    def test_sum_is_twice_edge_total(self):
        for seed in range(20):
            g = random_signed_graph(seed)
            v = view(g, VIEW_ORIGINAL)
            total = strength(v).sum()
            edges = v.weights[np.triu(v.edge_mask)].sum()
            assert abs(total - 2.0 * edges) < 1e-9


class TestAvgNeighborStrength:
    def test_k2_identity(self):
        g = graph_from_edges(2, [(0, 1, 0.37)])
        np.testing.assert_allclose(avg_neighbor_strength(view(g, VIEW_ORIGINAL)), [0.37, 0.37])

    def test_triangle_symmetry(self):
        snn = avg_neighbor_strength(view(K(3), VIEW_ORIGINAL))
        np.testing.assert_allclose(snn, [2.0, 2.0, 2.0])

    def test_star_center(self):
        g = unit_graph(4, [(0, 1), (0, 2), (0, 3)])
        snn = avg_neighbor_strength(view(g, VIEW_ORIGINAL))
        assert snn[0] == pytest.approx(1.0)

    def test_zero_strength_flagged(self):
        g = graph_from_edges(3, [(0, 1, 1.0), (0, 2, -1.0)])
        snn = avg_neighbor_strength(view(g, VIEW_ORIGINAL))
        assert math.isnan(snn[0])


class TestSecondOrder:
    def test_k2_zero_variance(self):
        np.testing.assert_allclose(second_order(view(K(2))), [0.0, 0.0])

    def test_k3_sqrt2(self):
        np.testing.assert_allclose(second_order(view(K(3))), math.sqrt(2), atol=1e-9)

    def test_vertex_transitive_constant(self):
        cycle = unit_graph(6, [(i, (i + 1) % 6) for i in range(6)])
        so = second_order(view(cycle))
        np.testing.assert_allclose(so, so[0], atol=1e-9)

    def test_disconnected_rejected(self):
        g = unit_graph(4, [(0, 1), (2, 3)])
        with pytest.raises(StructuralError, match="connected"):
            second_order(view(g))

    def test_matches_per_target_solves(self):
        for seed in range(10):
            g = random_signed_graph(seed)
            comp = largest_component(view(g))
            if comp.view.node_count < 2:
                continue
            got = second_order(comp.view)
            want = oracles.second_order_naive(comp.view.edge_mask)
            np.testing.assert_allclose(got, want, atol=1e-6)


class TestSubgraphCentrality:
    def test_isolated_node(self):
        g = graph_from_edges(2, [(0, 1, -1.0)])
        np.testing.assert_allclose(subgraph_centrality(view(g)), [1.0, 1.0])

    def test_k2_cosh(self):
        np.testing.assert_allclose(subgraph_centrality(view(K(2))), math.cosh(1.0), atol=1e-9)

    def test_k3_closed_form(self):
        want = math.exp(2.0) / 3.0 + 2.0 * math.exp(-1.0) / 3.0
        np.testing.assert_allclose(subgraph_centrality(view(K(3))), want, atol=1e-9)

    def test_estrada_index_identity(self):
        for seed in range(20):
            g = random_signed_graph(seed)
            v = view(g)
            sg = subgraph_centrality(v)
            lam = np.linalg.eigvalsh(v.edge_mask.astype(float))
            estrada = np.exp(lam).sum()
            assert abs(sg.sum() - estrada) < 1e-6 * max(estrada, 1.0)

    def test_matches_series(self):
        for seed in range(20):
            g = random_signed_graph(seed)
            v = view(g)
            got = subgraph_centrality(v)
            want = oracles.subgraph_series_naive(v.edge_mask)
            np.testing.assert_allclose(got, want, atol=1e-8)


class TestMaxCliqueCount:
    def test_k3_single_clique(self):
        np.testing.assert_array_equal(max_clique_count(view(K(3))), [1, 1, 1])

    def test_two_triangles_sharing_node(self):
        g = unit_graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])
        np.testing.assert_array_equal(max_clique_count(view(g)), [2, 1, 1, 1, 1])

    def test_path_p3(self):
        g = unit_graph(3, [(0, 1), (1, 2)])
        np.testing.assert_array_equal(max_clique_count(view(g)), [1, 2, 1])

    def test_isolated_only_graph(self):
        g = graph_from_edges(3, [(0, 1, -1.0), (1, 2, -1.0)])
        np.testing.assert_array_equal(max_clique_count(view(g)), [1, 1, 1])

    def test_clique_budget_enforced(self, monkeypatch):
        g = unit_graph(6, [(i, j) for i in range(6) for j in range(i + 1, 6)][:9])
        monkeypatch.setattr(centrality, "MC_MAX_CLIQUES", 1)
        with pytest.raises(ResourceBudgetError, match="maximal cliques"):
            max_clique_count(view(g))

    def test_clique_time_budget_enforced(self, monkeypatch):
        # complete 11-partite graph with parts of size 2: 2^11 maximal cliques,
        # enough to hit the periodic deadline check
        edges = []
        for a in range(22):
            for b in range(a + 1, 22):
                if (a // 2) != (b // 2):
                    edges.append((a, b))
        g = unit_graph(22, edges)
        monkeypatch.setattr(centrality, "MC_TIME_BUDGET", -1.0)
        with pytest.raises(ResourceBudgetError, match="exceeded"):
            max_clique_count(view(g))

    def test_matches_exhaustive(self):
        for seed in range(15):
            g = random_signed_graph(seed, n_range=(6, 11))
            v = view(g)
            got = max_clique_count(v)
            want = oracles.max_clique_count_naive(v.edge_mask)
            np.testing.assert_array_equal(got, want)


class TestBipartiteClustering:
    def test_k22(self):
        g = unit_graph(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
        np.testing.assert_array_equal(bipartite_clustering(view(g)), [1.0, 1.0, 1.0, 1.0])

    def test_path_p4_end(self):
        g = unit_graph(4, [(0, 1), (1, 2), (2, 3)])
        bc = bipartite_clustering(view(g))
        assert bc[0] == pytest.approx(0.5)

    def test_star_center_zero(self):
        g = unit_graph(4, [(0, 1), (0, 2), (0, 3)])
        assert bipartite_clustering(view(g))[0] == 0.0

    def test_matches_naive(self):
        for seed in range(20):
            g = random_signed_graph(seed)
            v = view(g)
            got = bipartite_clustering(v)
            want = oracles.bipartite_clustering_naive(v.edge_mask)
            np.testing.assert_array_equal(got, want)


class TestHarmonic:
    def test_p3_unit(self):
        g = unit_graph(3, [(0, 1), (1, 2)])
        np.testing.assert_allclose(harmonic(view(g, VIEW_POSITIVE)), [1.5, 2.0, 1.5])

    def test_isolated_pair(self):
        g = graph_from_edges(2, [(0, 1, -1.0)])
        np.testing.assert_array_equal(harmonic(view(g, VIEW_POSITIVE)), [0.0, 0.0])

    def test_k2_short_edge(self):
        g = graph_from_edges(2, [(0, 1, 0.5)])
        np.testing.assert_allclose(harmonic(view(g, VIEW_POSITIVE)), [2.0, 2.0])

    def test_monotone_under_edge_addition(self):
        base = unit_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        before = harmonic(view(base, VIEW_POSITIVE))
        denser = unit_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        after = harmonic(view(denser, VIEW_POSITIVE))
        assert np.all(after >= before - 1e-12)

    def test_monotone_under_random_edge_addition(self):
        rng = np.random.default_rng(8)
        for seed in range(10):
            g = random_signed_graph(seed)
            n = g.node_count
            missing = [(i, j) for i in range(n) for j in range(i + 1, n) if not g.edge_mask[i, j]]
            if not missing:
                continue
            i, j = missing[int(rng.integers(len(missing)))]
            w = g.weights.copy()
            mask = g.edge_mask.copy()
            w[i, j] = w[j, i] = float(rng.uniform(0.1, 1.0))
            mask[i, j] = mask[j, i] = True
            before = harmonic(view(g, VIEW_POSITIVE))
            after = harmonic(view(NeuronGraph(weights=w, edge_mask=mask), VIEW_POSITIVE))
            assert np.all(after >= before - 1e-12)

    def test_matches_floyd_warshall(self):
        for seed in range(15):
            g = random_signed_graph(seed)
            v = view(g, VIEW_POSITIVE)
            got = harmonic(v)
            want = oracles.harmonic_naive(v.weights, v.edge_mask)
            np.testing.assert_allclose(got, want, atol=1e-9)

    def test_nonpositive_lengths_rejected(self):
        g = graph_from_edges(2, [(0, 1, -1.0)])
        with pytest.raises(StructuralError, match="positive edge lengths"):
            harmonic(view(g, VIEW_ORIGINAL))


class TestCurrentFlowCloseness:
    def test_k2_unit(self):
        np.testing.assert_allclose(current_flow_closeness(view(K(2), VIEW_ORIGINAL)), [1.0, 1.0], atol=1e-9)

    def test_p3_series_resistance(self):
        g = unit_graph(3, [(0, 1), (1, 2)])
        cfc = current_flow_closeness(view(g, VIEW_ORIGINAL))
        np.testing.assert_allclose(cfc, [2.0 / 3.0, 1.0, 2.0 / 3.0], atol=1e-9)

    def test_k3_unit(self):
        cfc = current_flow_closeness(view(K(3), VIEW_ORIGINAL))
        np.testing.assert_allclose(cfc, 1.5, atol=1e-9)

    def test_disconnected_rejected(self):
        g = unit_graph(4, [(0, 1), (2, 3)])
        with pytest.raises(StructuralError, match="connected"):
            current_flow_closeness(view(g, VIEW_ORIGINAL))

    def test_absolute_mode_flips_negative_weights(self):
        g = graph_from_edges(2, [(0, 1, -2.0)])
        raw = current_flow_closeness(view(g, VIEW_ORIGINAL), mode="raw")
        absolute = current_flow_closeness(view(g, VIEW_ORIGINAL), mode="absolute")
        np.testing.assert_allclose(raw, [-2.0, -2.0], atol=1e-12)
        np.testing.assert_allclose(absolute, [2.0, 2.0], atol=1e-12)

    def test_tree_effective_resistance_is_path_sum(self):
        g = graph_from_edges(4, [(0, 1, 2.0), (1, 2, 4.0), (1, 3, 0.5)])
        v = view(g, VIEW_ORIGINAL)
        lap = np.diag(v.weights.sum(axis=1)) - v.weights
        lp = np.linalg.pinv(lap, hermitian=True)
        d = np.diag(lp)
        r = d[:, None] + d[None, :] - 2 * lp
        # reciprocal conductances along unique paths
        assert r[0, 2] == pytest.approx(1 / 2.0 + 1 / 4.0, abs=1e-9)
        assert r[0, 3] == pytest.approx(1 / 2.0 + 1 / 0.5, abs=1e-9)
        assert r[2, 3] == pytest.approx(1 / 4.0 + 1 / 0.5, abs=1e-9)

    def test_singular_grounded_laplacian_raises(self):
        # a zero-weight edge connects the pair but conducts nothing: L = 0
        g = graph_from_edges(2, [(0, 1, 0.0)])
        with pytest.raises(NumericalError, match=r"cfc \(mode=absolute\): L \+ J/n is singular"):
            current_flow_closeness(view(g, VIEW_ORIGINAL), mode="absolute")

    def test_matches_grounded_solver(self):
        for seed in range(15):
            g = random_signed_graph(seed)
            comp = largest_component(view(g, VIEW_ORIGINAL))
            if comp.view.node_count < 2:
                continue
            got = current_flow_closeness(comp.view)
            want = oracles.current_flow_closeness_naive(comp.view.weights, comp.view.edge_mask)
            np.testing.assert_allclose(got, want, atol=1e-9)


class TestVertexTransitiveConstancy:
    @pytest.mark.parametrize("graph", [K(4), unit_graph(6, [(i, (i + 1) % 6) for i in range(6)])])
    def test_all_measures_constant(self, graph):
        for mid in MEASURE_ORDER:
            v = threshold_view(graph, MEASURES[mid].view_mode)
            vec = compute_measure(mid, v)
            np.testing.assert_allclose(vec, vec[0], atol=1e-9, err_msg=mid)


class TestMeasureAll:
    def test_tiny_positive_net(self):
        weights = (np.array([[0.5, 0.4]]), np.array([[0.3], [0.2]]))
        net = LayeredNetwork(arch=(1, 2, 1), weights=weights)
        table = measure_all(net)
        assert table.values.shape == (2, 8)
        assert not np.isnan(table.values).any()

    def test_starved_neurons_flagged(self):
        rng = np.random.default_rng(0)
        w1 = np.abs(rng.uniform(0.1, 1.0, size=(3, 4)))
        w2 = -np.abs(rng.uniform(0.1, 1.0, size=(4, 2)))
        w3 = np.abs(rng.uniform(0.1, 1.0, size=(2, 2)))
        net = LayeredNetwork(arch=(3, 4, 2, 2), weights=(w1, w2, w3))
        table = measure_all(net)
        so = table.column("so")
        layer2 = table.layer == 2
        # layer-2 neurons lose every positive synapse to layer 1: outside the
        # largest positive component, so undefined for connectivity measures
        assert np.isnan(so[layer2]).all()
        assert np.all(table.column("sg")[layer2] >= 1.0)

    def test_paper_architecture_full_table(self):
        net = init_network((784, 200, 100, 10), seed=0)
        table = measure_all(net)
        assert table.values.shape == (300, 8)
        assert table.measures == MEASURE_ORDER
        assert set(table.layer.tolist()) == {1, 2}

    def test_no_hidden_layer_gives_empty_table(self, tmp_path):
        table = measure_all(init_network((3, 2), seed=0), measures=MEASURE_ORDER)
        assert table.values.shape == (0, 8)
        write_measures_csv([table], tmp_path / "m.csv")
        assert (tmp_path / "m.csv").read_text() == "network_id,layer,neuron,s,snn,so,sg,mc,bc,hc,cfc\n"

    def test_unknown_measure_rejected(self):
        net = init_network((2, 2, 2), seed=0)
        with pytest.raises(StructuralError, match="valid"):
            measure_all(net, measures=("s", "pagerank"))

    def test_repeated_measure_rejected(self):
        net = init_network((2, 2, 2), seed=0)
        with pytest.raises(StructuralError, match=r"repeated measures in \['s', 'bc', 's'\]"):
            measure_all(net, measures=("s", "bc", "s"))


def _edge_case_nets():
    """Seeded nets at a toy and at the desk architecture, plus edge cases."""
    nets = [init_network(arch, seed=seed) for arch in ((12, 6, 5, 3), (784, 32, 16, 10)) for seed in (0, 1)]
    w = [np.array(x) for x in init_network((12, 6, 5, 3), seed=2).weights]
    w[0][::3, ::2] = 0.0  # zero-weight synapses: edges of the original view only
    w[1][::2, 1] = 0.0
    w[0][:, 2] = -np.abs(w[0][:, 2])  # neuron 2 of layer 1 has only negative synapses,
    w[1][2, :] = -np.abs(w[1][2, :])  # so it is isolated in the positive views
    nets.append(LayeredNetwork(arch=(12, 6, 5, 3), weights=w))
    # no positive synapse at all: the positive views have no edges
    nets.append(LayeredNetwork(arch=(4, 3, 2), weights=[-np.abs(x) for x in init_network((4, 3, 2), seed=3).weights]))
    return nets


def _untagged(graph):
    """The graph without layer tags: every measure takes its general path."""
    return NeuronGraph(graph.weights, graph.edge_mask)


def _low_pivot_net():
    """784,32,16,10 with the signed degree of input 0 forced to round-off."""
    w = [np.array(x) for x in init_network((784, 32, 16, 10), seed=4).weights]
    w[0][0] -= w[0][0].mean()
    return LayeredNetwork(arch=(784, 32, 16, 10), weights=w)


def _hc_edge_case_nets():
    """Nets whose positive views have an isolated input, an h1 neuron reached
    only from above, or a single hidden layer; and one at the desk size."""
    w = [np.array(x) for x in init_network((12, 6, 5, 3), seed=5).weights]
    w[0][0] = -np.abs(w[0][0])  # input 0 has no positive synapse
    w[0][:, 1] = -np.abs(w[0][:, 1])  # h1 neuron 1 has no positive input
    return [LayeredNetwork(arch=(12, 6, 5, 3), weights=w), init_network((12, 6, 3), seed=6),
            init_network((784, 32, 16, 10), seed=7)]


class TestLayeredKernels:
    """measure_all's row kernels against the general functions at the hidden rows."""

    @pytest.mark.parametrize("net", _edge_case_nets())
    def test_measure_all_matches_general_functions(self, net):
        table = measure_all(net)
        graph = build_graph(net)
        hidden = np.flatnonzero((graph.layers >= 1) & (graph.layers < net.depth))
        general = {"s": strength, "snn": avg_neighbor_strength, "sg": subgraph_centrality,
                   "mc": max_clique_count, "bc": bipartite_clustering, "hc": harmonic}
        for m in MEASURE_ORDER:
            v = threshold_view(_untagged(graph), MEASURES[m].view_mode)
            if m in general:
                want = general[m](v)[hidden]
            else:
                want = np.full(graph.node_count, np.nan)
                comp = largest_component(v).view
                if comp.node_count >= 2:
                    func = second_order if m == "so" else current_flow_closeness
                    want[comp.node_ids] = func(comp)
                want = want[hidden]
            got = table.column(m)
            if m in ("s", "snn", "mc"):
                np.testing.assert_array_equal(got, want, err_msg=m)
            elif m == "sg":
                np.testing.assert_allclose(got, want, rtol=1e-10, atol=0.0, err_msg=m)
            else:
                tol = {"so": 1e-6, "cfc": 1e-9}.get(m, 1e-12)
                np.testing.assert_allclose(got, want, rtol=0.0, atol=tol, err_msg=m)

    @pytest.mark.parametrize("net", _edge_case_nets() + [_low_pivot_net()])
    def test_grounded_inverse_matches_dense_oracle(self, net):
        graph = build_graph(net)
        conductances = ((VIEW_POSITIVE_UNWEIGHTED, lambda v: v.edge_mask.astype(np.float64)),
                        (VIEW_ORIGINAL, lambda v: v.weights), (VIEW_ORIGINAL, lambda v: np.abs(v.weights)))
        for mode, conductance in conductances:
            comp = largest_component(threshold_view(graph, mode)).view
            if comp.node_count < 2:
                continue
            w = conductance(comp)
            got = centrality._laplacian_pinv_diagonal(comp, w, "test")
            np.testing.assert_allclose(got, oracles.laplacian_pinv_diagonal_dense(w), rtol=1e-9, atol=0.0)

    def test_low_pivot_stays_in_schur_block(self, caplog):
        net = _low_pivot_net()
        v = threshold_view(build_graph(net), VIEW_ORIGINAL)
        d = np.abs(v.weights.sum(axis=1))
        low = np.flatnonzero((v.layers % 2 == 0) & (d <= centrality.PIVOT_TAU * d.max()))
        assert 0 in low
        with caplog.at_level(logging.DEBUG, logger="neurotopo.centrality"):
            table = measure_all(net, measures=("cfc",))
        assert f"cfc (mode=raw): tau 0.0001, {low.size} of 800 even-side pivots kept in S" in caplog.text
        n = v.node_count
        lp = oracles.laplacian_pinv_diagonal_dense(v.weights)
        hidden = np.flatnonzero((v.layers >= 1) & (v.layers < net.depth))
        want = (n - 1) / (n * lp + lp.sum())
        np.testing.assert_allclose(table.column("cfc"), want[hidden], rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize("net", _hc_edge_case_nets())
    def test_reduced_harmonic_matches_dijkstra(self, net, monkeypatch):
        graph = build_graph(net)
        v = threshold_view(graph, VIEW_POSITIVE)
        calls = []
        reduced = centrality._input_eliminated_distances

        def spy(*args):
            calls.append(args)
            return reduced(*args)

        monkeypatch.setattr(centrality, "_input_eliminated_distances", spy)
        everything = np.arange(graph.node_count)
        mixed = np.flatnonzero(graph.layers != 1)[::2]  # inputs, deeper layers and the output
        for nodes in (everything, mixed):
            want = harmonic(threshold_view(_untagged(graph), VIEW_POSITIVE), nodes)
            np.testing.assert_allclose(harmonic(v, nodes), want, rtol=1e-12, atol=0.0)
        assert len(calls) == 2

    def test_isolated_hidden_neuron(self):
        table = measure_all(_edge_case_nets()[4])
        row = (table.layer == 1) & (table.neuron == 2)
        assert table.column("mc")[row] == 0.0
        assert table.column("sg")[row] == 1.0
        assert table.column("hc")[row] == 0.0
        assert np.isnan(table.column("so")[row]).all()

    def test_non_bipartite_layering_falls_back(self):
        # a triangle tagged with layers 0, 1, 2: the 0-2 edge joins two even layers
        g = NeuronGraph.from_adjacency(K(3).weights, layers=[0, 1, 2])
        v = view(g)
        nodes = np.array([1, 2])
        np.testing.assert_array_equal(compute_measure("mc", v, nodes=nodes), max_clique_count(v)[nodes])
        np.testing.assert_array_equal(compute_measure("mc", v, nodes=nodes), [1.0, 1.0])  # not degree 2
        np.testing.assert_array_equal(compute_measure("sg", v, nodes=nodes), subgraph_centrality(v)[nodes])

    def test_one_compute_measure_call_per_measure(self, monkeypatch):
        calls = []
        inner = centrality.compute_measure

        def spy(measure_id, *args, **kwargs):
            calls.append(measure_id)
            return inner(measure_id, *args, **kwargs)

        monkeypatch.setattr(centrality, "compute_measure", spy)
        measure_all(init_network((12, 6, 5, 3), seed=0), measures=MEASURE_ORDER)
        assert sorted(calls) == sorted(MEASURE_ORDER)


class TestNetworkxOracle:
    """networkx as an oracle independent of both neurotopo and tests/oracles.py."""

    @pytest.mark.parametrize("seed", [0, 3])
    def test_hidden_rows_match_networkx(self, seed):
        nx = pytest.importorskip("networkx")
        net = init_network((12, 6, 5, 3), seed=seed)
        graph = build_graph(net)
        n = graph.node_count
        hidden = np.flatnonzero((graph.layers >= 1) & (graph.layers < net.depth)).tolist()
        signed = nx.Graph()
        signed.add_nodes_from(range(n))
        signed.add_weighted_edges_from(
            (int(i), int(j), float(graph.weights[i, j])) for i, j in np.argwhere(np.triu(graph.edge_mask))
        )
        positive = nx.Graph()
        positive.add_nodes_from(range(n))
        positive.add_weighted_edges_from((u, v, w) for u, v, w in signed.edges(data="weight") if w > 0.0)
        unweighted = nx.Graph(positive.edges())
        unweighted.add_nodes_from(range(n))
        comp = unweighted.subgraph(max(nx.connected_components(unweighted), key=len))
        table = measure_all(net)

        def want(values):
            return np.array([values.get(v, np.nan) for v in hidden])

        sg = want(nx.subgraph_centrality(unweighted))
        np.testing.assert_allclose(table.column("sg"), sg, rtol=1e-10)
        hc = want(nx.harmonic_centrality(positive, distance="weight"))
        np.testing.assert_allclose(table.column("hc"), hc, rtol=1e-12, atol=1e-12)
        bc = want(nx.bipartite.latapy_clustering(unweighted, nodes=hidden, mode="max"))
        np.testing.assert_allclose(table.column("bc"), bc, rtol=0.0, atol=1e-12)
        so = want(nx.second_order_centrality(comp))
        np.testing.assert_allclose(table.column("so"), so, rtol=0.0, atol=1e-6)
        cfc = want(nx.current_flow_closeness_centrality(signed, weight="weight")) * (n - 1)
        np.testing.assert_allclose(table.column("cfc"), cfc, rtol=1e-9, atol=1e-9)


class TestMeasuresCsv:
    def test_round_trip_with_nan(self, tmp_path):
        net = init_network((3, 4, 2, 2), seed=2)
        table = measure_all(net, measures=("s", "snn", "so"))
        path = tmp_path / "measures.csv"
        write_measures_csv([table], path)
        back = read_measures_csv(path)
        assert len(back) == 1
        assert back[0].measures == ("s", "snn", "so")
        np.testing.assert_array_equal(back[0].layer, table.layer)
        np.testing.assert_array_equal(back[0].values, table.values)

    def test_duplicate_network_ids_rejected(self, tmp_path):
        net = init_network((3, 4, 2, 2), seed=2)
        tables = [measure_all(net, measures=("s",)) for _ in range(2)]
        with pytest.raises(StructuralError, match="'seed2' .*: table 0 and table 1"):
            write_measures_csv(tables, tmp_path / "measures.csv")
        with pytest.raises(StructuralError, match="a.json and b.json"):
            write_measures_csv(tables, tmp_path / "measures.csv", sources=["a.json", "b.json"])

    @pytest.mark.parametrize("cell", ["inf", "nan", " 1.0 ", "1.50", "-Infinity"])
    def test_cells_the_writer_never_writes_rejected(self, tmp_path, cell):
        path = tmp_path / "measures.csv"
        path.write_text(f"network_id,layer,neuron,s,so\na,1,0,0.25,NaN\na,1,1,{cell},NaN\n")
        with pytest.raises(FormatError, match="measures.csv:3: "):
            read_measures_csv(path)

    @pytest.mark.parametrize("layer, neuron", [(" 1", "1"), ("1", "1_0"), ("1", "+1"), ("01", "1")])
    def test_int_cells_the_writer_never_writes_rejected(self, tmp_path, layer, neuron):
        path = tmp_path / "measures.csv"
        path.write_text(f"network_id,layer,neuron,s\na,1,0,0.25\na,{layer},{neuron},0.5\n")
        with pytest.raises(FormatError, match="measures.csv:3: .* is not a plain decimal integer"):
            read_measures_csv(path)

    @pytest.mark.parametrize("columns", [[], ["s", "zz"], ["s", "bc", "s"]])
    def test_bad_measure_columns_rejected(self, tmp_path, columns):
        path = tmp_path / "measures.csv"
        header = ",".join(["network_id", "layer", "neuron", *columns])
        path.write_text(f"{header}\n" + ",".join(["a", "1", "0"] + ["0.5"] * len(columns)) + "\n")
        with pytest.raises(FormatError, match="measures.csv: bad measure columns"):
            read_measures_csv(path)

    def test_split_network_rows_rejected(self, tmp_path):
        path = tmp_path / "measures.csv"
        path.write_text("network_id,layer,neuron,s\na,1,0,1.0\nb,1,0,2.0\na,1,1,3.0\n")
        with pytest.raises(FormatError, match=r"measures.csv:4: .*'a'"):
            read_measures_csv(path)
