"""Unit checks for the eight measures: closed forms, hand-worked examples, properties."""

import math

import numpy as np
import pytest

import oracles
from conftest import graph_from_edges, random_signed_graph, unit_graph
from neurotopo.centrality import (
    MEASURE_ORDER,
    avg_neighbor_strength,
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
from neurotopo.errors import FormatError, ResourceBudgetError, StructuralError
from neurotopo.model import (
    VIEW_ORIGINAL,
    VIEW_POSITIVE,
    VIEW_POSITIVE_UNWEIGHTED,
    LayeredNetwork,
    NeuronGraph,
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

    def test_clique_budget_enforced(self):
        g = unit_graph(6, [(i, j) for i in range(6) for j in range(i + 1, 6)][:9])
        with pytest.raises(ResourceBudgetError, match="maximal cliques"):
            max_clique_count(view(g), max_cliques=1)

    def test_clique_time_budget_enforced(self):
        # complete 11-partite graph with parts of size 2: 2^11 maximal cliques,
        # enough to hit the periodic deadline check
        edges = []
        for a in range(22):
            for b in range(a + 1, 22):
                if (a // 2) != (b // 2):
                    edges.append((a, b))
        g = unit_graph(22, edges)
        with pytest.raises(ResourceBudgetError, match="exceeded"):
            max_clique_count(view(g), time_budget=-1.0)

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
            from neurotopo.centrality import MEASURES, compute_measure

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

    def test_unknown_measure_rejected(self):
        net = init_network((2, 2, 2), seed=0)
        with pytest.raises(StructuralError, match="valid"):
            measure_all(net, measures=("s", "pagerank"))


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
        with pytest.raises(StructuralError, match="seed2"):
            write_measures_csv(tables, tmp_path / "measures.csv")

    def test_split_network_rows_rejected(self, tmp_path):
        path = tmp_path / "measures.csv"
        path.write_text("network_id,layer,neuron,s\na,1,0,1.0\nb,1,0,2.0\na,1,1,3.0\n")
        with pytest.raises(FormatError, match=r"measures.csv:4: .*'a'"):
            read_measures_csv(path)
