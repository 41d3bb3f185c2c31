"""Unit checks for the eight measures: closed forms, hand-worked examples, properties."""

import logging
import math
import tracemalloc
from functools import cached_property

import numpy as np
import pytest
from scipy.sparse.csgraph import dijkstra, floyd_warshall

import oracles
from conftest import layered_graph, ones_graph, random_layered_net
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
from neurotopo.errors import FormatError, NumericalError, StructuralError
from neurotopo.model import (
    VIEW_ORIGINAL,
    VIEW_POSITIVE,
    GraphView,
    LayeredNetwork,
    build_graph,
    largest_component,
    threshold_view,
)
from neurotopo.trainer import init_network


def view(graph, mode=VIEW_POSITIVE):
    return threshold_view(graph, mode)


def random_cases(count):
    """(positive view, dense positive weights, dense positive mask) of seeded random layered nets."""
    for seed in range(count):
        net = random_layered_net(seed)
        yield (view(build_graph(net)), *oracles.positive_part(*oracles.build_graph_dense(net)[:2]))


class TestStrength:
    def test_signed_path(self):
        g = layered_graph((1, 1, 1), [[0.5]], [[-0.2]])
        s = strength(view(g, VIEW_ORIGINAL))
        np.testing.assert_allclose(s, [0.5, 0.3, -0.2])

    def test_isolated_node_zero(self):
        g = layered_graph((1, 1, 1), [[1.0]], [[-1.0]])
        assert strength(view(g, VIEW_POSITIVE))[2] == 0.0

    def test_p4_degrees(self):
        np.testing.assert_array_equal(strength(view(ones_graph((1, 1, 1, 1)), VIEW_ORIGINAL)), [1.0, 2.0, 2.0, 1.0])

    def test_negative_k2(self):
        g = layered_graph((1, 1), [[-1.0]])
        np.testing.assert_array_equal(strength(view(g, VIEW_ORIGINAL)), [-1.0, -1.0])

    def test_sum_is_twice_edge_total(self):
        for seed in range(20):
            net = random_layered_net(seed)
            total = strength(view(build_graph(net), VIEW_ORIGINAL)).sum()
            assert abs(total - 2.0 * sum(w.sum() for w in net.weights)) < 1e-9


class TestAvgNeighborStrength:
    def test_k2_identity(self):
        g = layered_graph((1, 1), [[0.37]])
        np.testing.assert_allclose(avg_neighbor_strength(view(g, VIEW_ORIGINAL)), [0.37, 0.37])

    def test_k22_symmetry(self):
        snn = avg_neighbor_strength(view(ones_graph((2, 2)), VIEW_ORIGINAL))
        np.testing.assert_allclose(snn, [2.0, 2.0, 2.0, 2.0])

    def test_p4(self):
        # an end sees one middle neighbor of strength 2; a middle node an end and a middle
        snn = avg_neighbor_strength(view(ones_graph((1, 1, 1, 1)), VIEW_ORIGINAL))
        np.testing.assert_allclose(snn, [2.0, 1.5, 1.5, 2.0])

    def test_star_center(self):
        snn = avg_neighbor_strength(view(ones_graph((1, 3)), VIEW_ORIGINAL))
        assert snn[0] == pytest.approx(1.0)

    def test_zero_strength_flagged(self):
        g = layered_graph((1, 2), [[1.0, -1.0]])
        snn = avg_neighbor_strength(view(g, VIEW_ORIGINAL))
        assert math.isnan(snn[0])

    def test_no_dense_temporary(self):
        # row blocks of products: the peak stays far below one N×N float64 matrix
        net = init_network((784, 200, 100, 10), seed=1)
        graph = build_graph(net)
        hidden = np.flatnonzero((graph.layers >= 1) & (graph.layers < net.depth))
        n = graph.node_count
        tracemalloc.start()
        try:
            compute_measure("snn", graph, nodes=hidden)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8 / 4


class TestSecondOrder:
    def test_k2_zero_variance(self):
        np.testing.assert_allclose(second_order(view(ones_graph((1, 1)))), [0.0, 0.0])

    def test_k22_closed_form(self):
        # the return time to a node of the 4-cycle is 2 + 2G, G geometric with p = 1/2: variance 4·2
        np.testing.assert_allclose(second_order(view(ones_graph((2, 2)))), math.sqrt(8.0), atol=1e-9)

    def test_p4_closed_form(self):
        # the lazy ends keep the walk uniform; the mean passage times to an end sum to 32
        # (4, 6, 10, 12) and to a middle node to 16 (2, 4, 4, 6), and the variance is 2·Σm − n(n + 1)
        want = [math.sqrt(44.0), math.sqrt(12.0), math.sqrt(12.0), math.sqrt(44.0)]
        np.testing.assert_allclose(second_order(view(ones_graph((1, 1, 1, 1)))), want, atol=1e-9)

    def test_vertex_transitive_constant(self):
        so = second_order(view(ones_graph((3, 3))))
        np.testing.assert_allclose(so, so[0], atol=1e-9)

    def test_nan_off_largest_component(self):
        check_on_largest_component(second_order)

    def test_matches_per_target_solves(self):
        for v, _, mask in random_cases(10):
            keep = oracles.largest_component_naive(mask)
            if len(keep) < 2:
                continue
            want = oracles.second_order_naive(mask[np.ix_(keep, keep)])
            np.testing.assert_allclose(second_order(v)[keep], want, atol=1e-6)


class TestSubgraphCentrality:
    def test_isolated_node(self):
        g = layered_graph((1, 1), [[-1.0]])
        np.testing.assert_allclose(subgraph_centrality(view(g)), [1.0, 1.0])

    def test_k2_cosh(self):
        np.testing.assert_allclose(subgraph_centrality(view(ones_graph((1, 1)))), math.cosh(1.0), atol=1e-9)

    def test_p3_closed_form(self):
        # A has eigenvalues ±√2 and 0; the middle node holds half of each ±√2 eigenvector
        middle = math.cosh(math.sqrt(2.0))
        want = [(1.0 + middle) / 2.0, middle, (1.0 + middle) / 2.0]
        np.testing.assert_allclose(subgraph_centrality(view(ones_graph((1, 1, 1)))), want, atol=1e-9)

    def test_p4_closed_form(self):
        # A has eigenvalues 2cos(kπ/5) with eigenvectors √(2/5)·sin(jkπ/5), j, k = 1..4
        want = [0.4 * sum(math.sin(j * k * math.pi / 5.0) ** 2 * math.exp(2.0 * math.cos(k * math.pi / 5.0))
                          for k in range(1, 5)) for j in range(1, 5)]
        np.testing.assert_allclose(subgraph_centrality(view(ones_graph((1, 1, 1, 1)))), want, atol=1e-9)

    def test_estrada_index_identity(self):
        for v, _, mask in random_cases(20):
            sg = subgraph_centrality(v)
            estrada = np.exp(np.linalg.eigvalsh(mask.astype(float))).sum()
            assert abs(sg.sum() - estrada) < 1e-6 * max(estrada, 1.0)

    def test_matches_series(self):
        for v, _, mask in random_cases(20):
            np.testing.assert_allclose(subgraph_centrality(v), oracles.subgraph_series_naive(mask), atol=1e-8)

    def test_small_components_of_a_paper_net(self):
        # one decomposition of the whole view scaled round-off by its cosh σ_max (about 4e91 here)
        w = [np.array(x) for x in init_network((784, 200, 100, 10), seed=3).weights]
        w[0][:, :2] = -np.abs(w[0][:, :2])  # h1 neurons 0 and 1 lose their positive inputs,
        w[1][:2] = -np.abs(w[1][:2])  # and their positive synapses to h2
        w[1][:, 0] = -np.abs(w[1][:, 0])  # h2 neuron 0 keeps one positive synapse, to h1 neuron 1,
        w[1][1, 0] = 0.5
        w[2][0] = -np.abs(w[2][0])  # and none to the outputs
        graph = build_graph(LayeredNetwork(arch=(784, 200, 100, 10), weights=w))
        sg = subgraph_centrality(view(graph), np.array([784, 785, 984]))
        assert sg[0] == 1.0  # an isolated odd neuron
        np.testing.assert_allclose(sg[1:], math.cosh(1.0), rtol=1e-12, atol=0.0)  # the component {h1 1, h2 0}

    @pytest.mark.parametrize("arch, layer", [((784, 32, 16, 10), 1), ((2, 12, 6, 10), 2)])
    def test_rank_deficient_biadjacency_matches_dense_eigh(self, arch, layer):
        # three copies of a hidden neuron on the smaller side (odd, then even) give the
        # biadjacency B repeated lines, so the Gram matrix of that side has λ = 0
        w = [np.array(x) for x in init_network(arch, seed=4).weights]
        for dup in (1, 2, 3):
            w[layer - 1][:, dup], w[layer][dup] = w[layer - 1][:, 0], w[layer][0]
        net = LayeredNetwork(arch=arch, weights=w)
        weights, mask, layers = oracles.build_graph_dense(net)
        mask = oracles.positive_part(weights, mask)[1]
        b = mask[np.ix_(layers % 2 == 0, layers % 2 == 1)].astype(np.float64)
        assert np.linalg.matrix_rank(b) <= min(b.shape) - 3
        lam, u = np.linalg.eigh(mask.astype(np.float64))
        got = subgraph_centrality(view(build_graph(net)))
        assert np.all(np.isfinite(got)) and np.all(got >= 1.0)
        np.testing.assert_allclose(got, (u * u) @ np.exp(lam), rtol=1e-10, atol=0.0)


class TestMaxCliqueCount:
    def test_path_p3(self):
        np.testing.assert_array_equal(max_clique_count(view(ones_graph((1, 1, 1)))), [1, 2, 1])

    def test_path_p4(self):
        # its largest cliques are its edges: each node counts its degree
        np.testing.assert_array_equal(max_clique_count(view(ones_graph((1, 1, 1, 1)))), [1, 2, 2, 1])

    def test_isolated_only_graph(self):
        g = layered_graph((1, 1, 1), [[-1.0]], [[-1.0]])
        np.testing.assert_array_equal(max_clique_count(view(g)), [1, 1, 1])

    def test_matches_exhaustive(self):
        for v, _, mask in random_cases(15):
            np.testing.assert_array_equal(max_clique_count(v), oracles.max_clique_count_naive(mask))


class TestBipartiteClustering:
    def test_k22(self):
        np.testing.assert_array_equal(bipartite_clustering(view(ones_graph((2, 2)))), [1.0, 1.0, 1.0, 1.0])

    def test_path_p4_end(self):
        bc = bipartite_clustering(view(ones_graph((1, 1, 1, 1))))
        assert bc[0] == pytest.approx(0.5)

    def test_path_p4_middle(self):
        # the one node two steps away shares one neighbor, over the larger degree 2
        bc = bipartite_clustering(view(ones_graph((1, 1, 1, 1))))
        np.testing.assert_allclose(bc, [0.5, 0.5, 0.5, 0.5])

    def test_star_center_zero(self):
        assert bipartite_clustering(view(ones_graph((1, 3))))[0] == 0.0

    def test_matches_naive(self):
        for v, _, mask in random_cases(20):
            np.testing.assert_array_equal(bipartite_clustering(v), oracles.bipartite_clustering_naive(mask))

    @pytest.mark.parametrize("source", ["random", (784, 32, 16, 10), (784, 200, 100, 10)])
    def test_float32_counts_match_float64_product(self, source):
        if source == "random":
            cases = [random_layered_net(seed) for seed in range(20)]
        else:
            cases = [init_network(source, seed=0)]
        for net in cases:
            graph = build_graph(net)
            hidden = np.flatnonzero((graph.layers >= 1) & (graph.layers < net.depth))
            nodes = None if source == "random" else hidden
            v = view(graph)
            _, mask = oracles.positive_part(*oracles.build_graph_dense(net)[:2])
            rows = np.arange(v.node_count) if nodes is None else nodes
            deg = mask.sum(axis=1, dtype=np.float64)
            common = mask[rows].astype(np.float64) @ mask.astype(np.float64)
            want = np.zeros(len(rows))
            for k, node in enumerate(rows):
                cand = (common[k] >= 1.0) & (np.arange(v.node_count) != node)
                if cand.any():
                    want[k] = np.mean(common[k, cand] / np.maximum(deg[node], deg[cand]))
            assert bipartite_clustering(v, nodes).tobytes() == want.tobytes()


class TestHarmonic:
    def test_p3_unit(self):
        np.testing.assert_allclose(harmonic(view(ones_graph((1, 1, 1)))), [1.5, 2.0, 1.5])

    def test_p4_unit(self):
        np.testing.assert_allclose(harmonic(view(ones_graph((1, 1, 1, 1)))), [11.0 / 6.0, 2.5, 2.5, 11.0 / 6.0])

    def test_isolated_pair(self):
        g = layered_graph((1, 1), [[-1.0]])
        np.testing.assert_array_equal(harmonic(view(g, VIEW_POSITIVE)), [0.0, 0.0])

    def test_k2_short_edge(self):
        g = layered_graph((1, 1), [[0.5]])
        np.testing.assert_allclose(harmonic(view(g, VIEW_POSITIVE)), [2.0, 2.0])

    def test_monotone_under_edge_addition(self):
        # P4 (2-0-3-1 in positions), then the 4-cycle K2,2
        before = harmonic(view(layered_graph((2, 2), [[1.0, 1.0], [-1.0, 1.0]])))
        after = harmonic(view(ones_graph((2, 2))))
        assert np.all(after >= before - 1e-12)

    def test_monotone_under_random_edge_addition(self):
        rng = np.random.default_rng(8)
        for seed in range(10):
            net = random_layered_net(seed)
            missing = [(a, i, j) for a, w in enumerate(net.weights) for i, j in np.argwhere(w <= 0.0)]
            if not missing:
                continue
            a, i, j = missing[int(rng.integers(len(missing)))]
            weights = [np.array(w) for w in net.weights]
            weights[a][i, j] = float(rng.uniform(0.1, 1.0))
            before = harmonic(view(build_graph(net)))
            after = harmonic(view(build_graph(LayeredNetwork(arch=net.arch, weights=weights))))
            assert np.all(after >= before - 1e-12)

    def test_matches_floyd_warshall(self):
        for v, weights, mask in random_cases(15):
            np.testing.assert_allclose(harmonic(v), oracles.harmonic_naive(weights, mask), atol=1e-9)

    def test_nonpositive_lengths_rejected(self):
        g = layered_graph((1, 1), [[-1.0]])
        with pytest.raises(StructuralError, match="positive edge lengths"):
            harmonic(view(g, VIEW_ORIGINAL))


class TestCurrentFlowCloseness:
    def test_k2_unit(self):
        np.testing.assert_allclose(current_flow_closeness(view(ones_graph((1, 1)), VIEW_ORIGINAL)), [1.0, 1.0],
                                   atol=1e-9)

    def test_p3_series_resistance(self):
        cfc = current_flow_closeness(view(ones_graph((1, 1, 1)), VIEW_ORIGINAL))
        np.testing.assert_allclose(cfc, [2.0 / 3.0, 1.0, 2.0 / 3.0], atol=1e-9)

    def test_p4_series_resistance(self):
        # an end is 1 + 2 + 3 from the others, a middle node 1 + 1 + 2
        cfc = current_flow_closeness(view(ones_graph((1, 1, 1, 1)), VIEW_ORIGINAL))
        np.testing.assert_allclose(cfc, [0.5, 0.75, 0.75, 0.5], atol=1e-9)

    def test_k22_unit(self):
        # resistances 3/4 to both neighbors and 1 across the 4-cycle: 3 / 2.5
        cfc = current_flow_closeness(view(ones_graph((2, 2)), VIEW_ORIGINAL))
        np.testing.assert_allclose(cfc, 1.2, atol=1e-9)

    def test_nan_off_largest_component(self):
        check_on_largest_component(current_flow_closeness)

    def test_negative_weight_is_a_negative_conductance(self):
        g = layered_graph((1, 1), [[-2.0]])
        np.testing.assert_allclose(current_flow_closeness(view(g, VIEW_ORIGINAL)), [-2.0, -2.0], atol=1e-12)

    def test_tree_effective_resistance_is_path_sum(self):
        # a star: the resistance between two nodes sums the reciprocal conductances on their path
        conductance = np.array([2.0, 4.0, 0.5])
        g = layered_graph((1, 3), [conductance])
        to_center = 1.0 / conductance
        r = np.zeros((4, 4))
        r[0, 1:] = r[1:, 0] = to_center
        r[1:, 1:] = to_center[:, None] + to_center[None, :] - 2.0 * np.diag(to_center)
        np.testing.assert_allclose(current_flow_closeness(view(g, VIEW_ORIGINAL)), 3.0 / r.sum(axis=1), rtol=1e-12)

    def test_singular_grounded_laplacian_raises(self):
        # a zero-weight edge connects the pair but conducts nothing: L = 0
        g = layered_graph((1, 1), [[0.0]])
        with pytest.raises(NumericalError, match=r"cfc: L \+ J/n is singular"):
            current_flow_closeness(view(g, VIEW_ORIGINAL))

    @pytest.mark.parametrize("gap", [1e-13, 1e-14])
    def test_ill_conditioned_schur_block_raises(self, gap, caplog):
        # three two-edge paths of conductance 1/2, 1/2 and -1 + gap/2 between the outer nodes:
        # L would have a second null vector at gap 0, and the outer nodes' own pivots are tiny
        w = -2.0 + gap
        g = layered_graph((1, 3, 1), [[1.0, 1.0, w]], [[1.0], [1.0], [w]])
        with caplog.at_level(logging.DEBUG, logger="neurotopo.centrality"):
            with pytest.raises(NumericalError, match=r"^cfc: the grounded inverse is ill-conditioned "
                                                     r"\(condition number \S+ > 1e\+12\)"):
                current_flow_closeness(view(g, VIEW_ORIGINAL))
        assert "cfc: tau 0.0001, 2 of 2 even-side pivots kept in S of size 4" in caplog.text
        assert float(caplog.text.split("condition number ")[1].split()[0]) > centrality.COND_MAX

    def test_nearly_singular_one_by_one_schur_block_raises(self, caplog):
        # S is 1×1 near zero, so κ₁(S) = 1; the bound max|d_j|·‖S⁻¹‖₁ on κ₁(L_g) sees it
        g = layered_graph((1, 2, 1), [[1.0, 1.0]], [[1.0], [-1.0 / 3.0 + 1e-13]])
        with caplog.at_level(logging.DEBUG, logger="neurotopo.centrality"):
            with pytest.raises(NumericalError, match=r"^cfc: the grounded inverse is ill-conditioned "
                                                     r"\(condition number \S+ > 1e\+12\)"):
                current_flow_closeness(view(g, VIEW_ORIGINAL))
        assert "cfc: tau 0.0001, 0 of 2 even-side pivots kept in S of size 1" in caplog.text

    def test_condition_number_logged_beside_tau(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="neurotopo.centrality"):
            current_flow_closeness(view(ones_graph((1, 3, 1)), VIEW_ORIGINAL))
        # S = [[4/3, -2/3], [-2/3, 4/3]]: ‖S‖₁ = 2 and ‖S⁻¹‖₁ = 3/2, but the outer nodes' |d| is 3
        assert caplog.text.rstrip().endswith("smallest pivot ratio 1, condition number 4.5")

    def test_matches_grounded_solver(self):
        # every random net is fully connected, so its original view is one component
        for seed in range(15):
            net = random_layered_net(seed)
            weights, mask, _ = oracles.build_graph_dense(net)
            v = view(build_graph(net), VIEW_ORIGINAL)
            n = v.node_count
            if np.linalg.matrix_rank(np.diag(weights.sum(axis=1)) - weights + 1.0 / n) < n:
                with pytest.raises(NumericalError, match="^cfc: "):
                    current_flow_closeness(v)
            else:
                want = oracles.current_flow_closeness_naive(weights, mask)
                np.testing.assert_allclose(current_flow_closeness(v), want, atol=1e-9)


def check_on_largest_component(func):
    """func on a positive view of two components and a lone node: NaN off the
    largest component, and there the bits func gives on the component alone."""
    g = layered_graph((2, 3, 2), [[0.5, 1.0, -1.0], [-1.0, -1.0, 2.0]],
                      [[1.5, -1.0], [0.75, -1.0], [-1.0, -1.0]])
    v = view(g)
    alone = view(layered_graph((1, 2, 1), [[0.5, 1.0]], [[1.5], [0.75]]))
    keep, _ = largest_component(v)
    assert keep.tolist() == [0, 2, 3, 5]
    got = func(v)
    assert np.flatnonzero(np.isnan(got)).tolist() == [1, 4, 6]
    np.testing.assert_array_equal(got[keep], func(alone))
    np.testing.assert_array_equal(func(v, np.array([4, 3, 1])), got[[4, 3, 1]])


@pytest.mark.parametrize("func", [second_order, current_flow_closeness])
def test_edgeless_view_is_nan(func):
    # the positive view of a net without a positive synapse has no edge
    for g in (layered_graph((1, 2), [[-1.0, 0.0]]), layered_graph((1, 1, 1), [[-1.0]], [[-0.5]])):
        v = view(g, VIEW_POSITIVE)
        assert np.isnan(func(v)).tolist() == [True] * 3
        assert np.isnan(func(v, np.array([2, 0]))).tolist() == [True] * 2


@pytest.mark.parametrize("layer", [0, 1, 2], ids=["layer 0", "layer 1", "layer 2"])
@pytest.mark.parametrize("func", [second_order, current_flow_closeness])
def test_lone_node_is_nan(func, layer):
    # undefined at one node whatever its layer: the so radicand there is 0, not a value
    g = GraphView((1,), (), np.array([layer]))
    assert np.isnan(func(g)).tolist() == [True]
    assert np.isnan(func(g, np.array([0]))).tolist() == [True]
    assert func(g, np.array([], dtype=np.int64)).shape == (0,)


class TestVertexTransitiveConstancy:
    @pytest.mark.parametrize("graph", [ones_graph((2, 2)), ones_graph((3, 3))])
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

    def test_peak_memory_below_one_dense_matrix(self):
        # the views hold layer blocks, and no kernel makes an N×N array
        net = init_network((784, 200, 100, 10), seed=1)
        n = sum(net.arch)
        tracemalloc.start()
        try:
            measure_all(net)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8

    def test_positive_view_allocates_its_blocks_only(self):
        graph = build_graph(init_network((784, 200, 100, 10), seed=1))
        tracemalloc.start()
        try:
            threshold_view(graph, VIEW_POSITIVE)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000  # 1.6 MB of weight and mask blocks; the N×N view took 10.8 MB

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


def dense_oracle_rows(net):
    """The hidden positions of ``net`` and every measure at every node, from its
    N×N graph (``oracles.build_graph_dense``): dense row sums, one dense
    (L + J/n)⁻¹ per view, a dense eigh, the set-based bc, scipy's Dijkstra and
    mask row sums."""
    weights, mask, layers = oracles.build_graph_dense(net)
    hidden = np.flatnonzero((layers >= 1) & (layers < net.depth))
    pos_w, pos_m = oracles.positive_part(weights, mask)
    binary = pos_m.astype(np.float64)
    s = weights.sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        snn = np.where(s != 0.0, (weights * s).sum(axis=1) / s, np.nan)

    def on_largest_component(m, rule):
        keep = oracles.largest_component_naive(m)
        out = np.full(len(m), np.nan)
        if len(keep) > 1:
            out[keep] = rule(keep, len(keep))
        return out

    def so(keep, n):
        lp = oracles.laplacian_pinv_diagonal_dense(binary[np.ix_(keep, keep)])
        return np.sqrt(np.clip(2.0 * n * n * binary[keep].sum(axis=1).max() * lp - n * n + n, 0.0, None))

    def cfc(keep, n):
        lp = oracles.laplacian_pinv_diagonal_dense(weights[np.ix_(keep, keep)])
        return (n - 1) / (n * lp + lp.sum())

    lam, u = np.linalg.eigh(binary)
    dist = dijkstra(pos_w, directed=False)
    np.fill_diagonal(dist, np.inf)
    deg = binary.sum(axis=1)
    return hidden, {"s": s, "snn": snn, "so": on_largest_component(pos_m, so), "sg": (u * u) @ np.exp(lam),
                    "mc": deg if deg.any() else np.ones(len(deg)), "bc": oracles.bipartite_clustering_naive(pos_m),
                    "hc": np.where(np.isfinite(dist), 1.0 / dist, 0.0).sum(axis=1),
                    "cfc": on_largest_component(mask, cfc)}


class TestLayeredKernels:
    """measure_all's row kernels against dense oracles at the hidden rows."""

    @pytest.mark.parametrize("net", _edge_case_nets())
    def test_measure_all_matches_dense_oracles(self, net):
        table = measure_all(net)
        hidden, want = dense_oracle_rows(net)
        for m in MEASURE_ORDER:
            got, expected = table.column(m), want[m][hidden]
            if m in ("s", "snn", "mc", "bc"):
                np.testing.assert_array_equal(got, expected, err_msg=m)
            else:
                rtol, atol = {"so": (0.0, 1e-6), "hc": (1e-12, 0.0)}.get(m, (1e-10, 0.0))
                np.testing.assert_allclose(got, expected, rtol=rtol, atol=atol, err_msg=m)

    @pytest.mark.parametrize("net", _edge_case_nets() + [init_network((4, 3, 2), seed=5),
                                     init_network((784, 200, 100, 10), seed=1)])
    def test_block_view_measures_match_dense_view(self, net):
        # every measure on the block view has the bits of the same measure on the N×N graph
        graph, dense = build_graph(net), oracles.dense_graph_view(net)
        nodes = None if graph.node_count < 100 else np.flatnonzero((graph.layers >= 1) & (graph.layers < net.depth))
        for m, info in MEASURES.items():
            got = info.func(threshold_view(graph, info.view_mode), nodes)
            want = info.func(threshold_view(dense, info.view_mode), nodes)
            assert got.tobytes() == want.tobytes(), m

    @pytest.mark.parametrize("arch", [(2, 3, 1), (784, 32, 16, 10), (784, 200, 100, 10)])
    def test_row_sums_match_dense_rows(self, arch):
        # s and snn sum each row's N dense entries, zeros included, in numpy's order
        net = init_network(arch, seed=2)
        w = oracles.build_graph_dense(net)[0]
        for mode, dense in ((VIEW_ORIGINAL, w), (VIEW_POSITIVE, np.where(w > 0.0, w, 0.0))):
            v = threshold_view(build_graph(net), mode)
            s = dense.sum(axis=1)
            snn = np.full(len(s), np.nan)
            snn[s != 0.0] = (dense * s).sum(axis=1)[s != 0.0] / s[s != 0.0]
            assert strength(v).tobytes() == s.tobytes(), mode
            assert avg_neighbor_strength(v).tobytes() == snn.tobytes(), mode

    @pytest.mark.parametrize("net", _edge_case_nets() + [_low_pivot_net()])
    def test_grounded_inverse_matches_dense_oracle(self, net):
        absolute = LayeredNetwork(arch=net.arch, weights=[np.abs(w) for w in net.weights])
        # (net, mode, binary): the conductances are the mask, the signed and the absolute weights
        for source, mode, binary in ((net, VIEW_POSITIVE, True), (net, VIEW_ORIGINAL, False),
                                     (absolute, VIEW_ORIGINAL, False)):
            _, comp = largest_component(threshold_view(build_graph(source), mode))
            if comp.node_count < 2:
                continue
            weights, mask, _ = oracles.build_graph_dense(source)
            if mode == VIEW_POSITIVE:
                weights, mask = oracles.positive_part(weights, mask)
            keep = np.ix_(*[oracles.largest_component_naive(mask)] * 2)
            w = mask[keep].astype(np.float64) if binary else weights[keep]
            got = centrality._laplacian_pinv_diagonal(comp, binary, "test")
            np.testing.assert_allclose(got, oracles.laplacian_pinv_diagonal_dense(w), rtol=1e-9, atol=0.0)
            if binary:  # so's boolean mask gives the bits of the same mask as float weights
                blocks = tuple((a, b, m.astype(np.float64), m) for a, b, _, m in comp.blocks)
                as_weights = GraphView(comp.sizes, blocks, comp.layers)
                assert centrality._laplacian_pinv_diagonal(as_weights, False, "test").tobytes() == got.tobytes()

    def test_low_pivot_stays_in_schur_block(self, caplog):
        net = _low_pivot_net()
        weights, _, layers = oracles.build_graph_dense(net)
        d = np.abs(weights.sum(axis=1))
        low = np.flatnonzero((layers % 2 == 0) & (d <= centrality.PIVOT_TAU * d.max()))
        assert 0 in low
        with caplog.at_level(logging.DEBUG, logger="neurotopo.centrality"):
            table = measure_all(net, measures=("cfc",))
        assert f"cfc: tau 0.0001, {low.size} of 800 even-side pivots kept in S" in caplog.text
        n = len(layers)
        lp = oracles.laplacian_pinv_diagonal_dense(weights)
        hidden = np.flatnonzero((layers >= 1) & (layers < net.depth))
        want = (n - 1) / (n * lp + lp.sum())
        np.testing.assert_allclose(table.column("cfc"), want[hidden], rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize("net", _hc_edge_case_nets())
    def test_reduced_harmonic_matches_dijkstra(self, net, monkeypatch):
        graph = build_graph(net)
        v = threshold_view(graph, VIEW_POSITIVE)
        calls, sizes = [], []
        reduced, floyd = centrality._even_eliminated_distances, centrality._floyd_warshall

        def spy(*args):
            calls.append(args)
            return reduced(*args)

        def floyd_spy(d):
            sizes.append(len(d))
            return floyd(d)

        monkeypatch.setattr(centrality, "_even_eliminated_distances", spy)
        monkeypatch.setattr(centrality, "_floyd_warshall", floyd_spy)
        everything = np.arange(graph.node_count)
        mixed = np.flatnonzero(graph.layers != 1)[::2]  # inputs, deeper layers and the output
        # Dijkstra runs once over every node; each source set takes its rows
        dist = dijkstra(oracles.positive_part(*oracles.build_graph_dense(net)[:2])[0], directed=False)
        np.fill_diagonal(dist, np.inf)
        by_dijkstra = np.where(np.isfinite(dist), 1.0 / dist, 0.0).sum(axis=1)
        for nodes in (everything, mixed):
            np.testing.assert_allclose(harmonic(v, nodes), by_dijkstra[nodes], rtol=1e-12, atol=0.0)
        # both calls eliminate the even side: Floyd-Warshall runs on the odd nodes alone
        assert len(calls) == 2 and sizes == [np.count_nonzero(graph.layers % 2)] * 2

    @pytest.mark.parametrize("arch", [(784, 32, 16, 10), (784, 200, 100, 10)])
    def test_symmetric_minplus_on_reduced_graphs(self, arch, monkeypatch):
        hub_in = []
        routine = centrality._minplus_gram

        def spy(a):
            hub_in.append(a)
            return routine(a)

        monkeypatch.setattr(centrality, "_minplus_gram", spy)
        measure_all(init_network(arch, seed=0), measures=("hc",))
        (a,) = hub_in
        assert routine(a).tobytes() == centrality._minplus(a, a.T).tobytes()

    def test_symmetric_minplus_with_inf_entries(self):
        rng = np.random.default_rng(8)
        a = rng.exponential(size=(40, 70))
        a[rng.random(a.shape) < 0.6] = np.inf
        a[3] = np.inf  # a row with no finite entry
        got = centrality._minplus_gram(a)
        assert got.tobytes() == centrality._minplus(a, a.T).tobytes()
        assert np.isinf(got[3]).all() and np.isfinite(got).any()

    @staticmethod
    def gram_lengths(case):
        """Quarter-valued odd×even lengths with ties.  Half the rows are short
        on the first block of columns and inf on the second, the other half
        the other way round, and both long on the rest: a pair of one of each
        shares none of its shortest columns, so the bound cannot settle it."""
        m = centrality._GRAM_NEAR
        rng = np.random.default_rng(len(case))
        if case == "one column":
            return np.array([[1.0], [np.inf], [0.25], [2.5], [0.25], [np.inf], [0.75]])
        a = np.full((30, 3 * m), np.inf)
        a[:, 2 * m :] = rng.integers(8, 16, size=(30, m)) / 4.0
        a[::2, :m] = rng.integers(1, 5, size=(15, m)) / 4.0
        a[1::2, m : 2 * m] = rng.integers(1, 5, size=(15, m)) / 4.0
        a[rng.random(a.shape) < 0.1] = np.inf
        if case == "rows with at most m finite":
            for row, count in ((0, m), (1, m - 1), (2, 1), (3, 0)):  # 0: the all-inf row
                a[row] = np.inf
                a[row, rng.choice(a.shape[1], size=count, replace=False)] = 1.0 + rng.integers(0, 3, size=count)
        return a[:0] if case == "no rows" else a

    @pytest.mark.parametrize("case", ["ties", "rows with at most m finite", "one column", "no rows"])
    def test_pruned_gram_matches_the_column_loop(self, case, monkeypatch):
        a = self.gram_lengths(case)
        fallback, routine = [], centrality._settle

        def spy(part, unsettled, *args):
            fallback.append(np.argwhere(unsettled))
            return routine(part, unsettled, *args)

        monkeypatch.setattr(centrality, "_settle", spy)
        assert centrality._minplus_gram(a).tobytes() == oracles.minplus_naive(a, a.T).tobytes()
        (pairs,) = fallback
        assert bool(pairs.size) == (case != "no rows")
        # a row with at most m finite lengths holds them all among its shortest: the bound settles it
        many = np.isfinite(a).sum(axis=1) > min(centrality._GRAM_NEAR, a.shape[1] - 1)
        assert many[pairs].all()

    def test_odd_sources_skip_the_from_even_product(self, monkeypatch):
        # no source is on the even side: only the product for the distances to the even side runs
        calls = []
        routine = centrality._minplus

        def spy(a, b, *out):
            calls.append(a.shape)
            return routine(a, b, *out)

        monkeypatch.setattr(centrality, "_minplus", spy)
        graph = build_graph(init_network((12, 6, 5, 3), seed=0))
        v = threshold_view(graph, VIEW_POSITIVE)
        harmonic(v, np.flatnonzero(graph.layers % 2))
        assert len(calls) == 1
        harmonic(v, np.flatnonzero(graph.layers == 2))
        assert len(calls) == 3

    @pytest.mark.parametrize("shape", [(30, 40, 300), (7, 1, 20), (5, 9, 3), (6, 12, 0), (0, 10, 5)])
    def test_pruned_minplus_matches_the_column_loop(self, shape):
        rows, inner, width = shape
        rng = np.random.default_rng(sum(shape))
        a = rng.integers(1, 9, size=(rows, inner)) / 4.0  # quarters: many tied sums
        b = np.where(rng.random((inner, width)) < 0.5, rng.integers(1, 9, size=(inner, width)) / 4.0,
                     rng.exponential(size=(inner, width)))
        a[rng.random(a.shape) < 0.3] = np.inf
        b[rng.random(b.shape) < 0.4] = np.inf
        b[8:, ::4] = np.inf  # columns with 8 or fewer finite entries
        b[:, 1::9] = np.inf  # columns with none
        if rows:
            a[0] = np.inf  # a source row with no finite entry
        want = oracles.minplus_naive(a, b)
        assert centrality._minplus(a, b).tobytes() == want.tobytes()
        # the columns go where ``cols`` puts them, the others are left alone
        out = np.full((rows, width + 2), -1.0)
        centrality._minplus(a, b, out, np.arange(width)[::-1] + 2)
        assert out[:, :1:-1].tobytes() == want.tobytes() and (out[:, :2] == -1.0).all()

    def test_empty_nodes_give_empty_arrays(self):
        graph = build_graph(init_network((6, 4, 3, 2), seed=0))
        for measure_id, info in MEASURES.items():
            got = info.func(threshold_view(graph, info.view_mode), [])
            assert got.dtype == np.float64 and got.shape == (0,), measure_id

    @pytest.mark.parametrize("arch", [(784, 32, 16, 10), (784, 200, 100, 10)])
    def test_floyd_warshall_matches_scipy_bit_for_bit(self, arch, monkeypatch):
        # the layered hc bits rest on the routine adding as scipy does, in the same order
        reduced = []
        routine = centrality._floyd_warshall

        def spy(d):
            reduced.append(d.copy())
            return routine(d)

        monkeypatch.setattr(centrality, "_floyd_warshall", spy)
        measure_all(init_network(arch, seed=0), measures=("hc",))
        assert len(reduced) == 1 and len(reduced[0]) == sum(arch[1::2])
        np.testing.assert_array_equal(routine(reduced[0].copy()), floyd_warshall(reduced[0], directed=False))

    def test_isolated_hidden_neuron(self):
        table = measure_all(_edge_case_nets()[4])
        row = (table.layer == 1) & (table.neuron == 2)
        assert table.column("mc")[row] == 0.0
        assert table.column("sg")[row] == 1.0
        assert table.column("hc")[row] == 0.0
        assert np.isnan(table.column("so")[row]).all()

    def test_two_views_per_network(self, monkeypatch):
        modes = []
        inner = centrality.threshold_view

        def spy(graph, mode):
            modes.append(mode)
            return inner(graph, mode)

        monkeypatch.setattr(centrality, "threshold_view", spy)
        measure_all(init_network((12, 6, 5, 3), seed=0), measures=MEASURE_ORDER)
        assert modes == [VIEW_ORIGINAL, VIEW_POSITIVE]

    def test_one_labelling_per_view(self, monkeypatch):
        # sg and so share the positive view's labels, and cfc labels the original view
        labelled = []
        inner = GraphView.labels.func

        def spy(v):
            labelled.append(v)
            return inner(v)

        labels = cached_property(spy)
        labels.__set_name__(GraphView, "labels")
        monkeypatch.setattr(GraphView, "labels", labels)
        measure_all(init_network((12, 6, 5, 3), seed=0), measures=MEASURE_ORDER)
        assert len(labelled) == 2 and labelled[0] is not labelled[1]
        assert [v.blocks[0][3].all() for v in labelled] == [True, False]  # the original view, then the positive

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
        weights, mask, layers = oracles.build_graph_dense(net)
        n = len(layers)
        hidden = np.flatnonzero((layers >= 1) & (layers < net.depth)).tolist()
        signed = nx.Graph()
        signed.add_nodes_from(range(n))
        signed.add_weighted_edges_from(
            (int(i), int(j), float(weights[i, j])) for i, j in np.argwhere(np.triu(mask))
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

    @pytest.mark.parametrize("rows, bad_line", [
        ("a,1,0,1.0\na,1,0,2.0\na,2,1,3.0\n", 3),  # a repeated neuron
        ("b,2,1,1.0\nb,1,0,2.0\nb,1,-1,3.0\n", 3),  # descending
        ("a,1,0,1.0\nb,1,0,2.0\nb,1,-1,3.0\n", 4),  # a negative neuron
        ("a,0,3,1.0\na,1,0,2.0\n", 2),  # an input-layer row
    ])
    def test_rows_out_of_the_writers_order_rejected(self, tmp_path, rows, bad_line):
        path = tmp_path / "measures.csv"
        path.write_text("network_id,layer,neuron,s\n" + rows)
        with pytest.raises(FormatError, match=f"measures.csv:{bad_line}: network '[ab]': .*ascending"):
            read_measures_csv(path)

    def test_split_network_rows_rejected(self, tmp_path):
        path = tmp_path / "measures.csv"
        path.write_text("network_id,layer,neuron,s\na,1,0,1.0\nb,1,0,2.0\na,1,1,3.0\n")
        with pytest.raises(FormatError, match=r"measures.csv:4: .*'a'"):
            read_measures_csv(path)
