"""Graph construction, thresholded views, components, and serialization."""

import json

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from conftest import graph_from_edges, unit_graph
from oracles import largest_component_naive, model_file_naive
from neurotopo.artifacts import JSON_FLOATS_PER_CALL
from neurotopo.errors import FormatError, StructuralError
from neurotopo.model import (
    VIEW_ORIGINAL,
    VIEW_POSITIVE,
    VIEW_POSITIVE_UNWEIGHTED,
    LayeredNetwork,
    NeuronGraph,
    build_graph,
    component_labels,
    largest_component,
    load_model,
    save_model,
    threshold_view,
)
from neurotopo.trainer import init_network


def toy_net(arch, fill=0.5):
    weights = tuple(np.full((arch[a], arch[a + 1]), fill) for a in range(len(arch) - 1))
    return LayeredNetwork(arch=arch, weights=weights)


class TestLayeredNetwork:
    def test_dimension_mismatch_rejected(self):
        with pytest.raises(StructuralError, match=r"weights\[0\]"):
            LayeredNetwork(arch=(3, 2), weights=(np.zeros((3, 3)),))

    def test_wrong_matrix_count_rejected(self):
        with pytest.raises(StructuralError, match="weight matrices"):
            LayeredNetwork(arch=(3, 2), weights=(np.zeros((3, 2)), np.zeros((2, 2))))

    def test_non_finite_rejected(self):
        w = np.zeros((2, 2))
        w[0, 0] = np.inf
        with pytest.raises(StructuralError, match="non-finite"):
            LayeredNetwork(arch=(2, 2), weights=(w,))

    def test_weights_are_frozen(self):
        net = toy_net((2, 2))
        with pytest.raises(ValueError):
            net.weights[0][0, 0] = 1.0


class TestBuildGraph:
    def test_paper_architecture_counts(self):
        net = init_network((784, 200, 100, 10), seed=0)
        g = build_graph(net)
        assert g.node_count == 1094
        assert g.edge_count == 177800

    def test_tiny_counts_and_weights(self):
        g = build_graph(toy_net((2, 2, 1), fill=0.5))
        assert g.node_count == 5
        assert g.edge_count == 6
        assert np.all(g.weights[g.edge_mask] == 0.5)

    def test_single_edge(self):
        g = build_graph(toy_net((1, 1), fill=-0.3))
        assert g.node_count == 2
        assert g.edge_count == 1
        assert g.weights[0, 1] == -0.3

    def test_edge_multiset_matches_weight_entries(self):
        net = init_network((4, 3, 2), seed=5)
        g = build_graph(net)
        upper = np.triu(g.edge_mask)
        graph_values = np.sort(g.weights[upper])
        raw_values = np.sort(np.concatenate([w.reshape(-1) for w in net.weights]))
        np.testing.assert_array_equal(graph_values, raw_values)

    def test_layered_bipartite(self):
        g = build_graph(init_network((3, 4, 2), seed=1))
        rows, cols = np.nonzero(g.edge_mask)
        assert np.all(np.abs(g.layers[rows] - g.layers[cols]) == 1)


class TestThresholdView:
    def test_mixed_signs(self):
        g = graph_from_edges(4, [(0, 1, 1.0), (1, 2, -1.0), (2, 3, 0.2)])
        v = threshold_view(g, VIEW_POSITIVE)
        assert v.edge_count == 2

    def test_all_negative_leaves_isolated_nodes(self):
        g = graph_from_edges(3, [(0, 1, -1.0), (1, 2, -0.5)])
        v = threshold_view(g, VIEW_POSITIVE)
        assert v.edge_count == 0
        assert v.node_count == 3

    def test_zero_weight_excluded(self):
        g = graph_from_edges(2, [(0, 1, 0.0)])
        assert threshold_view(g, VIEW_POSITIVE).edge_count == 0
        assert threshold_view(g, VIEW_ORIGINAL).edge_count == 1

    def test_unweighted_view_assigns_unit_weights(self):
        g = graph_from_edges(2, [(0, 1, 0.7)])
        v = threshold_view(g, VIEW_POSITIVE_UNWEIGHTED)
        assert v.weights[0, 1] == 1.0

    def test_positive_count_complements_nonpositive(self):
        net = init_network((5, 4, 3), seed=3)
        g = build_graph(net)
        v = threshold_view(g, VIEW_POSITIVE)
        nonpositive = sum(int(np.sum(w <= 0.0)) for w in net.weights)
        assert v.edge_count + nonpositive == net.synapse_count

    def test_unknown_mode(self):
        g = unit_graph(2, [(0, 1)])
        with pytest.raises(StructuralError, match="view mode"):
            threshold_view(g, "negative")


class TestLargestComponent:
    def test_connected_graph_unchanged(self):
        g = unit_graph(3, [(0, 1), (1, 2)])
        comp = largest_component(threshold_view(g, VIEW_ORIGINAL))
        assert comp.view.node_count == 3
        assert comp.dropped.size == 0
        assert not comp.trivial

    def test_connected_view_is_not_copied(self):
        v = threshold_view(unit_graph(3, [(0, 1), (1, 2)]), VIEW_ORIGINAL)
        assert largest_component(v).view is v

    def test_two_components(self):
        g = unit_graph(5, [(0, 1), (1, 2), (3, 4)])
        comp = largest_component(threshold_view(g, VIEW_ORIGINAL))
        assert sorted(comp.view.node_ids.tolist()) == [0, 1, 2]
        assert sorted(comp.dropped.tolist()) == [3, 4]

    def test_size_tie_takes_smallest_node_id(self):
        g = unit_graph(4, [(2, 3), (0, 1)])
        comp = largest_component(threshold_view(g, VIEW_ORIGINAL))
        assert sorted(comp.view.node_ids.tolist()) == [0, 1]

    def test_empty_edge_set_flagged(self):
        g = graph_from_edges(3, [(0, 1, -1.0)])
        comp = largest_component(threshold_view(g, VIEW_POSITIVE))
        assert comp.trivial
        assert comp.view.node_ids.tolist() == [0]
        assert sorted(comp.dropped.tolist()) == [1, 2]

    @staticmethod
    def tied_blocks(rng):
        """Components of a few equal sizes (each a random spanning tree plus
        extra edges), under a random node relabelling, so sizes often tie."""
        sizes = rng.choice([1, 2, 3], size=int(rng.integers(1, 7)))
        n = int(sizes.sum())
        label = rng.permutation(n)
        mask = np.zeros((n, n), dtype=bool)
        start = 0
        for size in sizes:
            block = label[start : start + size]
            for k in range(1, size):
                mask[block[k], block[rng.integers(k)]] = True
            extra = np.triu(rng.random((size, size)) < 0.3, k=1)
            mask[np.ix_(block, block)] |= extra
            start += size
        return mask | mask.T

    @staticmethod
    def sparse_random(rng):
        n = int(rng.integers(1, 16))
        upper = np.triu(rng.random((n, n)) < rng.choice([0.0, 0.05, 0.15, 0.4]), k=1)
        return upper | upper.T

    # 12 of these 60 views have no edge and 29 have a tie for the largest size
    @pytest.mark.parametrize("seed", range(60))
    def test_matches_breadth_first_search(self, seed):
        rng = np.random.default_rng(seed)
        mask = self.tied_blocks(rng) if seed % 2 else self.sparse_random(rng)
        n = mask.shape[0]
        weights = np.where(mask, rng.uniform(0.1, 1.0, size=(n, n)), 0.0)
        g = NeuronGraph(weights=np.triu(weights) + np.triu(weights, 1).T, edge_mask=mask)
        comp = largest_component(threshold_view(g, VIEW_ORIGINAL))
        keep = largest_component_naive(mask)
        assert comp.view.node_ids.tolist() == keep
        assert comp.dropped.tolist() == sorted(set(range(n)) - set(keep))
        assert comp.trivial == (not mask.any())
        np.testing.assert_array_equal(comp.view.edge_mask, mask[np.ix_(keep, keep)])
        np.testing.assert_array_equal(comp.view.weights, g.weights[np.ix_(keep, keep)])


    @pytest.mark.parametrize("seed", range(20))
    def test_component_labels_match_scipy(self, seed):
        rng = np.random.default_rng(100 + seed)
        mask = self.tied_blocks(rng) if seed % 2 else self.sparse_random(rng)
        count, labels = component_labels(mask)
        want_count, want_labels = connected_components(csr_matrix(mask), directed=False)
        assert count == want_count
        np.testing.assert_array_equal(labels, want_labels)


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        net = init_network((784, 200, 100, 10), seed=11, dataset_id="bench")
        path = tmp_path / "model.json"
        save_model(net, path)
        loaded = load_model(path)
        assert loaded.arch == net.arch
        for a, b in zip(loaded.weights, net.weights):
            np.testing.assert_array_equal(a, b)
        second = tmp_path / "model2.json"
        save_model(loaded, second)
        assert path.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize(
        "arch",
        [(1, 1), (JSON_FLOATS_PER_CALL - 1, 1, 1), (JSON_FLOATS_PER_CALL, 1, 1),
         (1, JSON_FLOATS_PER_CALL + 1, 1), (2, JSON_FLOATS_PER_CALL + 1, 3)],
    )
    def test_bytes_match_one_json_dumps_of_the_document(self, tmp_path, arch):
        edge = [-0.0, 5e-324, 1e-05, 0.1, 1e16, -1.7976931348623157e308]
        net = init_network(arch, seed=5, dataset_id="ds")
        weights = []
        for w in net.weights:
            w = w.copy()
            w.reshape(-1)[::2] = np.resize(edge, (w.size + 1) // 2)  # every other weight, cycled
            weights.append(w)
        meta = dict(net.meta, notes={"schedule": ["flat", {"ëta": 0.01, "ζ": None}]}, **{"ключ": "значение €"})
        net = LayeredNetwork(arch=net.arch, weights=tuple(weights), meta=meta)
        path = tmp_path / "m.json"
        save_model(net, path)
        assert path.read_bytes() == model_file_naive(net)
        assert load_model(path).meta == meta

    def test_nan_in_unknown_meta_raises_and_leaves_no_file(self, tmp_path):
        net = init_network((3, 2), seed=0)
        bad = LayeredNetwork(arch=net.arch, weights=net.weights,
                             meta=dict(net.meta, notes={"curve": [0.5, float("nan")]}))
        with pytest.raises(ValueError):
            save_model(bad, tmp_path / "m.json")
        assert list(tmp_path.iterdir()) == []

    def test_document_key_set(self, tmp_path):
        net = init_network((2, 3), seed=1)
        path = tmp_path / "m.json"
        save_model(net, path)
        doc = json.loads(path.read_text())
        assert set(doc) == {"format", "arch", "weights", "meta"}
        assert doc["format"] == "nnx-json/1"
        assert len(doc["weights"][0]) == 6  # row-major flat list per matrix

    def test_failed_save_keeps_previous_file(self, tmp_path):
        net = init_network((3, 2, 2), seed=0)
        path = tmp_path / "m.json"
        save_model(net, path)
        before = path.read_bytes()
        bad = LayeredNetwork(arch=net.arch, weights=net.weights, meta=dict(net.meta, test_acc=float("nan")))
        with pytest.raises(ValueError):
            save_model(bad, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.json"]

    def test_unknown_meta_keys_preserved(self, tmp_path):
        net = init_network((2, 2), seed=0)
        meta = dict(net.meta)
        meta["notes"] = {"lr_schedule": "flat"}
        net = LayeredNetwork(arch=net.arch, weights=net.weights, meta=meta)
        path = tmp_path / "m.json"
        save_model(net, path)
        assert load_model(path).meta["notes"] == {"lr_schedule": "flat"}

    def test_truncated_file(self, tmp_path):
        net = init_network((2, 2), seed=0)
        path = tmp_path / "m.json"
        save_model(net, path)
        path.write_bytes(path.read_bytes()[:40])
        with pytest.raises(FormatError, match="JSON"):
            load_model(path)

    def test_wrong_value_count(self, tmp_path):
        doc = {
            "format": "nnx-json/1",
            "arch": [3, 2],
            "weights": [[0.0] * 7],
            "meta": {"seed": 0, "dataset_id": "", "epochs": 0, "train_acc": 0.0, "test_acc": 0.0},
        }
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match=r"weights\[0\]: expected 6 values, got 7"):
            load_model(path)

    def test_string_weight_names_file_and_matrix(self, tmp_path):
        doc = {
            "format": "nnx-json/1",
            "arch": [2, 2, 1],
            "weights": [[0.5, 0.5, 0.5, 0.5], ["a", 1.0]],
            "meta": {"seed": 0, "dataset_id": "", "epochs": 0, "train_acc": 0.0, "test_acc": 0.0},
        }
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match=r"m.json: weights\[1\]: .*'a'"):
            load_model(path)

    @pytest.mark.parametrize("odd", ['"0.5"', "true", "[0.5]", "1"])
    def test_weight_that_is_no_json_float_rejected(self, tmp_path, odd):
        # numpy would read each of these as a weight; save_model writes floats only
        path = tmp_path / "m.json"
        path.write_text('{"format": "nnx-json/1", "arch": [2, 2, 1], "weights": [[0.5, 0.5, 0.5, 0.5], '
                        '[%s, 1.0]], "meta": {"seed": 0, "dataset_id": "", "epochs": 0, '
                        '"train_acc": 0.0, "test_acc": 0.0}}' % odd)
        with pytest.raises(FormatError, match=r"m.json: weights\[1\]: expected JSON floats"):
            load_model(path)

    def test_boolean_layer_size_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"format": "nnx-json/1", "arch": [true, 2], "weights": [[0.5, 0.5]], '
                        '"meta": {"seed": 0, "dataset_id": "", "epochs": 0, "train_acc": 0.0, "test_acc": 0.0}}')
        with pytest.raises(FormatError, match="m.json: arch: must be a list of >= 2 positive integers"):
            load_model(path)

    def test_bad_format_field(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"format": "nnx-json/2", "arch": [1, 1], "weights": [[0.0]], "meta": {}}')
        with pytest.raises(FormatError, match="format"):
            load_model(path)

    def test_missing_meta_field(self, tmp_path):
        doc = {
            "format": "nnx-json/1",
            "arch": [1, 1],
            "weights": [[0.5]],
            "meta": {"seed": 0, "dataset_id": "", "epochs": 0, "train_acc": 0.0},
        }
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="meta.test_acc"):
            load_model(path)

    def test_non_finite_weight_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"format": "nnx-json/1", "arch": [1, 1], "weights": [[Infinity]], '
                        '"meta": {"seed": 0, "dataset_id": "", "epochs": 0, "train_acc": 0.0, "test_acc": 0.0}}')
        with pytest.raises(FormatError, match="non-finite"):
            load_model(path)
